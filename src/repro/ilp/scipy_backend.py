"""HiGHS (``scipy.optimize.milp``) backend for :class:`repro.ilp.model.Model`.

This replaces the Gurobi solver used in the paper.  The model is compiled into the
standard form expected by ``scipy.optimize.milp``: an objective coefficient vector, a
stacked sparse constraint matrix with per-row lower/upper bounds, variable bounds and
an integrality vector.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import SolverError
from ..utils.timing import perf_clock
from .model import Model, Sense
from .result import SolveResult, SolveStatus

__all__ = ["ScipyMilpBackend", "solve_with_scipy"]


class ScipyMilpBackend:
    """Compile and solve a model with ``scipy.optimize.milp`` (HiGHS)."""

    name = "scipy-highs"

    def __init__(self, time_limit: Optional[float] = None, mip_rel_gap: float = 0.0) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap

    def solve(self, model: Model) -> SolveResult:
        # Deferred: loading scipy.optimize costs more than the rest of the package.
        from scipy import optimize, sparse

        if model.num_variables == 0:
            return SolveResult(SolveStatus.OPTIMAL, model.objective.constant, {}, 0.0, self.name)

        num_vars = model.num_variables
        objective = np.zeros(num_vars)
        for index, coefficient in model.objective.coefficients.items():
            objective[index] = coefficient

        rows, columns, data = [], [], []
        lower_bounds, upper_bounds = [], []
        for row, constraint in enumerate(model.constraints):
            for index, coefficient in constraint.expression.coefficients.items():
                if coefficient == 0.0:  # qrcclint: disable=float-equality -- exact-zero skip while building the sparse matrix; coefficients are assigned, not computed
                    continue
                rows.append(row)
                columns.append(index)
                data.append(coefficient)
            rhs = constraint.rhs - constraint.expression.constant
            if constraint.sense == Sense.LE:
                lower_bounds.append(-np.inf)
                upper_bounds.append(rhs)
            elif constraint.sense == Sense.GE:
                lower_bounds.append(rhs)
                upper_bounds.append(np.inf)
            else:
                lower_bounds.append(rhs)
                upper_bounds.append(rhs)

        constraints = None
        if model.num_constraints:
            matrix = sparse.csr_matrix(
                (data, (rows, columns)), shape=(model.num_constraints, num_vars)
            )
            constraints = optimize.LinearConstraint(
                matrix, np.array(lower_bounds), np.array(upper_bounds)
            )

        integrality = np.array([1 if v.is_integer else 0 for v in model.variables])
        bounds = optimize.Bounds(
            np.array([v.lower for v in model.variables]),
            np.array([v.upper for v in model.variables]),
        )

        options = {"presolve": True}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        if self.mip_rel_gap:
            options["mip_rel_gap"] = float(self.mip_rel_gap)

        start = perf_clock()
        try:
            result = optimize.milp(
                c=objective,
                constraints=constraints,
                integrality=integrality,
                bounds=bounds,
                options=options,
            )
        except Exception as exc:  # pragma: no cover - defensive
            raise SolverError(f"scipy.optimize.milp failed: {exc}") from exc
        elapsed = perf_clock() - start

        return self._to_result(model, result, elapsed)

    def _to_result(self, model: Model, result, elapsed: float) -> SolveResult:
        # scipy milp status codes: 0 optimal, 1 iteration/time limit, 2 infeasible,
        # 3 unbounded, 4 other.
        if result.x is not None:
            assignment = {}
            for variable in model.variables:
                value = float(result.x[variable.index])
                if variable.is_integer:
                    value = float(round(value))
                assignment[variable.index] = value
            objective_value = model.objective.value(assignment)
            status = SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
            return SolveResult(status, objective_value, assignment, elapsed, self.name)
        if result.status == 2:
            return SolveResult(SolveStatus.INFEASIBLE, None, {}, elapsed, self.name)
        if result.status == 3:
            return SolveResult(SolveStatus.UNBOUNDED, None, {}, elapsed, self.name)
        if result.status == 1:
            return SolveResult(SolveStatus.TIMEOUT, None, {}, elapsed, self.name)
        return SolveResult(SolveStatus.ERROR, None, {}, elapsed, self.name)


def solve_with_scipy(
    model: Model, time_limit: Optional[float] = None, mip_rel_gap: float = 0.0
) -> SolveResult:
    """One-call helper used throughout the core pipeline."""
    return ScipyMilpBackend(time_limit=time_limit, mip_rel_gap=mip_rel_gap).solve(model)
