"""The ILP formulation of integrated qubit reuse and circuit cutting (Section 4.2).

Variables (per padded operation ``x``, subcircuit ``c``, wire segment ``e``):

* ``p[x, c]``   — operation ``x`` fully placed in subcircuit ``c`` (the paper's
  ``V``/``S``/``F`` variables, merged because they share every constraint),
* ``g[x]``      — two-qubit gate ``x`` is gate-cut,
* ``gt[x, c]`` / ``gb[x, c]`` — the top / bottom half of a gate-cut gate placed in
  ``c`` (paper's ``GT``/``GB``),
* ``w[e]``      — wire segment ``e`` is cut (paper's ``WS``/``WT``/``WB``, unified
  because a segment is identified by its downstream endpoint),
* ``z[e, c]``   — auxiliary XOR indicators linking ``w[e]`` to the placements of the
  segment's two endpoints (this replaces the paper's absolute-value constraints
  (13)/(14) with an exact linearisation),
* ``used[c]``   — subcircuit ``c`` is non-empty (for the ``[C_min, C_max]`` bound),
* ``te``        — the maximum number of intact two-qubit gates in any subcircuit
  (the fidelity proxy TE of Eq. 16).

The capacity constraint switches between the QRCC layer-based model (Eq. 11 — a wire
cut frees the qubit for later reuse) and the CutQC width model (one extra
initialisation qubit per incoming cut, no reuse) so that the same machinery builds
both the proposed system and the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuits import Circuit
from ..cutting import CutSolution, GateCut, WireCut
from ..exceptions import InfeasibleError, SearchTimeoutError, SolverError
from ..ilp import LinearExpression, Model, ScipyMilpBackend, SolveResult, SolveStatus, Variable
from .config import CutConfig
from .qr_dag import QRAwareDag

__all__ = ["CuttingFormulation", "FormulationStatistics"]


@dataclass
class FormulationStatistics:
    """Model-size statistics archived with every solve (used by Table 4)."""

    num_variables: int = 0
    num_binary_variables: int = 0
    num_constraints: int = 0
    num_wire_cut_candidates: int = 0
    num_gate_cut_candidates: int = 0
    num_layers: int = 0
    solve_time: float = 0.0
    status: str = "unsolved"
    objective_value: Optional[float] = None


class CuttingFormulation:
    """Builds and solves the cutting ILP for one circuit + configuration."""

    def __init__(self, circuit: Circuit, config: CutConfig) -> None:
        self._dag = QRAwareDag(circuit)
        self._config = config
        self._model = Model("qrcc" if config.enable_qubit_reuse else "cutqc")
        self._placement: Dict[Tuple[int, int], Variable] = {}
        self._gate_cut: Dict[int, Variable] = {}
        self._gate_top: Dict[Tuple[int, int], Variable] = {}
        self._gate_bottom: Dict[Tuple[int, int], Variable] = {}
        self._wire_cut: Dict[Tuple[int, int], Variable] = {}
        self._used: Dict[int, Variable] = {}
        self._te: Optional[Variable] = None
        self.statistics = FormulationStatistics()
        self._build()

    # ------------------------------------------------------------------ accessors
    @property
    def dag(self) -> QRAwareDag:
        return self._dag

    @property
    def config(self) -> CutConfig:
        return self._config

    @property
    def model(self) -> Model:
        return self._model

    @property
    def subcircuit_range(self) -> range:
        return range(self._config.max_subcircuits)

    # ------------------------------------------------------------------ model build
    def _build(self) -> None:
        self._create_variables()
        self._add_placement_constraints()
        self._add_wire_cut_constraints()
        self._add_capacity_constraints()
        self._add_budget_constraints()
        self._add_usage_constraints()
        self._add_objective()
        self.statistics.num_variables = self._model.num_variables
        self.statistics.num_binary_variables = sum(
            1 for v in self._model.variables if v.is_binary
        )
        self.statistics.num_constraints = self._model.num_constraints
        self.statistics.num_wire_cut_candidates = len(self._wire_cut)
        self.statistics.num_gate_cut_candidates = len(self._gate_cut)
        self.statistics.num_layers = self._dag.num_layers

    def _create_variables(self) -> None:
        model = self._model
        config = self._config
        gate_cut_candidates = (
            set(self._dag.gate_cut_candidates()) if config.enable_gate_cuts else set()
        )
        for entry in self._dag.entries:
            for c in self.subcircuit_range:
                self._placement[(entry.index, c)] = model.add_binary(f"p_{entry.index}_{c}")
            if entry.index in gate_cut_candidates:
                self._gate_cut[entry.index] = model.add_binary(f"g_{entry.index}")
                for c in self.subcircuit_range:
                    self._gate_top[(entry.index, c)] = model.add_binary(
                        f"gt_{entry.index}_{c}"
                    )
                    self._gate_bottom[(entry.index, c)] = model.add_binary(
                        f"gb_{entry.index}_{c}"
                    )
        for qubit, downstream in self._dag.wire_cut_candidates():
            self._wire_cut[(qubit, downstream)] = model.add_binary(f"w_{qubit}_{downstream}")
        for c in self.subcircuit_range:
            self._used[c] = model.add_binary(f"used_{c}")
        self._te = model.add_continuous("te", 0.0, float(len(self._dag.two_qubit_gate_indices())))

    def _endpoint_placement(self, op_index: int, qubit: int, c: int) -> LinearExpression:
        """Effective placement of the (op, qubit) endpoint in subcircuit ``c``."""
        operation = self._dag.padded_circuit.operations[op_index]
        expression = LinearExpression.from_variable(self._placement[(op_index, c)])
        if op_index in self._gate_cut:
            if qubit == operation.qubits[0]:
                expression = expression + self._gate_top[(op_index, c)]
            else:
                expression = expression + self._gate_bottom[(op_index, c)]
        return expression

    def _add_placement_constraints(self) -> None:
        model = self._model
        for entry in self._dag.entries:
            placements = Model.sum(
                self._placement[(entry.index, c)] for c in self.subcircuit_range
            )
            if entry.index in self._gate_cut:
                gate = self._gate_cut[entry.index]
                model.add_eq(placements + gate, 1, f"place_{entry.index}")
                model.add_eq(
                    Model.sum(self._gate_top[(entry.index, c)] for c in self.subcircuit_range)
                    - gate,
                    0,
                    f"gtop_{entry.index}",
                )
                model.add_eq(
                    Model.sum(self._gate_bottom[(entry.index, c)] for c in self.subcircuit_range)
                    - gate,
                    0,
                    f"gbottom_{entry.index}",
                )
                for c in self.subcircuit_range:
                    model.add_le(
                        self._gate_top[(entry.index, c)] + self._gate_bottom[(entry.index, c)],
                        1,
                        f"gsplit_{entry.index}_{c}",
                    )
            else:
                model.add_eq(placements, 1, f"place_{entry.index}")

    def _add_wire_cut_constraints(self) -> None:
        model = self._model
        dag = self._dag.dag
        for (qubit, downstream), cut_var in self._wire_cut.items():
            upstream = dag.predecessor_on(downstream, qubit)
            z_sum = LinearExpression()
            for c in self.subcircuit_range:
                up_place = self._endpoint_placement(upstream, qubit, c)
                down_place = self._endpoint_placement(downstream, qubit, c)
                z = model.add_continuous(f"z_{qubit}_{downstream}_{c}", 0.0, 1.0)
                model.add_ge(z - up_place + down_place, 0, f"zc1_{qubit}_{downstream}_{c}")
                model.add_ge(z + up_place - down_place, 0, f"zc2_{qubit}_{downstream}_{c}")
                model.add_le(z - up_place - down_place, 0, f"zc3_{qubit}_{downstream}_{c}")
                model.add_le(z + up_place + down_place, 2, f"zc4_{qubit}_{downstream}_{c}")
                z_sum = z_sum + z
            model.add_eq(z_sum - 2 * cut_var, 0, f"wire_{qubit}_{downstream}")

    def _add_capacity_constraints(self) -> None:
        if self._config.enable_qubit_reuse:
            self._add_layer_capacity_constraints()
        else:
            self._add_width_capacity_constraints()

    def _add_layer_capacity_constraints(self) -> None:
        """QRCC capacity (Eq. 11): per-layer endpoint count per subcircuit <= D."""
        model = self._model
        device = self._config.device_size
        for layer, endpoints in sorted(self._dag.endpoint_layers().items()):
            for c in self.subcircuit_range:
                occupancy = Model.sum(
                    self._endpoint_placement(op_index, qubit, c) for op_index, qubit in endpoints
                )
                model.add_le(occupancy, device, f"cap_l{layer}_c{c}")

    def _add_width_capacity_constraints(self) -> None:
        """CutQC capacity: #wire starts + #incoming cut initialisations per subcircuit <= D."""
        model = self._model
        device = self._config.device_size
        dag = self._dag.dag
        circuit = self._dag.padded_circuit
        for c in self.subcircuit_range:
            width = LinearExpression()
            for qubit in range(circuit.num_qubits):
                first_op = dag.qubit_first_op(qubit)
                if first_op is None:
                    continue
                width = width + self._endpoint_placement(first_op, qubit, c)
            for (qubit, downstream), _ in self._wire_cut.items():
                upstream = dag.predecessor_on(downstream, qubit)
                up_place = self._endpoint_placement(upstream, qubit, c)
                down_place = self._endpoint_placement(downstream, qubit, c)
                incoming = model.add_continuous(f"in_{qubit}_{downstream}_{c}", 0.0, 1.0)
                model.add_ge(incoming - down_place + up_place, 0, f"in1_{qubit}_{downstream}_{c}")
                model.add_le(incoming - down_place, 0, f"in2_{qubit}_{downstream}_{c}")
                model.add_le(incoming + up_place, 1, f"in3_{qubit}_{downstream}_{c}")
                width = width + incoming
            model.add_le(width, device, f"width_c{c}")

    def _add_budget_constraints(self) -> None:
        model = self._model
        if self._wire_cut:
            model.add_le(
                Model.sum(self._wire_cut.values()), self._config.max_wire_cuts, "wire_budget"
            )
        if self._gate_cut:
            model.add_le(
                Model.sum(self._gate_cut.values()), self._config.max_gate_cuts, "gate_budget"
            )

    def _add_usage_constraints(self) -> None:
        model = self._model
        big_m = 2 * len(self._dag.entries) + 2
        for c in self.subcircuit_range:
            total = Model.sum(
                self._placement[(entry.index, c)] for entry in self._dag.entries
            )
            if self._gate_cut:
                total = total + Model.sum(
                    self._gate_top[(index, c)] + self._gate_bottom[(index, c)]
                    for index in self._gate_cut
                )
            model.add_le(total - big_m * self._used[c], 0, f"used_hi_{c}")
            model.add_ge(total - self._used[c], 0, f"used_lo_{c}")
            if c > 0:
                model.add_le(self._used[c] - self._used[c - 1], 0, f"used_order_{c}")
        model.add_ge(
            Model.sum(self._used.values()), self._config.min_subcircuits, "min_subcircuits"
        )

        # Fidelity proxy: te >= number of intact two-qubit gates in every subcircuit.
        for c in self.subcircuit_range:
            two_qubit_total = Model.sum(
                self._placement[(index, c)] for index in self._dag.two_qubit_gate_indices()
            )
            model.add_ge(self._te - two_qubit_total, 0, f"te_c{c}")

    def _add_objective(self) -> None:
        config = self._config
        pp_cost = LinearExpression()
        if self._wire_cut:
            pp_cost = pp_cost + config.alpha * Model.sum(self._wire_cut.values())
        if self._gate_cut:
            pp_cost = pp_cost + config.beta * Model.sum(self._gate_cut.values())
        fidelity_cost = config.fidelity_weight * self._te
        objective = config.delta * pp_cost + (1.0 - config.delta) * fidelity_cost
        self._model.set_objective(objective)

    # ------------------------------------------------------------------ solving
    def solve(self) -> SolveResult:
        backend = ScipyMilpBackend(
            time_limit=self._config.time_limit, mip_rel_gap=self._config.mip_gap
        )
        result = backend.solve(self._model)
        self.statistics.solve_time = result.solve_time
        self.statistics.status = result.status
        self.statistics.objective_value = result.objective_value
        return result

    def decode(self, result: SolveResult) -> CutSolution:
        """Turn a solver result into a validated :class:`CutSolution`."""
        if result.status == SolveStatus.INFEASIBLE:
            raise InfeasibleError(
                "no cutting solution exists for this circuit/device combination "
                "(the paper's 'no-solution' case)"
            )
        if result.status == SolveStatus.TIMEOUT:
            raise SearchTimeoutError(
                "the cutting search hit its time limit before finding any solution"
            )
        if not result.has_solution:
            raise SolverError(f"solver returned status {result.status!r} without a solution")

        op_subcircuit: Dict[int, int] = {}
        gate_cuts: List[GateCut] = []
        gate_cut_placement: Dict[int, Tuple[int, int]] = {}
        for entry in self._dag.entries:
            index = entry.index
            if index in self._gate_cut and result.binary_value(self._gate_cut[index]):
                top = self._chosen_subcircuit(result, self._gate_top, index)
                bottom = self._chosen_subcircuit(result, self._gate_bottom, index)
                gate_cuts.append(GateCut(index))
                gate_cut_placement[index] = (top, bottom)
            else:
                op_subcircuit[index] = self._chosen_subcircuit(result, self._placement, index)

        wire_cuts = [
            WireCut(qubit, downstream)
            for (qubit, downstream), variable in self._wire_cut.items()
            if result.binary_value(variable)
        ]

        solution = CutSolution(
            circuit=self._dag.padded_circuit,
            op_subcircuit=op_subcircuit,
            wire_cuts=sorted(wire_cuts),
            gate_cuts=sorted(gate_cuts),
            gate_cut_placement=gate_cut_placement,
            metadata={
                "solver_status": result.status,
                "objective_value": result.objective_value,
                "solve_time": result.solve_time,
                "config": self._config,
                "model_variables": self._model.num_variables,
                "model_constraints": self._model.num_constraints,
            },
        )
        solution.validate()
        return solution

    def solve_and_decode(self) -> CutSolution:
        return self.decode(self.solve())

    def _chosen_subcircuit(
        self, result: SolveResult, table: Dict[Tuple[int, int], Variable], index: int
    ) -> int:
        for c in self.subcircuit_range:
            variable = table.get((index, c))
            if variable is not None and result.binary_value(variable):
                return c
        raise SolverError(f"operation {index} has no subcircuit in the solver result")
