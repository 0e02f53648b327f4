"""Exact simulation of dynamic circuits (mid-circuit measurement and reset).

The QRCC pipeline leans on three dynamic-circuit features:

* **qubit reuse** — measure a finished qubit, reset it, and re-deploy it as another
  logical qubit (Section 2.4),
* **wire-cut variants** — the upstream end of a wire cut measures the cut wire in a
  Pauli basis, and the eigenvalue of the outcome enters the reconstruction with a
  sign (Eq. 3),
* **gate-cut instances** — two of the six Mitarai–Fujii instances measure one operand
  and multiply the outcome (+1/-1) into the final expectation value (Eq. 4).

Instead of sampling, :class:`BranchingSimulator` *enumerates* every measurement
outcome exactly, carrying a probability and a cumulative ±1 outcome-sign per branch.
This makes the reconstruction identities exact (testable to 1e-9) rather than
statistical.  A shot-based interface is provided on top for noise/shot experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..exceptions import SimulationError
from ..utils.pauli import PauliObservable
from .statevector import Statevector, _apply_matrix, _validate_gate

__all__ = ["Branch", "BranchedResult", "BranchingSimulator", "simulate_dynamic"]

#: Measurements whose tag starts with this prefix contribute their outcome sign
#: (+1 for outcome 0, -1 for outcome 1) to the branch weight.  Wire-cut and gate-cut
#: variant builders tag their measurements this way.
SIGNED_MEASUREMENT_PREFIX = "signed:"

#: Probability below which a branch is pruned (exactly-zero amplitudes only, by
#: default, so results stay exact).
_DEFAULT_PRUNE_THRESHOLD = 1e-14

#: The X gate applied after a reset that projected onto |1>.
_FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass
class Branch:
    """One measurement-outcome branch of a dynamic circuit execution."""

    probability: float
    sign: int
    state: np.ndarray
    outcomes: Dict[str, int] = field(default_factory=dict)

    def record(self, key: str, outcome: int) -> None:
        self.outcomes[key] = outcome


@dataclass
class BranchedResult:
    """All branches of an exact dynamic-circuit simulation."""

    num_qubits: int
    branches: List[Branch]

    def total_probability(self) -> float:
        return float(sum(b.probability for b in self.branches))

    def probabilities(self) -> np.ndarray:
        """Outcome-sign-weighted basis distribution, summed over branches.

        For circuits without signed measurements this is the ordinary probability
        distribution of the final state combined with the recorded measurement
        collapse.
        """
        total = np.zeros(2**self.num_qubits)
        for branch in self.branches:
            total += branch.sign * branch.probability * (np.abs(branch.state) ** 2)
        return total

    def expectation(self, observable: PauliObservable) -> float:
        """Outcome-sign-weighted expectation of ``observable`` over all branches."""
        value = 0.0
        for branch in self.branches:
            sv = Statevector(branch.state)
            value += branch.sign * branch.probability * sv.expectation(observable)
        return float(value)

    def expectation_of_signs(self) -> float:
        """Sum of sign * probability (the expectation of the recorded ±1 outcomes).

        Accumulated strictly left to right from ``0.0``, the order the batched
        kernel reproduces with ``np.add.at``.  The loop is spelled out
        because Python's ``sum`` compensates float rounding from 3.12 on.
        """
        total = 0.0
        for branch in self.branches:
            total += branch.sign * branch.probability
        return float(total)

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Sign-weighted marginal over ``qubits``."""
        total = np.zeros(2 ** len(qubits))
        for branch in self.branches:
            sv = Statevector(branch.state)
            total += branch.sign * branch.probability * sv.marginal_probabilities(qubits)
        return total


class BranchingSimulator:
    """Exact simulator for circuits containing measure/reset operations."""

    def __init__(self, prune_threshold: float = _DEFAULT_PRUNE_THRESHOLD) -> None:
        if prune_threshold < 0:
            raise SimulationError("prune_threshold must be non-negative")
        self._prune_threshold = prune_threshold

    def run(
        self,
        circuit: Circuit,
        initial_labels: Optional[Sequence[str]] = None,
    ) -> BranchedResult:
        """Simulate ``circuit`` exactly, enumerating all measurement outcomes."""
        num_qubits = circuit.num_qubits
        if initial_labels is None:
            initial = Statevector.zero_state(num_qubits).data
        else:
            if len(initial_labels) != num_qubits:
                raise SimulationError("initial_labels must have one label per qubit")
            initial = Statevector.from_label(initial_labels).data
        branches = [Branch(probability=1.0, sign=1, state=initial)]
        # Matrix construction and shape validation are hoisted out of the branch
        # loop: a circuit is validated once, then every branch pays only for the
        # gate kernel itself.
        matrices: List[Optional[np.ndarray]] = []
        for op in circuit.operations:
            if op.is_unitary:
                matrix = op.matrix()
                _validate_gate(matrix, op.qubits, num_qubits)
                matrices.append(matrix)
            else:
                matrices.append(None)
        for op_index, op in enumerate(circuit.operations):
            if op.is_unitary:
                matrix = matrices[op_index]
                for branch in branches:
                    branch.state = _apply_matrix(branch.state, matrix, op.qubits, num_qubits)
            elif op.is_measurement:
                branches = self._apply_measurement(branches, op_index, op, num_qubits)
            elif op.is_reset:
                branches = self._apply_reset(branches, op, num_qubits)
            else:  # pragma: no cover - defensive, Operation validates names
                raise SimulationError(f"unsupported operation {op.name!r}")
        return BranchedResult(num_qubits, branches)

    # ------------------------------------------------------------------ internals
    def _apply_measurement(
        self, branches: List[Branch], op_index: int, op: Any, num_qubits: int
    ) -> List[Branch]:
        qubit = op.qubits[0]
        signed = bool(op.tag) and op.tag.startswith(SIGNED_MEASUREMENT_PREFIX)
        key = op.tag if op.tag else f"m{op_index}"
        result: List[Branch] = []
        for branch in branches:
            for outcome in (0, 1):
                projected, probability = _project(branch.state, qubit, outcome, num_qubits)
                if probability <= self._prune_threshold:
                    continue
                sign = branch.sign * (-1 if (signed and outcome == 1) else 1)
                child = Branch(
                    probability=branch.probability * probability,
                    sign=sign,
                    state=projected,
                    outcomes=dict(branch.outcomes),
                )
                child.record(key, outcome)
                result.append(child)
        return result

    def _apply_reset(self, branches: List[Branch], op: Any, num_qubits: int) -> List[Branch]:
        qubit = op.qubits[0]
        result: List[Branch] = []
        for branch in branches:
            for outcome in (0, 1):
                projected, probability = _project(branch.state, qubit, outcome, num_qubits)
                if probability <= self._prune_threshold:
                    continue
                if outcome == 1:
                    projected = _apply_matrix(projected, _FLIP, (qubit,), num_qubits)
                result.append(
                    Branch(
                        probability=branch.probability * probability,
                        sign=branch.sign,
                        state=projected,
                        outcomes=dict(branch.outcomes),
                    )
                )
        return result


def _project(
    state: np.ndarray, qubit: int, outcome: int, num_qubits: int
) -> Tuple[np.ndarray, float]:
    """Project ``state`` onto ``qubit == outcome``; return (normalised state, probability)."""
    indices = np.arange(len(state))
    mask = ((indices >> qubit) & 1) == outcome
    probability = float(np.sum(np.abs(state[mask]) ** 2))
    projected = np.where(mask, state, 0.0)
    if probability > 0:
        projected = projected / np.sqrt(probability)
    return projected, probability


def simulate_dynamic(
    circuit: Circuit, initial_labels: Optional[Sequence[str]] = None
) -> BranchedResult:
    """Convenience wrapper: run :class:`BranchingSimulator` on ``circuit``."""
    return BranchingSimulator().run(circuit, initial_labels)
