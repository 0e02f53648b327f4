"""The :class:`Circuit` class — an ordered list of operations on ``num_qubits`` wires.

The class intentionally mirrors the small subset of Qiskit's ``QuantumCircuit`` API
that the paper's pipeline needs (builder methods, depth, gate counts, composition),
while adding the pieces the cutting framework relies on: per-qubit operation order,
layer scheduling (ASAP moments) and qubit remapping.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CircuitError
from .gates import GATE_SPECS, Operation, operation

__all__ = ["Circuit"]


class Circuit:
    """A quantum circuit over ``num_qubits`` qubits.

    Operations are stored in program order.  Qubits are integers ``0..num_qubits-1``.
    Measurements may appear anywhere (mid-circuit measurement is first-class so that
    qubit reuse and cut variants are representable).
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError(f"a circuit needs at least one qubit, got {num_qubits}")
        self._num_qubits = int(num_qubits)
        self._operations: List[Operation] = []
        self.name = name

    # ------------------------------------------------------------------ basics
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def operations(self) -> Tuple[Operation, ...]:
        return tuple(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self._num_qubits == other._num_qubits
            and self._operations == other._operations
        )

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"Circuit(name={self.name!r}, num_qubits={self._num_qubits}, "
            f"num_operations={len(self._operations)})"
        )

    def copy(self, name: Optional[str] = None) -> "Circuit":
        clone = Circuit(self._num_qubits, name or self.name)
        clone._operations = list(self._operations)
        return clone

    # ------------------------------------------------------------------ builders
    def append(self, op: Operation) -> "Circuit":
        """Append an already-constructed operation (validates qubit indices)."""
        for qubit in op.qubits:
            if not 0 <= qubit < self._num_qubits:
                raise CircuitError(
                    f"operation {op.name!r} addresses qubit {qubit} but the circuit "
                    f"only has {self._num_qubits} qubits"
                )
        self._operations.append(op)
        return self

    def add(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "Circuit":
        return self.append(operation(name, qubits, params))

    def h(self, qubit: int) -> "Circuit":
        return self.add("h", [qubit])

    def x(self, qubit: int) -> "Circuit":
        return self.add("x", [qubit])

    def y(self, qubit: int) -> "Circuit":
        return self.add("y", [qubit])

    def z(self, qubit: int) -> "Circuit":
        return self.add("z", [qubit])

    def s(self, qubit: int) -> "Circuit":
        return self.add("s", [qubit])

    def sdg(self, qubit: int) -> "Circuit":
        return self.add("sdg", [qubit])

    def t(self, qubit: int) -> "Circuit":
        return self.add("t", [qubit])

    def tdg(self, qubit: int) -> "Circuit":
        return self.add("tdg", [qubit])

    def sx(self, qubit: int) -> "Circuit":
        return self.add("sx", [qubit])

    def i(self, qubit: int) -> "Circuit":
        return self.add("id", [qubit])

    def rx(self, theta: float, qubit: int) -> "Circuit":
        return self.add("rx", [qubit], [theta])

    def ry(self, theta: float, qubit: int) -> "Circuit":
        return self.add("ry", [qubit], [theta])

    def rz(self, theta: float, qubit: int) -> "Circuit":
        return self.add("rz", [qubit], [theta])

    def p(self, lam: float, qubit: int) -> "Circuit":
        return self.add("p", [qubit], [lam])

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "Circuit":
        return self.add("u3", [qubit], [theta, phi, lam])

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", [control, target])

    def cz(self, qubit_a: int, qubit_b: int) -> "Circuit":
        return self.add("cz", [qubit_a, qubit_b])

    def swap(self, qubit_a: int, qubit_b: int) -> "Circuit":
        return self.add("swap", [qubit_a, qubit_b])

    def cp(self, lam: float, control: int, target: int) -> "Circuit":
        return self.add("cp", [control, target], [lam])

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("crz", [control, target], [theta])

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "Circuit":
        return self.add("rzz", [qubit_a, qubit_b], [theta])

    def rxx(self, theta: float, qubit_a: int, qubit_b: int) -> "Circuit":
        return self.add("rxx", [qubit_a, qubit_b], [theta])

    def ryy(self, theta: float, qubit_a: int, qubit_b: int) -> "Circuit":
        return self.add("ryy", [qubit_a, qubit_b], [theta])

    def measure(self, qubit: int, tag: Optional[str] = None) -> "Circuit":
        return self.append(Operation("measure", (int(qubit),), (), tag))

    def reset(self, qubit: int, tag: Optional[str] = None) -> "Circuit":
        return self.append(Operation("reset", (int(qubit),), (), tag))

    def measure_all(self) -> "Circuit":
        for qubit in range(self._num_qubits):
            self.measure(qubit)
        return self

    # ------------------------------------------------------------------ metrics
    def count_ops(self) -> Dict[str, int]:
        """Histogram of operation names."""
        return dict(Counter(op.name for op in self._operations))

    @property
    def num_two_qubit_gates(self) -> int:
        return sum(1 for op in self._operations if op.is_two_qubit)

    @property
    def num_single_qubit_gates(self) -> int:
        return sum(1 for op in self._operations if op.is_single_qubit_unitary)

    @property
    def num_measurements(self) -> int:
        return sum(1 for op in self._operations if op.is_measurement)

    @property
    def num_nonlocal_pairs(self) -> int:
        """Number of distinct qubit pairs coupled by two-qubit gates."""
        pairs = {tuple(sorted(op.qubits)) for op in self._operations if op.is_two_qubit}
        return len(pairs)

    def depth(self) -> int:
        """Circuit depth counting every operation (including measure/reset) as depth 1."""
        frontier = [0] * self._num_qubits
        for op in self._operations:
            level = max(frontier[q] for q in op.qubits) + 1
            for q in op.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    def active_qubits(self) -> Tuple[int, ...]:
        """Qubits touched by at least one operation."""
        used = sorted({q for op in self._operations for q in op.qubits})
        return tuple(used)

    # ------------------------------------------------------------------ structure
    def layers(self) -> List[List[Operation]]:
        """ASAP-scheduled moments: each layer is a list of non-overlapping operations."""
        frontier = [0] * self._num_qubits
        layers: List[List[Operation]] = []
        for op in self._operations:
            level = max(frontier[q] for q in op.qubits)
            while len(layers) <= level:
                layers.append([])
            layers[level].append(op)
            for q in op.qubits:
                frontier[q] = level + 1
        return layers

    def operations_on(self, qubit: int) -> List[Tuple[int, Operation]]:
        """All (program index, operation) pairs touching ``qubit``, in program order."""
        return [(i, op) for i, op in enumerate(self._operations) if qubit in op.qubits]

    # ------------------------------------------------------------------ composition
    def compose(self, other: "Circuit", qubit_map: Optional[Dict[int, int]] = None) -> "Circuit":
        """Append ``other``'s operations to this circuit (optionally remapping qubits)."""
        mapping = qubit_map or {q: q for q in range(other.num_qubits)}
        for op in other:
            self.append(op.remapped(mapping))
        return self

    def remapped(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "Circuit":
        """Return a new circuit with qubit ``q`` relabelled to ``mapping[q]``."""
        target_size = num_qubits if num_qubits is not None else self._num_qubits
        clone = Circuit(target_size, self.name)
        for op in self._operations:
            clone.append(op.remapped(mapping))
        return clone

    def inverse(self) -> "Circuit":
        """Return the adjoint circuit (measure/reset operations are not invertible)."""
        inverse_names = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
        clone = Circuit(self._num_qubits, f"{self.name}_dg")
        for op in reversed(self._operations):
            if not op.is_unitary:
                raise CircuitError("cannot invert a circuit containing measure/reset")
            if op.name in inverse_names:
                clone.add(inverse_names[op.name], op.qubits)
            elif GATE_SPECS[op.name].num_params:
                if op.name == "u3":
                    theta, phi, lam = op.params
                    clone.add("u3", op.qubits, (-theta, -lam, -phi))
                else:
                    clone.add(op.name, op.qubits, tuple(-p for p in op.params))
            elif op.name == "sx":
                clone.add("sx", op.qubits)
                clone.add("x", op.qubits)  # sx^dagger = x . sx
            else:
                clone.add(op.name, op.qubits)
        return clone

    # ------------------------------------------------------------------ numerics
    def unitary(self) -> np.ndarray:
        """Dense unitary of the circuit (only for small, measurement-free circuits)."""
        if self._num_qubits > 12:
            raise CircuitError("refusing to build a dense unitary for > 12 qubits")
        dim = 2**self._num_qubits
        total = np.eye(dim, dtype=complex)
        for op in self._operations:
            if not op.is_unitary:
                raise CircuitError("circuit contains non-unitary operations")
            total = _embed(op.matrix(), op.qubits, self._num_qubits) @ total
        return total

    # ------------------------------------------------------------------ display
    def summary(self) -> str:
        """One-line human readable summary used by examples and benchmarks."""
        counts = self.count_ops()
        two_q = self.num_two_qubit_gates
        return (
            f"{self.name}: {self._num_qubits} qubits, depth {self.depth()}, "
            f"{len(self)} ops ({two_q} two-qubit), counts={counts}"
        )


def _embed(matrix: np.ndarray, qubits: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Embed a 1- or 2-qubit gate matrix into the full ``2**num_qubits`` space."""
    dim = 2**num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    k = len(qubits)
    sub_dim = 2**k
    other = [q for q in range(num_qubits) if q not in qubits]
    for col in range(dim):
        col_sub = 0
        for pos, q in enumerate(qubits):
            col_sub |= ((col >> q) & 1) << pos
        col_rest = col
        for q in qubits:
            col_rest &= ~(1 << q)
        for row_sub in range(sub_dim):
            amplitude = matrix[row_sub, col_sub]
            if amplitude == 0:
                continue
            row = col_rest
            for pos, q in enumerate(qubits):
                if (row_sub >> pos) & 1:
                    row |= 1 << q
            full[row, col] += amplitude
    del other
    return full
