"""The QR-aware DAG representation (Section 4.1).

The cutting formulation reasons about a *layer-aligned* version of the input
circuit:

* operations are scheduled into ASAP layers,
* explicit identity gates are inserted so that every qubit has exactly one gate in
  every layer of its active window (between its first and its last real operation),
* every wire segment between two consecutive gates on a qubit is a wire-cut
  candidate, and every two-qubit gate of a cuttable type is a gate-cut candidate.

The padding is what lets the ILP's per-layer capacity constraint (Eq. 11) count
exactly how many physical qubits each subcircuit needs at each point in time — and
therefore what lets a wire cut *free* a qubit that a later logical qubit can reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuits import Circuit, CircuitDag, Operation
from ..exceptions import CuttingError
from ..cutting.gate_cut import CUTTABLE_GATES

__all__ = ["PaddedOperation", "QRAwareDag"]


@dataclass(frozen=True)
class PaddedOperation:
    """One operation of the padded circuit with layer and provenance information.

    Attributes:
        index: index in the padded circuit's program order.
        operation: the operation itself (identity gates carry the tag ``"pad"``).
        layer: ASAP layer in the padded circuit.
        original_index: index of the corresponding operation in the *input* circuit,
            or ``None`` for inserted identity padding.
    """

    index: int
    operation: Operation
    layer: int
    original_index: Optional[int]


class QRAwareDag:
    """Layer-aligned, identity-padded view of a circuit used by the ILP formulation."""

    def __init__(self, circuit: Circuit) -> None:
        self._padded, self._entries = self._build_padded(circuit)
        self._dag = CircuitDag(self._padded)
        self._layer_of = {entry.index: entry.layer for entry in self._entries}

    # ------------------------------------------------------------------ construction
    @staticmethod
    def _build_padded(circuit: Circuit) -> Tuple[Circuit, List[PaddedOperation]]:
        frontier = [0] * circuit.num_qubits
        layer_of_original: Dict[int, int] = {}
        first_layer: Dict[int, int] = {}
        last_layer: Dict[int, int] = {}
        for index, op in enumerate(circuit.operations):
            if not op.is_unitary:
                raise CuttingError(
                    "the cutting formulation expects a unitary input circuit; "
                    "measure/reset operations are added by the framework itself"
                )
            level = max(frontier[q] for q in op.qubits)
            layer_of_original[index] = level
            for qubit in op.qubits:
                frontier[qubit] = level + 1
                first_layer.setdefault(qubit, level)
                last_layer[qubit] = level

        # Gather (layer, original index or pad marker, operation) entries.
        staged: List[Tuple[int, int, Optional[int], Operation]] = []
        for index, op in enumerate(circuit.operations):
            staged.append((layer_of_original[index], 0, index, op))
        for qubit, start in first_layer.items():
            busy = {
                layer_of_original[i]
                for i, op in enumerate(circuit.operations)
                if qubit in op.qubits
            }
            for layer in range(start, last_layer[qubit] + 1):
                if layer not in busy:
                    pad = Operation("id", (qubit,), (), "pad")
                    staged.append((layer, 1, None, pad))
        staged.sort(key=lambda item: (item[0], item[1], item[2] if item[2] is not None else 10**9))

        padded = Circuit(circuit.num_qubits, f"{circuit.name}_qr_dag")
        entries: List[PaddedOperation] = []
        for position, (layer, _, original_index, op) in enumerate(staged):
            padded.append(op)
            entries.append(PaddedOperation(position, op, layer, original_index))
        return padded, entries

    # ------------------------------------------------------------------ accessors
    @property
    def padded_circuit(self) -> Circuit:
        return self._padded

    @property
    def entries(self) -> Tuple[PaddedOperation, ...]:
        return tuple(self._entries)

    @property
    def dag(self) -> CircuitDag:
        return self._dag

    @property
    def num_layers(self) -> int:
        return max(self._layer_of.values()) + 1 if self._layer_of else 0

    def layer_of(self, padded_index: int) -> int:
        return self._layer_of[padded_index]

    @property
    def num_padding_gates(self) -> int:
        return sum(1 for entry in self._entries if entry.original_index is None)

    # ------------------------------------------------------------------ cut candidates
    def wire_cut_candidates(self) -> List[Tuple[int, int]]:
        """All (qubit, downstream padded op index) pairs where a wire may be cut."""
        return [
            (segment.qubit, segment.downstream)
            for segment in self._dag.segments(cuttable_only=True)
        ]

    def gate_cut_candidates(self) -> List[int]:
        """Padded indices of two-qubit gates eligible for gate cutting."""
        return [
            entry.index
            for entry in self._entries
            if entry.operation.is_two_qubit and entry.operation.name in CUTTABLE_GATES
        ]

    def two_qubit_gate_indices(self) -> List[int]:
        return [entry.index for entry in self._entries if entry.operation.is_two_qubit]

    def endpoint_layers(self) -> Dict[int, List[Tuple[int, int]]]:
        """Mapping layer -> list of (padded op index, qubit) endpoints at that layer."""
        per_layer: Dict[int, List[Tuple[int, int]]] = {}
        for entry in self._entries:
            for qubit in entry.operation.qubits:
                per_layer.setdefault(entry.layer, []).append((entry.index, qubit))
        return per_layer

    def summary(self) -> str:
        return (
            f"QRAwareDag(qubits={self._padded.num_qubits}, layers={self.num_layers}, "
            f"operations={len(self._padded)}, padding={self.num_padding_gates}, "
            f"wire_cut_candidates={len(self.wire_cut_candidates())}, "
            f"gate_cut_candidates={len(self.gate_cut_candidates())})"
        )
