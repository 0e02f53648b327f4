"""Cut specifications and the cutting solution produced by the optimiser.

A :class:`CutSolution` holds everything needed to turn an original circuit into
subcircuits:

* which subcircuit every operation (or, for gate-cut gates, every gate *endpoint*)
  is assigned to,
* which wire segments are cut (:class:`WireCut`),
* which two-qubit gates are gate-cut (:class:`GateCut`).

The class also validates internal consistency — every uncut wire segment must join
two endpoints in the same subcircuit, every cut segment must join different
subcircuits — which is the contract the downstream fragment extractor relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..circuits import Circuit, CircuitDag
from ..exceptions import CuttingError

__all__ = ["WireCut", "GateCut", "CutSolution", "GATE_CUT_POST_PROCESSING_BRANCHES",
           "WIRE_CUT_POST_PROCESSING_BRANCHES", "postprocessing_cost", "effective_wire_cuts"]

#: Post-processing branches per wire cut / gate cut (Section 3.2: 4^k vs 6^k).
WIRE_CUT_POST_PROCESSING_BRANCHES = 4
GATE_CUT_POST_PROCESSING_BRANCHES = 6


@dataclass(frozen=True, order=True)
class WireCut:
    """A cut on the wire segment entering ``downstream_op`` on ``qubit``.

    The upstream end (where the measurement goes) is the previous operation on the
    same qubit; the downstream end (where the initialisation goes) is
    ``downstream_op`` itself.
    """

    qubit: int
    downstream_op: int

    def identifier(self) -> str:
        return f"w{self.qubit}_{self.downstream_op}"


@dataclass(frozen=True, order=True)
class GateCut:
    """A gate cut on the two-qubit gate at program index ``op_index``."""

    op_index: int

    def identifier(self) -> str:
        return f"g{self.op_index}"


@dataclass
class CutSolution:
    """A complete cutting decision over ``circuit``.

    Attributes:
        circuit: the circuit the op indices below refer to (usually the padded,
            layer-aligned circuit produced by :class:`repro.core.qr_dag.QRAwareDag`).
        op_subcircuit: subcircuit index for every operation that is *not* gate-cut.
        gate_cut_placement: for every gate-cut op, the pair
            ``(top endpoint subcircuit, bottom endpoint subcircuit)`` where *top*
            is the gate's first operand and *bottom* its second operand.
        wire_cuts / gate_cuts: the chosen cuts.
        metadata: free-form extras (solver status, objective, timings) archived by
            the benchmark harness.
    """

    circuit: Circuit
    op_subcircuit: Dict[int, int]
    wire_cuts: List[WireCut] = field(default_factory=list)
    gate_cuts: List[GateCut] = field(default_factory=list)
    gate_cut_placement: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ accessors
    @property
    def num_wire_cuts(self) -> int:
        return len(self.wire_cuts)

    @property
    def num_gate_cuts(self) -> int:
        return len(self.gate_cuts)

    @property
    def num_cuts(self) -> int:
        return self.num_wire_cuts + self.num_gate_cuts

    @property
    def subcircuit_indices(self) -> Tuple[int, ...]:
        used = set(self.op_subcircuit.values())
        for top, bottom in self.gate_cut_placement.values():
            used.add(top)
            used.add(bottom)
        return tuple(sorted(used))

    @property
    def num_subcircuits(self) -> int:
        return len(self.subcircuit_indices)

    def endpoint_subcircuit(self, op_index: int, qubit: int) -> int:
        """Subcircuit holding the endpoint of operation ``op_index`` on ``qubit``."""
        operation = self.circuit.operations[op_index]
        if qubit not in operation.qubits:
            raise CuttingError(f"operation {op_index} does not act on qubit {qubit}")
        if op_index in self.gate_cut_placement:
            top, bottom = self.gate_cut_placement[op_index]
            return top if qubit == operation.qubits[0] else bottom
        try:
            return self.op_subcircuit[op_index]
        except KeyError as exc:
            raise CuttingError(f"operation {op_index} has no subcircuit assignment") from exc

    # ------------------------------------------------------------------ metrics
    def two_qubit_gates_per_subcircuit(self) -> Dict[int, int]:
        """Count of (un-cut) two-qubit gates per subcircuit — the #MS metric source."""
        counts: Dict[int, int] = {index: 0 for index in self.subcircuit_indices}
        for op_index, op in enumerate(self.circuit.operations):
            if op.is_two_qubit and op_index not in self.gate_cut_placement:
                counts[self.op_subcircuit[op_index]] += 1
        return counts

    def max_two_qubit_gates(self) -> int:
        """The paper's #MS metric: two-qubit gates in the largest subcircuit."""
        counts = self.two_qubit_gates_per_subcircuit()
        return max(counts.values()) if counts else 0

    def postprocessing_cost(self) -> float:
        """The exponential post-processing branch count ``4^wire * 6^gate``."""
        return postprocessing_cost(self.num_wire_cuts, self.num_gate_cuts)

    def effective_wire_cuts(self) -> float:
        """#EffCuts from Table 2: the wire-cut count with equal post-processing cost."""
        return effective_wire_cuts(self.num_wire_cuts, self.num_gate_cuts)

    # ------------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check the assignment + cuts are mutually consistent (raises on violation)."""
        dag = CircuitDag(self.circuit)
        cut_set = set(self.wire_cuts)
        gate_cut_ops = {cut.op_index for cut in self.gate_cuts}

        if gate_cut_ops != set(self.gate_cut_placement):
            raise CuttingError("gate_cuts and gate_cut_placement disagree")
        for op_index in gate_cut_ops:
            operation = self.circuit.operations[op_index]
            if not operation.is_two_qubit:
                raise CuttingError(f"gate cut on non-two-qubit operation {op_index}")
            top, bottom = self.gate_cut_placement[op_index]
            if top == bottom:
                raise CuttingError(
                    f"gate cut {op_index} places both halves in subcircuit {top}"
                )
        for op_index, op in enumerate(self.circuit.operations):
            if op_index in gate_cut_ops:
                continue
            if op_index not in self.op_subcircuit:
                raise CuttingError(f"operation {op_index} has no subcircuit assignment")

        for cut in cut_set:
            operation = self.circuit.operations[cut.downstream_op]
            if cut.qubit not in operation.qubits:
                raise CuttingError(
                    f"wire cut {cut} names qubit {cut.qubit} not used by its operation"
                )
            if dag.predecessor_on(cut.downstream_op, cut.qubit) is None:
                raise CuttingError(f"wire cut {cut} has no upstream operation")

        for segment in dag.segments(cuttable_only=True):
            upstream_sc = self.endpoint_subcircuit(segment.upstream, segment.qubit)
            downstream_sc = self.endpoint_subcircuit(segment.downstream, segment.qubit)
            cut = WireCut(segment.qubit, segment.downstream) in cut_set
            if cut and upstream_sc == downstream_sc:
                raise CuttingError(
                    f"wire segment on qubit {segment.qubit} into op {segment.downstream} "
                    "is cut but both endpoints share a subcircuit"
                )
            if not cut and upstream_sc != downstream_sc:
                raise CuttingError(
                    f"wire segment on qubit {segment.qubit} into op {segment.downstream} "
                    "joins different subcircuits but is not cut"
                )

    def summary(self) -> str:
        return (
            f"CutSolution(subcircuits={self.num_subcircuits}, "
            f"wire_cuts={self.num_wire_cuts}, gate_cuts={self.num_gate_cuts}, "
            f"max_two_qubit={self.max_two_qubit_gates()})"
        )


def postprocessing_cost(num_wire_cuts: int, num_gate_cuts: int) -> float:
    """``4^w * 6^g`` — the classical post-processing branch count (Section 3.2)."""
    return float(
        WIRE_CUT_POST_PROCESSING_BRANCHES**num_wire_cuts
        * GATE_CUT_POST_PROCESSING_BRANCHES**num_gate_cuts
    )


def effective_wire_cuts(num_wire_cuts: int, num_gate_cuts: int) -> float:
    """Convert a (wire, gate) cut pair into the equivalent pure-wire-cut count.

    Table 2 reports ``#EffCuts`` such that ``4^#EffCuts == 4^w * 6^g``.
    """
    import math

    if num_wire_cuts < 0 or num_gate_cuts < 0:
        raise CuttingError("cut counts must be non-negative")
    return float(
        num_wire_cuts
        + num_gate_cuts
        * math.log(GATE_CUT_POST_PROCESSING_BRANCHES)
        / math.log(WIRE_CUT_POST_PROCESSING_BRANCHES)
    )
