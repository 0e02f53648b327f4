"""Fragment extraction: from a :class:`CutSolution` to per-subcircuit wire fragments.

A **fragment** is a maximal run of consecutive operations on one original qubit with
no wire cut in between.  Every fragment belongs to exactly one subcircuit (the
solution validator guarantees this).  A fragment

* *starts* either at the circuit input or at the downstream (initialisation) end of
  a wire cut, and
* *ends* either at the circuit output or at the upstream (measurement) end of a wire
  cut.

Qubit reuse happens when two fragments of the same subcircuit share one physical
wire: the earlier fragment is measured (it ends at a cut or at the circuit output
anyway), the wire is reset, and the later fragment continues on it.  The scheduler in
this module performs that packing with a classic interval-partitioning sweep over the
fragments' layer intervals, which realises exactly the per-layer width the paper's
ILP constrains (Eq. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import Circuit, CircuitDag
from ..exceptions import CuttingError
from .cuts import CutSolution, WireCut

__all__ = ["FragmentElement", "Fragment", "SubcircuitSpec", "extract_subcircuits"]


@dataclass(frozen=True)
class FragmentElement:
    """One operation endpoint inside a fragment.

    ``role`` is ``"full"`` for ordinary operations, or ``"top"`` / ``"bottom"`` when
    the operation is a gate-cut two-qubit gate and only that endpoint lives on this
    fragment's qubit.
    """

    op_index: int
    role: str


@dataclass
class Fragment:
    """A contiguous piece of one original qubit's wire assigned to one subcircuit."""

    index: int
    subcircuit: int
    qubit: int
    elements: List[FragmentElement]
    start_layer: int
    end_layer: int
    entry_cut: Optional[WireCut] = None
    exit_cut: Optional[WireCut] = None

    @property
    def starts_at_input(self) -> bool:
        return self.entry_cut is None

    @property
    def ends_at_output(self) -> bool:
        return self.exit_cut is None


@dataclass
class SubcircuitSpec:
    """Everything needed to build and execute one subcircuit.

    Attributes:
        index: subcircuit id from the cut solution.
        fragments: fragments assigned to this subcircuit, in program order of their
            first operation.
        wire_of_fragment: physical wire (0..num_wires-1) assigned to each fragment;
            fragments sharing a wire are qubit-reuse pairs.
        num_wires: physical qubits this subcircuit needs (the paper's subcircuit
            width after reuse).
        upstream_cuts: wire cuts measured in this subcircuit.
        downstream_cuts: wire cuts initialised in this subcircuit.
        gate_cut_sides: mapping gate-cut op index -> side (``"top"``/``"bottom"``)
            hosted by this subcircuit.
        output_qubits: original-circuit qubits whose final state this subcircuit
            holds (fragments ending at the circuit output).
        elements: every ``(fragment, element)`` pair in emission order: by
            layer, op index and operand position, a topological order in which
            a reused wire finishes its earlier fragment before the next starts.
    """

    index: int
    fragments: List[Fragment]
    wire_of_fragment: Dict[int, int]
    num_wires: int
    upstream_cuts: List[WireCut]
    downstream_cuts: List[WireCut]
    gate_cut_sides: Dict[int, str]
    output_qubits: List[int]
    elements: List[Tuple[Fragment, FragmentElement]] = field(repr=False)

    def fragment_on_wire(self, wire: int) -> List[Fragment]:
        """Fragments scheduled on a physical wire, ordered by start layer."""
        chosen = [f for f in self.fragments if self.wire_of_fragment[f.index] == wire]
        return sorted(chosen, key=lambda fragment: fragment.start_layer)

    @property
    def num_reuses(self) -> int:
        """Number of measure-and-reset reuse events in this subcircuit."""
        return len(self.fragments) - self.num_wires


def _assign_layers(circuit: Circuit) -> Dict[int, int]:
    """ASAP layer index of every operation (same scheduling as ``Circuit.layers``)."""
    frontier = [0] * circuit.num_qubits
    layer_of: Dict[int, int] = {}
    for index, op in enumerate(circuit.operations):
        level = max(frontier[q] for q in op.qubits)
        layer_of[index] = level
        for q in op.qubits:
            frontier[q] = level + 1
    return layer_of


def _schedule_wires(fragments: List[Fragment]) -> Tuple[Dict[int, int], int]:
    """Interval-partition fragments onto the minimum number of physical wires.

    Two fragments can share a wire when the earlier one's last layer is strictly
    before the later one's first layer (measurement/initialisation are assumed to
    take no extra depth, matching Section 4.1's assumption).
    """
    ordered = sorted(fragments, key=lambda fragment: (fragment.start_layer, fragment.end_layer))
    wire_last_layer: List[int] = []
    assignment: Dict[int, int] = {}
    for fragment in ordered:
        chosen = None
        for wire, last_layer in enumerate(wire_last_layer):
            if last_layer < fragment.start_layer:
                chosen = wire
                break
        if chosen is None:
            wire_last_layer.append(fragment.end_layer)
            chosen = len(wire_last_layer) - 1
        else:
            wire_last_layer[chosen] = fragment.end_layer
        assignment[fragment.index] = chosen
    return assignment, len(wire_last_layer)


def extract_subcircuits(solution: CutSolution, enable_reuse: bool = True) -> List[SubcircuitSpec]:
    """Split the solution's circuit into per-subcircuit specifications.

    With ``enable_reuse=False`` every fragment gets its own wire (the CutQC
    behaviour: one extra initialisation qubit per incoming cut, no reuse) — used by
    the baseline comparisons.
    """
    solution.validate()
    circuit = solution.circuit
    dag = CircuitDag(circuit)
    layer_of = _assign_layers(circuit)
    cut_lookup = {(cut.qubit, cut.downstream_op): cut for cut in solution.wire_cuts}
    gate_cut_ops = {cut.op_index for cut in solution.gate_cuts}

    fragments: List[Fragment] = []
    for qubit in range(circuit.num_qubits):
        chain = dag.wire_chain(qubit)
        if not chain:
            continue
        current: List[FragmentElement] = []
        entry_cut: Optional[WireCut] = None
        for op_index in chain:
            cut = cut_lookup.get((qubit, op_index))
            if cut is not None and current:
                fragments.append(
                    _close_fragment(
                        len(fragments), solution, qubit, current, layer_of, entry_cut, cut
                    )
                )
                current = []
                entry_cut = cut
            operation = circuit.operations[op_index]
            if op_index in gate_cut_ops:
                role = "top" if qubit == operation.qubits[0] else "bottom"
            else:
                role = "full"
            current.append(FragmentElement(op_index, role))
        if current:
            fragments.append(
                _close_fragment(
                    len(fragments), solution, qubit, current, layer_of, entry_cut, None
                )
            )

    subcircuit_indices = sorted(solution.subcircuit_indices)
    specs: List[SubcircuitSpec] = []
    for subcircuit_index in subcircuit_indices:
        members = [f for f in fragments if f.subcircuit == subcircuit_index]
        members.sort(key=lambda fragment: fragment.start_layer)
        if enable_reuse:
            wire_of_fragment, num_wires = _schedule_wires(members)
        else:
            wire_of_fragment = {f.index: wire for wire, f in enumerate(members)}
            num_wires = len(members)
        upstream = [f.exit_cut for f in members if f.exit_cut is not None]
        downstream = [f.entry_cut for f in members if f.entry_cut is not None]
        gate_sides: Dict[int, str] = {}
        for fragment in members:
            for element in fragment.elements:
                if element.role in ("top", "bottom"):
                    gate_sides[element.op_index] = element.role
        outputs = sorted(f.qubit for f in members if f.ends_at_output)
        elements = sorted(
            ((fragment, element) for fragment in members for element in fragment.elements),
            key=lambda pair: (
                layer_of[pair[1].op_index],
                pair[1].op_index,
                circuit.operations[pair[1].op_index].qubits.index(pair[0].qubit),
            ),
        )
        specs.append(
            SubcircuitSpec(
                index=subcircuit_index,
                fragments=members,
                wire_of_fragment=wire_of_fragment,
                num_wires=num_wires,
                upstream_cuts=sorted(upstream),
                downstream_cuts=sorted(downstream),
                gate_cut_sides=gate_sides,
                output_qubits=outputs,
                elements=elements,
            )
        )
    _validate_output_coverage(specs, circuit)
    return specs


def _close_fragment(
    index: int,
    solution: CutSolution,
    qubit: int,
    elements: List[FragmentElement],
    layer_of: Dict[int, int],
    entry_cut: Optional[WireCut],
    exit_cut: Optional[WireCut],
) -> Fragment:
    subcircuits = {
        solution.endpoint_subcircuit(element.op_index, qubit) for element in elements
    }
    if len(subcircuits) != 1:
        raise CuttingError(
            f"fragment on qubit {qubit} spans multiple subcircuits {sorted(subcircuits)}; "
            "the cut solution is inconsistent"
        )
    start_layer = min(layer_of[element.op_index] for element in elements)
    end_layer = max(layer_of[element.op_index] for element in elements)
    return Fragment(
        index=index,
        subcircuit=subcircuits.pop(),
        qubit=qubit,
        elements=list(elements),
        start_layer=start_layer,
        end_layer=end_layer,
        entry_cut=entry_cut,
        exit_cut=exit_cut,
    )


def _validate_output_coverage(specs: Sequence[SubcircuitSpec], circuit: Circuit) -> None:
    """Every original qubit's terminal fragment must appear in exactly one subcircuit."""
    seen: Dict[int, int] = {}
    for spec in specs:
        for qubit in spec.output_qubits:
            if qubit in seen:
                raise CuttingError(
                    f"original qubit {qubit} ends in two subcircuits ({seen[qubit]} and "
                    f"{spec.index})"
                )
            seen[qubit] = spec.index
    active = {q for op in circuit.operations for q in op.qubits}
    missing = active - set(seen)
    if missing:
        raise CuttingError(f"original qubits {sorted(missing)} have no terminal fragment")
