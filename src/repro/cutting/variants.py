"""Concrete executable subcircuit variants.

Wire cuts and gate cuts multiply each subcircuit into a family of *variants*:

* each wire cut measured here contributes a measurement-basis choice (I/X/Y/Z),
* each wire cut initialised here contributes an initialisation-state choice
  (``zero``/``one``/``plus``/``plus_i``),
* each gate cut with an endpoint here contributes a Mitarai–Fujii instance choice
  (1..6),
* expectation-value reconstruction additionally needs the restriction of the Pauli
  term being evaluated, because the subcircuit's original-output qubits must be
  rotated into that term's basis before their (possibly mid-circuit, reuse-related)
  measurement.

This module turns a :class:`~repro.cutting.fragments.SubcircuitSpec` plus one such
setting combination into a concrete dynamic circuit on ``num_wires`` physical qubits,
ready for the exact branching simulator, the shot sampler or the noisy device model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..circuits import Circuit
from ..exceptions import CuttingError
from ..utils.pauli import PauliString
from .cuts import CutSolution, WireCut
from .fragments import Fragment, SubcircuitSpec, _assign_layers
from .gate_cut import GateCutDecomposition, decompose_gate_cut

__all__ = [
    "WIRE_CUT_MEASUREMENT_BASES",
    "WIRE_CUT_INIT_LABELS",
    "VariantSettings",
    "SubcircuitVariant",
    "VariantBuilder",
]

#: Measurement bases for the upstream end of a wire cut.
WIRE_CUT_MEASUREMENT_BASES: Tuple[str, ...] = ("I", "X", "Y", "Z")

#: Initialisation labels for the downstream end of a wire cut.
WIRE_CUT_INIT_LABELS: Tuple[str, ...] = ("zero", "one", "plus", "plus_i")


@dataclass(frozen=True)
class VariantSettings:
    """One choice of cut settings local to a subcircuit.

    Attributes:
        measurement_bases: basis per upstream wire cut (keyed by cut identifier).
        init_labels: initialisation label per downstream wire cut.
        gate_instances: Mitarai–Fujii instance index (1..6) per gate-cut op index.
    """

    measurement_bases: Tuple[Tuple[str, str], ...] = ()
    init_labels: Tuple[Tuple[str, str], ...] = ()
    gate_instances: Tuple[Tuple[int, int], ...] = ()

    @staticmethod
    def build(
        measurement_bases: Mapping[str, str],
        init_labels: Mapping[str, str],
        gate_instances: Mapping[int, int],
    ) -> "VariantSettings":
        return VariantSettings(
            tuple(sorted(measurement_bases.items())),
            tuple(sorted(init_labels.items())),
            tuple(sorted(gate_instances.items())),
        )

    def basis_for(self, cut: WireCut) -> str:
        return dict(self.measurement_bases)[cut.identifier()]

    def label_for(self, cut: WireCut) -> str:
        return dict(self.init_labels)[cut.identifier()]

    def instance_for(self, op_index: int) -> int:
        return dict(self.gate_instances)[op_index]


@dataclass
class SubcircuitVariant:
    """A concrete runnable variant of a subcircuit."""

    subcircuit_index: int
    circuit: Circuit
    num_wires: int
    output_qubit_order: Tuple[int, ...]
    settings: VariantSettings
    mode: str
    pauli_term: Optional[PauliString] = None
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """Stable content hash identifying this request to the execution engine.

        Memoised: variant circuits are immutable once built, so the hash is
        computed at most once per object however many contraction terms ask.
        """
        if self._fingerprint is None:
            from ..engine.requests import variant_fingerprint

            self._fingerprint = variant_fingerprint(self)
        return self._fingerprint


class VariantBuilder:
    """Builds every variant circuit for one subcircuit of a cut solution."""

    def __init__(self, solution: CutSolution, spec: SubcircuitSpec) -> None:
        self._solution = solution
        self._spec = spec
        self._circuit = solution.circuit
        self._layer_of = _assign_layers(self._circuit)
        self._decompositions: Dict[int, GateCutDecomposition] = {
            op_index: decompose_gate_cut(self._circuit.operations[op_index])
            for op_index in spec.gate_cut_sides
        }
        self._fragment_of_element: Dict[Tuple[int, int], Fragment] = {}
        for fragment in spec.fragments:
            for element in fragment.elements:
                self._fragment_of_element[(element.op_index, fragment.qubit)] = fragment
        self._sorted_elements = self._sort_elements()

    # ------------------------------------------------------------------ accessors
    @property
    def spec(self) -> SubcircuitSpec:
        return self._spec

    # ------------------------------------------------------------------ building
    def build(
        self,
        settings: VariantSettings,
        mode: str,
        pauli_term: Optional[PauliString] = None,
    ) -> SubcircuitVariant:
        """Build the concrete circuit for one setting combination.

        ``mode`` is ``"probability"`` (all output qubits measured, unsigned) or
        ``"expectation"`` (output qubits measured in the basis dictated by
        ``pauli_term``, signed).
        """
        if mode not in ("probability", "expectation"):
            raise CuttingError(f"unknown variant mode {mode!r}")
        if mode == "expectation" and pauli_term is None:
            pauli_term = PauliString((), 1.0)

        spec = self._spec
        circuit = Circuit(max(spec.num_wires, 1), f"sub{spec.index}")
        wire_started: Dict[int, bool] = {}
        entered_fragments: set = set()

        for fragment, element in self._sorted_elements:
            wire = spec.wire_of_fragment[fragment.index]
            self._ensure_entered(
                circuit, fragment, wire_started, entered_fragments, settings
            )
            self._emit_element(
                circuit, fragment, element, settings, wire_started, entered_fragments
            )
            if fragment.elements[-1] is element:
                self._emit_fragment_exit(
                    circuit, fragment, wire, settings, mode, pauli_term
                )

        return SubcircuitVariant(
            subcircuit_index=spec.index,
            circuit=circuit,
            num_wires=max(spec.num_wires, 1),
            output_qubit_order=tuple(spec.output_qubits),
            settings=settings,
            mode=mode,
            pauli_term=pauli_term,
        )

    # ------------------------------------------------------------------ internals
    def _sort_elements(self) -> List[Tuple[Fragment, object]]:
        """All (fragment, element) pairs sorted by (layer, program index).

        Layer order is a valid topological order of the original circuit and is
        consistent with the interval-based wire scheduling, so reused wires always
        finish their earlier fragment before the later fragment starts.
        """
        pairs = []
        for fragment in self._spec.fragments:
            for element in fragment.elements:
                operation = self._circuit.operations[element.op_index]
                operand_position = operation.qubits.index(fragment.qubit)
                pairs.append((fragment, element, operand_position))
        pairs.sort(
            key=lambda pair: (self._layer_of[pair[1].op_index], pair[1].op_index, pair[2])
        )
        return [(fragment, element) for fragment, element, _ in pairs]

    def _local_wire(self, fragment: Fragment) -> int:
        return self._spec.wire_of_fragment[fragment.index]

    def _ensure_entered(
        self,
        circuit: Circuit,
        fragment: Fragment,
        wire_started: Dict[int, bool],
        entered_fragments: set,
        settings: VariantSettings,
    ) -> None:
        """Emit the fragment's wire preparation (reset + cut initialisation) once."""
        if fragment.index in entered_fragments:
            return
        entered_fragments.add(fragment.index)
        wire = self._local_wire(fragment)
        if wire_started.get(wire):
            circuit.reset(wire, tag=f"reuse:{fragment.qubit}")
        wire_started[wire] = True
        if fragment.entry_cut is None:
            return
        label = settings.label_for(fragment.entry_cut)
        if label == "zero":
            return
        if label == "one":
            circuit.x(wire)
        elif label == "plus":
            circuit.h(wire)
        elif label == "plus_i":
            circuit.h(wire)
            circuit.s(wire)
        else:
            raise CuttingError(f"unknown initialisation label {label!r}")

    def _emit_element(
        self,
        circuit: Circuit,
        fragment: Fragment,
        element: Any,
        settings: VariantSettings,
        wire_started: Dict[int, bool],
        entered_fragments: set,
    ) -> None:
        operation = self._circuit.operations[element.op_index]
        if element.role == "full":
            if operation.is_identity:
                return
            if operation.is_two_qubit:
                # Emit the two-qubit gate only once (when visiting its first operand),
                # making sure the partner fragment's wire preparation happened first.
                if fragment.qubit != operation.qubits[0]:
                    return
                top_fragment = self._fragment_of_element[(element.op_index, operation.qubits[0])]
                bottom_fragment = self._fragment_of_element[
                    (element.op_index, operation.qubits[1])
                ]
                self._ensure_entered(
                    circuit, bottom_fragment, wire_started, entered_fragments, settings
                )
                circuit.add(
                    operation.name,
                    [self._local_wire(top_fragment), self._local_wire(bottom_fragment)],
                    operation.params,
                )
            else:
                circuit.add(operation.name, [self._local_wire(fragment)], operation.params)
            return

        # Gate-cut endpoint: emit this side's share of the chosen instance.
        decomposition = self._decompositions[element.op_index]
        instance = decomposition.instances[settings.instance_for(element.op_index) - 1]
        pre, measure, post = decomposition.side_operations(element.role, instance)
        wire = self._local_wire(fragment)
        for name, params in pre:
            circuit.add(name, [wire], params)
        if measure:
            circuit.measure(wire, tag=f"signed:gate:{element.op_index}:{element.role}")
        for name, params in post:
            circuit.add(name, [wire], params)

    def _emit_fragment_exit(
        self,
        circuit: Circuit,
        fragment: Fragment,
        wire: int,
        settings: VariantSettings,
        mode: str,
        pauli_term: Optional[PauliString],
    ) -> None:
        if fragment.exit_cut is not None:
            basis = settings.basis_for(fragment.exit_cut)
            identifier = fragment.exit_cut.identifier()
            if basis == "I":
                circuit.measure(wire, tag=f"cut:{identifier}")
            elif basis == "Z":
                circuit.measure(wire, tag=f"signed:cut:{identifier}")
            elif basis == "X":
                circuit.h(wire)
                circuit.measure(wire, tag=f"signed:cut:{identifier}")
            elif basis == "Y":
                circuit.sdg(wire)
                circuit.h(wire)
                circuit.measure(wire, tag=f"signed:cut:{identifier}")
            else:
                raise CuttingError(f"unknown measurement basis {basis!r}")
            return

        # Fragment ends at the original circuit output.
        if mode == "probability":
            circuit.measure(wire, tag=f"out:{fragment.qubit}")
            return
        label = pauli_term.label_for(fragment.qubit) if pauli_term else "I"
        if label == "I":
            return
        if label == "X":
            circuit.h(wire)
        elif label == "Y":
            circuit.sdg(wire)
            circuit.h(wire)
        circuit.measure(wire, tag=f"signed:out:{fragment.qubit}")
