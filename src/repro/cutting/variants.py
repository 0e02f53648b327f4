"""Concrete executable subcircuit variants, held as rows of variant tables.

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

The variants of one (subcircuit, mode, restricted term) differ only at their cut
ends, so they form one :class:`VariantTable`.  :class:`VariantBuilder` walks the
subcircuit once per (mode, term) and records a *skeleton*: the shared operations
plus one *slot* per cut end, whose choices are the runs that end can take — an
initialised cut's preparation (nothing, X, H, or H then S), a measured cut's
rotation and measurement (I unsigned; Z, X after H, Y after Sdg·H signed), or one
gate-cut side's pre-gates, optional signed measurement and post-gates.  A row is
one choice index per slot.  A table hashes every row's fingerprint at once
(:attr:`VariantTable.fingerprints`) from text encoded once per table: the bytes
:func:`~repro.engine.requests.variant_fingerprint` hashes over a row's circuit.
The batched simulator gathers per-slot matrix stacks by row
(:meth:`VariantTable.program`), and a pool task pickles the table once plus row
indices.  A row's :class:`~repro.circuits.Circuit` is built only when an executor
without row support reads ``SubcircuitVariant.circuit``.

Every variant is a table row: :meth:`VariantTable.of_circuit` wraps a bare
circuit as a one-row table without slots.  A probability-mode table's ``out:``
measurements are checked once, when the table is built.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit, Operation
from ..circuits.gates import measure as measure_op
from ..circuits.gates import operation as _gate
from ..circuits.gates import reset
from ..engine.requests import fingerprint_head, operation_field
from ..exceptions import CuttingError
from ..simulator.batched import Program, compile_program, first_seen_classes, twin_choices
from ..utils.pauli import PauliString
from .cuts import CutSolution
from .fragments import Fragment, SubcircuitSpec
from .gate_cut import NUM_GATE_CUT_INSTANCES, GateCutDecomposition, decompose_gate_cut

__all__ = [
    "WIRE_CUT_MEASUREMENT_BASES",
    "WIRE_CUT_INIT_LABELS",
    "VariantSettings",
    "SubcircuitVariant",
    "VariantTable",
    "VariantBuilder",
]

#: Measurement bases for the upstream end of a wire cut.
WIRE_CUT_MEASUREMENT_BASES: Tuple[str, ...] = ("I", "X", "Y", "Z")

#: Initialisation labels for the downstream end of a wire cut.
WIRE_CUT_INIT_LABELS: Tuple[str, ...] = ("zero", "one", "plus", "plus_i")

#: Per :class:`VariantSettings` field, the setting value of each choice index.
_CHOICE_VALUES: Dict[str, Tuple[Any, ...]] = {  # qrcclint: disable=mutable-default-arg -- read-only constant table (tuple values), never written after import
    "measurement_bases": WIRE_CUT_MEASUREMENT_BASES,
    "init_labels": WIRE_CUT_INIT_LABELS,
    "gate_instances": tuple(range(1, NUM_GATE_CUT_INSTANCES + 1)),
}


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


class SubcircuitVariant:
    """A concrete runnable variant of a subcircuit: row ``row`` of ``table``.

    Args:
        table: the :class:`VariantTable` holding the row.
        row: the row's index in ``table``.

    ``subcircuit_index``, ``num_wires``, ``output_qubit_order``, ``mode`` and
    ``pauli_term`` are the table's.  ``settings`` and ``circuit`` are decoded
    from the table on first access, then cached; ``fingerprint`` is the row's
    entry of :attr:`VariantTable.fingerprints`.  Wrap a bare circuit with
    :meth:`VariantTable.of_circuit`.
    """

    __slots__ = ("table", "row", "_settings", "_circuit")

    def __init__(self, table: "VariantTable", row: int) -> None:
        self.table = table
        self.row = row
        self._settings: Optional[VariantSettings] = None
        self._circuit: Optional[Circuit] = None

    @property
    def subcircuit_index(self) -> int:
        return self.table.subcircuit_index

    @property
    def num_wires(self) -> int:
        return self.table.num_wires

    @property
    def output_qubit_order(self) -> Tuple[int, ...]:
        return self.table.output_qubit_order

    @property
    def mode(self) -> str:
        return self.table.mode

    @property
    def pauli_term(self) -> Optional[PauliString]:
        return self.table.pauli_term

    @property
    def settings(self) -> VariantSettings:
        if self._settings is None:
            self._settings = self.table.settings_of(self.row)
        return self._settings

    @property
    def circuit(self) -> Circuit:
        if self._circuit is None:
            self._circuit = self.table._materialise(self.row)
        return self._circuit

    @property
    def fingerprint(self) -> str:
        """Stable content hash identifying this request to the engine."""
        return self.table.fingerprints[self.row]

    def __reduce__(self) -> Tuple[Any, ...]:
        # A row travels as (table, row): a chunk of rows ships its table once.
        return _table_row, (self.table, self.row)


def _table_row(table: "VariantTable", row: int) -> SubcircuitVariant:
    return table.variants[row]


class _Slot(NamedTuple):
    """One cut end: ``runs[c]`` is applied by rows choosing ``c``, which stands
    for the setting ``_CHOICE_VALUES[field][c]`` of ``key`` (a cut identifier
    or a gate-cut op index)."""

    field: str
    key: Any
    runs: Tuple[Tuple[Operation, ...], ...]


def _measures(run: Sequence[Operation]) -> bool:
    return any(op.is_measurement for op in run)


def _encoded(ops: Sequence[Operation]) -> bytes:
    return b"".join(map(operation_field, ops))


class _Skeleton:
    """One emission walk: ``slots`` (the cut ends) in program order, with the
    shared operations around them in ``gaps`` (``gaps[i]`` precedes slot ``i``)."""

    def __init__(self, num_qubits: int, name: str) -> None:
        self.num_qubits = num_qubits
        self.name = name
        self.gaps: List[List[Operation]] = [[]]
        self.slots: List[_Slot] = []

    def slot(self, field: str, key: Any, runs: Tuple[Tuple[Operation, ...], ...]) -> None:
        self.slots.append(_Slot(field, key, runs))
        self.gaps.append([])


class VariantTable:
    """Every cut-setting row of one (subcircuit, mode, restricted term).

    Args:
        skeleton: the builder's emission walk for this (mode, term).
        subcircuit_index: the subcircuit the rows belong to.
        num_wires: physical qubits of every row.
        output_qubit_order: original qubits measured to outputs, LSB first.
        mode: ``"probability"`` or ``"expectation"``.
        pauli_term: the restricted term (expectation mode), else ``None``.
        choices: ``(rows, slots)`` integer array, each row's choice per slot.

    Build tables through :meth:`VariantBuilder.table`, or wrap a bare circuit
    with :meth:`of_circuit`.  Operation text and matrices are derived once per
    table, never per row.  A probability-mode table must measure every output
    qubit to an ``out:`` tag in its shared operations; the constructor raises
    :class:`~repro.exceptions.CuttingError` otherwise, so no executor checks
    it again.
    """

    def __init__(
        self,
        skeleton: _Skeleton,
        subcircuit_index: int,
        num_wires: int,
        output_qubit_order: Tuple[int, ...],
        mode: str,
        pauli_term: Optional[PauliString],
        choices: np.ndarray,
    ) -> None:
        if mode not in ("probability", "expectation"):
            raise CuttingError(f"unknown variant mode {mode!r}")
        if mode == "probability":
            recorded = {
                op.tag[len("out:") :]
                for gap in skeleton.gaps
                for op in gap
                if op.is_measurement and (op.tag or "").startswith("out:")
            }
            for qubit in output_qubit_order:
                if str(qubit) not in recorded:
                    raise CuttingError(
                        f"variant for subcircuit {subcircuit_index} did not record "
                        f"an outcome for original qubit {qubit}"
                    )
        self.skeleton = skeleton
        self.subcircuit_index = subcircuit_index
        self.num_wires = num_wires
        self.output_qubit_order = output_qubit_order
        self.mode = mode
        self.pauli_term = pauli_term
        self.choices = choices
        self.__setstate__({})

    @classmethod
    def of_circuit(
        cls, circuit: Circuit, mode: str, output_qubit_order: Sequence[int] = ()
    ) -> "VariantTable":
        """A bare ``circuit`` as a one-row table of subcircuit 0.

        The skeleton has no slots, and its only gap holds the circuit's
        operations, so the row runs, hashes and pickles exactly as an
        enumerated row does; its settings are empty.  ``mode`` and
        ``output_qubit_order`` are as for the constructor.
        """
        skeleton = _Skeleton(circuit.num_qubits, circuit.name)
        skeleton.gaps[0].extend(circuit)
        return cls(
            skeleton,
            0,
            circuit.num_qubits,
            tuple(output_qubit_order),
            mode,
            None,
            np.zeros((1, 0), dtype=np.int8),
        )

    def __getstate__(self) -> Dict[str, Any]:
        # Only the skeleton and the choice rows travel; the rest is derived.
        return {name: value for name, value in vars(self).items() if not name.startswith("_")}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._variants: Optional[List[SubcircuitVariant]] = None
        self._rows: Optional[List[List[int]]] = None
        self._fingerprints: Optional[List[str]] = None
        self._row_class: Optional[np.ndarray] = None
        self._twin_class: Optional[np.ndarray] = None
        self._programs: Dict[int, Program] = {}

    def __len__(self) -> int:
        return len(self.choices)

    @property
    def variants(self) -> List[SubcircuitVariant]:
        """One handle per row, in row order."""
        if self._variants is None:
            self._variants = [SubcircuitVariant(self, row) for row in range(len(self))]
        return self._variants

    def _choices(self, row: int) -> List[int]:
        if self._rows is None:
            self._rows = self.choices.tolist()
        return self._rows[row]

    def settings_of(self, row: int) -> VariantSettings:
        fields: Dict[str, Dict[Any, Any]] = {field: {} for field in _CHOICE_VALUES}
        for slot, choice in zip(self.skeleton.slots, self._choices(row)):
            fields[slot.field][slot.key] = _CHOICE_VALUES[slot.field][choice]
        return VariantSettings.build(**fields)

    def _materialise(self, row: int) -> Circuit:
        gaps, circuit = self.skeleton.gaps, Circuit(self.skeleton.num_qubits, self.skeleton.name)
        for op in gaps[0]:
            circuit.append(op)
        for slot, choice, gap in zip(self.skeleton.slots, self._choices(row), gaps[1:]):
            for op in slot.runs[choice] + tuple(gap):
                circuit.append(op)
        return circuit

    @property
    def fingerprints(self) -> List[str]:
        """Every row's :func:`~repro.engine.requests.variant_fingerprint`, in row order.

        All rows are hashed at once from text encoded once per table: the
        head fields, a settings ``repr`` fragment per slot choice (slots in
        the settings' sorted-key order) and the operation text of every gap
        and slot choice.
        """
        if self._fingerprints is None:
            head, columns = self._fingerprint_text()
            self._fingerprints = [
                hashlib.sha1(head + b"".join([texts[row[j]] for j, texts in columns])).hexdigest()
                for row in map(self._choices, range(len(self)))
            ]
        return self._fingerprints

    def _fingerprint_text(self) -> Tuple[bytes, List[Tuple[int, List[bytes]]]]:
        """``(head, columns)``: a row hashes ``head`` and then, per column
        ``(slot, texts)``, ``texts[its choice of slot]``.

        The text is ``fingerprint_head``'s two halves around ``repr`` of the
        row's :class:`VariantSettings`, then the row's operation fields; the
        fixed text between two choices is folded into the choice before it.
        """
        before, after = fingerprint_head(self, self.skeleton.num_qubits)
        slots, gaps = self.skeleton.slots, self.skeleton.gaps
        pieces: List[Any] = [before + f"{VariantSettings.__qualname__}(".encode("utf-8")]
        for position, field in enumerate(fields(VariantSettings)):
            # VariantSettings.build sorts each field by key; a key repeated
            # by two slots keeps the last one's value, as a dict does.
            last = {slot.key: j for j, slot in enumerate(slots) if slot.field == field.name}
            pieces.append(f"{', ' if position else ''}{field.name}=(".encode("utf-8"))
            for n, (key, j) in enumerate(sorted(last.items())):
                texts = [f"{', ' if n else ''}{(key, v)!r}" for v in _CHOICE_VALUES[field.name]]
                pieces.append((j, [text.encode("utf-8") for text in texts]))
            pieces.append(b",)" if len(last) == 1 else b")")
        pieces.append(b")" + after + _encoded(gaps[0]))
        for j, slot in enumerate(slots):
            pieces += [(j, [_encoded(run) for run in slot.runs]), _encoded(gaps[j + 1])]
        head, columns = b"", []
        for piece in pieces:
            if not isinstance(piece, bytes):
                columns.append(piece)
            elif columns:
                slot, texts = columns[-1]
                columns[-1] = (slot, [text + piece for text in texts])
            else:
                head += piece
        return head, columns

    @property
    def row_class(self) -> np.ndarray:
        """Each row's skeleton class: bit ``j`` is set when the row measures in
        the ``j``-th measure-optional slot (a gate-cut side).  Rows of one class
        share their measurements and run in one batched pass."""
        if self._row_class is None:
            classes = np.zeros(len(self), dtype=np.int64)
            for bit, index in enumerate(self._optional()):
                measures = np.array([_measures(run) for run in self.skeleton.slots[index].runs])
                classes |= measures[self.choices[:, index]].astype(np.int64) << bit
            self._row_class = classes
        return self._row_class

    @property
    def twin_class(self) -> np.ndarray:
        """Each row's twin class, numbered in order of first appearance: rows
        share one when they share a skeleton class and every slot choice is a
        twin of the other's (:func:`~repro.simulator.batched.twin_choices`,
        the rule the class program's
        :meth:`~repro.simulator.batched.Program.canonical` applies), so their
        circuits differ at most in which measurements are signed.  A batched
        pass evolves each twin class once."""
        if self._twin_class is None:
            keys = self.choices.astype(np.int64)
            for index, slot in enumerate(self.skeleton.slots):
                layers = _layers(index, slot.runs)
                if layers:
                    first = twin_choices(layers, self.output_qubit_order)
                    keys[:, index] = first[self.choices[:, index]]
            _, self._twin_class = first_seen_classes(np.column_stack([self.row_class, keys]))
        return self._twin_class

    def _optional(self) -> List[int]:
        return [
            index
            for index, slot in enumerate(self.skeleton.slots)
            if len({_measures(run) for run in slot.runs}) > 1
        ]

    def program(self, row_class: int) -> Program:
        """The batched-simulation program the rows of ``row_class`` share.

        Each slot becomes aligned layers (its gates before a measurement, the
        measurement, its gates after), one entry per choice: the identity where
        a choice has fewer gates, nothing for choices outside the class.  No
        matrices are fused, so every row applies exactly its own circuit's
        gates in its own order.
        """
        if row_class not in self._programs:
            measuring = {index: row_class >> bit & 1 for bit, index in enumerate(self._optional())}
            entries: List[Any] = list(self.skeleton.gaps[0])
            for index, slot in enumerate(self.skeleton.slots):
                runs = slot.runs
                if index in measuring:
                    runs = tuple(run if _measures(run) == measuring[index] else () for run in runs)
                entries += _layers(index, runs) + self.skeleton.gaps[index + 1]
            self._programs[row_class] = compile_program(
                self.skeleton.num_qubits, entries, self.output_qubit_order
            )
        return self._programs[row_class]


def _layers(column: int, runs: Sequence[Tuple[Operation, ...]]) -> List[Tuple[Any, ...]]:
    """A slot's ``(column, op per choice)`` layers, aligned around its measurement."""
    parts: List[List[Tuple[Operation, ...]]] = [[], [], []]
    for run in runs:
        cut = next((i for i, op in enumerate(run) if op.is_measurement), len(run))
        for part, ops in zip(parts, (run[:cut], run[cut : cut + 1], run[cut + 1 :])):
            part.append(ops)
    return [
        (column, tuple(ops[layer] if layer < len(ops) else None for ops in part))
        for part in parts
        for layer in range(max(map(len, part), default=0))
    ]


class VariantBuilder:
    """Builds the variant tables (and single variants) of one subcircuit."""

    def __init__(self, solution: CutSolution, spec: SubcircuitSpec) -> None:
        self._solution = solution
        self._spec = spec
        self._circuit = solution.circuit
        self._decompositions: Dict[int, GateCutDecomposition] = {
            op_index: decompose_gate_cut(self._circuit.operations[op_index])
            for op_index in spec.gate_cut_sides
        }
        self._fragment_of_element: Dict[Tuple[int, int], Fragment] = {
            (element.op_index, fragment.qubit): fragment for fragment, element in spec.elements
        }
        self._skeletons: Dict[Tuple, _Skeleton] = {}

    # ------------------------------------------------------------------ building
    def table(
        self,
        axes: Sequence[Tuple[str, Any]],
        choices: np.ndarray,
        mode: str,
        pauli_term: Optional[PauliString] = None,
    ) -> VariantTable:
        """The variant table with one row per row of ``choices``.

        ``axes[j]`` names column ``j`` as a :class:`VariantSettings` ``(field,
        key)``; its entries index :data:`WIRE_CUT_MEASUREMENT_BASES`,
        :data:`WIRE_CUT_INIT_LABELS` or the instance number minus one.  Every cut
        end needs a column.  ``mode`` is ``"probability"`` (all output qubits
        measured, unsigned) or ``"expectation"`` (output qubits measured in the
        basis dictated by ``pauli_term``, signed).
        """
        if mode == "expectation" and pauli_term is None:
            pauli_term = PauliString((), 1.0)
        skeleton = self._skeleton(mode, pauli_term)
        column = {axis: j for j, axis in enumerate(axes)}
        for slot in skeleton.slots:
            if (slot.field, slot.key) not in column:
                raise CuttingError(f"no {slot.field} setting for cut end {slot.key!r}")
        order = [column[(slot.field, slot.key)] for slot in skeleton.slots]
        spec = self._spec
        return VariantTable(
            skeleton,
            spec.index,
            max(spec.num_wires, 1),
            tuple(spec.output_qubits),
            mode,
            pauli_term,
            np.asarray(choices, dtype=np.int8)[:, order],
        )

    def build(
        self,
        settings: VariantSettings,
        mode: str,
        pauli_term: Optional[PauliString] = None,
    ) -> SubcircuitVariant:
        """The variant for one setting combination: a one-row table's row."""
        axes: List[Tuple[str, Any]] = []
        row: List[int] = []
        for field, values in _CHOICE_VALUES.items():
            for key, value in getattr(settings, field):
                if value not in values:
                    raise CuttingError(f"unknown {field} value {value!r} for {key!r}")
                axes.append((field, key))
                row.append(values.index(value))
        return self.table(axes, np.array([row]), mode, pauli_term).variants[0]

    # ------------------------------------------------------------------ internals
    def _local_wire(self, fragment: Fragment) -> int:
        return self._spec.wire_of_fragment[fragment.index]

    def _skeleton(self, mode: str, pauli_term: Optional[PauliString]) -> _Skeleton:
        """The (memoised) emission walk of this subcircuit for ``(mode, term)``."""
        key = (mode, pauli_term.paulis if pauli_term is not None else None)
        skeleton = self._skeletons.get(key)
        if skeleton is not None:
            return skeleton
        walk = _Skeleton(max(self._spec.num_wires, 1), f"sub{self._spec.index}")
        wire_started: Dict[int, bool] = {}
        entered_fragments: set = set()
        for fragment, element in self._spec.elements:
            self._ensure_entered(walk, fragment, wire_started, entered_fragments)
            self._emit_element(walk, fragment, element, wire_started, entered_fragments)
            if fragment.elements[-1] is element:
                self._emit_fragment_exit(walk, fragment, mode, pauli_term)
        self._skeletons[key] = walk
        return walk

    def _ensure_entered(
        self,
        walk: _Skeleton,
        fragment: Fragment,
        wire_started: Dict[int, bool],
        entered_fragments: set,
    ) -> None:
        """Emit the fragment's wire preparation (reset + cut initialisation slot) once."""
        if fragment.index in entered_fragments:
            return
        entered_fragments.add(fragment.index)
        wire = self._local_wire(fragment)
        if wire_started.get(wire):
            walk.gaps[-1].append(reset(wire, tag=f"reuse:{fragment.qubit}"))
        wire_started[wire] = True
        if fragment.entry_cut is None:
            return
        h, x, s = (_gate(name, [wire]) for name in ("h", "x", "s"))
        walk.slot("init_labels", fragment.entry_cut.identifier(), ((), (x,), (h,), (h, s)))

    def _emit_element(
        self,
        walk: _Skeleton,
        fragment: Fragment,
        element: Any,
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
                self._ensure_entered(walk, bottom_fragment, wire_started, entered_fragments)
                walk.gaps[-1].append(
                    _gate(
                        operation.name,
                        [self._local_wire(top_fragment), self._local_wire(bottom_fragment)],
                        operation.params,
                    )
                )
            else:
                walk.gaps[-1].append(
                    _gate(operation.name, [self._local_wire(fragment)], operation.params)
                )
            return

        # Gate-cut endpoint: one slot choosing this side's share of the instance.
        decomposition = self._decompositions[element.op_index]
        wire = self._local_wire(fragment)
        runs = []
        for instance in decomposition.instances:
            pre, measure, post = decomposition.side_operations(element.role, instance)
            run = [_gate(name, [wire], params) for name, params in pre]
            if measure:
                run.append(measure_op(wire, f"signed:gate:{element.op_index}:{element.role}"))
            run.extend(_gate(name, [wire], params) for name, params in post)
            runs.append(tuple(run))
        walk.slot("gate_instances", element.op_index, tuple(runs))

    def _emit_fragment_exit(
        self,
        walk: _Skeleton,
        fragment: Fragment,
        mode: str,
        pauli_term: Optional[PauliString],
    ) -> None:
        wire = self._local_wire(fragment)
        if fragment.exit_cut is not None:
            identifier = fragment.exit_cut.identifier()
            h, sdg = _gate("h", [wire]), _gate("sdg", [wire])
            signed = measure_op(wire, f"signed:cut:{identifier}")
            walk.slot(
                "measurement_bases",
                identifier,
                (
                    (measure_op(wire, f"cut:{identifier}"),),
                    (h, signed),
                    (sdg, h, signed),
                    (signed,),
                ),
            )
            return

        # Fragment ends at the original circuit output.
        if mode == "probability":
            walk.gaps[-1].append(measure_op(wire, f"out:{fragment.qubit}"))
            return
        label = pauli_term.label_for(fragment.qubit) if pauli_term else "I"
        if label == "I":
            return
        if label == "X":
            walk.gaps[-1].append(_gate("h", [wire]))
        elif label == "Y":
            walk.gaps[-1].extend((_gate("sdg", [wire]), _gate("h", [wire])))
        walk.gaps[-1].append(measure_op(wire, f"signed:out:{fragment.qubit}"))
