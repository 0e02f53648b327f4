"""Batched vectorized simulation of variant-table rows.

QRCC's hot loop executes the ``4^(wire cuts) x 6^(gate cuts)`` subcircuit
variants of each fragment.  Variants of one fragment share their two-qubit
gates and their measurement/reset skeleton; they differ only in *single-qubit*
gates — wire-cut initialisation labels, measurement-basis rotations, gate-cut
instance actions and observable-term rotations.  Instead of walking every
variant through the scalar branching simulator one gate application at a time,
this module stacks the rows of one table into a single ``(batch, 2**n)``
complex array and applies each gate to all batch rows at once.

**Programs.**  A pass walks one :class:`Program`: the shared two-qubit gates,
single-qubit gates, measurements and resets of a variant table's skeleton
class, plus *slot layers* where rows differ.  A slot layer holds one
``(choices, 2, 2)`` matrix stack, or per-choice sign flags and ``out:``
positions for a measurement; each row gathers its entry by its choice index in
that slot (:meth:`repro.cutting.variants.VariantTable.program` builds these
once per table).  A slot whose choices have fewer gates than its deepest
choice applies the identity in the missing layers, so every row applies its
own circuit's gates, in its own program order, one matrix at a time (never
fused).  Rows of one table share a pass exactly when their skeleton class
agrees: the same gate-cut sides measure.

**Twins.**  :func:`twin_choices` is the one rule that decides which choices
of a slot are *twins*: every layer of the slot gives them byte-equal
matrices, the same ``out:`` position and the same measurement presence, so
only the ``signed`` flag may differ (a wire-cut exit's I, measured unsigned,
and Z, measured signed).  :func:`compile_program` applies it to every slot
column, :meth:`Program.canonical` maps every choice to the first of its
twins, and rows of a pass whose canonical choices agree form a
*twin class*.  A pass evolves each twin class once; at a twin measurement
whose sign flags differ it records the branch's outcome as a bit of a
per-branch word instead of folding the sign, and then gives each requested
row its class's branch rows with ``sign = sign_u * (-1)**popcount(bits &
mask_r)``.  A pass without twins is the one-member-per-class case.

**Bitwise contract.**  Row ``b`` of a batched run is bit-identical to running
variant ``b`` alone through :class:`~repro.simulator.dynamic.BranchingSimulator`:
both paths share the elementwise gate kernel of
:mod:`repro.simulator.statevector` (fixed IEEE operation order per amplitude,
independent of batch shape); measurement/reset projection probabilities come
from one ``np.add.reduce(..., axis=1)`` over C-contiguous float64 ``|amp|**2``
blocks, which runs NumPy's 1-D pairwise sum on every row and so equals the
scalar ``_project``'s per-row ``np.sum`` byte for byte; branch rows are
interleaved in the scalar enumeration order (outcome 0 then 1 per parent, dead
branches dropped); and one ``np.add.at`` into ``zeros(variants)`` sums every
variant's ``sign * prob`` in row order from ``0.0`` (strictly sequential,
like the scalar left-to-right ``+=`` loop of
:meth:`~repro.simulator.dynamic.BranchedResult.expectation_of_signs`), while
one more deposits every distribution entry into a flat array (repeated
indices applied in row order, like the scalar ``+=`` loop).  Twin expansion
is exact: twins gather byte-equal matrices at every step, so one evolution
yields the amplitudes, probabilities, output indices and pruning decisions of
each, and the signs are exact ±1 integers.  Those NumPy claims
are pinned by ``tests/test_batched.py::TestPinnedReductionOrders``; other axis
reductions are not bit-stable across shapes and strides (``np.add.reduceat``,
for one, sums pairwise inside each segment) and stay out of this module.
Identity padding can flip the sign of exactly-zero amplitudes, which is
invisible to every output (probabilities are ``|amp|**2``).

:func:`simulate_variant_group` can also stop before extraction and return the
live branch rows (:class:`BranchRows`): the finite-shot sampler draws from
those instead of walking each variant through the scalar simulator.
:func:`simulate_program` runs one program over given choice rows: the noisy
executor's trajectories, with Pauli-error slots after the gates they strike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Literal, Optional, Sequence, Tuple, Union, overload

import numpy as np

from ..circuits import Operation
from ..circuits.gates import SINGLE_QUBIT_GATES
from ..exceptions import SimulationError
from .dynamic import _DEFAULT_PRUNE_THRESHOLD, _FLIP, SIGNED_MEASUREMENT_PREFIX
from .statevector import _apply_matrix, _validate_gate, _validate_size

__all__ = [
    "BranchRows",
    "Program",
    "compile_program",
    "first_seen_classes",
    "twin_choices",
    "simulate_program",
    "simulate_variant_group",
    "pass_batches",
]

_IDENTITY_2 = np.eye(2, dtype=complex)

#: Measurement tags of this form mark an original-output qubit whose outcome
#: enters the probability-mode quasi-distribution index.
_OUTPUT_TAG_PREFIX = "out:"

#: Memoised gate matrices keyed by (name, params).  Parameterised gates rebuild
#: their matrix on every Operation.matrix() call; the tables of one cut repeat
#: the same few gates in every program, so interning them removes that cost.
#: Entries are never mutated (the kernels only read coefficients).
_MATRIX_CACHE: Dict[Tuple, np.ndarray] = {}  # qrcclint: disable=mutable-default-arg -- deliberate process-local memo: keyed deterministically, entries immutable once stored, bounded by _MATRIX_CACHE_LIMIT
_MATRIX_CACHE_LIMIT = 4096


def _gate_matrix(op: Any) -> np.ndarray:
    key = (op.name, op.params)
    matrix = _MATRIX_CACHE.get(key)
    if matrix is None:
        if len(_MATRIX_CACHE) >= _MATRIX_CACHE_LIMIT:
            _MATRIX_CACHE.clear()
        matrix = op.matrix()
        _MATRIX_CACHE[key] = matrix
    return matrix


# --------------------------------------------------------------------------- programs
#: Twin measurements one pass can record as outcome bits (of an int64 word);
#: a slot with one takes four table rows, so no enumerable table comes near.
_TWIN_BITS = 62


@dataclass(frozen=True)
class Program:
    """The steps every row of one batched pass walks.

    ``("g", qubit, matrix)`` is a shared single-qubit gate, ``("u", qubits,
    matrix)`` a shared multi-qubit gate and ``("r", qubit)`` a reset.  ``("v",
    qubit, column, stack)`` applies to each row the ``(2, 2)`` entry of
    ``stack`` its choice in slot ``column`` selects.  ``("m", qubit, column,
    signed, out, bit)`` measures: ``signed`` flips the sign on outcome 1 and
    ``out`` (>= 0) records the outcome at that output position, both scalars
    when ``column`` is ``None`` and per-choice arrays otherwise; ``bit`` >= 0
    marks a *twin* measurement, whose outcome the pass records as that bit of
    a per-branch word instead of folding its sign.  ``branch_points`` counts
    measurements and resets.

    ``twins`` holds ``(column, first)`` per slot column with twin choices:
    ``first[c]`` is the lowest choice whose every step gathers what choice
    ``c`` gathers apart from ``signed``, so rows that agree after
    :meth:`canonical` evolve identically and differ only in signs.
    """

    num_qubits: int
    steps: Tuple[Tuple, ...]
    branch_points: int
    twins: Tuple[Tuple[int, np.ndarray], ...]

    @property
    def row_elements(self) -> int:
        """Sizing estimate of one row's pass: ``2**num_qubits`` amplitudes per
        branch times the worst-case branch count ``2**branch_points``.

        The exponent is capped at 12: the true branch count is usually far
        below the worst case (deterministic outcomes prune half the tree at
        each measurement), and an uncapped bound would collapse every
        measurement-heavy pass to batch size one for no real memory saving.
        This makes the value a sizing estimate, not a hard cap — a pass that
        genuinely fans out past ``2**12`` branches uses the same row memory
        the scalar simulator's branch list would.
        """
        return 2**self.num_qubits * 2 ** min(self.branch_points, 12)

    def canonical(self, choices: np.ndarray) -> np.ndarray:
        """``choices`` (rows x slot columns) with every choice replaced by the
        first of its twins: rows with equal canonical choices are twins."""
        canonical = choices.copy()
        for column, first in self.twins:
            canonical[:, column] = first[choices[:, column]]
        return canonical


def _measure_flags(op: Optional[Operation], order: Dict[int, int]) -> Tuple[bool, int]:
    """``(signed, out position)`` of a measurement from its tag (``None``: neither)."""
    tag = (op.tag if op is not None else None) or ""
    if tag.startswith(SIGNED_MEASUREMENT_PREFIX):
        return True, -1
    if not tag.startswith(_OUTPUT_TAG_PREFIX):
        return False, -1
    try:
        return False, order.get(int(tag[len(_OUTPUT_TAG_PREFIX) :]), -1)
    except ValueError:
        return False, -1


def compile_program(
    num_qubits: int, entries: Sequence[Any], output_qubit_order: Sequence[int] = ()
) -> Program:
    """Compile operations and slot layers into a :class:`Program`.

    An entry is an :class:`~repro.circuits.Operation` every row applies, or a
    slot layer ``(column, ops)`` whose ``ops[c]`` rows with choice ``c`` apply:
    single-qubit gates (``None`` is the identity) or measurements (``None`` for
    choices that never reach it), all on one qubit.  Matrices are hoisted and
    measurement tags read once, against ``output_qubit_order``.  Each column's
    twins come from :func:`twin_choices`, and each twin measurement whose
    ``signed`` flags differ gets an outcome bit.
    """
    _validate_size(num_qubits)
    order = {qubit: position for position, qubit in enumerate(output_qubit_order)}
    steps: List[Tuple] = []
    # Per slot column, its layers' signature rows and its measurement steps.
    signatures: Dict[int, List[np.ndarray]] = {}
    measures: Dict[int, List[int]] = {}
    for entry in entries:
        if isinstance(entry, tuple):
            step, signature = _slot_layer(*entry, order)
            if step[0] == "m":
                measures.setdefault(step[2], []).append(len(steps))
            steps.append(step)
            signatures.setdefault(step[2], []).append(signature)
        elif entry.name in SINGLE_QUBIT_GATES:
            steps.append(("g", entry.qubits[0], _gate_matrix(entry)))
        elif entry.is_unitary:
            matrix = _gate_matrix(entry)
            _validate_gate(matrix, entry.qubits, num_qubits)
            steps.append(("u", entry.qubits, matrix))
        elif entry.is_measurement:
            steps.append(("m", entry.qubits[0], None, *_measure_flags(entry, order), -1))
        else:
            steps.append(("r", entry.qubits[0]))
    twins: List[Tuple[int, np.ndarray]] = []
    bits = 0
    for column, parts in signatures.items():
        first = _first_twins(parts)
        if np.array_equal(first, np.arange(len(first))):
            continue
        for index in measures.get(column, ()):
            if np.any(steps[index][3] != steps[index][3][first]):
                steps[index] = steps[index][:5] + (bits,)
                bits += 1
        twins.append((column, first))
    if bits > _TWIN_BITS:
        raise SimulationError(f"a program records at most {_TWIN_BITS} twin measurements")
    points = sum(1 for step in steps if step[0] in ("m", "r"))
    return Program(num_qubits, tuple(steps), points, tuple(twins))


def twin_choices(
    layers: Sequence[Tuple[int, Sequence[Optional[Operation]]]],
    output_qubit_order: Sequence[int] = (),
) -> np.ndarray:
    """The first twin of every choice of one slot, from its layers ``(column, ops)``.

    Two choices are *twins* when every layer gives them bit-equal matrices,
    the same ``out:`` position and the same measurement presence: only
    ``signed`` may differ (a wire-cut exit's I and Z).  Their rows' amplitudes,
    probabilities, output indices and pruning are then equal byte for byte.
    :func:`compile_program` applies this rule to every slot column.
    """
    order = {qubit: position for position, qubit in enumerate(output_qubit_order)}
    return _first_twins([_slot_layer(column, ops, order)[1] for column, ops in layers])


def _slot_layer(
    column: int, ops: Sequence[Optional[Operation]], order: Dict[int, int]
) -> Tuple[Tuple, np.ndarray]:
    """A slot layer's program step and, per choice, a signature row of what
    the choice gathers there apart from ``signed``: its matrix bits, or its
    measurement presence and ``out:`` position."""
    live = [op for op in ops if op is not None]
    kinds = {(op.qubits, op.is_measurement) for op in live}
    if len(kinds) != 1 or len(live[0].qubits) != 1:
        raise SimulationError("a slot layer needs one qubit and one kind of operation")
    qubit = live[0].qubits[0]
    if live[0].is_measurement:
        signed, out = zip(*(_measure_flags(op, order) for op in ops))
        signature = np.array([[op is None for op in ops], out], dtype=np.int64).T
        return ("m", qubit, column, np.array(signed), np.array(out), -1), signature
    matrices = [_IDENTITY_2 if op is None else _gate_matrix(op) for op in ops]
    stack = np.stack(matrices).astype(complex)
    return ("v", qubit, column, stack), stack.view(np.int64).reshape(len(ops), -1)


def _first_twins(signatures: Sequence[np.ndarray]) -> np.ndarray:
    """Per choice, the first choice whose signature rows all equal its own."""
    keys = np.ascontiguousarray(np.concatenate(signatures, axis=1))
    seen: Dict[bytes, int] = {}
    return np.array([seen.setdefault(key.tobytes(), c) for c, key in enumerate(keys)])


# --------------------------------------------------------------------------- passes
def first_seen_classes(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, class_of)`` of the distinct rows of the 2-D array ``keys``.

    Classes are numbered in first-seen order: ``first[k]`` is the position of
    class ``k``'s first row and ``class_of[i]`` the class of row ``i``.
    """
    # Each row as one opaque bytes item: a 1-D unique, cheaper than axis=0.
    keys = np.ascontiguousarray(keys if keys.shape[1] else np.zeros((len(keys), 1)))
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _pass_groups(variants: Sequence) -> List[List[int]]:
    """Positions of ``variants`` per batched pass, passes in first-seen order.

    Rows of one table (``variant.table``) share a pass when their skeleton
    class (``table.row_class``) agrees.
    """
    passes: List[List[int]] = []
    owners: Dict[int, Tuple[Any, List[int]]] = {}
    for position, variant in enumerate(variants):
        owners.setdefault(id(variant.table), (variant.table, []))[1].append(position)
    for table, positions in owners.values():
        rows = np.array([variants[position].row for position in positions], dtype=np.int64)
        classes = table.row_class[rows]
        members = np.asarray(positions)
        for row_class in dict.fromkeys(classes.tolist()):
            passes.append(members[classes == row_class].tolist())
    passes.sort(key=lambda positions: positions[0])
    return passes


def _pass_program(variants: Sequence, positions: Sequence[int]) -> Tuple[Program, np.ndarray]:
    """The program of one pass and its rows' choice matrix."""
    first = variants[positions[0]]
    table = first.table
    rows = np.array([variants[position].row for position in positions], dtype=np.int64)
    return table.program(int(table.row_class[first.row])), table.choices[rows]


def pass_batches(variants: Sequence, max_batch_elements: int) -> List[List[int]]:
    """Positions of ``variants`` split into batched-pass sized sub-batches.

    Rows of one table's skeleton class share a pass (passes in first-seen
    order, rows in their order).  A pass evolves each twin class once
    (``table.twin_class``), so a sub-batch takes whole twin classes, in
    first-seen order, as many as keep ``classes`` times the pass program's
    :attr:`Program.row_elements` under ``max_batch_elements``.  A ragged
    final sub-batch, even a single class, runs through the same batched pass
    and stays bit-identical.
    """
    batches: List[List[int]] = []
    for positions in _pass_groups(variants):
        program, _ = _pass_program(variants, positions[:1])
        limit = max(1, max_batch_elements // program.row_elements)
        if len(positions) <= limit:
            batches.append(positions)
            continue
        table = variants[positions[0]].table
        twin_class = table.twin_class[[variants[position].row for position in positions]]
        _, class_of = first_seen_classes(twin_class[:, np.newaxis])
        members = np.asarray(positions)
        batches.extend(members[rows].tolist() for rows in _whole_classes(class_of, limit))
    return batches


def _whole_classes(class_of: np.ndarray, limit: int) -> List[np.ndarray]:
    """Row positions in sub-batches of ``limit`` whole (first-seen) classes."""
    batch_of = class_of // limit
    return [np.flatnonzero(batch_of == batch) for batch in range(batch_of.max() + 1)]


# --------------------------------------------------------------------------- group runner
@dataclass
class BranchRows:
    """The live measurement branches of one batched pass, one row per branch.

    Rows follow the scalar simulator's branch enumeration order, so each
    variant's rows are contiguous: ``bounds[v]:bounds[v + 1]`` is the row
    slice of variant ``v`` of the group.  Per row, ``prob`` is the branch
    probability, ``sign`` its cumulative ±1 outcome sign, ``variant_of`` the
    variant's position in the group and ``out_index`` the basis index of its
    recorded ``out:`` outcomes over that variant's ``output_qubit_order`` —
    byte for byte the ``probability``, ``sign`` and output index of the
    branches :class:`~repro.simulator.dynamic.BranchingSimulator` returns.
    """

    prob: np.ndarray
    sign: np.ndarray
    variant_of: np.ndarray
    out_index: np.ndarray
    bounds: np.ndarray


@overload
def simulate_variant_group(
    variants: Sequence,
    prune_threshold: float = ...,
    *,
    rows: Literal[False] = ...,
) -> List[Tuple[float, Optional[np.ndarray]]]: ...


@overload
def simulate_variant_group(
    variants: Sequence,
    prune_threshold: float = ...,
    *,
    rows: Literal[True],
) -> BranchRows: ...


def simulate_variant_group(
    variants: Sequence,
    prune_threshold: float = _DEFAULT_PRUNE_THRESHOLD,
    *,
    rows: bool = False,
) -> Union[List[Tuple[float, Optional[np.ndarray]]], BranchRows]:
    """Run subcircuit variants in batched passes, one pass per table skeleton class.

    ``variants`` are variant-table rows (``table``, ``row``, ``mode`` and
    ``output_qubit_order`` attributes —
    :class:`repro.cutting.variants.SubcircuitVariant`).  Rows of one table
    whose skeleton class agrees share a pass, which evolves each twin class
    once (see :func:`twin_choices`).  Returns, per variant and in order,
    ``(value, distribution)``: the sign-weighted expectation of the recorded
    measurement signs and, for ``"probability"``-mode variants, the
    sign-weighted quasi-distribution over the variant's output qubits
    (``None`` otherwise) — bit-identical to what the scalar
    :class:`~repro.simulator.dynamic.BranchingSimulator` pipeline produces for
    each variant alone.  With ``rows=True`` it stops before that extraction
    and returns the live :class:`BranchRows` instead.
    """
    if not variants:
        if not rows:
            return []
        none = np.zeros(0, dtype=np.int64)
        return BranchRows(np.zeros(0), none, none, none, np.zeros(1, dtype=np.int64))
    passes = [
        (positions, _program_rows(*_pass_program(variants, positions), prune_threshold))
        for positions in _pass_groups(variants)
    ]
    branch_rows = passes[0][1] if len(passes) == 1 else _merge(passes, len(variants))
    if rows:
        return branch_rows
    sizes = [2 ** len(v.output_qubit_order) if v.mode == "probability" else 0 for v in variants]
    return _extract(branch_rows, np.array(sizes, dtype=np.int64))


def simulate_program(
    program: Program, choices: np.ndarray, max_batch_elements: int, outputs: Optional[int] = None
) -> List[Tuple[float, Optional[np.ndarray]]]:
    """Per row of slot ``choices``, the ``(value, distribution)`` of ``program``.

    Each row's result is :func:`simulate_variant_group`'s for a variant whose
    pass gathers those choices; the distribution spans ``outputs`` ``out:``
    positions (``None`` without).  Rows whose canonical choices agree evolve
    once, and passes take whole such classes by the rule of :func:`pass_batches`.
    """
    limit = max(1, max_batch_elements // program.row_elements)
    _, class_of = first_seen_classes(program.canonical(choices))
    size = 0 if outputs is None else 2**outputs
    results: List[Tuple[float, Optional[np.ndarray]]] = [(0.0, None)] * len(choices)
    for rows in _whole_classes(class_of, limit):
        branch_rows = _program_rows(program, choices[rows], _DEFAULT_PRUNE_THRESHOLD)
        sizes = np.full(len(rows), size, dtype=np.int64)
        for row, result in zip(rows.tolist(), _extract(branch_rows, sizes)):
            results[row] = result
    return results


def _merge(passes: Sequence[Tuple[List[int], BranchRows]], count: int) -> BranchRows:
    """Several passes' rows as one :class:`BranchRows` in the variants' order."""
    variant_of = np.concatenate(
        [np.asarray(positions, dtype=np.int64)[part.variant_of] for positions, part in passes]
    )
    # Each variant's rows are contiguous and ordered within its own pass, so a
    # stable sort by position keeps every variant's scalar branch order.
    order = np.argsort(variant_of, kind="stable")
    variant_of = variant_of[order]
    prob, sign, out_index = (
        np.concatenate([getattr(part, name) for _, part in passes])[order]
        for name in ("prob", "sign", "out_index")
    )
    bounds = np.searchsorted(variant_of, np.arange(count + 1))
    return BranchRows(prob, sign, variant_of, out_index, bounds)


def _program_rows(program: Program, choices: np.ndarray, prune_threshold: float) -> BranchRows:
    """One pass: evolve each twin class once, then give every row its class's branches.

    ``choices`` holds each row's choice per slot column.  Rows whose
    :meth:`Program.canonical` choices agree are twins: one evolution yields
    their ``prob``, ``out_index`` and pruning byte for byte.  Row ``r`` takes
    its class's branch rows with ``sign = sign_u * (-1)**popcount(bits &
    mask_r)``, where ``bits`` holds a branch's twin-measurement outcomes and
    ``mask_r`` the twin measurements row ``r`` signs: exact ±1 integers, the
    sign the row's own evolution would fold.
    """
    canonical = program.canonical(choices)
    first, class_of = first_seen_classes(canonical)
    evolved, bits = _evolve(program, canonical[first], prune_threshold)
    lengths = np.diff(evolved.bounds)[class_of]
    bounds = np.zeros(len(choices) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    variant_of = np.repeat(np.arange(len(choices), dtype=np.int64), lengths)
    picked = np.repeat(evolved.bounds[class_of] - bounds[:-1], lengths) + np.arange(bounds[-1])
    masks = np.zeros(len(choices), dtype=np.int64)
    for kind, _, column, signed, _, bit in (step for step in program.steps if step[0] == "m"):
        if bit >= 0:
            masks |= signed[choices[:, column]].astype(np.int64) << bit
    sign = evolved.sign[picked]
    odd = np.bitwise_count(bits[picked] & masks[variant_of]) & 1
    sign = np.where(odd == 1, -sign, sign)
    return BranchRows(evolved.prob[picked], sign, variant_of, evolved.out_index[picked], bounds)


def _evolve(
    program: Program, choices: np.ndarray, prune_threshold: float
) -> Tuple[BranchRows, np.ndarray]:
    """Evolve every row of ``choices`` through ``program`` and branch it.

    Slot steps gather their per-choice matrices, sign flags and output
    positions by the row's choice.  Returns the branch rows and, per branch,
    the word of its twin-measurement outcome bits (``Program`` ``bit``).
    """
    num_qubits = program.num_qubits
    dim = 2**num_qubits
    batch = choices.shape[0]

    # Row state: the living branches of every row, interleaved in scalar
    # enumeration order (rows stay contiguous and ordered throughout).
    states = np.zeros((batch, dim), dtype=complex)
    states[:, 0] = 1.0
    prob = np.ones(batch, dtype=np.float64)
    sign = np.ones(batch, dtype=np.int64)
    variant_of = np.arange(batch, dtype=np.int64)
    out_index = np.zeros(batch, dtype=np.int64)
    bits = np.zeros(batch, dtype=np.int64)
    for kind, qubit, *data in program.steps:
        if kind == "g":
            states = _apply_matrix(states, data[0], (qubit,), num_qubits)
        elif kind == "u":
            states = _apply_matrix(states, data[0], qubit, num_qubits)
        elif kind == "v":
            column, stack = data
            states = _apply_matrix(states, stack[choices[variant_of, column]], (qubit,), num_qubits)
        else:
            signed, out, bit = np.zeros(batch, dtype=bool), np.full(batch, -1), -1
            if kind == "m":
                column, signed, out, bit = data
                if column is None:
                    signed, out = np.full(batch, signed), np.full(batch, out)
                else:
                    signed, out = signed[choices[:, column]], out[choices[:, column]]
            states, prob, sign, variant_of, out_index, bits = _branch_rows(
                states,
                (prob, sign, variant_of, out_index, bits),
                qubit,
                num_qubits,
                prune_threshold,
                kind == "r",
                signed,
                out,
                bit,
            )
            if not len(prob):
                # Every branch was pruned, as the scalar simulator's empty
                # branch list: nothing is left to evolve.
                break
    bounds = np.searchsorted(variant_of, np.arange(batch + 1))
    return BranchRows(prob, sign, variant_of, out_index, bounds), bits


def _extract(
    branch_rows: BranchRows, sizes: np.ndarray
) -> List[Tuple[float, Optional[np.ndarray]]]:
    """Per-variant ``(value, distribution)``, accumulated as the scalar path does.

    ``sizes[v]`` is variant ``v``'s distribution length (``0``: none).  The
    scalar path adds up ``sign * prob`` left to right from ``0.0`` and
    deposits each branch with ``distribution[index] += weight``.  One
    ``np.add.at`` into ``zeros(variants)`` applies every row in order, so each
    variant's value is that sequential sum from ``0.0`` (its rows are
    contiguous); a second one deposits every probability-mode row into one
    flat array at its variant's offset plus its ``out_index``, and each
    variant's distribution is its slice of it.
    """
    contributions = branch_rows.sign * branch_rows.prob
    values = np.zeros(len(sizes))
    np.add.at(values, branch_rows.variant_of, contributions)
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = np.zeros(offsets[-1])
    recorded = sizes[branch_rows.variant_of] > 0
    owners = branch_rows.variant_of[recorded]
    np.add.at(flat, offsets[owners] + branch_rows.out_index[recorded], contributions[recorded])
    bounds = offsets.tolist()
    return [
        (value, flat[bounds[v] : bounds[v + 1]] if sizes[v] else None)
        for v, value in enumerate(values.tolist())
    ]


def _branch_rows(
    states: np.ndarray,
    rows: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    qubit: int,
    num_qubits: int,
    prune_threshold: float,
    is_reset: bool,
    signed: np.ndarray,
    out_position: np.ndarray,
    bit: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every row on a measure/reset of ``qubit``; drop pruned branches.

    ``rows`` is the per-branch ``(prob, sign, variant_of, out_index, bits)``.
    Children are interleaved ``(row 0, outcome 0), (row 0, outcome 1),
    (row 1, outcome 0), ...`` — the scalar enumeration order — so per-variant
    row blocks stay contiguous and ordered.  The per-row projection
    probability equals the scalar ``_project``'s ``np.sum`` over
    ``state[mask]`` byte for byte (see the comment below).  A measurement
    with ``bit`` >= 0 sets that bit of ``bits`` on outcome 1 instead of
    flipping ``sign``.
    """
    prob, sign, variant_of, out_index, bits = rows
    dim = states.shape[1]
    count = states.shape[0]
    # The masked halves in index order, as C-contiguous (count, dim/2) blocks,
    # so row r of each block holds exactly the scalar ``state[mask]``.
    split = states.reshape(count, dim // 2 ** (qubit + 1), 2, 2**qubit)
    halves = [
        np.ascontiguousarray(split[:, :, value, :]).reshape(count, dim // 2) for value in (0, 1)
    ]
    # A last-axis reduce of a C-contiguous float64 block runs NumPy's 1-D
    # pairwise sum on each row: the same bytes as a per-row np.sum, without a
    # Python loop over rows.
    p0 = np.add.reduce(np.abs(halves[0]) ** 2, axis=1)  # qrcclint: disable=unstable-reduction -- pinned: a last-axis reduce of a C-contiguous float64 block equals the per-row 1-D np.sum byte for byte (tests/test_batched.py::TestPinnedReductionOrders::test_last_axis_reduce_equals_per_row_sum)
    p1 = np.add.reduce(np.abs(halves[1]) ** 2, axis=1)  # qrcclint: disable=unstable-reduction -- pinned: same block layout as p0 (tests/test_batched.py::TestPinnedReductionOrders::test_last_axis_reduce_equals_per_row_sum)
    conditional = np.stack([p0, p1], axis=1).reshape(-1)
    alive = np.flatnonzero(conditional > prune_threshold)
    parent = alive >> 1
    outcome = alive & 1
    conditional = conditional[alive]
    scale = np.sqrt(conditional)
    # Each child is its parent's kept half over sqrt(p), zeros elsewhere: the
    # scalar ``np.where(mask, state, 0.0) / np.sqrt(p)``, element for element.
    children = np.zeros((alive.size, dim), dtype=complex)
    view = children.reshape(alive.size, dim // 2 ** (qubit + 1), 2, 2**qubit)
    for value, half in enumerate(halves):
        picked = np.flatnonzero(outcome == value)
        if picked.size:
            block = half[parent[picked]] / scale[picked, np.newaxis]
            view[picked, :, value, :] = block.reshape((picked.size,) + view.shape[1:2] + (2**qubit,))
    if is_reset and np.any(outcome == 1):
        flipped = outcome == 1
        children[flipped] = _apply_matrix(children[flipped], _FLIP, (qubit,), num_qubits)
    prob = prob[parent] * conditional
    variant_of = variant_of[parent]
    sign = sign[parent]
    out_index = out_index[parent]
    bits = bits[parent]
    if not is_reset:
        if bit >= 0:
            bits |= outcome << bit
        else:
            flips = signed[variant_of] & (outcome == 1)
            sign = np.where(flips, -sign, sign)
        positions = out_position[variant_of]
        records = positions >= 0
        if np.any(records):
            # Scalar branches *overwrite* a re-measured outcome key (last write
            # wins), so clear the bit before depositing this measurement.
            masks = np.int64(1) << positions[records]
            cleared = out_index[records] & ~masks
            out_index[records] = cleared | (outcome[records] * masks)
    return children, prob, sign, variant_of, out_index, bits
