"""Batched vectorized simulation of structurally aligned circuit variants.

QRCC's hot loop executes the ``4^(wire cuts) x 6^(gate cuts)`` subcircuit
variants of each fragment.  Variants of one fragment share their two-qubit
gates and their measurement/reset skeleton; they differ only in *single-qubit*
gates — wire-cut initialisation labels, measurement-basis rotations, gate-cut
instance actions and observable-term rotations.  Instead of walking every
variant through the scalar branching simulator one gate application at a time,
this module stacks a whole group into a single ``(batch, 2**n)`` complex array
and applies each gate to all batch rows at once.

**Alignment model.**  A circuit is parsed into *anchors* (two-qubit gates,
measurements, resets — :func:`variant_group_key` hashes this skeleton) and the
single-qubit *segments* between them.  Circuits group together exactly when
their anchor skeletons are equal.  Within a segment, each variant's 1q gates
form per-wire runs; the runs of all variants are merged into a common
supersequence of *slots* and padded with identity gates, so every variant's own
gates are applied in its own program order while the whole batch advances
through one shared slot program.  Slots where every variant applies the same
matrix run as a single shared gate; diverging slots run with a per-row
``(batch, 2, 2)`` matrix stack.

**Bitwise contract.**  Row ``b`` of a batched run is bit-identical to running
variant ``b`` alone through :class:`~repro.simulator.dynamic.BranchingSimulator`:
both paths share the elementwise gate kernel of
:mod:`repro.simulator.statevector` (fixed IEEE operation order per amplitude,
independent of batch shape); measurement/reset projection probabilities come
from one ``np.add.reduce(..., axis=1)`` over C-contiguous float64 ``|amp|**2``
blocks, which runs NumPy's 1-D pairwise sum on every row and so equals the
scalar ``_project``'s per-row ``np.sum`` byte for byte; branch rows are
interleaved in the scalar enumeration order (outcome 0 then 1 per parent, dead
branches dropped); and the final per-variant value is read off
``np.add.accumulate`` (strictly sequential, like the scalar left-to-right
``+=`` loop of :meth:`~repro.simulator.dynamic.BranchedResult.expectation_of_signs`)
while distributions are built by ``np.add.at`` (repeated indices applied in
row order, like the scalar ``+=`` loop).  Those three NumPy claims
are pinned by ``tests/test_batched.py::TestPinnedReductionOrders``; other axis
reductions are not bit-stable across shapes and strides (``np.add.reduceat``,
for one, sums pairwise inside each segment) and stay out of this module.
Identity padding can flip the sign of exactly-zero amplitudes, which is
invisible to every output (probabilities are ``|amp|**2``).

:func:`simulate_variant_group` can also stop before extraction and return the
live branch rows (:class:`BranchRows`): the finite-shot sampler draws from
those instead of walking each variant through the scalar simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Literal, Optional, Sequence, Tuple, Union, overload

import numpy as np

from ..circuits import Circuit
from ..circuits.gates import SINGLE_QUBIT_GATES
from ..exceptions import SimulationError
from .dynamic import _DEFAULT_PRUNE_THRESHOLD, _FLIP, SIGNED_MEASUREMENT_PREFIX
from .statevector import _apply_matrix, _validate_gate, _validate_size

__all__ = [
    "BranchRows",
    "simulate_variant_group",
    "variant_group_key",
    "branch_bound",
]

_IDENTITY_2 = np.eye(2, dtype=complex)

#: Measurement tags of this form mark an original-output qubit whose outcome
#: enters the probability-mode quasi-distribution index.
_OUTPUT_TAG_PREFIX = "out:"

#: Memoised gate matrices keyed by (name, params).  Parameterised gates rebuild
#: their matrix on every Operation.matrix() call; variants of one fragment
#: repeat the same few gates hundreds of times, so interning them here both
#: removes that cost and lets slot alignment detect shared gates by object
#: identity.  Entries are never mutated (the kernels only read coefficients).
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


# --------------------------------------------------------------------------- parsing
@dataclass
class _ParsedCircuit:
    """One circuit split into its anchor skeleton and 1q segments.

    ``anchors`` is the hashable token sequence (two-qubit gates with name,
    operands and parameters; measurements and resets with their qubit);
    ``segments`` has one entry per gap around the anchors, each a list of
    per-wire runs ``(qubit, [matrix, ...])`` in program order; ``measure_tags``
    carries each measure anchor's tag (None elsewhere) so callers can recover
    signedness and output positions per variant.
    """

    num_qubits: int
    anchors: Tuple[Tuple, ...]
    segments: List[List[Tuple[int, List[np.ndarray]]]]
    anchor_matrices: List[Optional[np.ndarray]]
    measure_tags: List[Optional[str]]


def _parse_circuit(circuit: Circuit) -> _ParsedCircuit:
    """Split ``circuit`` into anchors and aligned 1q segments (matrices hoisted).

    The result is memoised on the circuit object (variant circuits are immutable
    once built, like their fingerprints): one batch walks each circuit through
    engine grouping, executor grouping and the group simulation, and only the
    first caller pays the parse.  An operation-count guard invalidates the
    cache if a caller does mutate the circuit afterwards.
    """
    cached = getattr(circuit, "_parsed_structure", None)
    if cached is not None and cached[0] == len(circuit):
        return cached[1]
    parsed = _parse_circuit_uncached(circuit)
    try:
        circuit._parsed_structure = (len(circuit), parsed)
    except AttributeError:  # pragma: no cover - slotted/frozen circuit stand-ins
        pass
    return parsed


def _parse_circuit_uncached(circuit: Circuit) -> _ParsedCircuit:
    num_qubits = circuit.num_qubits
    _validate_size(num_qubits)
    anchors: List[Tuple] = []
    segments: List[List[Tuple[int, List[np.ndarray]]]] = []
    anchor_matrices: List[Optional[np.ndarray]] = []
    measure_tags: List[Optional[str]] = []
    segment: List[Tuple[int, List[np.ndarray]]] = []
    for op in circuit:
        if op.name in SINGLE_QUBIT_GATES:
            qubit = op.qubits[0]
            matrix = _gate_matrix(op)
            if segment and segment[-1][0] == qubit:
                segment[-1][1].append(matrix)
            else:
                segment.append((qubit, [matrix]))
            continue
        if op.is_unitary:
            anchors.append(("u2", op.name, op.qubits, op.params))
            matrix = _gate_matrix(op)
            _validate_gate(matrix, op.qubits, num_qubits)
            anchor_matrices.append(matrix)
            measure_tags.append(None)
        elif op.is_measurement:
            anchors.append(("m", op.qubits[0]))
            anchor_matrices.append(None)
            measure_tags.append(op.tag)
        elif op.is_reset:
            anchors.append(("r", op.qubits[0]))
            anchor_matrices.append(None)
            measure_tags.append(None)
        else:  # pragma: no cover - defensive, Operation validates names
            raise SimulationError(f"unsupported operation {op.name!r}")
        segments.append(segment)
        segment = []
    segments.append(segment)
    return _ParsedCircuit(num_qubits, tuple(anchors), segments, anchor_matrices, measure_tags)


def variant_group_key(circuit: Circuit) -> Tuple:
    """Hashable structure key: circuits with equal keys can share a batched pass.

    The key covers the qubit count and the anchor skeleton (two-qubit gates with
    their operands and parameters, measurement and reset positions).  It ignores
    the single-qubit gates between anchors — exactly the part that varies across
    a fragment's cut-setting variants — and the measurement tags, whose
    signedness and output bookkeeping are handled per batch row.
    """
    parsed = _parse_circuit(circuit)
    return (parsed.num_qubits, parsed.anchors)


def branch_bound(circuit: Circuit) -> int:
    """Worst-case measurement-branch count of one circuit (``2**branch points``).

    Used by the batched executor to size sub-batches.  The exponent is capped
    at 12: the true branch count is usually far below the worst case
    (deterministic outcomes prune half the tree at each measurement), and an
    uncapped bound would collapse every measurement-heavy group to batch size
    one for no real memory saving.  This makes the value a sizing estimate,
    not a hard cap — a group that genuinely fans out past ``2**12`` branches
    uses the same row memory the scalar simulator's branch list would.
    """
    points = sum(1 for op in circuit if not op.is_unitary)
    return 2 ** min(points, 12)


def _merge_supersequence(base: List[int], sequence: List[int]) -> List[int]:
    """A common supersequence of ``base`` and ``sequence`` (both orders preserved)."""
    merged: List[int] = []
    i = 0
    for item in sequence:
        while i < len(base) and base[i] != item:
            merged.append(base[i])
            i += 1
        if i < len(base):
            i += 1
        merged.append(item)
    merged.extend(base[i:])
    return merged


def _segment_steps(
    segments: Sequence[List[Tuple[int, List[np.ndarray]]]],
) -> List[Tuple[str, int, np.ndarray]]:
    """Aligned slot program for one segment across all variants.

    Returns steps ``("g", qubit, (2, 2) matrix)`` for slots where every variant
    applies the same gate, and ``("gv", qubit, (batch, 2, 2) stack)`` where they
    diverge (identity-padded).  Each variant's own gates keep their program
    order: slots form a supersequence of every variant's per-wire run sequence.
    """
    slots: List[int] = []
    for runs in segments:
        slots = _merge_supersequence(slots, [qubit for qubit, _ in runs])
    assigned: List[List[Optional[List[np.ndarray]]]] = []
    for runs in segments:
        row: List[Optional[List[np.ndarray]]] = [None] * len(slots)
        position = 0
        for qubit, matrices in runs:
            while slots[position] != qubit:
                position += 1
            row[position] = matrices
            position += 1
        assigned.append(row)
    steps: List[Tuple[str, int, np.ndarray]] = []
    for slot, qubit in enumerate(slots):
        depth = max(len(row[slot]) if row[slot] else 0 for row in assigned)
        for layer in range(depth):
            matrices = [
                row[slot][layer] if row[slot] and layer < len(row[slot]) else None
                for row in assigned
            ]
            first = next(m for m in matrices if m is not None)
            if all(
                m is not None and (m is first or np.array_equal(m, first))
                for m in matrices
            ):
                steps.append(("g", qubit, first))
            else:
                stack = np.stack(
                    [_IDENTITY_2 if m is None else m for m in matrices]
                ).astype(complex)
                steps.append(("gv", qubit, stack))
    return steps


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
    """Run a group of same-structure subcircuit variants in one batched pass.

    ``variants`` are duck-typed (``circuit``, ``mode``, ``output_qubit_order``
    attributes — canonically :class:`repro.cutting.variants.SubcircuitVariant`)
    and must share a :func:`variant_group_key`.  Returns, per variant and in
    order, ``(value, distribution)``: the sign-weighted expectation of the
    recorded measurement signs and, for ``"probability"``-mode variants, the
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
    branch_rows = _group_rows(variants, prune_threshold)
    return branch_rows if rows else _extract(branch_rows, variants)


def _group_rows(variants: Sequence, prune_threshold: float) -> BranchRows:
    """The row pass of :func:`simulate_variant_group`: evolve and branch every row."""
    parsed = [_parse_circuit(variant.circuit) for variant in variants]
    reference = parsed[0]
    for item in parsed[1:]:
        if (item.num_qubits, item.anchors) != (reference.num_qubits, reference.anchors):
            raise SimulationError(
                "simulate_variant_group requires variants sharing a "
                "variant_group_key; group requests before batching"
            )
    num_qubits = reference.num_qubits
    dim = 2**num_qubits
    batch = len(variants)

    # Per-(anchor, variant) measurement bookkeeping: sign flips and output bits.
    num_anchors = len(reference.anchors)
    signed_flags = np.zeros((num_anchors, batch), dtype=bool)
    out_positions = np.full((num_anchors, batch), -1, dtype=np.int64)
    for column, (variant, item) in enumerate(zip(variants, parsed)):
        order = {
            qubit: position
            for position, qubit in enumerate(getattr(variant, "output_qubit_order", ()))
        }
        for anchor, tag in enumerate(item.measure_tags):
            if tag is None:
                continue
            if tag.startswith(SIGNED_MEASUREMENT_PREFIX):
                signed_flags[anchor, column] = True
            elif tag.startswith(_OUTPUT_TAG_PREFIX):
                try:
                    original = int(tag[len(_OUTPUT_TAG_PREFIX) :])
                except ValueError:
                    continue
                out_positions[anchor, column] = order.get(original, -1)

    # Row state: the living branches of every variant, interleaved in scalar
    # enumeration order (variants stay contiguous and ordered throughout).
    states = np.zeros((batch, dim), dtype=complex)
    states[:, 0] = 1.0
    prob = np.ones(batch, dtype=np.float64)
    sign = np.ones(batch, dtype=np.int64)
    variant_of = np.arange(batch, dtype=np.int64)
    out_index = np.zeros(batch, dtype=np.int64)

    for anchor in range(num_anchors + 1):
        steps = _segment_steps([item.segments[anchor] for item in parsed])
        for kind, qubit, matrix in steps:
            if kind == "gv":
                matrix = matrix[variant_of]
            states = _apply_matrix(states, matrix, (qubit,), num_qubits)
        if anchor == num_anchors:
            break
        token = reference.anchors[anchor]
        if token[0] == "u2":
            states = _apply_matrix(
                states, reference.anchor_matrices[anchor], token[2], num_qubits
            )
            continue
        qubit = token[1]
        states, prob, sign, variant_of, out_index = _branch_rows(
            states,
            prob,
            sign,
            variant_of,
            out_index,
            qubit,
            num_qubits,
            prune_threshold,
            is_reset=(token[0] == "r"),
            signed=signed_flags[anchor],
            out_position=out_positions[anchor],
        )
        if not len(prob):
            # Every branch was pruned, as the scalar simulator's empty branch
            # list: nothing is left to evolve.
            break
    bounds = np.searchsorted(variant_of, np.arange(batch + 1))
    return BranchRows(prob, sign, variant_of, out_index, bounds)


def _extract(
    branch_rows: BranchRows, variants: Sequence
) -> List[Tuple[float, Optional[np.ndarray]]]:
    """Per-variant ``(value, distribution)``, accumulated as the scalar path does.

    The scalar path adds up ``sign * prob`` left to right from ``0.0`` and
    deposits each branch with ``distribution[index] += weight``.
    ``np.add.accumulate`` is strictly sequential, so its last entry is that
    total (the ``0.0 +`` supplies the zero start, which only shows for an all
    ``-0.0`` segment), and ``np.add.at`` applies repeated indices in row order.
    """
    contributions = branch_rows.sign * branch_rows.prob
    bounds = branch_rows.bounds.tolist()
    results: List[Tuple[float, Optional[np.ndarray]]] = []
    for column, variant in enumerate(variants):
        start, stop = bounds[column], bounds[column + 1]
        segment = contributions[start:stop]
        value = 0.0 + float(np.add.accumulate(segment)[-1]) if stop > start else 0.0
        distribution: Optional[np.ndarray] = None
        if getattr(variant, "mode", None) == "probability":
            distribution = np.zeros(2 ** len(variant.output_qubit_order))
            np.add.at(distribution, branch_rows.out_index[start:stop], segment)
        results.append((value, distribution))
    return results


def _branch_rows(
    states: np.ndarray,
    prob: np.ndarray,
    sign: np.ndarray,
    variant_of: np.ndarray,
    out_index: np.ndarray,
    qubit: int,
    num_qubits: int,
    prune_threshold: float,
    is_reset: bool,
    signed: np.ndarray,
    out_position: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every row on a measure/reset of ``qubit``; drop pruned branches.

    Children are interleaved ``(row 0, outcome 0), (row 0, outcome 1),
    (row 1, outcome 0), ...`` — the scalar enumeration order — so per-variant
    row blocks stay contiguous and ordered.  The per-row projection
    probability equals the scalar ``_project``'s ``np.sum`` over
    ``state[mask]`` byte for byte (see the comment below).
    """
    dim = states.shape[1]
    rows = states.shape[0]
    indices = np.arange(dim)
    mask0 = ((indices >> qubit) & 1) == 0
    mask1 = ~mask0
    # The masked halves in index order, as C-contiguous (rows, dim/2) blocks,
    # so row r of each block holds exactly the scalar ``state[mask]``.
    split = states.reshape(rows, dim // 2 ** (qubit + 1), 2, 2**qubit)
    half0 = np.ascontiguousarray(split[:, :, 0, :]).reshape(rows, dim // 2)
    half1 = np.ascontiguousarray(split[:, :, 1, :]).reshape(rows, dim // 2)
    squared0 = np.abs(half0) ** 2
    squared1 = np.abs(half1) ** 2
    # A last-axis reduce of a C-contiguous float64 block runs NumPy's 1-D
    # pairwise sum on each row: the same bytes as a per-row np.sum, without a
    # Python loop over rows.
    p0 = np.add.reduce(squared0, axis=1)  # qrcclint: disable=unstable-reduction -- pinned: a last-axis reduce of a C-contiguous float64 block equals the per-row 1-D np.sum byte for byte (tests/test_batched.py::TestPinnedReductionOrders::test_last_axis_reduce_equals_per_row_sum)
    p1 = np.add.reduce(squared1, axis=1)  # qrcclint: disable=unstable-reduction -- pinned: same block layout as p0 (tests/test_batched.py::TestPinnedReductionOrders::test_last_axis_reduce_equals_per_row_sum)
    conditional = np.stack([p0, p1], axis=1).reshape(-1)
    alive = conditional > prune_threshold
    outcome = np.tile(np.array([0, 1], dtype=np.int64), rows)[alive]
    conditional = conditional[alive]
    projected0 = np.where(mask0, states, 0.0)
    projected1 = np.where(mask1, states, 0.0)
    children = np.stack([projected0, projected1], axis=1).reshape(2 * rows, dim)[alive]
    children = children / np.sqrt(conditional)[:, np.newaxis]
    if is_reset and np.any(outcome == 1):
        flipped = outcome == 1
        children[flipped] = _apply_matrix(children[flipped], _FLIP, (qubit,), num_qubits)
    prob = np.repeat(prob, 2)[alive] * conditional
    variant_of = np.repeat(variant_of, 2)[alive]
    sign = np.repeat(sign, 2)[alive]
    out_index = np.repeat(out_index, 2)[alive]
    if not is_reset:
        flips = signed[variant_of] & (outcome == 1)
        sign = np.where(flips, -sign, sign)
        positions = out_position[variant_of]
        records = positions >= 0
        if np.any(records):
            # Scalar branches *overwrite* a re-measured outcome key (last write
            # wins), so clear the bit before depositing this measurement.
            bits = np.int64(1) << positions[records]
            cleared = out_index[records] & ~bits
            out_index[records] = cleared | (outcome[records] * bits)
    return children, prob, sign, variant_of, out_index
