"""Contraction planning and sharded reconstruction kernels.

The reconstruction contraction (Eq. 3 / Eq. 4) sums, over every wire-cut basis
assignment (and every gate-cut instance combination), a product of per-subcircuit
effective values.  Walking those loops in Python costs one scalar term at a time;
this module turns the same sum into *planned* dense tensor work:

* :func:`plan_contraction` inspects the cut structure (how many of the ``k`` wire
  cuts and ``m`` gate cuts touch each subcircuit, and each subcircuit's output
  width) and emits a :class:`ContractionPlan` — a cost model plus an execution
  schedule (shard axis, shard count, kron chunk rows),
* :func:`output_index_blocks` precomputes, once per plan, the scatter indices
  of each shard (the per-subcircuit gather indices come from the
  reconstructor's variant-table layouts), and
* the kernels (:func:`contract_probability_shard`,
  :func:`contract_expectation_terms`) evaluate the contraction with vectorized
  NumPy products in a **documented fixed reduction order** (below), so the
  planned path is bit-identical to the scalar walk (kept test-side, in
  ``tests/reference_contraction.py``, as the reference the tests and
  ``benchmarks/bench_contraction.py`` compare against),
* :class:`BinSpace` partitions the output qubits into active, merged and fixed
  ones; the reconstructor builds one contraction structure per bin space, and
  the full vector is the bin space with every qubit active.

Fixed reduction order (the bitwise contract)
--------------------------------------------

Floating-point addition is not associative, so "same sum, different order" is
not bit-identical.  The planned path therefore *never reassociates* the scalar
walk's reduction; it only vectorizes it:

1. **Products associate left, in subcircuit order.**  The per-assignment
   Kronecker product is built pairwise left-to-right over the subcircuits
   (``((v0 x v1) x v2) ...``), exactly like the scalar walk's ``np.kron`` /
   ``float * float`` chain.  Batched kron uses broadcasting
   (``(K[:, :, None] * R[:, None, :]).reshape(rows, -1)``), which performs the
   identical per-element multiplications.
2. **Sums accumulate serially, in assignment order.**  Cross-assignment (and
   cross-instance) accumulation is an explicit sequential loop — one
   element-wise ``accumulator += row`` per assignment (probability), one scalar
   ``value += contribution`` per combination (expectation) — never a pairwise
   ``np.sum``/``einsum`` tree reduction.
3. **Zero-coefficient terms may be added, never skipped differently.**  The
   scalar walk skips combinations whose coefficient is exactly ``0.0``; the
   vectorized kernels include them as ``±0.0`` contributions.  Adding ``±0.0``
   to a running sum that started at ``+0.0`` never changes its bits under IEEE
   round-to-nearest, so both paths agree bit for bit.
4. **Shards split outputs, not sums.**  Each reconstructed output element's
   assignment-sum is independent of every other element's, so sharding
   partitions *output columns* (probability) or *observable terms*
   (expectation) across workers; within a shard the order above is unchanged,
   and the merge writes disjoint slices (probability) or sums term
   contributions in term order (expectation) — no floating-point mixing across
   shards.

Cost model
----------

Per subcircuit ``S`` touched by ``c_S`` wire cuts and ``g_S`` gate cuts with
``2**w_S`` output elements, the planned path materialises a dense table of
``4**c_S * 6**g_S`` rows (each row one effective value/vector) — exponential
only in the *local* cut count, not the global one.  The fused contraction then
costs about ``4**k * prod_S 2**w_S`` multiply-adds (probability) or
``4**k * 6**m * num_subcircuits`` (expectation), with no per-term Python
interpreter constant.  The planner uses these
estimates to decide whether sharding is worth the process-pool transport at all
(:data:`MIN_SHARD_FLOPS`) and how many kron rows to batch per chunk
(:data:`CHUNK_ELEMENT_BUDGET`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ReconstructionError
from ..utils.timing import perf_clock

__all__ = [
    "CHUNK_ELEMENT_BUDGET",
    "MIN_SHARD_FLOPS",
    "BinSpace",
    "ContractionCost",
    "ContractionPlan",
    "ContractionReport",
    "ShardUtilization",
    "SpecAxis",
    "balanced_blocks",
    "contract_expectation_terms",
    "contract_probability_shard",
    "output_index_blocks",
    "plan_contraction",
]

#: Estimated interpreter cost (in flop-equivalents) of filling one row of an
#: expectation-mode value table in Python: dict building, lookups, float boxing.
PYTHON_VISIT_FLOPS = 48.0

#: Below this estimated fused-contraction cost, sharding is not worth the
#: process-pool transport and the planner keeps a single shard.
MIN_SHARD_FLOPS = float(1 << 18)

#: Target elements per kron chunk: bounds the planned path's peak temporary
#: memory (``chunk_rows * shard_width`` floats) independent of ``4**k``.
CHUNK_ELEMENT_BUDGET = 1 << 16


@dataclass(frozen=True)
class SpecAxis:
    """One subcircuit's role in the contraction, as the planner sees it.

    ``wire_positions`` / ``gate_positions`` are the indices (ascending) of the
    wire cuts / gate cuts touching this subcircuit within the solution's global
    cut lists; ``output_width`` is ``2**len(output_qubits)``.
    """

    spec_index: int
    wire_positions: Tuple[int, ...]
    gate_positions: Tuple[int, ...]
    output_width: int

    @property
    def local_assignments(self) -> int:
        """Distinct restricted wire-cut assignments this subcircuit sees."""
        return 4 ** len(self.wire_positions)

    @property
    def local_instances(self) -> int:
        """Distinct restricted gate-cut instance combinations this subcircuit sees."""
        return 6 ** len(self.gate_positions)

    @property
    def table_rows(self) -> int:
        """Rows of this subcircuit's dense effective-value table."""
        return self.local_assignments * self.local_instances


@dataclass(frozen=True)
class BinSpace:
    """A partition of the output qubits that a probability contraction bins into.

    ``active`` qubits (ascending) are materialised — bin index bit ``r``
    carries the value of ``active[r]``.  ``merged`` qubits are summed over.
    ``fixed`` pins qubits zoomed through at earlier dynamic-definition levels
    to the bit values of the bin being descended into.  The full probability
    vector is the space with every circuit qubit active and none merged.  A
    qubit listed twice (within or across the three) raises
    :class:`~repro.exceptions.ReconstructionError`.
    """

    active: Tuple[int, ...]
    merged: Tuple[int, ...]
    fixed: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        listed = Counter([*self.active, *self.merged, *(qubit for qubit, _ in self.fixed)])
        repeated = sorted(qubit for qubit, count in listed.items() if count > 1)
        if repeated:
            raise ReconstructionError(
                f"bin space lists qubit(s) {repeated} more than once across "
                f"active, merged and fixed"
            )

    @property
    def num_bins(self) -> int:
        """Bins this space materialises (``2**len(active)``)."""
        return 1 << len(self.active)


@dataclass(frozen=True)
class ContractionCost:
    """The planner's flop estimates for one contraction (see the module docstring)."""

    assignments: int
    instance_combos: int
    output_elements: int
    table_rows: int
    fused_flops: float
    per_shard_flops: float


@dataclass(frozen=True)
class ContractionPlan:
    """A planned contraction schedule: what to materialise, how to shard it.

    ``axes`` lists the subcircuits in canonical (reduction) order — the plan
    never reorders the contraction, it only schedules its execution.  For
    probability mode ``shard_axis`` names the subcircuit whose output columns
    are partitioned into ``shard_blocks`` (``(lo, hi)`` half-open column
    ranges); for expectation mode shards partition observable terms instead and
    ``shard_axis`` is ``-1`` with empty ``shard_blocks``.
    """

    kind: str
    num_wire_cuts: int
    num_gate_cuts: int
    axes: Tuple[SpecAxis, ...]
    shard_axis: int
    num_shards: int
    shard_blocks: Tuple[Tuple[int, int], ...]
    chunk_rows: int
    cost: ContractionCost


@dataclass(frozen=True)
class ShardUtilization:
    """Work done by one contraction shard: output elements (or terms) and busy time."""

    shard: int
    elements: int
    seconds: float

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "shard": self.shard,
            "elements": self.elements,
            "seconds": round(self.seconds, 6),
        }


@dataclass(frozen=True)
class ContractionReport:
    """How one reconstruction's contraction actually ran (mode, stages, shards).

    ``plan_seconds`` / ``contract_seconds`` / ``merge_seconds`` split the
    contraction wall clock into planning + index precomputation, sharded kernel
    execution (including the per-subcircuit table fill), and the deterministic
    merge.  ``shards`` carries per-shard utilization; ``serial_fallback`` is set
    when a broken worker pool forced completed shards to be salvaged and the
    rest to rerun serially (results are identical either way).
    """

    mode: str
    kind: str
    workers: int
    num_shards: int
    plan_seconds: float
    contract_seconds: float
    merge_seconds: float
    serial_fallback: bool = False
    shards: Tuple[ShardUtilization, ...] = ()
    plan: Optional[ContractionPlan] = field(default=None, repr=False)

    @property
    def seconds(self) -> float:
        """Total contraction wall clock (plan + contract + merge)."""
        return self.plan_seconds + self.contract_seconds + self.merge_seconds

    @property
    def shard_utilization(self) -> float:
        """Mean busy fraction of the shard slots over the contract stage.

        ``1.0`` means every shard slot was busy for the whole contract stage;
        lower values expose imbalance or pool overhead.  Reported alongside
        ``device_utilization`` on evaluation results.
        """
        if not self.shards or self.contract_seconds <= 0.0:
            return 1.0
        busy = sum(shard.seconds for shard in self.shards)
        return min(1.0, busy / (max(1, self.num_shards) * self.contract_seconds))

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "contraction": self.mode,
            "kind": self.kind,
            "workers": self.workers,
            "shards": self.num_shards,
            "plan_seconds": round(self.plan_seconds, 6),
            "contract_seconds": round(self.contract_seconds, 6),
            "merge_seconds": round(self.merge_seconds, 6),
            "shard_utilization": round(self.shard_utilization, 4),
            "serial_fallback": self.serial_fallback,
        }


def balanced_blocks(total: int, parts: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``range(total)`` into ``parts`` contiguous half-open blocks.

    Blocks differ in size by at most one (larger blocks first) and empty blocks
    are never produced — fewer blocks are returned when ``parts > total``.
    """
    parts = max(1, min(parts, total))
    base, remainder = divmod(total, parts)
    blocks: List[Tuple[int, int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        blocks.append((start, start + size))
        start += size
    return tuple(blocks)


def plan_contraction(
    solution: Any,
    specs: Sequence,
    workers: int = 1,
    kind: str = "probability",
    num_terms: int = 1,
    output_widths: Optional[Sequence[int]] = None,
) -> ContractionPlan:
    """Build a :class:`ContractionPlan` for ``solution``'s cut structure.

    Args:
        solution: the :class:`~repro.cutting.cuts.CutSolution` being
            reconstructed (its ``wire_cuts`` / ``gate_cuts`` order defines the
            global assignment enumeration the kernels must reproduce).
        specs: the subcircuit specs in canonical contraction order.
        workers: contraction worker budget (shards never exceed it).
        kind: ``"probability"`` or ``"expectation"``.
        num_terms: observable term count (expectation mode only; bounds the
            term-level shard count).
        output_widths: per-subcircuit output widths overriding the default
            ``2**len(spec.output_qubits)`` — a :class:`BinSpace` structure
            plans over *binned* widths (``2**active_bits`` per subcircuit) so
            the schedule, shard blocks and chunk sizes are sized for the
            reduced stacks.  When every width equals the default (every qubit
            active), the plan is identical to the unbinned one.

    Returns:
        The plan: per-subcircuit axes, the cost model, the shard schedule and
        the kron chunk size.
    """
    if kind not in ("probability", "expectation"):
        raise ValueError(f"kind must be 'probability' or 'expectation', got {kind!r}")
    if not specs:
        raise ValueError("cannot plan a contraction over zero subcircuits")
    if output_widths is not None and len(output_widths) != len(specs):
        raise ValueError(
            f"output_widths must give one width per spec "
            f"({len(specs)}), got {len(output_widths)}"
        )
    wire_position = {cut.identifier(): p for p, cut in enumerate(solution.wire_cuts)}
    gate_position = {cut.op_index: p for p, cut in enumerate(solution.gate_cuts)}
    axes: List[SpecAxis] = []
    for spec_position, spec in enumerate(specs):
        identifiers = {
            cut.identifier() for cut in list(spec.upstream_cuts) + list(spec.downstream_cuts)
        }
        gate_positions: Tuple[int, ...] = ()
        if kind == "expectation":
            gate_positions = tuple(
                sorted(gate_position[op_index] for op_index in spec.gate_cut_sides)
            )
        axes.append(
            SpecAxis(
                spec_index=spec.index,
                wire_positions=tuple(sorted(wire_position[i] for i in identifiers)),
                gate_positions=gate_positions,
                output_width=(
                    2 ** len(spec.output_qubits)
                    if output_widths is None
                    else int(output_widths[spec_position])
                ),
            )
        )

    num_wire_cuts = len(solution.wire_cuts)
    num_gate_cuts = len(solution.gate_cuts) if kind == "expectation" else 0
    assignments = 4**num_wire_cuts
    instance_combos = 6**num_gate_cuts
    combos = assignments * instance_combos
    output_elements = 1
    for axis in axes:
        output_elements *= axis.output_width
    table_rows = sum(axis.table_rows for axis in axes)

    if kind == "probability":
        fill_flops = float(sum(axis.table_rows * axis.output_width for axis in axes))
        fused_flops = 2.0 * assignments * output_elements + fill_flops
    else:
        fill_flops = float(table_rows) * PYTHON_VISIT_FLOPS
        fused_flops = float(combos) * (len(axes) + 2.0) + fill_flops

    num_shards = 1
    shard_axis = -1
    shard_blocks: Tuple[Tuple[int, int], ...] = ()
    if kind == "probability":
        widths = [axis.output_width for axis in axes]
        # Shard the earliest axis wide enough for the target shard count:
        # column-slicing axis j narrows every kron stage from j onward, while
        # the stages left of j are duplicated in every shard — so the earliest
        # feasible axis minimises the duplicated prefix work.
        target = max(1, min(workers, max(widths)))
        shard_axis = next(
            (index for index, width in enumerate(widths) if width >= target),
            int(np.argmax(widths)),
        )
        if workers > 1 and fused_flops >= MIN_SHARD_FLOPS:
            num_shards = max(1, min(workers, widths[shard_axis]))
        shard_blocks = balanced_blocks(widths[shard_axis], num_shards)
        num_shards = len(shard_blocks)
        # Peak per-shard row width bounds the kron temporaries.
        block_width = max(hi - lo for lo, hi in shard_blocks)
        shard_row_elements = max(1, (output_elements // widths[shard_axis]) * block_width)
    else:
        if workers > 1 and fused_flops >= MIN_SHARD_FLOPS:
            num_shards = max(1, min(workers, max(1, num_terms)))
        shard_row_elements = 1
    chunk_rows = max(1, min(assignments, CHUNK_ELEMENT_BUDGET // shard_row_elements))

    cost = ContractionCost(
        assignments=assignments,
        instance_combos=instance_combos,
        output_elements=output_elements,
        table_rows=table_rows,
        fused_flops=fused_flops,
        per_shard_flops=fill_flops + (fused_flops - fill_flops) / num_shards,
    )
    return ContractionPlan(
        kind=kind,
        num_wire_cuts=num_wire_cuts,
        num_gate_cuts=num_gate_cuts,
        axes=tuple(axes),
        shard_axis=shard_axis,
        num_shards=num_shards,
        shard_blocks=shard_blocks,
        chunk_rows=chunk_rows,
        cost=cost,
    )


# --------------------------------------------------------------------- index maps
def output_index_blocks(
    plan: ContractionPlan,
    output_qubit_lists: Sequence[Sequence[int]],
    num_qubits: int,
) -> List[np.ndarray]:
    """Global scatter indices for each shard's block of the combined vector.

    The combined (kron) vector's flat element ``(i_0, ..., i_{S-1})`` — built
    left-to-right over subcircuits, so subcircuit 0 varies slowest — lands at
    global basis index ``sum_s spread_s(i_s)``, where ``spread_s`` places
    subcircuit ``s``'s local bits onto its output qubits (LSB first).  The
    per-subcircuit bit sets are disjoint, so the indices within and across
    blocks are unique: the merge is a pure disjoint write, and an in-place
    fancy ``+=`` on them never aliases.
    """
    spreads: List[np.ndarray] = []
    for qubits in output_qubit_lists:
        for qubit in qubits:
            if qubit >= num_qubits:
                raise ValueError(f"output qubit {qubit} outside circuit")
        local = np.arange(2 ** len(qubits), dtype=np.int64)
        spread = np.zeros_like(local)
        for bit, qubit in enumerate(qubits):
            spread |= ((local >> bit) & 1) << qubit
        spreads.append(spread)
    blocks: List[np.ndarray] = []
    for lo, hi in plan.shard_blocks or ((0, spreads[plan.shard_axis].size),):
        parts = [
            spread if index != plan.shard_axis else spread[lo:hi]
            for index, spread in enumerate(spreads)
        ]
        combined = parts[0]
        for part in parts[1:]:
            combined = np.add.outer(combined, part).reshape(-1)
        blocks.append(combined)
    return blocks


# ------------------------------------------------------------------------ kernels
def contract_probability_shard(
    stacks: Sequence[np.ndarray],
    index_maps: Sequence[np.ndarray],
    coefficient: float,
    chunk_rows: int,
) -> Tuple[np.ndarray, float]:
    """Contract one output-column shard of the probability reconstruction.

    ``stacks[s]`` holds subcircuit ``s``'s effective distributions, one row per
    local assignment (the shard axis's stack arrives column-sliced);
    ``index_maps[s]`` maps each global assignment to its local row.  Follows
    the fixed reduction order documented in the module docstring: per
    assignment a left-associated batched kron, scaled by ``coefficient``, then
    one sequential element-wise ``+=`` per assignment in enumeration order.
    Runs inside a worker process (or in-process for serial/salvage paths) —
    everything it touches is an argument, so shards share no state.

    Returns ``(accumulator, busy_seconds)``.
    """
    start = perf_clock()
    num_assignments = index_maps[0].shape[0]
    width = 1
    for stack in stacks:
        width *= stack.shape[1]
    accumulator = np.zeros(width)
    for begin in range(0, num_assignments, max(1, chunk_rows)):
        end = min(begin + max(1, chunk_rows), num_assignments)
        rows = stacks[0][index_maps[0][begin:end]]
        for stack, index_map in zip(stacks[1:], index_maps[1:]):
            right = stack[index_map[begin:end]]
            rows = (rows[:, :, None] * right[:, None, :]).reshape(rows.shape[0], -1)
        rows = coefficient * rows
        for row in rows:
            accumulator += row
    return accumulator, perf_clock() - start


def contract_expectation_terms(
    index_maps: Sequence[np.ndarray],
    coefficients: np.ndarray,
    jobs: Sequence[Tuple[Sequence[np.ndarray], float]],
) -> Tuple[List[float], float]:
    """Evaluate a block of Pauli-term contractions against dense value tables.

    Each job is ``(tables, inactive_factor)``: per-subcircuit effective
    expectation tables (rows addressed by ``index_maps``, unfilled rows exactly
    ``0.0``) and the term's idle-qubit factor.  ``coefficients`` carries
    ``0.5**k * instance_coefficient`` per flat combination.  The running
    product goes left-to-right in subcircuit order; the final scalar
    accumulation is a sequential Python loop in flat combination order —
    bit-identical to the scalar walk (zero-coefficient combinations contribute
    ``±0.0``, which never changes the running sum's bits).

    Returns ``([term_value, ...], busy_seconds)``.
    """
    start = perf_clock()
    values: List[float] = []
    for tables, inactive_factor in jobs:
        product = tables[0][index_maps[0]]
        for table, index_map in zip(tables[1:], index_maps[1:]):
            product = product * table[index_map]
        contributions = coefficients * product
        value = 0.0
        for contribution in contributions.tolist():
            value += contribution
        values.append(value * inactive_factor)
    return values, perf_clock() - start
