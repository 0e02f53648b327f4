"""Dynamic-definition reconstruction: heavy-bin zoom for beyond-memory outputs.

Full probability reconstruction materialises the ``2**n`` output vector, so
*output width* — not device width — becomes the scaling wall long before the
subcircuits themselves are hard to execute.  Dynamic definition (CutQC's
``qubit_limit`` / ``recursion_depth`` post-processing) sidesteps it by never
asking for the full distribution:

* the output qubits are partitioned into **active** qubits (at most
  ``qubit_limit`` of them, materialised as bin indices), **merged** qubits
  (summed over — their marginal is folded into the bins) and, below the root,
  **fixed** qubits (pinned to the bit values of the bin being zoomed into),
* one *binned* contraction produces a ``2**active`` vector whose entry ``j``
  is the probability mass of the subset of basis states matching the fixed
  bits and carrying ``j``'s bits on the active qubits,
* the recursive driver scores the bins by probability mass, re-activates the
  next window of merged qubits inside the top ``zoom_fanout`` bins, and
  descends until ``recursion_depth`` levels have been spent — yielding a
  sparse set of fully-resolved heavy basis states plus a mass-coverage bound.

The binned contraction is the planned sharded contraction of
:mod:`repro.cutting.contraction` run over *reduced* per-subcircuit stacks.
Because every output qubit belongs to exactly one subcircuit, summing the
Kronecker product over a merged qubit factorises into summing the one
subcircuit stack that carries it — so each subcircuit's effective-distribution
stack (``4**c_S`` rows by ``2**w_S`` columns) is marginalised over its merged
bits, column-selected on its fixed bits, and handed to the *same*
:func:`~repro.cutting.contraction.contract_probability_shard` kernels, sharded
over :meth:`~repro.engine.ParallelEngine.map_shards`.  The full ``2**n``
vector is never formed; peak memory per recursion level is
``O(2**qubit_limit)`` plus the (tiny) per-subcircuit stacks.

**Bit-identity in the full-width case.**  The structure of every bin space
(plan, index maps, scatter blocks, stack reductions) comes from
``CutStructure.contraction``, and the full-vector contraction is the bin space
with every qubit active.  When every output qubit is active
(``qubit_limit >= num_output_qubits``) each stack passes through untouched and
the kernels produce the full-vector accumulators bit for bit.
``benchmarks/bench_dynamic.py`` gates this in CI.

**Streaming.**  Each recursion level can consume the streaming CI machinery:
given the session's per-round chunk history, the driver folds per-chunk binned
contractions through :class:`~repro.service.StreamingMoments` and reports a
per-level confidence half-width next to the zoom decision it annotates.  Bin
*selection* stays a function of the cumulative point estimate only, so a
streaming run-to-completion dynamic-definition result is identical to the
batch one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ReconstructionError
from ..utils.timing import perf_clock
from .contraction import (
    BinSpace,
    ContractionReport,
    ShardUtilization,
    contract_probability_shard,
)
from .reconstruction import GATE_CUT_MESSAGE

__all__ = [
    "BinSpace",
    "DynamicDefinitionPlan",
    "DynamicDefinitionResult",
    "HeavyBin",
    "LevelReport",
    "MASS_COVERAGE_SLACK",
    "binned_probabilities",
    "plan_dynamic_definition",
    "reconstruct_dynamic",
]

#: Floating-point cushion subtracted from the resolved-mass sum so the reported
#: ``covered_mass`` provably lower-bounds the true captured mass under exact
#: executors: the contraction's accumulated rounding is orders of magnitude
#: below this for any workload the library can evaluate.
MASS_COVERAGE_SLACK = 1e-9

#: ``as_dense`` refuses to materialise more elements than this — asking for a
#: dense vector wider than ~2**26 defeats the point of dynamic definition.
_DENSE_ELEMENT_LIMIT = 1 << 26


@dataclass(frozen=True)
class DynamicDefinitionPlan:
    """The recursion schedule for one dynamic-definition reconstruction.

    ``windows`` lists the output qubits in activation order, chunked into
    ascending groups of at most ``qubit_limit``: level ``L`` activates
    ``windows[L]``, pins the qubits of windows ``0..L-1`` to the zoomed bin's
    bits, and merges the rest.  A basis state is fully resolved after
    ``len(windows)`` levels, so ``recursion_depth < len(windows)`` explores
    coarse mass only and resolves nothing.
    """

    qubit_limit: int
    recursion_depth: int
    zoom_fanout: int
    output_qubits: Tuple[int, ...]
    windows: Tuple[Tuple[int, ...], ...]

    @property
    def num_output_qubits(self) -> int:
        """Output qubits across all subcircuits."""
        return len(self.output_qubits)

    @property
    def levels_to_resolve(self) -> int:
        """Recursion levels needed to pin every output qubit (``len(windows)``)."""
        return len(self.windows)

    def space(self, level: int, fixed: Tuple[Tuple[int, int], ...]) -> BinSpace:
        """The :class:`BinSpace` of recursion level ``level`` under ``fixed`` bits."""
        merged: List[int] = []
        for window in self.windows[level + 1 :]:
            merged.extend(window)
        return BinSpace(active=self.windows[level], merged=tuple(merged), fixed=fixed)


def plan_dynamic_definition(
    solution: Any,
    specs: Sequence,
    qubit_limit: int,
    recursion_depth: Optional[int] = None,
    zoom_fanout: int = 2,
) -> DynamicDefinitionPlan:
    """Build a :class:`DynamicDefinitionPlan` for ``solution``'s output qubits.

    Args:
        solution: the wire-cut-only :class:`~repro.cutting.cuts.CutSolution`
            being reconstructed (gate cuts are rejected — binned probability
            mode inherits the probability path's wire-cut-only contract).
        specs: the subcircuit specs in canonical contraction order.
        qubit_limit: maximum active (materialised) qubits per level; peak bin
            storage per level is ``2**qubit_limit`` floats.
        recursion_depth: recursion levels to spend; ``None`` (default) spends
            exactly enough to fully resolve every zoomed path
            (``ceil(num_output_qubits / qubit_limit)``).
        zoom_fanout: bins descended into per level (the top-``zoom_fanout``
            by probability mass; empty and negative bins are never descended
            into).

    Returns:
        The plan (activation windows plus the knobs above).
    """
    if solution.gate_cuts:
        raise ReconstructionError(GATE_CUT_MESSAGE)
    if qubit_limit < 1:
        raise ReconstructionError(f"qubit_limit must be >= 1, got {qubit_limit}")
    if zoom_fanout < 1:
        raise ReconstructionError(f"zoom_fanout must be >= 1, got {zoom_fanout}")
    output_qubits: List[int] = sorted({q for spec in specs for q in spec.output_qubits})
    if not output_qubits:
        raise ReconstructionError("no subcircuit outputs anything; nothing to bin")
    windows = tuple(
        tuple(output_qubits[start : start + qubit_limit])
        for start in range(0, len(output_qubits), qubit_limit)
    )
    if recursion_depth is None:
        recursion_depth = len(windows)
    if recursion_depth < 1:
        raise ReconstructionError(f"recursion_depth must be >= 1, got {recursion_depth}")
    return DynamicDefinitionPlan(
        qubit_limit=qubit_limit,
        recursion_depth=recursion_depth,
        zoom_fanout=zoom_fanout,
        output_qubits=tuple(output_qubits),
        windows=windows,
    )


@dataclass(frozen=True)
class HeavyBin:
    """One fully-resolved basis state of the sparse heavy-bin distribution."""

    index: int
    bitstring: str
    probability: float

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "index": self.index,
            "bitstring": self.bitstring,
            "probability": self.probability,
        }


@dataclass(frozen=True)
class LevelReport:
    """What one visited recursion node saw and decided.

    ``explored_mass`` is the total mass of the bins descended into (or, at a
    resolved leaf, of the bins recorded); ``dropped_mass`` is the positive
    mass left behind at this node.  ``half_width`` is the widest per-bin
    streaming confidence half-width at this node (``None`` without a chunk
    history — batch reconstructions have no variance information).
    """

    level: int
    fixed: Tuple[Tuple[int, int], ...]
    num_bins: int
    explored_mass: float
    dropped_mass: float
    half_width: Optional[float] = None

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "level": self.level,
            "fixed_qubits": len(self.fixed),
            "num_bins": self.num_bins,
            "explored_mass": round(self.explored_mass, 9),
            "dropped_mass": round(self.dropped_mass, 9),
            "half_width": None if self.half_width is None else round(self.half_width, 9),
        }


@dataclass(frozen=True)
class DynamicDefinitionResult:
    """A sparse heavy-bin reconstruction with its a-priori mass-coverage bound.

    ``bins`` holds the fully-resolved basis states (descending probability,
    ties by index) discovered within the recursion budget; ``covered_mass``
    lower-bounds the true probability mass those states carry (see
    :data:`MASS_COVERAGE_SLACK`; under finite-shot tables the bound is itself
    a statistical estimate).  ``root_binned`` is the level-0 binned
    distribution over ``root_active``; ``peak_bin_elements`` is the largest
    bin vector any level materialised — the memory bound the bench asserts.
    """

    num_qubits: int
    num_output_qubits: int
    qubit_limit: int
    recursion_depth: int
    zoom_fanout: int
    bins: Tuple[HeavyBin, ...]
    covered_mass: float
    root_binned: np.ndarray = field(repr=False)
    root_active: Tuple[int, ...]
    levels: Tuple[LevelReport, ...] = field(repr=False)
    num_contractions: int
    num_chunk_contractions: int
    peak_bin_elements: int

    def probability(self, index: int) -> float:
        """Resolved probability of basis state ``index`` (``0.0`` if unresolved)."""
        for heavy in self.bins:
            if heavy.index == index:
                return heavy.probability
        return 0.0

    def as_dense(self, num_qubits: Optional[int] = None) -> np.ndarray:
        """Scatter the resolved bins into a dense ``2**num_qubits`` vector.

        Only sensible for small circuits (identity checks, tests); refuses to
        materialise more than ``2**26`` elements — for wide outputs the sparse
        ``bins`` view is the result.
        """
        if num_qubits is None:
            num_qubits = self.num_qubits
        if (1 << num_qubits) > _DENSE_ELEMENT_LIMIT:
            raise ReconstructionError(
                f"as_dense would materialise 2**{num_qubits} elements; use the "
                f"sparse bins instead"
            )
        dense = np.zeros(1 << num_qubits)
        for heavy in self.bins:
            dense[heavy.index] = heavy.probability
        return dense

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables and result serialisation."""
        return {
            "num_qubits": self.num_qubits,
            "num_output_qubits": self.num_output_qubits,
            "qubit_limit": self.qubit_limit,
            "recursion_depth": self.recursion_depth,
            "zoom_fanout": self.zoom_fanout,
            "num_resolved_bins": len(self.bins),
            "covered_mass": self.covered_mass,
            "num_contractions": self.num_contractions,
            "num_chunk_contractions": self.num_chunk_contractions,
            "peak_bin_elements": self.peak_bin_elements,
            "bins": [heavy.row() for heavy in self.bins],
            "levels": [report.row() for report in self.levels],
        }


def binned_probabilities(
    reconstructor: Any,
    space: BinSpace,
    table: Any = None,
    missing: str = "execute",
    stacks: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Contract directly into ``space``'s binned distribution (never ``2**n``).

    Runs the planned sharded probability contraction over reduced stacks,
    with the structure its cut structure keeps per bin space (the full
    vector's, when every qubit is active and none merged).  Shards are
    dispatched over :meth:`~repro.engine.ParallelEngine.map_shards` and the
    run is recorded on ``reconstructor.last_contraction_report`` with mode
    ``"dynamic"``.

    Args:
        reconstructor: the :class:`~repro.cutting.CutReconstructor` to
            contract through (wire cuts only).
        space: the :class:`~repro.cutting.contraction.BinSpace` to bin into.
        table: results for the enumerated batch; required unless ``stacks``
            is given.
        missing: the table-miss mode, as for
            :meth:`~repro.cutting.CutReconstructor.reconstruct_probabilities`.
        stacks: per-subcircuit stacks from a previous call over the same
            ``table``; skips rebuilding them.

    Returns:
        A ``space.num_bins`` vector whose entry ``j`` is the (quasi-)
        probability mass of the basis states matching ``space.fixed`` whose
        active qubits spell ``j``.
    """
    if reconstructor.solution.gate_cuts:
        raise ReconstructionError(GATE_CUT_MESSAGE)
    plan_start = perf_clock()
    workers = reconstructor.engine.workers
    structure = reconstructor.structure.contraction(workers, space)
    plan = structure.plan
    plan_seconds = perf_clock() - plan_start

    contract_start = perf_clock()
    if stacks is None:
        if table is None:
            raise ReconstructionError("binned_probabilities needs a table or prebuilt stacks")
        stacks = reconstructor._value_stacks("probability", None, table, missing, {})
    fixed_values = {qubit: bit for qubit, bit in space.fixed}
    reduced = [
        reduction.reduce(stack, fixed_values)
        for stack, reduction in zip(stacks, structure.reductions)
    ]
    coefficient = 0.5 ** len(reconstructor.solution.wire_cuts)
    tasks = []
    for lo, hi in plan.shard_blocks:
        shard_stacks = [
            stack if index != plan.shard_axis else np.ascontiguousarray(stack[:, lo:hi])
            for index, stack in enumerate(reduced)
        ]
        tasks.append((shard_stacks, structure.index_maps, coefficient, plan.chunk_rows))
    outputs, fell_back = reconstructor.engine.map_shards(contract_probability_shard, tasks)
    contract_seconds = perf_clock() - contract_start

    merge_start = perf_clock()
    binned = np.zeros(space.num_bins)
    utilization = []
    for shard, (indices, (accumulator, seconds)) in enumerate(
        zip(structure.blocks, outputs)
    ):
        binned[indices] = accumulator
        utilization.append(
            ShardUtilization(shard=shard, elements=int(indices.size), seconds=seconds)
        )
    merge_seconds = perf_clock() - merge_start
    reconstructor.last_contraction_report = ContractionReport(
        mode="dynamic",
        kind="probability",
        workers=workers,
        num_shards=plan.num_shards,
        plan_seconds=plan_seconds,
        contract_seconds=contract_seconds,
        merge_seconds=merge_seconds,
        serial_fallback=fell_back,
        shards=tuple(utilization),
        plan=plan,
    )
    return binned


def _combined_report(reports: Sequence[ContractionReport]) -> ContractionReport:
    """One report for a whole zoom: every binned contraction, chunk replays included.

    Stage seconds add up, ``shards`` lists every call's shards in call order,
    ``serial_fallback`` is set if any call fell back, and ``num_shards`` is
    the widest call's shard count (the slots each contract stage ran over).
    The plan is the root level's.
    """
    return replace(
        reports[0],
        num_shards=max(report.num_shards for report in reports),
        plan_seconds=sum(report.plan_seconds for report in reports),
        contract_seconds=sum(report.contract_seconds for report in reports),
        merge_seconds=sum(report.merge_seconds for report in reports),
        serial_fallback=any(report.serial_fallback for report in reports),
        shards=tuple(shard for report in reports for shard in report.shards),
    )


def reconstruct_dynamic(
    reconstructor: Any,
    plan: DynamicDefinitionPlan,
    table: Any = None,
    missing: str = "execute",
    chunk_history: Optional[Sequence[Tuple[Mapping, float]]] = None,
    z_value: float = 1.96,
) -> DynamicDefinitionResult:
    """Run the recursive heavy-bin zoom and return the sparse distribution.

    Level 0 bins the first activation window; each visited node descends into
    its top ``plan.zoom_fanout`` bins by mass (skipping empty and negative
    bins) with those bins' bits pinned, until
    ``plan.recursion_depth`` levels are spent.  Nodes whose merged set is
    empty resolve their bins into concrete basis states.  ``chunk_history``
    (``(chunk_table, weight)`` pairs from a streaming session) additionally
    folds per-chunk binned contractions through the streaming moments
    machinery, annotating every level with a confidence half-width — selection
    itself stays a function of the cumulative estimate, so streaming
    run-to-completion results equal batch results.  This is the one
    dynamic-definition entry point.  When it returns,
    ``reconstructor.last_contraction_report`` holds a single report covering
    every binned contraction it ran, chunk replays included.

    Args:
        reconstructor: the :class:`~repro.cutting.CutReconstructor` to
            contract through (wire cuts only).
        plan: the recursion schedule from :func:`plan_dynamic_definition`.
        table: results for the enumerated batch; enumerated and executed here
            when omitted.
        missing: the table-miss mode (``"skip"`` composes with pruning).
        chunk_history: optional streaming chunk tables with their shot weights.
        z_value: normal quantile for the per-level half-widths.

    Returns:
        The :class:`DynamicDefinitionResult`.
    """
    if reconstructor.solution.gate_cuts:
        raise ReconstructionError(GATE_CUT_MESSAGE)
    if table is None:
        table = reconstructor.engine.run_batch(reconstructor.enumerate_probability_requests())
    stacks = reconstructor._value_stacks("probability", None, table, missing, {})
    chunk_stacks: List[Tuple[List[np.ndarray], float]] = [
        (reconstructor._value_stacks("probability", None, chunk, missing, {}), float(weight))
        for chunk, weight in chunk_history or ()
    ]

    resolved: Dict[int, float] = {}
    levels: List[LevelReport] = []
    reports: List[ContractionReport] = []
    state = {"contractions": 0, "chunk_contractions": 0, "peak": 0}
    root_binned: Optional[np.ndarray] = None

    def visit(level: int, fixed: Tuple[Tuple[int, int], ...]) -> None:
        nonlocal root_binned
        space = plan.space(level, fixed)
        binned = binned_probabilities(reconstructor, space, stacks=stacks, missing=missing)
        reports.append(reconstructor.last_contraction_report)
        state["contractions"] += 1
        state["peak"] = max(state["peak"], int(binned.size))
        if level == 0:
            root_binned = binned
        half_width: Optional[float] = None
        if chunk_stacks:
            # Lazy import: repro.service layers above cutting; the moments
            # accumulator is the only piece the zoom consumes.
            from ..service.incremental import StreamingMoments

            moments = StreamingMoments()
            for one_chunk_stacks, weight in chunk_stacks:
                estimate = binned_probabilities(
                    reconstructor, space, stacks=one_chunk_stacks, missing=missing
                )
                reports.append(reconstructor.last_contraction_report)
                state["chunk_contractions"] += 1
                moments.add(estimate, weight=weight)
            half_width = moments.half_width(z_value)

        if not space.merged:
            # Resolved leaf: every bin is a concrete basis state.  Python-int
            # bit spreading keeps indices exact for arbitrarily wide circuits.
            offset = 0
            for qubit, bit in space.fixed:
                offset |= int(bit) << qubit
            explored = 0.0
            for j in np.nonzero(binned)[0]:
                index = offset
                for rank, qubit in enumerate(space.active):
                    index |= ((int(j) >> rank) & 1) << qubit
                resolved[index] = float(binned[j])
                explored += float(binned[j])
            levels.append(
                LevelReport(
                    level=level,
                    fixed=fixed,
                    num_bins=int(binned.size),
                    explored_mass=explored,
                    dropped_mass=0.0,
                    half_width=half_width,
                )
            )
            return

        order = np.argsort(-binned, kind="stable")
        selected: List[int] = []
        if level + 1 < plan.recursion_depth:
            for j in order:
                if len(selected) >= plan.zoom_fanout:
                    break
                if float(binned[j]) <= 0.0:
                    break  # sorted descending: nothing heavier remains
                selected.append(int(j))
        explored = float(sum(binned[j] for j in selected))
        dropped = float(np.sum(np.maximum(binned, 0.0))) - float(
            sum(max(0.0, float(binned[j])) for j in selected)
        )
        levels.append(
            LevelReport(
                level=level,
                fixed=fixed,
                num_bins=int(binned.size),
                explored_mass=explored,
                dropped_mass=max(0.0, dropped),
                half_width=half_width,
            )
        )
        for j in selected:
            bin_bits = tuple(
                (qubit, (j >> rank) & 1) for rank, qubit in enumerate(space.active)
            )
            visit(level + 1, fixed + bin_bits)

    visit(0, ())
    reconstructor.last_contraction_report = _combined_report(reports)

    heavy = tuple(
        HeavyBin(
            index=index,
            bitstring=format(index, f"0{reconstructor.solution.circuit.num_qubits}b"),
            probability=probability,
        )
        for index, probability in sorted(resolved.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    raw_mass = float(sum(resolved.values()))
    covered_mass = max(0.0, min(1.0, raw_mass) - MASS_COVERAGE_SLACK)
    return DynamicDefinitionResult(
        num_qubits=reconstructor.solution.circuit.num_qubits,
        num_output_qubits=plan.num_output_qubits,
        qubit_limit=plan.qubit_limit,
        recursion_depth=plan.recursion_depth,
        zoom_fanout=plan.zoom_fanout,
        bins=heavy,
        covered_mass=covered_mass,
        root_binned=root_binned,
        root_active=plan.windows[0],
        levels=tuple(levels),
        num_contractions=state["contractions"],
        num_chunk_contractions=state["chunk_contractions"],
        peak_bin_elements=state["peak"],
    )
