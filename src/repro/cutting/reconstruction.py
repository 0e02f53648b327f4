"""Classical post-processing: recombining subcircuit results into the original result.

Two reconstruction modes mirror Section 4.3 of the paper:

* **probability vectors** (wire cuts only): for every assignment of a Pauli basis to
  every cut, the upstream subcircuit contributes a sign-weighted distribution and the
  downstream subcircuit contributes an eigenstate-decomposition-weighted
  distribution; the Kronecker product of the per-subcircuit vectors, summed over all
  ``4^k`` assignments with a ``1/2`` factor per cut, is the original distribution
  (Eq. 3),
* **expectation values** (wire + gate cuts): the same contraction evaluated per
  Pauli term of the observable, with every gate cut additionally summed over its six
  Mitarai–Fujii instances weighted by the instance coefficients (Eq. 4 / 19).

Reconstruction is **two-phase**, around one *variant table* per (subcircuit, mode,
restricted Pauli term) (:class:`~repro.cutting.variants.VariantTable`): a row for
every measurement basis of the subcircuit's measured cuts, init label of its
initialised cuts and nonzero-coefficient instance of its gate cuts, in
mixed-radix row order.  A row is a handle holding one choice index per cut end,
not a built circuit.  Phase one *enumerates*: the contraction loops are walked
with integer local keys into the tables, and every key's Eq. 3 terms (the rows
its decomposition reads) are read the first time the walk reaches the key.
The walk returns a :class:`~repro.engine.RequestBatch`: each row read, once,
in order of first read, with an integer array of read counts, whose total is
what the engine counts as requests.  The batch goes to the execution engine
(:mod:`repro.engine`), which dedups it by fingerprint (each table hashes its
rows at once, :attr:`~repro.cutting.variants.VariantTable.fingerprints`),
satisfies repeats from the shared cache and runs the unique requests,
serially or across a worker pool.  Phase two *contracts*: each
table's results are gathered into one dense array, Eq. 3's basis change turns
every initialised cut's four label slices into its four basis slices, and the
contraction reads those stacks — no executor calls happen inside it.  The
exponential cost is ``4^k * 6^m`` scalar work plus ``sum_S 4^(c_S) * 6^(g_S)``
subcircuit evaluations per restricted Pauli term, for the ``c_S`` wire and
``g_S`` gate cuts touching ``S``: evaluations add up over the subcircuits, they
do not multiply.

Each mode has one contraction: the planned, sharded kernels of
:mod:`repro.cutting.contraction`.  What no angle can change lives on the cut
decision's :class:`CutStructure`: specs, table layouts and contraction
structures (plan, index maps and, per
:class:`~repro.cutting.contraction.BinSpace`, scatter blocks and stack
reductions).  The full vector is the bin space with every qubit active, and
dynamic definition's binned contractions read the same structures.  The
scalar walk the kernels are pinned against bit for bit lives test-side, in
``tests/reference_contraction.py``.

Between the two phases an optional *pruning* pass (:mod:`repro.engine.pruning`)
may drop small-|contraction-weight| requests; phase two then contracts over the
resulting *partial* table with ``missing="skip"`` — an absent variant contributes
exactly zero, and the induced bias is bounded a priori by the pruning report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits import Circuit
from ..engine import ParallelEngine, RequestBatch, VariantResult, request_key
from ..exceptions import ReconstructionError
from ..utils.pauli import PauliObservable, PauliString
from ..utils.timing import perf_clock
from .contraction import (
    BinSpace,
    ContractionPlan,
    ContractionReport,
    ShardUtilization,
    balanced_blocks,
    contract_expectation_terms,
    contract_probability_shard,
    output_index_blocks,
    plan_contraction,
)
from .cuts import CutSolution
from .fragments import SubcircuitSpec, extract_subcircuits
from .gate_cut import decompose_gate_cut
from .variants import (
    WIRE_CUT_INIT_LABELS,
    WIRE_CUT_MEASUREMENT_BASES,
    SubcircuitVariant,
    VariantBuilder,
    VariantTable,
)

__all__ = ["INIT_STATE_DECOMPOSITION", "CutReconstructor"]

#: Why probability-mode reconstruction refuses a solution with gate cuts.
GATE_CUT_MESSAGE = (
    "probability vectors cannot be reconstructed after gate cutting; "
    "gate cuts only support expectation values (Section 2.3.2)"
)

#: Decomposition of each measurement-basis operator into initialisation eigenstates:
#: ``P = sum_s coefficient(s) |s><s|`` (the downstream half of Eq. 3).
INIT_STATE_DECOMPOSITION: Dict[str, Tuple[Tuple[str, float], ...]] = {  # qrcclint: disable=mutable-default-arg -- read-only constant table (tuple values), never written after import
    "I": (("zero", 1.0), ("one", 1.0)),
    "Z": (("zero", 1.0), ("one", -1.0)),
    "X": (("plus", 2.0), ("zero", -1.0), ("one", -1.0)),
    "Y": (("plus_i", 2.0), ("zero", -1.0), ("one", -1.0)),
}


@dataclass(frozen=True)
class _TableLayout:
    """Value-independent row structure of one subcircuit's variant tables in one mode.

    Table axes, most significant first: a basis per measured cut
    (``spec.upstream_cuts`` order), an init label per initialised cut
    (``spec.downstream_cuts`` order) and a nonzero-coefficient instance per
    hosted gate cut (solution order; ``instances`` lists their numbers).
    ``axes`` names each axis as a ``(VariantSettings field, key)`` and
    ``choices`` holds every row's choice index per axis, the input of
    :meth:`~repro.cutting.variants.VariantBuilder.table`.  ``order`` permutes
    those axes into the contraction plan's layout (wire cuts
    by solution position, then gate cuts).  A *local key* is a row of that
    layout, with six instances per gate cut: ``keys`` maps every global
    combination to one, and key ``q``'s Eq. 3 terms are ``rows``/``weights``
    over ``starts[q]:starts[q + 1]``.
    """

    shape: Tuple[int, ...]
    axes: Tuple[Tuple[str, object], ...]
    choices: np.ndarray
    instances: Tuple[Tuple[int, ...], ...]
    order: Tuple[int, ...]
    keys: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class _SpecReduction:
    """How one subcircuit's stack folds into a bin space (value-independent)."""

    passthrough: bool
    num_merged: int
    fixed_bits: Tuple[Tuple[int, int], ...]  # (local bit, original qubit)
    base_cols: np.ndarray = field(repr=False)  # (2**active, 2**merged) column gather
    bin_positions: Tuple[int, ...]  # bin-index bit of each local active bit

    def reduce(self, stack: np.ndarray, fixed_values: Mapping[int, int]) -> np.ndarray:
        """Marginalise ``stack`` over its merged bits and select its fixed bits.

        The passthrough case returns the stack object untouched — no gather, no
        arithmetic — which is what makes an all-active contraction bit-identical
        to the full-vector one.  With merged bits the per-column sum is exact
        marginalisation; with only fixed bits it is a pure gather.
        """
        if self.passthrough:
            return stack
        offset = 0
        for bit, qubit in self.fixed_bits:
            offset += int(fixed_values[qubit]) << bit
        cols = self.base_cols + offset
        if self.num_merged:
            return stack[:, cols].sum(axis=2)  # qrcclint: disable=unstable-reduction -- merged-bit marginalisation over a fixed (rows, bins, merged) gather: shape and stride are identical for every call with this plan, so the reduction order is pinned
        return np.ascontiguousarray(stack[:, cols[:, 0]])


class _Walk:
    """Phase-one state shared by every term of one enumeration call.

    Rows have walk-wide ids (``offset``); ``reads`` lists every read's id.
    """

    def __init__(self, weights: Optional[Dict[str, float]]) -> None:
        self.weights = weights
        self.scheduled: Dict[Tuple, np.ndarray] = {}
        self.reads: List[np.ndarray] = []
        self.ids: List[np.ndarray] = []
        self.values: List[np.ndarray] = []
        self._offsets: Dict[Tuple, int] = {}
        self._tables: List[VariantTable] = []
        self._rows = 0

    def offset(self, table_key: Tuple, table: VariantTable) -> int:
        """First id of a table's rows in this walk."""
        if table_key not in self._offsets:
            self._offsets[table_key] = self._rows
            self._tables.append(table)
            self._rows += len(table)
        return self._offsets[table_key]

    def finish(self) -> RequestBatch:
        """Fold the accumulated weights into ``weights`` and return the batch.

        Weight sums run per fingerprint in walk order (``np.add.at`` is
        sequential), and new fingerprints enter the dict in order of first visit.
        """
        variants = [variant for table in self._tables for variant in table.variants]
        if self.weights is not None and self.ids:
            ids = np.concatenate(self.ids)
            unique, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
            fingerprints = [variants[i].fingerprint for i in unique.tolist()]
            totals = np.array([self.weights.get(fp, 0.0) for fp in fingerprints])
            np.add.at(totals, inverse, np.concatenate(self.values))
            totals_list = totals.tolist()
            for j in np.argsort(first, kind="stable").tolist():
                self.weights[fingerprints[j]] = totals_list[j]
        reads = np.concatenate(self.reads) if self.reads else np.zeros(0, dtype=np.int64)
        first_read = np.full(self._rows, reads.size)
        np.minimum.at(first_read, reads, np.arange(reads.size))
        read = np.flatnonzero(first_read < reads.size)
        order = read[np.argsort(first_read[read])]
        counts = np.bincount(reads, minlength=self._rows)[order]
        return RequestBatch([variants[i] for i in order.tolist()], counts)


def _slices(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start[i], start[i] + length[i])`` over ``i``."""
    return np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())


@dataclass(frozen=True)
class _Contraction:
    """One planned contraction's value-independent state; probability entries
    add each shard's scatter indices and each subcircuit's stack reduction."""

    plan: ContractionPlan
    index_maps: List[np.ndarray]
    blocks: List[np.ndarray] = field(default_factory=list)
    reductions: List[_SpecReduction] = field(default_factory=list)


class CutStructure:
    """Everything about one cut decision that no rotation angle can change.

    Args:
        solution: a solution carrying the decision; its circuit is not kept.
        specs: the decision's subcircuit specs, in contraction order.

    Holds the decision, its ``specs``, the qubits they output
    (``covered_qubits``) and a memo of table layouts and contraction
    structures, each built on first use by a deterministic function of its
    key.  :func:`~repro.core.cut_circuit` keeps one per cached decision.
    Gate-cut coefficients carry angles and stay on the reconstructor with its
    tables, stacks and programs; a layout's key holds its nonzero instances.
    """

    def __init__(self, solution: CutSolution, specs: Sequence[SubcircuitSpec]) -> None:
        self.op_subcircuit = dict(solution.op_subcircuit)
        self.wire_cuts = tuple(solution.wire_cuts)
        self.gate_cuts = tuple(solution.gate_cuts)
        self.gate_cut_placement = dict(solution.gate_cut_placement)
        self.metadata = dict(solution.metadata)
        self.specs: List[SubcircuitSpec] = list(specs)
        self.covered_qubits = frozenset(q for spec in self.specs for q in spec.output_qubits)
        # Concurrent readers may build an entry twice; setdefault keeps the first.
        self._memo: Dict[Tuple, Any] = {}  # qrcclint: disable=mutable-default-arg -- deliberate memo shared through the plan cache: entries are deterministic functions of their key and the angle-free decision, never mutated once stored, bounded per structure by its specs, bin spaces and term counts, and in number by PLAN_CACHE_SIZE

    def solution_over(self, padded: Circuit) -> CutSolution:
        """The decision applied to ``padded`` (fresh containers, validated)."""
        solution = CutSolution(
            circuit=padded,
            op_subcircuit=dict(self.op_subcircuit),
            wire_cuts=list(self.wire_cuts),
            gate_cuts=list(self.gate_cuts),
            gate_cut_placement=dict(self.gate_cut_placement),
            metadata=dict(self.metadata),
        )
        solution.validate()
        return solution

    def _memoised(self, key: Tuple, build: Callable[[], Any]) -> Any:
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo.setdefault(key, build())
        return entry

    def contraction(
        self, workers: int, space: Optional[BinSpace] = None, num_terms: int = 1
    ) -> _Contraction:
        """The contraction structure for at most ``workers`` shards, into the bin
        ``space`` (probability) or over ``num_terms`` terms (expectation).  It depends
        on ``space``'s qubit partition, not its fixed bit values."""
        if space is None:
            return self._memoised(
                ("expectation", workers, num_terms),
                lambda: _Contraction(
                    plan=plan_contraction(
                        self, self.specs, workers=workers, kind="expectation", num_terms=num_terms
                    ),
                    index_maps=[self._local_keys(spec, "expectation") for spec in self.specs],
                ),
            )
        fixed = tuple(qubit for qubit, _ in space.fixed)
        key = ("probability", workers, space.active, space.merged, fixed)
        return self._memoised(key, lambda: self._binned(space, workers))

    def _binned(self, space: BinSpace, workers: int) -> _Contraction:
        active_rank = {qubit: rank for rank, qubit in enumerate(space.active)}
        merged_set = set(space.merged)
        fixed_set = {qubit for qubit, _ in space.fixed}
        reductions: List[_SpecReduction] = []
        widths: List[int] = []
        for spec in self.specs:
            spec_active = [(b, q) for b, q in enumerate(spec.output_qubits) if q in active_rank]
            spec_merged = [b for b, q in enumerate(spec.output_qubits) if q in merged_set]
            spec_fixed = [(b, q) for b, q in enumerate(spec.output_qubits) if q in fixed_set]
            missing = [
                q
                for q in spec.output_qubits
                if q not in active_rank and q not in merged_set and q not in fixed_set
            ]
            if missing:
                raise ReconstructionError(
                    f"bin space does not cover output qubit(s) {missing} of "
                    f"subcircuit {spec.index}"
                )
            num_active = len(spec_active)
            num_merged = len(spec_merged)
            local = np.arange(1 << num_active, dtype=np.int64)
            cols_active = np.zeros_like(local)
            for position, (bit, _) in enumerate(spec_active):
                cols_active |= ((local >> position) & 1) << bit
            merged_index = np.arange(1 << num_merged, dtype=np.int64)
            cols_merged = np.zeros_like(merged_index)
            for position, bit in enumerate(spec_merged):
                cols_merged |= ((merged_index >> position) & 1) << bit
            reductions.append(
                _SpecReduction(
                    passthrough=(num_merged == 0 and not spec_fixed),
                    num_merged=num_merged,
                    fixed_bits=tuple(spec_fixed),
                    base_cols=cols_active[:, None] + cols_merged[None, :],
                    bin_positions=tuple(active_rank[q] for _, q in spec_active),
                )
            )
            widths.append(1 << num_active)
        plan = plan_contraction(
            self, self.specs, workers=workers, kind="probability", output_widths=widths
        )
        return _Contraction(
            plan=plan,
            index_maps=[self._local_keys(spec, "probability") for spec in self.specs],
            blocks=output_index_blocks(
                plan,
                [list(reduction.bin_positions) for reduction in reductions],
                len(space.active),
            ),
            reductions=reductions,
        )

    def _positions(self, spec: SubcircuitSpec, mode: str) -> Tuple[List[int], List[int], List[int]]:
        """Solution positions of ``spec``'s measured, initialised and gate cuts."""
        position = {cut.identifier(): p for p, cut in enumerate(self.wire_cuts)}
        measured = [position[cut.identifier()] for cut in spec.upstream_cuts]
        initialised = [position[cut.identifier()] for cut in spec.downstream_cuts]
        gates: List[int] = []
        if mode == "expectation":
            gates = [
                p for p, cut in enumerate(self.gate_cuts) if cut.op_index in spec.gate_cut_sides
            ]
        return measured, initialised, gates

    def _local_keys(self, spec: SubcircuitSpec, mode: str) -> np.ndarray:
        """Global combination -> ``spec``'s local key, the kernels' gather index: the
        combination's base-4 wire-cut and base-6 gate-cut digits (assignment-major)
        of ``spec``'s cuts, most significant first by cut position."""

        def build() -> np.ndarray:
            measured, initialised, gates = self._positions(spec, mode)
            k = len(self.wire_cuts)
            m = len(self.gate_cuts) if mode == "expectation" else 0
            flat = np.arange(4**k * 6**m, dtype=np.int64)
            keys = np.zeros_like(flat)
            for p in sorted(measured + initialised):
                keys = keys * 4 + (((flat // 6**m) >> (2 * (k - 1 - p))) & 3)
            for p in gates:
                keys = keys * 6 + (flat % 6**m) // 6 ** (m - 1 - p) % 6
            return keys

        return self._memoised(("keys", spec.index, mode), build)

    def layout(
        self, spec: SubcircuitSpec, mode: str, instances: Tuple[Tuple[int, ...], ...]
    ) -> _TableLayout:
        """The row structure of ``spec``'s variant tables in ``mode``, with a row per
        instance number that ``instances`` lists for each gate cut ``spec`` hosts."""
        return self._memoised(
            ("layout", spec.index, mode, instances), lambda: self._layout(spec, mode, instances)
        )

    def _layout(
        self, spec: SubcircuitSpec, mode: str, instances: Tuple[Tuple[int, ...], ...]
    ) -> _TableLayout:
        measured, initialised, gates = self._positions(spec, mode)
        wires = sorted(measured + initialised)
        gate_ops = [self.gate_cuts[p].op_index for p in gates]
        num_cuts = len(measured) + len(initialised)
        shape = (4,) * num_cuts + tuple(len(numbers) for numbers in instances)
        setting_axes = (
            [("measurement_bases", cut.identifier()) for cut in spec.upstream_cuts]
            + [("init_labels", cut.identifier()) for cut in spec.downstream_cuts]
            + [("gate_instances", op_index) for op_index in gate_ops]
        )
        # Row r's digits, most significant axis first (itertools.product
        # order); a gate axis digit picks a nonzero instance, choice number - 1.
        choices = (
            np.indices(shape).reshape(len(shape), -1).T
            if shape
            else np.zeros((1, 0), dtype=np.int64)
        )
        for j, numbers in enumerate(instances):
            choices[:, num_cuts + j] = (np.asarray(numbers) - 1)[choices[:, num_cuts + j]]
        # Local key -> its Eq. 3 terms: (table row, decomposition weight) pairs.
        local = np.arange(4 ** len(wires) * 6 ** len(gates), dtype=np.int64)

        def wire_digit(key: np.ndarray, p: int) -> np.ndarray:
            return ((key // 6 ** len(gates)) >> (2 * (len(wires) - 1 - wires.index(p)))) & 3

        strides = [int(np.prod(shape[axis + 1 :])) for axis in range(len(shape))]
        rows = np.zeros_like(local)
        valid = np.ones(local.size, dtype=bool)
        for axis, p in enumerate(measured):
            rows += wire_digit(local, p) * strides[axis]
        for j, numbers in enumerate(instances):
            column = np.full(6, -1, dtype=np.int64)
            column[np.asarray(numbers, dtype=np.int64) - 1] = np.arange(len(numbers))
            digit = column[(local % 6 ** len(gates)) // 6 ** (len(gates) - 1 - j) % 6]
            valid &= digit >= 0
            rows += digit * strides[num_cuts + j]
        sizes = np.array([len(INIT_STATE_DECOMPOSITION[b]) for b in WIRE_CUT_MEASUREMENT_BASES])
        labels = np.zeros((4, int(sizes.max())), dtype=np.int64)
        coefficients = np.zeros(labels.shape)
        for digit, basis in enumerate(WIRE_CUT_MEASUREMENT_BASES):
            for choice, (label, coefficient) in enumerate(INIT_STATE_DECOMPOSITION[basis]):
                labels[digit, choice] = WIRE_CUT_INIT_LABELS.index(label)
                coefficients[digit, choice] = coefficient
        entry_keys, rows = local[valid], rows[valid]
        weights = np.ones(entry_keys.size)
        for axis, p in enumerate(initialised, len(measured)):
            # Each entry splits into its basis's decomposition terms, in
            # INIT_STATE_DECOMPOSITION order: itertools.product order overall.
            basis = wire_digit(entry_keys, p)
            counts = sizes[basis]
            choice = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            basis = np.repeat(basis, counts)
            entry_keys = np.repeat(entry_keys, counts)
            rows = np.repeat(rows, counts) + labels[basis, choice] * strides[axis]
            weights = np.repeat(weights, counts) * coefficients[basis, choice]
        axes = measured + initialised
        order = sorted(range(num_cuts), key=axes.__getitem__) + list(range(num_cuts, len(shape)))
        return _TableLayout(
            shape=shape,
            axes=tuple(setting_axes),
            choices=choices,
            instances=instances,
            order=tuple(order),
            keys=self._local_keys(spec, mode),
            starts=np.searchsorted(entry_keys, np.arange(local.size + 1)),
            rows=rows,
            weights=weights,
        )


class CutReconstructor:
    """Reconstructs the original circuit's output from a cut solution.

    Args:
        solution: the cut solution to reconstruct from.
        specs: pre-extracted subcircuit specs, or ``CutPlan.structure`` to share
            its specs, layouts and plans with every reconstructor of the
            decision; extracted from ``solution`` (with reuse) when omitted.
        engine: a :class:`~repro.engine.ParallelEngine` to execute variant
            batches through (shared caches, worker pools); ``None`` builds a
            serial engine around its configured default exact backend.  Wrap
            a specific backend as ``engine=ParallelEngine(executor)``.

    Example::

        reconstructor = CutReconstructor(plan.solution, specs=plan.structure)
        value = reconstructor.reconstruct_expectation(observable)
    """

    def __init__(
        self,
        solution: CutSolution,
        specs: Union[Sequence[SubcircuitSpec], CutStructure, None] = None,
        engine: Optional[ParallelEngine] = None,
    ) -> None:
        self.solution = solution
        if not isinstance(specs, CutStructure):
            specs = CutStructure(
                solution, extract_subcircuits(solution) if specs is None else specs
            )
        elif specs.wire_cuts + specs.gate_cuts != tuple(solution.wire_cuts + solution.gate_cuts):
            raise ReconstructionError("the cut structure belongs to another cut decision")
        self.structure = specs
        self.specs = self.structure.specs
        self.engine = engine if engine is not None else ParallelEngine()
        self._builders: Dict[int, VariantBuilder] = {
            spec.index: VariantBuilder(solution, spec) for spec in self.specs
        }
        self._gate_cut_instances: Dict[int, Tuple[float, ...]] = {}
        for cut in solution.gate_cuts:
            decomposition = decompose_gate_cut(solution.circuit.operations[cut.op_index])
            self._gate_cut_instances[cut.op_index] = tuple(
                instance.coefficient for instance in decomposition.instances
            )
        # Variant tables, keyed by (spec, mode, restricted term): their rows
        # carry this circuit's angles, so they are never shared.
        self._tables: Dict[Tuple, VariantTable] = {}
        #: How the most recent reconstruct_* call's contraction ran (stage
        #: timings, shard utilization); ``None`` before the first call.
        self.last_contraction_report: Optional[ContractionReport] = None

    # ------------------------------------------------------------------ public API
    def enumerate_probability_requests(
        self, weights_out: Optional[Dict[str, float]] = None
    ) -> RequestBatch:
        """Phase one of probability reconstruction: every variant the contraction needs.

        Args:
            weights_out: when given, accumulates each fingerprint's |contraction
                weight| during the same walk (for pruning, shot allocation and
                the overhead optimizer), so no second pass over the
                exponential loop is needed.

        Returns:
            A :class:`~repro.engine.RequestBatch`: each table row read, once,
            in order of first read, with its read count (one read per Eq. 3
            term of every local key that needs the row).
        """
        if self.solution.gate_cuts:
            raise ReconstructionError(GATE_CUT_MESSAGE)
        walk = _Walk(weights_out)
        k = len(self.solution.wire_cuts)
        self._walk(walk, "probability", None, np.arange(4**k), np.full(4**k, 0.5**k))
        return walk.finish()

    def enumerate_expectation_requests(
        self,
        observable: PauliObservable,
        weights_out: Optional[Dict[str, float]] = None,
    ) -> RequestBatch:
        """Phase one of expectation reconstruction for every term of ``observable``.

        Args:
            observable: the Pauli observable whose terms are walked, in order.
            weights_out: when given, accumulates each fingerprint's |contraction
                weight| during the same walk (see
                :meth:`enumerate_probability_requests`).

        Returns:
            The :class:`~repro.engine.RequestBatch` of every term's reads,
            as for :meth:`enumerate_probability_requests`.
        """
        walk = _Walk(weights_out)
        k = len(self.solution.wire_cuts)
        products = np.tile(self._instance_products(), 4**k)
        combos = np.flatnonzero(products)
        for term in observable.terms:
            if self._inactive_qubit_factor(term) == 0.0:  # qrcclint: disable=float-equality -- exact-zero short-circuit on assigned coefficients; matches the scalar walk bit for bit
                continue
            coefficient = term.coefficient * 0.5**k
            self._walk(walk, "expectation", term, combos, coefficient * products[combos])
        return walk.finish()

    def reconstruct_probabilities(
        self,
        table: Optional[Mapping[str, VariantResult]] = None,
        missing: str = "execute",
    ) -> np.ndarray:
        """Full probability vector of the original circuit (wire cuts only).

        The planned contraction over the all-qubit bin space: cost-modelled
        vectorized kernels, sharded across the engine's workers, with the
        run's stage timings and shard utilization on
        :attr:`last_contraction_report`.  For outputs too wide for a dense
        vector, use dynamic definition instead:
        :func:`~repro.cutting.reconstruct_dynamic` with a plan from
        :func:`~repro.cutting.plan_dynamic_definition`.

        Args:
            table: results for the enumerated batch, for callers who already
                executed it (e.g. to apply a shot allocation first); by default
                the batch is enumerated and executed here.
            missing: what to do when the contraction needs a variant absent
                from ``table`` — ``"execute"`` (default) runs it on demand
                through the engine, ``"skip"`` treats its contribution as
                exactly zero (truncated contraction over a *pruned* batch, see
                :mod:`repro.engine.pruning`), ``"error"`` raises
                :class:`~repro.exceptions.ReconstructionError`.

        Returns:
            The reconstructed quasi-probability vector over all
            ``2**num_qubits`` basis states (exact probabilities for exact
            executors; a statistical/truncated estimate otherwise).
        """
        self._check_missing_mode(missing)
        if self.solution.gate_cuts:
            raise ReconstructionError(GATE_CUT_MESSAGE)
        if table is None:
            table = self.engine.run_batch(self.enumerate_probability_requests())
        plan_start = perf_clock()
        workers = self.engine.workers
        space = BinSpace(active=tuple(range(self.solution.circuit.num_qubits)), merged=())
        structure = self.structure.contraction(workers, space)
        plan = structure.plan
        plan_seconds = perf_clock() - plan_start

        contract_start = perf_clock()
        # One stack per subcircuit over its *local* assignments (4**c_S rows,
        # not 4**k), built per call: successive calls may pass tables with
        # different values.  Every reduction of this space is a passthrough,
        # so the stacks go to the kernels as they are.
        stacks = self._value_stacks("probability", None, table, missing, {})
        coefficient = 0.5 ** len(self.solution.wire_cuts)
        tasks = []
        for lo, hi in plan.shard_blocks:
            shard_stacks = [
                stack
                if index != plan.shard_axis
                else np.ascontiguousarray(stack[:, lo:hi])
                for index, stack in enumerate(stacks)
            ]
            tasks.append((shard_stacks, structure.index_maps, coefficient, plan.chunk_rows))
        outputs, fell_back = self.engine.map_shards(contract_probability_shard, tasks)
        contract_seconds = perf_clock() - contract_start

        merge_start = perf_clock()
        total = np.zeros(2**self.solution.circuit.num_qubits)
        utilization = []
        for shard, (indices, (accumulator, seconds)) in enumerate(
            zip(structure.blocks, outputs)
        ):
            # Disjoint writes: every global index belongs to exactly one shard,
            # so the merge moves bits without any floating-point arithmetic.
            total[indices] = accumulator
            utilization.append(
                ShardUtilization(shard=shard, elements=int(indices.size), seconds=seconds)
            )
        merge_seconds = perf_clock() - merge_start
        self.last_contraction_report = ContractionReport(
            mode="planned",
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
        return total

    def reconstruct_expectation(
        self,
        observable: PauliObservable,
        table: Optional[Mapping[str, VariantResult]] = None,
        missing: str = "execute",
    ) -> float:
        """Expectation value of ``observable`` on the original circuit's output.

        The planned contraction: vectorized kernels, observable terms sharded
        across the engine's workers, the run recorded on
        :attr:`last_contraction_report`.

        Args:
            observable: the Pauli observable to reconstruct.
            table: results for the enumerated batch, for callers who already
                executed it (e.g. to apply a shot allocation first).
            missing: what to do when the contraction needs a variant absent
                from ``table`` — ``"execute"`` (default) runs it on demand,
                ``"skip"`` contributes exactly zero (truncated contraction over
                a pruned batch), ``"error"`` raises.

        Returns:
            The reconstructed expectation value (a float).
        """
        self._check_missing_mode(missing)
        if table is None:
            table = self.engine.run_batch(self.enumerate_expectation_requests(observable))
        # Stacks are per call, like reconstruct_probabilities', and shared by
        # the terms whose restrictions coincide.
        cache: Dict[Tuple, np.ndarray] = {}
        plan_start = perf_clock()
        workers = self.engine.workers
        structure = self.structure.contraction(workers, num_terms=len(observable.terms))
        plan = structure.plan
        plan_seconds = perf_clock() - plan_start

        contract_start = perf_clock()
        term_values = [0.0] * len(observable.terms)
        jobs: List[Tuple[int, List[np.ndarray], float]] = []
        products = self._instance_products()
        # All-zero products: the scalar walk skips every combination.
        if np.any(products):
            for index, term in enumerate(observable.terms):
                inactive_factor = self._inactive_qubit_factor(term)
                if inactive_factor == 0.0:  # qrcclint: disable=float-equality -- exact-zero short-circuit on assigned coefficients; matches the scalar walk bit for bit
                    continue  # the scalar walk returns exactly 0.0 for these
                jobs.append(
                    (
                        index,
                        self._value_stacks("expectation", term, table, missing, cache),
                        inactive_factor,
                    )
                )
        fell_back = False
        utilization = []
        if jobs:
            blocks = balanced_blocks(len(jobs), min(plan.num_shards, len(jobs)))
            k = len(self.solution.wire_cuts)
            coefficients = np.tile(0.5**k * products, 4**k)
            tasks = [
                (
                    structure.index_maps,
                    coefficients,
                    [(tables, factor) for _, tables, factor in jobs[lo:hi]],
                )
                for lo, hi in blocks
            ]
            outputs, fell_back = self.engine.map_shards(contract_expectation_terms, tasks)
            for shard, ((lo, hi), (values, seconds)) in enumerate(zip(blocks, outputs)):
                for (index, _, _), value in zip(jobs[lo:hi], values):
                    term_values[index] = value
                utilization.append(
                    ShardUtilization(shard=shard, elements=hi - lo, seconds=seconds)
                )
        contract_seconds = perf_clock() - contract_start

        merge_start = perf_clock()
        # Same final reduction as the scalar walk: term contributions summed in
        # observable term order, regardless of which shard computed them.
        value = float(
            sum(
                term.coefficient * term_value
                for term, term_value in zip(observable.terms, term_values)
            )
        )
        merge_seconds = perf_clock() - merge_start
        self.last_contraction_report = ContractionReport(
            mode="planned",
            kind="expectation",
            workers=workers,
            num_shards=max(1, len(utilization)),
            plan_seconds=plan_seconds,
            contract_seconds=contract_seconds,
            merge_seconds=merge_seconds,
            serial_fallback=fell_back,
            shards=tuple(utilization),
            plan=plan,
        )
        return value

    @staticmethod
    def _check_missing_mode(missing: str) -> None:
        if missing not in ("execute", "skip", "error"):
            raise ReconstructionError(
                f"missing must be 'execute', 'skip' or 'error', got {missing!r}"
            )



    # ------------------------------------------------------------------ variant tables
    def _layout(self, spec: SubcircuitSpec, mode: str) -> _TableLayout:
        """``spec``'s table layout in ``mode`` for this circuit's gate-cut coefficients."""
        gates = spec.gate_cut_sides if mode == "expectation" else {}
        instances = tuple(
            tuple(number for number, c in enumerate(self._gate_cut_instances[cut.op_index], 1) if c)
            for cut in self.solution.gate_cuts
            if cut.op_index in gates
        )
        return self.structure.layout(spec, mode, instances)

    def _table(
        self, spec: SubcircuitSpec, mode: str, term: Optional[PauliString]
    ) -> Tuple[Tuple, VariantTable]:
        """``(memo key, table)`` of one (subcircuit, mode, restricted term).

        Rows carry the layout's choices and the restricted term a per-key
        walk would build each variant with, so fingerprints match.
        """
        restricted = term.restricted_to(spec.output_qubits) if term is not None else None
        key = (spec.index, mode, restricted.paulis if restricted is not None else None)
        table = self._tables.get(key)
        if table is None:
            layout = self._layout(spec, mode)
            table = self._builders[spec.index].table(layout.axes, layout.choices, mode, restricted)
            self._tables[key] = table
        return key, table

    def _walk(
        self,
        walk: _Walk,
        mode: str,
        term: Optional[PauliString],
        combos: np.ndarray,
        coefficients: np.ndarray,
    ) -> None:
        """Phase one for one term: visit ``combos`` (global combinations, walk order).

        At every combination each subcircuit reads its local key's Eq. 3 terms.
        A key's terms are read into the batch the first time the walk reaches
        it; ``|coefficient * weight|`` of every term read accumulates per
        fingerprint, in walk order.
        """
        starts: List[np.ndarray] = []
        lengths: List[np.ndarray] = []
        first_visits: List[np.ndarray] = []
        rows: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        entries = 0
        for spec in self.specs:
            layout = self._layout(spec, mode)
            table_key, table = self._table(spec, mode, term)
            keys = layout.keys[combos]
            done = walk.scheduled.setdefault(
                table_key, np.zeros(layout.starts.size - 1, dtype=bool)
            )
            unique, first = np.unique(keys, return_index=True)
            first_visit = np.zeros(keys.size, dtype=bool)
            first_visit[first[~done[unique]]] = True
            done[unique] = True
            starts.append(layout.starts[keys] + entries)
            lengths.append(layout.starts[keys + 1] - layout.starts[keys])
            first_visits.append(first_visit)
            rows.append(layout.rows + walk.offset(table_key, table))
            weights.append(layout.weights)
            entries += layout.rows.size
        # Entries of every (combination, subcircuit) pair in walk order, over
        # the concatenated per-subcircuit term arrays.
        start, length, fresh = (
            np.stack(parts, axis=1).ravel() for parts in (starts, lengths, first_visits)
        )
        all_rows = np.concatenate(rows)
        walk.reads.append(all_rows[_slices(start[fresh], length[fresh])])
        if walk.weights is None:
            return
        index = _slices(start, length)
        coefficient = np.repeat(np.repeat(coefficients, len(rows)), length)
        walk.ids.append(all_rows[index])
        walk.values.append(np.abs(coefficient * np.concatenate(weights)[index]))

    def _instance_products(self) -> np.ndarray:
        """Gate-cut coefficient product of every global instance combination.

        Multiplied cut by cut in solution order, the association every walk uses.
        """
        gate_cuts = list(self.solution.gate_cuts)
        m = len(gate_cuts)
        flat = np.arange(6**m, dtype=np.int64)
        products = np.ones(6**m)
        for position, cut in enumerate(gate_cuts):
            coefficients = np.asarray(self._gate_cut_instances[cut.op_index])
            products = products * coefficients[(flat // 6 ** (m - 1 - position)) % 6]
        return products

    # ------------------------------------------------------------------ contraction
    def _value_stacks(
        self,
        mode: str,
        term: Optional[PauliString],
        table: Mapping[str, VariantResult],
        missing: str,
        cache: Dict[Tuple, np.ndarray],
    ) -> List[np.ndarray]:
        """Every subcircuit's effective values in the contraction plan's row layout.

        A table's results are gathered into one dense ``(rows, width)`` array,
        and Eq. 3's basis change replaces each initialised cut's four label
        slices by its four basis slices.  Probability stacks are
        ``(4**c_S, 2**w_S)``; expectation stacks are flat ``4**c_S * 6**g_S``
        vectors whose zero-coefficient instance rows stay exactly ``0.0``.
        """
        stacks: List[np.ndarray] = []
        for spec in self.specs:
            table_key, rows = self._table(spec, mode, term)
            stack = cache.get(table_key)
            if stack is None:
                stack = self._gather(spec, mode, rows.variants, table, missing)
                cache[table_key] = stack
            stacks.append(stack)
        return stacks

    def _gather(
        self,
        spec: SubcircuitSpec,
        mode: str,
        variants: Sequence[SubcircuitVariant],
        table: Mapping[str, VariantResult],
        missing: str,
    ) -> np.ndarray:
        layout = self._layout(spec, mode)
        width = 2 ** len(spec.output_qubits) if mode == "probability" else 1
        keys = [request_key(variant) for variant in variants]
        results = [table.get(key) for key in keys]
        absent = [variant for variant, result in zip(variants, results) if result is None]
        if absent and missing == "error":
            raise ReconstructionError(
                f"results table is missing variant {request_key(absent[0])[:12]}... "
                f"for subcircuit {spec.index} (missing='error')"
            )
        if absent and missing == "execute":
            # The table's absent rows run as one batch; per-fingerprint seeds
            # give each row the result a batch of its own would.
            fetched = self.engine.run_batch(absent)
            results = [fetched[k] if r is None else r for k, r in zip(keys, results)]
        values = np.zeros((len(variants), width))
        for row, result in enumerate(results):
            if result is None:
                # Truncated contraction (missing="skip"): the variant was
                # pruned out; its contribution is exactly zero (the bias this
                # introduces is bounded a priori by PruningReport.bias_bound).
                continue
            payload = result.distribution if mode == "probability" else result.value
            if payload is None:
                kind = "distribution" if mode == "probability" else "expectation value"
                raise ReconstructionError(
                    f"executor returned no {kind} for subcircuit {spec.index}"
                )
            # += from zero, like the decomposition sums: -0.0 reads as +0.0.
            values[row] += payload
        values = values.reshape(layout.shape + (width,))
        first = len(spec.upstream_cuts)
        for axis in range(first, first + len(spec.downstream_cuts)):
            values = np.stack(
                [_basis_slice(values, axis, basis) for basis in WIRE_CUT_MEASUREMENT_BASES],
                axis=axis,
            )
        values = values.transpose(layout.order + (len(layout.shape),))
        if layout.instances:
            wires = len(layout.shape) - len(layout.instances)
            full = np.zeros(values.shape[:wires] + (6,) * len(layout.instances) + (width,))
            chosen = np.ix_(
                *[np.asarray(numbers, dtype=np.int64) - 1 for numbers in layout.instances]
            )
            full[(slice(None),) * wires + chosen] = values
            values = full
        return values.reshape(-1, width) if mode == "probability" else values.reshape(-1)

    def _inactive_qubit_factor(self, term: PauliString) -> float:
        """Pauli factors on qubits no subcircuit outputs (idle qubits stay in |0>)."""
        covered = self.structure.covered_qubits
        if any(label != "Z" for qubit, label in term.paulis if qubit not in covered):
            return 0.0
        return 1.0


def _basis_slice(values: np.ndarray, axis: int, basis: str) -> np.ndarray:
    """Eq. 3 along one initialised-cut axis: ``basis``'s slice as ``sum c * R[label]``.

    Elementwise, from zero, in :data:`INIT_STATE_DECOMPOSITION` order.
    """
    total = np.zeros(values.shape[:axis] + values.shape[axis + 1 :])
    for label, coefficient in INIT_STATE_DECOMPOSITION[basis]:
        total = total + coefficient * np.take(values, WIRE_CUT_INIT_LABELS.index(label), axis=axis)
    return total
