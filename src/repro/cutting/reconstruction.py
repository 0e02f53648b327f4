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
its decomposition reads) join one batch the first time the walk reaches the
key.  The batch goes to the execution engine (:mod:`repro.engine`), which dedups
it by fingerprint, satisfies repeats from the shared cache and runs the unique
requests, serially or across a worker pool.  Phase two *contracts*: each
table's results are gathered into one dense array, Eq. 3's basis change turns
every initialised cut's four label slices into its four basis slices, and the
contraction reads those stacks — no executor calls happen inside it.  The
exponential cost is ``4^k * 6^m`` scalar work plus ``sum_S 4^(c_S) * 6^(g_S)``
subcircuit evaluations per restricted Pauli term, for the ``c_S`` wire and
``g_S`` gate cuts touching ``S``: evaluations add up over the subcircuits, they
do not multiply.

Between the two phases an optional *pruning* pass (:mod:`repro.engine.pruning`)
may drop small-|contraction-weight| requests; phase two then contracts over the
resulting *partial* table with ``missing="skip"`` — an absent variant contributes
exactly zero, and the induced bias is bounded a priori by the pruning report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine import ParallelEngine, VariantResult, request_key
from ..exceptions import ReconstructionError
from ..utils.pauli import PauliObservable, PauliString
from ..utils.timing import perf_clock
from .contraction import (
    CONTRACTION_MODES,
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


class _Walk:
    """Phase-one state shared by every term of one enumeration call."""

    def __init__(self, weights: Optional[Dict[str, float]]) -> None:
        self.batch: List[SubcircuitVariant] = []
        self.weights = weights
        self.scheduled: Dict[Tuple, np.ndarray] = {}
        self.ids: List[np.ndarray] = []
        self.values: List[np.ndarray] = []
        self._offsets: Dict[Tuple, int] = {}
        self._fingerprints: List[str] = []

    def offset(self, table_key: Tuple, table: VariantTable) -> int:
        """First id of a table's rows in this walk's fingerprint list."""
        if table_key not in self._offsets:
            self._offsets[table_key] = len(self._fingerprints)
            self._fingerprints.extend(variant.fingerprint for variant in table.variants)
        return self._offsets[table_key]

    def finish(self) -> List[SubcircuitVariant]:
        """Fold the accumulated weights into ``weights`` and return the batch.

        Sums run per fingerprint in walk order (``np.add.at`` is sequential),
        and new fingerprints enter the dict in order of first visit.
        """
        if self.weights is not None and self.ids:
            ids = np.concatenate(self.ids)
            unique, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
            fingerprints = [self._fingerprints[i] for i in unique.tolist()]
            totals = np.array([self.weights.get(fp, 0.0) for fp in fingerprints])
            np.add.at(totals, inverse, np.concatenate(self.values))
            totals_list = totals.tolist()
            for j in np.argsort(first, kind="stable").tolist():
                self.weights[fingerprints[j]] = totals_list[j]
        return self.batch


class CutReconstructor:
    """Reconstructs the original circuit's output from a cut solution.

    Args:
        solution: the cut solution to reconstruct from.
        specs: pre-extracted subcircuit specs; extracted from ``solution``
            (with qubit reuse) when omitted.
        engine: a :class:`~repro.engine.ParallelEngine` to execute variant
            batches through (shared caches, worker pools); ``None`` builds a
            serial engine around its configured default exact backend.  Wrap
            a specific backend as ``engine=ParallelEngine(executor)``.

    Example::

        reconstructor = CutReconstructor(plan.solution, specs=plan.subcircuits)
        value = reconstructor.reconstruct_expectation(observable)
    """

    def __init__(
        self,
        solution: CutSolution,
        specs: Optional[Sequence[SubcircuitSpec]] = None,
        engine: Optional[ParallelEngine] = None,
    ) -> None:
        self.solution = solution
        self.specs: List[SubcircuitSpec] = list(
            specs if specs is not None else extract_subcircuits(solution)
        )
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
        # Variant tables and their row layouts, keyed by (spec, mode[, term]).
        self._layouts: Dict[Tuple[int, str], _TableLayout] = {}
        self._tables: Dict[Tuple, VariantTable] = {}
        # Structure-only contraction state (plans, index maps) keyed by
        # (kind, workers[, num_terms]).  These never depend on the results
        # table, so caching them across calls is safe — unlike the per-call
        # value stacks below.
        self._contraction_memo: Dict[Tuple, Dict[str, object]] = {}
        #: How the most recent reconstruct_* call's contraction ran (stage
        #: timings, shard utilization); ``None`` before the first call.
        self.last_contraction_report: Optional[ContractionReport] = None

    # ------------------------------------------------------------------ public API
    def enumerate_probability_requests(
        self, weights_out: Optional[Dict[str, float]] = None
    ) -> List[SubcircuitVariant]:
        """Phase one of probability reconstruction: every variant the contraction needs.

        The returned batch may contain duplicates across local keys (one Eq. 3
        term list per key); the engine dedups by fingerprint.  Benchmarks use
        this to drive :meth:`ParallelEngine.run_batch` directly.
        ``weights_out``, when given, accumulates each fingerprint's |contraction
        weight| during the same walk (for shot allocation), so no second pass
        over the exponential loop is needed.
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
    ) -> List[SubcircuitVariant]:
        """Phase one of expectation reconstruction for every term of ``observable``.

        ``weights_out``, when given, accumulates each fingerprint's |contraction
        weight| during the same walk (see :meth:`enumerate_probability_requests`).
        """
        walk = _Walk(weights_out)
        k = len(self.solution.wire_cuts)
        products = np.tile(self._instance_products(), 4**k)
        combos = np.flatnonzero(products)
        for term in observable.terms:
            if self._inactive_qubit_factor(term) == 0.0:  # qrcclint: disable=float-equality -- exact-zero short-circuit on assigned coefficients; matches the naive walk bit for bit
                continue
            coefficient = term.coefficient * 0.5**k
            self._walk(walk, "expectation", term, combos, coefficient * products[combos])
        return walk.finish()

    def reconstruct_probabilities(
        self,
        table: Optional[Mapping[str, VariantResult]] = None,
        missing: str = "execute",
        contraction: str = "planned",
    ) -> np.ndarray:
        """Full probability vector of the original circuit (wire cuts only).

        For outputs too wide for a dense vector, use dynamic definition
        instead: :func:`~repro.cutting.reconstruct_dynamic` with a plan from
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
            contraction: ``"planned"`` (the default: cost-modelled
                vectorized kernels, sharded across the engine's workers) or
                ``"naive"`` (the serial scalar walk, kept as the reference
                implementation).  Both paths are bit-identical (see
                :mod:`repro.cutting.contraction`); only wall clock differs.
                The run's stage timings and shard utilization land on
                :attr:`last_contraction_report`.

        Returns:
            The reconstructed quasi-probability vector over all
            ``2**num_qubits`` basis states (exact probabilities for exact
            executors; a statistical/truncated estimate otherwise).
        """
        self._check_missing_mode(missing)
        self._check_contraction_mode(contraction)
        if self.solution.gate_cuts:
            raise ReconstructionError(GATE_CUT_MESSAGE)
        if table is None:
            table = self.engine.run_batch(self.enumerate_probability_requests())
        # Value stacks are per call: successive calls may pass tables with
        # different values (different seeds, allocations or prunings), so
        # reusing them across calls would silently return stale results.  The
        # cache also never crosses the process boundary — shard workers receive
        # the dense stacks themselves.
        cache: Dict[Tuple, np.ndarray] = {}
        if contraction == "planned":
            return self._reconstruct_probabilities_planned(table, missing, cache)
        return self._reconstruct_probabilities_naive(table, missing, cache)

    def reconstruct_expectation(
        self,
        observable: PauliObservable,
        table: Optional[Mapping[str, VariantResult]] = None,
        missing: str = "execute",
        contraction: str = "planned",
    ) -> float:
        """Expectation value of ``observable`` on the original circuit's output.

        Args:
            observable: the Pauli observable to reconstruct.
            table: results for the enumerated batch, for callers who already
                executed it (e.g. to apply a shot allocation first).
            missing: what to do when the contraction needs a variant absent
                from ``table`` — ``"execute"`` (default) runs it on demand,
                ``"skip"`` contributes exactly zero (truncated contraction over
                a pruned batch), ``"error"`` raises.
            contraction: ``"planned"`` (the default: vectorized kernels,
                observable terms sharded across the engine's workers) or
                ``"naive"`` (the serial scalar walk).  Bit-identical either
                way; see :meth:`reconstruct_probabilities`.

        Returns:
            The reconstructed expectation value (a float).
        """
        self._check_missing_mode(missing)
        self._check_contraction_mode(contraction)
        if table is None:
            table = self.engine.run_batch(self.enumerate_expectation_requests(observable))
        # Per-call stacks, for the same staleness reason as reconstruct_probabilities.
        cache: Dict[Tuple, np.ndarray] = {}
        if contraction == "planned":
            return self._reconstruct_expectation_planned(observable, table, missing, cache)
        return self._reconstruct_expectation_naive(observable, table, missing, cache)

    @staticmethod
    def _check_missing_mode(missing: str) -> None:
        if missing not in ("execute", "skip", "error"):
            raise ReconstructionError(
                f"missing must be 'execute', 'skip' or 'error', got {missing!r}"
            )

    @staticmethod
    def _check_contraction_mode(contraction: str) -> None:
        if contraction not in CONTRACTION_MODES:
            raise ReconstructionError(
                f"contraction must be one of {CONTRACTION_MODES}, got {contraction!r}"
            )

    # ------------------------------------------------------- naive contraction paths
    def _reconstruct_probabilities_naive(
        self,
        table: Mapping[str, VariantResult],
        missing: str,
        cache: Dict[Tuple, np.ndarray],
    ) -> np.ndarray:
        """The serial scalar walk: one kron + scatter per global assignment."""
        contract_start = perf_clock()
        num_qubits = self.solution.circuit.num_qubits
        total = np.zeros(2**num_qubits)
        coefficient_per_assignment = 0.5 ** len(self.solution.wire_cuts)
        # The qubit order (and therefore the scatter index map) is the same for
        # every assignment; hoisting it out of the 4**k loop is most of the
        # naive path's win.
        orders = [list(spec.output_qubits) for spec in self.specs]
        order_lsb: List[int] = []
        for order in orders:
            order_lsb = list(order) + order_lsb
        index_map = _output_index_map(order_lsb, num_qubits)
        stacks = self._value_stacks("probability", None, table, missing, cache)
        keys = [self._layout(spec, "probability").keys for spec in self.specs]
        for assignment in range(4 ** len(self.solution.wire_cuts)):
            vectors = [stack[key[assignment]] for stack, key in zip(stacks, keys)]
            combined, _ = _combine_subcircuit_vectors(vectors, orders)
            _scatter_into(
                total,
                combined,
                order_lsb,
                coefficient_per_assignment,
                num_qubits,
                index_map=index_map,
            )
        contract_seconds = perf_clock() - contract_start
        self.last_contraction_report = ContractionReport(
            mode="naive",
            kind="probability",
            workers=1,
            num_shards=1,
            plan_seconds=0.0,
            contract_seconds=contract_seconds,
            merge_seconds=0.0,
            shards=(ShardUtilization(shard=0, elements=total.size, seconds=contract_seconds),),
        )
        return total

    def _reconstruct_expectation_naive(
        self,
        observable: PauliObservable,
        table: Mapping[str, VariantResult],
        missing: str,
        cache: Dict[Tuple, np.ndarray],
    ) -> float:
        """The serial scalar walk over ``4**k * 6**m`` combinations per term."""
        contract_start = perf_clock()
        value = float(
            sum(
                term.coefficient * self._term_value(term, table, missing, cache)
                for term in observable.terms
            )
        )
        contract_seconds = perf_clock() - contract_start
        self.last_contraction_report = ContractionReport(
            mode="naive",
            kind="expectation",
            workers=1,
            num_shards=1,
            plan_seconds=0.0,
            contract_seconds=contract_seconds,
            merge_seconds=0.0,
            shards=(
                ShardUtilization(
                    shard=0, elements=len(observable.terms), seconds=contract_seconds
                ),
            ),
        )
        return value

    # ----------------------------------------------------- planned contraction paths
    def _probability_structure(self, workers: int) -> Dict[str, object]:
        """Cached plan, index maps and scatter blocks for probability mode."""
        key = ("probability", workers)
        structure = self._contraction_memo.get(key)
        if structure is not None:
            return structure
        plan = plan_contraction(
            self.solution, self.specs, workers=workers, kind="probability"
        )
        structure = {
            "plan": plan,
            "index_maps": [self._layout(spec, "probability").keys for spec in self.specs],
            "blocks": output_index_blocks(
                plan,
                [list(spec.output_qubits) for spec in self.specs],
                self.solution.circuit.num_qubits,
            ),
        }
        self._contraction_memo[key] = structure
        return structure

    def _reconstruct_probabilities_planned(
        self,
        table: Mapping[str, VariantResult],
        missing: str,
        cache: Dict[Tuple, np.ndarray],
    ) -> np.ndarray:
        """Planned path: dense per-subcircuit stacks, sharded vectorized kron."""
        plan_start = perf_clock()
        workers = self.engine.workers
        structure = self._probability_structure(workers)
        plan = structure["plan"]
        plan_seconds = perf_clock() - plan_start

        contract_start = perf_clock()
        # One stack per subcircuit over its *local* assignments (4**c_S rows,
        # not 4**k): the same stacks the naive walk reads.
        stacks = self._value_stacks("probability", None, table, missing, cache)
        coefficient = 0.5 ** len(self.solution.wire_cuts)
        tasks = []
        for lo, hi in plan.shard_blocks:
            shard_stacks = [
                stack
                if index != plan.shard_axis
                else np.ascontiguousarray(stack[:, lo:hi])
                for index, stack in enumerate(stacks)
            ]
            tasks.append((shard_stacks, structure["index_maps"], coefficient, plan.chunk_rows))
        outputs, fell_back = self.engine.map_shards(contract_probability_shard, tasks)
        contract_seconds = perf_clock() - contract_start

        merge_start = perf_clock()
        total = np.zeros(2**self.solution.circuit.num_qubits)
        utilization = []
        for shard, (indices, (accumulator, seconds)) in enumerate(
            zip(structure["blocks"], outputs)
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

    def _expectation_structure(self, workers: int, num_terms: int) -> Dict[str, object]:
        """Cached plan, flat index maps and coefficient vector for expectation mode."""
        key = ("expectation", workers, num_terms)
        structure = self._contraction_memo.get(key)
        if structure is not None:
            return structure
        plan = plan_contraction(
            self.solution,
            self.specs,
            workers=workers,
            kind="expectation",
            num_terms=num_terms,
        )
        products = self._instance_products()
        k = len(self.solution.wire_cuts)
        structure = {
            "plan": plan,
            "index_maps": [self._layout(spec, "expectation").keys for spec in self.specs],
            "coefficients": np.tile(0.5**k * products, 4**k),
            # All-zero products: the naive walk skips every combination.
            "gate_ok": bool(np.any(products)),
        }
        self._contraction_memo[key] = structure
        return structure

    def _reconstruct_expectation_planned(
        self,
        observable: PauliObservable,
        table: Mapping[str, VariantResult],
        missing: str,
        cache: Dict[Tuple, np.ndarray],
    ) -> float:
        """Planned path: dense value tables, terms sharded over the pool."""
        plan_start = perf_clock()
        workers = self.engine.workers
        structure = self._expectation_structure(workers, len(observable.terms))
        plan = structure["plan"]
        plan_seconds = perf_clock() - plan_start

        contract_start = perf_clock()
        term_values = [0.0] * len(observable.terms)
        jobs: List[Tuple[int, List[np.ndarray], float]] = []
        if structure["gate_ok"]:
            for index, term in enumerate(observable.terms):
                inactive_factor = self._inactive_qubit_factor(term)
                if inactive_factor == 0.0:  # qrcclint: disable=float-equality -- exact-zero short-circuit on assigned coefficients; matches the naive walk bit for bit
                    continue  # the naive walk returns exactly 0.0 for these
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
            tasks = [
                (
                    structure["index_maps"],
                    structure["coefficients"],
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
        # Same final reduction as the naive path: term contributions summed in
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

    # ------------------------------------------------------------------ variant tables
    def _layout(self, spec: SubcircuitSpec, mode: str) -> _TableLayout:
        """The (memoised) row structure of ``spec``'s variant tables in ``mode``."""
        layout = self._layouts.get((spec.index, mode))
        if layout is not None:
            return layout
        solution = self.solution
        position = {cut.identifier(): p for p, cut in enumerate(solution.wire_cuts)}
        measured = [position[cut.identifier()] for cut in spec.upstream_cuts]
        initialised = [position[cut.identifier()] for cut in spec.downstream_cuts]
        wires = sorted(measured + initialised)
        gates: List[int] = []
        if mode == "expectation":
            gates = [
                p for p, cut in enumerate(solution.gate_cuts) if cut.op_index in spec.gate_cut_sides
            ]
        gate_ops = [solution.gate_cuts[p].op_index for p in gates]
        instances = tuple(
            tuple(
                number
                for number, coefficient in enumerate(self._gate_cut_instances[op_index], 1)
                if coefficient  # nonzero, like the walk's skip
            )
            for op_index in gate_ops
        )
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
        # Global combination -> local key, the contraction kernels' gather index.
        # Globally, wire cut p is the base-4 digit of weight 4**(k-1-p) and gate
        # cut p the base-6 digit of weight 6**(m-1-p) (itertools.product order,
        # assignment-major); a local key packs this subcircuit's digits, most
        # significant first in ascending cut position.
        k = len(solution.wire_cuts)
        m = len(solution.gate_cuts) if mode == "expectation" else 0
        flat = np.arange(4**k * 6**m, dtype=np.int64)
        keys = np.zeros_like(flat)
        for p in wires:
            keys = keys * 4 + (((flat // 6**m) >> (2 * (k - 1 - p))) & 3)
        for p in gates:
            keys = keys * 6 + (flat % 6**m) // 6 ** (m - 1 - p) % 6
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
        layout = _TableLayout(
            shape=shape,
            axes=tuple(setting_axes),
            choices=choices,
            instances=instances,
            order=tuple(order),
            keys=keys,
            starts=np.searchsorted(entry_keys, np.arange(local.size + 1)),
            rows=rows,
            weights=weights,
        )
        self._layouts[(spec.index, mode)] = layout
        return layout

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
        A key's variants join the batch the first time the walk reaches it;
        ``|coefficient * weight|`` of every term read accumulates per
        fingerprint, in walk order.
        """
        events: List[Tuple[int, int, int]] = []
        visits: List[Tuple[_TableLayout, VariantTable, np.ndarray, Tuple]] = []
        for position, spec in enumerate(self.specs):
            layout = self._layout(spec, mode)
            table_key, table = self._table(spec, mode, term)
            keys = layout.keys[combos]
            done = walk.scheduled.setdefault(
                table_key, np.zeros(layout.starts.size - 1, dtype=bool)
            )
            unique, first = np.unique(keys, return_index=True)
            fresh = ~done[unique]
            done[unique] = True
            events.extend(
                zip(first[fresh].tolist(), itertools.repeat(position), unique[fresh].tolist())
            )
            visits.append((layout, table, keys, table_key))
        events.sort()
        for _, position, key in events:
            layout, table = visits[position][:2]
            variants = table.variants
            rows = layout.rows[layout.starts[key] : layout.starts[key + 1]]
            walk.batch.extend([variants[row] for row in rows.tolist()])
        if walk.weights is None:
            return
        # The same reads, vectorised: entries of every (combination, subcircuit)
        # pair in walk order, over the concatenated per-subcircuit term arrays.
        starts: List[np.ndarray] = []
        lengths: List[np.ndarray] = []
        rows: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        entries = 0
        for layout, table, keys, table_key in visits:
            starts.append(layout.starts[keys] + entries)
            lengths.append(layout.starts[keys + 1] - layout.starts[keys])
            rows.append(layout.rows + walk.offset(table_key, table))
            weights.append(layout.weights)
            entries += layout.rows.size
        length = np.stack(lengths, axis=1).ravel()
        start = np.stack(starts, axis=1).ravel()
        index = np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())
        coefficient = np.repeat(np.repeat(coefficients, len(visits)), length)
        walk.ids.append(np.concatenate(rows)[index])
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
        values = np.zeros((len(variants), width))
        for row, variant in enumerate(variants):
            result = table.get(request_key(variant))
            if result is None:
                if missing == "skip":
                    # Truncated contraction: the variant was pruned out; its
                    # contribution is exactly zero (the bias this introduces is
                    # bounded a priori by PruningReport.bias_bound).
                    continue
                if missing == "error":
                    raise ReconstructionError(
                        f"results table is missing variant {request_key(variant)[:12]}... "
                        f"for subcircuit {variant.subcircuit_index} (missing='error')"
                    )
                result = self.engine.lookup(variant)
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

    def _term_value(
        self,
        term: PauliString,
        table: Mapping[str, VariantResult],
        missing: str,
        cache: Dict[Tuple, np.ndarray],
    ) -> float:
        inactive_factor = self._inactive_qubit_factor(term)
        if inactive_factor == 0.0:  # qrcclint: disable=float-equality -- exact-zero short-circuit on assigned coefficients; matches the naive walk bit for bit
            return 0.0
        stacks = [
            stack.tolist()
            for stack in self._value_stacks("expectation", term, table, missing, cache)
        ]
        keys = [self._layout(spec, "expectation").keys.tolist() for spec in self.specs]
        products = self._instance_products().tolist()
        value = 0.0
        base_coefficient = 0.5 ** len(self.solution.wire_cuts)
        for combo in range(len(keys[0])):
            coefficient = base_coefficient * products[combo % len(products)]
            if coefficient == 0.0:  # qrcclint: disable=float-equality -- exact-zero short-circuit on assigned coefficients; matches the naive walk bit for bit
                continue
            product = 1.0
            for stack, key in zip(stacks, keys):
                product *= stack[key[combo]]
                if product == 0.0:  # qrcclint: disable=float-equality -- exact-zero short-circuit on a product of assigned coefficients
                    break
            value += coefficient * product
        return value * inactive_factor

    def _inactive_qubit_factor(self, term: PauliString) -> float:
        """Pauli factors on qubits no subcircuit outputs (idle qubits stay in |0>)."""
        covered = set()
        for spec in self.specs:
            covered.update(spec.output_qubits)
        factor = 1.0
        for qubit, label in term.paulis:
            if qubit in covered:
                continue
            if label == "Z":
                continue
            return 0.0
        return factor


def _basis_slice(values: np.ndarray, axis: int, basis: str) -> np.ndarray:
    """Eq. 3 along one initialised-cut axis: ``basis``'s slice as ``sum c * R[label]``.

    Elementwise, from zero, in :data:`INIT_STATE_DECOMPOSITION` order.
    """
    total = np.zeros(values.shape[:axis] + values.shape[axis + 1 :])
    for label, coefficient in INIT_STATE_DECOMPOSITION[basis]:
        total = total + coefficient * np.take(values, WIRE_CUT_INIT_LABELS.index(label), axis=axis)
    return total


def _combine_subcircuit_vectors(
    vectors: Sequence[np.ndarray], orders: Sequence[Sequence[int]]
) -> Tuple[np.ndarray, List[int]]:
    """Kronecker-combine per-subcircuit vectors; return (vector, LSB-first qubit list).

    Built as a left-to-right chain of outer products (``np.multiply.outer`` +
    ravel): the same pairwise multiplications ``np.kron`` performs, in the same
    association, without kron's reshape overhead — bit-identical output.
    """
    if not vectors:
        return np.array([1.0]), []
    combined = np.asarray(vectors[0])
    order_lsb: List[int] = list(orders[0])
    for vector, order in zip(vectors[1:], orders[1:]):
        combined = np.multiply.outer(combined, np.asarray(vector)).reshape(-1)
        order_lsb = list(order) + order_lsb
    return combined, order_lsb


def _output_index_map(order_lsb: Sequence[int], num_qubits: int) -> np.ndarray:
    """Global basis index for every element of a combined vector.

    ``order_lsb[position]`` is the circuit qubit carried by bit ``position``
    (LSB first) of the combined vector's flat index.  The map is a bijection
    onto the output-qubit subspace — duplicate qubits would make the fancy
    in-place ``+=`` in :func:`_scatter_into` silently drop contributions, so
    they are rejected here.
    """
    if len(set(order_lsb)) != len(order_lsb):
        raise ReconstructionError(f"duplicate output qubits in {list(order_lsb)}")
    indices = np.arange(2 ** len(order_lsb))
    global_indices = np.zeros_like(indices)
    for position, qubit in enumerate(order_lsb):
        if qubit >= num_qubits:
            raise ReconstructionError(f"output qubit {qubit} outside circuit")
        global_indices |= ((indices >> position) & 1) << qubit
    return global_indices


def _scatter_into(
    total: np.ndarray,
    combined: np.ndarray,
    order_lsb: Sequence[int],
    coefficient: float,
    num_qubits: int,
    index_map: Optional[np.ndarray] = None,
) -> None:
    """Scatter a combined vector into the global basis ordering of ``num_qubits``.

    ``index_map`` (from :func:`_output_index_map`) can be precomputed once and
    reused across the ``4**k`` assignments — the map only depends on the qubit
    order.  The indices are unique (enforced by ``_output_index_map``), so the
    scatter is a plain fancy-indexed ``+=`` rather than the much slower
    ``np.add.at``; element for element the additions are identical.
    """
    # Exact integer width check — float log2 can misround for wide vectors.
    if len(combined) != 2 ** len(order_lsb):
        raise ReconstructionError("qubit order does not match combined vector size")
    if index_map is None:
        index_map = _output_index_map(order_lsb, num_qubits)
    total[index_map] += coefficient * combined
