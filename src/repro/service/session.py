"""One evaluation as a stateful streaming session: prepare, step rounds, finish.

:class:`EvaluationSession` is the library's one evaluation path: it
enumerates variants *once*, then runs one round loop.  A streaming session
splits every variant's final shot count into cumulative rounds (each round's
per-variant sample is a bitwise prefix of the next) and folds every round's
fresh chunk into an :class:`~repro.service.IncrementalReconstructor` whose
running confidence interval feeds an optional
:class:`~repro.service.StoppingRule`.  Any other session plans exactly one
round, whose chunk is the final totals (none in exact mode), and skips the
fold; so a streaming session run to completion reproduces it bit for bit
(cache keys, seeds and all).  :meth:`~EvaluationSession.prepare` picks the
per-table contraction the fold calls and the final one
:meth:`~EvaluationSession.finish` calls, and every stage's wall clock goes into
one ledger that ``EvaluationResult.timings`` is derived from.
:func:`repro.core.evaluate_workload` is a thin wrapper over
:meth:`EvaluationSession.run`.

Sessions are single-threaded state machines (``prepare -> step* -> finish``);
:class:`~repro.service.ServiceQueue` multiplexes many of them over one shared
engine by interleaving their ``step()`` calls.  Each step passes its own
:class:`~repro.engine.ShotPlan` with its batch, so no session's shot counts
are ever left on the shared engine for another to draw.  Per-session engine
statistics stay correct under that interleaving because every engine
interaction (``prepare``, each ``step``, ``finish``) runs inside one
``_window()``, which adds ``EngineStats.since`` of the snapshots around it to
the session's running total with ``EngineStats.__add__``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace as dataclass_replace
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..cutting import CutReconstructor, SamplingExecutor, VariantExecutor
from ..cutting.dynamic_definition import (
    binned_probabilities,
    plan_dynamic_definition,
    reconstruct_dynamic,
)
from ..cutting.shot_overhead import optimize_overhead_weights
from ..engine import (
    EngineConfig,
    EngineStats,
    ParallelEngine,
    PruningPolicy,
    RequestBatch,
    ResultCache,
    ShotAllocation,
    ShotPlan,
    allocate_shots,
    largest_remainder_split,
    neyman_weight,
    prune_requests,
)
from ..engine.allocation import samples_shots
from ..exceptions import ConfigError, CuttingError
from ..utils.timing import perf_clock
from ..workloads import Workload, WorkloadKind
from .incremental import IncrementalReconstructor, difference_tables
from .stopping import StreamingConfig

__all__ = ["EvaluationSession"]

#: EngineConfig fields that configure the engine itself (pool, cache, device
#: farm); a session on a shared engine cannot change them.
_ENGINE_FIELDS = ("max_workers", "chunk_size", "cache_size", "devices", "routing")


class EvaluationSession:
    """One workload evaluation as an incremental, early-terminable session.

    Every evaluation setting is one :class:`~repro.engine.EngineConfig`:
    ``engine_config``, or the shared ``engine``'s config when it is omitted.
    Its constructor validates each knob and knob combination, so an invalid
    value raises :class:`~repro.exceptions.ConfigError` before the session
    exists; the session itself checks only what needs the workload, executor
    or engine.

    Args:
        workload: the workload (circuit + kind + observable) to evaluate.
        config: the cutting meta parameters (a ``CutConfig``).
        executor: a variant-execution backend; mutually exclusive with
            ``engine``.  ``None`` lets the engine build its configured default.
        compute_reference: additionally simulate the uncut circuit so accuracy
            can be reported (only feasible for small N).
        force_greedy: always use the greedy heuristic cutter (otherwise the
            exact ILP, falling back to greedy past its size limit, as in
            :func:`~repro.core.cut_circuit`).
        engine: a prebuilt :class:`~repro.engine.ParallelEngine` to share
            (pools, caches and device farm survive across sessions); the
            session then never closes it.  Mutually exclusive with
            ``executor``.
        engine_config: the session's :class:`~repro.engine.EngineConfig`.
            Without ``engine``, the session builds its own engine from it
            (closed when the session finishes), seeding the sampling executor
            it builds for ``shots`` with the config's ``seed``.  With a shared
            ``engine`` it carries this session's policy (``shots``,
            ``allocation``, ``pruning``, ``streaming``, ``stopping``,
            ``qubit_limit``, ``recursion_depth``, ``optimize_overhead``); its
            engine-level fields (``max_workers``, ``chunk_size``,
            ``cache_size``, ``devices``, ``routing``) must equal the engine's
            own, otherwise :class:`~repro.exceptions.CuttingError` names the
            fields that differ.  A config ``seed`` alongside a supplied
            executor or engine raises :class:`~repro.exceptions.CuttingError`
            (seed those at construction instead).  ``None`` uses the
            engine's config, or the defaults.

    A ``stopping`` rule without ``streaming`` runs the default
    :class:`~repro.service.StreamingConfig` cadence, and
    ``optimize_overhead="weights"`` with a ``shots`` budget upgrades a
    ``"uniform"`` allocation to ``"weighted"`` (a uniform split would ignore
    the optimized weights); :attr:`settings` holds the config with both
    resolved.

    Drive it either with :meth:`run` (prepare, consume every round, finish) or
    manually — ``prepare()``, then ``step()`` until it returns ``False``, then
    ``finish()`` — remembering ``close()`` in a ``finally``.  ``run()`` does
    all of that and is what :func:`repro.core.evaluate_workload` calls.
    """

    def __init__(
        self,
        workload: Workload,
        config: Any,
        executor: Optional[VariantExecutor] = None,
        compute_reference: bool = True,
        force_greedy: bool = False,
        engine: Optional[ParallelEngine] = None,
        engine_config: Optional[EngineConfig] = None,
    ) -> None:
        if workload.kind == WorkloadKind.PROBABILITY and config.enable_gate_cuts:
            raise CuttingError(
                "gate cutting cannot be used for probability-vector workloads (Section 2.3.2)"
            )
        if engine is not None and executor is not None:
            raise CuttingError("pass either a prebuilt engine or an executor, not both")
        settings = engine_config or (engine.config if engine is not None else EngineConfig())
        if engine is not None:
            mismatched = [
                name
                for name in _ENGINE_FIELDS
                if getattr(settings, name) != getattr(engine.config, name)
            ]
            if mismatched:
                raise CuttingError(
                    f"engine_config must match the shared engine's config on "
                    f"{', '.join(mismatched)}: those configure the engine itself"
                )
        # EngineConfig validates every knob (and knob combination) it holds;
        # only the checks that need the workload, executor or engine stay here.
        if settings.seed is not None and (engine is not None or executor is not None):
            raise CuttingError(
                "seed only applies to the SamplingExecutor the session builds "
                "itself; seed a supplied executor/engine at construction instead"
            )
        if settings.qubit_limit is not None and workload.kind != WorkloadKind.PROBABILITY:
            raise ConfigError(
                "qubit_limit (dynamic definition) bins the reconstructed "
                "probability vector and only applies to probability workloads; "
                "expectation values are already scalar"
            )
        if settings.stopping is not None and settings.streaming is None:
            # A stopping rule without an explicit round plan still needs
            # rounds to check itself between; give it the default cadence.
            settings = settings.with_(streaming=StreamingConfig())
        if (
            settings.optimize_overhead != "none"
            and settings.shots is not None
            and settings.allocation == "uniform"
        ):
            # A uniform split ignores per-variant weights entirely; the
            # optimized split is the whole point of the pass.
            settings = settings.with_(allocation="weighted")

        self.workload = workload
        self.config = config
        self.compute_reference = compute_reference
        self.force_greedy = force_greedy
        self.settings = settings

        self.owns_engine = engine is None
        if engine is None:
            if executor is None and settings.shots is not None:
                executor = SamplingExecutor(
                    shots=settings.shots, seed=settings.seed, cache=ResultCache(settings.cache_size)
                )
            engine = ParallelEngine(executor, settings)
        samples = samples_shots(engine.executor)
        if settings.shots is not None and not samples:
            raise CuttingError(
                f"shots={settings.shots} needs a sampling-capable executor with per-variant "
                f"shot allocation (e.g. SamplingExecutor), got {type(engine.executor).__name__}"
            )
        if settings.shots is None and samples:
            # Without a budget the executor would sample every variant at its
            # own default shots, unallocated and unmetered.
            raise ConfigError(
                f"an exact evaluation (shots=None) cannot run on a sampling executor "
                f"({type(engine.executor).__name__}): set EngineConfig.shots to the "
                f"shot budget to spend"
            )
        self.engine = engine

        # ---------------------------------------------------------- run state
        self._state = "created"
        # Sum of the engine-stats deltas of every window (see _window).
        self._stats_delta: Optional[EngineStats] = None
        self._started: Optional[float] = None
        self._plan = None
        self._reconstructor: Optional[CutReconstructor] = None
        self._batch: Optional[RequestBatch] = None
        self._weights: Optional[Dict[str, float]] = None
        self._overhead_report = None
        self._pruning_report = None
        self._shot_allocation: Optional[ShotAllocation] = None
        self._contract: Optional[Callable[[Any], Any]] = None
        # The final contraction and the EvaluationResult field it fills.
        self._final: Optional[Tuple[str, Callable[[Any], Any]]] = None
        self._incremental: Optional[IncrementalReconstructor] = None
        self._chunk_history: Optional[List] = None
        self._table = None
        self._cum: Dict[str, int] = {}
        self._seed_totals: Dict[str, int] = {}
        self._base_chunks: Dict[str, List[int]] = {}
        self._round_budgets: List[int] = []
        self._rounds_done = 0
        self._shots_spent = 0
        self._termination_reason: Optional[str] = None
        # Stage -> wall-clock seconds; EvaluationResult.timings derives from it.
        self._ledger: Dict[str, float] = {}

    @contextmanager
    def _stage(self, name: str) -> Iterator[None]:
        """Charge the enclosed block's wall clock to stage ``name`` of the ledger."""
        start = perf_clock()
        yield
        self._ledger[name] = self._ledger.get(name, 0.0) + perf_clock() - start

    @contextmanager
    def _window(self) -> Iterator[None]:
        """Add the engine work done inside the block to the session's stats."""
        before = self.engine.stats
        try:
            yield
        finally:
            delta = self.engine.stats.since(before)
            total = self._stats_delta
            self._stats_delta = delta if total is None else total + delta

    # ------------------------------------------------------------------ properties
    @property
    def state(self) -> str:
        """``"created"``, ``"prepared"``, ``"done"`` or ``"finished"``."""
        return self._state

    @property
    def rounds_done(self) -> int:
        """Sampling rounds completed so far."""
        return self._rounds_done

    @property
    def shots_spent(self) -> int:
        """Shots drawn so far (pilot + cumulative rounds)."""
        return self._shots_spent

    @property
    def termination_reason(self) -> Optional[str]:
        """Why the session stopped (see ``STOP_REASONS``); ``None`` while running."""
        return self._termination_reason

    @property
    def shots(self) -> Optional[int]:
        """The session's finite-shot budget (``None`` = exact execution)."""
        return self.settings.shots

    @property
    def streaming_active(self) -> bool:
        """Whether this session consumes its budget in cumulative rounds."""
        return self.settings.streaming is not None

    @property
    def _z_value(self) -> float:
        stopping = self.settings.stopping
        return stopping.z_value if stopping is not None else 1.96

    # ------------------------------------------------------------------ lifecycle
    def prepare(self) -> None:
        """Cut, enumerate, prune and plan the shot rounds (no round executes yet)."""
        if self._state != "created":
            raise CuttingError(f"prepare() called on a session in state {self._state!r}")
        from ..core.pipeline import cut_circuit

        settings = self.settings
        pruning = PruningPolicy.resolve(settings.pruning)
        self._started = perf_clock()
        with self._window():
            with self._stage("cut"):
                self._plan = cut_circuit(
                    self.workload.circuit,
                    self.config,
                    force_greedy=self.force_greedy,
                )
            if self.engine.farm is not None:
                self.engine.farm.check_width(self._plan.max_width)
            self._reconstructor = CutReconstructor(
                self._plan.solution, specs=self._plan.structure, engine=self.engine
            )

            needs_weights = (
                not pruning.is_none
                or (settings.shots is not None and settings.allocation in ("weighted", "variance"))
                or (self.streaming_active and settings.streaming.replan)
                or settings.optimize_overhead != "none"
            )
            weights: Optional[Dict[str, float]] = {} if needs_weights else None
            # Enumeration is phase one of reconstruction: the "reconstruct"
            # stage covers it, every streaming fold and the final contraction.
            with self._stage("reconstruct"):
                if self.workload.kind == WorkloadKind.EXPECTATION:
                    batch = self._reconstructor.enumerate_expectation_requests(
                        self.workload.observable, weights_out=weights
                    )
                else:
                    batch = self._reconstructor.enumerate_probability_requests(
                        weights_out=weights
                    )
            self._weights = weights

            if settings.optimize_overhead != "none":
                optimized, overhead_report = optimize_overhead_weights(batch, weights or {})
                self._ledger["optimize"] = overhead_report.optimize_seconds
                effective = settings.allocation if settings.shots is not None else None
                self._overhead_report = dataclass_replace(
                    overhead_report, effective_allocation=effective
                )
                self._weights = optimized

            missing = "execute"
            if not pruning.is_none:
                with self._stage("prune"):
                    # The optimized weights (if any) rank the drop; the bias
                    # bound is taken over the true contraction weights.
                    batch, self._pruning_report = prune_requests(
                        batch, self._weights, pruning, bound_weights=weights
                    )
                missing = "skip"
            self._batch = batch

            totals: Dict[str, int] = {}
            if settings.shots is not None:
                with self._stage("allocate"):
                    shot_allocation = allocate_shots(
                        batch,
                        settings.shots,
                        settings.allocation,
                        weights=self._weights,
                        engine=self.engine,
                    )
                self._shot_allocation = shot_allocation
                # The pilot batch (variance policy) is execution, not allocation math.
                self._ledger["allocate"] -= shot_allocation.pilot_seconds
                self._ledger["execute"] = shot_allocation.pilot_seconds
                self._shots_spent += sum(
                    shot_allocation.pilot_shots_by_fingerprint.values()
                )
                totals = {
                    key: int(count)
                    for key, count in shot_allocation.shots_by_fingerprint.items()
                }
            self._plan_rounds(totals)
            self._pick_contractions(missing)
            if self.streaming_active:
                self._incremental = IncrementalReconstructor(self._contract)
        self._state = "prepared"

    def _pick_contractions(self, missing: str) -> None:
        """Pick the per-table contraction (the streaming fold's) and the final one.

        They are the same, except under dynamic definition: the fold contracts
        the plan's root bins, and :meth:`finish` runs the recursive zoom, which
        replays the recorded chunks at every level.
        """
        rec = self._reconstructor
        if self.workload.kind == WorkloadKind.EXPECTATION:
            observable = self.workload.observable
            self._contract = partial(rec.reconstruct_expectation, observable, missing=missing)
            self._final = ("expectation_value", self._contract)
        elif self.settings.qubit_limit is None:
            self._contract = partial(rec.reconstruct_probabilities, missing=missing)
            self._final = ("probabilities", self._contract)
        else:
            settings = self.settings
            dd_plan = plan_dynamic_definition(
                rec.solution, rec.specs, settings.qubit_limit, settings.recursion_depth
            )
            root = dd_plan.space(0, ())
            self._contract = partial(binned_probabilities, rec, root, missing=missing)
            self._chunk_history = []
            zoom = partial(
                reconstruct_dynamic,
                rec,
                dd_plan,
                missing=missing,
                chunk_history=self._chunk_history,
                z_value=self._z_value,
            )
            self._final = ("dynamic_result", zoom)

    def _plan_rounds(self, totals: Dict[str, int]) -> None:
        """Split every variant's final shot count into per-round cumulative chunks.

        Without streaming the plan is one round whose chunk is the totals
        (empty in exact mode, where nothing is sampled).
        """
        self._seed_totals = totals
        requested = self.settings.streaming.rounds if self.streaming_active else 1
        # Every variant must receive >= 1 fresh shot per round (the allocator's
        # own floor), so the round count is clamped to the smallest allocation.
        rounds = max(1, min(requested, min(totals.values(), default=1)))
        self._base_chunks = {
            key: [count // rounds + (1 if index < count % rounds else 0) for index in range(rounds)]
            for key, count in totals.items()
        }
        self._round_budgets = [
            sum(chunks[index] for chunks in self._base_chunks.values())
            for index in range(rounds)
        ]

    def _chunk_for_round(self, round_index: int) -> Dict[str, int]:
        """This round's fresh-shot counts per variant (re-planned when asked)."""
        if round_index == 0 or not self.settings.streaming.replan:
            return {key: chunks[round_index] for key, chunks in self._base_chunks.items()}
        # Neyman re-split of this round's chunk budget from the variances
        # observed in the cumulative sample so far (same weight as the batch
        # allocator's final pass, but fed by real rounds instead of a pilot).
        weights = self._weights or {}
        neyman = {
            key: neyman_weight(weights.get(key, 1.0), self._table[key], self._cum[key])
            for key in self._seed_totals
        }
        return largest_remainder_split(self._round_budgets[round_index], neyman)

    def step(self) -> bool:
        """Execute one round; returns ``True`` while more rounds are pending.

        A round passes the growing cumulative counts with the final totals as
        seed counts (so draws are prefixes) and executes (the sampler resumes
        each variant's generator and draws only the round's new shots).  A
        streaming session then folds the fresh chunk into the incremental
        estimate and checks the stopping rule; any other session has planned
        exactly one round, so its first step is its last.
        """
        if self._state != "prepared":
            raise CuttingError(f"step() called on a session in state {self._state!r}")
        with self._window():
            chunk = self._chunk_for_round(self._rounds_done)
            cumulative = {key: self._cum.get(key, 0) + count for key, count in chunk.items()}
            # Same stage ("") and seed totals every round: the prefix-stable
            # sampler then guarantees each round's sample extends the last,
            # and the final round (cumulative == totals) draws under exactly
            # the seed and cache key of a one-round plan (build_cache_key
            # omits seed counts equal to the drawn ones).
            plan = None
            if self.settings.shots is not None:
                plan = ShotPlan(cumulative, seed_shots_by_fingerprint=self._seed_totals)
            with self._stage("execute"):
                table = self.engine.run_batch(self._batch, shots=plan)

            chunk_shots = sum(chunk.values())
            if self._incremental is not None:
                with self._stage("reconstruct"):
                    chunk_table = difference_tables(table, self._table, cumulative, self._cum)
                    self._incremental.fold(chunk_table, weight=chunk_shots)
                    if self._chunk_history is not None:
                        # The dynamic-definition zoom replays every chunk at
                        # every recursion level, so per-level confidence
                        # intervals compose with early termination.
                        self._chunk_history.append((chunk_table, chunk_shots))

            self._table = table
            self._cum = cumulative
            self._rounds_done += 1
            self._shots_spent += chunk_shots

            pending = self._rounds_done < len(self._round_budgets)
            if self._incremental is not None:
                reason = None
                stopping = self.settings.stopping
                if stopping is not None:
                    reason = stopping.should_stop(
                        rounds=self._rounds_done,
                        shots_spent=self._shots_spent,
                        elapsed_seconds=perf_clock() - self._started,
                        half_width=self._incremental.half_width(stopping.z_value),
                    )
                if reason is None and not pending:
                    reason = "completed"
                self._termination_reason = reason
                pending = reason is None
            if not pending:
                self._state = "done"
            return pending

    def finish(self) -> Any:
        """Contract the final estimate, build and return the ``EvaluationResult``."""
        if self._state != "done":
            raise CuttingError(f"finish() called on a session in state {self._state!r}")
        from ..core.pipeline import EvaluationResult
        from ..simulator import simulate_statevector

        result = EvaluationResult(plan=self._plan)
        result.pruning_report = self._pruning_report
        result.shot_allocation = self._shot_allocation
        result.overhead_report = self._overhead_report

        with self._window():
            field, contract = self._final
            with self._stage("reconstruct"):
                setattr(result, field, contract(self._table))
            result.contraction_report = self._reconstructor.last_contraction_report

        if self.compute_reference:
            with self._stage("reference"):
                state = simulate_statevector(self.workload.circuit)
                if self.workload.kind == WorkloadKind.EXPECTATION:
                    result.reference_expectation = state.expectation(self.workload.observable)
                else:
                    result.reference_probabilities = state.probabilities()

        result.num_variant_evaluations = self._stats_delta.unique_executions
        result.engine_stats = self._stats_delta
        result.rounds = self._rounds_done
        result.shots_spent = self._shots_spent
        result.termination_reason = self._termination_reason
        if self._incremental is not None:
            result.half_width = self._incremental.half_width(self._z_value)
            stopping = self.settings.stopping
            result.confidence = stopping.confidence if stopping is not None else 0.95
        result.timings = dict(self._ledger, total=sum(self._ledger.values()))
        report = result.contraction_report
        if report is not None:
            result.timings["plan"] = report.plan_seconds
            result.timings["contract"] = report.contract_seconds
            result.timings["merge"] = report.merge_seconds
        self._state = "finished"
        return result

    def close(self) -> None:
        """Close the engine when this session built it itself (idempotent).

        A shared engine holds nothing of the session (every batch carried its
        own shot plan), so there is nothing to release on it.
        """
        if self.owns_engine:
            self.engine.close()

    def run(self) -> Any:
        """Prepare, consume every round, finish, close; returns the result."""
        try:
            self.prepare()
            while self.step():
                pass
            return self.finish()
        finally:
            self.close()
