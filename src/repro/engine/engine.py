"""The batched, parallel variant-execution engine.

:class:`ParallelEngine` sits between reconstruction and the executors.  The
reconstructor *enumerates* every subcircuit variant its contraction will need and
hands the whole batch over (a :class:`~repro.engine.RequestBatch`: distinct
rows with read counts); the engine dedups the batch by fingerprint, satisfies
repeats from the shared LRU cache, and dispatches the remaining unique requests —
serially in-process when ``max_workers == 1``, otherwise chunked across a
process pool.  With a device farm configured (:mod:`repro.engine.devices`),
each unique request is first routed to a device whose qubit capacity fits the
variant's post-reuse width; device lanes bound per-device concurrency and feed
the utilization report.  A sampling batch carries its own
:class:`~repro.engine.allocation.ShotPlan` (``run_batch(batch, shots=plan)``),
which travels with every chunk to the workers and to farm routing; the engine
keeps no shot counts between batches.

Determinism is a hard guarantee: stochastic executors are seeded per request from
the request fingerprint (see :func:`repro.engine.requests.seed_from_fingerprint`),
so a batch produces bit-identical results regardless of worker count, chunking or
completion order.
"""

from __future__ import annotations

import math
import operator
import os
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import AllocationError
from .allocation import ShotPlan, samples_shots
from .cache import ResultCache
from .config import EngineConfig
from .devices import DeviceFarm, DeviceUtilization
from .requests import VariantResult
from ..utils.timing import perf_clock

__all__ = ["EngineStats", "ParallelEngine"]

#: A pending request as handed to a dispatch backend: (fingerprint, variant, seed).
PendingRequest = Tuple[str, object, Optional[Tuple[int, ...]]]

#: One unit of pool work: ``fn(*args)``.
Call = Tuple[Callable[..., Any], Tuple]

#: Placeholder for a result the pool has not (yet) delivered.
_PENDING = object()


def _run_chunk(
    executor: Any, chunk: Sequence[PendingRequest], shots: Optional[ShotPlan]
) -> List[Tuple[str, VariantResult]]:
    """Run one chunk on ``executor`` through its batch fast path when it has one.

    ``run_many`` lets batch-capable executors (the vectorized
    :class:`~repro.cutting.executors.BatchedExactExecutor`) evaluate a whole
    chunk in grouped passes, drawing the batch's ``shots`` plan when they
    sample; duck-typed executors without it (never given a plan, see
    :meth:`ParallelEngine.run_batch_timed`) fall back to the
    one-request-at-a-time protocol call.
    """
    run_many = getattr(executor, "run_many", None)
    if run_many is not None:
        return list(run_many(chunk, shots=shots))
    return [(key, executor.execute_variant(variant, seed=seed)) for key, variant, seed in chunk]


def _execute_chunk(
    executor_cls: Any,
    spawn_args: Tuple,
    chunk: Sequence[PendingRequest],
    shots: Optional[ShotPlan],
) -> List[Tuple[str, VariantResult]]:
    """Process-pool worker: rebuild the executor from its spawn spec, run a chunk."""
    return _run_chunk(executor_cls(*spawn_args), chunk, shots)


#: The fields of EngineStats, keys of its cache dict and fields of each
#: DeviceUtilization that count work; every other one is state.
_COUNTERS = (
    "requests",
    "unique_executions",
    "dedup_hits",
    "cache_hits",
    "batches",
    "execute_seconds",
)
_CACHE_COUNTERS = ("hits", "misses", "evictions")
_DEVICE_COUNTERS = ("assigned", "busy_seconds", "queue_seconds")


@dataclass(frozen=True)
class EngineStats:
    """Aggregate counters of an engine's lifetime (all batches so far).

    ``unique_executions`` is the dedup-aware execution count — the single
    authoritative source for ``EvaluationResult.num_variant_evaluations``.
    ``devices`` / ``routing`` report the device farm's per-device utilization
    and the active routing policy (``None`` without a farm).  Per-call numbers
    come from :meth:`since` on two snapshots, and ``+`` sums such deltas; both
    go through one field-wise helper, the only code that knows which fields
    are counters.
    """

    requests: int
    unique_executions: int
    dedup_hits: int
    cache_hits: int
    batches: int
    execute_seconds: float
    cache: Dict[str, int]
    devices: Optional[Tuple[DeviceUtilization, ...]] = None
    routing: Optional[str] = None

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        row: Dict[str, object] = {
            "requests": self.requests,
            "unique_executions": self.unique_executions,
            "dedup_hits": self.dedup_hits,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "execute_seconds": round(self.execute_seconds, 4),
        }
        if self.routing is not None:
            row["routing"] = self.routing
        return row

    def since(self, baseline: "EngineStats") -> "EngineStats":
        """Per-call delta of this snapshot against an earlier ``baseline``.

        This is what makes one evaluation's stats meaningful on an engine
        shared across workloads — lifetime counters conflate them.
        """
        return self._combine(baseline, operator.sub)

    def __add__(self, later: "EngineStats") -> "EngineStats":
        """Accumulate the ``later`` window's delta onto this one.

        Summing the consecutive ``since`` deltas of snapshots ``s0..sn`` gives
        ``sn.since(s0)``: counters add up, state comes from the last window.
        """
        return later._combine(self, operator.add)

    def _combine(self, earlier: "EngineStats", op: Callable[[Any, Any], Any]) -> "EngineStats":
        """``op(self, earlier)`` on every counter; state fields keep this snapshot's values.

        Devices are matched by name; a device missing from ``earlier`` keeps
        its own counters.
        """

        def counters(later: Any, before: Any, names: Sequence[str]) -> Dict[str, Any]:
            return {name: op(getattr(later, name), getattr(before, name)) for name in names}

        cache = dict(self.cache)
        for key in _CACHE_COUNTERS:
            cache[key] = op(cache.get(key, 0), earlier.cache.get(key, 0))
        devices = self.devices
        if devices is not None:
            before = {report.name: report for report in (earlier.devices or ())}
            devices = tuple(
                replace(report, **counters(report, before[report.name], _DEVICE_COUNTERS))
                if report.name in before
                else report
                for report in devices
            )
        return replace(self, cache=cache, devices=devices, **counters(self, earlier, _COUNTERS))


class ParallelEngine:
    """Batched variant execution with dedup, shared caching and worker pools.

    The engine wraps a :class:`~repro.cutting.executors.VariantExecutor` backend.
    ``run_batch`` is the one entry point; single-variant convenience calls on the
    executor itself also flow through the same dedup/cache path, so counters stay
    consistent however the backend is driven.
    """

    def __init__(self, executor: Any = None, config: Optional[EngineConfig] = None) -> None:
        self._config = config or EngineConfig()
        if executor is None:
            from ..cutting.executors import BatchedExactExecutor

            executor = BatchedExactExecutor(cache=ResultCache(self._config.cache_size))
        # A caller-supplied executor keeps whatever cache it was built with:
        # config.cache_size only sizes the cache of engine-created executors,
        # so an explicit memory bound is never silently replaced.
        self._executor = executor
        self._farm: Optional[DeviceFarm] = (
            DeviceFarm(self._config.devices, self._config.routing)
            if self._config.devices
            else None
        )
        # Heterogeneous farms change which backend a fingerprint runs on; scope
        # the executor's cache keys so those results never alias a farm-less
        # (or differently-farmed) run in a shared cache.  Always assigned —
        # including None — so an executor reused from an earlier farmed engine
        # does not carry a stale scope into this one.
        set_scope = getattr(self._executor, "set_cache_scope", None)
        if set_scope is not None:
            set_scope(None if self._farm is None else self._farm.cache_scope())
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        self._batches = 0
        self._execute_seconds = 0.0

    # ------------------------------------------------------------------ accessors
    @property
    def executor(self) -> Any:
        return self._executor

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def cache(self) -> ResultCache:
        return self._executor.cache

    @property
    def farm(self) -> Optional[DeviceFarm]:
        """The device farm routing this engine's batches (None without one)."""
        return self._farm

    @property
    def executions(self) -> int:
        """Dedup-aware count of variant circuits actually executed."""
        return self._executor.executions

    @property
    def stats(self) -> EngineStats:
        return EngineStats(
            requests=self._executor.requests,
            unique_executions=self._executor.executions,
            dedup_hits=self._executor.dedup_hits,
            cache_hits=self._executor.cache_hits,
            batches=self._batches,
            execute_seconds=self._execute_seconds,
            cache=self._executor.cache.stats(),
            devices=None if self._farm is None else self._farm.utilization(),
            routing=None if self._farm is None else self._farm.routing,
        )

    # ------------------------------------------------------------------ execution
    def run_batch(
        self, variants: Iterable, shots: Optional[ShotPlan] = None
    ) -> Dict[str, VariantResult]:
        """Execute a batch of variants; return ``fingerprint -> VariantResult``.

        ``variants`` is a :class:`~repro.engine.RequestBatch` (distinct rows
        with read counts, as enumeration returns it) or any iterable of
        variants, each item one read.  The returned table covers every
        distinct fingerprint in it (deduped requests map to the single shared
        result).  ``shots`` is the
        :class:`~repro.engine.allocation.ShotPlan` this batch draws (see
        :meth:`run_batch_timed`); ``None`` samples every request at the
        executor's default ``shots``.
        """
        table, _ = self.run_batch_timed(variants, shots=shots)
        return table

    def run_batch_timed(
        self, variants: Iterable, shots: Optional[ShotPlan] = None
    ) -> Tuple[Dict[str, VariantResult], float]:
        """Like :meth:`run_batch`, also returning this batch's wall-clock seconds.

        The per-batch timing is what callers should report for a single
        evaluation: deltas of the lifetime ``stats.execute_seconds`` counter are
        inflated by concurrent batches when an engine is shared across threads.

        ``shots`` needs a sampling-capable executor and, with a device farm, a
        homogeneous one: heterogeneous farms (noise/executor_factory) run
        their own backends, which would silently ignore the plan.  Either
        mismatch raises :class:`~repro.exceptions.AllocationError` before
        anything runs.
        """
        if shots is not None:
            if not samples_shots(self._executor):
                raise AllocationError(
                    f"a shot plan needs a sampling-capable executor (e.g. SamplingExecutor), "
                    f"got {type(self._executor).__name__}"
                )
            if self._farm is not None and self._farm.is_heterogeneous:
                raise AllocationError(
                    "per-variant shot allocation requires the farm's devices to share "
                    "the engine executor; heterogeneous farms (noise/executor_factory) "
                    "run their own backends, which would silently ignore the allocation"
                )
        start = perf_clock()
        # A farm always routes (even serially): feasibility is checked and
        # utilization tracked regardless of worker count.
        needs_dispatch = self._farm is not None or self.workers > 1
        dispatch = self._dispatch if needs_dispatch else None
        table = self._executor.run_batch(variants, dispatch=dispatch, shots=shots)
        seconds = perf_clock() - start
        self._execute_seconds += seconds
        self._batches += 1
        return table, seconds

    # ------------------------------------------------------------------ sharding
    @property
    def workers(self) -> int:
        """Worker budget of batch execution and sharded contraction.

        ``max_workers``, or the CPU count when it is ``None``.
        """
        workers = self._config.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        return max(1, workers)

    def map_shards(
        self, fn: Any, tasks: Sequence[Tuple]
    ) -> Tuple[List, bool]:
        """Run ``fn(*args)`` for every args-tuple in ``tasks``, preserving order.

        The contraction layer's sharding entry point: ``fn`` must be a plain
        picklable module-level function whose arguments carry *all* its state
        (dense NumPy tables, index maps) — shards share no memos or caches, so
        nothing leaks across the process boundary.  Work is submitted to the
        same pool batch execution uses; with one task or one worker
        everything runs in-process.

        Returns ``(results, fell_back)``; a broken pool degrades to serial as
        described in :meth:`_pool_map`, and ``fell_back`` is then ``True`` —
        results are identical either way because shards are independent and
        merged deterministically by the caller.
        """
        calls = [(fn, tuple(args)) for args in tasks]
        return self._pool_map(calls, calls)

    # ------------------------------------------------------------------ dispatch

    def _chunked(self, pending: Sequence[PendingRequest]) -> List[List[PendingRequest]]:
        size = self._config.chunk_size
        if size is None:
            size = max(1, math.ceil(len(pending) / (self.workers * 4)))
        return [list(pending[i : i + size]) for i in range(0, len(pending), size)]

    def _dispatch(
        self,
        executor: Any,
        pending: Sequence[PendingRequest],
        shots: Optional[ShotPlan],
    ) -> List[Tuple[str, VariantResult]]:
        """Run unique cache-miss requests across the worker pool (or serially).

        Without a device farm the whole batch runs on ``executor``.  With one,
        the farm first routes every request to a feasible device (raising
        :class:`~repro.exceptions.InfeasibleVariantError` when a variant is
        wider than every device); each device's lane then runs on that device's
        executor, chunked into at most ``DeviceSpec.lanes`` worker tasks so a
        device's parallelism never exceeds what its hardware could offer, and
        all devices' tasks share one worker pool (devices execute
        concurrently, like a real farm).  Lanes are built in device
        declaration order and requests keep a deterministic order inside a
        lane (enumeration order, grouped by table and twin class), so results
        stay bit-identical for any worker count.  Every chunk
        carries the batch's ``shots`` plan, and routing charges each request
        the shots that plan draws for it.
        """
        if self._farm is None:
            pending = self._grouped(pending)
            tasks = [(executor, chunk) for chunk in self._chunked(pending)]
            return self._run_tasks(tasks, shots)
        before = self._farm.snapshot()
        lanes = self._farm.route(pending, shots=shots)
        tasks: List[Tuple[object, List[PendingRequest]]] = []
        for spec in self._farm.devices:
            lane = lanes.get(spec.name)
            if not lane:
                continue
            lane_executor = self._farm.executor_for(spec, default=executor)
            lane = self._grouped(lane)
            for chunk in self._chunked_lane(lane, spec):
                tasks.append((lane_executor, chunk))
        try:
            return self._run_tasks(tasks, shots)
        except BaseException:
            # Nothing executed (or nothing was recorded — a failed dispatch
            # caches no results): utilization must not keep counts for work
            # that never ran, or retries would double-count against the
            # executor's execution counters.
            self._farm.restore(before)
            raise

    @staticmethod
    def _grouped(pending: Sequence[PendingRequest]) -> Sequence[PendingRequest]:
        """Reorder pending requests by (variant table, twin class).

        Chunking then hands each worker contiguous rows of few tables, and
        whole twin classes (``VariantTable.twin_class``: rows a batched pass
        evolves once), so batch-capable executors keep their per-table
        passes, evolve each class once and a chunk's pickle carries each of
        its tables once.  Tables and their classes come in first-seen order
        and requests keep their order within a class; foreign payloads
        (duck-typed executors' requests without a table) form one group of
        their own.
        As for any reordering, results are unaffected: every request is
        evaluated independently and collected by fingerprint.
        """
        owners: Dict[int, List[int]] = {}
        for index, (_, variant, _) in enumerate(pending):
            owners.setdefault(id(getattr(variant, "table", None)), []).append(index)
        order: List[int] = []
        for indices in owners.values():
            table = getattr(pending[indices[0]][1], "table", None)
            if table is not None:
                twins = table.twin_class[[pending[index][1].row for index in indices]].tolist()
                rank = {twin: n for n, twin in enumerate(dict.fromkeys(twins))}
                ranked = sorted(zip([rank[twin] for twin in twins], indices))
                indices = [index for _, index in ranked]
            order += indices
        return [pending[index] for index in order]

    def _chunked_lane(
        self, lane: Sequence[PendingRequest], spec: Any
    ) -> List[List[PendingRequest]]:
        """Chunk one device's lane into at most ``spec.lanes`` worker tasks.

        The lane cap is a hard bound — an explicit ``chunk_size`` can make
        chunks *bigger* (fewer tasks) but never split a device's lane into
        more concurrent streams than its hardware offers.
        """
        size = max(1, math.ceil(len(lane) / max(1, spec.lanes)))
        if self._config.chunk_size is not None:
            size = max(size, self._config.chunk_size)
        return [list(lane[i : i + size]) for i in range(0, len(lane), size)]

    def _run_tasks(
        self,
        tasks: Sequence[Tuple[object, List[PendingRequest]]],
        shots: Optional[ShotPlan],
    ) -> List[Tuple[str, VariantResult]]:
        """Execute ``(executor, chunk)`` tasks — one pool across all executors."""
        local: List[Call] = [
            (_run_chunk, (executor, chunk, shots)) for executor, chunk in tasks
        ]
        remote: Optional[List[Call]] = None
        # max_workers=1 stays serial in-process even under a multi-device farm:
        # routing models *placement*, the worker count models *this host*.
        if len(tasks) > 1 and self.workers > 1:
            # Pre-flight every distinct executor's spawn spec; the first
            # unpicklable backend degrades the whole batch to serial (the
            # warning in _spawnable fires).
            specs: Dict[int, Tuple] = {}
            for executor, _ in tasks:
                spec = specs.get(id(executor)) or self._spawnable(executor)
                if spec is None:
                    break
                specs[id(executor)] = spec
            else:
                remote = [
                    (_execute_chunk, (*specs[id(executor)], chunk, shots))
                    for executor, chunk in tasks
                ]
        chunks, _ = self._pool_map(local, remote)
        return [pair for chunk in chunks for pair in chunk]

    def _pool_map(
        self, local: Sequence[Call], remote: Optional[Sequence[Call]]
    ) -> Tuple[List, bool]:
        """Run every call of ``local`` in order; return ``(results, fell_back)``.

        ``remote`` holds the same calls in their worker-pool form, or ``None``
        to keep everything in-process.  With one call, one worker or no pool,
        the ``local`` calls run in-process on the caller's own objects (never
        on a copy rebuilt for transport, which would lose in-process memos).

        Only a broken pool degrades: ``BrokenExecutor`` from ``result()``, or
        ``RuntimeError``/``OSError`` from ``submit()`` (a pool shut down
        between calls).  Calls that still completed are salvaged — rerunning
        them would double-execute variants and waste a sampling batch's shot
        budget — the rest rerun in-process in order, one ``RuntimeWarning``
        fires and ``fell_back`` is ``True``.  Any other exception is the
        task's own: pending calls are cancelled, it propagates unchanged, and
        the pool stays usable.
        """
        pool = None
        if remote is not None and len(local) > 1 and self.workers > 1:
            pool = self._ensure_pool()
        if remote is None or pool is None:
            return [fn(*args) for fn, args in local], False
        results: List = [_PENDING] * len(local)
        futures: List[Future] = []
        error: Optional[BaseException] = None
        try:
            for fn, args in remote:
                futures.append(pool.submit(fn, *args))
        except (RuntimeError, OSError) as submit_error:
            error = submit_error
        if error is None:
            try:
                for index, future in enumerate(futures):
                    results[index] = future.result()
                return results, False
            except BrokenExecutor as broken:
                error = broken
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        warnings.warn(
            f"worker pool failed ({error!r}); falling back to serial execution "
            "of the unfinished tasks",
            RuntimeWarning,
            stacklevel=3,
        )
        for index, future in enumerate(futures):
            if results[index] is _PENDING and not future.cancel():
                try:
                    results[index] = future.result()
                except Exception:
                    pass  # rerun in-process below
        self._teardown_pool(broken=True)
        for index, (fn, args) in enumerate(local):
            if results[index] is _PENDING:
                results[index] = fn(*args)
        return results, True

    def _spawnable(self, executor: Any) -> Optional[Tuple]:
        """Pre-flight the executor's spawn spec for process-pool transport.

        Pickling is checked *before* anything is submitted: a task that fails to
        pickle inside the pool's management thread can leave the pool in a state
        that hangs shutdown, so unpicklable executors never reach it.  Returns
        ``None`` (serial fallback) when the spec cannot cross the process
        boundary.
        """
        import pickle

        try:
            # spawn_spec() itself is part of the pre-flight: a duck-typed
            # executor without one (AttributeError) degrades to serial exactly
            # like an unpicklable spec would.
            spec = executor.spawn_spec()
            pickle.dumps(spec)
            return spec
        except Exception as error:
            warnings.warn(
                f"executor cannot be shipped to worker processes ({error!r}); "
                "running serially (give it a picklable spawn_spec)",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool is not None or self._pool_broken:
            return self._pool
        # One pool serves both batch execution and sharded contraction.
        try:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        except (OSError, ValueError, ImportError) as error:
            warnings.warn(
                f"could not start a worker pool ({error!r}); running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            self._pool_broken = True
        return self._pool

    def _teardown_pool(self, broken: bool = False) -> None:
        if self._pool is not None:
            # A healthy pool is joined, so its workers and management thread
            # are gone before the interpreter's exit hook runs (which would
            # otherwise write to an already closed wakeup pipe).  A broken pool
            # is never joined (wait=True can deadlock on a half-shut
            # management thread): cancel queued work and move on.
            self._pool.shutdown(wait=not broken, cancel_futures=True)
            self._pool = None
        self._pool_broken = broken

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut down the worker pool (idempotent; the engine stays usable serially)."""
        self._teardown_pool(broken=False)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
