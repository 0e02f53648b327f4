"""Tests for the batched parallel execution engine (repro.engine)."""

import warnings

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.core import CutConfig, EngineConfig, evaluate_workload
from repro.cutting import (
    CutReconstructor,
    CutSolution,
    GateCut,
    NoisyExecutor,
    SamplingExecutor,
    extract_subcircuits,
)
from repro.cutting.variants import VariantBuilder, VariantSettings
from repro.engine import (
    DeviceSpec,
    DeviceUtilization,
    EngineStats,
    ParallelEngine,
    ResultCache,
    VariantResult,
    request_key,
    seed_from_fingerprint,
    variant_fingerprint,
)
from repro.exceptions import CuttingError, ReproError
from repro.simulator import DeviceModel, NoiseModel, simulate_statevector
from repro.utils.pauli import PauliObservable, PauliString
from repro.workloads import make_workload

from fake_pools import BreakingPool, SubmitBreakingPool
from reference_executors import ExactExecutor


@pytest.fixture
def combined_cut_solution():
    """A 4-qubit circuit with one wire cut and one gate cut (paper Eq. 4 setting)."""
    circuit = Circuit(4)
    circuit.h(0).h(1).ry(0.3, 2).rx(0.6, 3)
    circuit.cx(0, 1)    # 4
    circuit.rz(0.2, 1)  # 5
    circuit.cz(1, 2)    # 6: gate cut
    circuit.rz(0.5, 2)  # 7
    circuit.cx(2, 3)    # 8
    circuit.ry(0.4, 3)  # 9
    return CutSolution(
        circuit=circuit,
        op_subcircuit={0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 7: 1, 8: 1, 9: 1},
        wire_cuts=[],
        gate_cuts=[GateCut(6)],
        gate_cut_placement={6: (0, 1)},
    )


@pytest.fixture
def combined_observable():
    return PauliObservable.from_terms(
        [
            PauliString.from_dict({0: "Z", 3: "Z"}, 1.0),
            PauliString.from_dict({1: "Z", 2: "Z"}, 0.5),
            PauliString.from_dict({2: "X"}, 0.2),
            PauliString.from_dict({}, 0.3),
        ]
    )


def _some_variants(solution, count=3):
    """Distinct runnable variants of the chain fixture's upstream subcircuit.

    Subcircuit 0 owns the measured end of the wire cut, so varying the
    measurement basis yields genuinely different variant circuits.
    """
    specs = {spec.index: spec for spec in extract_subcircuits(solution)}
    spec = specs[0]
    assert spec.upstream_cuts, "fixture changed: need the measured side of the cut"
    builder = VariantBuilder(solution, spec)
    variants = []
    for basis in ("I", "X", "Y", "Z")[:count]:
        settings = VariantSettings.build(
            {cut.identifier(): basis for cut in spec.upstream_cuts},
            {cut.identifier(): "zero" for cut in spec.downstream_cuts},
            {},
        )
        variants.append(builder.build(settings, "expectation", PauliString((), 1.0)))
    return variants


class TestResultCache:
    def test_bounded_eviction_is_lru(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", VariantResult(value=1.0))
        cache.put("b", VariantResult(value=2.0))
        assert cache.get("a").value == 1.0  # refresh "a": now "b" is LRU
        cache.put("c", VariantResult(value=3.0))
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(maxsize=0)
        cache.put("a", VariantResult(value=1.0))
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ReproError):
            ResultCache(maxsize=-1)

    def test_stats_counters(self):
        cache = ResultCache(maxsize=4)
        cache.put("a", VariantResult(value=1.0))
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["size"] == 1

    def test_byte_budget_evicts_before_entry_cap(self):
        wide = VariantResult(distribution=np.zeros(1024))  # 8 KB payload each
        cache = ResultCache(maxsize=1000, max_bytes=20 * 1024)
        for index in range(5):
            cache.put(index, VariantResult(distribution=np.zeros(1024)))
        assert len(cache) < 5  # payload bound bit long before the entry cap
        assert cache.nbytes <= cache.max_bytes
        assert cache.get(4) is not None  # most recent entries survive
        del wide

    def test_single_oversized_entry_is_retained(self):
        cache = ResultCache(maxsize=10, max_bytes=1024)
        cache.put("big", VariantResult(distribution=np.zeros(4096)))
        assert cache.get("big") is not None  # never evict the only entry

    def test_zero_byte_budget_disables_caching(self):
        # Regression: max_bytes=0 used to retain the newest entry anyway (the
        # eviction loop stops at one entry), so nbytes exceeded max_bytes.
        cache = ResultCache(maxsize=10, max_bytes=0)
        cache.put("a", VariantResult(distribution=np.zeros(1024)))
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert cache.get("a") is None

    def test_clear_resets_counters(self):
        # Regression: clear() used to drop entries but keep hit/miss/eviction
        # counters, conflating workloads that share nothing after the clear.
        cache = ResultCache(maxsize=1)
        cache.put("a", VariantResult(value=1.0))
        cache.get("a")
        cache.get("missing")
        cache.put("b", VariantResult(value=2.0))  # evicts "a"
        cache.clear()
        stats = cache.stats()
        assert stats == {
            "size": 0,
            "maxsize": 1,
            "nbytes": 0,
            "max_bytes": cache.max_bytes,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }


class TestFingerprints:
    def test_identical_variants_share_a_fingerprint(self, chain_wire_cut_solution):
        first = _some_variants(chain_wire_cut_solution, count=1)[0]
        second = _some_variants(chain_wire_cut_solution, count=1)[0]
        assert first is not second
        assert variant_fingerprint(first) == variant_fingerprint(second)
        assert request_key(first) == first.fingerprint

    def test_different_settings_differ(self, chain_wire_cut_solution):
        variants = _some_variants(chain_wire_cut_solution, count=3)
        keys = {variant_fingerprint(variant) for variant in variants}
        assert len(keys) == len(variants)

    def test_seed_derivation_is_deterministic(self):
        fingerprint = "ab" * 20
        assert seed_from_fingerprint(fingerprint, 7) == seed_from_fingerprint(fingerprint, 7)
        assert seed_from_fingerprint(fingerprint, 7) != seed_from_fingerprint(fingerprint, 8)
        assert seed_from_fingerprint(fingerprint) != seed_from_fingerprint("cd" * 20)


class TestDedupAndCounting:
    def test_execution_count_equals_unique_variants(self, chain_wire_cut_solution):
        executor = ExactExecutor()
        variants = _some_variants(chain_wire_cut_solution, count=3)
        batch = variants + variants + [variants[0]]  # 7 requests, 3 unique
        table = executor.run_batch(batch)
        assert executor.executions == 3
        assert executor.requests == 7
        assert executor.dedup_hits == 4
        assert set(table) == {request_key(variant) for variant in variants}

    def test_repeat_batches_hit_the_cache(self, chain_wire_cut_solution):
        executor = ExactExecutor()
        variants = _some_variants(chain_wire_cut_solution, count=3)
        executor.run_batch(variants)
        executor.run_batch(variants)
        assert executor.executions == 3
        assert executor.cache_hits == 3

    def test_noisy_executor_counts_variants_not_trajectories(self, chain_wire_cut_solution):
        device = DeviceModel(4, ((0, 1), (1, 2), (2, 3)), NoiseModel(0.01, 0.001, 0.0))
        executor = NoisyExecutor(device, shots=None, trajectories=5, seed=1)
        variants = _some_variants(chain_wire_cut_solution, count=2)
        executor.run_batch(variants + variants)
        assert executor.executions == 2  # not 2 variants * 5 trajectories

    def test_noisy_executor_caches_repeated_variants(self, chain_wire_cut_solution):
        device = DeviceModel(4, ((0, 1), (1, 2), (2, 3)), NoiseModel(0.05, 0.001, 0.0))
        executor = NoisyExecutor(device, shots=256, trajectories=3, seed=5)
        variant = _some_variants(chain_wire_cut_solution, count=1)[0]
        first = executor.expectation_value(variant)
        second = executor.expectation_value(variant)
        assert first == second  # cached, not re-sampled
        assert executor.executions == 1

    def test_eviction_forces_reexecution(self, chain_wire_cut_solution):
        executor = ExactExecutor(cache=ResultCache(maxsize=1))
        first, second = _some_variants(chain_wire_cut_solution, count=2)
        executor.run_batch([first])
        executor.run_batch([second])  # evicts first
        executor.run_batch([first])
        assert executor.executions == 3
        assert executor.cache.evictions == 2

    def test_seeded_noisy_results_are_reproducible_across_instances(
        self, chain_wire_cut_solution
    ):
        device = DeviceModel(4, ((0, 1), (1, 2), (2, 3)), NoiseModel(0.05, 0.001, 0.0))
        variant = _some_variants(chain_wire_cut_solution, count=1)[0]
        value_a = NoisyExecutor(device, shots=128, trajectories=3, seed=9).expectation_value(
            variant
        )
        value_b = NoisyExecutor(device, shots=128, trajectories=3, seed=9).expectation_value(
            variant
        )
        assert value_a == value_b


class ScaledExactExecutor(ExactExecutor):
    """Exact executor with a constructor argument, exercising default spawn_spec."""

    def __init__(self, scale, cache=None):
        super().__init__(cache)
        self.scale = scale

    def cache_namespace(self):
        return f"scaled-exact:{self.scale}"

    def execute_variant(self, variant, seed=None):
        base = super().execute_variant(variant, seed)
        return VariantResult(
            value=None if base.value is None else base.value * self.scale,
            distribution=None
            if base.distribution is None
            else base.distribution * self.scale,
        )


class TestStatsWindows:
    def test_window_deltas_compose_into_the_span_delta(self, chain_wire_cut_solution):
        # Consecutive snapshot windows add up to the window over the whole
        # span on every counter; state fields come from the last snapshot.
        farm = (DeviceSpec("w-a", 4), DeviceSpec("w-b", 4))
        executor = SamplingExecutor(shots=64, seed=0, cache=ResultCache(maxsize=1))
        a, b, c, d = _some_variants(chain_wire_cut_solution, count=4)
        config = EngineConfig(devices=farm, routing="least_loaded")
        with ParallelEngine(executor, config) as engine:
            engine.run_batch([a, b, c, d])  # so that s0 is not all zeros
            snapshots = [engine.stats]
            for batch in ([a, b, c, d], [c, d, c], [d, a, b, c], [a]):
                engine.run_batch(batch)
                snapshots.append(engine.stats)
        first, last = snapshots[0], snapshots[-1]
        total = last.since(first)
        deltas = [after.since(before) for before, after in zip(snapshots, snapshots[1:])]
        summed = deltas[0]
        for delta in deltas[1:]:
            summed = summed + delta

        counters = ("requests", "unique_executions", "dedup_hits", "cache_hits", "batches")
        for name in counters:
            assert getattr(total, name) == getattr(last, name) - getattr(first, name), name
            assert getattr(summed, name) == getattr(total, name), name
        # Float counters telescope only up to rounding.
        assert summed.execute_seconds == pytest.approx(total.execute_seconds)
        for key in ("hits", "misses", "evictions"):
            assert total.cache[key] == last.cache[key] - first.cache[key], key
            assert summed.cache[key] == total.cache[key], key
        assert total.cache["evictions"] > 0 and total.cache_hits > 0
        for key in ("size", "maxsize", "nbytes", "max_bytes"):
            assert summed.cache[key] == total.cache[key] == last.cache[key], key
        assert summed.routing == total.routing == last.routing == "least_loaded"

        assert [r.name for r in summed.devices] == [r.name for r in last.devices]
        reports = zip(summed.devices, total.devices, first.devices, last.devices)
        for got, want, start, end in reports:
            for name in ("assigned", "busy_seconds", "queue_seconds"):
                assert getattr(want, name) == getattr(end, name) - getattr(start, name), name
                assert getattr(got, name) == pytest.approx(getattr(want, name)), name
            assert got.max_qubits == want.max_qubits == end.max_qubits
        assert all(report.assigned > 0 for report in total.devices)
        assert any(report.queue_seconds > 0 for report in total.devices)
        assert any(report.queue_seconds > 0 for report in first.devices)
        assert sum(r.assigned for r in total.devices) == total.unique_executions

    def test_state_fields_come_from_the_later_operand(self):
        def snapshot(requests, size, routing, devices):
            cache = {"size": size, "maxsize": 8, "hits": requests, "misses": 0, "evictions": 0}
            reports = tuple(
                DeviceUtilization(name, width, assigned, 0.5 * assigned, 0.0)
                for name, width, assigned in devices
            )
            seconds = 0.25 * requests
            return EngineStats(requests, requests, 0, 0, 1, seconds, cache, reports, routing)

        earlier = snapshot(2, 1, "best_fit", [("x", 3, 1), ("y", 4, 1)])
        later = snapshot(5, 2, "least_loaded", [("y", 5, 3), ("z", 6, 4)])
        cases = ((later.since(earlier), 3, 0, 2), (earlier + later, 7, 2, 4))
        for combined, requests, batches, assigned in cases:
            assert combined.requests == combined.unique_executions == requests
            assert combined.batches == batches
            assert combined.execute_seconds == 0.25 * requests
            assert combined.cache == dict(later.cache, hits=requests)
            assert combined.routing == "least_loaded"
            # Devices follow the later operand, matched by name: "y" combines
            # (keeping the later width), "z" has nothing to combine with.
            assert combined.devices == (
                DeviceUtilization("y", 5, assigned, 0.5 * assigned, 0.0),
                later.devices[1],
            )


class TestResultSharing:
    def _probability_variant(self, solution):
        specs = {spec.index: spec for spec in extract_subcircuits(solution)}
        spec = specs[0]
        builder = VariantBuilder(solution, spec)
        settings = VariantSettings.build(
            {cut.identifier(): "Z" for cut in spec.upstream_cuts},
            {cut.identifier(): "zero" for cut in spec.downstream_cuts},
            {},
        )
        return builder.build(settings, "probability")

    def test_cached_distributions_are_frozen(self, chain_wire_cut_solution):
        executor = ExactExecutor()
        variant = self._probability_variant(chain_wire_cut_solution)
        table = executor.run_batch([variant])
        distribution = table[request_key(variant)].distribution
        with pytest.raises(ValueError):
            distribution[0] = 99.0  # mutating a shared cached result must raise

    def test_quasi_distribution_returns_a_private_copy(self, chain_wire_cut_solution):
        executor = ExactExecutor()
        variant = self._probability_variant(chain_wire_cut_solution)
        first = executor.quasi_distribution(variant)
        first += 123.0  # caller-side mutation must not poison the cache
        second = executor.quasi_distribution(variant)
        assert not np.array_equal(first, second)

    def test_unpicklable_executor_falls_back_to_serial(self, chain_wire_cut_solution):
        class UnpicklableExecutor(ExactExecutor):  # local class: cannot be pickled
            pass

        variants = _some_variants(chain_wire_cut_solution, count=3)
        serial = ExactExecutor().run_batch(variants)
        with ParallelEngine(
            UnpicklableExecutor(), EngineConfig(max_workers=2, chunk_size=1)
        ) as engine:
            with pytest.warns(RuntimeWarning, match="running serially"):
                parallel = engine.run_batch(variants)
        assert {key: result.value for key, result in parallel.items()} == {
            key: result.value for key, result in serial.items()
        }
        assert engine.executions == len(variants)

    def test_subclass_with_constructor_args_survives_process_pool(
        self, chain_wire_cut_solution
    ):
        variants = _some_variants(chain_wire_cut_solution, count=3)
        serial = ScaledExactExecutor(scale=2.0).run_batch(variants)
        with ParallelEngine(
            ScaledExactExecutor(scale=2.0), EngineConfig(max_workers=2, chunk_size=1)
        ) as engine:
            parallel = engine.run_batch(variants)
        assert {key: result.value for key, result in parallel.items()} == {
            key: result.value for key, result in serial.items()
        }


class TestSerialParallelIdentity:
    def _reconstruct(self, solution, observable, engine):
        return CutReconstructor(solution, engine=engine).reconstruct_expectation(observable)

    def test_exact_expectation_identical(self, combined_cut_solution, combined_observable):
        serial = self._reconstruct(
            combined_cut_solution, combined_observable, ParallelEngine(ExactExecutor())
        )
        with ParallelEngine(
            ExactExecutor(), EngineConfig(max_workers=2, chunk_size=8)
        ) as engine:
            parallel = self._reconstruct(combined_cut_solution, combined_observable, engine)
        assert parallel == serial  # bit-identical, not just close
        exact = simulate_statevector(combined_cut_solution.circuit).expectation(
            combined_observable
        )
        assert np.isclose(serial, exact, atol=1e-9)

    def test_noisy_expectation_identical_with_same_seed(
        self, combined_cut_solution, combined_observable
    ):
        def make_executor():
            device = DeviceModel(5, ((0, 1), (1, 2), (2, 3), (3, 4)), NoiseModel(0.02, 0.001, 0.0))
            return NoisyExecutor(device, shots=512, trajectories=2, seed=42)

        serial = self._reconstruct(
            combined_cut_solution, combined_observable, ParallelEngine(make_executor())
        )
        with ParallelEngine(
            make_executor(), EngineConfig(max_workers=2, chunk_size=8)
        ) as engine:
            parallel = self._reconstruct(combined_cut_solution, combined_observable, engine)
        assert parallel == serial

    def test_probabilities_identical(self, chain_wire_cut_solution):
        serial = CutReconstructor(chain_wire_cut_solution).reconstruct_probabilities()
        with ParallelEngine(
            ExactExecutor(), EngineConfig(max_workers=2, chunk_size=4)
        ) as engine:
            parallel = CutReconstructor(
                chain_wire_cut_solution, engine=engine
            ).reconstruct_probabilities()
        assert np.array_equal(serial, parallel)

    def test_thread_backend_identical(self, combined_cut_solution, combined_observable):
        # One request per task across three worker processes.
        serial = self._reconstruct(
            combined_cut_solution, combined_observable, ParallelEngine(ExactExecutor())
        )
        with ParallelEngine(
            ExactExecutor(), EngineConfig(max_workers=3, chunk_size=1)
        ) as engine:
            pooled = self._reconstruct(combined_cut_solution, combined_observable, engine)
        assert pooled == serial


class TestTwoPhaseReconstruction:
    def test_contraction_executes_nothing_after_the_batch(
        self, combined_cut_solution, combined_observable
    ):
        engine = ParallelEngine(ExactExecutor())
        reconstructor = CutReconstructor(combined_cut_solution, engine=engine)
        batch = reconstructor.enumerate_expectation_requests(combined_observable)
        assert batch
        engine.run_batch(batch)
        executed_in_phase_one = engine.executions
        assert executed_in_phase_one > 0
        reconstructor.reconstruct_expectation(combined_observable)
        assert engine.executions == executed_in_phase_one

    def test_enumeration_rejects_gate_cuts_for_probabilities(self, gate_cut_solution):
        from repro.exceptions import ReconstructionError

        with pytest.raises(ReconstructionError):
            CutReconstructor(gate_cut_solution).enumerate_probability_requests()


class CountingExecutor(ExactExecutor):
    """Exact executor recording every execute_variant fingerprint."""

    def __init__(self):
        super().__init__()
        self.executed_keys = []

    def execute_variant(self, variant, seed=None):
        self.executed_keys.append(request_key(variant))
        return super().execute_variant(variant, seed)


class TestBrokenPoolFallback:
    def test_completed_chunks_are_not_rerun(self, chain_wire_cut_solution):
        # Regression: a pool breaking mid-batch used to discard already
        # completed chunk results and rerun the *entire* pending list serially,
        # re-executing finished variants (wasted wall clock, and wasted shot
        # budget under an active allocation).
        variants = _some_variants(chain_wire_cut_solution, count=3)
        executor = CountingExecutor()
        engine = ParallelEngine(executor, EngineConfig(max_workers=2, chunk_size=1))
        engine._pool = BreakingPool()  # chunk 1 ok, chunk 2 breaks, chunk 3 pending
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            table = engine.run_batch(variants)
        baseline = ExactExecutor().run_batch(variants)
        assert {key: result.value for key, result in table.items()} == {
            key: result.value for key, result in baseline.items()
        }
        # Every unique variant executed exactly once — nothing double-executed.
        assert sorted(executor.executed_keys) == sorted(
            request_key(variant) for variant in variants
        )
        assert engine.executions == len(variants)

    def test_pool_broken_at_submit_time_falls_back(self, chain_wire_cut_solution):
        # A pool that broke *between* batches raises at submit(), not at
        # result(); that must fall back to serial exactly like mid-batch
        # breakage (submission happens inside the guarded block).
        variants = _some_variants(chain_wire_cut_solution, count=3)
        executor = CountingExecutor()
        engine = ParallelEngine(executor, EngineConfig(max_workers=2, chunk_size=1))
        engine._pool = SubmitBreakingPool()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            table = engine.run_batch(variants)
        assert len(table) == len(variants)
        assert sorted(executor.executed_keys) == sorted(
            request_key(variant) for variant in variants
        )


def _shard(value):
    """A picklable contraction-style shard task."""
    return np.arange(4.0) * value


def _shard_or_raise(value):
    if value == 2:
        raise RuntimeError("shard 2 failed")
    return _shard(value)


class RaisingExecutor(ExactExecutor):
    """Exact executor that raises on one fingerprint while ``fail_on`` is set."""

    def __init__(self, fail_on=None):
        super().__init__()
        self.fail_on = fail_on

    def execute_variant(self, variant, seed=None):
        if request_key(variant) == self.fail_on:
            raise RuntimeError("variant failed")
        return super().execute_variant(variant, seed)


def _result_bytes(result):
    distribution = result.distribution
    return (
        None if result.value is None else np.float64(result.value).tobytes(),
        None if distribution is None else distribution.tobytes(),
    )


def _drive(entry, engine, variants, shard=_shard):
    """Run three tasks through one pooled entry point; return their bytes."""
    if entry == "run_batch":
        table = engine.run_batch(variants)
        return sorted((key, _result_bytes(result)) for key, result in table.items())
    results, _ = engine.map_shards(shard, [(1,), (2,), (3,)])
    return [result.tobytes() for result in results]


def _fallback_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestPoolTeardown:
    def test_close_joins_every_worker_process(self, chain_wire_cut_solution):
        """close() waits for the pool: no worker outlives it.

        A pool shut down without waiting can still be tearing down when the
        interpreter exits, and ``concurrent.futures``' exit hook then writes to
        the pool's already closed wakeup pipe.
        """
        variants = _some_variants(chain_wire_cut_solution, count=3)
        engine = ParallelEngine(ExactExecutor(), EngineConfig(max_workers=2, chunk_size=1))
        engine.run_batch(variants)
        workers = list(engine._pool._processes.values())
        assert workers
        engine.close()
        assert engine._pool is None and engine._pool_broken is False
        assert all(worker.exitcode is not None for worker in workers)


@pytest.mark.parametrize("entry", ["run_batch", "map_shards"])
class TestPoolContract:
    """Batch execution and sharded contraction share one pool loop and its salvage."""

    @pytest.fixture
    def variants(self, chain_wire_cut_solution):
        return _some_variants(chain_wire_cut_solution, count=3)

    def _serial(self, entry, variants):
        return _drive(entry, ParallelEngine(ExactExecutor()), variants)

    def _engine(self, executor=None):
        return ParallelEngine(
            executor or ExactExecutor(), EngineConfig(max_workers=2, chunk_size=1)
        )

    def test_mid_batch_breakage_salvages(self, entry, variants):
        engine = self._engine()
        engine._pool = pool = BreakingPool()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            results = _drive(entry, engine, variants)
        assert results == self._serial(entry, variants)
        assert pool.submissions == 3
        assert engine._pool_broken is True

    def test_breakage_at_submit_falls_back(self, entry, variants):
        engine = self._engine()
        engine._pool = SubmitBreakingPool()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            results = _drive(entry, engine, variants)
        assert results == self._serial(entry, variants)

    def test_pool_that_cannot_start_runs_serially(self, entry, variants, monkeypatch):
        import repro.engine.engine as engine_module

        def no_pool(max_workers):
            raise OSError("no semaphores")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", no_pool)
        engine = self._engine()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = _drive(entry, engine, variants)
            second = _drive(entry, engine, variants)
        assert first == second == self._serial(entry, variants)
        messages = [str(w.message) for w in _fallback_warnings(caught)]
        assert len(messages) == 1
        assert "could not start a worker pool" in messages[0]

    def test_task_error_on_fake_pool_propagates(self, entry, variants):
        engine = self._engine()
        engine._pool = pool = BreakingPool(error=RuntimeError("task failed"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="task failed"):
                _drive(entry, engine, variants)
        assert not _fallback_warnings(caught)
        assert engine._pool is pool
        assert engine._pool_broken is False

    def test_task_error_keeps_the_process_pool(self, entry, variants):
        executor = RaisingExecutor(fail_on=request_key(variants[1]))
        with self._engine(executor) as engine:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(RuntimeError, match="failed"):
                    _drive(entry, engine, variants, shard=_shard_or_raise)
            assert not _fallback_warnings(caught)
            assert engine._pool_broken is False
            pool = engine._pool
            assert pool is not None
            executor.fail_on = None
            assert _drive(entry, engine, variants) == self._serial(entry, variants)
            assert engine._pool is pool


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ReproError):
            EngineConfig(max_workers=0)
        with pytest.raises(ReproError):
            EngineConfig(chunk_size=0)
        with pytest.raises(ReproError):
            EngineConfig(cache_size=-5)

    def test_with_returns_modified_copy(self):
        config = EngineConfig()
        assert config.with_(max_workers=8).max_workers == 8
        assert config.max_workers == 1

    def test_engine_never_replaces_a_callers_cache(self):
        executor = ExactExecutor(cache=ResultCache(maxsize=7))
        engine = ParallelEngine(executor, EngineConfig(cache_size=999))
        assert executor.cache.maxsize == 7  # the explicit bound survives
        assert engine.cache is executor.cache

    def test_cache_size_applies_to_engine_created_executor(self):
        engine = ParallelEngine(config=EngineConfig(cache_size=7))
        assert engine.cache.maxsize == 7


class TestPipelineIntegration:
    def test_parallel_evaluation_matches_serial(self):
        workload = make_workload("VQE", 6, layers=1)
        config = CutConfig(device_size=4, max_subcircuits=2, enable_gate_cuts=True)
        serial = evaluate_workload(workload, config)
        parallel = evaluate_workload(
            workload, config, engine_config=EngineConfig(max_workers=2)
        )
        assert parallel.expectation_value == serial.expectation_value
        assert parallel.num_variant_evaluations == serial.num_variant_evaluations

    def test_timings_and_stats_reported(self):
        workload = make_workload("VQE", 5, layers=1)
        config = CutConfig(device_size=3, max_subcircuits=2)
        result = evaluate_workload(workload, config)
        for stage in ("cut", "execute", "reconstruct", "reference", "total"):
            assert stage in result.timings
            assert result.timings[stage] >= 0.0
        assert result.engine_stats is not None
        assert result.engine_stats.unique_executions == result.num_variant_evaluations
        assert result.num_variant_evaluations > 0

    def test_shared_engine_reports_per_call_deltas(self):
        workload = make_workload("VQE", 5, layers=1)
        config = CutConfig(device_size=3, max_subcircuits=2)
        with ParallelEngine(ExactExecutor()) as engine:
            first = evaluate_workload(workload, config, engine=engine)
            second = evaluate_workload(workload, config, engine=engine)
        assert first.num_variant_evaluations > 0
        # The shared cache satisfies the second evaluation entirely.
        assert second.num_variant_evaluations == 0
        assert second.expectation_value == first.expectation_value

    def test_shared_engine_stats_are_per_call_deltas(self):
        # Regression: engine_stats used to be the engine's lifetime snapshot,
        # conflating unrelated workloads evaluated through a shared engine.
        workload = make_workload("VQE", 5, layers=1)
        config = CutConfig(device_size=3, max_subcircuits=2)
        with ParallelEngine(ExactExecutor()) as engine:
            first = evaluate_workload(workload, config, engine=engine)
            second = evaluate_workload(workload, config, engine=engine)
            lifetime = engine.stats
        assert first.engine_stats.unique_executions == first.num_variant_evaluations
        assert second.engine_stats.unique_executions == 0
        assert second.engine_stats.cache_hits > 0
        assert second.engine_stats.cache["hits"] > 0
        # Identical workloads issue identical request streams.
        assert second.engine_stats.requests == first.engine_stats.requests
        # The engine itself still reports the cumulative view.
        assert lifetime.requests == first.engine_stats.requests + second.engine_stats.requests
        assert lifetime.unique_executions == first.engine_stats.unique_executions

    def test_engine_and_executor_are_mutually_exclusive(self):
        workload = make_workload("VQE", 5, layers=1)
        config = CutConfig(device_size=3, max_subcircuits=2)
        with pytest.raises(CuttingError):
            evaluate_workload(
                workload,
                config,
                executor=ExactExecutor(),
                engine=ParallelEngine(ExactExecutor()),
            )
