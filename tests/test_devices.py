"""Tests for device-aware multi-backend routing (repro.engine.devices)."""

from types import SimpleNamespace

import pytest

from repro.core import CutConfig, evaluate_workload
from repro.cutting import NoisyExecutor, extract_subcircuits
from repro.cutting.variants import VariantBuilder, VariantSettings
from repro.engine import (
    ROUTING_POLICIES,
    DeviceFarm,
    DeviceSpec,
    EngineConfig,
    ParallelEngine,
    ShotPlan,
    VariantResult,
    request_key,
)
from repro.exceptions import (
    CuttingError,
    DeviceError,
    InfeasibleVariantError,
    ReproError,
)
from repro.simulator import NoiseModel
from repro.utils.pauli import PauliString
from repro.workloads import make_workload

from reference_executors import ExactExecutor


def _request(width, key, subcircuit=0):
    """A fake pending request: (fingerprint, variant-ish, seed)."""
    return (key, SimpleNamespace(num_wires=width, subcircuit_index=subcircuit), None)


def _requests(width, count):
    return [_request(width, f"req-{width}-{index}") for index in range(count)]


def _some_variants(solution, count=3):
    """Distinct runnable variants of the chain fixture's upstream subcircuit."""
    specs = {spec.index: spec for spec in extract_subcircuits(solution)}
    spec = specs[0]
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


class TestDeviceSpec:
    def test_validation(self):
        with pytest.raises(DeviceError):
            DeviceSpec("", 4)
        with pytest.raises(DeviceError):
            DeviceSpec("dev", 0)
        with pytest.raises(DeviceError):
            DeviceSpec("dev", 4, shots_per_second=0.0)
        with pytest.raises(DeviceError):
            DeviceSpec("dev", 4, lanes=0)

    def test_noise_and_factory_are_mutually_exclusive(self):
        with pytest.raises(DeviceError):
            DeviceSpec(
                "dev",
                4,
                noise=NoiseModel(0.01, 0.001, 0.0),
                executor_factory=ExactExecutor,
            )

    def test_build_executor_default_shares_the_engines(self):
        assert DeviceSpec("dev", 4).build_executor() is None

    def test_build_executor_uses_the_factory(self):
        executor = ExactExecutor()
        spec = DeviceSpec("dev", 4, executor_factory=lambda: executor)
        assert spec.build_executor() is executor

    def test_factory_returning_a_non_executor_is_rejected(self):
        spec = DeviceSpec("dev", 4, executor_factory=lambda: object())
        with pytest.raises(DeviceError):
            spec.build_executor()

    def test_noise_profile_builds_a_seeded_noisy_executor(self):
        spec = DeviceSpec("lagos-ish", 5, noise=NoiseModel(0.01, 0.001, 0.0), seed=3)
        executor = spec.build_executor()
        assert isinstance(executor, NoisyExecutor)
        assert "lagos-ish" in executor.cache_namespace()
        assert "seed=3" in executor.cache_namespace()


class TestDeviceFarm:
    def test_empty_farm_rejected(self):
        with pytest.raises(DeviceError):
            DeviceFarm([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DeviceError):
            DeviceFarm([DeviceSpec("a", 3), DeviceSpec("a", 5)])

    def test_unknown_routing_rejected(self):
        with pytest.raises(DeviceError):
            DeviceFarm([DeviceSpec("a", 3)], routing="fastest")

    def test_non_spec_devices_rejected(self):
        with pytest.raises(DeviceError):
            DeviceFarm(["not-a-device"])

    def test_widest_narrowest_feasible(self):
        farm = DeviceFarm([DeviceSpec("a", 3), DeviceSpec("b", 7), DeviceSpec("c", 5)])
        assert farm.widest.name == "b"
        assert farm.narrowest.name == "a"
        assert [device.name for device in farm.feasible(5)] == ["b", "c"]
        assert farm.feasible(8) == []

    def test_check_width_names_the_widest_device(self):
        farm = DeviceFarm([DeviceSpec("small", 3), DeviceSpec("medium", 5)])
        with pytest.raises(InfeasibleVariantError, match="'medium'"):
            farm.check_width(6)
        farm.check_width(5)  # feasible: no raise


class TestRoutingPolicies:
    def test_round_robin_alternates(self):
        farm = DeviceFarm([DeviceSpec("a", 4), DeviceSpec("b", 4)], routing="round_robin")
        lanes = farm.route(_requests(3, 6))
        assert len(lanes["a"]) == 3 and len(lanes["b"]) == 3
        # Declaration-order interleaving: even indices on a, odd on b.
        assert [request[0] for request in lanes["a"]] == ["req-3-0", "req-3-2", "req-3-4"]

    def test_best_fit_prefers_the_narrowest_feasible_device(self):
        farm = DeviceFarm([DeviceSpec("big", 6), DeviceSpec("small", 3)], routing="best_fit")
        lanes = farm.route(_requests(3, 4) + _requests(5, 2))
        assert len(lanes["small"]) == 4  # narrow variants never occupy the big device
        assert len(lanes["big"]) == 2

    def test_least_loaded_respects_throughput(self):
        farm = DeviceFarm(
            [
                DeviceSpec("slow", 4, shots_per_second=1000.0),
                DeviceSpec("fast", 4, shots_per_second=10000.0),
            ],
            routing="least_loaded",
        )
        lanes = farm.route(_requests(3, 12))
        assert len(lanes["fast"]) > len(lanes["slow"])
        assert len(lanes["slow"]) >= 1  # the backlog eventually spills over

    def test_lanes_increase_a_devices_concurrency(self):
        # Two lanes absorb two requests before any queueing happens.
        farm = DeviceFarm([DeviceSpec("dual", 4, lanes=2)], routing="least_loaded")
        farm.route(_requests(3, 2))
        report = farm.utilization()[0]
        assert report.assigned == 2
        assert report.queue_seconds == 0.0

    def test_infeasible_variant_names_subcircuit_and_width(self):
        farm = DeviceFarm([DeviceSpec("small", 3)])
        with pytest.raises(InfeasibleVariantError, match="subcircuit 7"):
            farm.route([_request(5, "wide", subcircuit=7)])

    def test_utilization_accumulates_across_batches(self):
        farm = DeviceFarm([DeviceSpec("a", 4)], routing="round_robin")
        farm.route(_requests(2, 3))
        farm.route(_requests(2, 2))
        report = farm.utilization()[0]
        assert report.assigned == 5
        assert report.busy_seconds > 0.0

    def test_allocation_shots_weight_the_load_model(self):
        farm = DeviceFarm([DeviceSpec("a", 4, shots_per_second=100.0)])
        farm.route([_request(2, "k")], shots=ShotPlan({"k": 500}))
        assert farm.utilization()[0].busy_seconds == pytest.approx(5.0)


class TestEngineIntegration:
    def test_config_normalises_devices_to_a_tuple(self):
        config = EngineConfig(devices=[DeviceSpec("a", 4)])
        assert isinstance(config.devices, tuple)

    def test_config_rejects_bad_routing(self):
        with pytest.raises(ReproError):
            EngineConfig(routing="nearest")
        assert set(ROUTING_POLICIES) == {"round_robin", "least_loaded", "best_fit"}

    def test_config_rejects_invalid_farms(self):
        with pytest.raises(DeviceError):
            EngineConfig(devices=[DeviceSpec("a", 4), DeviceSpec("a", 4)])

    def test_single_device_farm_matches_plain_engine(self, chain_wire_cut_solution):
        variants = _some_variants(chain_wire_cut_solution, count=3)
        plain = ExactExecutor().run_batch(variants)
        with ParallelEngine(
            ExactExecutor(), EngineConfig(devices=(DeviceSpec("only", 4),))
        ) as engine:
            farmed = engine.run_batch(variants)
        assert {key: result.value for key, result in farmed.items()} == {
            key: result.value for key, result in plain.items()
        }
        report = engine.stats.devices[0]
        assert report.assigned == len(variants)

    def test_device_executor_factory_is_used(self, chain_wire_cut_solution):
        class DoublingExecutor(ExactExecutor):
            def cache_namespace(self):
                return "doubled"

            def execute_variant(self, variant, seed=None):
                base = super().execute_variant(variant, seed)
                return VariantResult(value=base.value * 2.0)

        variants = _some_variants(chain_wire_cut_solution, count=2)
        plain = ExactExecutor().run_batch(variants)
        spec = DeviceSpec("doubler", 4, executor_factory=DoublingExecutor)
        with ParallelEngine(ExactExecutor(), EngineConfig(devices=(spec,))) as engine:
            farmed = engine.run_batch(variants)
        for variant in variants:
            key = request_key(variant)
            assert farmed[key].value == pytest.approx(2.0 * plain[key].value)

    def test_engine_farm_raises_for_oversized_variants(self, chain_wire_cut_solution):
        variants = _some_variants(chain_wire_cut_solution, count=1)
        with ParallelEngine(
            ExactExecutor(), EngineConfig(devices=(DeviceSpec("tiny", 1),))
        ) as engine:
            with pytest.raises(InfeasibleVariantError):
                engine.run_batch(variants)

    def test_serial_farm_never_starts_a_pool(self, chain_wire_cut_solution):
        # max_workers=1 must stay in-process even when a multi-device farm
        # produces several tasks: routing models placement, not this host.
        variants = _some_variants(chain_wire_cut_solution, count=4)
        with ParallelEngine(
            ExactExecutor(),
            EngineConfig(devices=(DeviceSpec("a", 4), DeviceSpec("b", 4))),
        ) as engine:
            engine.run_batch(variants)
            assert engine._pool is None

    def test_lane_cap_survives_explicit_chunk_size(self, chain_wire_cut_solution):
        # An explicit chunk_size may coarsen chunks but never split a device's
        # lane into more tasks than its declared lanes.
        with ParallelEngine(
            ExactExecutor(),
            EngineConfig(devices=(DeviceSpec("a", 4),), chunk_size=1, max_workers=4),
        ) as engine:
            lane = [(f"k{i}", None, None) for i in range(10)]
            chunks = engine._chunked_lane(lane, engine.farm.devices[0])
            assert len(chunks) == 1  # lanes=1 -> one task, chunk_size=1 notwithstanding
            dual = DeviceSpec("b", 4, lanes=2)
            assert len(engine._chunked_lane(lane, dual)) == 2

    def test_factory_executor_without_spawn_spec_degrades_to_serial(
        self, chain_wire_cut_solution
    ):
        class BareExecutor:
            """Duck-typed executor: execute_variant only, no spawn_spec."""

            def execute_variant(self, variant, seed=None):
                return ExactExecutor().execute_variant(variant, seed)

        variants = _some_variants(chain_wire_cut_solution, count=3)
        plain = ExactExecutor().run_batch(variants)
        spec = DeviceSpec("bare", 4, executor_factory=BareExecutor, lanes=3)
        with ParallelEngine(
            ExactExecutor(),
            EngineConfig(devices=(spec,), max_workers=2, chunk_size=1),
        ) as engine:
            with pytest.warns(RuntimeWarning, match="running serially"):
                farmed = engine.run_batch(variants)
        assert {key: result.value for key, result in farmed.items()} == {
            key: result.value for key, result in plain.items()
        }

    def test_heterogeneous_farm_results_do_not_alias_in_a_shared_cache(
        self, chain_wire_cut_solution
    ):
        from repro.engine import ResultCache

        class DoublingExecutor(ExactExecutor):
            def cache_namespace(self):
                return "doubled"

            def execute_variant(self, variant, seed=None):
                base = super().execute_variant(variant, seed)
                return VariantResult(value=base.value * 2.0)

        variants = _some_variants(chain_wire_cut_solution, count=2)
        shared = ResultCache()
        spec = DeviceSpec("doubler", 4, executor_factory=DoublingExecutor)
        with ParallelEngine(
            ExactExecutor(cache=shared), EngineConfig(devices=(spec,))
        ) as engine:
            engine.run_batch(variants)
        # A farm-less executor sharing the cache must not see the farm's
        # (differently-executed) results as its own.
        bystander = ExactExecutor(cache=shared)
        plain = bystander.run_batch(variants)
        assert bystander.cache_hits == 0
        baseline = ExactExecutor().run_batch(variants)
        for key in plain:
            assert plain[key].value == baseline[key].value

    def test_cache_scope_is_cleared_on_a_farmless_engine(self, chain_wire_cut_solution):
        class DoublingExecutor(ExactExecutor):
            def cache_namespace(self):
                return "doubled"

            def execute_variant(self, variant, seed=None):
                base = super().execute_variant(variant, seed)
                return VariantResult(value=base.value * 2.0)

        variants = _some_variants(chain_wire_cut_solution, count=2)
        executor = ExactExecutor()
        spec = DeviceSpec("doubler", 4, executor_factory=DoublingExecutor)
        with ParallelEngine(executor, EngineConfig(devices=(spec,))) as engine:
            farmed = engine.run_batch(variants)
        # The same executor wrapped by a farm-less engine must not read the
        # farm-scoped (doubled) results back as its own.
        with ParallelEngine(executor) as engine:
            plain = engine.run_batch(variants)
        baseline = ExactExecutor().run_batch(variants)
        for variant in variants:
            key = request_key(variant)
            assert farmed[key].value == pytest.approx(2.0 * baseline[key].value)
            assert plain[key].value == baseline[key].value

    def test_differently_composed_farms_have_distinct_scopes(self):
        from repro.engine import DeviceFarm
        from repro.simulator import NoiseModel

        loud = DeviceFarm([DeviceSpec("q", 4, noise=NoiseModel(0.1, 0.01, 0.0))])
        quiet = DeviceFarm([DeviceSpec("q", 4, noise=NoiseModel(0.001, 0.0001, 0.0))])
        reseeded = DeviceFarm([DeviceSpec("q", 4, noise=NoiseModel(0.1, 0.01, 0.0), seed=9)])
        scopes = {loud.cache_scope(), quiet.cache_scope(), reseeded.cache_scope()}
        assert len(scopes) == 3
        assert DeviceFarm([DeviceSpec("q", 4)]).cache_scope() is None

    def test_failed_dispatch_rolls_back_utilization(self, chain_wire_cut_solution):
        class ExplodingExecutor(ExactExecutor):
            def execute_variant(self, variant, seed=None):
                raise OSError("device went away")

        variants = _some_variants(chain_wire_cut_solution, count=3)
        spec = DeviceSpec("flaky", 4, executor_factory=ExplodingExecutor)
        with ParallelEngine(ExactExecutor(), EngineConfig(devices=(spec,))) as engine:
            with pytest.raises(OSError):
                engine.run_batch(variants)
            # Nothing executed, so utilization must not count the routed batch.
            assert engine.stats.devices[0].assigned == 0

    def test_shot_allocation_rejected_on_heterogeneous_farms(self):
        from repro.exceptions import AllocationError, ConfigError
        from repro.simulator import NoiseModel

        noisy = [DeviceSpec("n", 3, noise=NoiseModel(0.01, 0.001, 0.0))]
        # The config that would combine them cannot be built.
        with pytest.raises(ConfigError, match="heterogeneous"):
            EngineConfig(shots=1000, seed=1, devices=noisy)
        # Direct engine users hit the same wall when a batch brings a plan.
        from repro.cutting import SamplingExecutor

        engine = ParallelEngine(
            SamplingExecutor(shots=100, seed=0), EngineConfig(devices=tuple(noisy))
        )
        with pytest.raises(AllocationError, match="heterogeneous"):
            engine.run_batch([], shots=ShotPlan({"k": 100}))

    def test_parallel_farm_matches_serial_farm(self, chain_wire_cut_solution):
        variants = _some_variants(chain_wire_cut_solution, count=4)
        devices = (DeviceSpec("a", 4), DeviceSpec("b", 4))
        with ParallelEngine(
            ExactExecutor(), EngineConfig(devices=devices, routing="round_robin")
        ) as engine:
            serial = engine.run_batch(variants)
        with ParallelEngine(
            ExactExecutor(),
            EngineConfig(devices=devices, routing="round_robin", max_workers=2, chunk_size=1),
        ) as engine:
            parallel = engine.run_batch(variants)
        assert {key: result.value for key, result in parallel.items()} == {
            key: result.value for key, result in serial.items()
        }


class TestPipelineIntegration:
    WORKLOAD = ("VQE", 5)
    CONFIG = CutConfig(device_size=3, max_subcircuits=2)

    def _workload(self):
        return make_workload(self.WORKLOAD[0], self.WORKLOAD[1], layers=1)

    def test_single_device_farm_bit_identical_to_no_farm(self):
        workload = self._workload()
        plain = evaluate_workload(workload, self.CONFIG)
        farmed = evaluate_workload(
            workload,
            self.CONFIG,
            engine_config=EngineConfig(devices=[DeviceSpec("only", plain.plan.max_width)]),
        )
        assert farmed.expectation_value == plain.expectation_value  # bit-identical
        assert farmed.num_variant_evaluations == plain.num_variant_evaluations
        assert plain.device_utilization is None
        assert farmed.device_utilization is not None

    def test_variant_wider_than_every_device_raises(self):
        workload = self._workload()
        with pytest.raises(InfeasibleVariantError, match="widest"):
            evaluate_workload(
                workload,
                self.CONFIG,
                engine_config=EngineConfig(devices=[DeviceSpec("tiny", 2)]),
            )

    def test_serial_parallel_identity_per_device_lane_under_sampling(self):
        workload = self._workload()
        devices = [
            DeviceSpec("qpu-a", 3, shots_per_second=2000.0),
            DeviceSpec("qpu-b", 3, shots_per_second=8000.0),
        ]
        results = [
            evaluate_workload(
                workload,
                self.CONFIG,
                engine_config=EngineConfig(
                    max_workers=workers,
                    shots=3000,
                    seed=11,
                    devices=devices,
                    routing="least_loaded",
                ),
            )
            for workers in (1, 3)
        ]
        assert results[0].expectation_value == results[1].expectation_value
        assert [u.assigned for u in results[0].device_utilization] == [
            u.assigned for u in results[1].device_utilization
        ]

    def test_utilization_sums_to_unique_executions(self):
        workload = self._workload()
        result = evaluate_workload(
            workload,
            self.CONFIG,
            engine_config=EngineConfig(
                devices=[DeviceSpec("a", 3), DeviceSpec("b", 3)],
                routing="round_robin",
            ),
        )
        assigned = sum(report.assigned for report in result.device_utilization)
        assert assigned == result.engine_stats.unique_executions
        assert all(report.assigned > 0 for report in result.device_utilization)
        assert all(report.queue_seconds >= 0.0 for report in result.device_utilization)
        assert result.engine_stats.routing == "round_robin"

    def test_devices_with_supplied_engine_rejected(self):
        # A supplied engine carries its own farm; a per-call one cannot join it.
        workload = self._workload()
        with ParallelEngine(ExactExecutor()) as engine:
            with pytest.raises(CuttingError, match="devices"):
                evaluate_workload(
                    workload,
                    self.CONFIG,
                    engine=engine,
                    engine_config=EngineConfig(devices=[DeviceSpec("a", 3)]),
                )

    def test_farm_on_a_supplied_engine_config_is_used(self):
        workload = self._workload()
        result = evaluate_workload(
            workload,
            self.CONFIG,
            engine_config=EngineConfig(devices=(DeviceSpec("cfg-dev", 3),)),
        )
        assert result.device_utilization[0].name == "cfg-dev"
