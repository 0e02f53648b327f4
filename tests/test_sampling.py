"""Tests for finite-shot sampling: SamplingExecutor, shot allocation, and the
round of correctness fixes that shipped with them (sampler width inference,
cut_circuit_cutqc kwargs, per-call execute timings)."""

import pickle

import numpy as np
import pytest

from repro import EvaluationSession, StreamingConfig
from repro.circuits import Circuit
from repro.core import CutConfig, EngineConfig, cut_circuit_cutqc, evaluate_workload
from repro.cutting import CutReconstructor, SamplingExecutor
from repro.cutting import sampling as sampling_module
from repro.engine import (
    ALLOCATION_POLICIES,
    ParallelEngine,
    ShotAllocation,
    ShotPlan,
    allocate_shots,
    build_cache_key,
    largest_remainder_split,
    request_key,
)
from repro.exceptions import (
    AllocationError,
    ConfigError,
    CuttingError,
    ReproError,
    SimulationError,
)
from repro.simulator import BranchingSimulator, distribution_to_counts, sample_counts
from repro.simulator.sampler import sample_weighted_counts_prefix
from repro.utils.pauli import PauliObservable, PauliString
from repro.workloads import make_workload

from reference_executors import ExactExecutor, branch_output_index
from strategies import make_variant


@pytest.fixture
def chain_observable():
    return PauliObservable.from_terms(
        [
            PauliString.from_dict({0: "Z", 1: "Z"}, 1.0),
            PauliString.from_dict({2: "X"}, 0.5),
        ]
    )


def _sampled_reconstruction(solution, observable, shots, seed, engine_config=None):
    executor = SamplingExecutor(shots=shots, seed=seed)
    with ParallelEngine(executor, engine_config) as engine:
        return CutReconstructor(solution, engine=engine).reconstruct_expectation(observable)


class TestSamplerWidthBugfix:
    def test_non_power_of_two_length_rejected(self):
        with pytest.raises(SimulationError, match="power of two"):
            sample_counts(np.full(6, 1 / 6), 100, np.random.default_rng(0))

    def test_empty_vector_rejected(self):
        with pytest.raises(SimulationError):
            sample_counts(np.array([]), 10, np.random.default_rng(0))

    def test_width_is_exact_for_every_power_of_two(self):
        # int(np.log2(...)) misrounds in corner cases; bit_length never does.
        for num_qubits in (1, 2, 7, 10):
            probabilities = np.zeros(2**num_qubits)
            probabilities[-1] = 1.0
            counts = sample_counts(probabilities, 5, np.random.default_rng(0))
            assert counts == {"1" * num_qubits: 5}

    def test_distribution_to_counts_rejects_non_power_of_two(self):
        with pytest.raises(SimulationError, match="power of two"):
            distribution_to_counts(np.full(3, 1 / 3), 30)

    def test_scalar_length_one_vector_still_accepted(self):
        assert sample_counts(np.array([1.0]), 4, np.random.default_rng(0)) == {"0": 4}


class TestCutqcKwargsBugfix:
    def test_enable_reuse_extraction_rejected_clearly(self, chain_circuit):
        config = CutConfig(device_size=2, max_subcircuits=2)
        # Qubit reuse is selected by CutConfig.enable_qubit_reuse alone.
        with pytest.raises(TypeError, match="enable_reuse_extraction"):
            cut_circuit_cutqc(chain_circuit, config, enable_reuse_extraction=True)

    def test_other_kwargs_still_forwarded(self, chain_circuit):
        config = CutConfig(device_size=2, max_subcircuits=2)
        plan = cut_circuit_cutqc(chain_circuit, config, force_greedy=True)
        assert plan.method == "greedy"
        assert plan.total_reuses == 0


class TestSamplingExecutor:
    def test_estimates_converge_to_exact(self, chain_wire_cut_solution, chain_observable):
        exact = CutReconstructor(
            chain_wire_cut_solution, engine=ParallelEngine(ExactExecutor())
        ).reconstruct_expectation(chain_observable)
        errors = {}
        for shots in (64, 65536):
            errors[shots] = np.mean(
                [
                    abs(
                        _sampled_reconstruction(
                            chain_wire_cut_solution, chain_observable, shots, seed
                        )
                        - exact
                    )
                    for seed in range(5)
                ]
            )
        # 1024x the shots should shrink the mean error by ~32x; 4x is a safe bound.
        assert errors[65536] < errors[64] / 4.0
        assert errors[65536] < 0.05

    def test_uncovered_fingerprint_falls_back_to_allocation_floor(self):
        # With an allocation active, a request that escaped enumeration must
        # never sample at the default shots (callers set that to the *total*
        # budget); it gets the allocation's smallest per-variant count instead.
        executor = SamplingExecutor(shots=65536, seed=1)
        plan = ShotPlan({"aaa": 7, "bbb": 123})
        assert plan.shots_for("aaa") == 7
        assert plan.shots_for("not-in-the-allocation") == 7
        assert executor.cache_key("not-in-the-allocation", plan) == build_cache_key(
            "not-in-the-allocation", shots=7, stage="", seed_shots=7
        )
        # Without a plan the executor draws its default shots.
        assert executor.cache_key("not-in-the-allocation") == build_cache_key(
            "not-in-the-allocation", shots=65536, stage="", seed_shots=65536
        )

    def test_serial_and_parallel_bit_identical(self, chain_wire_cut_solution, chain_observable):
        serial = _sampled_reconstruction(chain_wire_cut_solution, chain_observable, 500, seed=11)
        parallel = _sampled_reconstruction(
            chain_wire_cut_solution,
            chain_observable,
            500,
            seed=11,
            engine_config=EngineConfig(max_workers=2, chunk_size=2),
        )
        assert parallel == serial  # bit-identical, not just close

    def test_probability_mode_distribution(self, chain_wire_cut_solution):
        exact = CutReconstructor(chain_wire_cut_solution).reconstruct_probabilities()
        executor = SamplingExecutor(shots=200000, seed=3)
        sampled = CutReconstructor(
            chain_wire_cut_solution, engine=ParallelEngine(executor)
        ).reconstruct_probabilities()
        assert np.abs(sampled - exact).max() < 0.02

    def test_cache_keys_are_shot_aware(self, chain_wire_cut_solution, chain_observable):
        executor = SamplingExecutor(shots=100, seed=1)
        engine = ParallelEngine(executor)
        reconstructor = CutReconstructor(chain_wire_cut_solution, engine=engine)
        batch = reconstructor.enumerate_expectation_requests(chain_observable)
        unique = {request_key(variant) for variant in batch}
        engine.run_batch(batch)
        first = executor.executions
        assert first == len(unique)
        # A different per-variant budget must miss the cache and re-execute.
        plan = ShotPlan({key: 200 for key in unique})
        engine.run_batch(batch, shots=plan)
        assert executor.executions == 2 * first
        # Re-running the same allocation is served from the cache.
        engine.run_batch(batch, shots=plan)
        assert executor.executions == 2 * first

    def test_seed_material_depends_on_shots(self):
        executor = SamplingExecutor(shots=100, seed=1)
        fingerprint = "ab" * 20
        before = executor.seed_for(fingerprint)
        assert executor.seed_for(fingerprint, ShotPlan({fingerprint: 999})) != before

    def test_invalid_shots_rejected(self):
        with pytest.raises(CuttingError):
            SamplingExecutor(shots=0)
        with pytest.raises(CuttingError):
            ShotPlan({"abc": 0})


def _scalar_walk_sample(executor, variant, plan=None):
    """One request sampled from a scalar branch walk: the sampler's reference."""
    key = request_key(variant)
    shots = executor.shots if plan is None else plan.shots_for(key)
    rng = np.random.default_rng(executor.seed_for(key, plan))
    branches = BranchingSimulator().run(variant.circuit).branches
    probabilities = np.array([branch.probability for branch in branches])
    signs = np.array([branch.sign for branch in branches], dtype=float)
    counts = sample_weighted_counts_prefix(probabilities, shots, rng)
    value = float(np.dot(counts, signs) / shots)
    distribution = None
    if variant.mode == "probability":
        distribution = np.zeros(2 ** len(variant.output_qubit_order))
        for branch, count in zip(branches, counts):
            if count:
                distribution[branch_output_index(branch, variant)] += branch.sign * count
        distribution /= shots
    return value, distribution


def _bits(value, distribution):
    return np.float64(value).tobytes(), None if distribution is None else distribution.tobytes()


def _plan(fingerprints, scenario):
    """One of the shot plans the engine passes with a batch (None: the default)."""
    if scenario == "allocation":
        return ShotPlan({key: 50 + 7 * i for i, key in enumerate(fingerprints)})
    if scenario == "pilot":
        return ShotPlan({key: 30 + i for i, key in enumerate(fingerprints)}, stage="pilot")
    if scenario == "streaming":
        return ShotPlan(
            {key: 20 + i for i, key in enumerate(fingerprints)},
            seed_shots_by_fingerprint={key: 90 + 3 * i for i, key in enumerate(fingerprints)},
        )
    return None


def _stream_totals(requests):
    return {key: 40 + 3 * i for i, (key, _) in enumerate(requests)}


def _stream_rounds(executor, requests, totals, rounds, stop_after=None, between=None):
    """Sample every request at a streaming session's growing cumulative counts.

    The seed stays pinned to ``totals`` every round, as the session pins it;
    returns each round's results as bits, stopping after ``stop_after`` rounds.
    """
    tables = []
    for index in range(1, (stop_after or rounds) + 1):
        plan = ShotPlan(
            {key: total * index // rounds for key, total in totals.items()},
            seed_shots_by_fingerprint=totals,
        )
        pending = [(key, variant, executor.seed_for(key, plan)) for key, variant in requests]
        results = executor.run_many(pending, shots=plan)
        tables.append([_bits(r.value, r.distribution) for _, r in results])
        if between is not None:
            between()
    return tables


def _fresh_stream_rounds(requests, totals, rounds):
    """Each round from a new executor: every stream redrawn from its seed."""
    return [
        _stream_rounds(SamplingExecutor(shots=100, seed=2), requests, totals, rounds, index)[-1]
        for index in range(1, rounds + 1)
    ]


class TestSamplingOnBranchRows:
    """``run_many`` samples from grouped batched rows exactly as a lone scalar walk."""

    @pytest.fixture
    def requests(self, chain_wire_cut_solution, gate_cut_solution, zz_observable):
        chain = CutReconstructor(chain_wire_cut_solution, engine=ParallelEngine(ExactExecutor()))
        gate = CutReconstructor(gate_cut_solution, engine=ParallelEngine(ExactExecutor()))
        variants = (
            chain.enumerate_probability_requests().variants
            + gate.enumerate_expectation_requests(zz_observable).variants
        )
        unique = {request_key(variant): variant for variant in variants}
        assert {variant.mode for variant in unique.values()} == {"probability", "expectation"}
        return list(unique.items())

    @pytest.mark.parametrize("scenario", ["default", "allocation", "pilot", "streaming"])
    def test_run_many_equals_lone_requests_bitwise(self, requests, scenario):
        fingerprints = [key for key, _ in requests]
        plan = _plan(fingerprints, scenario)
        grouped = SamplingExecutor(shots=300, seed=5)
        pending = [(key, variant, grouped.seed_for(key, plan)) for key, variant in requests]
        table = dict(grouped.run_many(pending, shots=plan))
        assert list(table) == fingerprints
        for key, variant in requests:
            lone = SamplingExecutor(shots=300, seed=5)
            single = lone.run_batch([variant], shots=plan)[key]
            expected = _bits(*_scalar_walk_sample(lone, variant, plan))
            assert _bits(single.value, single.distribution) == expected
            assert _bits(table[key].value, table[key].distribution) == expected

    def test_rows_are_simulated_once_per_fingerprint(self, requests, monkeypatch):
        calls = []
        original = sampling_module.simulate_variant_group

        def counting(variants, *args, **kwargs):
            calls.append(len(variants))
            return original(variants, *args, **kwargs)

        monkeypatch.setattr(sampling_module, "simulate_variant_group", counting)
        executor = SamplingExecutor(shots=100, seed=2)
        pending = [(key, variant, executor.seed_for(key)) for key, variant in requests]
        first = executor.run_many(pending)
        assert sum(calls) == len(requests)
        assert len(calls) < len(requests)  # grouped, not one pass per variant
        second = executor.run_many(pending)
        assert sum(calls) == len(requests)  # every row table came from the memo
        for (_, a), (_, b) in zip(first, second):
            assert _bits(a.value, a.distribution) == _bits(b.value, b.distribution)

    def test_branch_memo_is_bounded_and_not_pickled(self, requests, monkeypatch):
        unbounded = SamplingExecutor(shots=100, seed=2)
        pending = [(key, variant, unbounded.seed_for(key)) for key, variant in requests]
        expected = unbounded.run_many(pending)
        monkeypatch.setattr(sampling_module, "_BRANCH_MEMO_SIZE", 3)
        bounded = SamplingExecutor(shots=100, seed=2)
        results = bounded.run_many(pending)
        assert len(bounded._branch_memo) == 3 < len(requests)
        for (_, a), (_, b) in zip(expected, results):
            assert _bits(a.value, a.distribution) == _bits(b.value, b.distribution)
        assert pickle.loads(pickle.dumps(bounded))._branch_memo == {}

    def test_stream_rounds_draw_only_new_shots(self, requests, monkeypatch):
        drawn = []
        original = sampling_module.sample_weighted_counts_prefix

        def counting(weights, shots, rng):
            drawn.append(shots)
            return original(weights, shots, rng)

        monkeypatch.setattr(sampling_module, "sample_weighted_counts_prefix", counting)
        totals = _stream_totals(requests)
        executor = SamplingExecutor(shots=100, seed=2)
        resumed = _stream_rounds(executor, requests, totals, rounds=3)
        assert sum(drawn) == sum(totals.values())
        assert resumed == _fresh_stream_rounds(requests, totals, rounds=3)

    def test_stream_memo_cleared_between_rounds_gives_same_bits(self, requests):
        totals = _stream_totals(requests)
        executor = SamplingExecutor(shots=100, seed=2)
        cleared = _stream_rounds(
            executor, requests, totals, rounds=3, between=lambda: executor._stream_memo.clear()
        )
        assert cleared == _fresh_stream_rounds(requests, totals, rounds=3)

    def test_stream_memo_redraws_a_shorter_request(self, requests):
        totals = _stream_totals(requests)
        expected = _fresh_stream_rounds(requests, totals, rounds=3)
        executor = SamplingExecutor(shots=100, seed=2)
        _stream_rounds(executor, requests, totals, rounds=3, stop_after=2)
        # Round 1 again, as a second session at the same seed would ask for
        # it: every stream in the memo has drawn more than round 1 needs.
        assert _stream_rounds(executor, requests, totals, rounds=3, stop_after=1) == expected[:1]
        # The redrawn streams replaced the longer ones and resume from there.
        assert _stream_rounds(executor, requests, totals, rounds=3) == expected

    def test_stream_memo_is_bounded_and_not_pickled(self, requests, monkeypatch):
        totals = _stream_totals(requests)
        expected = _fresh_stream_rounds(requests, totals, rounds=3)
        monkeypatch.setattr(sampling_module, "_BRANCH_MEMO_SIZE", 3)
        executor = SamplingExecutor(shots=100, seed=2)
        first = _stream_rounds(executor, requests, totals, rounds=3, stop_after=1)
        assert len(executor._stream_memo) == 3 < len(requests)
        assert pickle.loads(pickle.dumps(executor))._stream_memo == {}
        assert first == expected[:1]
        bounded = SamplingExecutor(shots=100, seed=2)
        assert _stream_rounds(bounded, requests, totals, rounds=3) == expected

    @pytest.mark.parametrize("streaming", [None, StreamingConfig(rounds=3)])
    def test_stream_memo_empty_after_pilot_batch_and_final_round(self, streaming):
        executor = SamplingExecutor(shots=100, seed=2)
        session = EvaluationSession(
            make_workload("VQE", 5, layers=1, seed=3),
            CutConfig(device_size=3, max_subcircuits=2),
            compute_reference=False,
            engine=ParallelEngine(executor),
            engine_config=EngineConfig(shots=4096, allocation="variance", streaming=streaming),
        )
        session.prepare()  # runs the variance policy's pilot pass
        assert executor._stream_memo == {}
        more = session.step()
        assert bool(executor._stream_memo) == more == (streaming is not None)
        while more:
            more = session.step()
        assert executor._stream_memo == {}
        session.finish()
        session.close()

    def test_probability_variant_missing_output_tag_raises(self):
        circuit = Circuit(2)
        circuit.h(0).cx(0, 1).measure(0, tag="out:0")  # qubit 1 never recorded
        # Rejected when the circuit is wrapped, before any executor sees it.
        with pytest.raises(CuttingError, match="did not record an outcome"):
            make_variant(circuit, mode="probability", output=(0, 1))


class TestShotAllocationPolicies:
    def test_uniform_distributes_remainder_exactly(self):
        split = largest_remainder_split(10, {"a": 1.0, "b": 1.0, "c": 1.0})
        assert sum(split.values()) == 10
        assert sorted(split.values()) == [3, 3, 4]

    def test_weighted_split_is_proportional_and_exact(self):
        split = largest_remainder_split(100, {"a": 3.0, "b": 1.0})
        assert split == {"a": 75, "b": 25}
        split = largest_remainder_split(101, {"a": 3.0, "b": 1.0})
        assert sum(split.values()) == 101

    def test_every_variant_gets_at_least_one_shot(self):
        split = largest_remainder_split(5, {"a": 1e9, "b": 1e-9, "c": 1e-9})
        assert min(split.values()) >= 1
        assert sum(split.values()) == 5

    def test_budget_below_variant_count_rejected(self):
        with pytest.raises(AllocationError):
            largest_remainder_split(2, {"a": 1.0, "b": 1.0, "c": 1.0})

    def test_split_is_deterministic(self):
        weights = {f"k{i}": float(i % 7 + 1) for i in range(23)}
        assert largest_remainder_split(1000, weights) == largest_remainder_split(1000, weights)

    def test_unknown_policy_rejected(self, chain_wire_cut_solution, chain_observable):
        batch = CutReconstructor(chain_wire_cut_solution).enumerate_expectation_requests(
            chain_observable
        )
        with pytest.raises(AllocationError, match="unknown allocation policy"):
            allocate_shots(batch, 100, "fancy")

    @pytest.mark.parametrize("policy", ["uniform", "weighted"])
    def test_one_pass_policies_spend_exact_budget(
        self, policy, chain_wire_cut_solution, chain_observable
    ):
        reconstructor = CutReconstructor(chain_wire_cut_solution)
        weights = {}
        batch = reconstructor.enumerate_expectation_requests(
            chain_observable, weights_out=weights
        )
        for budget in (17, 100, 4097):
            allocation = allocate_shots(batch, budget, policy, weights=weights)
            assert allocation.assigned_shots == budget
            assert allocation.policy == policy
            assert min(allocation.shots_by_fingerprint.values()) >= 1

    def test_variance_policy_spends_exact_budget_including_pilot(
        self, chain_wire_cut_solution, chain_observable
    ):
        executor = SamplingExecutor(shots=10, seed=5)
        with ParallelEngine(executor) as engine:
            reconstructor = CutReconstructor(chain_wire_cut_solution, engine=engine)
            batch = reconstructor.enumerate_expectation_requests(chain_observable)
            allocation = allocate_shots(batch, 1001, "variance", engine=engine)
        assert allocation.policy == "variance"
        assert sum(allocation.pilot_shots_by_fingerprint.values()) > 0
        assert allocation.assigned_shots == 1001

    def test_pilot_and_final_passes_never_alias(
        self, chain_wire_cut_solution, chain_observable
    ):
        """Even when a variant's final shot count equals its pilot count, the
        final pass must re-sample (stage-aware seed + cache key), not replay
        the pilot sample that chose the allocation."""
        executor = SamplingExecutor(shots=10, seed=5)
        with ParallelEngine(executor) as engine:
            reconstructor = CutReconstructor(chain_wire_cut_solution, engine=engine)
            batch = reconstructor.enumerate_expectation_requests(chain_observable)
            unique = {request_key(variant) for variant in batch}
            # Minimum budget: pilot and final both give every variant 1 shot.
            allocation = allocate_shots(batch, 2 * len(unique), "variance", engine=engine)
            assert allocation.shots_by_fingerprint == allocation.pilot_shots_by_fingerprint
            engine.run_batch(batch, shots=ShotPlan(allocation.shots_by_fingerprint))
            # Pilot pass + final pass must both have executed every variant.
            assert executor.executions == 2 * len(unique)

    def test_variance_policy_requires_engine_and_sampling_executor(
        self, chain_wire_cut_solution, chain_observable
    ):
        batch = CutReconstructor(chain_wire_cut_solution).enumerate_expectation_requests(
            chain_observable
        )
        with pytest.raises(AllocationError, match="needs an engine"):
            allocate_shots(batch, 1000, "variance")
        with ParallelEngine(ExactExecutor()) as engine:
            with pytest.raises(AllocationError, match="sampling-capable"):
                allocate_shots(batch, 1000, "variance", engine=engine)

    def test_shot_plans_need_a_sampling_executor_and_a_variant(
        self, chain_wire_cut_solution, chain_observable
    ):
        executor = ExactExecutor()
        with ParallelEngine(executor) as engine:
            batch = CutReconstructor(
                chain_wire_cut_solution, engine=engine
            ).enumerate_expectation_requests(chain_observable)
            plan = ShotPlan({request_key(variant): 10 for variant in batch})
            with pytest.raises(AllocationError, match="sampling-capable"):
                engine.run_batch(batch, shots=plan)
        assert executor.executions == 0
        with pytest.raises(AllocationError, match="at least one variant"):
            ShotPlan({})

    def test_engine_config_validates_shot_knobs(self):
        assert EngineConfig(shots=128, allocation="variance").shots == 128
        with pytest.raises(ReproError):
            EngineConfig(shots=0)
        with pytest.raises(ReproError):
            EngineConfig(allocation="fancy")
        assert set(ALLOCATION_POLICIES) == {"uniform", "weighted", "variance"}


class TestEvaluateWorkloadShots:
    @pytest.fixture
    def small_case(self):
        return make_workload("VQE", 5, layers=1), CutConfig(device_size=3, max_subcircuits=2)

    def test_serial_parallel_identity_at_fixed_seed(self, small_case):
        workload, config = small_case
        serial = evaluate_workload(
            workload, config, engine_config=EngineConfig(shots=2000, seed=9)
        )
        parallel = evaluate_workload(
            workload, config, engine_config=EngineConfig(shots=2000, seed=9, max_workers=2)
        )
        assert parallel.expectation_value == serial.expectation_value

    def test_error_shrinks_with_budget(self, small_case):
        workload, config = small_case
        exact = evaluate_workload(workload, config).expectation_value

        def mean_error(shots):
            return np.mean(
                [
                    abs(
                        evaluate_workload(
                            workload,
                            config,
                            compute_reference=False,
                            engine_config=EngineConfig(shots=shots, seed=seed),
                        ).expectation_value
                        - exact
                    )
                    for seed in range(4)
                ]
            )

        assert mean_error(120000) < mean_error(500) / 2.0

    @pytest.mark.parametrize("policy", ALLOCATION_POLICIES)
    def test_allocation_reported_and_exact(self, small_case, policy):
        workload, config = small_case
        result = evaluate_workload(
            workload,
            config,
            compute_reference=False,
            engine_config=EngineConfig(shots=3000, allocation=policy, seed=2),
        )
        allocation = result.shot_allocation
        assert isinstance(allocation, ShotAllocation)
        assert allocation.policy == policy
        assert allocation.assigned_shots == 3000
        assert result.shot_allocation.policy == policy
        assert result.shot_allocation.total_shots == 3000
        assert "allocate" in result.timings

    def test_shots_from_engine_config(self, small_case):
        workload, config = small_case
        result = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(shots=2000, allocation="weighted", seed=1),
            compute_reference=False,
        )
        assert result.shot_allocation is not None
        assert result.shot_allocation.policy == "weighted"
        assert result.shot_allocation.assigned_shots == 2000

    def test_exact_executor_with_shots_rejected(self, small_case):
        workload, config = small_case
        with pytest.raises(CuttingError, match="sampling-capable"):
            evaluate_workload(
                workload,
                config,
                executor=ExactExecutor(),
                engine_config=EngineConfig(shots=100),
            )

    def test_seed_with_supplied_executor_rejected(self, small_case):
        # The config seed only seeds a session-built sampling executor; next
        # to a supplied executor it would be silently dropped.
        workload, config = small_case
        with pytest.raises(CuttingError, match="seed only applies"):
            evaluate_workload(
                workload,
                config,
                executor=SamplingExecutor(shots=10),
                engine_config=EngineConfig(shots=4096, seed=3),
            )
        # Seeding the executor itself is the supported spelling, and the
        # config's shot budget still applies to it.
        result = evaluate_workload(
            workload,
            config,
            executor=SamplingExecutor(shots=4096, seed=3),
            engine_config=EngineConfig(shots=200),
            compute_reference=False,
        )
        assert result.shot_allocation.assigned_shots == 200

    def test_seed_on_shared_engine_rejected(self, small_case):
        workload, config = small_case
        with ParallelEngine(
            SamplingExecutor(shots=10), EngineConfig(shots=4096, seed=3)
        ) as engine:
            with pytest.raises(CuttingError, match="seed only applies"):
                evaluate_workload(workload, config, engine=engine)

    def test_exact_evaluations_have_no_allocation(self, small_case):
        workload, config = small_case
        result = evaluate_workload(workload, config, compute_reference=False)
        assert result.shot_allocation is None
        assert "allocate" not in result.timings

    def test_seed_without_shots_rejected(self, small_case):
        workload, config = small_case
        with pytest.raises(ConfigError, match="seed"):
            evaluate_workload(workload, config, engine_config=EngineConfig(seed=7))

    def test_shared_engine_allocation_cleared_after_call(self, small_case):
        workload, config = small_case
        executor = SamplingExecutor(shots=4096, seed=3)
        with ParallelEngine(executor, EngineConfig(shots=200)) as engine:
            before = (dict(vars(engine)), dict(vars(executor)))
            result = evaluate_workload(
                workload, config, engine=engine, compute_reference=False
            )
            # The per-evaluation allocation never lands on the engine or the
            # executor: their attributes are the ones they had before the
            # call, and later batches draw the executor's default shots.
            assert set(vars(engine)) == set(before[0])
            assert set(vars(executor)) == set(before[1])
            assert executor.shots == 4096
            assert executor.cache_key("k") == build_cache_key(
                "k", shots=4096, stage="", seed_shots=4096
            )
        # ... and the result keeps its own snapshot.
        assert result.shot_allocation.assigned_shots == 200
        assert result.shot_allocation.policy == "uniform"


class TestConfigFirstSampling:
    """The consolidated request object: EngineConfig carries shots/seed too."""

    @pytest.fixture
    def small_case(self):
        return make_workload("VQE", 5, layers=1), CutConfig(device_size=3, max_subcircuits=2)

    def test_allocation_policy_from_config(self, small_case):
        workload, config = small_case
        result = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(shots=3000, allocation="variance", seed=2),
            compute_reference=False,
        )
        assert result.shot_allocation.policy == "variance"
        assert result.shot_allocation.assigned_shots == 3000


class TestPerCallTimingBugfix:
    def test_execute_timing_ignores_other_engine_traffic(self):
        """Lifetime-counter deltas were inflated by concurrent use; per-batch
        timing must be immune to execute_seconds accumulated by anyone else."""
        workload = make_workload("VQE", 5, layers=1)
        config = CutConfig(device_size=3, max_subcircuits=2)
        with ParallelEngine(ExactExecutor()) as engine:
            evaluate_workload(workload, config, engine=engine)
            # Simulate another thread having burned time on the shared engine.
            engine._execute_seconds += 100.0
            second = evaluate_workload(workload, config, engine=engine)
        assert second.timings["execute"] < 50.0
        assert second.timings["reconstruct"] >= 0.0
        assert second.timings["total"] < 50.0

    def test_total_is_sum_of_stages(self):
        workload = make_workload("VQE", 5, layers=1)
        config = CutConfig(device_size=3, max_subcircuits=2)
        result = evaluate_workload(
            workload, config, engine_config=EngineConfig(shots=1000, seed=0)
        )
        timings = result.timings
        expected = (
            timings["cut"]
            + timings["execute"]
            + timings["reconstruct"]
            + timings["allocate"]
            + timings["reference"]
        )
        assert timings["total"] == pytest.approx(expected)
