"""Tests for the streaming evaluation layer: prefix-stable sampling, the
incremental reconstructor's accumulator and confidence intervals, streaming
sessions' bit-identity with the batch pipeline, and the never-terminating
configuration guards."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ConfigError,
    CutConfig,
    EngineConfig,
    EvaluationSession,
    StoppingRule,
    StreamingConfig,
    evaluate_workload,
)
from repro.cutting import SamplingExecutor
from repro.engine import ParallelEngine, PruningPolicy, largest_remainder_split, neyman_weight
from repro.service.incremental import StreamingMoments, difference_tables
from repro.simulator.sampler import sample_weighted_counts_prefix
from repro.workloads import make_workload

from strategies import moment_chunks, small_workload, without_durations

SMALL_CONFIG = CutConfig(device_size=3, max_subcircuits=2)
#: Plenty per variant for the 60-variant VQE cut, and divisible many ways.
SMALL_SHOTS = 6144

#: Seeded snapshots of the pre-service batch pipeline, recorded before that
#: copy of the session body was deleted; every case ran under SMALL_CONFIG.
GOLDEN = json.loads((Path(__file__).parent / "golden_evaluations.json").read_text())["cases"]


def _qft5():
    return make_workload("QFT", 5)


GOLDEN_CASES = {
    "vqe5_exact": (small_workload, EngineConfig()),
    "vqe5_shots": (small_workload, EngineConfig(shots=SMALL_SHOTS, seed=11)),
    "vqe5_variance": (
        small_workload,
        EngineConfig(shots=SMALL_SHOTS, seed=11, allocation="variance"),
    ),
    "vqe5_weighted_pruned": (
        small_workload,
        EngineConfig(
            shots=SMALL_SHOTS,
            seed=11,
            allocation="weighted",
            pruning=PruningPolicy.budget_fraction(0.05),
        ),
    ),
    "qft5_exact": (_qft5, EngineConfig()),
    "qft5_shots": (_qft5, EngineConfig(shots=8192, seed=5)),
}


def _evaluate_golden_case(name):
    make, engine_config = GOLDEN_CASES[name]
    return evaluate_workload(
        make(), SMALL_CONFIG, compute_reference=False, engine_config=engine_config
    )


def _assert_matches_golden(name, result):
    golden = GOLDEN[name]
    assert result.num_variant_evaluations == golden["num_variant_evaluations"]
    shots = None
    if result.shot_allocation is not None:
        shots = {
            key: int(count)
            for key, count in result.shot_allocation.shots_by_fingerprint.items()
        }
    assert shots == golden["shots_by_fingerprint"]
    # Values are pinned to 1e-12, not bits: expectation values go through
    # BLAS (np.vdot), whose summation order may differ between machines.
    if golden["expectation_value"] is None:
        assert result.expectation_value is None
    else:
        assert result.expectation_value == pytest.approx(
            golden["expectation_value"], rel=0, abs=1e-12
        )
    if golden["probabilities"] is None:
        assert result.probabilities is None
    else:
        np.testing.assert_allclose(
            result.probabilities, golden["probabilities"], rtol=0, atol=1e-12
        )


class TestPrefixStableSampler:
    @given(
        num_outcomes=st.integers(min_value=1, max_value=12),
        shots=st.integers(min_value=1, max_value=300),
        prefix=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_property(self, num_outcomes, shots, prefix, seed):
        # The m-shot draw must be the literal first-m-shots histogram of the
        # n-shot draw at the same generator state, for every m <= n.
        prefix = min(prefix, shots)
        weights = np.random.default_rng(seed ^ 0xABCDEF).random(num_outcomes)
        full = sample_weighted_counts_prefix(
            weights, shots, np.random.default_rng(seed)
        )
        short = sample_weighted_counts_prefix(
            weights, prefix, np.random.default_rng(seed)
        )
        assert short.sum() == prefix and full.sum() == shots
        assert np.all(short <= full)
        # Split draws on one continuing generator: the head is the fresh
        # prefix draw, and head + tail is the fresh full draw, exactly.  A
        # streaming executor resumes saved generators on this identity.
        rng = np.random.default_rng(seed)
        head = sample_weighted_counts_prefix(weights, prefix, rng)
        assert np.array_equal(head, short)
        if shots > prefix:
            tail = sample_weighted_counts_prefix(weights, shots - prefix, rng)
            assert np.array_equal(head + tail, full)
        else:
            assert np.array_equal(head, full)
        # One shot at a time on a continuing generator gives the fresh draw's
        # per-shot outcomes: their first ``prefix`` rows sum to the prefix
        # histogram, and all of them to the full one.
        rng = np.random.default_rng(seed)
        singles = np.array(
            [sample_weighted_counts_prefix(weights, 1, rng) for _ in range(shots)]
        )
        assert np.array_equal(singles[:prefix].sum(axis=0), short)
        assert np.array_equal(singles.sum(axis=0), full)

    def test_zero_weight_bins_never_hit(self):
        weights = np.array([0.5, 0.0, 0.5, 0.0])
        counts = sample_weighted_counts_prefix(
            weights, 10_000, np.random.default_rng(1)
        )
        assert counts[1] == 0 and counts[3] == 0
        assert counts.sum() == 10_000

    def test_matches_multinomial_distribution(self):
        # Same marginal law as the bulk sampler: chi-square sanity at 3 sigma.
        weights = np.array([0.2, 0.3, 0.5])
        counts = sample_weighted_counts_prefix(
            weights, 30_000, np.random.default_rng(7)
        )
        expected = weights * 30_000
        sigma = np.sqrt(expected * (1 - weights))
        assert np.all(np.abs(counts - expected) < 4 * sigma)


class TestStreamingMoments:
    @given(chunks=moment_chunks)
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_recompute(self, chunks):
        # The one-pass weighted Welford must equal the two-pass textbook
        # formulas over the full chunk history.
        moments = StreamingMoments()
        for value, weight in chunks:
            moments.add(value, weight=weight)
        values = np.array([value for value, _ in chunks])
        weights = np.array([weight for _, weight in chunks])
        mean = np.average(values, weights=weights)
        m2 = float(np.sum(weights * (values - mean) ** 2))
        assert moments.count == len(chunks)
        assert math.isclose(moments.weight, float(weights.sum()), rel_tol=1e-9)
        assert math.isclose(moments.mean, float(mean), rel_tol=1e-9, abs_tol=1e-9)
        variance = moments.variance()
        assert math.isclose(
            variance, m2 / (len(chunks) - 1), rel_tol=1e-9, abs_tol=1e-9
        )

    def test_vector_accumulation(self):
        moments = StreamingMoments()
        moments.add(np.array([1.0, 3.0]), weight=2.0)
        moments.add(np.array([2.0, 1.0]), weight=2.0)
        assert np.allclose(moments.mean, [1.5, 2.0])
        # half_width is the widest per-component interval.
        widths = moments.half_widths(1.96)
        assert moments.half_width(1.96) == pytest.approx(float(np.max(widths)))

    def test_needs_two_chunks_for_an_interval(self):
        moments = StreamingMoments()
        assert moments.half_width(1.96) is None
        moments.add(1.0, weight=4.0)
        assert moments.variance() is None and moments.half_width(1.96) is None

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            StreamingMoments().add(1.0, weight=0.0)

    def test_empirical_coverage_at_least_nominal(self):
        # Seeded multinomial data: estimate a known mean from R chunked
        # samples; the 95% interval must cover the truth at >= ~nominal rate.
        rng = np.random.default_rng(1234)
        probabilities = np.array([0.15, 0.25, 0.6])
        outcome_values = np.array([-1.0, 0.0, 1.0])
        truth = float(probabilities @ outcome_values)
        z95 = 1.959963984540054
        covered = 0
        trials = 300
        for _ in range(trials):
            moments = StreamingMoments()
            for _ in range(12):  # 12 chunks of 200 shots each
                counts = rng.multinomial(200, probabilities)
                moments.add(float(counts @ outcome_values) / 200, weight=200)
            half = moments.half_width(z95)
            if abs(moments.mean - truth) <= half:
                covered += 1
        coverage = covered / trials
        # Nominal 0.95 minus 3 binomial standard errors of slack.
        assert coverage >= 0.95 - 3 * math.sqrt(0.95 * 0.05 / trials)


class TestDifferenceTables:
    def test_first_round_returns_cumulative(self):
        from repro.engine import VariantResult

        table = {"a": VariantResult(value=0.5)}
        assert difference_tables(table, None, {"a": 10}, {}) == table

    def test_chunk_mean_recovers_fresh_shots(self):
        from repro.engine import VariantResult

        # 10 shots mean 0.2, then 25 shots mean 0.4: the 15 fresh shots must
        # average (25*0.4 - 10*0.2) / 15.
        previous = {"a": VariantResult(value=0.2)}
        cumulative = {"a": VariantResult(value=0.4)}
        chunk = difference_tables(cumulative, previous, {"a": 25}, {"a": 10})
        assert chunk["a"].value == pytest.approx((25 * 0.4 - 10 * 0.2) / 15)

    def test_stagnant_count_keeps_cumulative_value(self):
        from repro.engine import VariantResult

        previous = {"a": VariantResult(value=0.2)}
        cumulative = {"a": VariantResult(value=0.3)}
        chunk = difference_tables(cumulative, previous, {"a": 10}, {"a": 10})
        assert chunk["a"].value == 0.3

    def test_distribution_differencing(self):
        from repro.engine import VariantResult

        previous = {"a": VariantResult(value=0.0, distribution=np.array([1.0, 0.0]))}
        cumulative = {"a": VariantResult(value=0.0, distribution=np.array([0.5, 0.5]))}
        chunk = difference_tables(cumulative, previous, {"a": 20}, {"a": 10})
        assert np.allclose(chunk["a"].distribution, [0.0, 1.0])


class TestStreamingBitIdentity:
    def test_streaming_disabled_matches_legacy_pipeline(self):
        result = _evaluate_golden_case("vqe5_shots")
        _assert_matches_golden("vqe5_shots", result)
        assert result.rounds == 1 and result.termination_reason is None

    def test_exact_path_matches_legacy_pipeline(self):
        _assert_matches_golden("vqe5_exact", _evaluate_golden_case("vqe5_exact"))

    @pytest.mark.parametrize(
        "name", ["vqe5_variance", "vqe5_weighted_pruned", "qft5_exact", "qft5_shots"]
    )
    def test_policies_match_legacy_pipeline(self, name):
        _assert_matches_golden(name, _evaluate_golden_case(name))

    @given(rounds=st.integers(min_value=1, max_value=7), seed=st.integers(0, 50))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_streaming_to_completion_is_bit_identical(self, rounds, seed):
        # Run-to-completion streaming must reproduce the one-shot batch draw
        # exactly, for any round count and seed (the prefix-stable identity).
        workload = small_workload()
        batch = evaluate_workload(
            workload,
            SMALL_CONFIG,
            engine_config=EngineConfig(shots=SMALL_SHOTS, seed=seed),
        )
        streamed = evaluate_workload(
            workload,
            SMALL_CONFIG,
            engine_config=EngineConfig(
                shots=SMALL_SHOTS,
                seed=seed,
                streaming=StreamingConfig(rounds=rounds),
            ),
        )
        assert streamed.expectation_value == batch.expectation_value
        assert streamed.termination_reason == "completed"
        assert streamed.shots_spent == batch.shots_spent

    def test_streaming_reports_interval_and_rounds(self):
        result = evaluate_workload(
            small_workload(),
            SMALL_CONFIG,
            engine_config=EngineConfig(
                shots=SMALL_SHOTS,
                seed=3,
                streaming=StreamingConfig(rounds=4),
            ),
        )
        assert result.rounds == 4
        assert result.half_width is not None and result.half_width > 0
        assert result.confidence == 0.95

    def test_parallel_streaming_identical_to_serial(self):
        workload = small_workload()
        serial = evaluate_workload(
            workload,
            SMALL_CONFIG,
            engine_config=EngineConfig(
                shots=SMALL_SHOTS,
                seed=5,
                streaming=StreamingConfig(rounds=3),
            ),
        )
        parallel = evaluate_workload(
            workload,
            SMALL_CONFIG,
            engine_config=EngineConfig(
                max_workers=2,
                shots=SMALL_SHOTS,
                seed=5,
                streaming=StreamingConfig(rounds=3),
            ),
        )
        # Pool workers rebuild their executor per chunk, so they always redraw
        # every stream from its seed, while the serial run resumes its saved
        # generators: the whole result, per-round interval included, agrees.
        assert _reconstructed_fields(parallel) == _reconstructed_fields(serial)
        assert (parallel.half_width, parallel.confidence) == (
            serial.half_width,
            serial.confidence,
        )


#: to_dict() fields that describe how a run was driven (rounds, timings,
#: engine traffic, confidence intervals), not what it reconstructed.
_DRIVING_FIELDS = (
    "timings",
    "engine_stats",
    "num_variant_evaluations",
    "rounds",
    "termination_reason",
    "half_width",
    "confidence",
)


def _reconstructed_fields(result):
    payload = json.loads(result.to_json())
    for key in _DRIVING_FIELDS:
        payload.pop(key)
    payload["plan"].pop("solve_time")
    dynamic = payload["dynamic_result"]
    if dynamic is not None:
        dynamic.pop("num_chunk_contractions")
        for level in dynamic["levels"]:
            level.pop("half_width")
    return payload


class TestSingleFoldPath:
    """The fold and finish share one per-table contraction, chosen per session."""

    @pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
    @pytest.mark.parametrize(
        "make,extra",
        [
            (small_workload, {}),
            (_qft5, {}),
            (_qft5, {"qubit_limit": 2}),
        ],
        ids=["expectation", "probability", "dynamic-root-bins"],
    )
    def test_streaming_to_completion_equals_batch(self, make, extra, pruned):
        # Pruning switches the contraction to missing="skip".
        knobs = dict(shots=8192, seed=11, **extra)
        if pruned:
            knobs["pruning"] = PruningPolicy.budget_fraction(0.05)
        batch = evaluate_workload(
            make(), SMALL_CONFIG, compute_reference=False, engine_config=EngineConfig(**knobs)
        )
        streamed = evaluate_workload(
            make(),
            SMALL_CONFIG,
            compute_reference=False,
            engine_config=EngineConfig(streaming=StreamingConfig(rounds=4), **knobs),
        )
        assert streamed.termination_reason == "completed"
        assert streamed.half_width is not None  # every round went through the fold
        assert _reconstructed_fields(streamed) == _reconstructed_fields(batch)
        if "qubit_limit" in extra:
            # The fold contracted the root bins: its interval is the root level's.
            assert streamed.half_width == streamed.dynamic_result.levels[0].half_width


class TestOneRoundLoop:
    """A session without streaming is a one-round stream without the fold."""

    @pytest.mark.parametrize("allocation", ["uniform", "variance"])
    def test_batch_equals_one_round_stream(self, allocation):
        knobs = dict(shots=SMALL_SHOTS, seed=5, allocation=allocation)
        batch = evaluate_workload(
            small_workload(), SMALL_CONFIG, engine_config=EngineConfig(**knobs)
        )
        streamed = evaluate_workload(
            small_workload(),
            SMALL_CONFIG,
            engine_config=EngineConfig(streaming=StreamingConfig(rounds=1), **knobs),
        )
        assert (batch.termination_reason, batch.confidence) == (None, None)
        assert (streamed.termination_reason, streamed.confidence) == ("completed", 0.95)
        # One chunk carries no variance, so neither run has an interval.
        assert batch.half_width is None and streamed.half_width is None
        payloads = []
        for result in (batch, streamed):
            payload = without_durations(result.to_dict())
            del payload["termination_reason"], payload["confidence"]
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_exact_session_runs_one_round_without_a_plan(self):
        # Exact mode has no shots, so no stream (a StreamingConfig is
        # rejected): its one round executes every variant unsampled.
        with pytest.raises(ConfigError, match="shot budget"):
            EngineConfig(streaming=StreamingConfig(rounds=1))
        session = EvaluationSession(small_workload(), SMALL_CONFIG, compute_reference=False)
        try:
            session.prepare()
            assert session.step() is False
            assert session.state == "done" and session.rounds_done == 1
            result = session.finish()
        finally:
            session.close()
        assert (result.rounds, result.shots_spent) == (1, 0)
        assert (result.termination_reason, result.half_width, result.confidence) == (
            None,
            None,
            None,
        )
        _assert_matches_golden("vqe5_exact", result)


#: Stage keys every result reports, whatever the mode.
_BASE_TIMINGS = {"cut", "execute", "reconstruct", "plan", "contract", "merge", "total"}


class TestTimingsLedger:
    @pytest.mark.parametrize(
        "make,knobs,extra",
        [
            (small_workload, {}, set()),
            (small_workload, {"shots": SMALL_SHOTS, "seed": 1}, {"allocate"}),
            (
                small_workload,
                {"shots": SMALL_SHOTS, "seed": 1, "allocation": "variance"},
                {"allocate"},
            ),
            (small_workload, {"pruning": PruningPolicy.budget_fraction(0.05)}, {"prune"}),
            (
                small_workload,
                {"shots": SMALL_SHOTS, "seed": 1, "optimize_overhead": "weights"},
                {"allocate", "optimize"},
            ),
            (
                small_workload,
                {"shots": SMALL_SHOTS, "seed": 1, "streaming": StreamingConfig(rounds=3)},
                {"allocate"},
            ),
            (_qft5, {"qubit_limit": 2}, set()),
        ],
        ids=["exact", "shots", "variance", "pruning", "optimize", "streaming", "dynamic"],
    )
    @pytest.mark.parametrize("reference", [False, True], ids=["no-ref", "ref"])
    def test_key_sets_and_total(self, make, knobs, extra, reference):
        result = evaluate_workload(
            make(), SMALL_CONFIG, compute_reference=reference, engine_config=EngineConfig(**knobs)
        )
        expected = _BASE_TIMINGS | extra | ({"reference"} if reference else set())
        assert set(result.timings) == expected
        stages = expected - {"plan", "contract", "merge", "total"}
        assert result.timings["total"] == pytest.approx(
            sum(result.timings[stage] for stage in stages)
        )
        assert all(seconds >= 0.0 for seconds in result.timings.values())
        if "optimize" in extra:
            # The optimizer times its whole call once; the ledger reads it.
            assert result.timings["optimize"] == result.overhead_report.optimize_seconds


class TestStoppingRules:
    def test_budget_exhaustion_stops_early(self):
        result = evaluate_workload(
            small_workload(),
            SMALL_CONFIG,
            engine_config=EngineConfig(
                shots=SMALL_SHOTS,
                seed=0,
                streaming=StreamingConfig(rounds=6),
                stopping=StoppingRule(shot_budget=SMALL_SHOTS // 2),
            ),
        )
        assert result.termination_reason == "budget_exhausted"
        assert result.shots_spent < SMALL_SHOTS
        assert result.rounds < 6

    def test_max_rounds_stops_early(self):
        result = evaluate_workload(
            small_workload(),
            SMALL_CONFIG,
            engine_config=EngineConfig(
                shots=SMALL_SHOTS,
                seed=0,
                streaming=StreamingConfig(rounds=6),
                stopping=StoppingRule(max_rounds=2),
            ),
        )
        assert result.termination_reason == "max_rounds"
        assert result.rounds == 2

    def test_stopping_without_streaming_gets_default_rounds(self):
        result = evaluate_workload(
            small_workload(),
            SMALL_CONFIG,
            engine_config=EngineConfig(
                shots=SMALL_SHOTS,
                seed=0,
                stopping=StoppingRule(max_rounds=2),
            ),
        )
        assert result.termination_reason == "max_rounds"

    def test_target_gated_by_min_rounds(self):
        rule = StoppingRule(target_half_width=1e9, min_rounds=3, max_rounds=50)
        assert (
            rule.should_stop(
                rounds=2, shots_spent=0, elapsed_seconds=0.0, half_width=0.0
            )
            is None
        )
        assert (
            rule.should_stop(
                rounds=3, shots_spent=0, elapsed_seconds=0.0, half_width=0.0
            )
            == "target_reached"
        )

    def test_deadline_reason(self):
        rule = StoppingRule(deadline_seconds=0.5)
        assert (
            rule.should_stop(
                rounds=1, shots_spent=0, elapsed_seconds=1.0, half_width=None
            )
            == "deadline"
        )

    def test_z_value_matches_normal_quantile(self):
        assert StoppingRule(max_rounds=1).z_value == pytest.approx(1.96, abs=1e-3)


class TestConfigGuards:
    def test_target_alone_never_terminates_rejected(self):
        with pytest.raises(ConfigError, match="hard bound"):
            StoppingRule(target_half_width=0.1)

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ConfigError):
            StreamingConfig(rounds=0)

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ConfigError):
            StoppingRule(confidence=1.0, max_rounds=2)

    def test_min_rounds_below_two_rejected(self):
        with pytest.raises(ConfigError, match="min_rounds"):
            StoppingRule(min_rounds=1, max_rounds=4)

    def test_streaming_without_shots_rejected(self):
        with pytest.raises(ConfigError, match="shot budget"):
            evaluate_workload(
                small_workload(),
                SMALL_CONFIG,
                engine_config=EngineConfig(streaming=StreamingConfig(rounds=2)),
            )

    def test_streaming_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="StreamingConfig"):
            evaluate_workload(
                small_workload(),
                SMALL_CONFIG,
                engine_config=EngineConfig(shots=SMALL_SHOTS, streaming=4),
            )

    def test_engine_config_validates_streaming_types(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="StreamingConfig"):
            EngineConfig(streaming="fast")
        with pytest.raises(ReproError, match="StoppingRule"):
            EngineConfig(stopping="soon")

    def test_engine_config_carries_streaming(self):
        config = EngineConfig(
            shots=SMALL_SHOTS,
            streaming=StreamingConfig(rounds=3),
            stopping=StoppingRule(max_rounds=2),
        )
        result = evaluate_workload(
            small_workload(),
            SMALL_CONFIG,
            engine_config=config.with_(seed=1),
        )
        assert result.termination_reason == "max_rounds"


class TestSerialization:
    def test_to_dict_to_json_round_trip(self):
        import json

        result = evaluate_workload(
            small_workload(),
            SMALL_CONFIG,
            engine_config=EngineConfig(
                shots=SMALL_SHOTS,
                seed=2,
                streaming=StreamingConfig(rounds=3),
            ),
        )
        payload = result.to_dict()
        assert payload["rounds"] == 3
        assert payload["shots_spent"] == result.shots_spent
        assert payload["expectation_value"] == result.expectation_value
        assert json.loads(result.to_json()) == payload

    def test_probability_vectors_serialise_as_lists(self):
        import json

        workload = make_workload("QFT", 4)
        result = evaluate_workload(workload, CutConfig(device_size=3))
        payload = json.loads(result.to_json())
        assert isinstance(payload["probabilities"], list)
        assert payload["probabilities"] == pytest.approx(
            list(result.probabilities)
        )


class TestSessionLifecycle:
    def test_manual_drive_matches_run(self):
        workload = small_workload()
        engine_config = EngineConfig(
            shots=SMALL_SHOTS, seed=9, streaming=StreamingConfig(rounds=3)
        )
        auto = evaluate_workload(workload, SMALL_CONFIG, engine_config=engine_config)
        session = EvaluationSession(workload, SMALL_CONFIG, engine_config=engine_config)
        try:
            session.prepare()
            while session.step():
                pass
            manual = session.finish()
        finally:
            session.close()
        assert manual.expectation_value == auto.expectation_value

    def test_out_of_order_calls_rejected(self):
        from repro.exceptions import CuttingError

        session = EvaluationSession(small_workload(), SMALL_CONFIG)
        try:
            with pytest.raises(CuttingError, match="step"):
                session.step()
            with pytest.raises(CuttingError, match="finish"):
                session.finish()
        finally:
            session.close()


class TestReplan:
    def test_replanned_rounds_split_their_budget_by_neyman_weight(self, monkeypatch):
        rounds = 4
        engine = ParallelEngine(SamplingExecutor(shots=SMALL_SHOTS, seed=0))
        batches = []
        run_batch_timed = engine.run_batch_timed

        def recording(variants, shots=None):
            table, seconds = run_batch_timed(variants, shots=shots)
            batches.append((shots, table))
            return table, seconds

        monkeypatch.setattr(engine, "run_batch_timed", recording)
        session = EvaluationSession(
            small_workload(),
            SMALL_CONFIG,
            compute_reference=False,
            engine=engine,
            engine_config=EngineConfig(
                shots=SMALL_SHOTS, streaming=StreamingConfig(rounds=rounds, replan=True)
            ),
        )
        result = session.run()
        totals = result.shot_allocation.shots_by_fingerprint
        # The base plan: every variant's total split evenly over the rounds.
        base = [
            {key: count // rounds + (index < count % rounds) for key, count in totals.items()}
            for index in range(rounds)
        ]
        weights = session._weights
        assert len(batches) == rounds and result.shots_spent == SMALL_SHOTS
        cumulative, previous_table, replanned = {}, None, 0
        for index, (plan, table) in enumerate(batches):
            assert plan.seed_shots_by_fingerprint == totals
            chunk = {key: plan.shots_by_fingerprint[key] - cumulative.get(key, 0) for key in totals}
            assert sum(chunk.values()) == sum(base[index].values())
            assert min(chunk.values()) >= 1
            if index == 0:
                assert chunk == base[0]
            else:
                neyman = {
                    key: neyman_weight(weights.get(key, 1.0), previous_table[key], cumulative[key])
                    for key in totals
                }
                assert chunk == largest_remainder_split(sum(base[index].values()), neyman)
                replanned += chunk != base[index]
            cumulative, previous_table = dict(plan.shots_by_fingerprint), table
        assert replanned  # the re-split really moved shots between variants
