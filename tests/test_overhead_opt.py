"""Tests for sampling-overhead minimization (repro.cutting.shot_overhead) and
the consolidated evaluate_workload request object (EngineConfig as the single
source of truth for engine knobs)."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro import CutConfig, EngineConfig, OverheadReport, evaluate_workload
from repro.core import cut_circuit
from repro.cutting import (
    OVERHEAD_MODES,
    CutReconstructor,
    optimize_overhead_weights,
    sampling_overhead,
    sampling_variance_bound,
    variant_profile,
)
from repro.cutting.variants import VariantSettings
from repro.engine import PruningPolicy, request_key
from repro.exceptions import ConfigError, ReproError
from repro.workloads import make_workload

# ---------------------------------------------------------------------------
# Synthetic variants: the optimizer only reads settings + fingerprint, so a
# stub carrying hand-built VariantSettings exercises the whole model without
# any cut search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StubVariant:
    """The two attributes of a variant that the optimizer reads."""

    settings: VariantSettings

    @property
    def fingerprint(self) -> str:
        return repr(self.settings)


def single_simplex_batch(bases=("I", "X", "Y", "Z")):
    """One wire-cut measurement simplex; each variant uses one distinct basis."""
    return [
        StubVariant(VariantSettings(measurement_bases=(("w0_0", basis),)))
        for basis in bases
    ]


@pytest.fixture(scope="module")
def ising_workload():
    return make_workload("IS", 4)


@pytest.fixture(scope="module")
def ising_config():
    return CutConfig(device_size=2, enable_gate_cuts=True)


class TestVarianceModel:
    def test_bound_matches_direct_formula(self):
        weights = {"a": 2.0, "b": 1.0}
        probabilities = {"a": 0.5, "b": 0.5}
        assert sampling_variance_bound(weights, probabilities) == pytest.approx(
            4.0 / 0.5 + 1.0 / 0.5
        )

    def test_unnormalised_probabilities_are_equivalent(self):
        weights = {"a": 2.0, "b": 1.0, "c": 0.25}
        probabilities = {"a": 3.0, "b": 1.0, "c": 4.0}
        scaled = {key: 17.5 * value for key, value in probabilities.items()}
        assert sampling_variance_bound(weights, probabilities) == pytest.approx(
            sampling_variance_bound(weights, scaled)
        )

    def test_zero_probability_with_weight_is_infinite(self):
        bound = sampling_variance_bound({"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 0.0})
        assert math.isinf(bound)

    def test_zero_weight_fingerprints_are_free(self):
        # A fingerprint with zero contraction weight contributes nothing even
        # if it is never sampled.
        bound = sampling_variance_bound({"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.0})
        assert bound == pytest.approx(1.0)

    def test_zero_total_mass_raises(self):
        with pytest.raises(ReproError, match="positive total mass"):
            sampling_variance_bound({"a": 1.0}, {"a": 0.0})

    def test_overhead_is_one_at_the_neyman_split(self):
        weights = {"a": 4.0, "b": 2.0, "c": 1.0, "d": 1.0}
        neyman = {key: abs(value) for key, value in weights.items()}
        assert sampling_overhead(weights, neyman) == pytest.approx(1.0)

    def test_uniform_overhead_closed_form(self):
        weights = {"a": 3.0, "b": 1.0}
        uniform = {"a": 1.0, "b": 1.0}
        # K * sum(w^2) / (sum |w|)^2 for K variants.
        assert sampling_overhead(weights, uniform) == pytest.approx(2 * 10.0 / 16.0)

    def test_any_split_is_no_better_than_neyman(self):
        weights = {"a": 2.0, "b": 1.0, "c": 0.5}
        for shares in itertools.permutations((0.6, 0.3, 0.1)):
            probabilities = dict(zip(sorted(weights), shares))
            assert sampling_overhead(weights, probabilities) >= 1.0 - 1e-12


class TestVariantProfile:
    def test_profile_collects_all_cut_parameters(self):
        settings = VariantSettings(
            measurement_bases=(("w0_1", "X"),),
            init_labels=(("w0_1", "plus"),),
            gate_instances=((3, 5),),
        )
        profile = variant_profile(StubVariant(settings))
        assert profile == tuple(
            sorted(
                (
                    ("measure:w0_1", "X"),
                    ("prepare:w0_1", "plus"),
                    ("instance:g3", "5"),
                )
            )
        )

    def test_uncut_variant_has_empty_profile(self):
        assert variant_profile(StubVariant(VariantSettings())) == ()


class TestOptimizer:
    def test_single_simplex_recovers_the_neyman_split(self):
        # With one simplex and one token per variant, ptilde_f = q(token(f))
        # and the exact optimum is p_f ~ |w_f|: overhead_after must hit 1.
        batch = single_simplex_batch()
        weights = {request_key(v): w for v, w in zip(batch, (4.0, 2.0, 1.0, 1.0))}
        optimized, report = optimize_overhead_weights(batch, weights)
        assert report.overhead_after == pytest.approx(1.0, abs=1e-6)
        total = sum(weights.values())
        for variant in batch:
            key = request_key(variant)
            assert optimized[key] == pytest.approx(weights[key] / total, abs=1e-6)

    def test_matches_brute_force_on_a_coupled_two_simplex_model(self):
        # Two simplices with two tokens each, every (token, token) combination
        # realised by one variant: the objective is scale-invariant per
        # simplex, so a dense grid over the two free shares brute-forces the
        # true optimum.
        batch = []
        weight_of = {}
        weight_table = {("I", "1"): 3.0, ("I", "2"): 0.5, ("X", "1"): 1.0, ("X", "2"): 2.0}
        for (basis, instance), weight in sorted(weight_table.items()):
            variant = StubVariant(
                VariantSettings(
                    measurement_bases=(("w0_0", basis),),
                    gate_instances=((7, int(instance)),),
                )
            )
            batch.append(variant)
            weight_of[request_key(variant)] = weight
        optimized, report = optimize_overhead_weights(batch, weight_of)

        def objective(x, y):
            q = {("I",): x, ("X",): 1 - x, ("1",): y, ("2",): 1 - y}
            variance = scale = 0.0
            for (basis, instance), weight in weight_table.items():
                ptilde = q[(basis,)] * q[(instance,)]
                variance += weight**2 / ptilde
                scale += ptilde
            return variance * scale

        grid = np.linspace(0.01, 0.99, 199)
        brute = min(objective(x, y) for x in grid for y in grid)
        ideal = sum(weight_table.values()) ** 2
        assert report.overhead_after <= brute / ideal + 1e-6
        assert report.overhead_after < report.overhead_before
        assert sum(optimized.values()) == pytest.approx(1.0)

    def test_never_worse_than_uniform(self):
        batch = single_simplex_batch()
        weights = {request_key(v): w for v, w in zip(batch, (1.0, 1.0, 1.0, 1.0))}
        optimized, report = optimize_overhead_weights(batch, weights)
        # Equal weights: uniform is already optimal, and the clamp guarantees
        # we never report a regression.
        assert report.overhead_after <= report.overhead_before + 1e-12
        for share in optimized.values():
            assert share == pytest.approx(0.25, abs=1e-6)

    def test_zero_weight_variants_keep_positive_probability(self):
        batch = single_simplex_batch()
        weights = {request_key(v): w for v, w in zip(batch, (1.0, 0.0, 0.0, 2.0))}
        optimized, _ = optimize_overhead_weights(batch, weights)
        assert all(share > 0.0 for share in optimized.values())
        assert sum(optimized.values()) == pytest.approx(1.0)

    def test_deterministic(self):
        batch = single_simplex_batch()
        weights = {request_key(v): w for v, w in zip(batch, (5.0, 3.0, 2.0, 1.0))}
        first = optimize_overhead_weights(batch, weights)
        second = optimize_overhead_weights(batch, weights)
        assert first[0] == second[0]
        assert first[1].overhead_after == second[1].overhead_after
        assert first[1].iterations == second[1].iterations

    def test_empty_batch_raises(self):
        with pytest.raises(ReproError, match="empty batch"):
            optimize_overhead_weights([], {})

    def test_report_and_breakdown_shape(self):
        batch = single_simplex_batch()
        weights = {request_key(v): w for v, w in zip(batch, (4.0, 2.0, 1.0, 1.0))}
        _, report = optimize_overhead_weights(batch, weights)
        assert isinstance(report, OverheadReport)
        assert report.mode == "weights"
        assert report.method in ("coordinate", "coordinate+scipy")
        assert report.converged
        assert report.num_variants == 4
        assert report.num_simplices == 1
        assert report.reduction == pytest.approx(
            report.overhead_before / report.overhead_after
        )
        row = report.row()
        assert row["mode"] == "weights"
        assert row["overhead_after"] <= row["overhead_before"]
        (side,) = report.cuts
        assert side.cut == "w0_0"
        assert side.kind == "wire"
        assert side.side == "measure"
        assert side.tokens == ("I", "X", "Y", "Z")  # canonical, not sorted
        assert sum(side.weights) == pytest.approx(1.0)
        assert side.uniform_share == pytest.approx(0.25)
        assert side.max_shift == pytest.approx(
            max(abs(w - 0.25) for w in side.weights)
        )
        assert side.row()["cut"] == "w0_0"


class TestSessionIntegration:
    def test_off_mode_is_bit_identical_to_default_config(
        self, ising_workload, ising_config
    ):
        for seed in (0, 1):
            base = evaluate_workload(
                ising_workload,
                ising_config,
                engine_config=EngineConfig(shots=1024, seed=seed),
            )
            off = evaluate_workload(
                ising_workload,
                ising_config,
                engine_config=EngineConfig(shots=1024, seed=seed, optimize_overhead="none"),
            )
            assert off.expectation_value == base.expectation_value
            assert off.overhead_report is None
            assert "optimize" not in off.timings

    def test_weights_mode_reports_and_upgrades_allocation(
        self, ising_workload, ising_config
    ):
        result = evaluate_workload(
            ising_workload,
            ising_config,
            engine_config=EngineConfig(shots=2048, seed=0, optimize_overhead="weights"),
        )
        report = result.overhead_report
        assert report is not None
        assert report.overhead_after <= report.overhead_before
        assert report.effective_allocation == "weighted"
        assert report.optimize_seconds >= 0.0
        assert "optimize" in result.timings
        assert result.to_dict()["overhead_report"]["mode"] == "weights"

    def test_weights_mode_is_exact_without_shots(self, ising_workload, ising_config):
        # Without a budget the optimized weights have nothing to reweight:
        # exact execution must give the same reconstruction, but the report is
        # still produced (with no allocation upgrade to record).
        exact_off = evaluate_workload(ising_workload, ising_config)
        exact_on = evaluate_workload(
            ising_workload,
            ising_config,
            engine_config=EngineConfig(optimize_overhead="weights"),
        )
        assert exact_on.expectation_value == pytest.approx(
            exact_off.expectation_value, abs=1e-12
        )
        assert exact_on.overhead_report is not None
        assert exact_on.overhead_report.effective_allocation is None

    def test_weights_mode_beats_uniform_on_the_model(self, ising_workload, ising_config):
        result = evaluate_workload(
            ising_workload,
            ising_config,
            engine_config=EngineConfig(shots=2048, seed=0, optimize_overhead="weights"),
        )
        # IS-4/ds2 cuts with gate cuts, whose uneven instance coefficients the
        # optimizer exploits: the modelled reduction is well above 2x.
        assert result.overhead_report.reduction >= 2.0

    def test_pruning_bound_uses_true_weights(self, ising_workload, ising_config):
        # The optimized sampling weights rank the drop, but the a-priori bias
        # bound holds only over the true contraction weights.
        plan = cut_circuit(ising_workload.circuit, ising_config)
        true = {}
        CutReconstructor(plan.solution, specs=plan.subcircuits).enumerate_expectation_requests(
            ising_workload.observable, weights_out=true
        )
        full = evaluate_workload(ising_workload, ising_config, compute_reference=False)
        pruned = evaluate_workload(
            ising_workload,
            ising_config,
            compute_reference=False,
            engine_config=EngineConfig(
                optimize_overhead="weights", pruning=PruningPolicy.budget_fraction(0.05)
            ),
        )
        report = pruned.pruning_report
        assert report.dropped_variants > 0
        assert report.total_weight == pytest.approx(sum(abs(value) for value in true.values()))
        assert report.dropped_weight == pytest.approx(
            sum(abs(true[key]) for key in report.dropped_fingerprints)
        )
        assert report.bias_bound == report.dropped_weight
        assert abs(pruned.expectation_value - full.expectation_value) <= report.bias_bound


class TestEngineConfigValidation:
    def test_overhead_modes_constant(self):
        assert OVERHEAD_MODES == ("none", "weights")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ReproError, match="optimize_overhead"):
            EngineConfig(optimize_overhead="always")

    def test_seed_requires_shots(self):
        with pytest.raises(ReproError, match="needs shots"):
            EngineConfig(seed=3)

    def test_session_rejects_unknown_mode(self, ising_workload, ising_config):
        from repro.service import EvaluationSession

        with pytest.raises(ConfigError, match="optimize_overhead"):
            EvaluationSession(
                ising_workload,
                ising_config,
                engine_config=EngineConfig(optimize_overhead="weights!"),
            )

    def test_optimize_overhead_is_config_only(self, ising_workload, ising_config):
        # Deliberately no keyword alias: the consolidated request object is
        # the only spelling for new knobs.
        with pytest.raises(TypeError):
            evaluate_workload(
                ising_workload, ising_config, shots=512, optimize_overhead="weights"
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("shots", 512),
            ("allocation", "weighted"),
            ("seed", 3),
            ("pruning", "threshold"),
            ("devices", ()),
            ("routing", "best_fit"),
            ("streaming", None),
            ("stopping", None),
            ("qubit_limit", 2),
            ("recursion_depth", 1),
            ("optimize_overhead", "weights"),
        ],
    )
    def test_engine_knobs_are_config_only(self, ising_workload, ising_config, name, value):
        # The keyword spellings these knobs once had are gone for good, from
        # every entry point: each takes one EngineConfig instead.
        from repro.cutting import SamplingExecutor
        from repro.engine import ParallelEngine
        from repro.service import EvaluationSession, ServiceQueue

        with pytest.raises(TypeError):
            evaluate_workload(ising_workload, ising_config, **{name: value})
        with pytest.raises(TypeError):
            EvaluationSession(ising_workload, ising_config, **{name: value})
        queue = ServiceQueue(ParallelEngine(SamplingExecutor(shots=512, seed=0)))
        with pytest.raises(TypeError):
            queue.submit(ising_workload, ising_config, **{name: value})
        assert queue.tickets == []


class TestDeprecatedEngineKwargs:
    """The config spelling that replaced the removed engine keywords."""

    def test_config_seed_feeds_the_sampling_executor(self, ising_workload, ising_config):
        seeded = evaluate_workload(
            ising_workload,
            ising_config,
            engine_config=EngineConfig(shots=512, seed=11),
        )
        again = evaluate_workload(
            ising_workload,
            ising_config,
            engine_config=EngineConfig(shots=512, seed=11),
        )
        other = evaluate_workload(
            ising_workload,
            ising_config,
            engine_config=EngineConfig(shots=512, seed=12),
        )
        assert seeded.expectation_value == again.expectation_value
        assert seeded.expectation_value != other.expectation_value
