"""Dynamic-definition reconstruction: binned marginals, recursive zoom,
mass-coverage bounds, gate-cut rejection, and the pipeline/session wiring."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    ConfigError,
    CutConfig,
    EngineConfig,
    StreamingConfig,
    evaluate_workload,
)
from repro.cutting import (
    BinSpace,
    CutReconstructor,
    DynamicDefinitionResult,
    binned_probabilities,
    plan_dynamic_definition,
    reconstruct_dynamic,
)
from repro.cutting.dynamic_definition import MASS_COVERAGE_SLACK
from repro.exceptions import ReconstructionError, ReproError
from repro.workloads import make_workload

from strategies import (
    random_angle_chain_solution,
    two_cut_probability_solutions,
    two_cut_solution,
)


def _exact_table(reconstructor):
    return reconstructor.engine.run_batch(reconstructor.enumerate_probability_requests())


def _dynamic(reconstructor, table, missing="execute", **knobs):
    plan = plan_dynamic_definition(reconstructor.solution, reconstructor.specs, **knobs)
    return reconstruct_dynamic(reconstructor, plan, table=table, missing=missing)


# ------------------------------------------------------------------- planning
class TestPlanning:
    def test_windows_chunk_output_qubits(self):
        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        plan = plan_dynamic_definition(solution, reconstructor.specs, qubit_limit=2)
        assert plan.output_qubits == (0, 1, 2, 3)
        assert plan.windows == ((0, 1), (2, 3))
        assert plan.levels_to_resolve == 2
        assert plan.recursion_depth == 2  # default: enough to fully resolve
        root = plan.space(0, ())
        assert root.active == (0, 1) and root.merged == (2, 3) and root.fixed == ()
        assert root.num_bins == 4
        leaf = plan.space(1, ((0, 1), (1, 0)))
        assert leaf.active == (2, 3) and leaf.merged == ()

    def test_plan_validation(self):
        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        with pytest.raises(ReconstructionError, match="qubit_limit"):
            plan_dynamic_definition(solution, reconstructor.specs, qubit_limit=0)
        with pytest.raises(ReconstructionError, match="zoom_fanout"):
            plan_dynamic_definition(
                solution, reconstructor.specs, qubit_limit=2, zoom_fanout=0
            )
        with pytest.raises(ReconstructionError, match="recursion_depth"):
            plan_dynamic_definition(
                solution, reconstructor.specs, qubit_limit=2, recursion_depth=0
            )


# ------------------------------------------------------------ bin-space checks
class TestBinSpaceValidation:
    def test_overlapping_sets_are_rejected_at_construction(self):
        with pytest.raises(ReconstructionError, match=r"qubit\(s\) \[3\] more than once"):
            BinSpace(active=(0, 1, 2, 3), merged=(3,))
        with pytest.raises(ReconstructionError, match=r"qubit\(s\) \[0, 2\] more than once"):
            BinSpace(active=(1,), merged=(2, 3), fixed=((0, 1), (2, 0), (0, 0)))

    def test_duplicate_active_qubit_is_rejected_at_construction(self):
        # Once accepted, this space binned 4 qubits into a 32-bin vector.
        with pytest.raises(ReconstructionError, match=r"qubit\(s\) \[0\] more than once"):
            BinSpace(active=(0, 0, 1, 2, 3), merged=())

    def test_uncovered_qubit_is_named(self):
        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        space = BinSpace(active=(0, 1, 2), merged=())
        with pytest.raises(ReconstructionError, match=r"does not cover output qubit\(s\) \[3\]"):
            binned_probabilities(reconstructor, space, table=table)


# ----------------------------------------------------------- binned == marginal
class TestBinnedMarginal:
    @settings(max_examples=10, deadline=None)
    @given(solution=two_cut_probability_solutions())
    def test_root_binned_is_the_marginal(self, solution):
        """Property: the binned contraction equals the full vector's marginal."""
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        full = reconstructor.reconstruct_probabilities(table=table)
        result = _dynamic(reconstructor, table, qubit_limit=2)
        assert isinstance(result, DynamicDefinitionResult)
        assert result.root_active == (0, 1)
        marginal = full.reshape(-1, 4).sum(axis=0)
        assert np.allclose(result.root_binned, marginal, atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(solution=two_cut_probability_solutions())
    def test_zoom_recovers_exact_heavy_bins(self, solution):
        """Property: a full-fanout zoom resolves every bin to its exact value."""
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        full = reconstructor.reconstruct_probabilities(table=table)
        result = _dynamic(reconstructor, table, qubit_limit=2, zoom_fanout=4)
        assert result.bins  # random angles always leave some mass
        for heavy in result.bins:
            assert heavy.probability == pytest.approx(full[heavy.index], abs=1e-12)
        captured = float(sum(full[heavy.index] for heavy in result.bins))
        assert result.covered_mass <= captured + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(solution=two_cut_probability_solutions())
    def test_pruned_tables_compose_with_binning(self, solution):
        """Property: missing="skip" truncation commutes with the binning."""
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        kept = dict(sorted(table.items())[::2])
        full = reconstructor.reconstruct_probabilities(table=kept, missing="skip")
        result = _dynamic(reconstructor, kept, missing="skip", qubit_limit=2)
        marginal = full.reshape(-1, 4).sum(axis=0)
        assert np.allclose(result.root_binned, marginal, atol=1e-12)

    def test_full_width_case_is_bit_identical(self):
        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        full = reconstructor.reconstruct_probabilities(table=table)
        result = _dynamic(reconstructor, table, qubit_limit=4)
        assert result.num_contractions == 1
        assert result.peak_bin_elements == full.size
        assert result.as_dense().tobytes() == full.tobytes()
        assert reconstructor.last_contraction_report.mode == "dynamic"
        assert result.covered_mass == pytest.approx(1.0 - MASS_COVERAGE_SLACK, abs=1e-9)

    def test_recursion_depth_one_explores_without_resolving(self):
        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        result = _dynamic(reconstructor, table, qubit_limit=2, recursion_depth=1)
        assert result.bins == ()
        assert result.covered_mass == 0.0
        assert len(result.levels) == 1
        assert result.root_binned.size == 4

    def test_probability_accessor_and_row(self):
        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        result = _dynamic(reconstructor, table, qubit_limit=2, zoom_fanout=4)
        # Bins come back heaviest-first and the accessor matches them.
        probabilities = [heavy.probability for heavy in result.bins]
        assert probabilities == sorted(probabilities, reverse=True)
        heaviest = result.bins[0]
        assert result.probability(heaviest.index) == heaviest.probability
        assert result.probability(1 << 10) == 0.0  # never resolved
        row = result.row()
        assert row["num_resolved_bins"] == len(result.bins)
        assert len(row["levels"]) == len(result.levels)

    def test_as_dense_refuses_wide_outputs(self):
        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        result = _dynamic(reconstructor, _exact_table(reconstructor), qubit_limit=4)
        with pytest.raises(ReconstructionError, match="as_dense"):
            result.as_dense(num_qubits=30)


# -------------------------------------------------------- mass-coverage bound
class TestCoverageBound:
    @pytest.mark.parametrize("qubit_limit,zoom_fanout", [(2, 1), (3, 2)])
    def test_covered_mass_lower_bounds_captured_mass(self, qubit_limit, zoom_fanout):
        """On every seed the reported bound must hold against the true mass."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            solution = random_angle_chain_solution(6, 2, rng)
            reconstructor = CutReconstructor(solution)
            table = _exact_table(reconstructor)
            full = reconstructor.reconstruct_probabilities(table=table)
            result = _dynamic(
                reconstructor, table, qubit_limit=qubit_limit, zoom_fanout=zoom_fanout
            )
            captured = float(sum(full[heavy.index] for heavy in result.bins))
            assert 0.0 <= result.covered_mass <= 1.0
            assert result.covered_mass <= captured + 1e-12, f"seed {seed}"


# ------------------------------------------------------------ contraction report
class TestContractionReport:
    def test_zoom_reports_every_binned_contraction(self, monkeypatch):
        """One report sums the whole zoom, chunk replays included, not the last call."""
        import repro.cutting.dynamic_definition as dynamic_definition

        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        plan = plan_dynamic_definition(
            solution, reconstructor.specs, qubit_limit=2, zoom_fanout=4
        )
        calls = []
        original = dynamic_definition.binned_probabilities

        def recording(*args, **kwargs):
            binned = original(*args, **kwargs)
            report = reconstructor.last_contraction_report
            if len(calls) == 1:
                # One call salvaged a broken pool: the zoom must say so.
                report = replace(report, serial_fallback=True)
                reconstructor.last_contraction_report = report
            calls.append(report)
            return binned

        monkeypatch.setattr(dynamic_definition, "binned_probabilities", recording)
        result = reconstruct_dynamic(
            reconstructor, plan, table=table, chunk_history=[(table, 100.0), (table, 50.0)]
        )
        assert len(calls) == result.num_contractions + result.num_chunk_contractions
        assert result.num_contractions > 1 and result.num_chunk_contractions > 0
        report = reconstructor.last_contraction_report
        assert report.mode == "dynamic" and report.kind == "probability"
        assert report.plan_seconds == sum(call.plan_seconds for call in calls)
        assert report.contract_seconds == sum(call.contract_seconds for call in calls)
        assert report.merge_seconds == sum(call.merge_seconds for call in calls)
        assert report.shards == tuple(shard for call in calls for shard in call.shards)
        assert report.num_shards == max(call.num_shards for call in calls)
        assert report.serial_fallback
        assert report.plan is calls[0].plan

    def test_session_timings_cover_the_whole_zoom(self):
        result = evaluate_workload(
            make_workload("QFT", 4),
            CutConfig(device_size=3),
            compute_reference=False,
            engine_config=EngineConfig(qubit_limit=2),
        )
        report = result.contraction_report
        assert len(report.shards) >= result.dynamic_result.num_contractions > 1
        assert result.timings["contract"] == report.contract_seconds
        assert result.timings["plan"] == report.plan_seconds
        assert result.timings["merge"] == report.merge_seconds


# ----------------------------------------------------------- gate-cut rejection
class TestGateCutRejection:
    def test_plan_rejects_gate_cuts(self, gate_cut_solution):
        reconstructor = CutReconstructor(gate_cut_solution)
        with pytest.raises(ReconstructionError, match="gate cut"):
            plan_dynamic_definition(gate_cut_solution, reconstructor.specs, qubit_limit=1)

    def test_binned_contraction_rejects_gate_cuts(self, gate_cut_solution):
        reconstructor = CutReconstructor(gate_cut_solution)
        space = BinSpace(active=(0,), merged=(1,))
        with pytest.raises(ReconstructionError, match="gate cut"):
            binned_probabilities(reconstructor, space, table={})

    def test_reconstruct_probabilities_rejects_gate_cuts(self, gate_cut_solution):
        reconstructor = CutReconstructor(gate_cut_solution)
        with pytest.raises(ReconstructionError, match="gate cut"):
            reconstructor.reconstruct_probabilities()


# --------------------------------------------------------------- config guards
class TestConfigGuards:
    def test_engine_config_validation(self):
        with pytest.raises(ReproError, match="qubit_limit"):
            EngineConfig(qubit_limit=0)
        with pytest.raises(ReproError, match="recursion_depth"):
            EngineConfig(qubit_limit=2, recursion_depth=0)
        with pytest.raises(ReproError, match="needs qubit_limit"):
            EngineConfig(recursion_depth=2)
        config = EngineConfig(qubit_limit=4, recursion_depth=2)
        assert config.qubit_limit == 4 and config.recursion_depth == 2

    def test_session_rejects_expectation_workloads(self):
        with pytest.raises(ConfigError, match="probability workloads"):
            evaluate_workload(
                make_workload("VQE", 5, layers=1),
                CutConfig(device_size=3),
                engine_config=EngineConfig(qubit_limit=2),
            )

    def test_session_validates_knobs(self):
        workload = make_workload("QFT", 4)
        config = CutConfig(device_size=3)
        with pytest.raises(ConfigError, match="qubit_limit"):
            evaluate_workload(workload, config, engine_config=EngineConfig(qubit_limit=0))
        with pytest.raises(ConfigError, match="recursion_depth"):
            evaluate_workload(
                workload,
                config,
                engine_config=EngineConfig(qubit_limit=2, recursion_depth=0),
            )
        with pytest.raises(ConfigError, match="needs qubit_limit"):
            evaluate_workload(workload, config, engine_config=EngineConfig(recursion_depth=2))


# ------------------------------------------------------------ pipeline wiring
class TestPipelineWiring:
    def test_evaluate_workload_returns_sparse_result(self):
        workload = make_workload("QFT", 4)
        config = CutConfig(device_size=3)
        full = evaluate_workload(workload, config, compute_reference=False)
        result = evaluate_workload(
            workload,
            config,
            compute_reference=False,
            engine_config=EngineConfig(qubit_limit=4),
        )
        assert result.probabilities is None
        dynamic = result.dynamic_result
        assert isinstance(dynamic, DynamicDefinitionResult)
        # Full-width dynamic definition through the whole pipeline stays
        # bit-identical to the planned full-vector contraction.
        assert dynamic.as_dense().tobytes() == full.probabilities.tobytes()
        payload = result.to_dict()
        assert payload["probabilities"] is None
        assert payload["dynamic_result"]["num_resolved_bins"] == len(dynamic.bins)

    def test_partial_zoom_through_pipeline(self):
        workload = make_workload("QFT", 4)
        config = CutConfig(device_size=3)
        full = evaluate_workload(workload, config, compute_reference=False)
        result = evaluate_workload(
            workload,
            config,
            compute_reference=False,
            engine_config=EngineConfig(qubit_limit=2),
        )
        dynamic = result.dynamic_result
        captured = float(
            sum(full.probabilities[heavy.index] for heavy in dynamic.bins)
        )
        assert dynamic.covered_mass <= captured + 1e-12
        assert dynamic.peak_bin_elements == 4

    def test_engine_config_knobs_are_the_default(self):
        result = evaluate_workload(
            make_workload("QFT", 4),
            CutConfig(device_size=3),
            compute_reference=False,
            engine_config=EngineConfig(qubit_limit=4),
        )
        assert result.dynamic_result is not None
        assert result.probabilities is None


# ---------------------------------------------------------- streaming composure
class TestStreamingComposition:
    def test_streaming_run_to_completion_matches_batch(self):
        workload = make_workload("QFT", 4)
        config = CutConfig(device_size=3)
        batch = evaluate_workload(
            workload,
            config,
            compute_reference=False,
            engine_config=EngineConfig(shots=4096, seed=7, qubit_limit=2),
        )
        streamed = evaluate_workload(
            workload,
            config,
            compute_reference=False,
            engine_config=EngineConfig(
                shots=4096,
                seed=7,
                qubit_limit=2,
                streaming=StreamingConfig(rounds=4),
            ),
        )
        batch_bins = [(h.index, h.probability) for h in batch.dynamic_result.bins]
        stream_bins = [(h.index, h.probability) for h in streamed.dynamic_result.bins]
        assert batch_bins == stream_bins
        assert (
            batch.dynamic_result.root_binned.tobytes()
            == streamed.dynamic_result.root_binned.tobytes()
        )
        # Only the streamed run has variance information for the levels.
        assert all(level.half_width is None for level in batch.dynamic_result.levels)
        assert all(
            level.half_width is not None for level in streamed.dynamic_result.levels
        )
        assert streamed.dynamic_result.num_chunk_contractions > 0

    def test_chunk_history_width_matches_direct_call(self):
        """reconstruct_dynamic with an explicit chunk history reports widths."""
        _, solution = two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = _exact_table(reconstructor)
        plan = plan_dynamic_definition(solution, reconstructor.specs, qubit_limit=2)
        # Two identical chunks: zero variance, zero-width intervals.
        history = [(table, 100.0), (table, 100.0)]
        result = reconstruct_dynamic(
            reconstructor, plan, table=table, chunk_history=history
        )
        assert result.num_chunk_contractions == 2 * result.num_contractions
        for level in result.levels:
            assert level.half_width == pytest.approx(0.0, abs=1e-12)
