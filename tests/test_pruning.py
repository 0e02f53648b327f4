"""Variant pruning: policies, partial-table reconstruction, pipeline composition."""

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.core import CutConfig, EngineConfig, evaluate_workload
from repro.cutting import CutReconstructor, CutSolution, GateCut, SamplingExecutor
from repro.engine import (
    ParallelEngine,
    PruningPolicy,
    PruningReport,
    allocate_shots,
    prune_requests,
    request_key,
)
from repro.exceptions import PruningError, ReconstructionError, ReproError
from repro.workloads import Workload, WorkloadKind, make_workload
from repro.workloads.qaoa import maxcut_observable, qaoa_circuit

from test_variant_tables import three_init_cut_solution


def small_angle_ring(num_qubits: int = 6, gamma: float = 0.05) -> Workload:
    """QAOA MaxCut ring with an explicit small cost angle (heavy prunable tail)."""
    graph = nx.cycle_graph(num_qubits)
    return Workload(
        name=f"ring-{num_qubits}",
        acronym="REG",
        circuit=qaoa_circuit(graph, layers=1, gammas=[gamma], betas=[0.8]),
        kind=WorkloadKind.EXPECTATION,
        observable=maxcut_observable(graph),
        params={},
    )


def two_gate_cut_solution(workload: Workload) -> CutSolution:
    """Halve the ring by gate-cutting both boundary-crossing RZZ gates."""
    circuit = workload.circuit
    half = circuit.num_qubits // 2
    crossing = [
        op_index
        for op_index, op in enumerate(circuit.operations)
        if len({0 if qubit < half else 1 for qubit in op.qubits}) == 2
    ]
    op_subcircuit = {}
    for op_index, op in enumerate(circuit.operations):
        if op_index in crossing:
            continue
        op_subcircuit[op_index] = 0 if all(q < half for q in op.qubits) else 1
    solution = CutSolution(
        circuit=circuit,
        op_subcircuit=op_subcircuit,
        wire_cuts=[],
        gate_cuts=[GateCut(i) for i in crossing],
        gate_cut_placement={
            i: tuple(0 if q < half else 1 for q in circuit.operations[i].qubits)
            for i in crossing
        },
    )
    solution.validate()
    return solution


class FakeRequest:
    """Minimal request stub: request_key() reads the memoised fingerprint."""

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FakeRequest({self.fingerprint!r})"


def fake_batch(weights):
    return [FakeRequest(key) for key in weights]


@pytest.fixture(scope="module")
def ring_setup():
    workload = small_angle_ring()
    solution = two_gate_cut_solution(workload)
    reconstructor = CutReconstructor(solution)
    weights = {}
    batch = reconstructor.enumerate_expectation_requests(
        workload.observable, weights_out=weights
    )
    exact = reconstructor.reconstruct_expectation(workload.observable)
    return workload, solution, batch, weights, exact


class TestPruningPolicy:
    def test_resolve_accepts_names_and_instances(self):
        assert PruningPolicy.resolve(None).is_none
        assert PruningPolicy.resolve("none").is_none
        assert PruningPolicy.resolve("threshold").policy == "threshold"
        assert PruningPolicy.resolve("budget_fraction").policy == "budget_fraction"
        policy = PruningPolicy.top_k(10)
        assert PruningPolicy.resolve(policy) is policy

    def test_bare_top_k_name_is_rejected(self):
        with pytest.raises(PruningError):
            PruningPolicy.resolve("top_k")

    def test_unknown_policy_rejected(self):
        with pytest.raises(PruningError):
            PruningPolicy.resolve("aggressive")
        with pytest.raises(PruningError):
            PruningPolicy("magic")

    def test_parameter_validation(self):
        with pytest.raises(PruningError):
            PruningPolicy.threshold(1.5)
        with pytest.raises(PruningError):
            PruningPolicy.budget_fraction(-0.1)
        with pytest.raises(PruningError):
            PruningPolicy.top_k(0)
        with pytest.raises(PruningError):
            PruningPolicy("threshold", 0.1, max_branch_value=0.0)

    def test_describe(self):
        assert PruningPolicy.none().describe() == "none"
        assert PruningPolicy.top_k(5).describe() == "top_k(5)"
        assert PruningPolicy.budget_fraction(0.01).describe() == "budget_fraction(0.01)"

    def test_engine_config_validates_pruning(self):
        config = EngineConfig(pruning="budget_fraction")
        assert config.pruning == "budget_fraction"
        config = EngineConfig(pruning=PruningPolicy.top_k(7))
        assert config.pruning.policy == "top_k"
        with pytest.raises(ReproError):
            EngineConfig(pruning="top_k")
        with pytest.raises(ReproError):
            EngineConfig(pruning="bogus")


class TestPruneRequests:
    def test_none_keeps_everything(self, ring_setup):
        _, _, batch, weights, _ = ring_setup
        kept, report = prune_requests(batch, weights, "none")
        assert kept == batch
        assert report.dropped_variants == 0
        assert report.bias_bound == 0.0
        assert report.kept_fraction == 1.0
        assert report.reduction_factor == 1.0

    def test_top_k_keeps_largest(self, ring_setup):
        _, _, batch, weights, _ = ring_setup
        kept, report = prune_requests(batch, weights, PruningPolicy.top_k(10))
        assert report.kept_variants == 10
        kept_keys = {request_key(v) for v in kept}
        dropped_keys = set(report.dropped_fingerprints)
        assert not kept_keys & dropped_keys
        # Every kept request outweighs every dropped request.
        assert min(weights[k] for k in kept_keys) >= max(weights[k] for k in dropped_keys)

    def test_budget_fraction_caps_dropped_weight(self, ring_setup):
        _, _, batch, weights, _ = ring_setup
        fraction = 0.01
        kept, report = prune_requests(batch, weights, PruningPolicy.budget_fraction(fraction))
        assert report.dropped_variants > 0
        assert report.dropped_weight <= fraction * report.total_weight + 1e-12
        assert report.bias_bound == pytest.approx(report.dropped_weight)

    def test_threshold_is_relative_to_max_weight(self):
        weights = {"a": 10.0, "b": 1.0, "c": 0.005}
        kept, report = prune_requests(
            fake_batch(weights), weights, PruningPolicy.threshold(0.01)
        )
        # cutoff = 0.01 * 10 = 0.1: only "c" falls below it.
        assert report.dropped_fingerprints == ("c",)
        assert [request.fingerprint for request in kept] == ["a", "b"]

    def test_never_drops_the_entire_batch(self):
        # Zero weights score below any positive cutoff: without the floor the
        # threshold policy would drop everything.
        zero = {"a": 0.0, "b": 0.0}
        kept, report = prune_requests(fake_batch(zero), zero, PruningPolicy.top_k(1))
        assert report.kept_variants == 1
        one = {"a": 1.0, "b": 0.0}
        kept, report = prune_requests(fake_batch(one), one, PruningPolicy.threshold(0.5))
        assert report.kept_variants >= 1

    def test_deterministic_tie_breaking(self):
        weights = {"b": 1.0, "a": 1.0, "c": 5.0}
        _, first = prune_requests(
            [FakeRequest("b"), FakeRequest("a"), FakeRequest("c")],
            weights,
            PruningPolicy.top_k(2),
        )
        _, second = prune_requests(
            [FakeRequest("c"), FakeRequest("a"), FakeRequest("b")],
            weights,
            PruningPolicy.top_k(2),
        )
        assert first.dropped_fingerprints == second.dropped_fingerprints == ("a",)

    def test_report_row_keys(self, ring_setup):
        _, _, batch, weights, _ = ring_setup
        _, report = prune_requests(batch, weights, PruningPolicy.budget_fraction(0.01))
        row = report.row()
        for key in (
            "pruning",
            "requested_variants",
            "kept_variants",
            "dropped_variants",
            "dropped_weight",
            "bias_bound",
            "reduction_factor",
        ):
            assert key in row


class TestPartialTableReconstruction:
    def test_skip_contracts_without_executing_missing(self, ring_setup):
        workload, solution, batch, weights, exact = ring_setup
        kept, report = prune_requests(batch, weights, PruningPolicy.budget_fraction(0.01))
        assert report.dropped_variants > 0
        with ParallelEngine() as engine:
            reconstructor = CutReconstructor(solution, engine=engine)
            table = engine.run_batch(kept)
            executed = engine.executions
            value = reconstructor.reconstruct_expectation(
                workload.observable, table=table, missing="skip"
            )
            # Contraction never falls back to on-demand execution under "skip".
            assert engine.executions == executed
        assert abs(value - exact) <= report.bias_bound
        assert abs(value - exact) > 0.0  # something was genuinely dropped

    def test_execute_mode_runs_missing_on_demand(self, ring_setup):
        workload, solution, batch, weights, exact = ring_setup
        kept, report = prune_requests(batch, weights, PruningPolicy.budget_fraction(0.01))
        with ParallelEngine() as engine:
            reconstructor = CutReconstructor(solution, engine=engine)
            table = engine.run_batch(kept)
            executed = engine.executions
            value = reconstructor.reconstruct_expectation(
                workload.observable, table=table
            )
            assert engine.executions > executed  # missing variants were executed
        assert abs(value - exact) < 1e-9  # and the contraction is exact again

    def test_error_mode_raises_on_missing(self, ring_setup):
        workload, solution, batch, weights, _ = ring_setup
        kept, _ = prune_requests(batch, weights, PruningPolicy.budget_fraction(0.01))
        with ParallelEngine() as engine:
            reconstructor = CutReconstructor(solution, engine=engine)
            table = engine.run_batch(kept)
            with pytest.raises(ReconstructionError):
                reconstructor.reconstruct_expectation(
                    workload.observable, table=table, missing="error"
                )

    def test_successive_tables_are_not_memoised(self, ring_setup):
        """Reusing one reconstructor with a different table must not serve stale values."""
        workload, solution, batch, _, _ = ring_setup
        with ParallelEngine(SamplingExecutor(shots=256, seed=1)) as engine:
            reconstructor = CutReconstructor(solution, engine=engine)
            first_table = engine.run_batch(batch)
            first = reconstructor.reconstruct_expectation(
                workload.observable, table=first_table
            )
            with ParallelEngine(SamplingExecutor(shots=256, seed=2)) as other:
                second_table = other.run_batch(batch)
            second = reconstructor.reconstruct_expectation(
                workload.observable, table=second_table
            )
        fresh = CutReconstructor(solution).reconstruct_expectation(
            workload.observable, table=second_table
        )
        assert second == fresh  # the second call reflects the second table...
        assert first != second  # ...not a memo of the first one

    def test_invalid_missing_mode_rejected(self, ring_setup):
        workload, solution, _, _, _ = ring_setup
        reconstructor = CutReconstructor(solution)
        with pytest.raises(ReconstructionError):
            reconstructor.reconstruct_expectation(workload.observable, missing="ignore")

    def test_bias_bound_holds_across_grid(self):
        """Exact-executor grid: observed error <= a-priori bound, every cell."""
        for gamma in (0.05, 0.2):
            workload = small_angle_ring(6, gamma)
            solution = two_gate_cut_solution(workload)
            reconstructor = CutReconstructor(solution)
            weights = {}
            batch = reconstructor.enumerate_expectation_requests(
                workload.observable, weights_out=weights
            )
            exact = reconstructor.reconstruct_expectation(workload.observable)
            for fraction in (0.002, 0.01, 0.05):
                kept, report = prune_requests(
                    batch, weights, PruningPolicy.budget_fraction(fraction)
                )
                with ParallelEngine() as engine:
                    partial = CutReconstructor(solution, engine=engine)
                    table = engine.run_batch(kept)
                    value = partial.reconstruct_expectation(
                        workload.observable, table=table, missing="skip"
                    )
                assert abs(value - exact) <= report.bias_bound + 1e-12, (
                    f"gamma={gamma} fraction={fraction}: "
                    f"{abs(value - exact)} > {report.bias_bound}"
                )

    def test_probability_mode_partial_table(self):
        """Wire-cut-only distribution reconstruction skips pruned variants too."""
        workload = make_workload("SPM", 6, depth=3)
        config = CutConfig(device_size=4, max_subcircuits=2)
        baseline = evaluate_workload(workload, config)
        pruned = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(pruning=PruningPolicy.budget_fraction(0.05)),
        )
        assert pruned.pruning_report is not None
        l1_error = float(np.abs(pruned.probabilities - baseline.probabilities).sum())
        assert l1_error <= pruned.pruning_report.bias_bound + 1e-12


class TestPipelineComposition:
    def test_none_is_bit_identical_to_default(self):
        workload = make_workload("VQE", 6, layers=1)
        config = CutConfig(device_size=4, max_subcircuits=2, enable_gate_cuts=True)
        default = evaluate_workload(workload, config)
        explicit = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(pruning="none"),
        )
        assert explicit.pruning_report is None
        assert explicit.expectation_value == default.expectation_value
        assert explicit.num_variant_evaluations == default.num_variant_evaluations
        assert "prune" not in explicit.timings

    def test_none_is_bit_identical_under_shots(self):
        workload = make_workload("VQE", 6, layers=1)
        config = CutConfig(device_size=4, max_subcircuits=2, enable_gate_cuts=True)
        default = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(shots=2048, seed=7),
        )
        explicit = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(shots=2048, seed=7, pruning="none"),
        )
        assert explicit.expectation_value == default.expectation_value

    def test_pruned_evaluation_reports_and_bounds(self):
        workload = small_angle_ring(6)
        config = CutConfig(
            device_size=4, max_subcircuits=2, enable_gate_cuts=True, max_gate_cuts=2
        )
        baseline = evaluate_workload(workload, config)
        pruned = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(pruning=PruningPolicy.budget_fraction(0.01)),
        )
        report = pruned.pruning_report
        assert isinstance(report, PruningReport)
        assert report.dropped_variants > 0
        assert pruned.num_variant_evaluations < baseline.num_variant_evaluations
        assert "prune" in pruned.timings
        added_error = abs(pruned.expectation_value - baseline.expectation_value)
        assert added_error <= report.bias_bound + 1e-12

    def test_pruning_from_engine_config(self):
        workload = small_angle_ring(6)
        config = CutConfig(
            device_size=4, max_subcircuits=2, enable_gate_cuts=True, max_gate_cuts=2
        )
        result = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(pruning=PruningPolicy.budget_fraction(0.01)),
        )
        assert result.pruning_report is not None
        assert result.pruning_report.dropped_variants > 0

    def test_pruning_composes_with_variance_allocation(self):
        """Shot budget renormalises over survivors and is still spent exactly."""
        workload = small_angle_ring(6)
        config = CutConfig(
            device_size=4, max_subcircuits=2, enable_gate_cuts=True, max_gate_cuts=2
        )
        shots = 8192
        result = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(
                shots=shots,
                allocation="variance",
                seed=11,
                pruning=PruningPolicy.budget_fraction(0.01),
            ),
        )
        report = result.pruning_report
        allocation = result.shot_allocation
        assert report is not None and report.dropped_variants > 0
        assert allocation is not None
        # The full budget is spent (pilot + final), over the survivors only.
        assert allocation.assigned_shots == shots
        assert allocation.num_variants == report.kept_variants
        dropped = set(report.dropped_fingerprints)
        assert not dropped & set(allocation.shots_by_fingerprint)
        assert not dropped & set(allocation.pilot_shots_by_fingerprint)

    def test_pruning_composes_with_weighted_allocation(self):
        workload = small_angle_ring(6)
        config = CutConfig(
            device_size=4, max_subcircuits=2, enable_gate_cuts=True, max_gate_cuts=2
        )
        shots = 4096
        result = evaluate_workload(
            workload,
            config,
            engine_config=EngineConfig(
                shots=shots,
                allocation="weighted",
                seed=3,
                pruning=PruningPolicy.budget_fraction(0.01),
            ),
        )
        allocation = result.shot_allocation
        assert allocation.assigned_shots == shots
        assert allocation.num_variants == result.pruning_report.kept_variants

    def test_read_count_fallback_over_a_pruned_batch(self):
        """``weighted`` without weights splits by the survivors' read counts
        (1, 4, 16 and 64 reads here), as over the plain list of reads."""
        reconstructor = CutReconstructor(three_init_cut_solution())
        weights = {}
        batch = reconstructor.enumerate_probability_requests(weights_out=weights)
        kept, report = prune_requests(batch, weights, PruningPolicy.budget_fraction(0.05))
        allocation = allocate_shots(kept, 10_000, "weighted")
        assert allocation.shots_by_fingerprint == (
            allocate_shots(list(kept), 10_000, "weighted").shots_by_fingerprint
        )
        shots = repr(sorted(allocation.shots_by_fingerprint.items())).encode("ascii")
        # Recorded when a batch was one list entry per read.
        assert hashlib.sha256(shots).hexdigest() == (
            "aea242a406f8c24c45eaf712a4061e50545eb46fb9d456d220878f642ad33520"
        )
        assert sorted(set(kept.reads.tolist())) == [1, 4, 16, 64]
        engine = ParallelEngine()
        engine.run_batch(kept)
        assert (engine.stats.requests, engine.stats.unique_executions) == (997, 61)
        assert report.kept_variants == 61

    def test_allocation_level_renormalisation(self, ring_setup):
        """allocate_shots over a pruned batch splits the budget over survivors."""
        workload, solution, batch, weights, _ = ring_setup
        kept, report = prune_requests(batch, weights, PruningPolicy.budget_fraction(0.01))
        budget = 4096
        allocation = allocate_shots(kept, budget, "weighted", weights=weights)
        assert allocation.assigned_shots == budget
        assert set(allocation.shots_by_fingerprint) == {request_key(v) for v in kept}
