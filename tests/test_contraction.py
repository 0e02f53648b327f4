"""Contraction planning + sharded reconstruction: bit-identity, planner, salvage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cutting.contraction as contraction_module
from repro.circuits import Circuit
from repro.cutting import (
    CutReconstructor,
    CutSolution,
    GateCut,
    plan_contraction,
)
from repro.cutting.contraction import BinSpace, balanced_blocks
from repro.cutting.dynamic_definition import binned_probabilities
from repro.engine import EngineConfig, ParallelEngine
from repro.simulator import simulate_statevector
from repro.utils.pauli import PauliObservable, PauliString

from fake_pools import BreakingPool
from reference_contraction import naive_expectation, naive_probabilities
from strategies import (
    float_bits as _bits,
    mixed_cut_solution as _mixed_cut_solution,
    two_cut_probability_solutions,
    two_cut_solution as _two_cut_solution,
)


# --------------------------------------------------------------------- planner
class TestPlannerCostModel:
    def test_axes_reflect_cut_structure(self):
        _, solution = _two_cut_solution()
        reconstructor = CutReconstructor(solution)
        plan = plan_contraction(solution, reconstructor.specs, workers=1)
        assert plan.num_wire_cuts == 2
        assert plan.cost.assignments == 4**2
        # The middle subcircuit touches both cuts, the outer ones touch one each.
        touched = sorted(len(axis.wire_positions) for axis in plan.axes)
        assert touched == [1, 1, 2]
        for axis in plan.axes:
            assert axis.table_rows == 4 ** len(axis.wire_positions)
        widths = [axis.output_width for axis in plan.axes]
        assert plan.cost.output_elements == int(np.prod(widths))
        # Unsharded plans still name a valid shard axis.
        assert 0 <= plan.shard_axis < len(plan.axes)

    def test_more_cuts_cost_more(self, chain_wire_cut_solution):
        reconstructor_one = CutReconstructor(chain_wire_cut_solution)
        plan_one = plan_contraction(
            chain_wire_cut_solution, reconstructor_one.specs, workers=1
        )
        _, two_cut = _two_cut_solution()
        reconstructor_two = CutReconstructor(two_cut)
        plan_two = plan_contraction(two_cut, reconstructor_two.specs, workers=1)
        assert plan_two.cost.fused_flops > plan_one.cost.fused_flops

    def test_small_problems_stay_unsharded(self, chain_wire_cut_solution):
        reconstructor = CutReconstructor(chain_wire_cut_solution)
        plan = plan_contraction(chain_wire_cut_solution, reconstructor.specs, workers=8)
        assert plan.cost.fused_flops < contraction_module.MIN_SHARD_FLOPS
        assert plan.num_shards == 1

    def test_sharding_bounded_by_workers_and_width(self, monkeypatch):
        monkeypatch.setattr(contraction_module, "MIN_SHARD_FLOPS", 0.0)
        _, solution = _two_cut_solution()
        reconstructor = CutReconstructor(solution)
        widths = [2 ** len(spec.output_qubits) for spec in reconstructor.specs]
        for workers in (2, 3, 64):
            plan = plan_contraction(solution, reconstructor.specs, workers=workers)
            assert plan.num_shards == min(workers, max(widths))
            # The earliest sufficiently wide axis is sharded (minimal kron
            # prefix duplication), and its blocks tile it exactly.
            shard_width = widths[plan.shard_axis]
            assert plan.shard_axis == next(
                index
                for index, width in enumerate(widths)
                if width >= plan.num_shards
            )
            assert plan.shard_blocks[0][0] == 0
            assert plan.shard_blocks[-1][1] == shard_width
            spans = [hi - lo for lo, hi in plan.shard_blocks]
            assert sum(spans) == shard_width
            assert max(spans) - min(spans) <= 1

    def test_sharding_divides_per_shard_cost(self, monkeypatch):
        monkeypatch.setattr(contraction_module, "MIN_SHARD_FLOPS", 0.0)
        _, solution = _two_cut_solution()
        reconstructor = CutReconstructor(solution)
        serial = plan_contraction(solution, reconstructor.specs, workers=1)
        sharded = plan_contraction(solution, reconstructor.specs, workers=2)
        assert sharded.num_shards == 2
        assert sharded.cost.per_shard_flops < serial.cost.per_shard_flops
        assert serial.cost.per_shard_flops == serial.cost.fused_flops

    def test_chunk_rows_bounds(self, chain_wire_cut_solution):
        reconstructor = CutReconstructor(chain_wire_cut_solution)
        plan = plan_contraction(chain_wire_cut_solution, reconstructor.specs, workers=1)
        assert 1 <= plan.chunk_rows <= plan.cost.assignments

    def test_expectation_plan_tracks_gate_cuts(self, gate_cut_solution):
        reconstructor = CutReconstructor(gate_cut_solution)
        plan = plan_contraction(
            gate_cut_solution, reconstructor.specs, workers=1, kind="expectation"
        )
        assert plan.num_gate_cuts == 1
        assert plan.cost.instance_combos == 6
        assert all(len(axis.gate_positions) == 1 for axis in plan.axes)
        assert plan.shard_axis == -1 and plan.shard_blocks == ()

    def test_invalid_kind_rejected(self, chain_wire_cut_solution):
        reconstructor = CutReconstructor(chain_wire_cut_solution)
        with pytest.raises(ValueError, match="kind"):
            plan_contraction(chain_wire_cut_solution, reconstructor.specs, kind="wat")

    def test_balanced_blocks(self):
        assert balanced_blocks(8, 3) == ((0, 3), (3, 6), (6, 8))
        assert balanced_blocks(2, 5) == ((0, 1), (1, 2))
        assert balanced_blocks(4, 1) == ((0, 4),)


# ----------------------------------------------------------------- bit-identity
class TestBitIdentity:
    def test_probability_planned_equals_naive(self):
        _, solution = _two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = reconstructor.engine.run_batch(
            reconstructor.enumerate_probability_requests()
        )
        naive = naive_probabilities(reconstructor, table)
        planned = reconstructor.reconstruct_probabilities(table=table)
        assert naive.tobytes() == planned.tobytes()

    def test_probability_sharded_equals_naive(self, monkeypatch):
        # Force sharding even on this small problem.
        monkeypatch.setattr(contraction_module, "MIN_SHARD_FLOPS", 0.0)
        circuit, solution = _two_cut_solution()
        serial = CutReconstructor(solution)
        table = serial.engine.run_batch(serial.enumerate_probability_requests())
        naive = naive_probabilities(serial, table)
        with ParallelEngine(
            config=EngineConfig(max_workers=3)
        ) as engine:
            sharded = CutReconstructor(solution, engine=engine)
            planned = sharded.reconstruct_probabilities(table=table)
            report = sharded.last_contraction_report
        assert naive.tobytes() == planned.tobytes()
        assert report.num_shards > 1
        assert len(report.shards) == report.num_shards
        assert sum(shard.elements for shard in report.shards) == planned.size
        exact = simulate_statevector(circuit).probabilities()
        assert np.allclose(planned, exact, atol=1e-10)

    def test_pruned_probability_table_bit_identical(self):
        _, solution = _two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = reconstructor.engine.run_batch(
            reconstructor.enumerate_probability_requests()
        )
        # Deterministically drop part of the table: a truncated contraction.
        kept = dict(sorted(table.items())[::2])
        naive = naive_probabilities(reconstructor, kept, "skip")
        planned = reconstructor.reconstruct_probabilities(table=kept, missing="skip")
        assert naive.tobytes() == planned.tobytes()

    def test_expectation_planned_equals_naive(self):
        _, solution, observable = _mixed_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = reconstructor.engine.run_batch(
            reconstructor.enumerate_expectation_requests(observable)
        )
        naive = naive_expectation(reconstructor, observable, table)
        planned = reconstructor.reconstruct_expectation(observable, table=table)
        assert _bits(naive) == _bits(planned)

    def test_pruned_expectation_table_bit_identical(self):
        _, solution, observable = _mixed_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = reconstructor.engine.run_batch(
            reconstructor.enumerate_expectation_requests(observable)
        )
        kept = dict(sorted(table.items())[::2])
        naive = naive_expectation(reconstructor, observable, kept, "skip")
        planned = reconstructor.reconstruct_expectation(observable, table=kept, missing="skip")
        assert _bits(naive) == _bits(planned)

    def test_expectation_sharded_over_terms(self, monkeypatch):
        monkeypatch.setattr(contraction_module, "MIN_SHARD_FLOPS", 0.0)
        _, solution, observable = _mixed_cut_solution()
        serial = CutReconstructor(solution)
        table = serial.engine.run_batch(
            serial.enumerate_expectation_requests(observable)
        )
        naive = naive_expectation(serial, observable, table)
        with ParallelEngine(
            config=EngineConfig(max_workers=2)
        ) as engine:
            sharded = CutReconstructor(solution, engine=engine)
            planned = sharded.reconstruct_expectation(observable, table=table)
            report = sharded.last_contraction_report
        assert _bits(naive) == _bits(planned)
        assert report.kind == "expectation"
        assert report.num_shards > 1

    def test_degenerate_all_zero_gate_cut(self, gate_cut_solution, zz_observable):
        reconstructor = CutReconstructor(gate_cut_solution)
        op_index = gate_cut_solution.gate_cuts[0].op_index
        reconstructor._gate_cut_instances[op_index] = (0.0,) * 6
        table = {}
        naive = naive_expectation(reconstructor, zz_observable, table, "skip")
        planned = reconstructor.reconstruct_expectation(zz_observable, table=table, missing="skip")
        assert naive == planned == 0.0

    @settings(max_examples=10, deadline=None)
    @given(solution=two_cut_probability_solutions())
    def test_random_circuits_bit_identical(self, solution):
        """Property: planned == naive bitwise on random two-cut circuits."""
        reconstructor = CutReconstructor(solution)
        table = reconstructor.engine.run_batch(
            reconstructor.enumerate_probability_requests()
        )
        naive = naive_probabilities(reconstructor, table)
        planned = reconstructor.reconstruct_probabilities(table=table)
        assert naive.tobytes() == planned.tobytes()
        # Pruned partial table stays bit-identical too.
        kept = dict(sorted(table.items())[::2])
        naive_pruned = naive_probabilities(reconstructor, kept, "skip")
        planned_pruned = reconstructor.reconstruct_probabilities(table=kept, missing="skip")
        assert naive_pruned.tobytes() == planned_pruned.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_expectations_bit_identical(self, data):
        angles = st.floats(0.1, 3.0)
        circuit = Circuit(2)
        circuit.h(0).ry(data.draw(angles), 1)
        circuit.cz(0, 1)                       # 2: gate cut
        circuit.rx(data.draw(angles), 0)
        circuit.rz(data.draw(angles), 1)
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 1, 3: 0, 4: 1},
            gate_cuts=[GateCut(2)],
            gate_cut_placement={2: (0, 1)},
        )
        observable = PauliObservable.from_terms(
            [
                PauliString.from_dict({0: "Z", 1: "Z"}, 0.7),
                PauliString.from_dict({0: "X"}, data.draw(angles)),
                PauliString.from_dict({}, 0.1),
            ]
        )
        reconstructor = CutReconstructor(solution)
        table = reconstructor.engine.run_batch(
            reconstructor.enumerate_expectation_requests(observable)
        )
        naive = naive_expectation(reconstructor, observable, table)
        planned = reconstructor.reconstruct_expectation(observable, table=table)
        assert _bits(naive) == _bits(planned)


# ------------------------------------------------------------- shared structure
class TestSharedStructure:
    def test_full_vector_is_the_all_qubit_bin_space(self, monkeypatch):
        """One structure cache: binning into every qubit reuses the full vector's plan."""
        import repro.cutting.dynamic_definition as dynamic_module
        import repro.cutting.reconstruction as reconstruction_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return plan_contraction(*args, **kwargs)

        # Count the planner under every module name it is imported by.
        for module in (reconstruction_module, dynamic_module):
            if hasattr(module, "plan_contraction"):
                monkeypatch.setattr(module, "plan_contraction", counting)
        _, solution = _two_cut_solution()
        reconstructor = CutReconstructor(solution)
        table = reconstructor.engine.run_batch(
            reconstructor.enumerate_probability_requests()
        )
        full = reconstructor.reconstruct_probabilities(table=table)
        planned = len(calls)
        space = BinSpace(active=tuple(range(solution.circuit.num_qubits)), merged=())
        binned = binned_probabilities(reconstructor, space, table=table)
        assert planned == 1
        assert len(calls) == planned
        assert binned.tobytes() == full.tobytes()


# ------------------------------------------------------------- config + engine
class TestConfigAndEngine:
    def test_contraction_keyword_removed(self, chain_wire_cut_solution, zz_observable):
        # One contraction per mode: the scalar walk is a test-side reference.
        reconstructor = CutReconstructor(chain_wire_cut_solution)
        with pytest.raises(TypeError, match="contraction"):
            reconstructor.reconstruct_probabilities(contraction="naive")
        with pytest.raises(TypeError, match="contraction"):
            reconstructor.reconstruct_expectation(zz_observable, contraction="naive")

    def test_shard_workers_follow_max_workers(self):
        assert ParallelEngine(config=EngineConfig(max_workers=3)).workers == 3
        assert ParallelEngine(config=EngineConfig(max_workers=1)).workers == 1

    def test_map_shards_serial_paths(self):
        engine = ParallelEngine(config=EngineConfig(max_workers=1))
        results, fell_back = engine.map_shards(divmod, [(7, 3), (9, 4)])
        assert results == [(2, 1), (2, 1)]
        assert fell_back is False


class TestBrokenPoolSalvage:
    def test_map_shards_salvages_completed_shards(self):
        engine = ParallelEngine(config=EngineConfig(max_workers=2))
        engine._pool = BreakingPool()
        calls = []

        def shard(value):
            calls.append(value)
            return value * 10

        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            results, fell_back = engine.map_shards(shard, [(1,), (2,), (3,)])
        assert results == [10, 20, 30]
        assert fell_back is True
        # Shard 1 ran once inside the fake pool; only the broken/pending ones rerun.
        assert calls == [1, 2, 3]

    def test_planned_reconstruction_survives_broken_pool(self, monkeypatch):
        monkeypatch.setattr(contraction_module, "MIN_SHARD_FLOPS", 0.0)
        _, solution = _two_cut_solution()
        serial = CutReconstructor(solution)
        table = serial.engine.run_batch(serial.enumerate_probability_requests())
        naive = naive_probabilities(serial, table)
        engine = ParallelEngine(config=EngineConfig(max_workers=3))
        engine._pool = BreakingPool()
        reconstructor = CutReconstructor(solution, engine=engine)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            planned = reconstructor.reconstruct_probabilities(table=table)
        report = reconstructor.last_contraction_report
        assert planned.tobytes() == naive.tobytes()
        assert report.serial_fallback is True
        assert report.num_shards > 1


# ------------------------------------------------------------------- pipeline
class TestPipelineIntegration:
    def test_timings_and_utilization_reported(self):
        from repro.core import CutConfig, evaluate_workload
        from repro.workloads import make_workload

        result = evaluate_workload(
            make_workload("QFT", 5),
            CutConfig(device_size=3),
            compute_reference=False,
        )
        for stage in ("plan", "contract", "merge"):
            assert stage in result.timings
            assert result.timings[stage] >= 0.0
        report = result.contraction_report
        assert report is not None
        assert report.mode == "planned"
        assert result.contraction_utilization == report.shards
        assert 0.0 <= report.shard_utilization <= 1.0
        assert report.seconds == pytest.approx(
            report.plan_seconds + report.contract_seconds + report.merge_seconds
        )

    def test_naive_and_planned_pipelines_bit_identical(self):
        from repro.core import CutConfig, evaluate_workload
        from repro.workloads import make_workload

        workload = make_workload("QFT", 5)
        config = CutConfig(device_size=3)
        planned = evaluate_workload(workload, config, compute_reference=False)
        reconstructor = CutReconstructor(
            planned.plan.solution, specs=planned.plan.subcircuits
        )
        naive = naive_probabilities(reconstructor)
        assert planned.probabilities.tobytes() == naive.tobytes()
        assert planned.contraction_report.mode == "planned"
