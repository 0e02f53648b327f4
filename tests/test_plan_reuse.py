"""Cut-plan reuse: ``cut_circuit`` solves each circuit structure once per process."""

from __future__ import annotations

import dataclasses
import json
import sys
import threading

import networkx as nx
import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro.circuits import Circuit
from repro.core import CutConfig, cut_circuit, cut_circuit_cutqc, evaluate_workload
from repro.core.greedy import GreedyCutter
from repro.exceptions import InfeasibleError
from repro.ilp import ScipyMilpBackend
from repro.workloads import Workload, WorkloadKind
from repro.workloads.qaoa import maxcut_observable, qaoa_circuit


@pytest.fixture(autouse=True)
def empty_cache():
    pipeline._PLAN_CACHE.clear()
    yield
    pipeline._PLAN_CACHE.clear()


@pytest.fixture
def solves(monkeypatch):
    """Every ``ScipyMilpBackend.solve`` call, counted through a wrapper."""
    calls = []
    original = ScipyMilpBackend.solve

    def counting(self, model):
        calls.append(model.name)
        return original(self, model)

    monkeypatch.setattr(ScipyMilpBackend, "solve", counting)
    return calls


@pytest.fixture
def greedy_cuts(monkeypatch):
    calls = []
    original = GreedyCutter.cut

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(GreedyCutter, "cut", counting)
    return calls


CONFIG = CutConfig(device_size=3)

#: One changed value per CutConfig field; each must select a different plan.
CONFIG_CHANGES = [
    {"device_size": 4},
    {"max_subcircuits": 4},
    {"min_subcircuits": 2},
    {"max_wire_cuts": 50},
    {"max_gate_cuts": 50},
    {"delta": 0.7},
    {"enable_gate_cuts": True},
    {"enable_qubit_reuse": False},
    {"alpha": 3.0},
    {"beta": 4.0},
    {"fidelity_weight": 0.5},
    {"time_limit": 60.0},
    {"mip_gap": 0.01},
]


def ring_qaoa(gamma: float, beta: float, size: int = 6) -> Workload:
    graph = nx.cycle_graph(size)
    return Workload(
        name=f"ring_{size}",
        acronym="QAOA",
        circuit=qaoa_circuit(graph, gammas=[gamma], betas=[beta]),
        kind=WorkloadKind.EXPECTATION,
        observable=maxcut_observable(graph),
    )


def ladder(angles, num_qubits: int = 5) -> Circuit:
    """A RY layer then a CP ladder: probability mode, wire cuts on small devices."""
    circuit = Circuit(num_qubits, "ladder")
    values = iter(angles)
    for qubit in range(num_qubits):
        circuit.ry(next(values), qubit)
    for qubit in range(num_qubits - 1):
        circuit.cp(next(values), qubit, qubit + 1)
        circuit.ry(next(values), qubit + 1)
    return circuit


def ladder_workload(seed: int) -> Workload:
    angles = np.random.default_rng(seed).uniform(0.3, 2.8, size=16)
    return Workload(
        name="ladder", acronym="LAD", circuit=ladder(angles), kind=WorkloadKind.PROBABILITY
    )


def without_durations(result) -> dict:
    row = json.loads(json.dumps(result.to_dict()))
    row.pop("timings")
    row["plan"].pop("solve_time")
    row["engine_stats"] = {
        name: value
        for name, value in row["engine_stats"].items()
        if not name.endswith("_seconds")
    }
    return row


def plan_view(plan) -> dict:
    """Everything a plan says about its decision and subcircuits, minus timing."""
    row = plan.row()
    row.pop("solve_time")
    solution = plan.solution
    return {
        "row": row,
        "op_subcircuit": solution.op_subcircuit,
        "wire_cuts": solution.wire_cuts,
        "gate_cuts": solution.gate_cuts,
        "gate_cut_placement": solution.gate_cut_placement,
        "padded": solution.circuit.operations,
        "specs": plan.subcircuits,
    }


def cold_and_warm(run, first, second):
    """``run(second)`` with an empty cache, and again after ``run(first)`` filled it."""
    pipeline._PLAN_CACHE.clear()
    cold = run(second)
    pipeline._PLAN_CACHE.clear()
    run(first)
    warm = run(second)
    return cold, warm


class TestSweepReuse:
    def test_angle_sweep_solves_once(self, solves):
        values = []
        for gamma in np.linspace(0.2, 1.4, 5):
            workload = ring_qaoa(float(gamma), 0.7)
            config = CutConfig(device_size=4, enable_gate_cuts=True)
            result = evaluate_workload(workload, config)
            assert result.expectation_error < 1e-9
            values.append(result.expectation_value)
        assert len(solves) == 1
        assert len(set(values)) == len(values)

    def test_expectation_with_gate_cuts_is_identical(self, solves):
        config = CutConfig(device_size=3, enable_gate_cuts=True)
        cold, warm = cold_and_warm(
            lambda workload: without_durations(evaluate_workload(workload, config)),
            ring_qaoa(0.3, 0.9),
            ring_qaoa(1.1, 0.4),
        )
        assert cold["plan"]["num_gate_cuts"] > 0
        assert warm == cold
        assert len(solves) == 2

    def test_probability_with_wire_cuts_is_identical(self, solves):
        config = CutConfig(device_size=3)
        cold, warm = cold_and_warm(
            lambda workload: without_durations(evaluate_workload(workload, config)),
            ladder_workload(1),
            ladder_workload(2),
        )
        assert cold["plan"]["num_wire_cuts"] > 0
        assert warm == cold
        assert len(solves) == 2

    def test_force_greedy_is_identical(self, solves, greedy_cuts):
        config = CutConfig(device_size=3, max_subcircuits=2)
        cold, warm = cold_and_warm(
            lambda workload: without_durations(
                evaluate_workload(workload, config, force_greedy=True)
            ),
            ladder_workload(3),
            ladder_workload(4),
        )
        assert cold["plan"]["method"] == "greedy"
        assert warm == cold
        assert len(greedy_cuts) == 2
        assert solves == []

    def test_cutqc_baseline_is_identical(self, solves):
        config = CutConfig(device_size=3)
        cold, warm = cold_and_warm(
            lambda circuit: plan_view(cut_circuit_cutqc(circuit, config)),
            ladder(np.linspace(0.4, 2.0, 16)),
            ladder(np.linspace(2.5, 0.5, 16)),
        )
        assert warm == cold
        assert len(solves) == 2

    def test_hit_binds_the_new_angles(self):
        config = CutConfig(device_size=3)
        first = cut_circuit(ladder(np.full(32, 0.5)), config)
        second_circuit = ladder(np.full(32, 1.5))
        second = cut_circuit(second_circuit, config)
        assert second.circuit is second_circuit
        angles = {op.params for op in second.solution.circuit.operations if op.params}
        assert angles == {(1.5,)}
        assert first.solution.op_subcircuit == second.solution.op_subcircuit
        assert first.solution.op_subcircuit is not second.solution.op_subcircuit


class TestCacheKey:
    def test_same_structure_hits(self, solves):
        cut_circuit(ladder(np.full(32, 0.5)), CONFIG)
        cut_circuit(ladder(np.full(32, 0.9)), CONFIG)
        assert len(solves) == 1

    @pytest.mark.parametrize(
        "variant",
        ["wider_register", "other_qubits", "gate_name", "gate_count"],
    )
    def test_structure_changes_miss(self, solves, variant):
        base = ladder(np.full(32, 0.5))
        operations = list(base.operations)
        width = base.num_qubits
        if variant == "wider_register":
            width += 1
        elif variant == "other_qubits":
            first = operations[0]
            operations[0] = dataclasses.replace(first, qubits=(first.qubits[0] + 1,))
        elif variant == "gate_name":
            first = operations[0]
            operations[0] = dataclasses.replace(first, name="rx")
        else:
            operations.append(operations[-1])
        changed = Circuit(width, "ladder")
        for operation in operations:
            changed.append(operation)
        cut_circuit(base, CONFIG)
        cut_circuit(changed, CONFIG)
        assert len(solves) == 2

    @pytest.mark.parametrize("changes", CONFIG_CHANGES, ids=lambda changes: next(iter(changes)))
    def test_config_changes_miss(self, solves, changes):
        circuit = ladder(np.full(32, 0.5))
        cut_circuit(circuit, CONFIG)
        cut_circuit(circuit, CONFIG.with_(**changes))
        assert len(solves) == 2

    def test_every_config_field_is_covered(self):
        changed = {name for changes in CONFIG_CHANGES for name in changes}
        assert changed == {field.name for field in dataclasses.fields(CutConfig)}

    def test_force_greedy_misses(self, solves, greedy_cuts):
        circuit = ladder(np.full(32, 0.5))
        ilp = cut_circuit(circuit, CONFIG)
        greedy = cut_circuit(circuit, CONFIG, force_greedy=True)
        assert (ilp.method, greedy.method) == ("ilp", "greedy")
        assert (len(solves), len(greedy_cuts)) == (1, 1)

    def test_greedy_path_builds_no_ilp(self, monkeypatch):
        def no_formulation(*args, **kwargs):
            raise AssertionError("the greedy path built the ILP formulation")

        monkeypatch.setattr(pipeline, "CuttingFormulation", no_formulation)
        plan = cut_circuit(ladder(np.full(32, 0.5)), CONFIG, force_greedy=True)
        assert plan.method == "greedy"

    def test_size_limit_still_switches_method(self, monkeypatch, solves):
        circuit = ladder(np.full(32, 0.5))
        assert cut_circuit(circuit, CONFIG).method == "ilp"
        monkeypatch.setattr(pipeline, "DEFAULT_ILP_SIZE_LIMIT", 10)
        assert cut_circuit(circuit, CONFIG).method == "greedy"
        assert cut_circuit(circuit, CONFIG, force_ilp=True).method == "ilp"
        assert len(solves) == 1


class TestFailuresAndBound:
    def test_infeasible_is_solved_every_time(self, solves):
        circuit = ladder(np.full(32, 0.5))
        config = CutConfig(device_size=2, max_subcircuits=1)
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                cut_circuit(circuit, config)
        assert len(solves) == 2
        assert len(pipeline._PLAN_CACHE) == 0

    def test_cache_never_exceeds_its_bound(self, monkeypatch, solves):
        monkeypatch.setattr(pipeline, "PLAN_CACHE_SIZE", 3)
        circuits = [ladder(np.full(32, 0.5), num_qubits=n) for n in range(3, 8)]
        for circuit in circuits:
            cut_circuit(circuit, CONFIG)
            assert len(pipeline._PLAN_CACHE) <= 3
        assert len(solves) == 5
        # The least recently used structure went first; the newest stayed.
        cut_circuit(circuits[-1], CONFIG)
        assert len(solves) == 5
        cut_circuit(circuits[0], CONFIG)
        assert len(solves) == 6
        assert len(pipeline._PLAN_CACHE) == 3

    def test_concurrent_cuts_agree_and_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(pipeline, "PLAN_CACHE_SIZE", 2)
        circuits = [ladder(np.full(32, 0.5), num_qubits=n) for n in range(3, 6)]
        expected = [plan_view(cut_circuit(circuit, CONFIG)) for circuit in circuits]
        failures = []
        sizes = []

        def worker(offset: int) -> None:
            try:
                for step in range(6):
                    index = (offset + step) % len(circuits)
                    if plan_view(cut_circuit(circuits[index], CONFIG)) != expected[index]:
                        failures.append(index)
                    sizes.append(len(pipeline._PLAN_CACHE))
            except Exception as error:
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(sizes) == 8 * 6
        assert max(sizes) <= 2
