"""Fast checks of the perf benchmark's own machinery (tracer, workloads, compare)."""

from __future__ import annotations

import importlib
import json
import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import measure
import tracer
import workloads
from repro.core import CutConfig, evaluate_workload
from repro.simulator import simulate_statevector
from repro.workloads import make_workload


class FakeClock:
    """A clock that moves only when told to, plus ``tick`` per read."""

    def __init__(self, tick: float = 0.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def _nested(clock: FakeClock, trace: tracer.Tracer) -> None:
    outer_target = tracer.Target("test.outer", "unused", "outer")
    inner_target = tracer.Target("test.inner", "unused", "inner")

    def inner() -> int:
        clock.now += 4.0
        return 1

    def outer() -> int:
        clock.now += 1.0
        trace.call(inner_target, inner, (), {})
        clock.now += 2.0
        trace.call(inner_target, inner, (), {})
        return 2

    with trace.evaluation():
        clock.now += 0.5
        trace.call(outer_target, outer, (), {})


def test_self_times_of_nested_spans():
    clock = FakeClock()
    trace = tracer.Tracer(clock=clock)
    _nested(clock, trace)
    row = trace.per_eval()[1]
    assert row["eval.self_s"] == pytest.approx(0.5)
    assert row["test.outer.self_s"] == pytest.approx(3.0)
    assert row["test.outer.total_s"] == pytest.approx(11.0)
    assert row["test.inner.self_s"] == pytest.approx(8.0)
    assert row["test.inner.calls"] == 2
    assert row["trace.overhead.self_s"] == pytest.approx(0.0)
    parents = {record.name: record.parent for record in trace.records}
    assert parents == {"test.inner": "test.outer", "test.outer": "eval", "eval": None}


def test_self_times_plus_overhead_add_up_to_the_evaluation():
    clock = FakeClock(tick=0.001)
    trace = tracer.Tracer(clock=clock)
    _nested(clock, trace)
    row = trace.per_eval()[1]
    (root,) = [record for record in trace.records if record.name == tracer.ROOT_SPAN]
    spans = sum(value for name, value in row.items() if name.endswith(".self_s"))
    assert row["trace.overhead.self_s"] > 0.0
    assert spans == pytest.approx(root.end - root.start)


def test_calls_outside_an_evaluation_pass_through():
    trace = tracer.Tracer(clock=FakeClock())
    assert trace.call(tracer.TARGETS[0], lambda: 7, (), {}) == 7
    assert trace.records == []


def test_every_span_target_resolves():
    for target in tracer.TARGETS:
        assert callable(tracer.resolve(target)[2]), target


def test_install_patches_every_alias_and_restores_them():
    trace = tracer.Tracer()
    aliases = (
        "repro.cutting.contraction",
        "repro.cutting.reconstruction",
        "repro.cutting.dynamic_definition",
    )

    def shard_kernels() -> dict:
        return {name: importlib.import_module(name).contract_probability_shard for name in aliases}

    originals = shard_kernels()
    with tracer.install(trace) as patched:
        assert patched > len(tracer.TARGETS)
        wrapped = shard_kernels()
        assert len({id(fn) for fn in wrapped.values()}) == 1
        assert all(wrapped[name] is not originals[name] for name in aliases)
        # One wrapper at every alias keeps pickling by reference working.
        assert pickle.loads(pickle.dumps(wrapped[aliases[0]])) is wrapped[aliases[0]]
    assert shard_kernels() == originals


def _without_timings(row: dict) -> dict:
    row = json.loads(json.dumps(row))
    row.pop("timings")
    row["plan"].pop("solve_time")
    row["engine_stats"].pop("execute_seconds")
    return row


def test_tracing_leaves_results_unchanged():
    workload = make_workload("VQE", 5)
    config = CutConfig(device_size=3, enable_gate_cuts=True)
    plain = evaluate_workload(workload, config, compute_reference=False)
    bindings = {
        (module, name): value
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        for name, value in list(vars(module).items())
        if callable(value)
    }
    methods = {target: tracer.resolve(target)[2] for target in tracer.TARGETS}
    trace = tracer.Tracer()
    with tracer.install(trace):
        with trace.evaluation():
            traced = evaluate_workload(workload, config, compute_reference=False)
    assert _without_timings(traced.to_dict()) == _without_timings(plain.to_dict())
    assert {"core.cut", "engine.execute", "cutting.contract"} <= {
        record.name for record in trace.records
    }
    for (module, name), value in bindings.items():
        assert getattr(module, name) is value, f"{module.__name__}.{name} not restored"
    for target, original in methods.items():
        assert tracer.resolve(target)[2] is original, f"{target.attr} not restored"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_instances(name):
    spec = workloads.WORKLOADS[name]

    def draw(seed: int) -> list:
        return spec.draw_round(np.random.default_rng(seed))

    first, again, other = draw(3), draw(3), draw(4)
    assert [i.workload.circuit for i in first] == [i.workload.circuit for i in again]
    assert [i.engine_config for i in first] == [i.engine_config for i in again]
    assert [i.workload.circuit for i in first] != [i.workload.circuit for i in other]
    # Only angles and seeds vary: every seed runs the same structures.
    assert [len(i.workload.circuit) for i in first] == [len(i.workload.circuit) for i in other]


def test_chain_probability_matches_the_statevector():
    circuit, angles = workloads.peaked_chain(6, np.random.default_rng(0))
    exact = simulate_statevector(circuit).probabilities()
    closed_form = [workloads.chain_probability(angles, index) for index in range(2**6)]
    assert np.allclose(closed_form, exact, atol=1e-12)


def test_a_failed_check_or_exception_counts_as_failure():
    spec = workloads.WORKLOADS["prob-wire"]
    instance = spec.warmup(np.random.default_rng(0))
    result = instance.evaluate()
    assert spec.check(instance, result) is None
    sample = measure.run_one(spec, instance, None)
    assert sample["ok"] is True
    assert sample["counts"]["engine.execute.unique"] == result.num_variant_evaluations > 0
    result.probabilities = result.probabilities + 1e-6
    assert spec.check(instance, result) is not None

    def explode() -> None:
        raise RuntimeError("boom")

    broken = SimpleNamespace(workload=instance.workload, evaluate=explode)
    sample = measure.run_one(spec, broken, None)
    assert sample["ok"] is False and sample["cuts"] is None and sample["counts"] == {}


@pytest.mark.parametrize(
    ("base", "new", "better", "expected"),
    [
        ([10.0, 10.1, 9.9, 10.0], [10.0, 10.05, 9.95, 10.0], "lower", "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "worse"),
        ([10.0, 14.0, 6.0, 10.0], [10.0, 10.1, 9.9, 10.0], "lower", "unresolved"),
        ([10.0, 14.0, 6.0, 10.0], [3.0, 4.0, 5.0, 5.5], "lower", "better"),
        ([8192.0, 8192.0], [8192.0, 8192.0], "lower", "unchanged"),
        # One run per side has no measurable spread, so not even a tiny gain counts.
        ([10.0], [9.99], "lower", "unresolved"),
        ([10.0, 10.0], [12.0], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, better, bound=0.1) == expected


def test_compare_exits_nonzero_on_worse(tmp_path):
    def write(name: str, values: list) -> str:
        runs = [{"workload": "w", "trace": 0, "metrics": {"eval_s_p50": value}} for value in values]
        path = tmp_path / name
        path.write_text(json.dumps({"env": {}, "runs": runs}))
        return str(path)

    base = write("base.json", [1.0, 1.01, 0.99])
    same = write("same.json", [1.0, 1.0, 1.01])
    slow = write("slow.json", [1.5, 1.5, 1.51])
    assert compare.main([base, same]) == 0
    assert compare.main([base, same, slow]) == 1
