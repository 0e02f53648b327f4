"""Speed/accuracy frontier of variant pruning (truncated contraction).

Every cut multiplies the number of subcircuit variants a reconstruction must
execute; :mod:`repro.engine.pruning` removes the small-|contraction-weight|
tail before execution with an a-priori bias bound (Chen et al., "Efficient
Quantum Circuit Cutting by Neglecting Basis Elements").  The payoff is largest
in the near-Clifford regime, where most Mitarai–Fujii gate-cut instances carry
``cos(theta)sin(theta)``-sized coefficients: this harness gate-cuts both
boundary-crossing ``RZZ`` gates of a small-angle QAOA ring and sweeps the
``budget_fraction`` prune knob, reporting — per prune fraction — the unique
variants actually executed, the reduction factor over ``pruning="none"``, the
added reconstruction error, and the reported bias bound.

Run directly (``python benchmarks/bench_pruning.py --qubits 8 --gamma 0.05``),
with ``--smoke`` for the CI regression mode (fixed small grid; asserts a >= 2x
execution reduction at < 1e-2 added error and that every row's observed error
is within its ``PruningReport.bias_bound``), or under pytest-benchmark
(``QRCC_BENCH_JOBS=2 pytest benchmarks/bench_pruning.py``).
"""

from __future__ import annotations

import argparse
import os
from typing import Dict, List, Optional, Sequence

import networkx as nx
import pytest

from repro.cutting import CutReconstructor, CutSolution, GateCut
from repro.engine import EngineConfig, ParallelEngine, PruningPolicy, prune_requests
from repro.workloads import Workload, WorkloadKind
from repro.workloads.qaoa import maxcut_observable, qaoa_circuit

from harness import (
    add_engine_arguments,
    add_pruning_arguments,
    add_smoke_argument,
    bench_jobs,
    publish,
    run_once,
    smoke_passed,
)

#: Default ring size (matches the other engine-path harnesses).
DEFAULT_QUBITS = int(os.environ.get("QRCC_BENCH_PRUNING_QUBITS", "8"))

#: Default QAOA cost angle.  Small gamma = near-Clifford RZZ gates = heavy
#: small-coefficient tail, the regime where truncated contraction shines.
DEFAULT_GAMMA = float(os.environ.get("QRCC_BENCH_PRUNING_GAMMA", "0.05"))

#: Default sweep of the budget_fraction knob (0 = pruning "none" baseline).
DEFAULT_FRACTIONS = (0.0, 0.002, 0.005, 0.01, 0.02, 0.05)

#: The --smoke / CI grid: small ring, a fraction known to sit on the good side
#: of the frontier (>= 2x fewer executions at far under 1e-2 added error).
SMOKE_QUBITS = 6
SMOKE_GAMMA = 0.05
SMOKE_FRACTIONS = (0.0, 0.005, 0.01)
SMOKE_TARGET_FRACTION = 0.01
SMOKE_REDUCTION_TARGET = 2.0
SMOKE_ERROR_BOUND = 1e-2


def small_angle_ring_workload(
    num_qubits: int = DEFAULT_QUBITS, gamma: float = DEFAULT_GAMMA
) -> Workload:
    """QAOA MaxCut on a ring with an explicit (small) cost angle."""
    graph = nx.cycle_graph(num_qubits)
    return Workload(
        name=f"ring-qaoa-{num_qubits}-gamma{gamma:g}",
        acronym="REG",
        circuit=qaoa_circuit(graph, layers=1, gammas=[gamma], betas=[0.8]),
        kind=WorkloadKind.EXPECTATION,
        observable=maxcut_observable(graph),
        params={"num_qubits": num_qubits, "graph": "ring", "gamma": gamma},
    )


def two_gate_cut_solution(workload: Workload) -> CutSolution:
    """Cut the ring into two halves by gate-cutting both crossing ``RZZ`` gates.

    Unlike :func:`bench_engine.halved_ring_solution` (one wire + one gate cut),
    this plan is all gate cuts: ``6^2`` instance combinations whose coefficient
    products span four orders of magnitude at small angles — the long tail the
    pruning layer is built to drop.
    """
    circuit = workload.circuit
    if circuit.num_qubits < 4:
        raise ValueError("the two-gate-cut benchmark needs at least 4 qubits")
    half = circuit.num_qubits // 2
    crossing = [
        op_index
        for op_index, op in enumerate(circuit.operations)
        if len({0 if qubit < half else 1 for qubit in op.qubits}) == 2
    ]
    op_subcircuit: Dict[int, int] = {}
    for op_index, op in enumerate(circuit.operations):
        if op_index in crossing:
            continue
        op_subcircuit[op_index] = 0 if all(qubit < half for qubit in op.qubits) else 1
    solution = CutSolution(
        circuit=circuit,
        op_subcircuit=op_subcircuit,
        wire_cuts=[],
        gate_cuts=[GateCut(op_index) for op_index in crossing],
        gate_cut_placement={
            op_index: tuple(
                0 if qubit < half else 1 for qubit in circuit.operations[op_index].qubits
            )
            for op_index in crossing
        },
    )
    solution.validate()
    return solution


def pruned_row(
    solution: CutSolution,
    observable,
    exact_value: float,
    fraction: float,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> Dict[str, object]:
    """One frontier point: prune at ``fraction``, execute, contract, compare."""
    policy = (
        PruningPolicy.none() if fraction <= 0.0 else PruningPolicy.budget_fraction(fraction)
    )
    config = EngineConfig(max_workers=jobs, chunk_size=chunk_size)
    with ParallelEngine(config=config) as engine:
        reconstructor = CutReconstructor(solution, engine=engine)
        weights: Dict[str, float] = {}
        batch = reconstructor.enumerate_expectation_requests(observable, weights_out=weights)
        kept, report = prune_requests(batch, weights, policy)
        table, _ = engine.run_batch_timed(kept)
        value = reconstructor.reconstruct_expectation(
            observable, table=table, missing="skip" if fraction > 0.0 else "execute"
        )
        executed = engine.stats.unique_executions
    error = abs(value - exact_value)
    return {
        "prune_fraction": fraction,
        "pruning": report.policy,
        "requested_variants": report.requested_variants,
        "executed_variants": executed,
        "reduction_factor": round(report.reduction_factor, 2),
        "added_error": round(error, 6),
        "bias_bound": round(report.bias_bound, 6),
        "bound_holds": error <= report.bias_bound + 1e-12,
    }


def generate_pruning_rows(
    num_qubits: int = DEFAULT_QUBITS,
    gamma: float = DEFAULT_GAMMA,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> List[Dict[str, object]]:
    """One row per prune fraction: executed variants + added error + bias bound."""
    workload = small_angle_ring_workload(num_qubits, gamma)
    solution = two_gate_cut_solution(workload)
    exact = CutReconstructor(solution).reconstruct_expectation(workload.observable)
    return [
        pruned_row(solution, workload.observable, exact, fraction, jobs, chunk_size)
        for fraction in fractions
    ]


def check_rows(rows: Sequence[Dict[str, object]]) -> None:
    """The --smoke / CI assertions over a generated frontier table."""
    baseline = next(row for row in rows if float(row["prune_fraction"]) == 0.0)  # qrcclint: disable=float-equality -- prune_fraction round-trips an assigned literal through the CSV, bit-exact
    assert int(baseline["executed_variants"]) == int(baseline["requested_variants"]), (
        "pruning='none' must execute the full enumerated batch"
    )
    assert float(baseline["added_error"]) < 1e-9, (
        f"pruning='none' must reproduce the exact value, error "
        f"{baseline['added_error']}"
    )
    # The a-priori bias bound must hold on every frontier point.
    for row in rows:
        assert bool(row["bound_holds"]), (
            f"bias bound violated at fraction {row['prune_fraction']}: "
            f"error {row['added_error']} > bound {row['bias_bound']}"
        )
    # The headline claim: >= 2x fewer executed variants at < 1e-2 added error.
    target = next(
        row for row in rows if float(row["prune_fraction"]) == SMOKE_TARGET_FRACTION  # qrcclint: disable=float-equality -- prune_fraction round-trips an assigned literal through the CSV, bit-exact
    )
    reduction = int(baseline["executed_variants"]) / max(1, int(target["executed_variants"]))
    assert reduction >= SMOKE_REDUCTION_TARGET, (
        f"expected >= {SMOKE_REDUCTION_TARGET}x fewer executed variants at "
        f"fraction {SMOKE_TARGET_FRACTION}, got {reduction:.2f}x"
    )
    assert float(target["added_error"]) < SMOKE_ERROR_BOUND, (
        f"added error {target['added_error']} at fraction {SMOKE_TARGET_FRACTION} "
        f"exceeds {SMOKE_ERROR_BOUND}"
    )


def _publish(rows: Sequence[Dict[str, object]], num_qubits: int, gamma: float) -> None:
    publish(
        "pruning",
        f"Variant pruning frontier: executed variants + added error vs prune "
        f"fraction ({num_qubits}-qubit two-gate-cut QAOA ring, gamma={gamma:g})",
        rows,
    )


@pytest.mark.benchmark(group="pruning")
def test_pruning_frontier(benchmark):
    jobs = bench_jobs([])  # env-driven under pytest
    rows = run_once(
        benchmark,
        generate_pruning_rows,
        num_qubits=SMOKE_QUBITS,
        gamma=SMOKE_GAMMA,
        fractions=SMOKE_FRACTIONS,
        jobs=jobs,
    )
    _publish(rows, SMOKE_QUBITS, SMOKE_GAMMA)
    check_rows(rows)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_engine_arguments(parser)
    add_pruning_arguments(parser)
    parser.add_argument(
        "--qubits",
        type=int,
        default=DEFAULT_QUBITS,
        help=f"QAOA ring size (default {DEFAULT_QUBITS})",
    )
    parser.add_argument(
        "--gamma",
        type=float,
        default=DEFAULT_GAMMA,
        help=f"QAOA cost angle; smaller = heavier prunable tail (default {DEFAULT_GAMMA})",
    )
    add_smoke_argument(
        parser,
        "fixed small grid; asserts >= 2x execution reduction at < 1e-2 added "
        "error and that the bias bound holds on every row",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        num_qubits, gamma, fractions = SMOKE_QUBITS, SMOKE_GAMMA, SMOKE_FRACTIONS
    else:
        num_qubits, gamma = args.qubits, args.gamma
        fractions = (
            (0.0, args.prune_fraction) if args.prune_fraction > 0.0 else DEFAULT_FRACTIONS
        )
    rows = generate_pruning_rows(
        num_qubits=num_qubits,
        gamma=gamma,
        fractions=fractions,
        jobs=max(1, args.jobs),
        chunk_size=args.chunk_size,
    )
    _publish(rows, num_qubits, gamma)
    if args.smoke:
        check_rows(rows)
        smoke_passed(
            "bias bound holds on every row, "
            f">= {SMOKE_REDUCTION_TARGET:g}x fewer executions at "
            f"< {SMOKE_ERROR_BOUND:g} added error"
        )


if __name__ == "__main__":
    main()
