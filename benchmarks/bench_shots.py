"""Reconstruction error vs total shot budget, per allocation policy.

The paper's Section 2.2 shots-based model makes every subcircuit variant a
statistical estimate; end-to-end reconstruction error then depends on *how the
total shot budget is split* across the ``4^cuts * 6^gate-cuts`` variants
(ShotQC).  This harness reconstructs the halved QAOA-ring workload of
``bench_engine`` with a :class:`~repro.cutting.sampling.SamplingExecutor` at a
grid of shot budgets under each allocation policy (``uniform``, ``weighted``,
``variance``), averaging the absolute expectation error over several executor
seeds, and prints an error-vs-shots table (one row per policy x budget — the
plot data for the error curve).

Run directly (``python benchmarks/bench_shots.py --shots 16384 --jobs 4``),
with ``--smoke`` for the CI regression mode (tiny grid, fixed seeds, asserts
budget conservation, an error bound, and that the variance-aware policy is no
worse than uniform within noise), or under pytest-benchmark
(``QRCC_BENCH_JOBS=2 pytest benchmarks/bench_shots.py``).
"""

from __future__ import annotations

import argparse
import math
import os
from typing import Dict, List, Optional, Sequence

import pytest

from repro.cutting import CutReconstructor, SamplingExecutor
from repro.engine import EngineConfig, ParallelEngine, ShotPlan, allocate_shots

from bench_engine import halved_ring_solution, ring_qaoa_workload
from harness import (
    add_engine_arguments,
    add_shot_arguments,
    add_smoke_argument,
    bench_jobs,
    publish,
    run_once,
    smoke_passed,
)

#: Default ring size; 8 qubits matches the engine throughput benchmark.
DEFAULT_QUBITS = int(os.environ.get("QRCC_BENCH_SHOTS_QUBITS", "8"))

#: Default shot-budget grid (total shots per evaluation).  Two-pass allocation
#: needs a healthy shots-per-variant ratio to pay off — with only a handful of
#: shots per variant the pilot's sigma estimates are noise (the same regime
#: ShotQC reports); the grid starts above that floor.
DEFAULT_BUDGETS = (4096, 16384, 65536)

#: The --smoke / CI grid: small ring, budgets in the regime where the pilot can
#: resolve per-variant variance, fixed seeds so the assertions are deterministic.
SMOKE_QUBITS = 4
SMOKE_BUDGETS = (16384, 65536)
SMOKE_SEEDS = 5

#: The policies every run compares.
POLICIES = ("uniform", "weighted", "variance")


def sampled_error(
    solution,
    observable,
    exact_value: float,
    budget: int,
    policy: str,
    seed: int,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> float:
    """|reconstructed - exact| for one finite-shot reconstruction."""
    executor = SamplingExecutor(shots=budget, seed=seed)
    config = EngineConfig(max_workers=jobs, chunk_size=chunk_size)
    with ParallelEngine(executor, config) as engine:
        reconstructor = CutReconstructor(solution, engine=engine)
        # One walk collects both the batch and the contraction weights; the
        # enumeration loop is the exponential cost, never walk it twice.
        weights = {} if policy in ("weighted", "variance") else None
        batch = reconstructor.enumerate_expectation_requests(observable, weights_out=weights)
        allocation = allocate_shots(batch, budget, policy, weights=weights, engine=engine)
        assert allocation.assigned_shots == budget, "allocation must spend the exact budget"
        table, _ = engine.run_batch_timed(
            batch, shots=ShotPlan(allocation.shots_by_fingerprint)
        )
        value = reconstructor.reconstruct_expectation(observable, table=table)
    return abs(value - exact_value)


def generate_shot_rows(
    num_qubits: int = DEFAULT_QUBITS,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    num_seeds: int = 3,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    base_seed: int = 0,
) -> List[Dict[str, object]]:
    """One row per (policy, budget): mean/max |error| over ``num_seeds`` seeds."""
    workload = ring_qaoa_workload(num_qubits)
    solution = halved_ring_solution(workload)
    exact = CutReconstructor(solution).reconstruct_expectation(workload.observable)

    rows: List[Dict[str, object]] = []
    for policy in POLICIES:
        for budget in budgets:
            errors = [
                sampled_error(
                    solution, workload.observable, exact, budget, policy, seed, jobs, chunk_size
                )
                for seed in range(base_seed, base_seed + num_seeds)
            ]
            mean_error = sum(errors) / len(errors)
            rows.append(
                {
                    "policy": policy,
                    "total_shots": budget,
                    "seeds": num_seeds,
                    "mean_error": round(mean_error, 5),
                    "max_error": round(max(errors), 5),
                    # 1/sqrt(shots) normalisation: flat values along a policy row
                    # mean the error shrinks at the statistical rate.
                    "error_x_sqrt_shots": round(mean_error * math.sqrt(budget), 3),
                }
            )
    return rows


def check_rows(rows: Sequence[Dict[str, object]], error_bound: float) -> None:
    """The --smoke / CI assertions over a generated table."""
    by_policy: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_policy.setdefault(str(row["policy"]), []).append(row)
    largest = max(int(row["total_shots"]) for row in rows)
    for policy, policy_rows in by_policy.items():
        policy_rows.sort(key=lambda row: int(row["total_shots"]))
        first, last = policy_rows[0], policy_rows[-1]
        # Error must shrink with budget (within statistical noise: allow a
        # plateau, never growth beyond noise).
        assert float(last["mean_error"]) <= float(first["mean_error"]) * 1.10 + 0.01, (
            f"{policy}: error grew with shots "
            f"({first['mean_error']} -> {last['mean_error']})"
        )
        final = float(last["mean_error"])
        assert final <= error_bound, (
            f"{policy}: mean error {final} at {largest} shots exceeds bound {error_bound}"
        )
    # Variance-aware allocation must be no worse than uniform at equal budget
    # (within noise) — the point of spending pilot shots at all.
    uniform = {int(row["total_shots"]): float(row["mean_error"]) for row in by_policy["uniform"]}
    for row in by_policy["variance"]:
        budget = int(row["total_shots"])
        assert float(row["mean_error"]) <= uniform[budget] * 1.25 + 0.02, (
            f"variance allocation worse than uniform at {budget} shots: "
            f"{row['mean_error']} vs {uniform[budget]}"
        )


def _publish(rows: Sequence[Dict[str, object]], num_qubits: int) -> None:
    publish(
        "shots",
        f"Reconstruction error vs total shots per allocation policy "
        f"({num_qubits}-qubit halved QAOA ring)",
        rows,
    )


@pytest.mark.benchmark(group="shots")
def test_shot_allocation_error_curve(benchmark):
    jobs = bench_jobs([])  # env-driven under pytest
    rows = run_once(
        benchmark,
        generate_shot_rows,
        num_qubits=SMOKE_QUBITS,
        budgets=SMOKE_BUDGETS,
        num_seeds=SMOKE_SEEDS,
        jobs=jobs,
    )
    _publish(rows, SMOKE_QUBITS)
    check_rows(rows, error_bound=0.2)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_engine_arguments(parser)
    add_shot_arguments(parser)
    parser.add_argument(
        "--qubits",
        type=int,
        default=DEFAULT_QUBITS,
        help=f"QAOA ring size (default {DEFAULT_QUBITS})",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="executor seeds averaged per (policy, budget) cell (default 3)",
    )
    add_smoke_argument(
        parser,
        "tiny fixed-seed grid, asserts budget conservation, an error bound "
        "and variance <= uniform within noise",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        num_qubits, budgets, num_seeds = SMOKE_QUBITS, SMOKE_BUDGETS, SMOKE_SEEDS
    else:
        num_qubits, num_seeds = args.qubits, args.seeds
        budgets = (args.shots,) if args.shots > 0 else DEFAULT_BUDGETS
    rows = generate_shot_rows(
        num_qubits=num_qubits,
        budgets=budgets,
        num_seeds=num_seeds,
        jobs=max(1, args.jobs),
        chunk_size=args.chunk_size,
        base_seed=0 if args.smoke else args.seed,
    )
    _publish(rows, num_qubits)
    if args.smoke:
        check_rows(rows, error_bound=0.2)
        smoke_passed("budgets conserved, error bounded, variance <= uniform")


if __name__ == "__main__":
    main()
