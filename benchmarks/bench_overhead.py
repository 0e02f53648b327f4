"""Sampling-overhead optimization: shot savings at equal error + off-mode identity.

The overhead pass (:mod:`repro.cutting.shot_overhead`) reweights each cut's
free measurement/preparation bases (and gate-cut instances) to minimize the
modelled sampling variance before the shot budget is split.  This harness
evaluates Ising-chain expectation workloads — the regime where the
``sum(w^2/p)`` variance proxy is tight; see the caveat in docs/engine.md —
under two legs:

* **identity** — an explicit ``EngineConfig(optimize_overhead="none")`` must
  reproduce the default config *bit for bit* on every seed: the optimizer
  is a pure insertion between enumeration and allocation, and switched off it
  must leave every downstream number untouched.
* **reduction** — with ``optimize_overhead="weights"`` the same workload is
  evaluated on a budget ``reduction``-times smaller than the unoptimized
  baseline, and must still land at *equal or lower* reconstruction error
  (both mean and rms over the seed set).  That is the honest form of the
  "k-times fewer shots" claim: fewer shots, same answer quality.

Run directly (``PYTHONPATH=../src python benchmarks/bench_overhead.py --smoke``)
for the CI regression mode (fixed seeds; asserts bit-identity on every seed
and a >= 2x realized shot reduction at equal error on every workload), or
under pytest-benchmark (``QRCC_BENCH_JOBS=2 pytest benchmarks/bench_overhead.py``).
"""

from __future__ import annotations

import argparse
import math
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro import CutConfig, EngineConfig, evaluate_workload
from repro.workloads import make_workload

from harness import (
    add_engine_arguments,
    add_overhead_arguments,
    add_shot_arguments,
    add_smoke_argument,
    bench_jobs,
    publish,
    run_once,
    smoke_passed,
)

#: The --smoke / CI grid: (family, qubits, device size, budget, claimed shot
#: reduction).  Ising chains cut with gate cuts, whose six uneven instance
#: coefficients are where basis reweighting bites hardest; budgets keep every
#: variant above the allocator's one-shot floor.  The claimed reductions are
#: deliberately below the modelled ~4x so the realized-error assertions hold
#: with margin on the fixed seeds.
SMOKE_WORKLOADS: Tuple[Tuple[str, int, int, int, int], ...] = (
    ("IS", 4, 2, 8192, 2),
    ("IS", 8, 4, 16384, 3),
)

#: Fixed executor seeds (one identity row each; errors are averaged over them).
SMOKE_SEEDS = 6

#: Required worst-over-workloads realized shot saving at equal error.
SMOKE_REDUCTION_TARGET = 2.0


def _mean_rms(errors: Sequence[float]) -> Tuple[float, float]:
    mean = sum(errors) / len(errors)
    rms = math.sqrt(sum(error * error for error in errors) / len(errors))
    return mean, rms


def generate_overhead_rows(
    workloads: Sequence[Tuple[str, int, int, int, int]] = SMOKE_WORKLOADS,
    num_seeds: int = SMOKE_SEEDS,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Identity rows (one per workload and seed) plus one reduction row per workload."""
    rows: List[Dict[str, object]] = []
    for family, num_qubits, device_size, budget, reduction in workloads:
        workload = make_workload(family, num_qubits)
        config = CutConfig(device_size=device_size, enable_gate_cuts=True)
        label = f"{family}-{num_qubits}/ds{device_size}"

        off_errors: List[float] = []
        on_errors: List[float] = []
        overhead_before = overhead_after = 0.0
        for seed in range(num_seeds):
            off = evaluate_workload(
                workload,
                config,
                engine_config=EngineConfig(
                    max_workers=jobs, shots=budget, seed=seed, optimize_overhead="none"
                ),
            )
            off_errors.append(abs(off.expectation_error))
            # Identity leg: the explicit "none" config must match the default
            # config bit for bit (the optimizer block never runs).
            default = evaluate_workload(
                workload,
                config,
                engine_config=EngineConfig(max_workers=jobs, shots=budget, seed=seed),
            )
            rows.append(
                {
                    "leg": "identity",
                    "workload": label,
                    "seed": seed,
                    "total_shots": budget,
                    "identical": default.expectation_value == off.expectation_value,
                    # Columns the reduction row fills; blank here so the
                    # printed table shows every field (format_table keys off
                    # the first row).
                    "shot_reduction": "",
                    "off_error_mean": "",
                    "on_error_mean": "",
                    "off_error_rms": "",
                    "on_error_rms": "",
                    "model_overhead_before": "",
                    "model_overhead_after": "",
                }
            )
            # Reduction leg: the optimizer runs on a `reduction`-times smaller
            # budget and must not lose accuracy relative to the full-budget
            # unoptimized baseline.
            on = evaluate_workload(
                workload,
                config,
                engine_config=EngineConfig(
                    max_workers=jobs,
                    shots=budget // reduction,
                    seed=seed,
                    optimize_overhead="weights",
                ),
            )
            on_errors.append(abs(on.expectation_error))
            report = on.overhead_report
            assert report is not None
            overhead_before, overhead_after = report.overhead_before, report.overhead_after
        off_mean, off_rms = _mean_rms(off_errors)
        on_mean, on_rms = _mean_rms(on_errors)
        rows.append(
            {
                "leg": "reduction",
                "workload": label,
                "seed": "",
                "total_shots": budget,
                "shot_reduction": reduction,
                "off_error_mean": round(off_mean, 5),
                "on_error_mean": round(on_mean, 5),
                "off_error_rms": round(off_rms, 5),
                "on_error_rms": round(on_rms, 5),
                "model_overhead_before": round(overhead_before, 4),
                "model_overhead_after": round(overhead_after, 4),
            }
        )
    return rows


def check_rows(rows: Sequence[Dict[str, object]]) -> None:
    """The --smoke / CI assertions over a generated table."""
    identity = [row for row in rows if row["leg"] == "identity"]
    reduction = [row for row in rows if row["leg"] == "reduction"]
    broken = [(row["workload"], row["seed"]) for row in identity if not row["identical"]]
    assert not broken, (
        f"optimize_overhead='none' diverged from the default config for "
        f"{broken} — the off mode must be bit-identical to the pre-optimizer "
        f"pipeline"
    )
    assert reduction, "no reduction rows generated"
    for row in reduction:
        assert float(row["shot_reduction"]) >= SMOKE_REDUCTION_TARGET, (
            f"{row['workload']}: claimed reduction {row['shot_reduction']}x is "
            f"below the {SMOKE_REDUCTION_TARGET}x gate"
        )
        assert float(row["on_error_mean"]) <= float(row["off_error_mean"]), (
            f"{row['workload']}: optimized mean error {row['on_error_mean']} at "
            f"budget/{row['shot_reduction']} exceeds the unoptimized full-budget "
            f"mean {row['off_error_mean']} — the shot saving is not real"
        )
        assert float(row["on_error_rms"]) <= float(row["off_error_rms"]), (
            f"{row['workload']}: optimized rms error {row['on_error_rms']} at "
            f"budget/{row['shot_reduction']} exceeds the unoptimized full-budget "
            f"rms {row['off_error_rms']} — the shot saving is not real"
        )
        assert float(row["model_overhead_after"]) <= float(row["model_overhead_before"]), (
            f"{row['workload']}: the optimizer increased the modelled overhead "
            f"({row['model_overhead_before']} -> {row['model_overhead_after']})"
        )


def _publish(rows: Sequence[Dict[str, object]]) -> None:
    publish(
        "overhead",
        "Sampling-overhead optimization: shot savings at equal error "
        "(Ising-chain expectation workloads, gate cuts)",
        rows,
    )


@pytest.mark.benchmark(group="overhead")
def test_overhead_reduction_and_identity(benchmark):
    jobs = bench_jobs([])  # env-driven under pytest
    rows = run_once(benchmark, generate_overhead_rows, jobs=jobs)
    _publish(rows)
    check_rows(rows)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_engine_arguments(parser)
    add_shot_arguments(parser)
    add_overhead_arguments(parser)
    parser.add_argument(
        "--seeds",
        type=int,
        default=SMOKE_SEEDS,
        help=f"executor seeds per workload (default {SMOKE_SEEDS})",
    )
    add_smoke_argument(
        parser,
        "fixed seeds; asserts optimize_overhead='none' is bit-identical to the "
        "default config on every seed and that 'weights' reaches the "
        "unoptimized full-budget error on a >= 2x smaller budget for every "
        "workload",
    )
    args = parser.parse_args(argv)
    num_seeds = SMOKE_SEEDS if args.smoke else max(1, args.seeds)
    rows = generate_overhead_rows(num_seeds=num_seeds, jobs=max(1, args.jobs))
    _publish(rows)
    if args.smoke:
        check_rows(rows)
        smoke_passed(
            "off-mode bit-identical on every seed, >= 2x fewer shots at equal "
            "error on every workload"
        )


if __name__ == "__main__":
    main()
