"""Shared infrastructure for the benchmark harnesses.

Every ``bench_*.py`` file regenerates one table or figure of the paper.  Because the
paper's circuit sizes (N up to 300) require hours of solver time and cannot be
verified against exact simulation on a laptop, the default configurations are scaled
down while keeping the same workload families, N/D ratios and comparison structure.
Set ``QRCC_BENCH_SCALE=paper`` to run closer-to-paper sizes (slow; solver time limits
apply, as they do for the paper's 1800 s Gurobi runs).

Every harness prints its table to stdout (so ``pytest benchmarks/ --benchmark-only -s``
shows the reproduced rows) and archives it as JSON under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

RESULTS_DIR = Path(__file__).parent / "results"

#: "small" (default, laptop-friendly) or "paper" (closer to the paper's sizes).
SCALE = os.environ.get("QRCC_BENCH_SCALE", "small")

#: Wall-clock limit per ILP solve, mirroring the paper's 1800 s Gurobi limit but
#: scaled to the reduced problem sizes.
SOLVER_TIME_LIMIT = float(
    os.environ.get("QRCC_BENCH_TIME_LIMIT", "30" if SCALE == "small" else "1800")
)

#: Parallel workers for variant batch execution (the engine's ``max_workers``).
#: Harnesses read this through :func:`bench_jobs`; under pytest (where custom
#: argv is awkward) set ``QRCC_BENCH_JOBS`` instead of ``--jobs``.
DEFAULT_JOBS = int(os.environ.get("QRCC_BENCH_JOBS", "4"))

#: Default total shot budget for finite-shot harnesses (``--shots`` /
#: ``QRCC_BENCH_SHOTS``); ``0`` means exact (no sampling).
DEFAULT_SHOTS = int(os.environ.get("QRCC_BENCH_SHOTS", "0"))

#: Default shot-allocation policy (``--allocation`` / ``QRCC_BENCH_ALLOCATION``).
DEFAULT_ALLOCATION = os.environ.get("QRCC_BENCH_ALLOCATION", "uniform")

#: Default pruned-weight fraction (``--prune-fraction`` / ``QRCC_BENCH_PRUNE``);
#: ``0`` means no pruning (the exact contraction).
DEFAULT_PRUNE_FRACTION = float(os.environ.get("QRCC_BENCH_PRUNE", "0"))

#: Default farm routing policy (``--routing`` / ``QRCC_BENCH_ROUTING``).
DEFAULT_ROUTING = os.environ.get("QRCC_BENCH_ROUTING", "best_fit")

#: Default device farm as comma-separated qubit widths (``--device-widths`` /
#: ``QRCC_BENCH_DEVICE_WIDTHS``); empty means no farm (the implicit simulator).
DEFAULT_DEVICE_WIDTHS = os.environ.get("QRCC_BENCH_DEVICE_WIDTHS", "")

#: Default streaming round count (``--rounds`` / ``QRCC_BENCH_ROUNDS``).
DEFAULT_ROUNDS = int(os.environ.get("QRCC_BENCH_ROUNDS", "8"))

#: Default sampling-overhead optimization mode (``--optimize-overhead`` /
#: ``QRCC_BENCH_OVERHEAD``): "none" (today's pipeline, bit-identical) or
#: "weights" (per-cut measurement/preparation basis weights minimizing the
#: modelled sampling variance; config-only, no evaluate_workload keyword).
DEFAULT_OPTIMIZE_OVERHEAD = os.environ.get("QRCC_BENCH_OVERHEAD", "none")


def add_engine_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared execution-engine options to a benchmark CLI parser."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=DEFAULT_JOBS,
        help="parallel engine workers for variant execution (1 = serial; "
        "default from QRCC_BENCH_JOBS or 4)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="variant requests per worker task (default: auto, ~4 chunks/worker)",
    )
    return parser


def add_shot_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared finite-shot sampling options to a benchmark CLI parser."""
    parser.add_argument(
        "--shots",
        type=int,
        default=DEFAULT_SHOTS,
        help="total shot budget per evaluation (0 = exact execution; default "
        "from QRCC_BENCH_SHOTS or 0)",
    )
    parser.add_argument(
        "--allocation",
        choices=("uniform", "weighted", "variance"),
        default=DEFAULT_ALLOCATION,
        help="how the shot budget is split across subcircuit variants "
        "(default from QRCC_BENCH_ALLOCATION or uniform)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for the sampling executor (results are bit-identical "
        "across worker counts at a fixed seed)",
    )
    return parser


def add_pruning_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared variant-pruning options to a benchmark CLI parser."""
    parser.add_argument(
        "--prune-fraction",
        type=float,
        default=DEFAULT_PRUNE_FRACTION,
        help="drop the smallest-|contraction-weight| variant tail worth this "
        "fraction of total weight before execution (0 = no pruning; default "
        "from QRCC_BENCH_PRUNE or 0); the induced bias is bounded a priori "
        "by fraction * total weight",
    )
    return parser


def add_device_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared device-farm options to a benchmark CLI parser."""
    parser.add_argument(
        "--device-widths",
        type=str,
        default=DEFAULT_DEVICE_WIDTHS,
        help="comma-separated device qubit widths forming an execution farm, "
        "e.g. 4,4,7 (empty = no farm, the implicit unlimited simulator; "
        "default from QRCC_BENCH_DEVICE_WIDTHS)",
    )
    parser.add_argument(
        "--routing",
        choices=("round_robin", "least_loaded", "best_fit"),
        default=DEFAULT_ROUTING,
        help="how variants are routed across the farm's feasible devices "
        "(default from QRCC_BENCH_ROUTING or best_fit)",
    )
    return parser


def add_streaming_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared streaming-evaluation options to a benchmark CLI parser."""
    parser.add_argument(
        "--rounds",
        type=int,
        default=DEFAULT_ROUNDS,
        help="cumulative sampling rounds per streaming evaluation (default from "
        "QRCC_BENCH_ROUNDS or 8; 1 = the one-shot batch path)",
    )
    parser.add_argument(
        "--target-half-width",
        type=float,
        default=None,
        help="stop a streaming evaluation once its confidence interval's "
        "half-width reaches this (default: no target, run every round)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level of the streaming interval the target is "
        "checked against (default 0.95)",
    )
    parser.add_argument(
        "--replan",
        action="store_true",
        help="re-split each round's chunk budget from observed variances "
        "(Neyman) instead of keeping the up-front plan; forfeits "
        "bit-identity with the batch path",
    )
    return parser


def add_overhead_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared sampling-overhead optimization option to a CLI parser."""
    parser.add_argument(
        "--optimize-overhead",
        choices=("none", "weights"),
        default=DEFAULT_OPTIMIZE_OVERHEAD,
        help="minimize the modelled sampling overhead by reweighting each "
        "cut's free measurement/preparation bases before allocation: 'none' "
        "(bit-identical to the unoptimized pipeline) or 'weights' (default "
        "from QRCC_BENCH_OVERHEAD or none)",
    )
    return parser


def add_smoke_argument(
    parser: argparse.ArgumentParser, detail: str
) -> argparse.ArgumentParser:
    """Attach the shared ``--smoke`` CI flag with a harness-specific detail line.

    Every ``bench_*.py`` exposes the same flag with the same semantics (small
    fixed sizes + hard assertions, run by the CI bench gate); only the sentence
    describing *which* assertions varies, and that is ``detail``.
    """
    parser.add_argument("--smoke", action="store_true", help=f"CI mode: {detail}")
    return parser


def smoke_passed(detail: str) -> None:
    """Print the uniform smoke-success line every harness ends its CI mode with."""
    print(f"smoke assertions passed: {detail}")


def parse_device_widths(text: str) -> Sequence[int]:
    """Parse a ``--device-widths`` value ("4,4,7") into a width list."""
    if not text.strip():
        return []
    return [int(chunk) for chunk in text.split(",") if chunk.strip()]


def device_farm(widths: Sequence[int], prefix: str = "qpu"):
    """Build a homogeneous-executor device farm from a list of qubit widths.

    Returns a tuple of ``DeviceSpec`` suitable for ``evaluate_workload``'s
    ``devices=`` / ``EngineConfig.devices`` (or ``None`` for an empty list, so
    the result can be passed straight through).
    """
    if not widths:
        return None
    from repro.engine import DeviceSpec

    return tuple(
        DeviceSpec(f"{prefix}-{index}-w{width}", width)
        for index, width in enumerate(widths)
    )


def bench_jobs(argv: Optional[Sequence[str]] = None) -> int:
    """The ``--jobs`` value for a harness, whether run as a script or under pytest.

    Direct script runs parse ``--jobs`` from the command line; pytest-benchmark
    runs (no custom argv) fall back to the ``QRCC_BENCH_JOBS`` environment
    variable, then to the default of 4.
    """
    parser = argparse.ArgumentParser(add_help=False)
    add_engine_arguments(parser)
    args, _ = parser.parse_known_args(sys.argv[1:] if argv is None else argv)
    return max(1, args.jobs)


def is_paper_scale() -> bool:
    return SCALE == "paper"


def format_table(title: str, rows: Sequence[Dict[str, object]]) -> str:
    """Render rows as a fixed-width text table."""
    if not rows:
        return f"\n=== {title} ===\n(no rows)\n"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = [f"\n=== {title} ==="]
    lines.append(" | ".join(str(column).ljust(widths[column]) for column in columns))
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines) + "\n"


def publish(name: str, title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Print the table and archive it as JSON."""
    print(format_table(title, rows))
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"title": title, "scale": SCALE, "rows": list(rows)}
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2, default=str))


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, iterations=1, rounds=1)
