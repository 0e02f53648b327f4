"""Perf benchmark: end-to-end and per-layer cost of ``evaluate_workload``.

One workload at a time (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/perf/run.py --workload prob-wire --seed 0 --seconds 15 --trace 0

prints every metric by name and unit, then one JSON line ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced pass with ``--trace 1``.

Every workload, untraced then traced, with a human-readable report::

    PYTHONPATH=src python benchmarks/perf/run.py --seed 0 [--repeat N]

Each workload runs in fresh processes, one after another, as a single client
in a closed loop (the next evaluation starts when the last one returns).
Set-up is sampled in ``SETUP_SAMPLES`` fresh processes per untraced run; the
last of them then runs the timed loop.  Every invocation writes its raw runs
and the machine state (commit, ``nproc``, load average, a fixed NumPy
calibration time) to ``benchmarks/results/perf/``; ``compare.py`` compares
such files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = ROOT / "benchmarks" / "results" / "perf"
WORKLOADS = ("prob-wire", "expect-gate", "qaoa-sweep", "dd-wide")

#: Fresh processes whose set-up time is sampled per untraced run (median reported).
SETUP_SAMPLES = 3
#: Grace a benchmark process gets beyond its measuring time before it is killed.
PROCESS_GRACE_S = 150.0

#: Per-layer metrics that add up spans standing in for each other on different
#: workloads (the ILP or the greedy cutter; the full-vector contraction or the
#: dynamic-definition zoom), so each reported time is measured on every workload.
UNIONS: Dict[str, Tuple[str, ...]] = {
    "cut.solver.self_s": ("ilp.solve.self_s", "core.greedy.self_s"),
    "cutting.reconstruct.self_s": (
        "cutting.contract.self_s",
        "cutting.dd.self_s",
        "cutting.dd_level.self_s",
    ),
}


class BenchError(RuntimeError):
    """A benchmark process failed; no result may be reported."""


# --------------------------------------------------------------------------- processes
def spawn(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    role: str,
    evals: Optional[int] = None,
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one ``measure.py`` process; return its set-up time and final payload."""
    options = {"--workload": workload, "--seed": seed, "--seconds": seconds}
    options.update({"--trace": trace, "--role": role})
    if evals is not None:
        options["--evals"] = evals
    command = [sys.executable, str(HERE / "measure.py")]
    for flag, value in options.items():
        command += [flag, str(value)]
    lines: List[Tuple[float, str]] = []
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def read() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            lines.append((time.perf_counter(), line))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = process.wait(timeout=seconds + PROCESS_GRACE_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchError(f"{workload}: benchmark process timed out")
    finally:
        reader.join()
    events = {}
    for stamp, line in lines:
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if isinstance(payload, dict) and "event" in payload:
            events[payload["event"]] = (stamp, payload)
    if code != 0 or "ready" not in events:
        raise BenchError(f"{workload}: benchmark process ({role}) exited with code {code}")
    setup_s = events["ready"][0] - start
    done = events.get("done", (0.0, None))[1]
    if role == "measure" and done is None:
        raise BenchError(f"{workload}: benchmark process reported no measurements")
    return setup_s, done


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, evals: Optional[int] = None
) -> Dict[str, Any]:
    """One run: set-up samples (untraced only), then the timed loop."""
    samples = 1 if trace else SETUP_SAMPLES
    setups = [spawn(workload, seed, seconds, trace, "setup")[0] for _ in range(samples - 1)]
    setup_s, done = spawn(workload, seed, seconds, trace, "measure", evals)
    setups.append(setup_s)
    assert done is not None
    run = {"workload": workload, "seed": seed, "trace": trace, "setup_samples": setups, **done}
    run["attempted"] = len(run["evals"])
    run["failed"] = sum(1 for sample in run["evals"] if not sample["ok"])
    run["metrics"] = per_layer(run) if trace else end_to_end(run)
    return run


# --------------------------------------------------------------------------- metrics
def end_to_end(run: Dict[str, Any]) -> Dict[str, float]:
    samples = run["evals"]
    correct = [sample for sample in samples if sample["ok"]]
    return {
        "evals_per_s": len(correct) / run["wall"],
        "eval_s_p50": statistics.median(sample["seconds"] for sample in samples),
        "setup_s": statistics.median(run["setup_samples"]),
        "peak_rss_mib": run["peak_rss_mib"],
        "cuts_per_eval": statistics.fmean(sample["cuts"] or 0 for sample in samples),
        "variants_per_eval": statistics.fmean(sample["variants"] or 0 for sample in samples),
    }


def per_layer(run: Dict[str, Any]) -> Dict[str, float]:
    """Mean per evaluation of every span time, call count and counter."""
    rows = [dict(row) for row in run["per_eval"]]
    for row, sample in zip(rows, run["evals"]):
        row.update(sample["counts"])
        for name, parts in UNIONS.items():
            row[name] = sum(row.get(part, 0.0) for part in parts)
    names = sorted({name for row in rows for name in row})
    return {name: statistics.fmean(row.get(name, 0.0) for row in rows) for name in names}


def trace_checks(run: Dict[str, Any]) -> Dict[str, float]:
    """Self times vs the traced wall time, and the tracer's share of it."""
    traced = sum(sample["seconds"] for sample in run["evals"])
    spans = sum(
        value for row in run["per_eval"] for name, value in row.items() if name.endswith(".self_s")
    )
    overhead = sum(row.get("trace.overhead.self_s", 0.0) for row in run["per_eval"])
    return {"self_time_coverage": spans / traced, "trace_overhead_share": overhead / traced}


# --------------------------------------------------------------------------- environment
def calibration_s() -> float:
    """Median time of a fixed NumPy loop: compares machine speed across result files."""
    import numpy as np

    times = []
    for _ in range(3):
        matrix = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
        start = time.perf_counter()
        for _ in range(20):
            matrix = np.tanh(matrix @ matrix.T / 256.0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> Optional[str]:
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=environment,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def write_results(label: str, environment: Dict[str, Any], runs: List[Dict[str, Any]]) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{stamp}-{os.getpid()}-{label}.json"
    path.write_text(json.dumps({"env": environment, "runs": runs}, indent=1), encoding="utf-8")
    return path


# --------------------------------------------------------------------------- reporting
def print_metrics(workload: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"{workload:12s} {name:32s} {metrics.get(name, 0.0):14.6g} {unit}")


def print_spans(run: Dict[str, Any]) -> None:
    metrics = run["metrics"]
    spans = sorted(
        (name for name in metrics if name.endswith(".self_s") and name not in UNIONS),
        key=lambda name: -metrics[name],
    )
    total = sum(metrics[name] for name in spans)
    for name in spans:
        if metrics[name] <= 0.0:
            continue
        span = name[: -len(".self_s")]
        print(
            f"{run['workload']:12s} {span:24s} self {metrics[name]:9.4f} s "
            f"({100.0 * metrics[name] / total:5.1f}%)  calls {metrics.get(span + '.calls', 0):9.1f}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="only the untraced (0) or traced (1) pass"
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload and pass")
    args = parser.parse_args(argv)

    e2e_units = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]}
    layer_units = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    passes = [args.trace] if args.trace is not None else [0, 1]
    environment: Dict[str, Any] = {
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "calibration_s": calibration_s(),
        "python": sys.version.split()[0],
    }
    runs: List[Dict[str, Any]] = []
    try:
        for _ in range(args.repeat):
            for workload in workloads:
                untraced = None
                for trace in passes:
                    # The traced pass repeats the untraced pass's instance list.
                    evals = untraced["attempted"] if trace and untraced is not None else None
                    run = run_workload(workload, args.seed, args.seconds, trace, evals)
                    runs.append(run)
                    if not trace:
                        untraced = run
                        print_metrics(workload, run["metrics"], e2e_units)
                    else:
                        print_metrics(workload, run["metrics"], layer_units)
                        print_spans(run)
                        checks = trace_checks(run)
                        if untraced is not None:
                            checks["traced_vs_untraced_p50"] = statistics.median(
                                sample["seconds"] for sample in run["evals"]
                            ) / untraced["metrics"]["eval_s_p50"]
                        run["trace_checks"] = checks
                        for name, value in checks.items():
                            print(f"{workload:12s} {name:32s} {value:14.6g}")
                    sys.stdout.flush()
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    environment["loadavg_after"] = os.getloadavg()
    label = f"{args.workload or 'all'}-seed{args.seed}"
    print(f"results written to {write_results(label, environment, runs)}")

    failed = sum(run["failed"] for run in runs)
    if args.workload is not None and args.trace is not None and args.repeat == 1:
        (run,) = runs
        units = layer_units if args.trace else e2e_units
        result = {
            "correct": failed == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                name: {"value": run["metrics"].get(name, 0.0), "unit": unit}
                for name, unit in units.items()
            },
        }
        # The result line carries any failure; the exit code only says whether
        # a result could be produced at all.
        print(json.dumps(result))
        return 0
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
