"""One benchmark process: set up a workload, then time its evaluations.

Started by ``run.py`` once per set-up sample and once per timed pass; it is not
meant to be run by hand.  It prints one JSON line when set-up is done
(``{"event": "ready"}``) and, in the ``measure`` role, one JSON line with the
raw per-evaluation measurements (``{"event": "done", ...}``).  Everything else
it has to say goes to standard error.

Set-up is everything a fresh process pays before its first timed evaluation:
imports, drawing the instance pool and its references, and one warm-up
evaluation of a small instance of the same family.  The timed loop runs whole
rounds of the workload until ``--seconds`` have passed (or, with ``--evals``,
until that many evaluations ran), checking every result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS, Instance, WorkloadSpec  # noqa: E402


def emit(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload), flush=True)


def peak_rss_mib() -> float:
    """Peak resident set of this process or any reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor gave to other guests, summed over all CPUs (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def result_counts(result: Any) -> Dict[str, float]:
    """Per-layer counters an evaluation reports itself (its engine stats are per-call)."""
    stats = result.engine_stats
    return {
        "eval.shots": result.shots_spent or 0,
        "engine.execute.unique": stats.unique_executions,
        "engine.execute.dedup_hits": stats.dedup_hits,
        "engine.execute.cache_hits": stats.cache_hits,
    }


def run_one(spec: WorkloadSpec, instance: Instance, tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Evaluate and check one instance; an exception is a failure, never fatal."""
    result = None
    counts: Dict[str, float] = {}
    start = time.perf_counter()
    try:
        if tracer is None:
            result = instance.evaluate()
        else:
            with tracer.evaluation():
                result = instance.evaluate()
        seconds = time.perf_counter() - start
        reason = spec.check(instance, result)
        counts = result_counts(result)
    except Exception:
        seconds = time.perf_counter() - start
        reason = traceback.format_exc()
    if reason is not None:
        print(f"[{spec.name}] {instance.workload.name} failed: {reason}", file=sys.stderr)
    return {
        "label": instance.workload.name,
        "seconds": seconds,
        "ok": reason is None,
        "cuts": None if result is None else result.plan.num_cuts,
        "variants": None if result is None else result.num_variant_evaluations,
        "counts": counts,
    }


def timed_loop(
    spec: WorkloadSpec,
    pool: List[List[Instance]],
    seconds: float,
    evals: Optional[int],
    tracer: Optional[Tracer],
) -> Dict[str, Any]:
    samples: List[Dict[str, Any]] = []
    steal = steal_seconds()
    start = time.perf_counter()
    rounds = 0
    while True:
        for instance in pool[rounds % len(pool)]:
            samples.append(run_one(spec, instance, tracer))
        rounds += 1
        if evals is not None:
            if len(samples) >= evals:
                break
        elif time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    steal_end = steal_seconds()
    stolen = None if steal is None or steal_end is None else steal_end - steal
    return {"wall": wall, "steal_s": stolen, "rounds": rounds, "evals": samples}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--evals", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    args = parser.parse_args()

    spec = WORKLOADS[args.workload]
    pool = spec.pool(args.seed)
    warmup = spec.warmup(np.random.default_rng((args.seed, 1)))
    reason = spec.check(warmup, warmup.evaluate())
    if reason is not None:
        raise SystemExit(f"[{spec.name}] warm-up evaluation failed: {reason}")
    emit({"event": "ready"})
    if args.role == "setup":
        return

    if not args.trace:
        outcome = timed_loop(spec, pool, args.seconds, args.evals, None)
    else:
        tracer = Tracer()
        with install(tracer) as patched:
            outcome = timed_loop(spec, pool, args.seconds, args.evals, tracer)
        per_eval = tracer.per_eval()
        outcome["patched"] = patched
        # Evaluation ids count from 1 in loop order.
        ids = range(1, len(outcome["evals"]) + 1)
        outcome["per_eval"] = [per_eval.get(eval_id, {}) for eval_id in ids]
    outcome["peak_rss_mib"] = peak_rss_mib()
    emit({"event": "done", **outcome})


if __name__ == "__main__":
    main()
