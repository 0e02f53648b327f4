"""Compare perf benchmark result files against a base.

    python benchmarks/perf/compare.py BASE.json NEW.json [NEW2.json ...]

Each file is what ``run.py`` writes: one or more runs per workload (use
``run.py --repeat 10`` for a set of ten runs).  For every end-to-end metric of
``BENCHMARK.json`` and every workload it prints each side's median and
quartiles over its untraced runs, and one verdict per candidate file:

* ``unresolved`` -- either side has fewer than two runs, so its spread is
  unknown; or either side's spread (quartile distance over median) is wider
  than the bound, unless every candidate run beats every base run;
* ``worse`` -- the candidate's median is worse than the base's by more than
  the metric's bound;
* ``better`` -- the candidate's median beats the base's by more than either
  side's spread;
* ``unchanged`` -- anything else.

Exits with code 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

Summary = Tuple[float, float, float]


def summarize(values: Sequence[float]) -> Summary:
    """``(first quartile, median, third quartile)``, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def spread(summary: Summary) -> float:
    first, median, third = summary
    return (third - first) / abs(median) if median else 0.0


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see the module docstring)."""
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    base_summary, new_summary = summarize(base), summarize(new)
    base_median, new_median = base_summary[1], new_summary[1]
    scale = abs(base_median) if base_median else 1.0
    worsening = sign * (new_median - base_median) / scale
    noise = max(spread(base_summary), spread(new_summary))
    if noise > bound:
        if all(sign * (value - reference) < 0 for value in new for reference in base):
            return "better"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < 0 and -worsening > noise:
        return "better"
    return "unchanged"


def load_runs(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per untraced run]}}`` of one result file."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        if run["trace"]:
            continue
        metrics = table.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(float(value))
    return table


def _cell(summary: Summary) -> str:
    first, median, third = summary
    return f"{median:11.5g} [{first:.5g}, {third:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="+")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    base = load_runs(args.base)
    any_worse = False
    for path in args.new:
        new = load_runs(path)
        print(f"{args.base} -> {path}")
        for workload in sorted(set(base) & set(new)):
            for metric in metrics:
                name = metric["name"]
                before = base[workload].get(name)
                after = new[workload].get(name)
                if not before or not after:
                    continue
                outcome = verdict(before, after, metric["better"], metric["bound"])
                any_worse |= outcome == "worse"
                print(
                    f"  {workload:12s} {name:18s} {_cell(summarize(before))} -> "
                    f"{_cell(summarize(after))} {metric['unit']:6s} {outcome}"
                )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
