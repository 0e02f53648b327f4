"""Device width vs. largest evaluable circuit — the paper's headline claim.

QRCC's premise is that a small device's *qubit width* is the binding
constraint, and that qubit reuse + circuit cutting together let circuits far
wider than any available machine run as families of narrow subcircuit
variants.  This harness makes that claim concrete against the engine's device
farm: for a farm of fixed-width devices, it sweeps the circuit size N upward
(QFT, the paper's canonical probability workload) with qubit reuse off and on,
and records the largest N that evaluates end to end — every variant routed to
a device it actually fits on, reconstruction error checked against the exact
reference.

Expected shape (and what ``--smoke`` asserts in CI):

* with reuse **on**, the farm evaluates circuits at least 2 qubits wider than
  its widest device (cutting alone helps; cutting + reuse goes further — the
  reuse-off sweep caps out at a smaller N);
* farm runs are **bit-identical** to ``devices=None`` runs (same executor, the
  farm only adds routing), so the device layer never changes any numbers;
* per-device utilization is balanced across a homogeneous farm and sums to the
  engine's unique-execution count.

Run directly (``PYTHONPATH=src python benchmarks/bench_devices.py --smoke``)
with ``--jobs`` / ``--routing`` / ``--device-widths`` to vary the farm.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import CutConfig, EngineConfig, evaluate_workload
from repro.exceptions import (
    InfeasibleError,
    InfeasibleVariantError,
    SearchTimeoutError,
)
from repro.workloads import make_workload

from harness import (
    SOLVER_TIME_LIMIT,
    add_device_arguments,
    add_engine_arguments,
    device_farm,
    is_paper_scale,
    add_smoke_argument,
    parse_device_widths,
    publish,
    smoke_passed,
)

#: The sweep workload: QFT is the paper's canonical probability benchmark and
#: the family where reuse compaction is strongest (every qubit measures early).
FAMILY = "QFT"

#: Devices per width in the default homogeneous farm (two, so routing has a
#: real choice to make and utilization balance is observable).
DEVICES_PER_WIDTH = 2


def _evaluate(
    n: int,
    width: int,
    reuse: bool,
    devices,
    routing: str,
    jobs: int,
):
    workload = make_workload(FAMILY, n)
    config = CutConfig(
        device_size=width,
        enable_qubit_reuse=reuse,
        max_subcircuits=3,
        time_limit=SOLVER_TIME_LIMIT,
    )
    engine_config = EngineConfig(max_workers=jobs, devices=devices)
    if devices is not None:
        engine_config = engine_config.with_(routing=routing)
    return evaluate_workload(workload, config, engine_config=engine_config)


def sweep_width(
    width: int,
    reuse: bool,
    n_max: int,
    jobs: int,
    routing: str,
) -> Tuple[Optional[int], List[Dict[str, object]]]:
    """Grow N until the farm can no longer evaluate; return (largest ok N, rows)."""
    farm = device_farm([width] * DEVICES_PER_WIDTH, prefix=f"qpu{width}")
    rows: List[Dict[str, object]] = []
    largest: Optional[int] = None
    for n in range(width + 1, n_max + 1):
        base = {
            "width": width,
            "devices": DEVICES_PER_WIDTH,
            "routing": routing,
            "reuse": reuse,
            "n": n,
        }
        try:
            result = _evaluate(n, width, reuse, farm, routing, jobs)
        except (InfeasibleError, SearchTimeoutError, InfeasibleVariantError) as error:
            rows.append(
                {
                    **base,
                    "status": type(error).__name__,
                    "max_width": "-",
                    "cuts": "-",
                    "reuses": "-",
                    "variants": "-",
                    "linf_error": "-",
                }
            )
            break
        error = float(
            np.max(np.abs(result.probabilities - result.reference_probabilities))
        )
        rows.append(
            {
                **base,
                "status": "ok",
                "max_width": result.plan.max_width,
                "cuts": result.plan.num_cuts,
                "reuses": result.plan.total_reuses,
                "variants": result.num_variant_evaluations,
                "linf_error": f"{error:.2e}",
            }
        )
        largest = n
    return largest, rows


def identity_check(width: int, n: int, jobs: int, routing: str) -> Dict[str, object]:
    """Evaluate one workload with and without a farm; they must match bitwise."""
    plain = _evaluate(n, width, True, None, routing, jobs)
    farmed = _evaluate(
        n, width, True, device_farm([width] * DEVICES_PER_WIDTH), routing, jobs
    )
    identical = bool(
        np.array_equal(plain.probabilities, farmed.probabilities)
        and plain.num_variant_evaluations == farmed.num_variant_evaluations
    )
    utilization = {
        report.name: report.assigned for report in farmed.device_utilization
    }
    return {
        "n": n,
        "width": width,
        "identical_to_plain": identical,
        "unique_executions": farmed.engine_stats.unique_executions,
        "per_device_assigned": utilization,
    }


def generate_rows(
    widths: Sequence[int], jobs: int, routing: str, n_extra: int
) -> Tuple[List[Dict[str, object]], Dict[int, Dict[bool, Optional[int]]]]:
    rows: List[Dict[str, object]] = []
    largest: Dict[int, Dict[bool, Optional[int]]] = {}
    for width in widths:
        largest[width] = {}
        for reuse in (False, True):
            best, sweep = sweep_width(width, reuse, width + n_extra, jobs, routing)
            largest[width][reuse] = best
            rows.extend(sweep)
    return rows, largest


def run_smoke(jobs: int, routing: str) -> None:
    width = 4
    rows, largest = generate_rows([width], jobs=jobs, routing=routing, n_extra=3)
    identity = identity_check(width, width + 2, jobs, routing)
    publish(
        "devices",
        f"Device farm: width-{width} devices vs largest evaluable {FAMILY} "
        f"(routing={routing})",
        rows,
    )
    print(f"identity check: {identity}")

    largest_on = largest[width][True]
    largest_off = largest[width][False]
    # The headline claim: with reuse the farm evaluates a circuit at least two
    # qubits wider than its widest device.
    assert largest_on is not None and largest_on >= width + 2, (
        f"reuse-enabled farm only reached N={largest_on} on width-{width} devices"
    )
    # Reuse must never shrink reach, and (for QFT at this width) extends it.
    assert largest_off is None or largest_on > largest_off, (
        f"reuse did not extend reach: on={largest_on}, off={largest_off}"
    )
    # Every successful evaluation must be numerically exact.
    bad = [
        row
        for row in rows
        if row["status"] == "ok" and float(row["linf_error"]) > 1e-8
    ]
    assert not bad, f"reconstruction error too large on rows: {bad}"
    # Farm runs change nothing but routing.
    assert identity["identical_to_plain"], "farm run diverged from devices=None run"
    assert sum(identity["per_device_assigned"].values()) == identity["unique_executions"]
    assert all(count > 0 for count in identity["per_device_assigned"].values()), (
        f"routing starved a device: {identity['per_device_assigned']}"
    )
    print("SMOKE OK: reuse extends the farm's reach "
          f"(N={largest_on} on width-{width} devices, reuse off caps at {largest_off}); "
          "devices=None bit-identity holds")


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_engine_arguments(parser)
    add_device_arguments(parser)
    add_smoke_argument(parser, "one width, assertions on reach, accuracy and identity")
    parser.add_argument(
        "--widths",
        type=str,
        default="3,4",
        help="device widths to sweep in full mode (comma-separated; default 3,4)",
    )
    parser.add_argument(
        "--n-extra",
        type=int,
        default=None,
        help="sweep N up to width + n-extra (default 3, paper scale 4)",
    )
    args = parser.parse_args(argv)
    jobs = max(1, args.jobs)
    if args.smoke:
        run_smoke(jobs, args.routing)
        return
    n_extra = args.n_extra if args.n_extra is not None else (4 if is_paper_scale() else 3)
    override = parse_device_widths(args.device_widths)
    widths = override or [int(w) for w in args.widths.split(",") if w.strip()]
    rows, largest = generate_rows(widths, jobs=jobs, routing=args.routing, n_extra=n_extra)
    publish(
        "devices",
        f"Device farm: device width vs largest evaluable {FAMILY} "
        f"(routing={args.routing})",
        rows,
    )
    for width, by_reuse in largest.items():
        print(
            f"width {width}: largest N without reuse = {by_reuse[False]}, "
            f"with reuse = {by_reuse[True]}"
        )


if __name__ == "__main__":
    main()
