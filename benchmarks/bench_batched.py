"""Batched vs scalar variant simulation — the vectorized backend's speedup.

QRCC's classical evaluation cost is the ``4^(wire cuts) x 6^(gate cuts)``
subcircuit variants behind every reconstruction.  This harness measures the
:class:`~repro.cutting.executors.BatchedExactExecutor` (same-structure variants
stacked into one ``(batch, 2**n)`` pass, see :mod:`repro.simulator.batched`)
against the scalar ``ExactExecutor`` of ``tests/reference_executors.py`` on the
enumerated variant batches of three workload families — QFT and a ripple-carry
adder (probability mode, wire cuts) and a QAOA MaxCut ring (expectation mode,
wire + gate cuts) — across batch-size caps, including caps smaller than the
natural group size (exercising ragged final sub-batches).

Two hard claims are checked on every row and enforced under ``--smoke`` (CI):

* results are **bit-identical** to the scalar executor, value for value and
  distribution byte for byte;
* at batch caps >= 16 the batched executor clears **>= 5x** the scalar variant
  throughput (the two run in the same process on the same machine, so the ratio
  is robust to CI hardware noise).

The ``evolved_rows`` column counts the rows the batched passes evolved: one per
twin class (variants that differ only in which measurements are signed, such
as a wire cut's I and Z bases).  ``--smoke`` also asserts that the QFT family,
whose wire cuts all have I/Z twins, evolves fewer rows than it returns.

Run directly (``python benchmarks/bench_batched.py [--smoke]``); results are
archived as ``benchmarks/results/batched.json`` for the CI regression gate.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import cut_circuit
from repro.core.config import CutConfig
from repro.cutting import BatchedExactExecutor, CutReconstructor
from repro.engine import ParallelEngine, request_key
from repro.simulator import batched
from repro.workloads import Workload, WorkloadKind, make_workload

from bench_engine import halved_ring_solution, ring_qaoa_workload
from harness import add_smoke_argument, publish, smoke_passed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_executors import ExactExecutor  # noqa: E402

#: Batch-size caps swept per workload (1 = scalar-shaped batches, ragged tails
#: included whenever the cap does not divide a group).
BATCH_CAPS = (1, 4, 16, 64)


def _workloads(smoke: bool) -> List[Tuple[Workload, object]]:
    """The three benchmark families at smoke or full scale.

    QFT and the ripple-carry adder are cut by the ILP (probability mode, wire
    cuts); the QAOA ring uses the deterministic halved-ring wire+gate cut from
    :mod:`bench_engine` so the variant-group structure — and therefore the
    measured batching factor — does not depend on which solution a solver picks.
    """
    qft_n, qaoa_n, adder_n = (6, 10, 8) if smoke else (8, 12, 10)
    qaoa = ring_qaoa_workload(qaoa_n)
    return [
        (make_workload("QFT", qft_n), CutConfig(device_size=qft_n - 2)),
        (qaoa, halved_ring_solution(qaoa)),
        (make_workload("ADD", adder_n), CutConfig(device_size=adder_n - 2)),
    ]


def _unique_requests(workload: Workload, cut) -> List:
    """Enumerate the reconstruction's variant batch and dedup it by fingerprint.

    ``cut`` is either a :class:`~repro.core.config.CutConfig` (the ILP finds a
    solution) or a prebuilt :class:`~repro.cutting.CutSolution`.
    """
    if isinstance(cut, CutConfig):
        plan = cut_circuit(workload.circuit, cut)
        reconstructor = CutReconstructor(
            plan.solution, specs=plan.subcircuits, engine=ParallelEngine(ExactExecutor())
        )
    else:
        reconstructor = CutReconstructor(cut, engine=ParallelEngine(ExactExecutor()))
    if workload.kind == WorkloadKind.EXPECTATION:
        batch = reconstructor.enumerate_expectation_requests(workload.observable)
    else:
        batch = reconstructor.enumerate_probability_requests()
    unique: Dict[str, object] = {}
    for variant in batch:
        unique.setdefault(request_key(variant), variant)
    return list(unique.values())


def _comparable(table) -> Dict[str, Tuple]:
    return {
        key: (
            result.value,
            None if result.distribution is None else result.distribution.tobytes(),
        )
        for key, result in table.items()
    }


def _batched_executor_with_cap(variants, cap: int) -> BatchedExactExecutor:
    """A batched executor whose memory budget yields sub-batches of ``cap`` variants."""
    per_variant = max(
        v.table.program(int(v.table.row_class[v.row])).row_elements for v in variants
    )
    return BatchedExactExecutor(max_batch_elements=cap * per_variant)


@contextmanager
def _evolved_rows() -> Iterator[List[int]]:
    """Count the rows every batched pass evolves while the block runs."""
    counter = [0]
    evolve = batched._evolve

    def counting(program, choices, prune_threshold):
        counter[0] += choices.shape[0]
        return evolve(program, choices, prune_threshold)

    batched._evolve = counting
    try:
        yield counter
    finally:
        batched._evolve = evolve


def _timed_run(make_executor, variants, repeats: int) -> Tuple[float, Dict[str, Tuple]]:
    """Best-of-``repeats`` wall clock for one executor over ``variants``.

    Each repeat uses a fresh executor (cold cache) so every run does the same
    work; the minimum is the standard noise-robust estimator for CI boxes.
    """
    best = float("inf")
    table = None
    for _ in range(repeats):
        executor = make_executor()
        start = time.perf_counter()
        table = executor.run_batch(variants)
        best = min(best, time.perf_counter() - start)
    return best, _comparable(table)


def generate_batched_rows(smoke: bool = False, repeats: int = 3) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload, cut in _workloads(smoke):
        variants = _unique_requests(workload, cut)
        scalar_seconds, reference = _timed_run(ExactExecutor, variants, repeats)
        for cap in BATCH_CAPS:
            seconds, comparable = _timed_run(
                lambda: _batched_executor_with_cap(variants, cap), variants, repeats
            )
            with _evolved_rows() as evolved:
                _batched_executor_with_cap(variants, cap).run_batch(variants)
            rows.append(
                {
                    "workload": workload.name,
                    "mode": workload.kind,
                    "unique_variants": len(variants),
                    "evolved_rows": evolved[0],
                    "batch_cap": cap,
                    "scalar_s": round(scalar_seconds, 4),
                    "batched_s": round(seconds, 4),
                    "speedup": round(scalar_seconds / seconds, 2) if seconds > 0 else 0.0,
                    "variants_per_s": round(len(variants) / seconds, 1)
                    if seconds > 0
                    else 0.0,
                    "identical": comparable == reference,
                }
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_smoke_argument(
        parser,
        "small sizes + hard assertions (bit-identity on every row, >= 5x "
        "batched-vs-scalar throughput at batch caps >= 16)",
    )
    args = parser.parse_args(argv)
    rows = generate_batched_rows(smoke=args.smoke)
    publish(
        "batched",
        "Batched vs scalar variant simulation (speedup per batch-size cap)",
        rows,
    )
    if args.smoke:
        failures = [row for row in rows if not row["identical"]]
        assert not failures, f"batched results diverged from scalar: {failures}"
        for workload in {row["workload"] for row in rows}:
            candidates = [
                row
                for row in rows
                if row["workload"] == workload and row["batch_cap"] >= 16
            ]
            best = max(row["speedup"] for row in candidates)
            assert best >= 5.0, (
                f"{workload}: expected >= 5x batched-vs-scalar throughput at "
                f"batch >= 16, got {best}x"
            )
        qft = [row for row in rows if row["workload"] == "quantum_fourier_transform"]
        assert qft and all(row["evolved_rows"] < row["unique_variants"] for row in qft), (
            f"QFT: expected the I/Z twins to evolve once, got {qft}"
        )
        smoke_passed("bit-identical, >= 5x at batch >= 16, QFT twins evolved once")


if __name__ == "__main__":
    main()
