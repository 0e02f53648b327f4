"""Engine throughput — batched variant execution, serial vs parallel.

This harness measures the hot path the execution engine was built for: the
``sum_S 4^(wire cuts on S) * 6^(gate cuts on S)`` subcircuit variant evaluations behind a
reconstruction.  A ring-graph QAOA MaxCut workload (16 qubits by default) is cut
into two equal halves by gate-cutting the two ring-crossing ``RZZ`` gates; the
reconstructor *enumerates* the full variant batch once (phase one of two-phase
reconstruction), and the batch is then replayed through fresh engines at
different worker counts.

Reported per engine configuration: unique variants executed (after dedup),
wall-clock seconds, variants/second, speedup over serial, and whether the result
table is numerically identical to the serial run — it must be, bit for bit, for
the scalar exact executor (``ExactExecutor``, the reference kept in
``tests/reference_executors.py``), the batched one, and the (deterministically
per-request seeded) noisy executor.

Run directly (``python benchmarks/bench_engine.py --jobs 4 [--qubits 16]``) or
under pytest-benchmark (``QRCC_BENCH_JOBS=4 pytest benchmarks/bench_engine.py``).
Note: real speedup requires real cores; on a single-CPU machine the parallel row
degenerates to ~1x (the identity checks still bite).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import pytest

from repro.cutting import (
    BatchedExactExecutor,
    CutReconstructor,
    CutSolution,
    GateCut,
    NoisyExecutor,
    WireCut,
    extract_subcircuits,
)
from repro.engine import EngineConfig, ParallelEngine
from repro.simulator import DeviceModel, NoiseModel
from repro.workloads import Workload, WorkloadKind
from repro.workloads.qaoa import maxcut_observable, qaoa_circuit

from harness import add_engine_arguments, bench_jobs, publish, run_once

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_executors import ExactExecutor  # noqa: E402

#: Default ring size; the acceptance workload is the 16-qubit QAOA ring.
DEFAULT_QUBITS = int(os.environ.get("QRCC_BENCH_ENGINE_QUBITS", "16"))


def ring_qaoa_workload(num_qubits: int = DEFAULT_QUBITS) -> Workload:
    """QAOA MaxCut on a ring of ``num_qubits`` nodes (one layer, seeded angles)."""
    graph = nx.cycle_graph(num_qubits)
    return Workload(
        name=f"ring-qaoa-{num_qubits}",
        acronym="REG",
        circuit=qaoa_circuit(graph, layers=1, seed=3),
        kind=WorkloadKind.EXPECTATION,
        observable=maxcut_observable(graph),
        params={"num_qubits": num_qubits, "graph": "ring"},
    )


def halved_ring_solution(workload: Workload) -> CutSolution:
    """Cut the ring workload into two halves with one wire cut and one gate cut.

    The two ``RZZ`` gates cross the boundary between the halves.  The
    ``(half-1, half)`` edge is wire-cut: qubit ``half-1`` is measured after its
    cost-layer work in subcircuit 0 and its tail (the crossing ``RZZ`` and its
    mixer) re-enters as an initialised wire of subcircuit 1.  The ``(0, n-1)``
    edge is gate-cut into its six Mitarai–Fujii instances.  This gives a
    deterministic wire+gate cut plan — no solver in the timing loop — exercising
    both variant families and the engine's cross-basis request dedup.
    """
    circuit = workload.circuit
    if circuit.num_qubits < 4:
        raise ValueError(
            "the halved-ring benchmark needs at least 4 qubits (two distinct "
            f"boundary-crossing RZZ gates), got {circuit.num_qubits}"
        )
    half = circuit.num_qubits // 2
    crossing = [
        op_index
        for op_index, op in enumerate(circuit.operations)
        if len({0 if qubit < half else 1 for qubit in op.qubits}) == 2
    ]
    wire_cut_op = next(i for i in crossing if half - 1 in circuit.operations[i].qubits)
    gate_cut_op = next(i for i in crossing if i != wire_cut_op)

    op_subcircuit: Dict[int, int] = {}
    for op_index, op in enumerate(circuit.operations):
        if op_index == gate_cut_op:
            continue
        if half - 1 in op.qubits and op_index >= wire_cut_op:
            op_subcircuit[op_index] = 1  # the cut qubit's tail lives downstream
        elif all(qubit < half for qubit in op.qubits):
            op_subcircuit[op_index] = 0
        else:
            op_subcircuit[op_index] = 1
    solution = CutSolution(
        circuit=circuit,
        op_subcircuit=op_subcircuit,
        wire_cuts=[WireCut(qubit=half - 1, downstream_op=wire_cut_op)],
        gate_cuts=[GateCut(gate_cut_op)],
        gate_cut_placement={
            gate_cut_op: tuple(
                0 if qubit < half else 1 for qubit in circuit.operations[gate_cut_op].qubits
            )
        },
    )
    solution.validate()
    return solution


def _timed_batch(
    executor, jobs: int, batch, chunk_size: Optional[int] = None
) -> Tuple[Dict[str, object], Dict[str, Tuple[Optional[float], object]]]:
    """Run ``batch`` through a fresh engine; return (metrics row, comparable table)."""
    config = EngineConfig(max_workers=jobs, chunk_size=chunk_size)
    with ParallelEngine(executor, config) as engine:
        start = time.perf_counter()
        table = engine.run_batch(batch)
        seconds = time.perf_counter() - start
        stats = engine.stats
    comparable = {
        key: (result.value, None if result.distribution is None else result.distribution.tobytes())
        for key, result in table.items()
    }
    row = {
        "jobs": jobs,
        "requests": stats.requests,
        "unique_variants": stats.unique_executions,
        "seconds": round(seconds, 3),
        "variants_per_s": round(stats.unique_executions / seconds, 1) if seconds > 0 else 0.0,
    }
    return row, comparable


def generate_engine_rows(
    num_qubits: int = DEFAULT_QUBITS,
    jobs: int = 4,
    chunk_size: Optional[int] = None,
) -> List[Dict[str, object]]:
    workload = ring_qaoa_workload(num_qubits)
    solution = halved_ring_solution(workload)
    reconstructor = CutReconstructor(solution)
    batch = reconstructor.enumerate_expectation_requests(workload.observable)

    device_qubits = max(spec.num_wires for spec in extract_subcircuits(solution))
    noisy_device = DeviceModel(
        device_qubits,
        tuple((i, i + 1) for i in range(device_qubits - 1)),
        NoiseModel(1e-2, 5e-4, 0.0),
        name="bench-device",
    )

    rows: List[Dict[str, object]] = []
    job_counts = sorted({1, max(1, jobs)})
    baselines: Dict[str, Dict] = {}
    scalar_serial_seconds: Optional[float] = None
    for executor_name, make_executor in (
        ("exact", lambda: ExactExecutor()),
        ("batched", lambda: BatchedExactExecutor()),
        ("noisy", lambda: NoisyExecutor(noisy_device, shots=4096, trajectories=3, seed=11)),
    ):
        serial_row = None
        for job_count in job_counts:
            row, comparable = _timed_batch(make_executor(), job_count, batch, chunk_size)
            if job_count == 1:
                serial_row = row
                baselines[executor_name] = comparable
                if executor_name == "exact":
                    scalar_serial_seconds = row["seconds"]
            row = dict(row)
            row["executor"] = executor_name
            row["speedup_vs_serial"] = (
                round(serial_row["seconds"] / row["seconds"], 2) if row["seconds"] > 0 else 0.0
            )
            row["identical_to_serial"] = comparable == baselines[executor_name]
            # The batched executor's bitwise contract: its table must equal the
            # scalar exact executor's, not just its own serial run.
            row["identical_to_exact"] = (
                comparable == baselines["exact"] if executor_name != "noisy" else "-"
            )
            row["speedup_vs_scalar"] = (
                round(scalar_serial_seconds / row["seconds"], 2)
                if executor_name != "noisy" and row["seconds"] > 0
                else "-"
            )
            rows.append(row)
    ordered = [
        {
            "executor": row["executor"],
            "jobs": row["jobs"],
            "requests": row["requests"],
            "unique_variants": row["unique_variants"],
            "seconds": row["seconds"],
            "variants_per_s": row["variants_per_s"],
            "speedup_vs_serial": row["speedup_vs_serial"],
            "speedup_vs_scalar": row["speedup_vs_scalar"],
            "identical_to_serial": row["identical_to_serial"],
            "identical_to_exact": row["identical_to_exact"],
        }
        for row in rows
    ]
    return ordered


@pytest.mark.benchmark(group="engine")
def test_engine_throughput(benchmark):
    jobs = bench_jobs([])  # env-driven under pytest
    rows = run_once(benchmark, generate_engine_rows, jobs=jobs)
    publish(
        "engine",
        f"Engine throughput: serial vs parallel variant evaluation "
        f"({os.cpu_count()} CPUs visible)",
        rows,
    )
    # Parallel batches must be numerically identical to serial ones, always.
    assert all(row["identical_to_serial"] for row in rows)
    # The vectorized executor must match the scalar one bit for bit — at every
    # worker count — and beat it on wall clock even single-threaded.
    batched_rows = [row for row in rows if row["executor"] == "batched"]
    assert all(row["identical_to_exact"] for row in batched_rows)
    fastest_batched = max(row["speedup_vs_scalar"] for row in batched_rows)
    assert fastest_batched >= 2.0, (
        f"expected the batched executor to clear 2x scalar throughput, got "
        f"{fastest_batched}x"
    )
    # Dedup must collapse the request stream (identity terms, shared settings).
    assert all(row["unique_variants"] < row["requests"] for row in rows)
    # Throughput scaling needs real cores; only assert when the machine has them.
    if jobs >= 4 and (os.cpu_count() or 1) >= 4:
        exact_rows = [row for row in rows if row["executor"] == "exact"]
        fastest = max(row["speedup_vs_serial"] for row in exact_rows)
        assert fastest >= 2.0, f"expected >= 2x speedup with {jobs} jobs, got {fastest}x"


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_engine_arguments(parser)
    parser.add_argument(
        "--qubits",
        type=int,
        default=DEFAULT_QUBITS,
        help=f"QAOA ring size (default {DEFAULT_QUBITS})",
    )
    args = parser.parse_args(argv)
    rows = generate_engine_rows(
        num_qubits=args.qubits, jobs=max(1, args.jobs), chunk_size=args.chunk_size
    )
    publish(
        "engine",
        f"Engine throughput: serial vs parallel variant evaluation "
        f"({os.cpu_count()} CPUs visible)",
        rows,
    )


if __name__ == "__main__":
    main()
