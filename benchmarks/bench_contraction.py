"""Planned + sharded contraction vs the naive reconstruction walk.

Phase three of every QRCC evaluation — contracting the ``4^(wire cuts)``
variant results table into the output distribution — dominates the wall clock
once the cut count grows (Table 1's deeper QFT/ADD rows).  This harness times
that stage in isolation: one variant table is executed per workload, then
reconstructed repeatedly under

* the naive walk — the reference scalar walk of
  ``tests/reference_contraction.py`` (itself vectorized);
* the planned contraction serially — the cost-modelled fused kernels of
  :mod:`repro.cutting.contraction` on one shard;
* the planned contraction sharded across ``--jobs`` workers.

Workloads are deterministic ripple-carry-style chains — the linear
entanglement structure the ILP finds for Table 1's ADD family — cut into
two-qubit blocks, so the cut count (and the ``4^k`` contraction) scales with
width without any solver in the measurement loop (the same reasoning as
:func:`bench_engine.halved_ring_solution`).  Each workload is also contracted
from a *pruned* table (a deterministic subset of the variant keys with
``missing="skip"``), the truncated-contraction regime of
:mod:`repro.engine.pruning`.

Two hard claims are checked on every row and enforced under ``--smoke`` (CI):

* planned and sharded results are **bit-identical** to the naive serial walk,
  byte for byte, on full and pruned tables;
* the contraction stage clears **>= 3x** over naive at 4 workers — asserted
  only when the machine has >= 4 real cores (the standard gate for
  parallel-speedup claims, cf. ``bench_engine``).

Run directly (``python benchmarks/bench_contraction.py [--smoke]``); results
are archived as ``benchmarks/results/contraction.json`` for the CI regression
gate.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import Circuit
from repro.cutting import CutReconstructor, CutSolution, WireCut
from repro.engine import EngineConfig, ParallelEngine

from harness import add_smoke_argument, publish, smoke_passed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_contraction import naive_probabilities  # noqa: E402

#: Chain widths benchmarked (qubits); each yields ``width/2 - 1`` wire cuts.
SIZES = (12, 14)
SMOKE_SIZES = (12, 14)


def chain_solution(num_qubits: int, block: int = 2) -> CutSolution:
    """A linear-entanglement chain cut into ``block``-qubit subcircuits.

    The circuit is a single-qubit prep layer followed by a CX/RZ ladder —
    the ripple-carry ADD skeleton — and the solution cuts the wire crossing
    each block boundary, giving ``ceil(n/block) - 1`` wire cuts whose
    contraction is ``4^cuts`` assignments over a ``2^n``-wide output.
    """
    circuit = Circuit(num_qubits)
    op_subcircuit: Dict[int, int] = {}
    wire_cuts: List[WireCut] = []
    op = 0
    for qubit in range(num_qubits):
        if qubit % 2 == 0:
            circuit.h(qubit)
        else:
            circuit.ry(0.3 + 0.05 * qubit, qubit)
        op_subcircuit[op] = qubit // block
        op += 1
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
        if (qubit + 1) % block == 0:
            # The ladder crosses a block boundary: cut the carry wire and run
            # the crossing CX in the downstream subcircuit.
            wire_cuts.append(WireCut(qubit=qubit, downstream_op=op))
            op_subcircuit[op] = (qubit + 1) // block
        else:
            op_subcircuit[op] = qubit // block
        op += 1
        circuit.rz(0.1 + 0.07 * qubit, qubit + 1)
        op_subcircuit[op] = (qubit + 1) // block
        op += 1
    return CutSolution(
        circuit=circuit, op_subcircuit=op_subcircuit, wire_cuts=wire_cuts
    )


def _timed(fn: Callable[[], np.ndarray], repeats: int) -> Tuple[float, np.ndarray]:
    """Best-of-``repeats`` wall clock — the standard noise-robust estimator."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _pruned(table: Dict) -> Dict:
    """A deterministic 2/3 subset of the variant table (truncated contraction)."""
    keys = sorted(table)
    return {key: table[key] for index, key in enumerate(keys) if index % 3 != 2}


def generate_contraction_rows(
    smoke: bool = False, jobs: int = 4, repeats: int = 3
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for num_qubits in SMOKE_SIZES if smoke else SIZES:
        solution = chain_solution(num_qubits)
        serial = CutReconstructor(
            solution, engine=ParallelEngine(config=EngineConfig(max_workers=1))
        )
        full_table = serial.engine.run_batch(serial.enumerate_probability_requests())
        with ParallelEngine(config=EngineConfig(max_workers=jobs)) as engine:
            sharded = CutReconstructor(solution, engine=engine)
            for pruned in (False, True):
                table = _pruned(full_table) if pruned else full_table
                missing = "skip" if pruned else "execute"
                naive_s, naive = _timed(
                    lambda: naive_probabilities(serial, table, missing),
                    repeats,
                )
                serial_s, planned = _timed(
                    lambda: serial.reconstruct_probabilities(table=table, missing=missing),
                    repeats,
                )
                sharded_s, parallel = _timed(
                    lambda: sharded.reconstruct_probabilities(table=table, missing=missing),
                    repeats,
                )
                report = sharded.last_contraction_report
                identical = (
                    naive.tobytes() == planned.tobytes() == parallel.tobytes()
                )
                rows.append(
                    {
                        "workload": f"CHAIN-{num_qubits}",
                        "cuts": len(solution.wire_cuts),
                        "assignments": 4 ** len(solution.wire_cuts),
                        "pruned": pruned,
                        "variants": len(table),
                        "naive_s": round(naive_s, 4),
                        "planned_serial_s": round(serial_s, 4),
                        "planned_sharded_s": round(sharded_s, 4),
                        "shards": report.num_shards,
                        "utilization": round(report.shard_utilization, 3),
                        "speedup_serial": round(naive_s / serial_s, 2)
                        if serial_s > 0
                        else 0.0,
                        "speedup_sharded": round(naive_s / sharded_s, 2)
                        if sharded_s > 0
                        else 0.0,
                        "identical": identical,
                    }
                )
        serial.engine.close()
    return rows


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="workers for the sharded contraction measurement (default 4, "
        "matching the paper-reproduction claim)",
    )
    add_smoke_argument(
        parser,
        "small sizes + hard assertions (bit-identity on every row, >= 3x "
        "contraction speedup at 4 workers when >= 4 real cores)",
    )
    args = parser.parse_args(argv)
    rows = generate_contraction_rows(smoke=args.smoke, jobs=args.jobs)
    publish(
        "contraction",
        "Planned + sharded contraction vs naive reconstruction walk",
        rows,
    )
    if args.smoke:
        failures = [row for row in rows if not row["identical"]]
        assert not failures, f"planned contraction diverged from naive: {failures}"
        best_serial = max(row["speedup_serial"] for row in rows)
        assert best_serial >= 1.5, (
            f"expected the fused kernels to clear 1.5x over the naive walk "
            f"even serially, got {best_serial}x"
        )
        # The 4-worker claim needs 4 real cores (cf. bench_engine).
        if args.jobs >= 4 and (os.cpu_count() or 1) >= 4:
            best = max(row["speedup_sharded"] for row in rows)
            assert best >= 3.0, (
                f"expected >= 3x contraction speedup with {args.jobs} workers, "
                f"got {best}x"
            )
        smoke_passed(
            "bit-identical (full + pruned), "
            f"serial fused >= 1.5x ({os.cpu_count()} CPUs visible)"
        )


if __name__ == "__main__":
    main()
