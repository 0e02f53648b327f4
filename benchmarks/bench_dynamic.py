"""Dynamic-definition reconstruction: heavy bins of distributions too wide to hold.

A probability workload over ``n`` output qubits normally reconstructs a dense
``2**n`` vector — at 30 qubits that is an 8.6 GiB array no laptop reconstructs.
The dynamic-definition path (:mod:`repro.cutting.dynamic_definition`) never
materialises it: the contraction bins the distribution into at most
``2**qubit_limit`` elements per recursion level and recursively zooms into the
heaviest bins, reporting a sparse heavy-bin distribution with an a-priori
lower bound on the probability mass it covers.  This harness checks the three
claims that make that trustworthy:

* **identity** — when ``qubit_limit`` covers every output qubit the "binned"
  contraction degenerates to the planned full-vector contraction and must
  reproduce it *bit for bit* (same plan, same kernels, same merge order);
* **recovery** — on a mid-size circuit whose full distribution is still
  computable, every heavy bin the zoom resolves must match the full vector to
  float precision, and the reported covered mass must lower-bound the mass the
  resolved bins actually capture;
* **memory** — a 30-qubit cut workload (full vector: ``2**30`` doubles)
  reconstructs with a peak traced allocation bounded by a documented
  per-bin-per-level constant — ``O(2**qubit_limit * levels)``, three orders of
  magnitude under the dense vector — while still covering most of the mass.

Run directly (``PYTHONPATH=src python benchmarks/bench_dynamic.py --smoke``)
for the CI regression mode (hard assertions on every claim), or under
pytest-benchmark.  Results are archived as ``benchmarks/results/dynamic.json``
for the CI regression gate (``tools/check_bench_regression.py``).
"""

from __future__ import annotations

import argparse
import time
import tracemalloc
from typing import Dict, List, Optional, Sequence

import pytest

from repro.circuits import Circuit
from repro.cutting import (
    CutReconstructor,
    CutSolution,
    WireCut,
    plan_dynamic_definition,
    reconstruct_dynamic,
)
from repro.engine import EngineConfig, ParallelEngine

from bench_contraction import chain_solution
from harness import add_smoke_argument, publish, run_once, smoke_passed

#: Output qubits of the wide leg; the dense vector would be ``2**30`` doubles.
WIDE_QUBITS = 30
#: Subcircuit block size of the wide chain (5 wire cuts at 30 qubits).
WIDE_BLOCK = 5
#: Active qubits per recursion level on the wide leg.
WIDE_QUBIT_LIMIT = 10

#: Identity leg: full-width dynamic definition vs the planned contractor.
IDENTITY_QUBITS = 12
#: Recovery leg: wide enough to be interesting, small enough for a reference.
RECOVERY_QUBITS = 16
RECOVERY_BLOCK = 4
RECOVERY_QUBIT_LIMIT = 8

#: Peak traced bytes allowed per (bin x recursion level) on the wide leg.  The
#: measured footprint is ~700 B per bin-level (binned vectors, per-spec reduced
#: stacks, assignment index maps, one kernel chunk buffer); 2048 leaves slack
#: for allocator noise while staying ~3 orders of magnitude under the dense
#: ``8 * 2**n`` bytes the full vector would take.
MEMORY_BYTES_PER_BIN_LEVEL = 2048

#: Heavy bins resolved by an exact-table zoom must match the full vector to
#: float round-off (the binned path sums merged columns in a different order).
RECOVERY_ERROR_BOUND = 1e-9

#: Mass the wide-leg zoom must provably cover (measured ~0.87 on the peaked
#: chain below; the bound is a-priori, so regressions here mean the zoom order
#: or the coverage accounting broke).
WIDE_COVERAGE_FLOOR = 0.5


def peaked_chain_solution(num_qubits: int, block: int) -> CutSolution:
    """A cut chain whose distribution concentrates near ``|0...0>``.

    Same CX/RZ ladder and block-boundary cuts as
    :func:`bench_contraction.chain_solution`, but the prep layer uses small RY
    rotations instead of Hadamards, so the heavy-bin zoom has real mass to
    find — a uniform 30-qubit distribution has no heavy bins at all.
    """
    circuit = Circuit(num_qubits)
    op_subcircuit: Dict[int, int] = {}
    wire_cuts: List[WireCut] = []
    op = 0
    for qubit in range(num_qubits):
        circuit.ry(0.08 + 0.01 * qubit, qubit)
        op_subcircuit[op] = qubit // block
        op += 1
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
        if (qubit + 1) % block == 0:
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


def _identity_row() -> Dict[str, object]:
    """Full-width dynamic definition vs the planned contractor, byte for byte."""
    solution = chain_solution(IDENTITY_QUBITS)
    with ParallelEngine(config=EngineConfig(max_workers=1)) as engine:
        reconstructor = CutReconstructor(solution, engine=engine)
        table = engine.run_batch(reconstructor.enumerate_probability_requests())
        full = reconstructor.reconstruct_probabilities(table=table)
        plan = plan_dynamic_definition(
            solution, reconstructor.specs, qubit_limit=IDENTITY_QUBITS
        )
        result = reconstruct_dynamic(reconstructor, plan, table=table)
    dense = result.as_dense()
    return {
        "leg": "identity",
        "qubits": IDENTITY_QUBITS,
        "cuts": len(solution.wire_cuts),
        "qubit_limit": IDENTITY_QUBITS,
        "bins": len(result.bins),
        "bit_identical": dense.tobytes() == full.tobytes(),
    }


def _recovery_row() -> Dict[str, object]:
    """Zoomed heavy bins vs the still-computable full distribution."""
    solution = chain_solution(RECOVERY_QUBITS, block=RECOVERY_BLOCK)
    with ParallelEngine(config=EngineConfig(max_workers=1)) as engine:
        reconstructor = CutReconstructor(solution, engine=engine)
        table = engine.run_batch(reconstructor.enumerate_probability_requests())
        full = reconstructor.reconstruct_probabilities(table=table)
        plan = plan_dynamic_definition(
            solution, reconstructor.specs, qubit_limit=RECOVERY_QUBIT_LIMIT, zoom_fanout=8
        )
        result = reconstruct_dynamic(reconstructor, plan, table=table)
    max_error = max(
        abs(heavy.probability - float(full[heavy.index])) for heavy in result.bins
    )
    captured = float(sum(full[heavy.index] for heavy in result.bins))
    return {
        "leg": "recovery",
        "qubits": RECOVERY_QUBITS,
        "cuts": len(solution.wire_cuts),
        "qubit_limit": RECOVERY_QUBIT_LIMIT,
        "bins": len(result.bins),
        "max_heavy_bin_error": max_error,
        "covered_mass": round(result.covered_mass, 6),
        "captured_mass": round(captured, 6),
        "coverage_bound_holds": result.covered_mass <= captured + 1e-12,
    }


def _wide_row(num_qubits: int, qubit_limit: int) -> Dict[str, object]:
    """The headline leg: a distribution that could never fit in memory."""
    solution = peaked_chain_solution(num_qubits, WIDE_BLOCK)
    with ParallelEngine(config=EngineConfig(max_workers=1)) as engine:
        reconstructor = CutReconstructor(solution, engine=engine)
        table = engine.run_batch(reconstructor.enumerate_probability_requests())
        plan = plan_dynamic_definition(
            solution, reconstructor.specs, qubit_limit=qubit_limit
        )
        # Trace only the reconstruction: the variant table is execution-side
        # state (it scales with cuts, not with 2**n) and the point here is the
        # contraction's footprint.
        tracemalloc.start()
        start = time.perf_counter()
        result = reconstruct_dynamic(reconstructor, plan, table=table)
        reconstruct_seconds = time.perf_counter() - start
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    levels = plan.levels_to_resolve
    memory_ceiling = MEMORY_BYTES_PER_BIN_LEVEL * (2**qubit_limit) * levels
    full_vector_bytes = 8 * (2**num_qubits)
    return {
        "leg": "wide",
        "qubits": num_qubits,
        "cuts": len(solution.wire_cuts),
        "qubit_limit": qubit_limit,
        "levels": levels,
        "bins": len(result.bins),
        "contractions": result.num_contractions,
        "covered_mass": round(result.covered_mass, 6),
        "top_bin": result.bins[0].bitstring if result.bins else None,
        "peak_bytes": peak_bytes,
        "memory_ceiling_bytes": memory_ceiling,
        "full_vector_bytes": full_vector_bytes,
        "memory_vs_full": round(full_vector_bytes / max(1, peak_bytes), 1),
        "memory_bound_holds": peak_bytes <= memory_ceiling,
        "reconstruct_s": round(reconstruct_seconds, 3),
    }


def generate_dynamic_rows(
    num_qubits: int = WIDE_QUBITS, qubit_limit: int = WIDE_QUBIT_LIMIT
) -> List[Dict[str, object]]:
    return [_identity_row(), _recovery_row(), _wide_row(num_qubits, qubit_limit)]


def check_rows(rows: Sequence[Dict[str, object]]) -> None:
    """The --smoke / CI assertions over a generated table."""
    by_leg = {row["leg"]: row for row in rows}
    identity = by_leg["identity"]
    assert identity["bit_identical"], (
        "full-width dynamic definition diverged from the planned contractor "
        "(the qubit_limit=n case must reuse the same plan and kernels byte "
        "for byte)"
    )
    recovery = by_leg["recovery"]
    assert float(recovery["max_heavy_bin_error"]) <= RECOVERY_ERROR_BOUND, (
        f"zoom-resolved heavy bins diverged from the full distribution by "
        f"{recovery['max_heavy_bin_error']} (> {RECOVERY_ERROR_BOUND})"
    )
    assert recovery["coverage_bound_holds"], (
        f"reported covered mass {recovery['covered_mass']} exceeds the mass "
        f"the resolved bins actually capture ({recovery['captured_mass']}) — "
        f"the a-priori coverage bound is broken"
    )
    wide = by_leg["wide"]
    assert wide["memory_bound_holds"], (
        f"wide-leg peak memory {wide['peak_bytes']} B exceeds the "
        f"O(2**qubit_limit * levels) ceiling {wide['memory_ceiling_bytes']} B"
    )
    assert float(wide["covered_mass"]) >= WIDE_COVERAGE_FLOOR, (
        f"wide-leg covered mass {wide['covered_mass']} fell below "
        f"{WIDE_COVERAGE_FLOOR} — the zoom is no longer finding the heavy bins"
    )


def _publish(rows: Sequence[Dict[str, object]]) -> None:
    publish(
        "dynamic",
        "Dynamic-definition reconstruction: bit-identity, heavy-bin recovery, "
        "memory-bounded 30-qubit zoom",
        rows,
    )


@pytest.mark.benchmark(group="dynamic")
def test_dynamic_definition_claims(benchmark):
    rows = run_once(benchmark, generate_dynamic_rows)
    _publish(rows)
    check_rows(rows)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--qubits",
        type=int,
        default=WIDE_QUBITS,
        help=f"width of the wide leg's cut chain (default {WIDE_QUBITS})",
    )
    parser.add_argument(
        "--qubit-limit",
        type=int,
        default=WIDE_QUBIT_LIMIT,
        help=f"active qubits per recursion level (default {WIDE_QUBIT_LIMIT})",
    )
    add_smoke_argument(
        parser,
        "hard assertions: full-width bit-identity, heavy-bin recovery within "
        "float round-off, coverage bound holds, 30-qubit peak memory within "
        "the O(2**qubit_limit * levels) ceiling",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        num_qubits, qubit_limit = WIDE_QUBITS, WIDE_QUBIT_LIMIT
    else:
        num_qubits, qubit_limit = args.qubits, args.qubit_limit
    rows = generate_dynamic_rows(num_qubits=num_qubits, qubit_limit=qubit_limit)
    _publish(rows)
    if args.smoke:
        check_rows(rows)
        smoke_passed(
            "full-width bit-identical, heavy bins exact, coverage bound holds, "
            f"{num_qubits}-qubit peak memory "
            f"{rows[-1]['memory_vs_full']}x under the dense vector"
        )


if __name__ == "__main__":
    main()
