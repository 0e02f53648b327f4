"""Row identity: every variant-table row agrees with the circuit it stands for.

Enumeration, hashing, simulation and pool transport read variant-table rows,
never circuits; a row's :class:`~repro.circuits.Circuit` is materialised only
on demand.  For every row of every table of a spread of cuts, these tests pin:

* its fingerprint equals :func:`~repro.engine.requests.variant_fingerprint`
  over the materialised circuit, and so does every entry of its table's
  :attr:`~repro.cutting.VariantTable.fingerprints`, which hashes all rows at
  once (checked for every table that every instance of each perf workload's
  first seed-0 round, the golden workloads and the random cuts build);
* the row-native :class:`~repro.cutting.BatchedExactExecutor` result equals
  the scalar ``ExactExecutor`` of ``tests/reference_executors.py`` on that
  circuit, byte for byte;
* :class:`~repro.cutting.SamplingExecutor` at a fixed seed gives the bytes the
  per-circuit pipeline gave before tables existed, pinned as a digest.

A bare circuit wrapped by :meth:`~repro.cutting.VariantTable.of_circuit` is
pinned the same way, against the digests of the circuit-backed variant handle
that the one-row tables replaced.

Cases: the solutions of ``test_variant_tables.py``, the two workloads of
``golden_evaluations.json``, the first seed-0 instance of each perf workload
(``benchmarks/perf/workloads.py``) and hypothesis draws of small cuts.  On the
two large perf cases (prob-wire: 8,192 rows, dd-wide: 544) the scalar
simulator would need ~50 s for every row, so its comparison runs on a seeded
sample in which every slot takes each of its choices; fingerprints and
sampling still cover every row.  A pool chunk's transport is pinned here too,
and so are the engine's request counts on the perf instances: a batch holds
distinct rows with read counts, and ``requests`` still counts the reads.
"""

from __future__ import annotations

import hashlib
import pickle
import pickletools
import sys
import warnings
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.core import CutConfig, cut_circuit
from repro.cutting import (
    BatchedExactExecutor,
    CutReconstructor,
    VariantSettings,
    VariantTable,
)
from repro.cutting.sampling import SamplingExecutor
from repro.engine import EngineConfig, ParallelEngine, RequestBatch, request_key
from repro.engine.requests import variant_fingerprint
from repro.exceptions import CuttingError
from repro.utils.pauli import PauliObservable, PauliString
from repro.workloads import WorkloadKind, make_workload

from reference_executors import ExactExecutor
from strategies import (
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    assert_tables_bit_identical,
    random_angle_chain_solution,
    small_workload,
    two_cut_probability_solutions,
)
from test_variant_tables import EXPECTATION, PROBABILITY

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "perf"))
import workloads as perf_workloads  # noqa: E402

#: Shots and base seed of the sampling digests.
SHOTS = 1000
SEED = 7

#: The golden fixture's cut (tests/test_streaming.py's SMALL_CONFIG).
GOLDEN_CONFIG = CutConfig(device_size=3, max_subcircuits=2)


def _reconstructed(solution, specs=None, observable=None) -> RequestBatch:
    reconstructor = CutReconstructor(solution, specs=specs)
    if observable is None:
        return reconstructor.enumerate_probability_requests()
    return reconstructor.enumerate_expectation_requests(observable)


def _workload_batch(workload, config, force_greedy=False) -> RequestBatch:
    plan = cut_circuit(workload.circuit, config, force_greedy=force_greedy)
    observable = workload.observable if workload.kind == WorkloadKind.EXPECTATION else None
    return _reconstructed(plan.solution, plan.subcircuits, observable)


def _perf_batch(name: str) -> RequestBatch:
    instance = perf_workloads.WORKLOADS[name].pool(0)[0][0]
    return _workload_batch(instance.workload, instance.cut_config, instance.force_greedy)


def _cases() -> Dict[str, Callable[[], RequestBatch]]:
    cases: Dict[str, Callable[[], RequestBatch]] = {}
    for name, solution in PROBABILITY:
        cases[f"tables-probability-{name}"] = lambda s=solution: _reconstructed(s)
    for name, solution, observable in EXPECTATION:
        cases[f"tables-expectation-{name}"] = lambda s=solution, o=observable: _reconstructed(
            s, observable=o
        )
    cases["golden-vqe5"] = lambda: _workload_batch(small_workload(), GOLDEN_CONFIG)
    cases["golden-qft5"] = lambda: _workload_batch(make_workload("QFT", 5), GOLDEN_CONFIG)
    for name in perf_workloads.WORKLOADS:
        cases[f"perf-{name}"] = lambda n=name: _perf_batch(n)
    return cases


CASES = _cases()

#: Cases too large to run every row through the scalar simulator (~50 s).
SAMPLED_CASES = ("perf-prob-wire", "perf-dd-wide")

#: Recorded with the per-circuit pipeline (each variant a built Circuit,
#: hashed op by op and run by the sampling executor) at its last commit.  The
#: digests hash integer shot counts over the shot total, so they do not depend
#: on the last bits of the exact branch probabilities.
SAMPLING_DIGESTS = {
    "golden-qft5": "aead460b43f00cb30b21374c02d33175fc4aaa706522b092e41a8c934276349a",
    "golden-vqe5": "2ef7f440dbd29b2fef865e471711cd3f496c0a84197d0557d20c367ccc9bad2d",
    "perf-dd-wide": "dd1ea141e1031ff6c66604da8fcb3cc8e1dd8a2023df6d2313749ee83077f4ca",
    "perf-expect-gate": "bb7ab026be6fcf0705f92fee71998604616265682ec4842148c4a8023e08088a",
    "perf-prob-wire": "112cc8ea148b5177b81f62dc6a123954be1d496d0d7eee877fa2daac734fc195",
    "perf-qaoa-sweep": "4c977b45fdb78fb609e7ee948de0731ca8eef386519bbe8ebdfd08cb943a093e",
    "tables-expectation-interleaved": (
        "736ec0a7bdbad5846ebcc787190e174d4830f59dc7415b60346a216a6c88bc08"
    ),
    "tables-expectation-mixed": (
        "217668c404384869b86a73e711a8e36306f43505fdb90922818b28ea63060de3"
    ),
    "tables-expectation-three-init": (
        "06a2af3f38dd7a668e22a09a38aef3f5a2d917befffec29c719186998085957b"
    ),
    "tables-expectation-zero-instances": (
        "eb1167119f58e96da534792caa099f60d4db63220bf67adb96d1b04b78e1ba47"
    ),
    "tables-probability-chain": (
        "0081227f6edc0db8b11166d38884412a92b433c0ba1c1358545309e199cf675c"
    ),
    "tables-probability-qft-5": (
        "aead460b43f00cb30b21374c02d33175fc4aaa706522b092e41a8c934276349a"
    ),
    "tables-probability-three-init": (
        "d8f0a12fd85a64ace5bf42dbeff6f08fbe98665bba26ce250028b8d0bd01af77"
    ),
}

_BATCHES: Dict[str, List] = {}


def _unique_rows(name: str) -> List:
    if name not in _BATCHES:
        batch = CASES[name]()
        _BATCHES[name] = list({request_key(variant): variant for variant in batch}.values())
    return _BATCHES[name]


def result_digest(results) -> str:
    """sha256 over a result table's fingerprints, values and distribution bytes."""
    hasher = hashlib.sha256()
    for key in sorted(results):
        result = results[key]
        hasher.update(key.encode("ascii"))
        hasher.update(np.float64(np.nan if result.value is None else result.value).tobytes())
        if result.distribution is not None:
            hasher.update(result.distribution.tobytes())
    return hasher.hexdigest()


def sampling_digest(rows) -> str:
    return result_digest(SamplingExecutor(shots=SHOTS, seed=SEED).run_batch(rows))


def _assert_table_fingerprints(tables) -> None:
    """Each table's fingerprints, hashed at once, against its rows' circuits."""
    for table in tables:
        assert table.fingerprints == [variant_fingerprint(row) for row in table.variants]


def _batch_tables(batch):
    """Every table the batch reads a row of, in first-read order."""
    return list({id(row.table): row.table for row in batch.variants}.values())


def _assert_rows_identical(batch) -> None:
    """Fingerprints of every table read and exact results of every row
    against the row's circuit."""
    _assert_table_fingerprints(_batch_tables(batch))
    rows = list({request_key(v): v for v in batch.variants}.values())
    assert_tables_bit_identical(
        ExactExecutor().run_batch(rows), BatchedExactExecutor().run_batch(rows)
    )


# --------------------------------------------------------------------------- fixed cases
def _table_cases() -> Dict[str, Callable[[], RequestBatch]]:
    """Every instance of each perf workload's first seed-0 round and the golden workloads."""
    cases: Dict[str, Callable[[], RequestBatch]] = {
        "golden-vqe5": lambda: _workload_batch(small_workload(), GOLDEN_CONFIG),
        "golden-qft5": lambda: _workload_batch(make_workload("QFT", 5), GOLDEN_CONFIG),
    }
    for name, spec in perf_workloads.WORKLOADS.items():
        for i in spec.pool(0)[0]:
            cases[f"perf-{name}-{i.workload.name}"] = lambda i=i: _workload_batch(
                i.workload, i.cut_config, i.force_greedy
            )
    return cases


TABLE_CASES = _table_cases()


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_table_fingerprints_match_materialised_circuits(name):
    """Every table the enumeration reads hashes each row as its circuit does."""
    tables = _batch_tables(TABLE_CASES[name]())
    assert tables
    _assert_table_fingerprints(tables)


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_fingerprints_match_materialised_circuits(name):
    rows = _unique_rows(name)
    assert rows
    for row in rows:
        assert row.table is not None and row.table.variants[row.row] is row
        assert row.fingerprint == variant_fingerprint(row)


def _covering_sample(rows, extra: int = 32) -> List:
    """A seeded sample of rows in which every slot of every table takes every
    choice any of its rows takes."""
    order = np.random.default_rng(0).permutation(len(rows)).tolist()
    picked, seen = set(order[:extra]), set()
    for index in order:
        row = rows[index]
        for slot, choice in enumerate(row.table.choices[row.row].tolist()):
            if (id(row.table), slot, choice) not in seen:
                seen.add((id(row.table), slot, choice))
                picked.add(index)
    return [rows[index] for index in sorted(picked)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_native_results_equal_the_scalar_circuit_results(name):
    rows = _unique_rows(name)
    batched = BatchedExactExecutor().run_batch(rows)
    if name in SAMPLED_CASES:
        rows = _covering_sample(rows)
        batched = {request_key(row): batched[request_key(row)] for row in rows}
    assert_tables_bit_identical(ExactExecutor().run_batch(rows), batched)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sampling_bytes_match_the_recorded_digest(name):
    assert sampling_digest(_unique_rows(name)) == SAMPLING_DIGESTS[name]


# --------------------------------------------------------------------------- random cuts
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(solution=two_cut_probability_solutions())
def test_random_probability_cut_rows(solution):
    _assert_rows_identical(_reconstructed(solution))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    block=st.integers(min_value=1, max_value=2),
    labels=st.lists(st.sampled_from("XYZ"), min_size=2, max_size=2),
)
def test_random_expectation_cut_rows(seed, block, labels):
    solution = random_angle_chain_solution(4, block, np.random.default_rng(seed))
    observable = PauliObservable.from_terms(
        [PauliString.from_dict({0: labels[0], 3: labels[1]}, 1.0), PauliString.from_dict({}, 0.5)]
    )
    _assert_rows_identical(_reconstructed(solution, observable=observable))


# --------------------------------------------------------------------------- request counts
#: ``(requests, unique executions)`` of one evaluation of each instance of a
#: perf workload's first seed-0 round, as counted before batches were
#: row-keyed: ``requests`` counts contraction reads, and ``benchmarks/
#: baseline.json`` gates their ratio (``engine.dedup_ratio``).
PERF_REQUESTS = {
    ("prob-wire", "qft_ladder_7"): (410_240, 8_192),
    ("expect-gate", "vqe_8"): (168, 96),
    ("expect-gate", "reg_8"): (11_256, 960),
    ("expect-gate", "bar_8"): (12_192, 960),
    ("expect-gate", "vqe_10"): (210, 120),
    ("qaoa-sweep", "ring_8"): (4_608, 2_592),
    ("dd-wide", "peaked_chain_24"): (3_280, 544),
}


@pytest.mark.parametrize("name, workload", sorted(PERF_REQUESTS))
def test_perf_instances_keep_their_request_counts(name, workload):
    (instance,) = [
        i for i in perf_workloads.WORKLOADS[name].pool(0)[0] if i.workload.name == workload
    ]
    batch = _workload_batch(instance.workload, instance.cut_config, instance.force_greedy)
    assert len(batch) == int(batch.reads.sum()) == len(list(batch))
    assert len({request_key(v) for v in batch.variants}) == len(batch.variants)
    stats = instance.evaluate().engine_stats
    assert (stats.requests, stats.unique_executions) == PERF_REQUESTS[(name, workload)]


# --------------------------------------------------------------------------- transport
def _globals(payload: bytes) -> List[str]:
    """Every class or function a pickle references."""
    names: List[str] = []
    strings: List[str] = []
    for opcode, argument, _ in pickletools.genops(payload):
        if opcode.name in ("SHORT_BINUNICODE", "BINUNICODE", "UNICODE"):
            strings.append(argument)
        elif opcode.name == "STACK_GLOBAL":
            names.append(".".join(strings[-2:]))
        elif opcode.name == "GLOBAL":
            names.append(argument.replace(" ", "."))
    return names


def test_pool_chunk_ships_its_table_once_and_no_circuit():
    rows = _unique_rows("perf-dd-wide")
    pending = [(request_key(row), row, None) for row in rows]
    engine = ParallelEngine(BatchedExactExecutor(), EngineConfig(max_workers=2))
    chunk = engine._chunked(engine._grouped(pending))[0]
    payload = pickle.dumps(chunk)
    assert not any(name.endswith(".Circuit") for name in _globals(payload))
    clone = pickle.loads(payload)
    assert [key for key, _, _ in clone] == [key for key, _, _ in chunk]
    assert [variant.fingerprint for _, variant, _ in clone] == [key for key, _, _ in chunk]
    assert len({id(variant.table) for _, variant, _ in clone}) == len(
        {id(variant.table) for _, variant, _ in chunk}
    )
    expected = dict(BatchedExactExecutor().run_many(chunk))
    assert_tables_bit_identical(expected, dict(BatchedExactExecutor().run_many(clone)))

    table = max({id(row.table): row.table for row in rows}.values(), key=len)
    requests = [(row.fingerprint, row, None) for row in table.variants]
    small, large = len(pickle.dumps(requests[:8])), len(pickle.dumps(requests[:40]))
    per_row = (large - small) / 32
    assert per_row < len(pickle.dumps(table.variants[0].circuit)) / 4


# --------------------------------------------------------------------------- bare circuits
def _bare_circuits() -> List:
    """Seeded ``(circuit, mode, output order)`` cases on 1-3 qubits, with
    mid-circuit (signed and unsigned) measurements and resets."""
    rng = np.random.default_rng(23)
    cases = []
    for index in range(16):
        num_qubits = 1 + index % 3
        circuit = Circuit(num_qubits)
        for _ in range(10):
            kind = int(rng.integers(6))
            qubit = int(rng.integers(num_qubits))
            if kind < 3:
                name, params = ONE_QUBIT_GATES[int(rng.integers(len(ONE_QUBIT_GATES)))]
                circuit.add(name, [qubit], params)
            elif kind == 3 and num_qubits > 1:
                name, params = TWO_QUBIT_GATES[int(rng.integers(len(TWO_QUBIT_GATES)))]
                other = (qubit + 1 + int(rng.integers(num_qubits - 1))) % num_qubits
                circuit.add(name, [qubit, other], params)
            elif kind == 4:
                circuit.measure(qubit, tag=(None, "cut:a", "signed:cut:a")[int(rng.integers(3))])
            else:
                circuit.reset(qubit, tag="reuse:0")
        if index % 2:
            for qubit in range(num_qubits):
                circuit.measure(qubit, tag=f"out:{qubit}")
            cases.append((circuit, "probability", tuple(range(num_qubits))[::-1]))
        else:
            circuit.measure(0, tag="signed:out:0")
            cases.append((circuit, "expectation", ()))
    return cases


def _bare_rows() -> List:
    return [VariantTable.of_circuit(*case).variants[0] for case in _bare_circuits()]


#: Recorded with the circuit-backed variant handle (``SubcircuitVariant`` built
#: around each circuit, subcircuit 0, empty settings) at its last commit.
BARE_DIGESTS = {
    "fingerprints": "35f90e8d2adec767c3788bc2a84b5ebef936f371dec0bf0413c6aeee8f1b6d73",
    "exact": "b26e5e2dff1dabb6fd3cfed7c4f51a46f87a4ead76e74d8a942771a1679bdc07",
    "batched": "b26e5e2dff1dabb6fd3cfed7c4f51a46f87a4ead76e74d8a942771a1679bdc07",
    "sampling": "a2b728a96e140abc2dbfefca8a7a83e13405785ceb3b033a9353504612b161fc",
}


def test_bare_circuit_rows_reproduce_the_circuit_backed_variants():
    rows = _bare_rows()
    fingerprints = "".join(row.fingerprint for row in rows).encode("ascii")
    assert {
        "fingerprints": hashlib.sha256(fingerprints).hexdigest(),
        "exact": result_digest(ExactExecutor().run_batch(rows)),
        "batched": result_digest(BatchedExactExecutor().run_batch(rows)),
        "sampling": sampling_digest(rows),
    } == BARE_DIGESTS
    for row, (circuit, _, _) in zip(rows, _bare_circuits()):
        assert row.circuit == circuit
        assert row.fingerprint == variant_fingerprint(row)
        assert row.settings == VariantSettings()


def test_probability_circuit_without_output_tag_is_rejected_when_wrapped():
    circuit = Circuit(2)
    circuit.h(0).cx(0, 1).measure(0, tag="out:0").measure(1, tag="cut:a")
    with pytest.raises(CuttingError, match="did not record an outcome for original qubit 1"):
        VariantTable.of_circuit(circuit, "probability", (0, 1))
    assert VariantTable.of_circuit(circuit, "probability", (0,)).variants[0].mode == "probability"
    assert len(VariantTable.of_circuit(circuit, "expectation", (0, 1))) == 1
    with pytest.raises(CuttingError, match="unknown variant mode"):
        VariantTable.of_circuit(circuit, "density")


def test_bare_circuit_rows_round_trip_through_a_worker_pool():
    rows = _bare_rows()
    for row in rows:
        clone = pickle.loads(pickle.dumps(row))
        assert (clone.row, len(clone.table)) == (0, 1)
        assert clone.fingerprint == row.fingerprint
    serial = BatchedExactExecutor().run_batch(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a serial fallback fails
        with ParallelEngine(
            BatchedExactExecutor(), EngineConfig(max_workers=2, chunk_size=3)
        ) as engine:
            pooled = engine.run_batch(rows)
    assert_tables_bit_identical(serial, pooled)
