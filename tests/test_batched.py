"""Batched vectorized simulation: bitwise identity with the scalar path.

The batched backend's contract is strict: a ``(batch, 2**n)`` pass over the
rows of a variant table must produce results **bit-identical** to running every
variant alone through the scalar branching simulator.  These tests pin that
contract across hand-built circuits, property-based random variants
(hypothesis), real cut enumerations, the executor protocol
(dedup/caching/counters), which rows share a pass and the engine's
table-contiguous dispatch, plus the NumPy summation orders it rests on and the
branch rows the sampler draws from.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.circuits.gates import measure as measure_op
from repro.circuits.gates import operation as gate_op
from repro.core import cut_circuit, evaluate_workload
from repro.core.config import CutConfig
from repro.cutting import (
    BatchedExactExecutor,
    CutReconstructor,
    CutSolution,
    WireCut,
)
from repro.engine import EngineConfig, ParallelEngine, request_key
from repro.exceptions import CuttingError
from repro.simulator import BranchingSimulator, batched, simulate_variant_group
from repro.simulator.batched import compile_program, pass_batches, twin_choices
from repro.workloads import make_workload

from reference_executors import ExactExecutor, branch_output_index
from strategies import (
    assert_tables_bit_identical as _assert_tables_bit_identical,
    float_bits,
    make_variant as _variant,
    mixed_cut_solution,
    scalar_reference as _scalar_reference,
    two_cut_solution,
    variant_groups,
    wire_cut_tables,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "perf"))
import workloads as perf_workloads  # noqa: E402


# --------------------------------------------------------------------------- table rows
def _table_rows():
    """Every unique row of a wire-cut probability batch and a mixed-cut expectation batch."""
    _, wire_solution = two_cut_solution()
    _, mixed_solution, observable = mixed_cut_solution()
    rows = CutReconstructor(wire_solution).enumerate_probability_requests().variants
    rows += CutReconstructor(mixed_solution).enumerate_expectation_requests(observable).variants
    return list({request_key(variant): variant for variant in rows}.values())


def _twin_class(variant):
    table = getattr(variant, "table", None)
    return None if table is None else int(table.twin_class[variant.row])


def _gate_measures(variant):
    """Which gate-cut sides the materialised circuit measures."""
    return frozenset(
        op.tag for op in variant.circuit if op.is_measurement and op.tag.startswith("signed:gate:")
    )


# --------------------------------------------------------------------------- properties
class TestBitwiseIdentityProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(groups=st.lists(variant_groups(), min_size=1, max_size=3))
    def test_batched_executor_bit_identical_to_exact(self, groups):
        """Mixed groups, batch size 1 included: tables match the exact executor bitwise."""
        variants = [variant for group in groups for variant in group]
        scalar = ExactExecutor().run_batch(variants)
        batched = BatchedExactExecutor().run_batch(variants)
        _assert_tables_bit_identical(scalar, batched)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(group=variant_groups(), limit=st.integers(min_value=1, max_value=5))
    def test_ragged_sub_batches_bit_identical(self, group, limit):
        """A tiny memory budget forces sub-batch splits (ragged final batch)."""
        scalar = ExactExecutor().run_batch(group)
        dim = 2 ** group[0].circuit.num_qubits
        constrained = BatchedExactExecutor(max_batch_elements=limit * dim)
        _assert_tables_bit_identical(scalar, constrained.run_batch(group))

    def test_group_members_share_group_key(self):
        """Rows share a pass exactly when their table and gate-cut measures agree."""
        rows = _table_rows()
        assert len({id(row.table) for row in rows}) > 2
        assert len({_gate_measures(row) for row in rows}) > 1
        pass_of = {}
        for index, positions in enumerate(pass_batches(rows, 1 << 40)):
            for position in positions:
                pass_of[position] = index
        assert sorted(pass_of) == list(range(len(rows)))
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                same = a.table is b.table and _gate_measures(a) == _gate_measures(b)
                assert (pass_of[i] == pass_of[j]) == same

    def test_table_rows_bit_identical_to_scalar(self):
        rows = _table_rows()
        _assert_tables_bit_identical(
            ExactExecutor().run_batch(rows), BatchedExactExecutor().run_batch(rows)
        )

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(limit=st.integers(min_value=1, max_value=9))
    def test_ragged_table_sub_batches_bit_identical(self, limit):
        rows = _table_rows()
        per_row = max(2**row.table.skeleton.num_qubits * 2**12 for row in rows)
        constrained = BatchedExactExecutor(max_batch_elements=limit * per_row)
        _assert_tables_bit_identical(
            ExactExecutor().run_batch(rows), constrained.run_batch(rows)
        )


# --------------------------------------------------------------------------- group keys
class TestVariantGroupKey:
    """Which rows share a batched pass: the group key is (table, skeleton class).

    Rows share a pass exactly when their table and gate-cut measure flags
    agree; these pin that against the materialised circuits.
    """

    def test_single_qubit_gates_do_not_split_groups(self):
        """Init labels and measurement bases only change single-qubit slot gates."""
        _, solution = two_cut_solution()
        batch = CutReconstructor(solution).enumerate_probability_requests()
        for table in {id(v.table): v.table for v in batch}.values():
            assert set(table.row_class.tolist()) == {0}
            assert len(pass_batches(table.variants, 1 << 40)) == 1

    def test_measure_presence_splits_groups(self):
        _, solution, observable = mixed_cut_solution()
        batch = CutReconstructor(solution).enumerate_expectation_requests(observable)
        table = next(v.table for v in batch if v.settings.gate_instances)
        by_pass = [
            {_gate_measures(table.variants[p]) for p in positions}
            for positions in pass_batches(table.variants, 1 << 40)
        ]
        assert len(by_pass) == 2
        assert all(len(flags) == 1 for flags in by_pass)

    def test_two_qubit_parameters_split_groups(self):
        """Tables of circuits differing only in an rzz angle never share a pass."""
        rows = []
        for angle in (0.4, 0.5):
            circuit = Circuit(3)
            circuit.h(0).ry(0.3, 1).add("rzz", [0, 1], [angle])
            circuit.cx(1, 2)
            solution = CutSolution(
                circuit=circuit,
                op_subcircuit={0: 0, 1: 0, 2: 0, 3: 1},
                wire_cuts=[WireCut(qubit=1, downstream_op=3)],
            )
            rows += CutReconstructor(solution).enumerate_probability_requests().variants
        unique = list({request_key(v): v for v in rows}.values())
        for positions in pass_batches(unique, 1 << 40):
            assert len({id(unique[p].table) for p in positions}) == 1
        _assert_tables_bit_identical(
            ExactExecutor().run_batch(unique), BatchedExactExecutor().run_batch(unique)
        )


# --------------------------------------------------------------------------- direct runner
class TestSimulateVariantGroup:
    def test_empty_group(self):
        assert simulate_variant_group([]) == []

    def test_single_variant_matches_scalar(self):
        circuit = Circuit(2)
        circuit.h(0).cx(0, 1).measure(0, tag="signed:cut:a").ry(0.3, 1)
        variant = _variant(circuit)
        value, distribution = simulate_variant_group([variant])[0]
        expected_value, _ = _scalar_reference(variant)
        assert value == expected_value
        assert distribution is None

    def test_probability_mode_distribution_bit_identical(self):
        variants = []
        for label_gate in (None, "x", "h"):
            circuit = Circuit(2)
            if label_gate:
                circuit.add(label_gate, [0])
            circuit.cx(0, 1)
            circuit.measure(0, tag="out:0")
            circuit.measure(1, tag="out:1")
            variants.append(_variant(circuit, mode="probability", output=(0, 1)))
        results = simulate_variant_group(variants)
        for variant, (value, distribution) in zip(variants, results):
            expected_value, expected_distribution = _scalar_reference(variant)
            assert value == expected_value
            assert distribution.tobytes() == expected_distribution.tobytes()

    def test_remeasured_output_qubit_last_write_wins(self):
        """Scalar branches overwrite a re-measured outcome key; so must the batch."""
        circuit = Circuit(1)
        circuit.x(0)
        circuit.measure(0, tag="out:0")  # reads 1
        circuit.x(0)
        circuit.measure(0, tag="out:0")  # reads 0 — last write wins
        variant = _variant(circuit, mode="probability", output=(0,))
        value, distribution = simulate_variant_group([variant])[0]
        expected_value, expected_distribution = _scalar_reference(variant)
        assert value == expected_value
        assert distribution.tobytes() == expected_distribution.tobytes()

    def test_mismatched_structures_run_in_separate_passes(self):
        """Wrapped bare circuits and rows of several tables, interleaved."""
        a = Circuit(2)
        a.h(0).cx(0, 1).measure(0, tag="signed:cut:a")
        b = Circuit(2)
        b.ry(0.4, 1).cz(0, 1).measure(1, tag="cut:a")
        rows = _table_rows()
        mixed = [_variant(a), rows[0], _variant(b), rows[-1], rows[1]]
        results = simulate_variant_group(mixed)
        branch_rows = simulate_variant_group(mixed, rows=True)
        assert branch_rows.bounds[-1] == len(branch_rows.prob)
        for column, (variant, (value, distribution)) in enumerate(zip(mixed, results)):
            alone_value, alone_distribution = simulate_variant_group([variant])[0]
            assert float_bits(value) == float_bits(alone_value)
            if alone_distribution is None:
                assert distribution is None
            else:
                assert distribution.tobytes() == alone_distribution.tobytes()
            alone = simulate_variant_group([variant], rows=True)
            span = slice(branch_rows.bounds[column], branch_rows.bounds[column + 1])
            assert branch_rows.prob[span].tobytes() == alone.prob.tobytes()
            assert branch_rows.out_index[span].tolist() == alone.out_index.tolist()

    def test_all_branches_pruned_gives_zero_like_scalar(self):
        """Pruning every branch leaves no rows: value 0.0 and an all-zero vector."""
        circuit = Circuit(2)
        circuit.h(0).measure(0, tag="out:0").h(1).measure(1, tag="out:1")
        variant = _variant(circuit, mode="probability", output=(0, 1))
        scalar = BranchingSimulator(prune_threshold=0.6).run(circuit)
        assert scalar.branches == []
        value, distribution = simulate_variant_group([variant], prune_threshold=0.6)[0]
        assert float_bits(value) == float_bits(scalar.expectation_of_signs())
        assert distribution.tobytes() == np.zeros(4).tobytes()
        rows = simulate_variant_group([variant], prune_threshold=0.6, rows=True)
        assert len(rows.prob) == 0
        assert rows.bounds.tolist() == [0, 0]

    def test_reset_branches_match_scalar(self):
        circuit = Circuit(2)
        circuit.h(0).cx(0, 1).reset(0, tag="reuse:0").h(0).measure(0, tag="signed:out:9")
        variant = _variant(circuit)
        value, _ = simulate_variant_group([variant])[0]
        expected_value, _ = _scalar_reference(variant)
        assert value == expected_value


# --------------------------------------------------------------------------- pinned orders
def _split_squares(states, qubit):
    """The ``|amp|**2`` halves of a measurement split, built as ``_branch_rows`` does."""
    rows, dim = states.shape
    split = states.reshape(rows, dim // 2 ** (qubit + 1), 2, 2**qubit)
    half0 = np.ascontiguousarray(split[:, :, 0, :]).reshape(rows, dim // 2)
    half1 = np.ascontiguousarray(split[:, :, 1, :]).reshape(rows, dim // 2)
    return np.abs(half0) ** 2, np.abs(half1) ** 2


@st.composite
def split_blocks(draw):
    """Random ``(rows, 2 * length)`` state blocks and a qubit that splits them."""
    length = draw(st.integers(min_value=1, max_value=2**17))
    valuation = (length & -length).bit_length() - 1
    qubit = draw(st.integers(min_value=0, max_value=valuation))
    # Keep a block at or under 2**19 complex amplitudes (8 MiB).
    rows = min(draw(st.integers(min_value=0, max_value=4096)), 2**18 // length)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, 2 * length)) + 1j * rng.standard_normal(
        (rows, 2 * length)
    )
    return states, qubit


segments = st.lists(
    st.lists(
        st.one_of(
            st.floats(min_value=-1.0, max_value=1.0),
            st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e16, -1e16]),
        ),
        max_size=40,
    ),
    min_size=1,
    max_size=6,
)


class TestPinnedReductionOrders:
    """The NumPy order claims the batched kernel's bit-identity rests on.

    If a NumPy release breaks one of them these fail first, before any
    scalar-vs-batched comparison or the ``batched.bit_identical`` bench gate.
    """

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(block=split_blocks())
    def test_last_axis_reduce_equals_per_row_sum(self, block):
        states, qubit = block
        squared0, squared1 = _split_squares(states, qubit)
        assert squared0.flags.c_contiguous and squared0.dtype == np.float64
        mask = ((np.arange(states.shape[1]) >> qubit) & 1) == 0
        for squared, row_mask in ((squared0, mask), (squared1, ~mask)):
            reduced = np.add.reduce(squared, axis=1)
            # The scalar ``_project`` reduction of each row.
            per_row = np.array(
                [np.sum(np.abs(state[row_mask]) ** 2) for state in states], dtype=np.float64
            )
            assert reduced.tobytes() == per_row.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(parts=segments)
    def test_accumulate_equals_left_to_right_sum_per_segment(self, parts):
        """The batched value extraction, against the scalar ``+=`` loop from 0.0."""
        values = np.array([value for part in parts for value in part], dtype=np.float64)
        start = 0
        for part in parts:
            segment = values[start : start + len(part)]
            start += len(part)
            expected = 0.0
            for value in segment.tolist():
                expected += value
            got = 0.0 + float(np.add.accumulate(segment)[-1]) if len(part) else 0.0
            assert float_bits(got) == float_bits(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=60),
        width=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_add_at_equals_sequential_loop(self, weights, width, seed):
        """Repeated indices included: ``np.add.at`` applies updates in order."""
        indexes = np.random.default_rng(seed).integers(0, 2**width, size=len(weights))
        values = np.array(weights, dtype=np.float64)
        looped = np.zeros(2**width)
        for index, weight in zip(indexes.tolist(), values.tolist()):
            looped[index] += weight
        vectorised = np.zeros(2**width)
        np.add.at(vectorised, indexes, values)
        assert vectorised.tobytes() == looped.tobytes()


    @settings(max_examples=100, deadline=None)
    @given(
        parts=segments,
        width=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_one_add_at_extracts_every_segment(self, parts, width, seed):
        """The batched extraction: one ``np.add.at`` for all values and one for
        all distributions equal the per-segment extraction and the scalar loop."""
        values = np.array([value for part in parts for value in part], dtype=np.float64)
        owner = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
        indexes = np.random.default_rng(seed).integers(0, 2**width, size=len(values))
        totals = np.zeros(len(parts))
        np.add.at(totals, owner, values)
        flat = np.zeros(len(parts) * 2**width)
        np.add.at(flat, owner * 2**width + indexes, values)
        start = 0
        for column, part in enumerate(parts):
            span = slice(start, start + len(part))
            segment = values[span]
            start += len(part)
            accumulated = 0.0 + float(np.add.accumulate(segment)[-1]) if len(part) else 0.0
            looped = 0.0
            for value in segment.tolist():
                looped += value
            assert float_bits(totals[column]) == float_bits(accumulated) == float_bits(looped)
            alone = np.zeros(2**width)
            np.add.at(alone, indexes[span], segment)
            assert flat[column * 2**width : (column + 1) * 2**width].tobytes() == alone.tobytes()


# --------------------------------------------------------------------------- branch rows
def _with_outputs(variant):
    """The variant measured on every wire into ``out:`` tags (probability mode)."""
    circuit = variant.circuit.copy()
    for qubit in range(circuit.num_qubits):
        circuit.measure(qubit, tag=f"out:{qubit}")
    return _variant(circuit, mode="probability", output=range(circuit.num_qubits))


def _assert_rows_match_branches(variants, rows):
    for column, variant in enumerate(variants):
        span = slice(rows.bounds[column], rows.bounds[column + 1])
        branches = BranchingSimulator().run(variant.circuit).branches
        probabilities = np.array([branch.probability for branch in branches], dtype=np.float64)
        assert rows.prob[span].tobytes() == probabilities.tobytes()
        assert rows.sign[span].tolist() == [branch.sign for branch in branches]
        assert set(rows.variant_of[span].tolist()) <= {column}
        if variant.mode == "probability":
            expected = [branch_output_index(branch, variant) for branch in branches]
            assert rows.out_index[span].tolist() == expected


class TestBranchRows:
    """``rows=True`` returns the scalar branch list, row for row and byte for byte."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(group=variant_groups(), probability=st.booleans())
    def test_rows_equal_scalar_branches(self, group, probability):
        if probability:
            group = [_with_outputs(variant) for variant in group]
        rows = simulate_variant_group(group, rows=True)
        assert rows.bounds[-1] == len(rows.prob)
        _assert_rows_match_branches(group, rows)

    def test_reset_and_remeasured_outputs(self):
        """Reset branches, and a re-measured output where the last write wins."""
        variants = []
        for angle in (0.3, 1.2):
            circuit = Circuit(2)
            circuit.ry(angle, 0).cx(0, 1).measure(0, tag="out:0")
            circuit.reset(1, tag="reuse:0").h(1).measure(1, tag="signed:cut:a")
            circuit.ry(angle, 0).measure(0, tag="out:0").measure(1, tag="out:1")
            variants.append(_variant(circuit, mode="probability", output=(0, 1)))
        rows = simulate_variant_group(variants, rows=True)
        assert len(rows.prob) > 2 * len(variants)
        _assert_rows_match_branches(variants, rows)


# --------------------------------------------------------------------------- twin classes
def _twin_keys(variants):
    return [(id(variant.table), _twin_class(variant)) for variant in variants]


@pytest.fixture
def pass_rows(monkeypatch):
    """Rows each batched pass was asked for and rows it evolved, per pass."""
    counts = {"requested": [], "evolved": []}
    program_rows, evolve = batched._program_rows, batched._evolve

    def requested(program, choices, prune_threshold):
        counts["requested"].append(choices.shape[0])
        return program_rows(program, choices, prune_threshold)

    def evolved(program, choices, prune_threshold):
        counts["evolved"].append(choices.shape[0])
        return evolve(program, choices, prune_threshold)

    monkeypatch.setattr(batched, "_program_rows", requested)
    monkeypatch.setattr(batched, "_evolve", evolved)
    return counts


#: A measurement layer's choices: unsigned, signed after H, an ``out:``
#: record, no measurement, and the first choice's signed twin.
TWIN_TAGS = ("cut:a", "signed:cut:a", "out:0", None, "signed:cut:a")

#: Rows requested and evolved on the first seed-0 round of each perf workload,
#: run serially.  qaoa-sweep's rzz gate cuts add twins beyond I/Z: a side
#: whose instances run the same operations (top 3 and 4, bottom 5 and 6).
PERF_EVOLVED_ROWS = {
    "prob-wire": (8192, 4044),
    "expect-gate": (2136, 1850),
    "qaoa-sweep": (288, 215),
    "dd-wide": (544, 312),
}


class TestTwinClasses:
    """A pass evolves each twin class once and expands it, byte for byte."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tables=wire_cut_tables())
    def test_table_rows_equal_each_row_alone(self, tables):
        for table in tables:
            variants = table.variants
            rows = simulate_variant_group(variants, rows=True)
            results = simulate_variant_group(variants)
            for column, variant in enumerate(variants):
                alone = simulate_variant_group([variant], rows=True)
                span = slice(rows.bounds[column], rows.bounds[column + 1])
                assert rows.prob[span].tobytes() == alone.prob.tobytes()
                assert rows.sign[span].tobytes() == alone.sign.tobytes()
                assert rows.out_index[span].tobytes() == alone.out_index.tobytes()
                assert set(rows.variant_of[span].tolist()) <= {column}
                value, distribution = simulate_variant_group([variant])[0]
                assert float_bits(results[column][0]) == float_bits(value)
                if distribution is not None:
                    assert results[column][1].tobytes() == distribution.tobytes()
            _assert_rows_match_branches(variants, rows)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tables=wire_cut_tables(), budget=st.sampled_from([1, 1 << 23]))
    def test_simulate_program_equals_the_variant_group(self, tables, budget):
        """A program and its rows' choices give each row's variant result,
        whether the rows share one pass or split into one class per pass."""
        for table in tables:
            row_class = int(table.row_class[0])
            rows = np.flatnonzero(table.row_class == row_class)
            variants = [table.variants[row] for row in rows]
            outputs = len(table.output_qubit_order) if table.mode == "probability" else None
            results = batched.simulate_program(
                table.program(row_class), table.choices[rows], budget, outputs
            )
            for (value, distribution), expected in zip(
                results, simulate_variant_group(variants)
            ):
                assert float_bits(value) == float_bits(expected[0])
                if expected[1] is None:
                    assert distribution is None
                else:
                    assert distribution.tobytes() == expected[1].tobytes()

    def test_compile_program_twins_differ_only_in_signs(self):
        """Presence, ``out:`` positions and matrices split choices; signs do not."""
        entries = [
            gate_op("ry", [0], (0.7,)),
            (0, (None, gate_op("h", [0]), None, None, None)),
            (0, tuple(None if tag is None else measure_op(0, tag) for tag in TWIN_TAGS)),
            gate_op("rx", [0], (0.4,)),
            measure_op(0, "out:0"),
        ]
        program = compile_program(1, entries, (0,))
        ((column, first),) = program.twins
        assert column == 0 and first.tolist() == [0, 1, 2, 3, 0]
        assert twin_choices(entries[1:3], (0,)).tolist() == first.tolist()
        assert [step[-1] for step in program.steps if step[0] == "m"] == [0, -1]
        choices = np.arange(len(TWIN_TAGS), dtype=np.int8)[:, np.newaxis]
        whole = batched._program_rows(program, choices, 1e-14)
        for row in range(len(choices)):
            alone = batched._program_rows(program, choices[row : row + 1], 1e-14)
            span = slice(whole.bounds[row], whole.bounds[row + 1])
            for name in ("prob", "sign", "out_index"):
                assert getattr(whole, name)[span].tobytes() == getattr(alone, name).tobytes()

    def test_exit_twins_share_a_class(self):
        """I and Z of one wire-cut exit are twins; X and Y are not."""
        _, solution = two_cut_solution()
        batch = CutReconstructor(solution).enumerate_probability_requests()
        for table in {id(v.table): v.table for v in batch.variants}.values():
            seen = {}
            for variant in table.variants:
                bases = variant.settings.measurement_bases
                key = tuple((cut, "Z" if basis == "I" else basis) for cut, basis in bases)
                key += tuple(variant.settings.init_labels)
                assert seen.setdefault(key, _twin_class(variant)) == _twin_class(variant)
            assert len(seen) == len(set(table.twin_class.tolist()))

    def test_passes_evolve_one_row_per_twin_class(self, pass_rows):
        rows = _table_rows()
        keys = _twin_keys(rows)
        _assert_tables_bit_identical(
            ExactExecutor().run_batch(rows), BatchedExactExecutor().run_batch(rows)
        )
        expected = [
            len({keys[p] for p in positions}) for positions in pass_batches(rows, 1 << 23)
        ]
        assert pass_rows["evolved"] == expected
        assert sum(expected) == len(set(keys)) < len(rows) == sum(pass_rows["requested"])

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(limit=st.integers(min_value=1, max_value=9))
    def test_ragged_limits_never_split_a_class(self, limit):
        rows = _table_rows()
        keys = _twin_keys(rows)
        budget = limit * max(2**row.table.skeleton.num_qubits * 2**12 for row in rows)
        batch_of = {}
        for index, positions in enumerate(pass_batches(rows, budget)):
            table, row = rows[positions[0]].table, rows[positions[0]].row
            program = table.program(int(table.row_class[row]))
            classes = {keys[p] for p in positions}
            assert len(classes) <= max(1, budget // program.row_elements)
            for key in classes:
                assert batch_of.setdefault(key, index) == index
        assert sorted(p for ps in pass_batches(rows, budget) for p in ps) == list(range(len(rows)))

    @pytest.mark.parametrize("name", sorted(PERF_EVOLVED_ROWS))
    def test_perf_first_round_evolved_rows(self, name, pass_rows):
        for instance in perf_workloads.WORKLOADS[name].pool(0)[0]:
            serial = dataclasses.replace(instance.engine_config, max_workers=1)
            dataclasses.replace(instance, engine_config=serial).evaluate()
        requested, evolved = PERF_EVOLVED_ROWS[name]
        assert (sum(pass_rows["requested"]), sum(pass_rows["evolved"])) == (requested, evolved)


# --------------------------------------------------------------------------- executor protocol
class TestBatchedExactExecutor:
    def test_counters_match_exact_executor(self):
        circuit = Circuit(2)
        circuit.h(0).cx(0, 1).measure(0, tag="signed:cut:a")
        variants = [_variant(circuit)] * 3  # dedup collapses repeats
        scalar, batched = ExactExecutor(), BatchedExactExecutor()
        scalar.run_batch(variants)
        batched.run_batch(variants)
        assert batched.requests == scalar.requests == 3
        assert batched.executions == scalar.executions == 1
        assert batched.dedup_hits == scalar.dedup_hits == 2

    def test_cache_round_trip(self):
        circuit = Circuit(1)
        circuit.h(0).measure(0, tag="signed:out:0")
        variant = _variant(circuit)
        executor = BatchedExactExecutor()
        first = executor.expectation_value(variant)
        second = executor.expectation_value(variant)
        assert first == second
        assert executor.cache_hits == 1
        assert executor.executions == 1

    def test_invalid_batch_budget_rejected(self):
        with pytest.raises(CuttingError, match="max_batch_elements"):
            BatchedExactExecutor(max_batch_elements=0)

    def test_probability_variant_missing_output_measure_raises(self):
        circuit = Circuit(2)
        circuit.cx(0, 1).measure(0, tag="out:0")  # qubit 1 never recorded
        # Rejected when the circuit is wrapped, before any executor sees it.
        with pytest.raises(CuttingError, match="did not record an outcome"):
            _variant(circuit, mode="probability", output=(0, 1))

    def test_spawn_spec_survives_pickling(self):
        import pickle

        executor = BatchedExactExecutor()
        factory, args = pickle.loads(pickle.dumps(executor.spawn_spec()))
        clone = factory(*args)
        assert isinstance(clone, BatchedExactExecutor)


# --------------------------------------------------------------------------- real cuts
class TestRealCutEnumerations:
    def test_expectation_workload_bit_identical(self):
        workload = make_workload("REG", 6, degree=3, layers=1, seed=3)
        plan = cut_circuit(workload.circuit, CutConfig(device_size=4))
        scalar_rec = CutReconstructor(
            plan.solution, specs=plan.subcircuits, engine=ParallelEngine(ExactExecutor())
        )
        batch = scalar_rec.enumerate_expectation_requests(workload.observable)
        scalar = ExactExecutor().run_batch(batch)
        batched = BatchedExactExecutor().run_batch(batch)
        _assert_tables_bit_identical(scalar, batched)

    def test_probability_workload_bit_identical(self):
        workload = make_workload("QFT", 5)
        plan = cut_circuit(workload.circuit, CutConfig(device_size=4))
        reconstructor = CutReconstructor(
            plan.solution, specs=plan.subcircuits, engine=ParallelEngine(ExactExecutor())
        )
        batch = reconstructor.enumerate_probability_requests()
        scalar = ExactExecutor().run_batch(batch)
        batched = BatchedExactExecutor().run_batch(batch)
        _assert_tables_bit_identical(scalar, batched)

    def test_evaluate_workload_backends_bit_identical(self):
        # ExactExecutor is the scalar reference the default batched engine
        # must reproduce bit for bit.
        workload = make_workload("REG", 6, degree=3, layers=1, seed=5)
        config = CutConfig(device_size=4)
        scalar = evaluate_workload(
            workload, config, engine=ParallelEngine(ExactExecutor())
        )
        batched = evaluate_workload(workload, config)
        assert scalar.expectation_value == batched.expectation_value
        assert scalar.num_variant_evaluations == batched.num_variant_evaluations


# --------------------------------------------------------------------------- engine dispatch
class TestEngineGrouping:
    def test_parallel_batched_engine_bit_identical_to_scalar_serial(self):
        workload = make_workload("REG", 6, degree=3, layers=1, seed=7)
        plan = cut_circuit(workload.circuit, CutConfig(device_size=4))
        reconstructor = CutReconstructor(
            plan.solution, specs=plan.subcircuits, engine=ParallelEngine(ExactExecutor())
        )
        batch = reconstructor.enumerate_expectation_requests(workload.observable)
        serial = ExactExecutor().run_batch(batch)
        config = EngineConfig(max_workers=2, chunk_size=7)
        with ParallelEngine(BatchedExactExecutor(), config) as engine:
            parallel = engine.run_batch(batch)
        _assert_tables_bit_identical(serial, parallel)

    def test_grouping_keeps_structures_together(self):
        """Rows of one table sit together: first-seen table order, stable inside."""
        rows = _table_rows()
        tables = list({id(row.table): row.table for row in rows}.values())
        by_table = [[row for row in rows if row.table is table] for table in tables]
        interleaved = [
            group[i] for i in range(max(map(len, by_table))) for group in by_table if i < len(group)
        ]
        stray = _variant(Circuit(1))
        pending = [(request_key(v), v, None) for v in interleaved[:5] + [stray] + interleaved[5:]]
        engine = ParallelEngine(BatchedExactExecutor(), EngineConfig(max_workers=2, chunk_size=3))
        grouped = engine._grouped(pending)
        assert sorted(map(id, grouped)) == sorted(map(id, pending))
        owners = [id(getattr(v, "table", None)) for _, v, _ in grouped]
        runs = [owner for i, owner in enumerate(owners) if i == 0 or owners[i - 1] != owner]
        assert len(runs) == len(set(owners))  # every table is one contiguous run
        first_seen = list(dict.fromkeys(id(getattr(v, "table", None)) for _, v, _ in pending))
        assert runs == first_seen
        # Inside a table, twin classes are contiguous in first-seen order and
        # requests keep their order within a class.
        merged = 0
        for owner in set(owners):
            mine = [p for p in pending if id(getattr(p[1], "table", None)) == owner]
            classes = [_twin_class(variant) for _, variant, _ in mine]
            rank = {twin: n for n, twin in enumerate(dict.fromkeys(classes))}
            order = sorted(range(len(mine)), key=lambda n: (rank[classes[n]], n))
            assert [p for p in grouped if id(getattr(p[1], "table", None)) == owner] == [
                mine[n] for n in order
            ]
            merged += len(classes) - len(rank)
        assert merged > 0  # some I/Z twins were gathered
        chunks = engine._chunked(grouped)
        assert [p for chunk in chunks for p in chunk] == grouped

    def test_single_table_batch_groups_twin_classes_for_the_pool(self):
        """One table's batch is reordered too, and a 2-worker pool gives serial bytes."""
        _, solution = two_cut_solution()
        batch = CutReconstructor(solution).enumerate_probability_requests()
        table = max({id(v.table): v.table for v in batch.variants}.values(), key=len)
        pending = [(request_key(v), v, None) for v in table.variants]
        with ParallelEngine(
            BatchedExactExecutor(), EngineConfig(max_workers=2, chunk_size=3)
        ) as engine:
            grouped = engine._grouped(pending)
            classes = [_twin_class(variant) for _, variant, _ in grouped]
            runs = [c for i, c in enumerate(classes) if i == 0 or classes[i - 1] != c]
            assert len(runs) == len(set(classes)) < len(classes)
            assert grouped != pending
            pooled = engine.run_batch(table.variants)
        _assert_tables_bit_identical(BatchedExactExecutor().run_batch(table.variants), pooled)
        _assert_tables_bit_identical(ExactExecutor().run_batch(table.variants), pooled)

    def test_grouping_tolerates_foreign_payloads(self):
        engine = ParallelEngine(BatchedExactExecutor(), EngineConfig(max_workers=1))
        pending = [("a", object(), None), ("b", object(), None)]
        assert engine._grouped(pending) == pending

    def test_foreign_payloads_still_dispatch(self):
        """A duck-typed executor's opaque payloads pass grouping and run."""

        class Echo:
            executions = requests = dedup_hits = cache_hits = 0

            def run_many(self, chunk, shots=None):
                return [(key, payload) for key, payload, _ in chunk]

        rows = _table_rows()[:3]
        pending = [("a", object(), None)] + [(request_key(v), v, None) for v in rows]
        pending.append(("b", object(), None))
        engine = ParallelEngine(BatchedExactExecutor(), EngineConfig(max_workers=1))
        results = dict(engine._dispatch(Echo(), pending, None))
        assert results == {key: payload for key, payload, _ in pending}
