"""Variant tables: enumeration and values against the per-key plan walk they replaced.

``PlanOracle`` is the old reconstruction walk kept as a test-only reference:
one weighted variant list (a *plan*) per (subcircuit, local basis assignment,
local gate instances, restricted term), built from Eq. 3's decomposition and
summed term by term.  The reconstructor now builds each variant once in a
per-subcircuit table and applies the basis change per initialised cut; these
tests pin that the batch, the weights and the values did not move.
"""

from __future__ import annotations

import collections
import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.core import CutConfig, cut_circuit
from repro.cutting import (
    INIT_STATE_DECOMPOSITION,
    CutReconstructor,
    CutSolution,
    GateCut,
    WireCut,
    plan_dynamic_definition,
    reconstruct_dynamic,
)
from repro.cutting.gate_cut import decompose_gate_cut
from repro.cutting.variants import (
    WIRE_CUT_MEASUREMENT_BASES,
    SubcircuitVariant,
    VariantBuilder,
    VariantSettings,
)
from repro.engine import ParallelEngine, VariantResult, request_key
from repro.exceptions import ReconstructionError
from repro.simulator import simulate_statevector
from repro.utils.pauli import PauliObservable, PauliString
from repro.workloads.qft import qft_circuit

from reference_contraction import naive_expectation, naive_probabilities
from strategies import mixed_cut_solution, random_angle_chain_solution

Plan = List[Tuple[float, SubcircuitVariant]]


class PlanOracle:
    """The per-key plan walk: enumeration order, weights and effective values."""

    def __init__(self, solution: CutSolution, specs) -> None:
        self.solution = solution
        self.specs = list(specs)
        self.builders = {spec.index: VariantBuilder(solution, spec) for spec in self.specs}
        self.gate_coefficients = {
            cut.op_index: tuple(
                instance.coefficient
                for instance in decompose_gate_cut(
                    solution.circuit.operations[cut.op_index]
                ).instances
            )
            for cut in solution.gate_cuts
        }
        self.variants: Dict[Tuple, SubcircuitVariant] = {}
        self.plans: Dict[Tuple, Plan] = {}

    # ---------------------------------------------------------------- loops
    def assignments(self) -> Iterator[Dict[str, str]]:
        cuts = list(self.solution.wire_cuts)
        for bases in itertools.product(WIRE_CUT_MEASUREMENT_BASES, repeat=len(cuts)):
            yield {cut.identifier(): basis for cut, basis in zip(cuts, bases)}

    def instance_maps(self) -> Iterator[Tuple[Dict[int, int], float]]:
        gate_cuts = list(self.solution.gate_cuts)
        for instances in itertools.product(range(1, 7), repeat=len(gate_cuts)):
            coefficient = 1.0
            for cut, instance in zip(gate_cuts, instances):
                coefficient *= self.gate_coefficients[cut.op_index][instance - 1]
            yield dict(zip((cut.op_index for cut in gate_cuts), instances)), coefficient

    def inactive_factor(self, term: PauliString) -> float:
        covered = {q for spec in self.specs for q in spec.output_qubits}
        return 0.0 if any(q not in covered and p != "Z" for q, p in term.paulis) else 1.0

    # ---------------------------------------------------------------- plans
    def plan(
        self,
        spec,
        assignment: Mapping[str, str],
        term: Optional[PauliString] = None,
        instance_map: Optional[Mapping[int, int]] = None,
    ) -> Tuple[Tuple, Plan]:
        upstream = {c.identifier(): assignment[c.identifier()] for c in spec.upstream_cuts}
        downstream = {c.identifier(): assignment[c.identifier()] for c in spec.downstream_cuts}
        mode = "probability" if term is None else "expectation"
        local = {op: instance_map[op] for op in spec.gate_cut_sides} if term is not None else {}
        restricted = term.restricted_to(spec.output_qubits) if term is not None else None
        key = (
            spec.index,
            tuple(sorted(upstream.items())),
            tuple(sorted(downstream.items())),
            tuple(sorted(local.items())),
            restricted.paulis if restricted is not None else None,
        )
        if key not in self.plans:
            identifiers = [cut.identifier() for cut in spec.downstream_cuts]
            plan: Plan = []
            for choice in itertools.product(
                *[INIT_STATE_DECOMPOSITION[downstream[i]] for i in identifiers]
            ):
                labels = {i: label for i, (label, _) in zip(identifiers, choice)}
                weight = 1.0
                for _, coefficient in choice:
                    weight *= coefficient
                settings = VariantSettings.build(upstream, labels, local)
                memo = (spec.index, settings, mode, key[-1])
                if memo not in self.variants:
                    self.variants[memo] = self.builders[spec.index].build(
                        settings, mode, restricted
                    )
                plan.append((weight, self.variants[memo]))
            self.plans[key] = plan
        return key, self.plans[key]

    # ---------------------------------------------------------------- enumeration
    def enumerate_probability(self, weights: Dict[str, float]) -> List[SubcircuitVariant]:
        batch: List[SubcircuitVariant] = []
        scheduled: set = set()
        base = 0.5 ** len(self.solution.wire_cuts)
        for assignment in self.assignments():
            for spec in self.specs:
                key, plan = self.plan(spec, assignment)
                for weight, variant in plan:
                    fp = request_key(variant)
                    weights[fp] = weights.get(fp, 0.0) + abs(base * weight)
                if key not in scheduled:
                    scheduled.add(key)
                    batch.extend(variant for _, variant in plan)
        return batch

    def enumerate_expectation(
        self, observable: PauliObservable, weights: Dict[str, float]
    ) -> List[SubcircuitVariant]:
        batch: List[SubcircuitVariant] = []
        scheduled: set = set()
        base = 0.5 ** len(self.solution.wire_cuts)
        for term in observable.terms:
            if self.inactive_factor(term) == 0.0:
                continue
            for assignment in self.assignments():
                for instance_map, instance_coefficient in self.instance_maps():
                    if instance_coefficient == 0.0:
                        continue
                    for spec in self.specs:
                        key, plan = self.plan(spec, assignment, term, instance_map)
                        coefficient = term.coefficient * base * instance_coefficient
                        for weight, variant in plan:
                            fp = request_key(variant)
                            weights[fp] = weights.get(fp, 0.0) + abs(coefficient * weight)
                        if key not in scheduled:
                            scheduled.add(key)
                            batch.extend(variant for _, variant in plan)
        return batch

    # ---------------------------------------------------------------- values
    def effective(self, plan: Plan, table, width: Optional[int]):
        total = np.zeros(width) if width is not None else 0.0
        for weight, variant in plan:
            result = table.get(request_key(variant))
            if result is None:
                continue
            payload = result.distribution if width is not None else result.value
            total = total + weight * payload
        return total

    def probabilities(self, table) -> np.ndarray:
        num_qubits = self.solution.circuit.num_qubits
        total = np.zeros(2**num_qubits)
        base = 0.5 ** len(self.solution.wire_cuts)
        for assignment in self.assignments():
            combined = np.array([1.0])
            qubits: List[int] = []
            for spec in self.specs:
                _, plan = self.plan(spec, assignment)
                vector = self.effective(plan, table, 2 ** len(spec.output_qubits))
                combined = np.multiply.outer(combined, vector).reshape(-1)
                qubits = list(spec.output_qubits) + qubits
            index = np.zeros(combined.size, dtype=np.int64)
            for bit, qubit in enumerate(qubits):
                index |= ((np.arange(combined.size) >> bit) & 1) << qubit
            total[index] += base * combined
        return total

    def expectation(self, observable: PauliObservable, table) -> float:
        value = 0.0
        base = 0.5 ** len(self.solution.wire_cuts)
        for term in observable.terms:
            factor = self.inactive_factor(term)
            if factor == 0.0:
                continue
            term_value = 0.0
            for assignment in self.assignments():
                for instance_map, instance_coefficient in self.instance_maps():
                    if base * instance_coefficient == 0.0:
                        continue
                    product = 1.0
                    for spec in self.specs:
                        _, plan = self.plan(spec, assignment, term, instance_map)
                        product *= self.effective(plan, table, None)
                    term_value += base * instance_coefficient * product
            value += term.coefficient * term_value * factor
        return value


# ----------------------------------------------------------------------- fixtures
def three_init_cut_solution() -> CutSolution:
    """Subcircuit 1 initialises three cut wires (and subcircuit 0 keeps qubit 3)."""
    circuit = Circuit(4)
    circuit.ry(0.4, 0).ry(1.1, 1).ry(2.0, 2).ry(0.7, 3)  # 0-3
    circuit.cx(0, 1)  # 4
    circuit.cx(2, 3)  # 5
    circuit.cx(1, 2)  # 6
    circuit.cx(0, 1)  # 7: cuts on qubits 0 and 1
    circuit.rz(0.9, 2)  # 8: cut on qubit 2
    circuit.cx(1, 2)  # 9
    circuit.rx(0.3, 0)  # 10
    solution = CutSolution(
        circuit=circuit,
        op_subcircuit={0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 1, 9: 1, 10: 1},
        wire_cuts=[WireCut(0, 7), WireCut(1, 7), WireCut(2, 8)],
    )
    solution.validate()
    return solution


def zero_instance_solution() -> Tuple[CutSolution, PauliObservable]:
    """A gate-cut rzz(0): five of its six instances have a zero coefficient."""
    circuit = Circuit(4)
    circuit.h(0).ry(0.8, 1).ry(0.5, 2).h(3)  # 0-3
    circuit.cx(0, 1)  # 4
    circuit.rzz(0.0, 1, 2)  # 5: gate cut
    circuit.cx(2, 3)  # 6
    solution = CutSolution(
        circuit=circuit,
        op_subcircuit={0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 6: 1},
        gate_cuts=[GateCut(5)],
        gate_cut_placement={5: (0, 1)},
    )
    observable = PauliObservable.from_terms(
        [PauliString.from_dict({1: "Z", 2: "X"}, 0.7), PauliString.from_dict({0: "X"}, -0.4)]
    )
    return solution, observable


def interleaved_solution() -> Tuple[CutSolution, PauliObservable]:
    """Three subcircuits, two gate cuts; A measures one cut and initialises another.

    Wire cut 0 enters A while A's measured cut is wire cut 1, so A's table axes
    (measured, then initialised) need a transpose into solution order.
    """
    circuit = Circuit(4)
    circuit.ry(0.4, 0).ry(1.1, 1).ry(2.0, 2).ry(0.7, 3)  # 0-3
    circuit.cx(0, 1)  # 4: A
    circuit.rzz(0.6, 1, 2)  # 5: gate cut A|B
    circuit.cx(2, 3)  # 6: B
    circuit.cx(1, 2)  # 7: C, cuts on qubits 1 and 2
    circuit.rz(0.3, 1)  # 8: C
    circuit.cz(2, 3)  # 9: gate cut C|B
    circuit.rx(0.5, 0)  # 10: A
    circuit.cx(1, 0)  # 11: A, cut on qubit 1
    solution = CutSolution(
        circuit=circuit,
        op_subcircuit={0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 6: 1, 7: 2, 8: 2, 10: 0, 11: 0},
        wire_cuts=[WireCut(1, 11), WireCut(1, 7), WireCut(2, 7)],
        gate_cuts=[GateCut(5), GateCut(9)],
        gate_cut_placement={5: (0, 1), 9: (2, 1)},
    )
    solution.validate()
    observable = PauliObservable.from_terms(
        [
            PauliString.from_dict({0: "X", 1: "Z"}, 0.8),
            PauliString.from_dict({0: "X", 1: "Z", 3: "Z"}, -0.5),
            PauliString.from_dict({2: "Y", 3: "X"}, 0.3),
            PauliString.from_dict({}, 0.25),
        ]
    )
    return solution, observable


def probability_cases():
    yield "chain", random_angle_chain_solution(6, 2, np.random.default_rng(4))
    yield "three-init", three_init_cut_solution()
    plan = cut_circuit(qft_circuit(5), CutConfig(device_size=3, max_subcircuits=3))
    yield "qft-5", plan.solution


def expectation_cases():
    _, solution, observable = mixed_cut_solution()
    yield "mixed", solution, observable
    yield "zero-instances", *zero_instance_solution()
    yield "interleaved", *interleaved_solution()
    three = three_init_cut_solution()
    yield "three-init", three, PauliObservable.from_terms(
        [
            PauliString.from_dict({0: "X", 1: "Z", 2: "Y"}, 0.6),
            PauliString.from_dict({2: "Z", 3: "X"}, -0.3),
            PauliString.from_dict({0: "X", 1: "Z", 2: "Y", 3: "Z"}, 0.2),
        ]
    )


PROBABILITY = list(probability_cases())
EXPECTATION = list(expectation_cases())


def max_init_cuts(specs) -> int:
    return max(len(spec.downstream_cuts) for spec in specs)


# ----------------------------------------------------------------------- enumeration
def assert_reads_match(batch, expected: List[SubcircuitVariant]) -> None:
    """``batch`` holds the oracle's reads: its distinct fingerprints in order of
    first read, each with its number of reads."""
    keys = [request_key(v) for v in expected]
    reads = collections.Counter(keys)
    assert [request_key(v) for v in batch.variants] == list(reads)
    assert batch.reads.tolist() == list(reads.values())
    assert len(batch) == len(expected)


@pytest.mark.parametrize("name, solution", PROBABILITY, ids=[c[0] for c in PROBABILITY])
def test_probability_batch_and_weights_match_the_plan_walk(name, solution):
    reconstructor = CutReconstructor(solution)
    oracle = PlanOracle(solution, reconstructor.specs)
    weights: Dict[str, float] = {}
    expected_weights: Dict[str, float] = {}
    batch = reconstructor.enumerate_probability_requests(weights_out=weights)
    expected = oracle.enumerate_probability(expected_weights)
    assert_reads_match(batch, expected)
    assert list(weights.items()) == list(expected_weights.items())


@pytest.mark.parametrize(
    "name, solution, observable", EXPECTATION, ids=[c[0] for c in EXPECTATION]
)
def test_expectation_batch_and_weights_match_the_plan_walk(name, solution, observable):
    reconstructor = CutReconstructor(solution)
    oracle = PlanOracle(solution, reconstructor.specs)
    # Pre-seeded weights keep their slot and accumulate on top, as before.
    seed = {"not-a-variant": 1.5}
    weights, expected_weights = dict(seed), dict(seed)
    batch = reconstructor.enumerate_expectation_requests(observable, weights_out=weights)
    expected = oracle.enumerate_expectation(observable, expected_weights)
    assert_reads_match(batch, expected)
    assert list(weights.items()) == list(expected_weights.items())


def test_three_init_cuts_are_covered():
    specs = CutReconstructor(three_init_cut_solution()).specs
    assert max_init_cuts(specs) == 3


def test_zero_coefficient_instances_are_never_enumerated():
    solution, observable = zero_instance_solution()
    reconstructor = CutReconstructor(solution)
    batch = reconstructor.enumerate_expectation_requests(observable)
    assert batch
    assert {dict(v.settings.gate_instances)[5] for v in batch} == {1}


def test_evaluations_add_up_over_subcircuits():
    """Unique variants number sum_S 4**c_S, not prod_S (prob-wire: 4096 + 4096)."""
    for _, solution in PROBABILITY:
        reconstructor = CutReconstructor(solution)
        unique = {request_key(v) for v in reconstructor.enumerate_probability_requests()}
        touching = [len(s.upstream_cuts) + len(s.downstream_cuts) for s in reconstructor.specs]
        assert len(unique) == sum(4**c for c in touching)


# ----------------------------------------------------------------------- values
def full_table(reconstructor, batch):
    return reconstructor.engine.run_batch(batch)


@pytest.mark.parametrize("name, solution", PROBABILITY, ids=[c[0] for c in PROBABILITY])
def test_probability_values_match_the_plan_walk(name, solution):
    reconstructor = CutReconstructor(solution)
    table = full_table(reconstructor, reconstructor.enumerate_probability_requests())
    oracle = PlanOracle(solution, reconstructor.specs)
    expected = oracle.probabilities(table)
    planned = reconstructor.reconstruct_probabilities(table=table)
    naive = naive_probabilities(reconstructor, table)
    dd_plan = plan_dynamic_definition(
        solution, reconstructor.specs, qubit_limit=solution.circuit.num_qubits
    )
    dynamic = reconstruct_dynamic(reconstructor, dd_plan, table=table)
    assert planned.tobytes() == naive.tobytes()
    assert dynamic.root_binned.tobytes() == planned.tobytes()
    np.testing.assert_allclose(planned, expected, rtol=0.0, atol=1e-12)
    if max_init_cuts(reconstructor.specs) <= 1:
        assert planned.tobytes() == expected.tobytes()
    exact = simulate_statevector(solution.circuit).probabilities()
    np.testing.assert_allclose(planned, exact, atol=1e-10)


@pytest.mark.parametrize(
    "name, solution, observable", EXPECTATION, ids=[c[0] for c in EXPECTATION]
)
def test_expectation_values_match_the_plan_walk(name, solution, observable):
    reconstructor = CutReconstructor(solution)
    table = full_table(
        reconstructor, reconstructor.enumerate_expectation_requests(observable)
    )
    expected = PlanOracle(solution, reconstructor.specs).expectation(observable, table)
    planned = reconstructor.reconstruct_expectation(observable, table)
    naive = naive_expectation(reconstructor, observable, table)
    assert np.float64(planned).tobytes() == np.float64(naive).tobytes()
    assert abs(planned - expected) <= 1e-12
    if max_init_cuts(reconstructor.specs) <= 1:
        assert planned == expected
    state = simulate_statevector(solution.circuit)
    assert abs(planned - state.expectation(observable)) <= 1e-10


def oracle_stack(oracle: PlanOracle, spec, table) -> np.ndarray:
    """The plan walk's effective distributions in the contraction's row layout."""
    wire_cuts = list(oracle.solution.wire_cuts)
    touching = {cut.identifier() for cut in spec.upstream_cuts + spec.downstream_cuts}
    positions = [p for p, cut in enumerate(wire_cuts) if cut.identifier() in touching]
    rows = []
    for bases in itertools.product(WIRE_CUT_MEASUREMENT_BASES, repeat=len(positions)):
        assignment = {wire_cuts[p].identifier(): b for p, b in zip(positions, bases)}
        _, plan = oracle.plan(spec, assignment)
        rows.append(oracle.effective(plan, table, 2 ** len(spec.output_qubits)))
    return np.stack(rows)


@pytest.mark.parametrize("payload", ["executed", "negative-zeros", "random"])
def test_single_init_cut_stacks_match_the_plan_walk_bit_for_bit(payload):
    """Same sums in the same order; random payloads expose any reassociation."""
    solution = random_angle_chain_solution(8, 2, np.random.default_rng(11))
    reconstructor = CutReconstructor(solution)
    assert max_init_cuts(reconstructor.specs) == 1
    table = full_table(reconstructor, reconstructor.enumerate_probability_requests())
    rng = np.random.default_rng(2)
    if payload != "executed":
        table = {
            fp: VariantResult(
                distribution=np.full(result.distribution.shape, -0.0)
                if payload == "negative-zeros"
                else rng.normal(size=result.distribution.shape)
            )
            for fp, result in table.items()
        }
    oracle = PlanOracle(solution, reconstructor.specs)
    stacks = reconstructor._value_stacks("probability", None, table, "error", {})
    for spec, stack in zip(reconstructor.specs, stacks):
        assert stack.tobytes() == oracle_stack(oracle, spec, table).tobytes()


def test_weights_accumulate_onto_earlier_calls_like_the_plan_walk():
    solution, observable = interleaved_solution()
    reconstructor = CutReconstructor(solution)
    oracle = PlanOracle(solution, reconstructor.specs)
    weights: Dict[str, float] = {}
    expected: Dict[str, float] = {}
    for _ in range(2):
        reconstructor.enumerate_expectation_requests(observable, weights_out=weights)
        oracle.enumerate_expectation(observable, expected)
    assert list(weights.items()) == list(expected.items())


# ----------------------------------------------------------------------- missing rows
def pruned(table, keep_every: int = 3):
    return {fp: result for i, (fp, result) in enumerate(table.items()) if i % keep_every}


@pytest.mark.parametrize("contraction", ["planned", "naive"])
def test_skip_contracts_a_pruned_table_like_the_plan_walk(contraction):
    solution = three_init_cut_solution()
    reconstructor = CutReconstructor(solution)
    table = pruned(full_table(reconstructor, reconstructor.enumerate_probability_requests()))
    expected = PlanOracle(solution, reconstructor.specs).probabilities(table)
    if contraction == "planned":
        vector = reconstructor.reconstruct_probabilities(table=table, missing="skip")
    else:
        vector = naive_probabilities(reconstructor, table, "skip")
    np.testing.assert_allclose(vector, expected, rtol=0.0, atol=1e-12)


def test_skip_is_bit_equal_on_single_init_cuts():
    solution = random_angle_chain_solution(6, 2, np.random.default_rng(9))
    reconstructor = CutReconstructor(solution)
    table = pruned(full_table(reconstructor, reconstructor.enumerate_probability_requests()))
    expected = PlanOracle(solution, reconstructor.specs).probabilities(table)
    vector = reconstructor.reconstruct_probabilities(table=table, missing="skip")
    assert vector.tobytes() == expected.tobytes()


def test_error_raises_on_a_missing_row():
    _, solution, observable = mixed_cut_solution()
    reconstructor = CutReconstructor(solution)
    table = pruned(
        full_table(reconstructor, reconstructor.enumerate_expectation_requests(observable))
    )
    with pytest.raises(ReconstructionError, match="missing='error'"):
        reconstructor.reconstruct_expectation(observable, table, missing="error")


def test_execute_runs_only_the_absent_unique_variants(monkeypatch):
    solution = three_init_cut_solution()
    first = CutReconstructor(solution)
    table = full_table(first, first.enumerate_probability_requests())
    partial = pruned(table)
    second = CutReconstructor(solution)  # a fresh engine: nothing cached
    batches = []
    run_batch_timed = ParallelEngine.run_batch_timed

    def counted(engine, variants, shots=None):
        batches.append(len(variants))
        return run_batch_timed(engine, variants, shots=shots)

    monkeypatch.setattr(ParallelEngine, "run_batch_timed", counted)
    vector = second.reconstruct_probabilities(table=partial, missing="execute")
    # One batch per subcircuit table with absent rows, each row read once.
    assert 0 < len(batches) <= len(second.specs)
    assert sum(batches) == second.engine.stats.requests == len(table) - len(partial)
    assert second.engine.executions == len(table) - len(partial)
    assert vector.tobytes() == first.reconstruct_probabilities(table=table).tobytes()


def test_a_result_without_a_payload_is_rejected():
    solution = three_init_cut_solution()
    reconstructor = CutReconstructor(solution)
    table = full_table(reconstructor, reconstructor.enumerate_probability_requests())
    broken = {fp: type(result)(value=0.0) for fp, result in table.items()}
    with pytest.raises(ReconstructionError, match="no distribution"):
        reconstructor.reconstruct_probabilities(table=broken)


def test_dynamic_definition_reads_the_same_stacks():
    solution = three_init_cut_solution()
    reconstructor = CutReconstructor(solution)
    table = full_table(reconstructor, reconstructor.enumerate_probability_requests())
    plan = plan_dynamic_definition(solution, reconstructor.specs, qubit_limit=2)
    result = reconstruct_dynamic(reconstructor, plan, table=table)
    dense = reconstructor.reconstruct_probabilities(table=table)
    for heavy in result.bins:
        assert abs(heavy.probability - dense[heavy.index]) <= 1e-12
