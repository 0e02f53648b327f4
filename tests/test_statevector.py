"""Tests for the dense statevector simulator."""


import numpy as np
import pytest

from repro.circuits import Circuit
from repro.exceptions import SimulationError
from repro.simulator import Statevector, apply_gate, simulate_statevector
from repro.utils.pauli import PauliObservable, PauliString


class TestStatevectorBasics:
    def test_zero_state(self):
        state = Statevector.zero_state(3)
        assert state.num_qubits == 3
        assert np.isclose(state.probabilities()[0], 1.0)

    def test_from_label_product_state(self):
        state = Statevector.from_label(["one", "plus"])
        probs = state.probabilities()
        # qubit0 = |1>, qubit1 = |+> -> indices 1 and 3 each 0.5.
        assert np.allclose(probs, [0.0, 0.5, 0.0, 0.5])

    def test_invalid_length_rejected(self):
        with pytest.raises(SimulationError):
            Statevector(np.ones(3))

    def test_num_qubits_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            Statevector(np.ones(4), num_qubits=3)

    def test_probability_of_bitstring(self):
        circuit = Circuit(2).x(0)
        state = simulate_statevector(circuit)
        # MSB-first bitstring: qubit1=0, qubit0=1.
        assert np.isclose(state.probability_of("01"), 1.0)
        with pytest.raises(SimulationError):
            state.probability_of("0")

    def test_marginal_probabilities(self):
        circuit = Circuit(3).h(0).cx(0, 1)
        state = simulate_statevector(circuit)
        marginal = state.marginal_probabilities([0, 1])
        assert np.allclose(marginal, [0.5, 0.0, 0.0, 0.5])
        assert np.allclose(state.marginal_probabilities([2]), [1.0, 0.0])

    def test_norm_preserved_by_evolution(self):
        circuit = Circuit(3).h(0).cx(0, 1).rzz(0.3, 1, 2).ry(0.7, 2)
        assert np.isclose(simulate_statevector(circuit).norm(), 1.0)


class TestGateApplication:
    def test_apply_gate_shape_check(self):
        with pytest.raises(SimulationError):
            apply_gate(np.ones(4, dtype=complex), np.eye(2), (0, 1), 2)

    def test_bell_state(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        probs = simulate_statevector(circuit).probabilities()
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_ghz_state(self):
        circuit = Circuit(5)
        circuit.h(0)
        for q in range(4):
            circuit.cx(q, q + 1)
        probs = simulate_statevector(circuit).probabilities()
        assert np.isclose(probs[0], 0.5) and np.isclose(probs[-1], 0.5)
        assert np.isclose(probs[1:-1].sum(), 0.0)

    def test_matches_dense_unitary(self):
        circuit = Circuit(3)
        circuit.h(0).t(1).cx(0, 2).rzz(0.7, 1, 2).swap(0, 1).cp(0.3, 2, 0).ryy(0.2, 0, 2)
        expected = circuit.unitary()[:, 0]
        assert np.allclose(simulate_statevector(circuit).data, expected)

    def test_gate_on_high_qubit_of_larger_register(self):
        circuit = Circuit(6).x(5)
        probs = simulate_statevector(circuit).probabilities()
        assert np.isclose(probs[32], 1.0)

    def test_two_qubit_gate_qubit_order_matters(self):
        # cx(0,1) flips qubit 1 when qubit 0 is set; cx(1,0) is different.
        forward = simulate_statevector(Circuit(2).x(0).cx(0, 1)).probabilities()
        backward = simulate_statevector(Circuit(2).x(0).cx(1, 0)).probabilities()
        assert np.isclose(forward[3], 1.0)
        assert np.isclose(backward[1], 1.0)

    def test_initial_labels(self):
        circuit = Circuit(2).cx(0, 1)
        state = simulate_statevector(circuit, initial_labels=["one", "zero"])
        assert np.isclose(state.probabilities()[3], 1.0)

    def test_initial_labels_wrong_length(self):
        with pytest.raises(SimulationError):
            simulate_statevector(Circuit(2), initial_labels=["zero"])

    def test_non_unitary_rejected(self):
        with pytest.raises(SimulationError):
            simulate_statevector(Circuit(1).measure(0))

    def test_too_many_qubits_rejected(self):
        with pytest.raises(SimulationError):
            Statevector.zero_state(30)


class TestExpectation:
    def test_z_expectation_on_computational_states(self):
        plus = simulate_statevector(Circuit(1).h(0))
        one = simulate_statevector(Circuit(1).x(0))
        z = PauliObservable.single({0: "Z"})
        assert np.isclose(plus.expectation(z), 0.0, atol=1e-12)
        assert np.isclose(one.expectation(z), -1.0)

    def test_x_expectation_on_plus_state(self):
        plus = simulate_statevector(Circuit(1).h(0))
        assert np.isclose(plus.expectation(PauliObservable.single({0: "X"})), 1.0)

    def test_bell_correlations(self):
        bell = simulate_statevector(Circuit(2).h(0).cx(0, 1))
        assert np.isclose(bell.expectation(PauliObservable.single({0: "Z", 1: "Z"})), 1.0)
        assert np.isclose(bell.expectation(PauliObservable.single({0: "X", 1: "X"})), 1.0)
        assert np.isclose(bell.expectation(PauliObservable.single({0: "Y", 1: "Y"})), -1.0)

    def test_observable_linearity(self):
        circuit = Circuit(2).ry(0.8, 0).cx(0, 1)
        state = simulate_statevector(circuit)
        a = PauliObservable.single({0: "Z"}, 0.5)
        b = PauliObservable.single({1: "Z"}, -0.3)
        assert np.isclose(state.expectation(a + b), state.expectation(a) + state.expectation(b))

    def test_expectation_matches_dense_matrix(self, rng):
        circuit = Circuit(3).h(0).ry(0.3, 1).cx(0, 1).rzz(0.5, 1, 2).rx(0.7, 2)
        observable = PauliObservable.from_terms(
            [
                PauliString.from_dict({0: "Z", 1: "X"}, 0.7),
                PauliString.from_dict({1: "Y", 2: "Z"}, -0.4),
                PauliString.from_dict({2: "X"}, 0.2),
            ]
        )
        state = simulate_statevector(circuit)
        dense = observable.matrix(3)
        expected = float(np.real(np.vdot(state.data, dense @ state.data)))
        assert np.isclose(state.expectation(observable), expected, atol=1e-10)


class TestBatchedGateKernel:
    """The scalar and batched kernels must agree on random circuits.

    The batched backend's bitwise-reproducibility contract rests on
    ``apply_gate_batch`` performing the exact same elementwise IEEE operation
    sequence per row as ``apply_gate`` does for one state; these regression
    tests pin that on random gates, random circuits and per-row matrix stacks.
    """

    def _random_states(self, rng, batch, num_qubits):
        data = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
            size=(batch, 2**num_qubits)
        )
        return data / np.linalg.norm(data, axis=1, keepdims=True)

    def test_shared_gate_rows_bit_identical(self, rng):
        from repro.circuits.gates import GATE_SPECS
        from repro.simulator import apply_gate_batch

        num_qubits = 4
        states = self._random_states(rng, 7, num_qubits)
        for name, spec in GATE_SPECS.items():
            params = tuple(rng.uniform(-np.pi, np.pi, size=spec.num_params))
            qubits = tuple(rng.permutation(num_qubits)[: spec.num_qubits])
            matrix = spec.builder(params)
            batched = apply_gate_batch(states, matrix, qubits, num_qubits)
            for row in range(states.shape[0]):
                expected = apply_gate(states[row], matrix, qubits, num_qubits)
                assert batched[row].tobytes() == expected.tobytes(), name

    def test_per_row_matrix_stack_bit_identical(self, rng):
        from repro.simulator import apply_gate_batch

        num_qubits = 3
        states = self._random_states(rng, 5, num_qubits)
        stack = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        batched = apply_gate_batch(states, stack, (1,), num_qubits)
        for row in range(5):
            expected = apply_gate(states[row], stack[row], (1,), num_qubits)
            assert batched[row].tobytes() == expected.tobytes()

    def test_random_circuits_batched_evolution_bit_identical(self, rng):
        from repro.circuits.gates import GATE_SPECS
        from repro.simulator import apply_gate_batch

        num_qubits = 3
        names = sorted(GATE_SPECS)
        for _ in range(5):
            circuit = Circuit(num_qubits)
            for _ in range(12):
                spec = GATE_SPECS[names[rng.integers(len(names))]]
                qubits = list(rng.permutation(num_qubits)[: spec.num_qubits])
                params = list(rng.uniform(-np.pi, np.pi, size=spec.num_params))
                circuit.add(spec.name, qubits, params)
            states = self._random_states(rng, 4, num_qubits)
            evolved = states.copy()
            for op in circuit:
                evolved = apply_gate_batch(evolved, op.matrix(), op.qubits, num_qubits)
            for row in range(4):
                expected = Statevector(states[row]).evolved(circuit)
                assert evolved[row].tobytes() == expected.data.tobytes()

    def test_batch_shape_validation(self):
        from repro.simulator import apply_gate_batch

        with pytest.raises(SimulationError, match="batch"):
            apply_gate_batch(np.zeros(4, dtype=complex), np.eye(2), (0,), 2)
        with pytest.raises(SimulationError, match="entries"):
            apply_gate_batch(
                np.zeros((3, 4), dtype=complex), np.zeros((2, 2, 2)), (0,), 2
            )
