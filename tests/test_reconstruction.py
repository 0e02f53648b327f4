"""Tests for the classical reconstruction engine — the numerical heart of the paper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.cutting import CutReconstructor, CutSolution, GateCut, WireCut
from repro.exceptions import ReconstructionError
from repro.simulator import simulate_statevector
from repro.utils.pauli import PauliObservable, PauliString


def _observable_3q():
    return PauliObservable.from_terms(
        [
            PauliString.from_dict({0: "Z", 1: "Z"}, 0.7),
            PauliString.from_dict({1: "X", 2: "Y"}, 0.4),
            PauliString.from_dict({2: "Z"}, -0.3),
            PauliString.from_dict({}, 0.1),
        ]
    )


class TestWireCutReconstruction:
    def test_probability_vector_exact(self, chain_wire_cut_solution, chain_circuit):
        reconstructed = CutReconstructor(chain_wire_cut_solution).reconstruct_probabilities()
        exact = simulate_statevector(chain_circuit).probabilities()
        assert np.allclose(reconstructed, exact, atol=1e-10)
        assert np.isclose(reconstructed.sum(), 1.0, atol=1e-10)

    def test_expectation_exact(self, chain_wire_cut_solution, chain_circuit):
        observable = _observable_3q()
        value = CutReconstructor(chain_wire_cut_solution).reconstruct_expectation(observable)
        exact = simulate_statevector(chain_circuit).expectation(observable)
        assert np.isclose(value, exact, atol=1e-10)

    def test_two_wire_cuts_exact(self):
        circuit = Circuit(4)
        circuit.h(0).h(1).ry(0.3, 2).rx(0.8, 3)
        circuit.cx(0, 1)   # 4
        circuit.cz(1, 2)   # 5
        circuit.cx(2, 3)   # 6
        circuit.rz(0.4, 3) # 7
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 1, 7: 1},
            wire_cuts=[WireCut(qubit=1, downstream_op=5)],
        )
        reconstructed = CutReconstructor(solution).reconstruct_probabilities()
        exact = simulate_statevector(circuit).probabilities()
        assert np.allclose(reconstructed, exact, atol=1e-10)

    def test_three_subcircuits_chain(self):
        """A 3-qubit line cut twice into three single-qubit-ish subcircuits."""
        circuit = Circuit(3)
        circuit.h(0).ry(0.5, 1).rx(0.2, 2)
        circuit.cx(0, 1)     # 3
        circuit.rz(0.7, 1)   # 4
        circuit.cx(1, 2)     # 5
        circuit.h(2)         # 6
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 0, 2: 2, 3: 0, 4: 1, 5: 2, 6: 2},
            wire_cuts=[WireCut(qubit=1, downstream_op=4), WireCut(qubit=1, downstream_op=5)],
        )
        reconstructed = CutReconstructor(solution).reconstruct_probabilities()
        exact = simulate_statevector(circuit).probabilities()
        assert np.allclose(reconstructed, exact, atol=1e-9)

    def test_idle_qubit_stays_in_zero(self):
        """Qubits with no operations must appear as |0> in the reconstructed vector."""
        circuit = Circuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.4, 1)  # qubit 2 never used
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 0, 2: 1},
            wire_cuts=[WireCut(qubit=1, downstream_op=2)],
        )
        reconstructed = CutReconstructor(solution).reconstruct_probabilities()
        exact = simulate_statevector(circuit).probabilities()
        assert np.allclose(reconstructed, exact, atol=1e-10)

    def test_idle_qubit_observable_terms(self):
        circuit = Circuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.4, 1)
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 0, 2: 1},
            wire_cuts=[WireCut(qubit=1, downstream_op=2)],
        )
        observable = PauliObservable.from_terms(
            [
                PauliString.from_dict({2: "Z"}, 1.0),   # idle qubit -> +1
                PauliString.from_dict({2: "X"}, 1.0),   # idle qubit -> 0
                PauliString.from_dict({0: "Z", 2: "Z"}, 1.0),
            ]
        )
        value = CutReconstructor(solution).reconstruct_expectation(observable)
        exact = simulate_statevector(circuit).expectation(observable)
        assert np.isclose(value, exact, atol=1e-10)


class TestGateCutReconstruction:
    def test_cz_gate_cut_expectation(self, gate_cut_solution, gate_cut_circuit, zz_observable):
        value = CutReconstructor(gate_cut_solution).reconstruct_expectation(zz_observable)
        exact = simulate_statevector(gate_cut_circuit).expectation(zz_observable)
        assert np.isclose(value, exact, atol=1e-10)

    @pytest.mark.parametrize("gate", ["rzz", "cx", "cz"])
    def test_each_cuttable_gate_type(self, gate, zz_observable):
        circuit = Circuit(2)
        circuit.h(0).h(1)
        if gate == "rzz":
            circuit.rzz(0.8, 0, 1)
        elif gate == "cx":
            circuit.cx(0, 1)
        else:
            circuit.cz(0, 1)
        circuit.ry(0.5, 0).rx(0.2, 1)
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 1, 3: 0, 4: 1},
            gate_cuts=[GateCut(2)],
            gate_cut_placement={2: (0, 1)},
        )
        value = CutReconstructor(solution).reconstruct_expectation(zz_observable)
        exact = simulate_statevector(circuit).expectation(zz_observable)
        assert np.isclose(value, exact, atol=1e-10)

    def test_two_gate_cuts(self):
        circuit = Circuit(2)
        circuit.h(0).ry(0.4, 1)
        circuit.cz(0, 1)          # 2: cut
        circuit.rx(0.3, 0).rz(0.6, 1)
        circuit.rzz(0.9, 0, 1)    # 5: cut
        circuit.ry(0.2, 0)
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 1, 3: 0, 4: 1, 6: 0},
            gate_cuts=[GateCut(2), GateCut(5)],
            gate_cut_placement={2: (0, 1), 5: (0, 1)},
        )
        observable = PauliObservable.from_terms(
            [
                PauliString.from_dict({0: "Z", 1: "Z"}, 1.0),
                PauliString.from_dict({0: "X", 1: "Y"}, 0.5),
            ]
        )
        value = CutReconstructor(solution).reconstruct_expectation(observable)
        exact = simulate_statevector(circuit).expectation(observable)
        assert np.isclose(value, exact, atol=1e-9)

    def test_gate_cut_blocks_probability_reconstruction(self, gate_cut_solution):
        with pytest.raises(ReconstructionError):
            CutReconstructor(gate_cut_solution).reconstruct_probabilities()


class TestCombinedCuts:
    def test_wire_and_gate_cut_together(self):
        circuit = Circuit(4)
        circuit.h(0).h(1).ry(0.3, 2).rx(0.6, 3)
        circuit.cx(0, 1)    # 4
        circuit.cz(1, 2)    # 5: gate cut
        circuit.rz(0.5, 2)  # 6
        circuit.cx(2, 3)    # 7
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 6: 1, 7: 1},
            wire_cuts=[],
            gate_cuts=[GateCut(5)],
            gate_cut_placement={5: (0, 1)},
        )
        observable = PauliObservable.from_terms(
            [
                PauliString.from_dict({0: "Z", 3: "Z"}, 1.0),
                PauliString.from_dict({1: "Z", 2: "Z"}, 0.5),
                PauliString.from_dict({2: "X"}, 0.2),
            ]
        )
        value = CutReconstructor(solution).reconstruct_expectation(observable)
        exact = simulate_statevector(circuit).expectation(observable)
        assert np.isclose(value, exact, atol=1e-9)

    def test_identity_observable_reconstructs_to_one(self, chain_wire_cut_solution):
        observable = PauliObservable.from_terms([PauliString.from_dict({}, 1.0)])
        value = CutReconstructor(chain_wire_cut_solution).reconstruct_expectation(observable)
        assert np.isclose(value, 1.0, atol=1e-10)

    def test_executor_evaluation_count_reported(self, chain_wire_cut_solution):
        reconstructor = CutReconstructor(chain_wire_cut_solution)
        reconstructor.reconstruct_probabilities()
        assert reconstructor.engine.executions > 0


class TestRandomCircuitsProperty:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_single_wire_cut_reconstruction_is_exact_on_random_circuits(self, data):
        """Property: cutting any middle segment of a random 3-qubit circuit is exact."""
        rng_angles = st.floats(0.1, 3.0)
        circuit = Circuit(3)
        circuit.h(0)
        circuit.ry(data.draw(rng_angles), 1)
        circuit.rx(data.draw(rng_angles), 2)
        circuit.cx(0, 1)                                  # 3
        circuit.rz(data.draw(rng_angles), 1)              # 4
        circuit.cz(1, 2)                                  # 5
        circuit.ry(data.draw(rng_angles), 2)              # 6
        solution = CutSolution(
            circuit=circuit,
            op_subcircuit={0: 0, 1: 0, 2: 1, 3: 0, 4: 0, 5: 1, 6: 1},
            wire_cuts=[WireCut(qubit=1, downstream_op=5)],
        )
        reconstructed = CutReconstructor(solution).reconstruct_probabilities()
        exact = simulate_statevector(circuit).probabilities()
        assert np.allclose(reconstructed, exact, atol=1e-8)
