"""Integration tests reproducing the paper's worked examples end-to-end.

These are the scenarios the paper uses to explain QRCC:

* Figure 2: a 5-qubit circuit that cannot run on a 3-qubit device with either CutQC
  or qubit reuse alone, but becomes feasible when the two are integrated (and needs
  even fewer cuts when gate cutting is allowed),
* Figure 4 / Section 6.3: the expectation value reconstructed after one wire cut and
  one gate cut matches the state-vector simulation,
* Table 3: the QRCC execution on a small noisy device is more accurate than running
  the full circuit on a larger, noisier device.
"""

import pytest

from repro.core import CutConfig, cut_circuit, evaluate_workload
from repro.cutting import CutReconstructor, NoisyExecutor
from repro.engine import ParallelEngine
from repro.exceptions import InfeasibleError
from repro.simulator import DeviceModel, NoiseModel, exact_expectation, lagos_like_device, NoisySimulator
from repro.workloads import make_regular_qaoa


def _figure2_circuit():
    """A 5-qubit circuit with the flavour of Figure 2 (H layer + mixed CZ/CX/RX)."""
    from repro.circuits import Circuit

    circuit = Circuit(5, "figure2")
    for qubit in range(5):
        circuit.h(qubit)
    circuit.cz(0, 1)
    circuit.cx(1, 2)
    circuit.rx(0.3, 0)
    circuit.t(2)
    circuit.cz(2, 3)
    circuit.cx(3, 4)
    circuit.ry(0.6, 3)
    circuit.rx(0.2, 4)
    circuit.cz(1, 2)
    circuit.rx(0.5, 2)
    return circuit


class TestFigure2Integration:
    def test_qrcc_fits_five_qubit_circuit_on_three_qubit_device(self):
        circuit = _figure2_circuit()
        config = CutConfig(device_size=3, max_subcircuits=2, max_wire_cuts=6)
        plan = cut_circuit(circuit, config)
        assert plan.max_width <= 3
        assert plan.num_subcircuits == 2

    def test_gate_cutting_does_not_increase_postprocessing(self):
        circuit = _figure2_circuit()
        wire_only = cut_circuit(
            circuit, CutConfig(device_size=3, max_subcircuits=2, max_wire_cuts=6)
        )
        both = cut_circuit(
            circuit,
            CutConfig(
                device_size=3, max_subcircuits=2, max_wire_cuts=6,
                max_gate_cuts=3, enable_gate_cuts=True,
            ),
        )
        assert both.effective_cuts <= wire_only.effective_cuts + 1e-9

    def test_cutqc_width_model_cannot_reach_three_qubits(self):
        """Without reuse, the same circuit needs more than 3 qubits per subcircuit."""
        circuit = _figure2_circuit()
        config = CutConfig(
            device_size=3, max_subcircuits=2, enable_qubit_reuse=False, max_wire_cuts=6
        )
        from repro.core import CuttingFormulation

        with pytest.raises(InfeasibleError):
            CuttingFormulation(circuit, config).solve_and_decode()


class TestFigure4Reconstruction:
    def test_wire_plus_gate_cut_expectation_matches_statevector(self):
        workload = make_regular_qaoa(6, degree=3, layers=1)
        config = CutConfig(
            device_size=4, max_subcircuits=2, enable_gate_cuts=True,
            max_wire_cuts=5, max_gate_cuts=2,
        )
        result = evaluate_workload(workload, config)
        assert result.expectation_error < 1e-8


class TestTable3Accuracy:
    def test_cut_execution_beats_full_noisy_execution(self):
        """QRCC on a (noisy) 4-qubit device vs the whole circuit on a noisy 7-qubit device."""
        workload = make_regular_qaoa(7, degree=2, layers=1, seed=13)
        exact = exact_expectation(workload.circuit, workload.observable)

        # Full-circuit execution on the 7-qubit Lagos-like device (routing overhead
        # included) with exaggerated-but-realistic noise so the effect is visible with
        # few trajectories.
        noisy_device = lagos_like_device(NoiseModel(4e-2, 1e-3, 1e-2))
        device_value = NoisySimulator(noisy_device, seed=3).run_expectation(
            workload.circuit, workload.observable, shots=2048, trajectories=10
        )

        # QRCC: cut to 4-qubit subcircuits, run on an equally-noisy 4-qubit device.
        config = CutConfig(
            device_size=4, max_subcircuits=2, enable_gate_cuts=True,
            max_wire_cuts=4, max_gate_cuts=2,
        )
        plan = cut_circuit(workload.circuit, config)
        small_device = DeviceModel(4, ((0, 1), (1, 2), (2, 3)), NoiseModel(4e-2, 1e-3, 1e-2))
        executor = NoisyExecutor(small_device, shots=2048, trajectories=10, seed=3)
        reconstructor = CutReconstructor(
            plan.solution, specs=plan.subcircuits, engine=ParallelEngine(executor)
        )
        qrcc_value = reconstructor.reconstruct_expectation(workload.observable)

        device_error = abs(device_value - exact)
        qrcc_error = abs(qrcc_value - exact)
        assert qrcc_error < device_error
