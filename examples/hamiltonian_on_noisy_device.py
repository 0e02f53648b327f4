"""Hamiltonian simulation on a small noisy device: the Table 3 experiment end-to-end.

A 2-D transverse-field Ising Trotter step on 8 qubits needs to be evaluated, but the
only "hardware" available is (a) a noisy 8-qubit device and (b) a much better-behaved
4-qubit device.  This example compares:

* the exact expectation value (ground truth),
* running the full circuit on the noisy 8-qubit device (routing + Pauli noise),
* QRCC: cutting to <=4-qubit subcircuits (wire + gate cuts + reuse), running every
  variant on the noisy 4-qubit device, and reconstructing classically.

The subcircuits contain far fewer two-qubit gates than the routed full circuit, so
the reconstructed value lands much closer to the ground truth — the paper's Table 3
observation.

Run with:  python examples/hamiltonian_on_noisy_device.py
"""

from __future__ import annotations

from repro import CutConfig, cut_circuit
from repro.analysis import expectation_accuracy
from repro.cutting import CutReconstructor, NoisyExecutor
from repro.engine import ParallelEngine
from repro.simulator import DeviceModel, NoiseModel, NoisySimulator, exact_expectation
from repro.workloads import make_ising


def main() -> None:
    workload = make_ising(num_qubits=8)
    observable = workload.observable
    print("Workload:", workload.describe())
    print("Circuit: ", workload.circuit.summary())

    noise = NoiseModel(two_qubit_error=3e-2, single_qubit_error=1e-3, readout_error=1e-2)
    big_device = DeviceModel(
        8,
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 6), (2, 5)),
        noise,
        name="noisy-8q",
    )
    small_device = DeviceModel(4, ((0, 1), (1, 2), (2, 3)), noise, name="noisy-4q")

    exact = exact_expectation(workload.circuit, observable)
    print(f"\nexact <H>                    : {exact:+.4f}")

    full_device_value = NoisySimulator(big_device, seed=11).run_expectation(
        workload.circuit, observable, shots=2048, trajectories=10
    )
    print(
        f"full circuit on {big_device.name}   : {full_device_value:+.4f} "
        f"(accuracy {100 * expectation_accuracy(full_device_value, exact):.1f}%)"
    )

    config = CutConfig(
        device_size=4,
        max_subcircuits=2,
        enable_gate_cuts=True,
        max_wire_cuts=6,
        max_gate_cuts=3,
    )
    plan = cut_circuit(workload.circuit, config)
    print(
        f"\nQRCC plan: {plan.num_subcircuits} subcircuits, {plan.num_wire_cuts} wire cuts, "
        f"{plan.num_gate_cuts} gate cuts, width {plan.max_width}, "
        f"largest subcircuit has {plan.max_two_qubit_gates} two-qubit gates "
        f"(full circuit has {workload.circuit.num_two_qubit_gates})"
    )

    executor = NoisyExecutor(small_device, shots=2048, trajectories=10, seed=11)
    reconstructor = CutReconstructor(
        plan.solution, specs=plan.subcircuits, engine=ParallelEngine(executor)
    )
    qrcc_value = reconstructor.reconstruct_expectation(observable)
    print(
        f"QRCC on {small_device.name} + post-processing: {qrcc_value:+.4f} "
        f"(accuracy {100 * expectation_accuracy(qrcc_value, exact):.1f}%)"
    )
    print(f"unique subcircuit variants executed: {executor.executions}")


if __name__ == "__main__":
    main()
