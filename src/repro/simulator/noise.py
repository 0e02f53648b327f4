"""Simulated noisy quantum device.

The paper verifies QRCC on a real IBM 7-qubit Lagos machine (Table 3).  That
hardware is not available offline, so this module provides the substitute described
in ``DESIGN.md``: a device model with

* a coupling map (Lagos' H-shaped 7-qubit layout by default, ~1.7 edges/qubit),
* per-gate depolarizing error (two-qubit errors orders of magnitude larger than
  single-qubit errors, as on hardware — defaults use the error rates quoted in the
  paper: CNOT 8.25e-3, single-qubit 2.6e-4),
* measurement (readout) bit-flip error,
* stochastic Pauli-injection trajectory simulation on top of the exact simulators.

The behaviour the Table 3 experiment depends on — accuracy degrading with the number
of two-qubit gates and circuit depth — is preserved by this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits import Circuit, decompose_to_basis, route_to_coupling_map
from ..exceptions import SimulationError
from ..utils.pauli import PauliObservable
from .dynamic import simulate_dynamic
from .expectation import basis_rotation_circuit, diagonalized_term
from .sampler import expectation_from_counts, sample_counts
from .statevector import simulate_statevector

__all__ = [
    "NoiseModel",
    "DeviceModel",
    "lagos_like_device",
    "NoisySimulator",
    "draw_pauli_errors",
    "inject_pauli_noise",
]

#: IBM Lagos / Falcon r5.11H heavy-hex style 7-qubit coupling (H shape).
LAGOS_COUPLING: Tuple[Tuple[int, int], ...] = (
    (0, 1),
    (1, 2),
    (1, 3),
    (3, 5),
    (4, 5),
    (5, 6),
)

#: The Pauli errors a trajectory injects (choice ``c`` >= 1 is ``PAULI_ERRORS[c - 1]``).
PAULI_ERRORS = ("x", "y", "z")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing + readout noise parameters.

    Attributes:
        two_qubit_error: depolarizing probability applied after each two-qubit gate.
        single_qubit_error: depolarizing probability applied after each single-qubit gate.
        readout_error: probability a measured bit is reported flipped.
    """

    two_qubit_error: float = 8.25e-3
    single_qubit_error: float = 2.6e-4
    readout_error: float = 1.0e-2

    def __post_init__(self) -> None:
        for name in ("two_qubit_error", "single_qubit_error", "readout_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be a probability, got {value}")

    def scaled(self, factor: float) -> "NoiseModel":
        """Return a model with all error rates multiplied by ``factor`` (clipped to 1)."""
        return NoiseModel(
            min(1.0, self.two_qubit_error * factor),
            min(1.0, self.single_qubit_error * factor),
            min(1.0, self.readout_error * factor),
        )


@dataclass(frozen=True)
class DeviceModel:
    """A small quantum device: qubit count, coupling map and noise model."""

    num_qubits: int
    coupling: Tuple[Tuple[int, int], ...]
    noise: NoiseModel = field(default_factory=NoiseModel)
    name: str = "device"

    def __post_init__(self) -> None:
        for a, b in self.coupling:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise SimulationError(f"coupling edge ({a},{b}) outside device")

    @property
    def connections_per_qubit(self) -> float:
        return 2.0 * len(self.coupling) / self.num_qubits

    def supports(self, circuit: Circuit) -> bool:
        return circuit.num_qubits <= self.num_qubits


def lagos_like_device(noise: Optional[NoiseModel] = None) -> DeviceModel:
    """The 7-qubit IBM-Lagos-like device used by the Table 3 experiment."""
    return DeviceModel(7, LAGOS_COUPLING, noise or NoiseModel(), name="lagos-sim")


def draw_pauli_errors(
    circuit: Circuit, noise: NoiseModel, rng: np.random.Generator, trajectories: int = 1
) -> Tuple[List[Tuple[int, int]], np.ndarray]:
    """The injection points ``(op index, qubit)`` of ``circuit`` (every operand of
    every non-identity unitary) and a ``(trajectories, points)`` int8 matrix of
    Pauli errors drawn there: the one rule for what noise is drawn, in which order.

    Per trajectory, per point, ``rng.random() < rate`` (the gate's rate) decides
    whether an error strikes and ``rng.integers(0, 3)`` picks it (choice ``0``
    is none)."""
    points: List[Tuple[int, int]] = []
    rates: List[float] = []
    for index, op in enumerate(circuit):
        if not op.is_unitary or op.is_identity:
            continue
        rate = noise.two_qubit_error if op.is_two_qubit else noise.single_qubit_error
        for qubit in op.qubits:
            points.append((index, qubit))
            rates.append(rate)
    choices = np.zeros((trajectories, len(points)), dtype=np.int8)
    for row in choices:
        for point, rate in enumerate(rates):
            if rng.random() < rate:
                row[point] = 1 + rng.integers(0, 3)
    return points, choices


def inject_pauli_noise(circuit: Circuit, noise: NoiseModel, rng: np.random.Generator) -> Circuit:
    """One noise realisation: the Pauli errors of :func:`draw_pauli_errors`
    interleaved after their gates (the trajectory of :class:`NoisySimulator`)."""
    points, choices = draw_pauli_errors(circuit, noise, rng)
    errors = {point: int(choice) for point, choice in zip(points, choices[0]) if choice}
    noisy = Circuit(circuit.num_qubits, f"{circuit.name}_noisy")
    for index, op in enumerate(circuit):
        noisy.append(op)
        for qubit in op.qubits:
            if (index, qubit) in errors:
                noisy.add(PAULI_ERRORS[errors[index, qubit] - 1], [qubit])
    return noisy


class NoisySimulator:
    """Trajectory (Monte-Carlo Pauli injection) simulation of a noisy device."""

    def __init__(self, device: DeviceModel, seed: Optional[int] = None) -> None:
        self._device = device
        self._rng = np.random.default_rng(seed)

    @property
    def device(self) -> DeviceModel:
        return self._device

    # ------------------------------------------------------------------ compilation
    def compile(self, circuit: Circuit, route: bool = True) -> Circuit:
        """Decompose to the native basis and (optionally) route onto the coupling map."""
        if circuit.num_qubits > self._device.num_qubits:
            raise SimulationError(
                f"circuit needs {circuit.num_qubits} qubits but device "
                f"{self._device.name} has {self._device.num_qubits}"
            )
        compiled = decompose_to_basis(circuit)
        if route and circuit.num_qubits == self._device.num_qubits:
            compiled = route_to_coupling_map(compiled, self._device.coupling)
            compiled = decompose_to_basis(compiled)
        return compiled

    # ------------------------------------------------------------------ execution
    def _apply_readout_error(self, counts: Dict[str, int]) -> Dict[str, int]:
        error = self._device.noise.readout_error
        if error <= 0.0:
            return counts
        flipped: Dict[str, int] = {}
        for bitstring, count in counts.items():
            for _ in range(count):
                bits = list(bitstring)
                for position, bit in enumerate(bits):
                    if self._rng.random() < error:
                        bits[position] = "1" if bit == "0" else "0"
                key = "".join(bits)
                flipped[key] = flipped.get(key, 0) + 1
        return flipped

    def run_counts(
        self,
        circuit: Circuit,
        shots: int,
        trajectories: int = 20,
        route: bool = True,
    ) -> Dict[str, int]:
        """Execute ``circuit`` with noise and return measurement counts.

        The shot budget is split over ``trajectories`` independent noise realisations
        (each realisation is simulated exactly and then sampled).
        """
        if shots <= 0:
            raise SimulationError("shots must be positive")
        compiled = self.compile(circuit, route=route)
        shots_per_trajectory = max(1, shots // max(1, trajectories))
        merged: Dict[str, int] = {}
        drawn = 0
        while drawn < shots:
            batch = min(shots_per_trajectory, shots - drawn)
            noisy = inject_pauli_noise(compiled, self._device.noise, self._rng)
            if any(not op.is_unitary for op in noisy):
                probabilities = simulate_dynamic(noisy).probabilities()
            else:
                probabilities = simulate_statevector(noisy).probabilities()
            counts = sample_counts(probabilities, batch, self._rng)
            counts = self._apply_readout_error(counts)
            for key, value in counts.items():
                merged[key] = merged.get(key, 0) + value
            drawn += batch
        return merged

    def run_expectation(
        self,
        circuit: Circuit,
        observable: PauliObservable,
        shots: int,
        trajectories: int = 20,
        route: bool = True,
    ) -> float:
        """Noisy estimate of an expectation value (per-term basis rotation + counts)."""
        total = 0.0
        for term in observable.terms:
            if not term.paulis:
                total += term.coefficient
                continue
            rotated = circuit.copy()
            rotated.compose(basis_rotation_circuit(term, circuit.num_qubits))
            counts = self.run_counts(rotated, shots, trajectories=trajectories, route=route)
            diag = diagonalized_term(term)
            total += expectation_from_counts(
                counts, PauliObservable((diag,)), circuit.num_qubits
            )
        return float(total)
