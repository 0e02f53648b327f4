"""Scalar executors: the references the batched simulator is pinned to.

The library evaluates every variant through the batched simulator of
:mod:`repro.simulator.batched`: exact values through
:class:`~repro.cutting.BatchedExactExecutor`, noisy trajectories as rows of
one batched program per variant in :class:`~repro.cutting.NoisyExecutor`.
This module keeps the scalar walks those paths reproduce byte for byte:

* :class:`ExactExecutor` runs each variant's circuit alone through
  :class:`~repro.simulator.dynamic.BranchingSimulator` and reads its value and
  distribution off the branch list;
* :class:`ScalarNoisyExecutor` is :class:`~repro.cutting.NoisyExecutor` with
  its trajectories walked one at a time: one injected circuit per trajectory
  (:func:`scalar_pauli_noise`, the draw loop
  :func:`~repro.simulator.noise.draw_pauli_errors` reproduces), each through
  the branching simulator.

The tests and the ``bench_batched``/``bench_engine`` benchmarks compare the
library's results with these; the benches also time :class:`ExactExecutor`
as the scalar baseline.

``tests/`` has no ``__init__.py``, so pytest puts it on ``sys.path``; the
benches insert it there themselves.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Type

import numpy as np

from repro.circuits import Circuit
from repro.cutting import NoisyExecutor, SubcircuitVariant, VariantExecutor
from repro.engine import ResultCache, VariantResult, request_key
from repro.exceptions import CuttingError
from repro.simulator import BranchedResult, BranchingSimulator, NoiseModel

__all__ = [
    "ExactExecutor",
    "ScalarNoisyExecutor",
    "branch_output_index",
    "scalar_pauli_noise",
    "signed_distribution",
    "signed_value",
]


def signed_value(result: BranchedResult) -> float:
    """Sign-weighted expectation of a branched result (its recorded ±1 outcomes)."""
    return result.expectation_of_signs()


def branch_output_index(branch: Any, variant: SubcircuitVariant) -> int:
    """Basis index of a branch's recorded outcomes over the variant's output qubits."""
    index = 0
    for position, qubit in enumerate(variant.output_qubit_order):
        outcome = branch.outcomes.get(f"out:{qubit}")
        if outcome is None:
            raise CuttingError(
                f"variant for subcircuit {variant.subcircuit_index} did not record "
                f"an outcome for original qubit {qubit}"
            )
        index |= outcome << position
    return index


def signed_distribution(result: BranchedResult, variant: SubcircuitVariant) -> np.ndarray:
    """Quasi-distribution over the variant's output qubits from recorded outcomes."""
    distribution = np.zeros(2 ** len(variant.output_qubit_order))
    for branch in result.branches:
        distribution[branch_output_index(branch, variant)] += branch.sign * branch.probability
    return distribution


def scalar_pauli_noise(circuit: Circuit, noise: NoiseModel, rng: np.random.Generator) -> Circuit:
    """One noise realisation, drawn one error at a time: after every
    non-identity unitary, each operand suffers an X, Y or Z error with the
    model's per-gate probability."""
    noisy = Circuit(circuit.num_qubits, f"{circuit.name}_noisy")
    for op in circuit:
        noisy.append(op)
        if not op.is_unitary or op.is_identity:
            continue
        error_rate = noise.two_qubit_error if op.is_two_qubit else noise.single_qubit_error
        for qubit in op.qubits:
            if rng.random() < error_rate:
                noisy.add(("x", "y", "z")[rng.integers(0, 3)], [qubit])
    return noisy


class ExactExecutor(VariantExecutor):
    """Exact, noise-free evaluation through the scalar branching simulator."""

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        super().__init__(cache)
        self._simulator = BranchingSimulator()

    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        result = self._simulator.run(variant.circuit)
        distribution = (
            signed_distribution(result, variant) if variant.mode == "probability" else None
        )
        return VariantResult(value=signed_value(result), distribution=distribution)


class ScalarNoisyExecutor(NoisyExecutor):
    """:class:`~repro.cutting.NoisyExecutor` walking one trajectory at a time.

    Same constructor, seeds and shot noise; its results live under their own
    cache namespace, so a shared cache never hands one executor's result to
    the other.
    """

    def cache_namespace(self) -> str:
        return "scalar-" + super().cache_namespace()

    def spawn_spec(self) -> Tuple[Type["ScalarNoisyExecutor"], Tuple]:
        return ScalarNoisyExecutor, super().spawn_spec()[1]

    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        if seed is None:
            seed = self.seed_for(request_key(variant))
        rng = np.random.default_rng(seed)
        compiled = self._prepare(variant)
        simulator = BranchingSimulator()
        values: List[float] = []
        distribution_total: Optional[np.ndarray] = None
        if variant.mode == "probability":
            distribution_total = np.zeros(2 ** len(variant.output_qubit_order))
        for _ in range(self._trajectories):
            result = simulator.run(scalar_pauli_noise(compiled, self._device.noise, rng))
            values.append(signed_value(result))
            if distribution_total is not None:
                distribution_total += signed_distribution(result, variant)
        value = float(np.mean(values))
        distribution: Optional[np.ndarray] = None
        if distribution_total is not None:
            distribution = distribution_total / self._trajectories
        if self._shots:
            sigma = 1.0 / np.sqrt(self._shots)
            value += float(rng.normal(0.0, sigma))
            if distribution is not None:
                distribution = distribution + rng.normal(0.0, sigma, size=distribution.shape)
        return VariantResult(value=value, distribution=distribution)
