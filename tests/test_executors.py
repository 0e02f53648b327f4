"""Tests for the exact and noisy variant executors."""

import numpy as np
import pytest

from repro.cutting import CutReconstructor, ExactExecutor, NoisyExecutor, extract_subcircuits
from repro.cutting.variants import VariantBuilder, VariantSettings
from repro.engine import ParallelEngine
from repro.exceptions import CuttingError
from repro.simulator import DeviceModel, NoiseModel
from repro.utils.pauli import PauliString


def _variant(solution, subcircuit_index, mode="probability", term=None):
    specs = {s.index: s for s in extract_subcircuits(solution)}
    builder = VariantBuilder(solution, specs[subcircuit_index])
    spec = specs[subcircuit_index]
    settings = VariantSettings.build(
        {cut.identifier(): "Z" for cut in spec.upstream_cuts},
        {cut.identifier(): "zero" for cut in spec.downstream_cuts},
        {},
    )
    return builder.build(settings, mode, term)


class TestExactExecutor:
    def test_quasi_distribution_shape(self, chain_wire_cut_solution):
        executor = ExactExecutor()
        variant = _variant(chain_wire_cut_solution, 1)
        distribution = executor.quasi_distribution(variant)
        assert distribution.shape == (4,)  # two output qubits

    def test_caching_avoids_repeat_execution(self, chain_wire_cut_solution):
        executor = ExactExecutor()
        variant = _variant(chain_wire_cut_solution, 1)
        executor.quasi_distribution(variant)
        first = executor.executions
        executor.quasi_distribution(variant)
        assert executor.executions == first

    def test_expectation_value_of_trivial_term_is_probability_mass(
        self, chain_wire_cut_solution
    ):
        executor = ExactExecutor()
        variant = _variant(
            chain_wire_cut_solution, 1, mode="expectation", term=PauliString((), 1.0)
        )
        assert np.isclose(executor.expectation_value(variant), 1.0, atol=1e-10)


class TestNoisyExecutor:
    def _device(self, noise):
        return DeviceModel(4, ((0, 1), (1, 2), (2, 3)), noise, "test-device")

    def test_zero_noise_executor_matches_exact(self, chain_wire_cut_solution, zz_observable):
        exact_value = CutReconstructor(
            chain_wire_cut_solution, engine=ParallelEngine(ExactExecutor())
        ).reconstruct_expectation(zz_observable)
        noiseless = NoisyExecutor(
            self._device(NoiseModel(0.0, 0.0, 0.0)), shots=None, trajectories=1, seed=0
        )
        noisy_value = CutReconstructor(
            chain_wire_cut_solution, engine=ParallelEngine(noiseless)
        ).reconstruct_expectation(zz_observable)
        assert np.isclose(noisy_value, exact_value, atol=1e-9)

    def test_noise_perturbs_the_result(self, chain_wire_cut_solution, zz_observable):
        exact_value = CutReconstructor(chain_wire_cut_solution).reconstruct_expectation(
            zz_observable
        )
        noisy = NoisyExecutor(
            self._device(NoiseModel(0.3, 0.05, 0.0)), shots=256, trajectories=8, seed=1
        )
        noisy_value = CutReconstructor(
            chain_wire_cut_solution, engine=ParallelEngine(noisy)
        ).reconstruct_expectation(zz_observable)
        assert np.isfinite(noisy_value)
        assert abs(noisy_value - exact_value) > 1e-6

    def test_variant_wider_than_device_rejected(self, chain_wire_cut_solution):
        executor = NoisyExecutor(
            DeviceModel(1, (), NoiseModel(0, 0, 0), "tiny"), shots=None, trajectories=1
        )
        variant = _variant(chain_wire_cut_solution, 1)
        with pytest.raises(CuttingError):
            executor.quasi_distribution(variant)

    def test_invalid_trajectories_rejected(self):
        with pytest.raises(CuttingError):
            NoisyExecutor(DeviceModel(2, ((0, 1),)), trajectories=0)
