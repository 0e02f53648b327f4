"""Tests for the exact and noisy variant executors."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cutting import CutReconstructor, NoisyExecutor, extract_subcircuits
from repro.cutting import executors as executors_module
from repro.cutting.variants import VariantBuilder, VariantSettings
from repro.engine import ParallelEngine
from repro.exceptions import CuttingError
from repro.simulator import DeviceModel, NoiseModel, inject_pauli_noise
from repro.utils.pauli import PauliString

from reference_executors import ExactExecutor, ScalarNoisyExecutor, scalar_pauli_noise
from strategies import reuse_variants, wire_cut_tables


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

    @pytest.mark.parametrize("shots", [0, -4])
    def test_invalid_shots_rejected(self, shots):
        # shots=-4 used to return NaN (1/sqrt(-4)) and shots=0 to mean "no shot
        # noise"; None is the one spelling of that.
        with pytest.raises(CuttingError, match="shots"):
            NoisyExecutor(DeviceModel(2, ((0, 1),)), shots=shots)


def _assert_noisy_results_equal(variants, executor, reference):
    """Values equal with ``==``; distributions byte-equal once ``-0.0`` reads ``0.0``."""
    for variant in variants:
        result = executor.execute_variant(variant)
        expected = reference.execute_variant(variant)
        assert result.value == expected.value
        if expected.distribution is None:
            assert result.distribution is None
        else:
            assert (result.distribution + 0.0).tobytes() == (
                expected.distribution + 0.0
            ).tobytes()


#: Error rates high enough that most trajectories carry several errors.
_heavy_noise = st.builds(
    NoiseModel,
    two_qubit_error=st.floats(0.2, 0.9),
    single_qubit_error=st.floats(0.05, 0.6),
    readout_error=st.just(0.0),
)


class TestNoisyTrajectoryOracle:
    """NoisyExecutor equals the scalar trajectory walk, byte for byte."""

    @given(
        variant=reuse_variants(),
        noise=_heavy_noise,
        shots=st.one_of(st.none(), st.integers(1, 100_000)),
        trajectories=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_reuse_variants(self, variant, noise, shots, trajectories, seed):
        device = DeviceModel(3, ((0, 1), (1, 2)), noise, "oracle-device")
        args = (device, shots, trajectories, seed)
        _assert_noisy_results_equal(
            [variant], NoisyExecutor(*args), ScalarNoisyExecutor(*args)
        )

    @given(
        tables=wire_cut_tables(),
        noise=_heavy_noise,
        shots=st.one_of(st.none(), st.integers(1, 100_000)),
        trajectories=st.integers(1, 6),
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_enumerated_table_rows(self, tables, noise, shots, trajectories):
        device = DeviceModel(6, (), noise, "oracle-device")
        variants = [table.variants[row] for table in tables for row in (0, len(table) - 1)]
        args = (device, shots, trajectories, 7)
        _assert_noisy_results_equal(variants, NoisyExecutor(*args), ScalarNoisyExecutor(*args))

    @given(variant=reuse_variants(), noise=_heavy_noise, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_inject_pauli_noise_draws_one_error_at_a_time(self, variant, noise, seed):
        # NoisySimulator's trajectories: the same circuit, and the generator
        # left where the one-error-at-a-time loop leaves it.
        circuit = variant.circuit
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert list(inject_pauli_noise(circuit, noise, ours)) == list(
            scalar_pauli_noise(circuit, noise, theirs)
        )
        assert ours.random() == theirs.random()

    @given(variant=reuse_variants(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tiny_batch_budget_splits_passes(self, variant, seed):
        # A budget below one row's elements leaves one trajectory class per pass.
        device = DeviceModel(3, ((0, 1), (1, 2)), NoiseModel(0.5, 0.3, 0.0), "oracle-device")
        args = (device, 1024, 6, seed)
        with mock.patch.object(executors_module, "DEFAULT_MAX_BATCH_ELEMENTS", 1):
            _assert_noisy_results_equal(
                [variant], NoisyExecutor(*args), ScalarNoisyExecutor(*args)
            )
