"""End-to-end tests for the QRCC pipeline (cut -> execute -> reconstruct)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import CutConfig, cut_circuit, cut_circuit_cutqc, evaluate_workload
from repro.exceptions import CuttingError, InfeasibleError
from repro.workloads import make_workload


class TestCutCircuit:
    def test_plan_metrics_consistent(self):
        workload = make_workload("SPM", 6, depth=4)
        plan = cut_circuit(workload.circuit, CutConfig(device_size=4, max_subcircuits=2))
        assert plan.method == "ilp"
        assert plan.num_subcircuits == len(plan.subcircuits)
        assert plan.max_width <= 4
        assert plan.num_cuts == plan.num_wire_cuts + plan.num_gate_cuts
        assert plan.effective_cuts >= plan.num_wire_cuts
        assert plan.postprocessing_branches == 4**plan.num_wire_cuts * 6**plan.num_gate_cuts

    def test_plan_row_has_expected_keys(self):
        workload = make_workload("VQE", 5)
        plan = cut_circuit(workload.circuit, CutConfig(device_size=3, max_subcircuits=2))
        row = plan.row()
        for key in (
            "num_subcircuits",
            "num_wire_cuts",
            "num_gate_cuts",
            "effective_cuts",
            "max_two_qubit_gates",
            "max_width",
            "solve_time",
            "method",
        ):
            assert key in row

    def test_force_flags_are_exclusive(self):
        workload = make_workload("VQE", 5)
        with pytest.raises(CuttingError):
            cut_circuit(
                workload.circuit,
                CutConfig(device_size=3),
                force_ilp=True,
                force_greedy=True,
            )

    def test_force_greedy_uses_heuristic(self):
        workload = make_workload("SPM", 6, depth=4)
        plan = cut_circuit(
            workload.circuit,
            CutConfig(device_size=4, max_subcircuits=2),
            force_greedy=True,
        )
        assert plan.method == "greedy"
        plan.solution.validate()

    def test_cutqc_baseline_disables_reuse_and_gate_cuts(self):
        workload = make_workload("VQE", 6)
        try:
            plan = cut_circuit_cutqc(
                workload.circuit, CutConfig(device_size=4, max_subcircuits=3)
            )
        except InfeasibleError:
            pytest.skip("baseline has no solution at this size")
        assert plan.num_gate_cuts == 0
        assert not plan.config.enable_qubit_reuse
        assert plan.total_reuses == 0


class TestEvaluateWorkload:
    def test_expectation_workload_is_reconstructed_exactly(self):
        workload = make_workload("VQE", 6, layers=1)
        config = CutConfig(device_size=4, max_subcircuits=2, enable_gate_cuts=True)
        result = evaluate_workload(workload, config)
        assert result.expectation_error is not None
        assert result.expectation_error < 1e-8
        assert result.accuracy > 0.999
        assert result.num_variant_evaluations > 0

    def test_probability_workload_is_reconstructed_exactly(self):
        workload = make_workload("SPM", 6, depth=3)
        config = CutConfig(device_size=4, max_subcircuits=2)
        result = evaluate_workload(workload, config)
        error = np.max(np.abs(result.probabilities - result.reference_probabilities))
        assert error < 1e-8
        assert np.isclose(result.probabilities.sum(), 1.0, atol=1e-8)

    def test_gate_cuts_rejected_for_probability_workloads(self):
        workload = make_workload("QFT", 5)
        config = CutConfig(device_size=3, enable_gate_cuts=True)
        with pytest.raises(CuttingError):
            evaluate_workload(workload, config)

    def test_reference_can_be_skipped(self):
        workload = make_workload("VQE", 5, layers=1)
        config = CutConfig(device_size=3, max_subcircuits=2)
        result = evaluate_workload(workload, config, compute_reference=False)
        assert result.reference_expectation is None
        assert result.accuracy is None

    def test_qaoa_with_gate_cuts_end_to_end(self):
        workload = make_workload("REG", 6, degree=3, layers=1)
        config = CutConfig(
            device_size=4, max_subcircuits=2, enable_gate_cuts=True, max_gate_cuts=3
        )
        result = evaluate_workload(workload, config)
        assert result.expectation_error < 1e-8


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs more to load than the whole package; only the ILP
    # solve and the overhead polish need it, and they import it themselves.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = "import sys, repro; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"
