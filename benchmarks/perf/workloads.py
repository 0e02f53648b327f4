"""The perf benchmark's four workloads: seeded inputs, settings and correctness checks.

Each workload fixes its circuit *structures* and draws only angles (and, for
the sampled workload, the sampling seed) from ``numpy.random.default_rng(seed)``.
Cut search, variant counts and simulation cost depend on the structure alone,
so every seed costs the same work: runs at different seeds differ by machine
noise only, and a change that moves a metric moves it on every seed.  The
program under test only ever receives the generated circuits.

A workload is measured in whole *rounds*: one round is its fixed list of
structures (one structure for three of the four workloads), so a timed run
always covers the same mix whatever the run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.circuits import Circuit
from repro.core import CutConfig, evaluate_workload
from repro.engine import EngineConfig
from repro.service import StoppingRule, StreamingConfig
from repro.simulator import simulate_statevector
from repro.workloads import Workload, WorkloadKind
from repro.workloads.graphs import barabasi_albert_graph, regular_graph
from repro.workloads.qaoa import maxcut_observable, qaoa_circuit
from repro.workloads.vqe import hydrogen_chain_observable, two_local_ansatz

#: Exact probability-mode reconstruction vs the uncut statevector.
PROBABILITY_TOLERANCE = 1e-10
#: Exact expectation-mode reconstruction vs the uncut statevector.
EXPECTATION_TOLERANCE = 1e-9
#: A sampled estimate may miss the exact value by this many CI half-widths ...
HALF_WIDTHS_ALLOWED = 4.0
#: ... or by this much, whichever is larger.  The 8-chunk interval is itself
#: noisy: at 2**22 shots the error reached 0.11 and 1.6 half-widths over 120
#: probe evaluations, so this floor is about ten standard errors.
SAMPLED_ERROR_FLOOR = 0.3
#: Mass the dynamic-definition zoom must cover on the peaked chain (~0.95 measured).
MIN_COVERED_MASS = 0.5
#: Slack on dynamic-definition bin sums and signs.
BIN_TOLERANCE = 1e-9

#: Fixed graph seeds of the expect-gate QAOA structures (cheap, distinct cut plans).
REG_GRAPH_SEED = 5
BAR_GRAPH_SEED = 0
#: Fixed coefficient seed of the synthetic hydrogen-chain observables.
VQE_OBSERVABLE_SEED = 5


@dataclass(frozen=True)
class Instance:
    """One evaluation: a workload plus the settings it runs under.

    ``reference`` is whatever the workload's check compares against: the exact
    probability vector, the exact expectation value, or (dd-wide) the RY
    angles that determine the chain's distribution in closed form.
    """

    workload: Workload
    cut_config: CutConfig
    engine_config: EngineConfig
    force_greedy: bool = False
    reference: Any = None

    def evaluate(self) -> Any:
        return evaluate_workload(
            self.workload,
            self.cut_config,
            compute_reference=False,
            force_greedy=self.force_greedy,
            engine_config=self.engine_config,
        )


# --------------------------------------------------------------------------- circuits
def qft_ladder(num_qubits: int, rng: np.random.Generator) -> Circuit:
    """The QFT gate ladder with seeded angles.

    Same operations on the same qubits in the same order as the textbook QFT
    (so the same cut plan), with each Hadamard replaced by a seeded RY (a
    non-uniform output distribution to check) and each controlled-phase angle
    drawn from the seed.  RY angles stay away from 0 and pi so no measurement
    branch is pruned and every seed simulates the same branch count.
    """
    circuit = Circuit(num_qubits, f"qft_ladder_{num_qubits}")
    for target in range(num_qubits):
        circuit.ry(float(rng.uniform(0.3, math.pi - 0.3)), target)
        for offset in range(1, num_qubits - target):
            circuit.cp(float(rng.uniform(0.1, math.pi)), target + offset, target)
    return circuit


def peaked_chain(num_qubits: int, rng: np.random.Generator) -> Tuple[Circuit, Tuple[float, ...]]:
    """A CX/RZ ladder over small RY rotations: mass concentrates near ``|0...0>``.

    Returns the circuit and its RY angles, which fix the output distribution
    in closed form (see :func:`chain_probability`).
    """
    circuit = Circuit(num_qubits, f"peaked_chain_{num_qubits}")
    angles = tuple(float(rng.uniform(0.05, 0.15)) for _ in range(num_qubits))
    for qubit, angle in enumerate(angles):
        circuit.ry(angle, qubit)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
        circuit.rz(float(rng.uniform(0.0, 2.0 * math.pi)), qubit + 1)
    return circuit, angles


def chain_probability(angles: Sequence[float], index: int) -> float:
    """Exact probability of basis state ``index`` (bit q = qubit q) of the chain.

    RZ is diagonal and the CX ladder permutes basis states, so output bit
    ``y_q`` is the parity of input bits ``x_0..x_q``; each ``x_q`` is an
    independent RY outcome with ``P(x_q = 1) = sin(theta_q / 2) ** 2``.
    """
    probability = 1.0
    previous = 0
    for qubit, angle in enumerate(angles):
        bit = (index >> qubit) & 1
        one = math.sin(angle / 2.0) ** 2
        probability *= one if bit ^ previous else 1.0 - one
        previous = bit
    return probability


def _qaoa(graph: nx.Graph, rng: np.random.Generator, label: str) -> Workload:
    gamma, beta = (float(value) for value in rng.uniform(0.1, math.pi / 2, size=2))
    return Workload(
        name=label,
        acronym="QAOA",
        circuit=qaoa_circuit(graph, gammas=[gamma], betas=[beta]),
        kind=WorkloadKind.EXPECTATION,
        observable=maxcut_observable(graph),
    )


def _vqe(num_qubits: int, rng: np.random.Generator) -> Workload:
    angles = [float(value) for value in rng.uniform(0.0, math.pi, size=2 * num_qubits)]
    return Workload(
        name=f"vqe_{num_qubits}",
        acronym="VQE",
        circuit=two_local_ansatz(num_qubits, layers=1, angles=angles),
        kind=WorkloadKind.EXPECTATION,
        observable=hydrogen_chain_observable(num_qubits, seed=VQE_OBSERVABLE_SEED),
    )


def _exact_reference(workload: Workload) -> Any:
    state = simulate_statevector(workload.circuit)
    if workload.kind == WorkloadKind.EXPECTATION:
        return state.expectation(workload.observable)
    return state.probabilities()


# --------------------------------------------------------------------------- instances
def _prob_wire(rng: np.random.Generator, size: int = 7, device: int = 4) -> Instance:
    workload = Workload(
        name=f"qft_ladder_{size}",
        acronym="QFT",
        circuit=qft_ladder(size, rng),
        kind=WorkloadKind.PROBABILITY,
    )
    return Instance(
        workload=workload,
        cut_config=CutConfig(device_size=device, max_subcircuits=3),
        engine_config=EngineConfig(),
        reference=_exact_reference(workload),
    )


def _expect(workload: Workload, device: int) -> Instance:
    return Instance(
        workload=workload,
        cut_config=CutConfig(device_size=device, enable_gate_cuts=True),
        engine_config=EngineConfig(),
        reference=_exact_reference(workload),
    )


def _expect_gate_round(rng: np.random.Generator) -> List[Instance]:
    return [
        _expect(_vqe(8, rng), 5),
        _expect(_qaoa(regular_graph(8, 3, REG_GRAPH_SEED), rng, "reg_8"), 5),
        _expect(_qaoa(barabasi_albert_graph(8, 2, BAR_GRAPH_SEED), rng, "bar_8"), 5),
        _expect(_vqe(10, rng), 6),
    ]


def _qaoa_sweep(rng: np.random.Generator, size: int = 8, device: int = 4) -> Instance:
    workload = _qaoa(nx.cycle_graph(size), rng, f"ring_{size}")
    return Instance(
        workload=workload,
        cut_config=CutConfig(device_size=device, enable_gate_cuts=True),
        engine_config=EngineConfig(
            shots=2**22,
            allocation="variance",
            optimize_overhead="weights",
            streaming=StreamingConfig(rounds=8),
            # min_rounds=8: the target is checked every round but may only fire
            # on the last, so every seed pays for the same eight rounds.
            stopping=StoppingRule(target_half_width=0.05, min_rounds=8, max_rounds=8),
            seed=int(rng.integers(2**31)),
        ),
        reference=_exact_reference(workload),
    )


def _dd_wide(
    rng: np.random.Generator, size: int = 24, device: int = 6, qubit_limit: int = 10
) -> Instance:
    circuit, angles = peaked_chain(size, rng)
    workload = Workload(
        name=circuit.name, acronym="CHAIN", circuit=circuit, kind=WorkloadKind.PROBABILITY
    )
    return Instance(
        workload=workload,
        cut_config=CutConfig(device_size=device, max_subcircuits=8),
        engine_config=EngineConfig(qubit_limit=qubit_limit, max_workers=2),
        force_greedy=True,
        reference=angles,
    )


# --------------------------------------------------------------------------- checks
def check_probabilities(instance: Instance, result: Any) -> Optional[str]:
    if result.probabilities is None:
        return "no probability vector"
    error = float(np.max(np.abs(result.probabilities - instance.reference)))
    if not error <= PROBABILITY_TOLERANCE:
        return f"max |dp| = {error:.3e} > {PROBABILITY_TOLERANCE:.0e}"
    return None


def check_expectation(instance: Instance, result: Any) -> Optional[str]:
    if result.expectation_value is None:
        return "no expectation value"
    error = abs(result.expectation_value - instance.reference)
    if not error <= EXPECTATION_TOLERANCE:
        return f"|dE| = {error:.3e} > {EXPECTATION_TOLERANCE:.0e}"
    return None


def check_sampled(instance: Instance, result: Any) -> Optional[str]:
    if result.expectation_value is None or result.half_width is None:
        return "no sampled estimate with a confidence interval"
    error = abs(result.expectation_value - instance.reference)
    allowed = max(HALF_WIDTHS_ALLOWED * result.half_width, SAMPLED_ERROR_FLOOR)
    if not error <= allowed:
        return f"|dE| = {error:.3e} > {allowed:.3e} (half-width {result.half_width:.3e})"
    return None


def check_dynamic(instance: Instance, result: Any) -> Optional[str]:
    dynamic = result.dynamic_result
    if dynamic is None or not dynamic.bins:
        return "no heavy bins"
    if not dynamic.covered_mass >= MIN_COVERED_MASS:
        return f"covered mass {dynamic.covered_mass:.3f} < {MIN_COVERED_MASS}"
    total = 0.0
    for heavy in dynamic.bins:
        if not heavy.probability >= -BIN_TOLERANCE:
            return f"bin {heavy.bitstring} has probability {heavy.probability:.3e}"
        exact = chain_probability(instance.reference, heavy.index)
        if not abs(heavy.probability - exact) <= BIN_TOLERANCE:
            return f"bin {heavy.bitstring}: {heavy.probability:.12f} != exact {exact:.12f}"
        total += heavy.probability
    if not total <= 1.0 + BIN_TOLERANCE:
        return f"bins sum to {total:.12f} > 1"
    return None


# --------------------------------------------------------------------------- registry
@dataclass(frozen=True)
class WorkloadSpec:
    """A workload: how to draw one round of instances and how to check a result.

    ``pool_rounds`` rounds are drawn during set-up: on a 2-vCPU VM a 60 s run
    never reaches the end of the pool (the timed loop wraps around if it does).
    """

    name: str
    draw_round: Callable[[np.random.Generator], List[Instance]]
    warmup: Callable[[np.random.Generator], Instance]
    check: Callable[[Instance, Any], Optional[str]]
    pool_rounds: int

    def pool(self, seed: int) -> List[List[Instance]]:
        rng = np.random.default_rng(seed)
        return [self.draw_round(rng) for _ in range(self.pool_rounds)]


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="prob-wire",
            draw_round=lambda rng: [_prob_wire(rng)],
            warmup=lambda rng: _prob_wire(rng, size=4, device=3),
            check=check_probabilities,
            pool_rounds=12,
        ),
        WorkloadSpec(
            name="expect-gate",
            draw_round=_expect_gate_round,
            warmup=lambda rng: _expect(_vqe(4, rng), 3),
            check=check_expectation,
            pool_rounds=24,
        ),
        WorkloadSpec(
            name="qaoa-sweep",
            draw_round=lambda rng: [_qaoa_sweep(rng)],
            warmup=lambda rng: _qaoa_sweep(rng, size=4, device=3),
            check=check_sampled,
            pool_rounds=80,
        ),
        WorkloadSpec(
            name="dd-wide",
            draw_round=lambda rng: [_dd_wide(rng)],
            warmup=lambda rng: _dd_wide(rng, size=8, device=3, qubit_limit=4),
            check=check_dynamic,
            pool_rounds=60,
        ),
    )
}
