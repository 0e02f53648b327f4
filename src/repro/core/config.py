"""Configuration objects for the QRCC and CutQC formulations (Section 4.2.1).

The meta parameters mirror the paper: circuit size ``N`` is implied by the input
circuit, ``D`` is the device size, ``[C_min, C_max]`` bounds the number of
subcircuits, ``W_max`` / ``G_max`` bound the cut counts, ``delta`` trades
post-processing overhead against the fidelity proxy, and ``alpha`` / ``beta`` are the
linearised per-cut costs (3.25 and 4.2 in the paper, valid below 240 total cuts).

Execution-side knobs live in :class:`~repro.engine.EngineConfig` (re-exported here
for convenience): ``max_workers`` is the parallel worker count for variant batch
execution (the benchmark harnesses expose it as ``--jobs``; ``1`` = serial,
``None`` = all cores) of its process pool, ``chunk_size`` sets requests per worker
task (``None`` auto-sizes to about four chunks per worker), and ``cache_size`` bounds
the shared LRU variant-result cache (``0`` disables caching).  A platform without
worker-pool support degrades to serial execution with a warning.  Parallelism
settings never change the numbers — the same cut plan replayed at any worker count
produces bit-identical results — only the wall clock.

Finite-shot knobs: ``shots`` sets a total sampling budget per evaluation (the
Section 2.2 shots-based model — every subcircuit variant becomes a finite-sample
estimate through a :class:`~repro.cutting.sampling.SamplingExecutor`) and
``allocation`` picks how that budget is split across the enumerated variants
(``"uniform"``, ``"weighted"`` by |contraction weight|, or ``"variance"`` for
the two-pass pilot + Neyman reallocation; see :mod:`repro.engine.allocation`).
These *do* change the numbers — they become statistical estimates with
``O(1/sqrt(shots))`` error — but keep the serial/parallel identity: at a fixed
executor seed the result is bit-identical for any ``max_workers``.
:func:`~repro.core.pipeline.evaluate_workload` accepts ``shots`` / ``allocation``
/ ``seed`` per call, overriding the engine-config defaults.

Device-farm knobs: ``devices`` routes every variant onto a fleet of
width-limited backends (:class:`~repro.engine.DeviceSpec`) under a ``routing``
policy, modelling the paper's premise that the device's qubit width is the
binding constraint; see :mod:`repro.engine.devices`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..engine.config import EngineConfig
from ..exceptions import ModelError

__all__ = ["CutConfig", "EngineConfig", "QRCC_C", "QRCC_B"]

#: Linearised post-processing weight of one wire cut (paper Section 4.2.5).
DEFAULT_ALPHA = 3.25
#: Linearised post-processing weight of one gate cut.
DEFAULT_BETA = 4.2
#: Default slope of the fidelity proxy f(TE).
DEFAULT_FIDELITY_WEIGHT = 0.75


@dataclass(frozen=True)
class CutConfig:
    """Meta parameters of a cutting search.

    Attributes:
        device_size: number of physical qubits available (``D``).
        max_subcircuits: maximum number of subcircuits (``C_max``); the ILP may use
            fewer unless ``min_subcircuits`` forces otherwise.
        min_subcircuits: minimum number of non-empty subcircuits (``C_min``).
        max_wire_cuts / max_gate_cuts: cut budgets (``W_max`` / ``G_max``).
        delta: weight between post-processing cost (``delta``) and the fidelity proxy
            (``1 - delta``); ``delta = 1`` is QRCC-C, ``delta = 0.7`` is QRCC-B.
        enable_gate_cuts: allow gate cutting (only legal for expectation workloads).
        enable_qubit_reuse: QRCC's layer-based capacity constraint; ``False`` switches
            to the CutQC width model (one extra initialisation qubit per incoming cut,
            no reuse).
        alpha / beta: linearised per-cut cost weights.
        fidelity_weight: slope of the linear fidelity proxy ``f(TE)``.
        time_limit: solver wall-clock limit in seconds (``None`` = unlimited).
        mip_gap: relative MIP gap at which the solver may stop early.
    """

    device_size: int
    max_subcircuits: int = 3
    min_subcircuits: int = 1
    max_wire_cuts: int = 100
    max_gate_cuts: int = 100
    delta: float = 1.0
    enable_gate_cuts: bool = False
    enable_qubit_reuse: bool = True
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    fidelity_weight: float = DEFAULT_FIDELITY_WEIGHT
    time_limit: Optional[float] = None
    mip_gap: float = 0.0

    def __post_init__(self) -> None:
        if self.device_size < 2:
            raise ModelError("device_size must be at least 2")
        if self.max_subcircuits < 1:
            raise ModelError("max_subcircuits must be at least 1")
        if not 1 <= self.min_subcircuits <= self.max_subcircuits:
            raise ModelError("min_subcircuits must lie in [1, max_subcircuits]")
        if self.max_wire_cuts < 0 or self.max_gate_cuts < 0:
            raise ModelError("cut budgets must be non-negative")
        if not 0.0 < self.delta <= 1.0:
            raise ModelError("delta must be in (0, 1] (post-processing can never be ignored)")
        if self.alpha <= 0 or self.beta <= 0:
            raise ModelError("alpha and beta must be positive")

    def with_(self, **changes) -> "CutConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def QRCC_C(device_size: int, **overrides) -> CutConfig:
    """The paper's QRCC-C configuration: delta=1, post-processing cost only."""
    return CutConfig(device_size=device_size, delta=1.0, **overrides)


def QRCC_B(device_size: int, **overrides) -> CutConfig:
    """The paper's QRCC-B configuration: delta=0.7, post-processing + gate balancing."""
    return CutConfig(device_size=device_size, delta=0.7, **overrides)
