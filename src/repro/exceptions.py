"""Exception hierarchy for the QRCC reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so callers can
catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Raised for malformed circuits or invalid circuit operations."""


class SimulationError(ReproError):
    """Raised when a simulation cannot be carried out."""


class ModelError(ReproError):
    """Raised for malformed optimisation models (bad variables / constraints)."""


class SolverError(ReproError):
    """Raised when an ILP backend fails or returns an unusable status."""


class InfeasibleError(SolverError):
    """Raised when a model is proven infeasible (the paper's ``no-solution`` case)."""


class SearchTimeoutError(SolverError):
    """Raised when the solver hit its time limit without finding any solution."""


class CuttingError(ReproError):
    """Raised for invalid cut specifications or impossible cut placements."""


class ReconstructionError(ReproError):
    """Raised when subcircuit results cannot be recombined."""


class AllocationError(ReproError):
    """Raised when a shot budget cannot be split across a variant batch."""


class DeviceError(ReproError):
    """Raised for invalid device specifications or farm configurations."""


class InfeasibleVariantError(DeviceError):
    """Raised when a subcircuit variant is wider than every device in a farm.

    The message names the variant's post-reuse width and the widest available
    device, so the caller knows exactly how many qubits are missing (and that a
    deeper cut / more qubit reuse — not more devices of the same size — is what
    would make the plan feasible).
    """


class ConfigError(ReproError):
    """Raised for invalid engine, streaming or stopping configurations.

    :class:`~repro.engine.EngineConfig` raises it at construction for every
    knob value or knob combination it can check on its own.  In particular,
    a :class:`~repro.service.StoppingRule` that could never terminate a
    session (no shot budget, no deadline, no round cap) is rejected here — at
    construction time — instead of hanging a service queue later.
    """


class PruningError(ReproError):
    """Raised for invalid variant-pruning policies or parameters."""


class WorkloadError(ReproError):
    """Raised for invalid workload/benchmark-generator parameters."""
