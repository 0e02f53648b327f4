"""Batched, parallel variant-execution engine.

This subsystem decouples *what* must be executed (every ``(subcircuit, settings,
pauli_term)`` variant a reconstruction contraction will need) from *how* it is
executed (serially, or chunked across a process pool, with request-level
dedup and a shared bounded result cache).  See :mod:`repro.engine.engine` for the
orchestrator, :mod:`repro.engine.requests` for fingerprints and deterministic
seeding, :mod:`repro.engine.allocation` for shot-budget allocation across a
variant batch (finite-shot evaluation), :mod:`repro.engine.pruning` for
truncated contraction (dropping small-|weight| variants with a bounded bias),
:mod:`repro.engine.devices` for device-aware multi-backend routing (width
feasibility, routing policies, per-device utilization), and
:mod:`repro.engine.config` for the tuning knobs.
"""

from .allocation import (
    ALLOCATION_POLICIES,
    ShotAllocation,
    ShotPlan,
    allocate_shots,
    largest_remainder_split,
    neyman_weight,
)
from .cache import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_CACHE_SIZE,
    ResultCache,
    build_cache_key,
    build_cache_namespace,
    scoped_cache_namespace,
)
from .config import OVERHEAD_MODES, EngineConfig
from .devices import (
    ROUTING_POLICIES,
    DeviceFarm,
    DeviceSpec,
    DeviceUtilization,
)
from .engine import EngineStats, ParallelEngine
from .pruning import PRUNING_POLICIES, PruningPolicy, PruningReport, prune_requests
from .requests import (
    RequestBatch,
    VariantResult,
    request_key,
    seed_from_fingerprint,
    variant_fingerprint,
)

__all__ = [
    "ALLOCATION_POLICIES",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_CACHE_SIZE",
    "DeviceFarm",
    "DeviceSpec",
    "DeviceUtilization",
    "EngineConfig",
    "EngineStats",
    "OVERHEAD_MODES",
    "PRUNING_POLICIES",
    "ParallelEngine",
    "PruningPolicy",
    "PruningReport",
    "ROUTING_POLICIES",
    "RequestBatch",
    "ResultCache",
    "ShotAllocation",
    "ShotPlan",
    "VariantResult",
    "allocate_shots",
    "build_cache_key",
    "build_cache_namespace",
    "largest_remainder_split",
    "neyman_weight",
    "scoped_cache_namespace",
    "prune_requests",
    "request_key",
    "seed_from_fingerprint",
    "variant_fingerprint",
]
