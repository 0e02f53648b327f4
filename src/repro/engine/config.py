"""Configuration of the batched variant-execution engine.

These are the knobs :func:`repro.core.evaluate_workload`, the benchmark
harnesses (``--jobs``) and :class:`repro.engine.ParallelEngine` share.  They are
kept separate from :class:`repro.core.config.CutConfig` because they configure
*how* variants are executed, not *which* cuts are searched — the same cut plan
can be replayed under any engine configuration and must produce identical
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

if TYPE_CHECKING:  # The service layer sits above the engine; import only for types.
    from ..service.stopping import StoppingRule, StreamingConfig

from ..exceptions import ConfigError
from .allocation import ALLOCATION_POLICIES
from .cache import DEFAULT_CACHE_SIZE
from .devices import ROUTING_POLICIES, DeviceSpec
from .pruning import PruningPolicy

__all__ = ["EngineConfig", "OVERHEAD_MODES"]

#: Sampling-overhead optimization modes (see
#: :mod:`repro.cutting.shot_overhead`): ``"none"`` skips the pass and stays
#: bit-identical to the pre-optimizer pipeline; ``"weights"`` optimizes the
#: per-cut basis sampling weights.
OVERHEAD_MODES = ("none", "weights")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the batched parallel variant-execution engine.

    Attributes:
        max_workers: parallel workers for batch execution.  ``1`` (the default)
            executes in-process with no pool; ``None`` uses ``os.cpu_count()``.
            Sharded contraction uses the same worker budget and process pool.
            Exposed as ``--jobs`` by the benchmark harnesses.  When the
            platform cannot provide a pool (restricted sandboxes, missing
            semaphores), the pool breaks mid-batch or an executor cannot be
            pickled, the engine warns and finishes the batch serially; results
            are identical either way, only wall-clock changes.
        chunk_size: requests per worker task.  ``None`` auto-sizes to roughly
            four chunks per worker, which amortises submission overhead while
            keeping the pool load-balanced.
        cache_size: capacity (entries) of the shared LRU result cache; ``0``
            disables result caching entirely.  Applies when the engine creates
            its own default executor; an executor you construct yourself keeps
            the cache it was built with (pass ``cache=ResultCache(n)`` there).
        shots: total finite-shot budget for one evaluation (``None`` = exact
            execution, the default).  :func:`repro.core.evaluate_workload`
            splits the budget across the enumerated variant batch (see
            ``allocation``) and estimates every variant from samples through a
            :class:`~repro.cutting.sampling.SamplingExecutor`.  Unlike the other
            knobs, ``shots`` changes the *numbers* (they become statistical
            estimates) — but never the serial/parallel identity: at a fixed
            executor seed, results stay bit-identical for any worker count.
        allocation: how the shot budget is split across variants — ``"uniform"``,
            ``"weighted"`` (proportional to |contraction weight|) or
            ``"variance"`` (two-pass pilot + Neyman reallocation).  See
            :mod:`repro.engine.allocation`.  Ignored when ``shots`` is ``None``.
        pruning: truncated-contraction policy dropping small-|contraction-weight|
            variant requests before execution — ``"none"`` (default, exact
            contraction), ``"threshold"``, ``"budget_fraction"`` (bare names use
            documented default parameters) or an explicit
            :class:`~repro.engine.pruning.PruningPolicy` (required for
            ``top_k``).  Unlike the parallelism knobs, pruning changes the
            numbers: the reconstruction acquires a bias that is bounded a
            priori by :attr:`~repro.engine.pruning.PruningReport.bias_bound`
            (reported on the evaluation result).  See
            :mod:`repro.engine.pruning`.
        devices: a fleet of :class:`~repro.engine.devices.DeviceSpec` forming a
            :class:`~repro.engine.devices.DeviceFarm` — every variant is routed
            to a device whose ``max_qubits`` fits the variant's post-reuse
            width, and a variant wider than every device raises
            :class:`~repro.exceptions.InfeasibleVariantError`.  ``None`` (the
            default) keeps the single implicit executor: no routing, no width
            check, bit-identical to the pre-farm engine.  Any sequence is
            accepted and normalised to a tuple.  A heterogeneous farm (a device
            with ``noise`` or ``executor_factory``) runs its own backends and
            cannot honour a per-variant shot allocation, so it rejects
            ``shots``.  See :mod:`repro.engine.devices`.
        routing: farm routing policy — ``"round_robin"``, ``"least_loaded"``
            or ``"best_fit"`` (the default).  Ignored when ``devices`` is
            ``None``.
        streaming: a :class:`~repro.service.StreamingConfig` making finite-shot
            evaluations consume their budget in cumulative rounds through an
            :class:`~repro.service.EvaluationSession` (requires ``shots``).
            ``None`` (the default) keeps the one-shot batch path.  Run to
            completion without re-planning, streaming is bit-identical to the
            batch path — the knob trades nothing unless a stopping rule fires.
        stopping: a :class:`~repro.service.StoppingRule` checked between
            streaming rounds (requires ``shots``; implies a default
            ``streaming`` configuration when that is unset).  Early termination
            changes the numbers — fewer shots are spent — and records its
            reason on ``EvaluationResult.termination_reason``.
        qubit_limit: dynamic-definition reconstruction for probability
            workloads: never materialise the ``2**n`` output vector, contract
            into binned distributions of at most ``2**qubit_limit`` elements
            per recursion level and zoom into the heavy bins (see
            :mod:`repro.cutting.dynamic_definition`).  ``None`` (the default)
            reconstructs the full vector.  The evaluation result then carries
            a sparse :class:`~repro.cutting.DynamicDefinitionResult` on
            ``EvaluationResult.dynamic_result`` instead of ``probabilities``.
        recursion_depth: recursion levels for the dynamic-definition zoom
            (requires ``qubit_limit``); ``None`` spends exactly enough levels
            to fully resolve every zoomed path.
        seed: base seed for finite-shot sampling (requires ``shots``; ``None``,
            the default, derives per-variant seeds from fingerprints alone).
            It seeds the sampling executor an evaluation builds itself; an
            evaluation given its own executor or engine rejects a config seed
            with :class:`~repro.exceptions.CuttingError` (seed those at
            construction instead).
        optimize_overhead: cut-parameter sampling-overhead minimization mode —
            ``"none"`` (the default: skip the pass, bit-identical to the
            pre-optimizer pipeline) or ``"weights"`` (optimize the free
            measurement/preparation basis weights at every cut, ShotQC-style,
            and feed the reduced-variance per-variant weights to the shot
            allocator, the pruning scorer and the streaming re-planner; see
            :mod:`repro.cutting.shot_overhead`).  With ``"weights"`` and a
            ``shots`` budget under the default ``"uniform"`` allocation, the
            split is upgraded to ``"weighted"`` over the optimized weights —
            a uniform split would ignore them (recorded on
            ``OverheadReport.effective_allocation``).
    """

    max_workers: Optional[int] = 1
    chunk_size: Optional[int] = None
    cache_size: int = DEFAULT_CACHE_SIZE
    shots: Optional[int] = None
    allocation: str = "uniform"
    pruning: Union[str, PruningPolicy] = "none"
    devices: Optional[Sequence[DeviceSpec]] = None
    routing: str = "best_fit"
    streaming: Optional[StreamingConfig] = None
    stopping: Optional[StoppingRule] = None
    qubit_limit: Optional[int] = None
    recursion_depth: Optional[int] = None
    seed: Optional[int] = None
    optimize_overhead: str = "none"

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1 or None, got {self.max_workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1 or None, got {self.chunk_size}")
        if self.cache_size < 0:
            raise ConfigError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.shots is not None and self.shots < 1:
            raise ConfigError(f"shots must be >= 1 or None, got {self.shots}")
        if self.allocation not in ALLOCATION_POLICIES:
            raise ConfigError(
                f"allocation must be one of {ALLOCATION_POLICIES}, got {self.allocation!r}"
            )
        # Normalising here (rather than at use sites) surfaces bad policy names
        # or a bare "top_k" at construction time with a real message.
        PruningPolicy.resolve(self.pruning)
        if self.routing not in ROUTING_POLICIES:
            raise ConfigError(
                f"routing must be one of {ROUTING_POLICIES}, got {self.routing!r}"
            )
        if self.streaming is not None or self.stopping is not None:
            # Imported lazily: repro.service sits above the engine layer, and
            # these fields are None on every non-streaming configuration.
            from ..service.stopping import StoppingRule, StreamingConfig

            if self.streaming is not None and not isinstance(self.streaming, StreamingConfig):
                raise ConfigError(
                    f"streaming must be a StreamingConfig or None, "
                    f"got {type(self.streaming).__name__}"
                )
            if self.stopping is not None and not isinstance(self.stopping, StoppingRule):
                raise ConfigError(
                    f"stopping must be a StoppingRule or None, "
                    f"got {type(self.stopping).__name__}"
                )
            if self.shots is None:
                raise ConfigError(
                    "streaming/stopping need a finite shot budget (shots=...): exact "
                    "evaluation produces its answer in one pass and has no rounds to "
                    "stream or terminate early"
                )
        if self.qubit_limit is not None and self.qubit_limit < 1:
            raise ConfigError(f"qubit_limit must be >= 1 or None, got {self.qubit_limit}")
        if self.recursion_depth is not None:
            if self.recursion_depth < 1:
                raise ConfigError(
                    f"recursion_depth must be >= 1 or None, got {self.recursion_depth}"
                )
            if self.qubit_limit is None:
                raise ConfigError(
                    "recursion_depth configures the dynamic-definition zoom and "
                    "needs qubit_limit"
                )
        if self.seed is not None and self.shots is None:
            raise ConfigError("seed configures finite-shot sampling and needs shots")
        if self.optimize_overhead not in OVERHEAD_MODES:
            raise ConfigError(
                f"optimize_overhead must be one of {OVERHEAD_MODES}, "
                f"got {self.optimize_overhead!r}"
            )
        if self.devices is not None:
            object.__setattr__(self, "devices", tuple(self.devices))
            # Building a throwaway farm runs the full validation set (non-empty
            # fleet, DeviceSpec types, unique names) at construction time.
            from .devices import DeviceFarm

            farm = DeviceFarm(self.devices, self.routing)
            if self.shots is not None and farm.is_heterogeneous:
                raise ConfigError(
                    "shots cannot combine with a heterogeneous device farm (devices "
                    "with noise/executor_factory run their own backends and would "
                    "silently ignore the per-variant shot allocation); use devices "
                    "that share the engine executor, or drop shots"
                )

    def with_(self, **changes: Any) -> "EngineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
