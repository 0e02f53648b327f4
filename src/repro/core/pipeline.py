"""End-to-end QRCC pipeline (Section 4): cut, execute, reconstruct, compare.

This is the main public entry point of the library:

* :func:`cut_circuit` — build the QR-aware DAG, formulate and solve the ILP (or the
  greedy heuristic for very large circuits), and return a :class:`CutPlan` with the
  paper's reporting metrics (#SC, #cuts, #MS, effective cuts, width, solve time),
* :func:`evaluate_workload` — additionally execute every subcircuit variant and
  reconstruct the original output (probability vector or expectation value),
* :func:`cut_circuit_cutqc` — the CutQC baseline: wire cuts only, no qubit reuse,
  one extra initialisation qubit per incoming cut.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits import Circuit
from ..cutting import (
    ContractionReport,
    CutReconstructor,
    CutSolution,
    DynamicDefinitionResult,
    GateCut,
    SamplingExecutor,
    SubcircuitSpec,
    VariantExecutor,
    WireCut,
    effective_wire_cuts,
    extract_subcircuits,
    postprocessing_cost,
)
from ..cutting.shot_overhead import OverheadReport
from ..engine import (
    ALLOCATION_POLICIES,
    DeviceSpec,
    EngineConfig,
    EngineStats,
    ParallelEngine,
    PruningPolicy,
    PruningReport,
    ResultCache,
    ShotAllocation,
    allocate_shots,
    prune_requests,
)
from ..exceptions import ConfigError, CuttingError
from ..simulator import simulate_statevector
from ..utils.timing import perf_clock
from ..workloads import Workload, WorkloadKind
from .config import CutConfig
from .formulation import CuttingFormulation
from .greedy import GreedyCutter
from .qr_dag import QRAwareDag

if TYPE_CHECKING:
    # repro.service layers *above* this module (the session subsumes the old
    # pipeline body); importing it at runtime would be circular.
    from ..service.stopping import StoppingRule, StreamingConfig

__all__ = ["CutPlan", "EvaluationResult", "cut_circuit", "cut_circuit_cutqc", "evaluate_workload"]

#: Above this padded-operation count the exact ILP is replaced by the greedy cutter
#: unless the caller explicitly forces the ILP.
DEFAULT_ILP_SIZE_LIMIT = 4000

#: Most cut decisions :func:`cut_circuit` keeps for reuse (least recently used
#: evicted first).  A parameter sweep needs one entry per structure.
PLAN_CACHE_SIZE = 128


@dataclass(frozen=True)
class _CutDecision:
    """The angle-free part of a :class:`CutSolution`: everything but its circuit."""

    op_subcircuit: Dict[int, int]
    wire_cuts: Tuple[WireCut, ...]
    gate_cuts: Tuple[GateCut, ...]
    gate_cut_placement: Dict[int, Tuple[int, int]]
    metadata: Dict[str, object]

    @classmethod
    def of(cls, solution: CutSolution) -> "_CutDecision":
        return cls(
            op_subcircuit=dict(solution.op_subcircuit),
            wire_cuts=tuple(solution.wire_cuts),
            gate_cuts=tuple(solution.gate_cuts),
            gate_cut_placement=dict(solution.gate_cut_placement),
            metadata=dict(solution.metadata),
        )

    def solution_over(self, padded: Circuit) -> CutSolution:
        """The decision applied to ``padded`` (fresh containers, validated)."""
        solution = CutSolution(
            circuit=padded,
            op_subcircuit=dict(self.op_subcircuit),
            wire_cuts=list(self.wire_cuts),
            gate_cuts=list(self.gate_cuts),
            gate_cut_placement=dict(self.gate_cut_placement),
            metadata=dict(self.metadata),
        )
        solution.validate()
        return solution


#: Cut decisions by circuit structure (see :func:`cut_circuit`).  Keys hold no
#: angles and values no circuits, so an entry is the same whichever angles
#: solved it first.
_PLAN_CACHE: "OrderedDict[Tuple[Any, ...], _CutDecision]" = OrderedDict()  # qrcclint: disable=mutable-default-arg -- deliberate process-local memo: the cut search reads only the structure key, entries are immutable once stored, access holds _PLAN_CACHE_LOCK, bounded by PLAN_CACHE_SIZE
_PLAN_CACHE_LOCK = threading.Lock()


def _cached_decision(key: Tuple[Any, ...]) -> Optional[_CutDecision]:
    with _PLAN_CACHE_LOCK:
        decision = _PLAN_CACHE.get(key)
        if decision is not None:
            _PLAN_CACHE.move_to_end(key)
        return decision


def _store_decision(key: Tuple[Any, ...], decision: _CutDecision) -> None:
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE[key] = decision
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > PLAN_CACHE_SIZE:
            _PLAN_CACHE.popitem(last=False)


@dataclass
class CutPlan:
    """A cutting decision plus the metrics every table in the paper reports."""

    circuit: Circuit
    config: CutConfig
    solution: CutSolution
    subcircuits: List[SubcircuitSpec]
    solve_time: float
    method: str

    @property
    def num_subcircuits(self) -> int:
        """#SC: subcircuits actually used by the solution."""
        return self.solution.num_subcircuits

    @property
    def num_wire_cuts(self) -> int:
        return self.solution.num_wire_cuts

    @property
    def num_gate_cuts(self) -> int:
        return self.solution.num_gate_cuts

    @property
    def num_cuts(self) -> int:
        return self.solution.num_cuts

    @property
    def effective_cuts(self) -> float:
        """#EffCuts: wire-cut-equivalent cut count (Table 2)."""
        return effective_wire_cuts(self.num_wire_cuts, self.num_gate_cuts)

    @property
    def max_two_qubit_gates(self) -> int:
        """#MS: two-qubit gates in the largest subcircuit (fidelity proxy)."""
        return self.solution.max_two_qubit_gates()

    @property
    def max_width(self) -> int:
        """Largest subcircuit width (physical qubits after reuse)."""
        return max((spec.num_wires for spec in self.subcircuits), default=0)

    @property
    def total_reuses(self) -> int:
        return sum(spec.num_reuses for spec in self.subcircuits)

    @property
    def postprocessing_branches(self) -> float:
        return postprocessing_cost(self.num_wire_cuts, self.num_gate_cuts)

    def row(self) -> Dict[str, object]:
        """A flat dictionary row for the benchmark tables."""
        return {
            "num_subcircuits": self.num_subcircuits,
            "num_wire_cuts": self.num_wire_cuts,
            "num_gate_cuts": self.num_gate_cuts,
            "effective_cuts": round(self.effective_cuts, 2),
            "max_two_qubit_gates": self.max_two_qubit_gates,
            "max_width": self.max_width,
            "reuses": self.total_reuses,
            "solve_time": round(self.solve_time, 3),
            "method": self.method,
        }


@dataclass
class EvaluationResult:
    """A cut plan together with the reconstructed output and its accuracy.

    ``num_variant_evaluations`` comes from the engine's dedup-aware counter (the
    single authoritative source): it is the number of *unique* subcircuit variant
    circuits actually executed for this evaluation (a per-call delta, even on a
    shared engine), comparable across exact and noisy executors.  ``timings``
    breaks the end-to-end wall clock into stages: ``cut`` (DAG + ILP/greedy solve
    + subcircuit extraction), ``execute`` (variant batch execution inside the
    engine), ``reconstruct`` (enumeration and contraction outside the engine),
    ``reference`` (uncut statevector simulation, when requested) and ``total``
    (their sum).  ``reconstruct`` is further broken into ``plan`` (contraction
    planning + index precomputation), ``contract`` (sharded kernel execution)
    and ``merge`` (the deterministic shard merge) — the contraction stages of
    :attr:`contraction_report`, which also carries the contraction mode, shard
    count and per-shard utilization (see ``contraction_utilization``, the
    contraction-side sibling of ``device_utilization``).  Every stage is timed
    around the call this evaluation itself
    makes — ``execute`` comes from the engine's per-batch timing, never from
    deltas of its lifetime counters, so sharing an engine across threads cannot
    inflate another call's numbers.  ``engine_stats`` is likewise a *per-call*
    delta (``EngineStats.since`` of two lifetime snapshots): on an engine
    shared across plans each evaluation reports only its own requests,
    executions, cache traffic and device utilization instead of conflating
    unrelated workloads; the engine's cumulative view stays available as
    ``engine.stats``.  ``shot_allocation``
    records the finite-shot budget split (policy + per-variant shot counts) when
    the evaluation ran with ``shots``; ``None`` for exact evaluations.
    ``pruning_report`` records the truncated-contraction pass (variants kept vs
    dropped and the a-priori ``bias_bound`` on the induced reconstruction error)
    when the evaluation ran with a pruning policy; ``None`` when
    ``pruning="none"``.  ``overhead_report`` records the cut-parameter
    sampling-overhead optimization (pre/post overhead, optimizer iterations,
    per-cut basis-weight breakdown — see :mod:`repro.cutting.shot_overhead`)
    when the evaluation ran with ``EngineConfig(optimize_overhead="weights")``;
    ``None`` with the default ``"none"`` mode.

    The streaming service (see :mod:`repro.service`) adds its own fields:
    ``rounds`` (sampling rounds executed; ``1`` on the batch path),
    ``shots_spent`` (shots actually drawn, pilot included — less than the
    budget when a stopping rule fired), ``termination_reason`` (one of
    :data:`repro.service.STOP_REASONS` for streaming evaluations, ``None`` for
    batch ones), and ``half_width`` / ``confidence`` (the streaming confidence
    interval's half-width at the reported confidence level; ``None`` when no
    interval was accumulated).

    ``dynamic_result`` carries the sparse
    :class:`~repro.cutting.DynamicDefinitionResult` when the evaluation ran
    with ``qubit_limit`` (dynamic-definition reconstruction); ``probabilities``
    is then ``None`` — the full vector was deliberately never materialised.
    """

    plan: CutPlan
    expectation_value: Optional[float] = None
    probabilities: Optional[np.ndarray] = None
    dynamic_result: Optional[DynamicDefinitionResult] = None
    reference_expectation: Optional[float] = None
    reference_probabilities: Optional[np.ndarray] = None
    num_variant_evaluations: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    engine_stats: Optional[EngineStats] = None
    shot_allocation: Optional[ShotAllocation] = None
    pruning_report: Optional[PruningReport] = None
    overhead_report: Optional[OverheadReport] = None
    contraction_report: Optional[ContractionReport] = None
    rounds: int = 1
    shots_spent: int = 0
    termination_reason: Optional[str] = None
    half_width: Optional[float] = None
    confidence: Optional[float] = None

    @property
    def contraction_utilization(self) -> Optional[tuple]:
        """Per-shard contraction work for this evaluation (None before reconstruct).

        A tuple of :class:`~repro.cutting.ShardUtilization`: how many output
        elements (probability) or observable terms (expectation) each
        contraction shard handled and how long it was busy — the
        contraction-side counterpart of :attr:`device_utilization`.
        """
        if self.contraction_report is None:
            return None
        return self.contraction_report.shards

    @property
    def device_utilization(self) -> Optional[tuple]:
        """Per-device routing report for this evaluation (None without a farm).

        A tuple of :class:`~repro.engine.DeviceUtilization` — per-call deltas:
        how many variants each device of the farm executed for *this*
        evaluation, plus the simulated busy and queue seconds behind them.
        """
        if self.engine_stats is None:
            return None
        return self.engine_stats.devices

    @property
    def expectation_error(self) -> Optional[float]:
        if self.expectation_value is None or self.reference_expectation is None:
            return None
        return abs(self.expectation_value - self.reference_expectation)

    @property
    def accuracy(self) -> Optional[float]:
        """The paper's Table 3 accuracy metric: 1 - |error| / |reference|."""
        if self.expectation_error is None:
            return None
        reference = abs(self.reference_expectation)
        if reference < 1e-12:
            return 1.0 if self.expectation_error < 1e-12 else 0.0
        return max(0.0, 1.0 - self.expectation_error / reference)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of the result (see :meth:`to_json`).

        Numpy vectors become plain lists; nested reports (plan, engine stats,
        shot allocation, pruning) flatten through their ``row()`` views.
        Derived metrics (``expectation_error``, ``accuracy``) are included so
        a consumer of the serialised form never recomputes them.
        """

        def _vector(array: Optional[np.ndarray]) -> Optional[list]:
            return None if array is None else np.asarray(array, dtype=float).tolist()

        return {
            "plan": self.plan.row(),
            "expectation_value": self.expectation_value,
            "probabilities": _vector(self.probabilities),
            "dynamic_result": None
            if self.dynamic_result is None
            else self.dynamic_result.row(),
            "reference_expectation": self.reference_expectation,
            "reference_probabilities": _vector(self.reference_probabilities),
            "expectation_error": self.expectation_error,
            "accuracy": self.accuracy,
            "num_variant_evaluations": self.num_variant_evaluations,
            "timings": dict(self.timings),
            "engine_stats": None if self.engine_stats is None else self.engine_stats.row(),
            "shot_allocation": None
            if self.shot_allocation is None
            else self.shot_allocation.row(),
            "pruning_report": None
            if self.pruning_report is None
            else self.pruning_report.row(),
            "overhead_report": None
            if self.overhead_report is None
            else self.overhead_report.row(),
            "rounds": self.rounds,
            "shots_spent": self.shots_spent,
            "termination_reason": self.termination_reason,
            "half_width": self.half_width,
            "confidence": self.confidence,
        }

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialise :meth:`to_dict` to a JSON string.

        Args:
            **dumps_kwargs: forwarded to :func:`json.dumps` (``indent=``,
                ``sort_keys=``...).  ``json.loads`` of the output round-trips
                to exactly :meth:`to_dict`.
        """
        import json

        return json.dumps(self.to_dict(), **dumps_kwargs)


def cut_circuit(
    circuit: Circuit,
    config: CutConfig,
    force_ilp: bool = False,
    force_greedy: bool = False,
    enable_reuse_extraction: Optional[bool] = None,
) -> CutPlan:
    """Find a cutting solution for ``circuit`` under ``config`` and extract subcircuits.

    The exact ILP is used by default; circuits whose padded representation exceeds
    :data:`DEFAULT_ILP_SIZE_LIMIT` operations fall back to the greedy heuristic
    unless ``force_ilp`` is set.  ``InfeasibleError`` propagates when the model is
    proven infeasible (the paper's *no-solution* entries).

    The cut search reads only the circuit's structure and ``config``, never its
    angles, so the decision is reused: a call whose qubit count, operation
    names, qubits and tags, ``config`` and method (ILP or greedy) match an
    earlier call in this process applies that call's decision to this circuit
    instead of solving again.  A parameter sweep therefore solves once.  The
    last :data:`PLAN_CACHE_SIZE` decisions are kept; failed searches are not.
    On a reused decision ``solve_time`` is the time this call took, not the
    original solve's.

    Args:
        circuit: the circuit to cut.
        config: the cutting meta parameters (device size, cut budgets, delta...).
        force_ilp: always solve the exact ILP, even past the size limit.
        force_greedy: always use the greedy heuristic cutter (mutually
            exclusive with ``force_ilp``).
        enable_reuse_extraction: apply the qubit-reuse pass during subcircuit
            extraction; defaults to ``config.enable_qubit_reuse``.

    Returns:
        A :class:`CutPlan`: the solution, the extracted subcircuit specs and the
        paper's reporting metrics (#SC, #cuts, #MS, width, solve time, method).

    Example::

        plan = cut_circuit(workload.circuit, CutConfig(device_size=4))
        assert plan.max_width <= 4
    """
    if force_ilp and force_greedy:
        raise CuttingError("force_ilp and force_greedy are mutually exclusive")
    start = perf_clock()
    use_reuse = (
        config.enable_qubit_reuse if enable_reuse_extraction is None else enable_reuse_extraction
    )

    padded = QRAwareDag(circuit).padded_circuit
    use_greedy = force_greedy or (len(padded) > DEFAULT_ILP_SIZE_LIMIT and not force_ilp)
    structure = tuple((op.name, op.qubits, op.tag) for op in circuit.operations)
    key = (circuit.num_qubits, structure, config, use_greedy)
    decision = _cached_decision(key)
    if decision is not None:
        solution = decision.solution_over(padded)
    else:
        if use_greedy:
            solution = GreedyCutter(circuit, config).cut()
        else:
            solution = CuttingFormulation(circuit, config).solve_and_decode()
        _store_decision(key, _CutDecision.of(solution))
    solve_time = perf_clock() - start
    specs = extract_subcircuits(solution, enable_reuse=use_reuse)
    return CutPlan(
        circuit=circuit,
        config=config,
        solution=solution,
        subcircuits=specs,
        solve_time=solve_time,
        method="greedy" if use_greedy else "ilp",
    )


def cut_circuit_cutqc(circuit: Circuit, config: CutConfig, **kwargs: Any) -> CutPlan:
    """The CutQC baseline: wire cutting only, no qubit reuse, MIP-style width model.

    Args:
        circuit: the circuit to cut.
        config: the cutting meta parameters; gate cuts and qubit reuse are
            disabled (and ``delta`` pinned to 1) regardless of what it says.
        **kwargs: forwarded to :func:`cut_circuit` (``force_ilp`` /
            ``force_greedy``); ``enable_reuse_extraction`` is rejected because
            the baseline pins it to ``False``.

    Returns:
        A :class:`CutPlan` for the baseline configuration.
    """
    if "enable_reuse_extraction" in kwargs:
        # Forwarding it would collide with the pinned value below and surface as
        # an opaque duplicate-keyword TypeError; reject it with a real message.
        raise CuttingError(
            "cut_circuit_cutqc pins enable_reuse_extraction=False (the CutQC "
            "baseline never reuses qubits); drop the argument or call "
            "cut_circuit directly"
        )
    baseline = config.with_(enable_gate_cuts=False, enable_qubit_reuse=False, delta=1.0)
    return cut_circuit(circuit, baseline, enable_reuse_extraction=False, **kwargs)


#: The engine-level keywords :func:`evaluate_workload` still accepts as
#: deprecated aliases of the same-named :class:`~repro.engine.EngineConfig`
#: fields (the config is the single source of truth).
_DEPRECATED_ENGINE_KWARGS: Tuple[str, ...] = (
    "shots",
    "allocation",
    "seed",
    "pruning",
    "devices",
    "routing",
    "streaming",
    "stopping",
    "qubit_limit",
    "recursion_depth",
)

#: Field defaults the conflict check compares against (an EngineConfig carrying
#: only defaults is silent on every knob, so a kwarg never conflicts with it).
_CONFIG_DEFAULTS = EngineConfig()


def _check_deprecated_kwargs(supplied: Dict[str, Any], resolved: EngineConfig) -> None:
    """Warn on each legacy engine kwarg; reject kwarg-vs-config conflicts.

    Every non-``None`` entry of ``supplied`` emits a :class:`DeprecationWarning`
    naming the :class:`~repro.engine.EngineConfig` field that replaces it.  A
    kwarg whose config field is still at its default simply applies (the config
    is silent on that knob); a kwarg that *disagrees* with an explicitly
    configured field raises :class:`~repro.exceptions.ConfigError` — silently
    preferring either side would make the other a lie.
    """
    for name, value in supplied.items():
        if value is None:
            continue
        warnings.warn(
            f"evaluate_workload(..., {name}=...) is deprecated; set "
            f"EngineConfig({name}=...) and pass it as engine_config (or on the "
            "supplied engine) instead",
            DeprecationWarning,
            stacklevel=3,
        )
        configured: Any = getattr(resolved, name)
        default: Any = getattr(_CONFIG_DEFAULTS, name)
        comparable: Any = value
        if name == "pruning":
            # Policy names and PruningPolicy instances must compare by meaning
            # ("none" == PruningPolicy.none()), not by representation.
            configured = PruningPolicy.resolve(configured)
            default = PruningPolicy.resolve(default)
            comparable = PruningPolicy.resolve(value)
        elif name == "devices":
            comparable = tuple(value)
        if configured == default:
            continue
        if configured != comparable:
            raise ConfigError(
                f"{name} is set both as a deprecated keyword ({value!r}) and on "
                f"the EngineConfig ({getattr(resolved, name)!r}) with different "
                "values; drop the keyword and keep the config"
            )


def evaluate_workload(
    workload: Workload,
    config: CutConfig,
    executor: Optional[VariantExecutor] = None,
    compute_reference: bool = True,
    force_ilp: bool = False,
    force_greedy: bool = False,
    engine: Optional[ParallelEngine] = None,
    engine_config: Optional[EngineConfig] = None,
    shots: Optional[int] = None,
    allocation: Optional[str] = None,
    seed: Optional[int] = None,
    pruning: Union[None, str, PruningPolicy] = None,
    devices: Optional[Sequence[DeviceSpec]] = None,
    routing: Optional[str] = None,
    streaming: Optional[StreamingConfig] = None,
    stopping: Optional[StoppingRule] = None,
    qubit_limit: Optional[int] = None,
    recursion_depth: Optional[int] = None,
) -> EvaluationResult:
    """Cut, execute and reconstruct a workload end-to-end.

    Probability workloads reconstruct the full output distribution; expectation
    workloads reconstruct the observable's expectation value.  ``compute_reference``
    additionally simulates the uncut circuit (only feasible for small N) so accuracy
    can be reported.  ``force_ilp`` / ``force_greedy`` select the cut-search
    method exactly as in :func:`cut_circuit`.

    Everything about *how* variants execute lives on a single typed request
    object: :class:`~repro.engine.EngineConfig`.  Pass it as ``engine_config``
    (a per-call engine is built around ``executor`` and closed afterwards) or
    construct a shared :class:`~repro.engine.ParallelEngine` from it and pass
    ``engine`` (its pool and result cache survive across calls; mutually
    exclusive with ``executor``/``engine_config``).  ``num_variant_evaluations``,
    ``timings`` and ``engine_stats`` are all per-call numbers, so a shared
    engine still yields per-workload values (its cumulative lifetime view
    stays available as ``engine.stats``).

    Returns:
        An :class:`EvaluationResult`: the :class:`CutPlan`, the reconstructed
        value/distribution (and reference, when computed), the dedup-aware
        variant-execution count, per-stage timings, engine stats, and the shot
        allocation / pruning / overhead-optimization reports when those passes
        ran.

    Example::

        result = evaluate_workload(make_workload("REG", 8),
                                   CutConfig(device_size=5, enable_gate_cuts=True))
        assert result.expectation_error < 1e-8

        # Finite-shot, seeded, variance-allocated — all on the config:
        result = evaluate_workload(
            workload, cut_config,
            engine_config=EngineConfig(shots=4096, seed=7, allocation="variance"),
        )

    The engine-level knobs, all fields of :class:`~repro.engine.EngineConfig`:

    * ``shots`` + ``allocation`` + ``seed`` — finite-shot evaluation: estimate
      every subcircuit variant from samples through a
      :class:`~repro.cutting.sampling.SamplingExecutor` (built here, seeded
      with ``seed``, when no executor/engine is supplied), the budget split
      across the enumerated batch by ``allocation`` (``"uniform"``,
      ``"weighted"`` or ``"variance"``).  At a fixed seed the result is
      bit-identical for any ``max_workers``; the split is reported on
      ``result.shot_allocation``.  Concurrent ``shots`` evaluations on one
      shared engine race on the executor's allocation state — give each thread
      its own engine when sampling.  See :mod:`repro.engine.allocation`.
    * ``optimize_overhead`` — cut-parameter sampling-overhead minimization
      (``"weights"``): optimize the free measurement/preparation basis weights
      at every cut and feed the reduced-variance per-variant weights to the
      shot allocator, the pruning ranking and the streaming re-planner; the
      pass is reported on ``result.overhead_report``.  ``"none"`` (the
      default) is bit-identical to the pre-optimizer pipeline.  Config-only —
      there is deliberately no keyword alias.  See
      :mod:`repro.cutting.shot_overhead`.
    * ``pruning`` — truncated contraction: drop the small-|contraction-weight|
      tail of the enumerated batch before execution (a policy name or a
      :class:`~repro.engine.PruningPolicy`); survivors keep the whole shot
      budget, contraction skips the dropped variants, and the induced bias is
      bounded a priori by ``result.pruning_report.bias_bound``.  See
      :mod:`repro.engine.pruning`.
    * ``devices`` + ``routing`` — a farm of width-limited
      :class:`~repro.engine.DeviceSpec` backends; every variant is routed to a
      device it fits on (``"round_robin"``, ``"least_loaded"`` or
      ``"best_fit"``), a variant wider than every device raises
      :class:`~repro.exceptions.InfeasibleVariantError` up front, and
      per-device utilization lands on ``result.device_utilization``.  Like
      ``seed``, these configure the engine built here — a supplied ``engine``
      carries its own farm.  See :mod:`repro.engine.devices`.
    * ``streaming`` + ``stopping`` — consume the shot budget in cumulative
      rounds (:class:`~repro.service.StreamingConfig`) with an optional
      early-termination rule (:class:`~repro.service.StoppingRule`) checked on
      the running confidence interval; both require ``shots``.  Run to
      completion, streaming reproduces the batch result bit for bit; an early
      stop reports ``result.rounds`` / ``result.shots_spent`` /
      ``result.termination_reason`` / ``result.half_width`` /
      ``result.confidence``.  This function is a thin wrapper over
      :class:`repro.service.EvaluationSession` — drive rounds manually there.
    * ``qubit_limit`` + ``recursion_depth`` — dynamic-definition
      reconstruction for probability workloads: never materialise the
      ``2**n`` vector, contract into at most ``2**qubit_limit`` bins per
      recursion level and zoom into the heavy bins; the sparse result lands on
      ``result.dynamic_result``.  For wide circuits also pass
      ``compute_reference=False``.  See
      :mod:`repro.cutting.dynamic_definition`.

    Deprecated keyword aliases: ``shots``, ``allocation``, ``seed``,
    ``pruning``, ``devices``, ``routing``, ``streaming``, ``stopping``,
    ``qubit_limit`` and ``recursion_depth`` are still accepted directly (six
    PRs grew them before the config became the single source of truth).  Each
    emits a :class:`DeprecationWarning` and behaves exactly like the matching
    config field; a kwarg that disagrees with an explicitly configured field
    raises :class:`~repro.exceptions.ConfigError` instead of silently picking
    a side.
    """
    _check_deprecated_kwargs(
        {
            "shots": shots,
            "allocation": allocation,
            "seed": seed,
            "pruning": pruning,
            "devices": devices,
            "routing": routing,
            "streaming": streaming,
            "stopping": stopping,
            "qubit_limit": qubit_limit,
            "recursion_depth": recursion_depth,
        },
        engine.config if engine is not None else (engine_config or _CONFIG_DEFAULTS),
    )
    # Imported lazily: repro.service layers *above* this module (the session
    # subsumes the old pipeline body) and importing it here at module level
    # would be circular.
    from ..service.session import EvaluationSession

    session = EvaluationSession(
        workload,
        config,
        executor=executor,
        compute_reference=compute_reference,
        force_ilp=force_ilp,
        force_greedy=force_greedy,
        engine=engine,
        engine_config=engine_config,
        shots=shots,
        allocation=allocation,
        seed=seed,
        pruning=pruning,
        devices=devices,
        routing=routing,
        streaming=streaming,
        stopping=stopping,
        qubit_limit=qubit_limit,
        recursion_depth=recursion_depth,
    )
    return session.run()


def _evaluate_workload_batch(
    workload: Workload,
    config: CutConfig,
    executor: Optional[VariantExecutor] = None,
    compute_reference: bool = True,
    force_ilp: bool = False,
    force_greedy: bool = False,
    engine: Optional[ParallelEngine] = None,
    engine_config: Optional[EngineConfig] = None,
    shots: Optional[int] = None,
    allocation: Optional[str] = None,
    seed: Optional[int] = None,
    pruning: Optional[object] = None,
    devices: Optional[Sequence[DeviceSpec]] = None,
    routing: Optional[str] = None,
) -> EvaluationResult:
    """The pre-service monolithic pipeline body, kept verbatim as a test oracle.

    :func:`evaluate_workload` now delegates to
    :class:`repro.service.EvaluationSession`; the regression suite pins the
    session's batch path bit-identical to this original implementation.  Not
    public API — prefer :func:`evaluate_workload`.
    """
    if workload.kind == WorkloadKind.PROBABILITY and config.enable_gate_cuts:
        raise CuttingError(
            "gate cutting cannot be used for probability-vector workloads (Section 2.3.2)"
        )
    if engine is not None and (executor is not None or engine_config is not None):
        raise CuttingError(
            "pass either a prebuilt engine or executor/engine_config, not both"
        )
    if seed is not None and (engine is not None or executor is not None):
        raise CuttingError(
            "seed only applies to the SamplingExecutor evaluate_workload builds "
            "itself; seed a supplied executor/engine at construction instead"
        )
    if engine is not None and (devices is not None or routing is not None):
        raise CuttingError(
            "devices/routing configure the engine evaluate_workload builds "
            "itself; a supplied engine carries its own farm (set "
            "EngineConfig(devices=..., routing=...) when constructing it)"
        )
    resolved_config = engine.config if engine is not None else (engine_config or EngineConfig())
    if devices is None:
        devices = resolved_config.devices
    if routing is not None and devices is None:
        raise CuttingError("routing needs devices (a farm to route onto)")
    if shots is None:
        shots = resolved_config.shots
    if allocation is None:
        allocation = resolved_config.allocation
    if allocation not in ALLOCATION_POLICIES:
        raise CuttingError(
            f"allocation must be one of {ALLOCATION_POLICIES}, got {allocation!r}"
        )
    if pruning is None:
        pruning = resolved_config.pruning
    pruning_policy = PruningPolicy.resolve(pruning)
    if seed is not None and shots is None:
        raise CuttingError(
            "seed seeds the finite-shot SamplingExecutor and needs shots "
            "(exact evaluation has nothing to seed)"
        )
    owns_engine = engine is None
    if engine is None:
        if executor is None and shots is not None:
            # cache_size applies to the executor built here, mirroring the
            # engine's own default-executor branch below.
            executor = SamplingExecutor(
                shots=shots, seed=seed, cache=ResultCache(resolved_config.cache_size)
            )
        build_config = engine_config or EngineConfig()
        if devices is not None:
            build_config = build_config.with_(
                devices=tuple(devices),
                routing=routing if routing is not None else build_config.routing,
            )
        # Pass executor=None through so engine_config.cache_size can size the
        # default executor's cache; an explicit executor keeps its own cache.
        engine = ParallelEngine(executor, build_config)
    if shots is not None and not hasattr(engine.executor, "set_allocation"):
        raise CuttingError(
            f"shots={shots} needs a sampling-capable executor with per-variant shot "
            f"allocation (e.g. SamplingExecutor), got {type(engine.executor).__name__}"
        )
    if shots is not None and engine.farm is not None and engine.farm.is_heterogeneous:
        # Fail before anything (pilot batches included) executes: per-device
        # backends never see the engine executor's allocation, so the budget
        # would be reported as spent without being honored.
        raise CuttingError(
            "shots cannot combine with a heterogeneous device farm (devices "
            "with noise/executor_factory run their own backends and would "
            "silently ignore the per-variant shot allocation); use devices "
            "that share the engine executor, or drop shots"
        )
    try:
        stats_before = engine.stats
        cut_start = perf_clock()
        plan = cut_circuit(
            workload.circuit, config, force_ilp=force_ilp, force_greedy=force_greedy
        )
        cut_seconds = perf_clock() - cut_start
        if engine.farm is not None:
            # Fail before enumerating anything: a plan wider than every device
            # can never execute, and the error names the shortfall.
            engine.farm.check_width(plan.max_width)
        reconstructor = CutReconstructor(
            plan.solution, specs=plan.subcircuits, engine=engine
        )
        executions_before = engine.executions
        result = EvaluationResult(plan=plan)

        # Phase one: enumerate every variant the contraction will need,
        # accumulating contraction weights in the same walk when the shot
        # allocator or the pruning pass will want them (the loop is the
        # exponential cost).
        needs_weights = not pruning_policy.is_none or (
            shots is not None and allocation in ("weighted", "variance")
        )
        weights = {} if needs_weights else None
        enumerate_start = perf_clock()
        if workload.kind == WorkloadKind.EXPECTATION:
            batch = reconstructor.enumerate_expectation_requests(
                workload.observable, weights_out=weights
            )
        else:
            batch = reconstructor.enumerate_probability_requests(weights_out=weights)
        enumerate_seconds = perf_clock() - enumerate_start

        # Optional truncated contraction: drop the small-weight tail before
        # anything executes; allocation and execution see only the survivors.
        missing_mode = "execute"
        prune_seconds = 0.0
        if not pruning_policy.is_none:
            prune_start = perf_clock()
            batch, pruning_report = prune_requests(batch, weights, pruning_policy)
            result.pruning_report = pruning_report
            missing_mode = "skip"
            prune_seconds = perf_clock() - prune_start

        # Optional shot allocation (finite-shot evaluation only).
        allocate_seconds = 0.0
        execute_seconds = 0.0
        if shots is not None:
            allocate_start = perf_clock()
            shot_allocation = allocate_shots(
                batch, shots, allocation, weights=weights, engine=engine
            )
            engine.apply_allocation(shot_allocation)
            result.shot_allocation = shot_allocation
            # The pilot batch (variance policy) is execution, not allocation math.
            execute_seconds += shot_allocation.pilot_seconds
            allocate_seconds = (
                perf_clock() - allocate_start - shot_allocation.pilot_seconds
            )

        # Execute the batch; timing comes from this call itself, never from
        # deltas of the engine's lifetime counters (those are inflated by
        # concurrent batches when an engine is shared across threads).
        table, batch_seconds = engine.run_batch_timed(batch)
        execute_seconds += batch_seconds

        # Phase two: contract over the results table (no execution inside).
        # Under pruning the table is partial and missing variants contribute
        # exactly zero ("skip"); otherwise any straggler executes on demand.
        contract_start = perf_clock()
        if workload.kind == WorkloadKind.EXPECTATION:
            result.expectation_value = reconstructor.reconstruct_expectation(
                workload.observable, table=table, missing=missing_mode
            )
        else:
            result.probabilities = reconstructor.reconstruct_probabilities(
                table=table, missing=missing_mode
            )
        contract_seconds = perf_clock() - contract_start
        result.contraction_report = reconstructor.last_contraction_report

        reference_seconds = 0.0
        if compute_reference:
            reference_start = perf_clock()
            if workload.kind == WorkloadKind.EXPECTATION:
                result.reference_expectation = simulate_statevector(
                    workload.circuit
                ).expectation(workload.observable)
            else:
                result.reference_probabilities = simulate_statevector(
                    workload.circuit
                ).probabilities()
            reference_seconds = perf_clock() - reference_start
        reconstruct_seconds = enumerate_seconds + contract_seconds
        result.num_variant_evaluations = engine.executions - executions_before
        # Per-call delta: on a shared engine, lifetime counters would conflate
        # unrelated workloads (the cumulative view stays on engine.stats).
        result.engine_stats = engine.stats.since(stats_before)
        result.timings = {
            "cut": cut_seconds,
            "execute": execute_seconds,
            "reconstruct": reconstruct_seconds,
            "total": cut_seconds
            + execute_seconds
            + reconstruct_seconds
            + allocate_seconds
            + prune_seconds
            + reference_seconds,
        }
        # Break reconstruct's contraction half into its planned stages; the
        # "reconstruct" key above stays the enumerate + contract wall so the
        # "total" identity is unchanged.
        report = result.contraction_report
        if report is not None:
            result.timings["plan"] = report.plan_seconds
            result.timings["contract"] = report.contract_seconds
            result.timings["merge"] = report.merge_seconds
        if shots is not None:
            result.timings["allocate"] = allocate_seconds
        if not pruning_policy.is_none:
            result.timings["prune"] = prune_seconds
        if compute_reference:
            result.timings["reference"] = reference_seconds
        return result
    finally:
        if shots is not None:
            # Never leave a per-evaluation allocation applied to a (possibly
            # shared) engine: later batches would sample stale per-variant
            # counts.  result.engine_stats above snapshotted the policy first.
            engine.clear_allocation()
        if owns_engine:
            engine.close()
