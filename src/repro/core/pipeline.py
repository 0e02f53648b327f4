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
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..circuits import Circuit
from ..cutting import (
    ContractionReport,
    CutSolution,
    DynamicDefinitionResult,
    SubcircuitSpec,
    VariantExecutor,
    effective_wire_cuts,
    extract_subcircuits,
    postprocessing_cost,
)
from ..cutting.reconstruction import CutStructure
from ..cutting.shot_overhead import OverheadReport
from ..engine import (
    EngineConfig,
    EngineStats,
    ParallelEngine,
    PruningReport,
    ShotAllocation,
)
from ..exceptions import CuttingError
from ..utils.timing import perf_clock
from ..workloads import Workload
from .config import CutConfig
from .formulation import CuttingFormulation
from .greedy import GreedyCutter
from .qr_dag import QRAwareDag

__all__ = ["CutPlan", "EvaluationResult", "cut_circuit", "cut_circuit_cutqc", "evaluate_workload"]

#: Above this padded-operation count the exact ILP is replaced by the greedy cutter
#: unless the caller explicitly forces the ILP.
DEFAULT_ILP_SIZE_LIMIT = 4000

#: Most cut decisions :func:`cut_circuit` keeps for reuse (least recently used
#: evicted first).  A parameter sweep needs one entry per structure.
PLAN_CACHE_SIZE = 128


#: Cut structures by circuit structure (see :func:`cut_circuit`).  Keys hold no
#: angles and values no circuits, so an entry is the same whichever angles
#: solved it first.
_PLAN_CACHE: "OrderedDict[Tuple[Any, ...], CutStructure]" = OrderedDict()  # qrcclint: disable=mutable-default-arg -- deliberate process-local memo: the cut search reads only the structure key, each entry's decision and specs are fixed when stored and its memo fills only with deterministic functions of the key, access holds _PLAN_CACHE_LOCK, bounded by PLAN_CACHE_SIZE
_PLAN_CACHE_LOCK = threading.Lock()


def _cached_structure(key: Tuple[Any, ...]) -> Optional[CutStructure]:
    with _PLAN_CACHE_LOCK:
        structure = _PLAN_CACHE.get(key)
        if structure is not None:
            _PLAN_CACHE.move_to_end(key)
        return structure


def _store_structure(key: Tuple[Any, ...], structure: CutStructure) -> None:
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE[key] = structure
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > PLAN_CACHE_SIZE:
            _PLAN_CACHE.popitem(last=False)


@dataclass
class CutPlan:
    """A cutting decision, its angle-free ``structure`` (shared by every plan of
    the decision) and the metrics every table in the paper reports."""

    circuit: Circuit
    config: CutConfig
    solution: CutSolution
    structure: CutStructure
    solve_time: float
    method: str

    @property
    def subcircuits(self) -> List[SubcircuitSpec]:
        """The extracted subcircuit specs (the structure's; do not mutate)."""
        return self.structure.specs

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
    engine, a variance pilot included), ``reconstruct`` (enumeration, streaming
    folds and the final contraction outside the engine), ``allocate`` /
    ``optimize`` / ``prune`` (only when shots, the overhead optimizer or a
    pruning policy ran), ``reference`` (uncut statevector simulation, when
    requested) and ``total`` (their sum).  ``reconstruct`` is further broken
    into ``plan`` (contraction
    planning + index precomputation), ``contract`` (sharded kernel execution)
    and ``merge`` (the deterministic shard merge) — the contraction stages of
    :attr:`contraction_report`, which also carries the contraction mode, shard
    count and per-shard utilization (see ``contraction_utilization``, the
    contraction-side sibling of ``device_utilization``).  Every stage is timed
    around the call this evaluation itself makes, never from deltas of the
    engine's lifetime counters, so sharing an engine across threads cannot
    inflate another call's numbers.  ``engine_stats`` is likewise *per-call*:
    the sum of the session's window deltas (``EngineStats.since`` around
    prepare, every step and finish, added with ``+``), so on an engine
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
    instead of solving again, with that call's ``structure`` (specs, layouts
    and contraction plans).  A parameter sweep therefore solves once.  The
    last :data:`PLAN_CACHE_SIZE` decisions are kept; failed searches are not.
    On a reused decision ``solve_time`` is the time this call took, not the
    original solve's.

    Args:
        circuit: the circuit to cut.
        config: the cutting meta parameters (device size, cut budgets, delta...).
        force_ilp: always solve the exact ILP, even past the size limit.
        force_greedy: always use the greedy heuristic cutter (mutually
            exclusive with ``force_ilp``).

    Subcircuit extraction applies the qubit-reuse pass when
    ``config.enable_qubit_reuse`` is set.

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

    padded = QRAwareDag(circuit).padded_circuit
    use_greedy = force_greedy or (len(padded) > DEFAULT_ILP_SIZE_LIMIT and not force_ilp)
    operations = tuple((op.name, op.qubits, op.tag) for op in circuit.operations)
    key = (circuit.num_qubits, operations, config, use_greedy)
    structure = _cached_structure(key)
    if structure is not None:
        solution = structure.solution_over(padded)
    elif use_greedy:
        solution = GreedyCutter(circuit, config).cut()
    else:
        solution = CuttingFormulation(circuit, config).solve_and_decode()
    solve_time = perf_clock() - start
    if structure is None:
        specs = extract_subcircuits(solution, enable_reuse=config.enable_qubit_reuse)
        structure = CutStructure(solution, specs)
        _store_structure(key, structure)
    return CutPlan(
        circuit=circuit,
        config=config,
        solution=solution,
        structure=structure,
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
            ``force_greedy``).

    Returns:
        A :class:`CutPlan` for the baseline configuration.
    """
    baseline = config.with_(enable_gate_cuts=False, enable_qubit_reuse=False, delta=1.0)
    return cut_circuit(circuit, baseline, **kwargs)


def evaluate_workload(
    workload: Workload,
    config: CutConfig,
    executor: Optional[VariantExecutor] = None,
    compute_reference: bool = True,
    force_greedy: bool = False,
    engine: Optional[ParallelEngine] = None,
    engine_config: Optional[EngineConfig] = None,
) -> EvaluationResult:
    """Cut, execute and reconstruct a workload end-to-end.

    Probability workloads reconstruct the full output distribution; expectation
    workloads reconstruct the observable's expectation value.  ``compute_reference``
    additionally simulates the uncut circuit (only feasible for small N) so accuracy
    can be reported.  ``force_greedy`` selects the greedy cutter exactly as in
    :func:`cut_circuit`; otherwise the cut search is the exact ILP up to
    :data:`DEFAULT_ILP_SIZE_LIMIT` operations.

    Every setting of *how* variants execute is one
    :class:`~repro.engine.EngineConfig`; its attribute docs describe each
    knob.  Pass it as ``engine_config`` (a per-call engine is built around
    ``executor`` and closed afterwards) or construct a shared
    :class:`~repro.engine.ParallelEngine` and pass ``engine`` (its pool and
    result cache survive across calls; mutually exclusive with ``executor``).
    With ``engine``, an ``engine_config`` carries this call's policy and must
    match the engine's own pool, cache and farm fields (see
    :class:`~repro.service.EvaluationSession`).  ``num_variant_evaluations``,
    ``timings`` and ``engine_stats`` are all per-call numbers, so a shared
    engine still yields per-workload values (its cumulative lifetime view
    stays available as ``engine.stats``); an engine is not meant for use from
    several threads at once, so give each thread its own.  This function is a
    thin wrapper over :class:`repro.service.EvaluationSession`; drive rounds
    manually there.

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
    """
    # Imported lazily: repro.service layers *above* this module and importing
    # it here at module level would be circular.
    from ..service.session import EvaluationSession

    session = EvaluationSession(
        workload,
        config,
        executor=executor,
        compute_reference=compute_reference,
        force_greedy=force_greedy,
        engine=engine,
        engine_config=engine_config,
    )
    return session.run()
