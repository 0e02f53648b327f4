"""Outside-in span tracer for the perf benchmark.

The library has no trace of its own yet, so the benchmark records one from the
outside: every layer boundary listed in :data:`TARGETS` is a public callable
that :func:`install` wraps *in place* — at its defining module and at every
module that imported it by name (``from .contraction import
contract_probability_shard`` binds a second reference that a patch of the
defining module alone would miss).  One wrapper object is installed at every
alias, so a patched module-level function still pickles by reference, which
is what the process pool of the sharded contraction needs.

A span's *self time* is its duration minus the part its direct child spans
cover.  The wrapper's own bookkeeping (clock reads, counter probes) is timed
too and booked to ``trace.overhead`` instead of the enclosing span, so over one
evaluation the self times plus the overhead add up to the evaluation's wall
time exactly.  Calls made outside an evaluation, from another thread, or inside
a forked pool worker pass straight through: worker-side work shows up as the
self time of the ``engine.execute`` / ``engine.shards`` span that waited for it.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the root span the benchmark opens around each evaluation.
ROOT_SPAN = "eval"
#: Pseudo-span collecting the tracer's own bookkeeping time.
OVERHEAD_SPAN = "trace.overhead"

Counts = Dict[str, float]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``"function"`` or ``"Class.method"``.

    ``count(args, kwargs, result)`` runs after the call, inside the overhead
    window; the counts it returns are added to the evaluation's counters as
    ``<span>.<key>``.
    """

    span: str
    module: str
    attr: str
    count: Optional[Callable[[Tuple, Dict, Any], Counts]] = None


def _batched_counts(args: Tuple, kwargs: Dict, result: Any) -> Counts:
    variants = args[0]
    rows = len(variants)
    width = variants[0].circuit.num_qubits if rows else 0
    return {"rows": rows, "amps": rows * 2**width}


def _sample_counts(args: Tuple, kwargs: Dict, result: Any) -> Counts:
    shots = args[1] if len(args) > 1 else kwargs["shots"]
    return {"shots": int(shots)}


def _request_counts(args: Tuple, kwargs: Dict, result: Any) -> Counts:
    return {"requests": len(result)}


def _task_counts(args: Tuple, kwargs: Dict, result: Any) -> Counts:
    tasks = args[2] if len(args) > 2 else kwargs["tasks"]
    return {"tasks": len(tasks)}


#: Every layer boundary the benchmark times, outermost first.
TARGETS: Tuple[Target, ...] = (
    Target("service.prepare", "repro.service.session", "EvaluationSession.prepare"),
    Target("service.step", "repro.service.session", "EvaluationSession.step"),
    Target("service.finish", "repro.service.session", "EvaluationSession.finish"),
    Target("service.fold", "repro.service.incremental", "IncrementalReconstructor.fold"),
    Target("core.cut", "repro.core.pipeline", "cut_circuit"),
    Target("ilp.solve", "repro.ilp.scipy_backend", "ScipyMilpBackend.solve"),
    Target("core.greedy", "repro.core.greedy", "GreedyCutter.cut"),
    Target("cutting.extract", "repro.cutting.fragments", "extract_subcircuits"),
    Target(
        "cutting.enumerate",
        "repro.cutting.reconstruction",
        "CutReconstructor.enumerate_probability_requests",
        count=_request_counts,
    ),
    Target(
        "cutting.enumerate",
        "repro.cutting.reconstruction",
        "CutReconstructor.enumerate_expectation_requests",
        count=_request_counts,
    ),
    Target("cutting.optimize", "repro.cutting.shot_overhead", "optimize_overhead_weights"),
    Target("engine.allocate", "repro.engine.allocation", "allocate_shots"),
    Target("engine.execute", "repro.engine.engine", "ParallelEngine.run_batch_timed"),
    Target(
        "engine.shards",
        "repro.engine.engine",
        "ParallelEngine.map_shards",
        count=_task_counts,
    ),
    Target(
        "simulator.batched",
        "repro.simulator.batched",
        "simulate_variant_group",
        count=_batched_counts,
    ),
    Target("simulator.branching", "repro.simulator.dynamic", "BranchingSimulator.run"),
    Target(
        "simulator.sample",
        "repro.simulator.sampler",
        "sample_weighted_counts_prefix",
        count=_sample_counts,
    ),
    Target(
        "cutting.contract",
        "repro.cutting.reconstruction",
        "CutReconstructor.reconstruct_probabilities",
    ),
    Target(
        "cutting.contract",
        "repro.cutting.reconstruction",
        "CutReconstructor.reconstruct_expectation",
    ),
    Target("cutting.plan", "repro.cutting.contraction", "plan_contraction"),
    Target("cutting.kernel", "repro.cutting.contraction", "contract_probability_shard"),
    Target("cutting.kernel", "repro.cutting.contraction", "contract_expectation_terms"),
    Target("cutting.dd", "repro.cutting.dynamic_definition", "reconstruct_dynamic"),
    Target("cutting.dd_level", "repro.cutting.dynamic_definition", "binned_probabilities"),
)


@dataclass
class _Frame:
    name: str
    start: float = 0.0
    child_s: float = 0.0


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: its evaluation, parent span and timing."""

    name: str
    eval_id: int
    parent: Optional[str]
    start: float
    end: float
    self_s: float


class Tracer:
    """In-memory span recorder; spans exist only inside :meth:`evaluation`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._stack: List[_Frame] = []
        self._eval_id = 0
        self.records: List[SpanRecord] = []
        self.counters: Dict[int, Counts] = defaultdict(lambda: defaultdict(float))
        self.overhead_s: Dict[int, float] = defaultdict(float)

    def _active(self) -> bool:
        return (
            bool(self._stack)
            and threading.get_ident() == self._thread
            and os.getpid() == self._pid
        )

    def _close(self, frame: _Frame, end: float) -> None:
        """Pop ``frame`` and record it."""
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.records.append(
            SpanRecord(
                name=frame.name,
                eval_id=self._eval_id,
                parent=None if parent is None else parent.name,
                start=frame.start,
                end=end,
                self_s=end - frame.start - frame.child_s,
            )
        )

    @contextmanager
    def evaluation(self) -> Iterator[int]:
        """Open the root span of one evaluation; yields its id."""
        if self._stack:
            raise RuntimeError("evaluations do not nest")
        self._eval_id += 1
        frame = _Frame(ROOT_SPAN)
        self._stack.append(frame)
        frame.start = self._clock()
        try:
            yield self._eval_id
        finally:
            self._close(frame, self._clock())

    def call(self, target: Target, fn: Callable, args: Tuple, kwargs: Dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``target.span``."""
        if not self._active():
            return fn(*args, **kwargs)
        entered = self._clock()
        frame = _Frame(target.span)
        self._stack.append(frame)
        frame.start = self._clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = self._clock()
            self._close(frame, end)
            if target.count is not None and result is not None:
                counters = self.counters[self._eval_id]
                for key, value in target.count(args, kwargs, result).items():
                    counters[f"{target.span}.{key}"] += value
            exited = self._clock()
            self.overhead_s[self._eval_id] += (frame.start - entered) + (exited - end)
            self._stack[-1].child_s += exited - entered

    def per_eval(self) -> Dict[int, Dict[str, float]]:
        """Per evaluation: each span's summed ``.self_s``, ``.total_s`` and ``.calls``.

        ``.total_s`` is the summed duration, children included.  Counters from
        the targets' ``count`` probes and the ``trace.overhead.self_s`` of the
        tracer's own bookkeeping are added under their own names.
        """
        table: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for record in self.records:
            row = table[record.eval_id]
            row[f"{record.name}.self_s"] += record.self_s
            row[f"{record.name}.total_s"] += record.end - record.start
            row[f"{record.name}.calls"] += 1
        for eval_id, counters in self.counters.items():
            table[eval_id].update(counters)
        for eval_id, seconds in self.overhead_s.items():
            table[eval_id][f"{OVERHEAD_SPAN}.self_s"] += seconds
        return {key: dict(row) for key, row in table.items()}


def _import_all(package: str = "repro") -> None:
    """Import every submodule so every by-name alias exists before patching."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)


def resolve(target: Target) -> Tuple[Any, str, Any]:
    """``(owner, name, original)`` of a target; raises if it no longer exists.

    A method must be defined on the named class itself, not inherited, so a
    rename or a move in the library fails here instead of silently tracing
    nothing.
    """
    module = importlib.import_module(target.module)
    if "." in target.attr:
        class_name, method = target.attr.split(".")
        owner = getattr(module, class_name)
        if method not in vars(owner):
            raise AttributeError(f"{target.module}.{target.attr} is not defined")
        return owner, method, vars(owner)[method]
    if not hasattr(module, target.attr):
        raise AttributeError(f"{target.module}.{target.attr} is not defined")
    return module, target.attr, getattr(module, target.attr)


def _wrap(tracer: Tracer, target: Target, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(target, original, args, kwargs)

    return traced


@contextmanager
def install(tracer: Tracer) -> Iterator[int]:
    """Wrap every one of :data:`TARGETS` at every alias; restore the originals on exit.

    Yields the number of attribute bindings patched.
    """
    _import_all()
    patched: List[Tuple[Any, str, Any]] = []
    try:
        for target in TARGETS:
            owner, name, original = resolve(target)
            wrapper = _wrap(tracer, target, original)
            if isinstance(owner, type):
                patched.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, alias, original))
                        setattr(module, alias, wrapper)
        yield len(patched)
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
