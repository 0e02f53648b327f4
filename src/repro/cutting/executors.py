"""Executors: how subcircuit variants are evaluated.

Reconstruction needs two quantities per variant:

* ``expectation_value(variant)`` — the outcome-sign-weighted expectation
  ``sum_branches sign * probability`` (wire-cut signs, gate-cut signs and the
  observable-term measurement signs are all folded into the branch signs by the
  variant builder),
* ``quasi_distribution(variant)`` — the sign-weighted distribution over the
  variant's original-output qubits.

Executors are *batch-capable backends* behind the execution engine
(:mod:`repro.engine`): :meth:`VariantExecutor.run_batch` dedups requests by
fingerprint, satisfies repeats from the shared bounded
:class:`~repro.engine.cache.ResultCache`, and executes only the unique misses —
in-process by default, or through whatever ``dispatch`` callable a
:class:`~repro.engine.ParallelEngine` supplies (chunked worker pools).  The
single-variant convenience API is kept and routed through the same path, so the
dedup-aware ``executions`` counter is authoritative however the executor is
driven.

Three executors are provided, all simulating through the batched passes of
:mod:`repro.simulator.batched`:

* :class:`BatchedExactExecutor` — exact evaluation, the engine's default:
  cache-miss requests that are rows of one variant table
  (:class:`~repro.cutting.variants.VariantTable`) and share its skeleton class
  run in one ``(batch, 2**n)`` pass read straight off the table,
* :class:`~repro.cutting.sampling.SamplingExecutor` (in
  :mod:`repro.cutting.sampling`) — finite-shot estimation: every variant value is
  the mean of ``shots`` multinomial samples, with per-variant counts passed
  with each batch as a :class:`~repro.engine.allocation.ShotPlan` (Section
  2.2's shots-based model), drawn from the exact branch rows of the same
  per-table batched passes,
* :class:`NoisyExecutor` — the "small quantum device" of the Table 3 experiment: the
  variant is compiled to the device basis, Pauli noise is injected stochastically
  per trajectory, and finite-shot statistical noise is emulated; results are averaged
  over trajectories, which run as the rows of one batched program.

Each is pinned byte for byte to a scalar walk of the branching simulator, one
variant or trajectory at a time; those oracles live with the tests
(``tests/reference_executors.py``), not in the library.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..circuits import Circuit, decompose_to_basis, operation
from ..engine.allocation import ShotPlan
from ..engine.cache import (
    ResultCache,
    build_cache_namespace,
    scoped_cache_namespace,
)
from ..engine.requests import (
    RequestBatch,
    VariantResult,
    request_key,
    seed_from_fingerprint,
)
from ..exceptions import CuttingError
from ..simulator.batched import (
    compile_program,
    pass_batches,
    simulate_program,
    simulate_variant_group,
)
from ..simulator.noise import PAULI_ERRORS, DeviceModel, draw_pauli_errors
from .variants import SubcircuitVariant

__all__ = ["VariantExecutor", "BatchedExactExecutor", "NoisyExecutor"]

#: A dispatch backend: receives the executor, the unique cache-miss requests
#: ``[(fingerprint, variant, seed), ...]`` and the batch's shot plan, and
#: returns ``[(fingerprint, result)]``.
DispatchFn = Callable[
    ["VariantExecutor", Sequence[Tuple], Optional[ShotPlan]],
    Iterable[Tuple[str, VariantResult]],
]


def _unpickled_executor(executor: "VariantExecutor") -> "VariantExecutor":
    """Default spawn factory: the executor itself travels by pickle."""
    return executor


class VariantExecutor(ABC):
    """Batch-capable strategy object evaluating subcircuit variants.

    Args:
        cache: the shared bounded :class:`~repro.engine.cache.ResultCache`
            holding this executor's results (a private default-sized cache is
            created when omitted).  Executors sharing one cache share results —
            safe because cache keys are namespaced per executor configuration
            (see :meth:`cache_namespace` / :meth:`cache_key`).

    Subclasses implement :meth:`execute_variant`; everything else (dedup,
    caching, counters, batch dispatch, worker-process transport) is inherited.
    The batch methods take an optional ``shots``
    :class:`~repro.engine.allocation.ShotPlan`: the shots a sampling batch
    draws.  Executors that do not sample ignore it.
    """

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self._cache = cache if cache is not None else ResultCache()
        self._cache_scope: Optional[str] = None
        self._executions = 0
        self._requests = 0
        self._dedup_hits = 0
        self._cache_hits = 0

    # ------------------------------------------------------------------ protocol
    @abstractmethod
    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        """Run one variant circuit and return its result payload.

        ``seed`` is the engine's deterministic per-request seed material (``None``
        for deterministic executors); implementations must depend only on
        ``(variant, seed)`` so that batches parallelise reproducibly.
        """

    def seed_for(
        self, fingerprint: str, shots: Optional[ShotPlan] = None
    ) -> Optional[Tuple[int, ...]]:
        """Per-request seed material; None for deterministic executors."""
        return None

    def run_many(
        self,
        pending: Sequence[Tuple[str, SubcircuitVariant, Optional[Tuple[int, ...]]]],
        shots: Optional[ShotPlan] = None,
    ) -> List[Tuple[str, VariantResult]]:
        """Execute unique cache-miss requests; return ``[(fingerprint, result)]``.

        ``pending`` holds ``(fingerprint, variant, seed)`` triples that already
        passed dedup and cache lookup.  The default runs each request through
        :meth:`execute_variant` in order; batch-capable executors (see
        :class:`BatchedExactExecutor`) override this with a vectorized fast
        path.  Both the serial :meth:`run_batch` path and the engine's worker
        chunks call it, so one override accelerates in-process and pooled
        execution alike.  Result order is irrelevant to callers (they key by
        fingerprint), but every pending fingerprint must appear exactly once.
        """
        return [
            (key, self.execute_variant(variant, seed=seed))
            for key, variant, seed in pending
        ]

    def cache_namespace(self) -> str:
        """Key prefix isolating this executor's results in a shared cache."""
        return type(self).__name__

    def set_cache_scope(self, scope: Optional[str]) -> None:
        """Extra key prefix layered on top of :meth:`cache_namespace`.

        Set by :class:`~repro.engine.ParallelEngine` when a *heterogeneous*
        device farm executes this executor's requests on per-device backends:
        which backend produced a result then depends on routing, so those
        results must never alias what the same executor class would store in a
        shared cache without the farm.  ``None`` (the default) leaves keys
        unchanged.
        """
        self._cache_scope = scope

    def _scoped_namespace(self) -> str:
        return scoped_cache_namespace(self.cache_namespace(), self._cache_scope)

    def cache_key(self, fingerprint: str, shots: Optional[ShotPlan] = None) -> str:
        """Cache key for one request within this executor's namespace.

        Defaults to the fingerprint itself.  Executors whose result depends on
        per-request state beyond the variant circuit (e.g. the shots a plan
        draws) must fold that state in here, so results taken under different
        settings never alias in the shared cache.
        """
        return fingerprint

    def spawn_spec(self) -> Tuple[Callable, Tuple]:
        """(factory, args) rebuilding an equivalent executor in a worker process.

        The default pickles this instance (minus cached results, see
        ``__getstate__``), so subclasses with constructor arguments behave
        correctly in process pools without overriding anything.  Executors with
        cheap, explicit constructor state may override to avoid pickling
        themselves (see :meth:`NoisyExecutor.spawn_spec`).
        """
        return _unpickled_executor, (self,)

    def __getstate__(self) -> Dict:
        """Pickle support: ship configuration, never the cached result payloads."""
        state = dict(self.__dict__)
        state["_cache"] = ResultCache(self._cache.maxsize)
        return state

    # ------------------------------------------------------------------ batch API
    def run_batch(
        self,
        variants: Iterable[SubcircuitVariant],
        dispatch: Optional[DispatchFn] = None,
        shots: Optional[ShotPlan] = None,
    ) -> Dict[str, VariantResult]:
        """Execute a batch of variants; return ``fingerprint -> VariantResult``.

        ``variants`` is a :class:`~repro.engine.RequestBatch` or any iterable
        of variants, each item one read.  Its distinct requests are deduped by
        fingerprint and satisfied from the shared cache where possible; only
        the unique misses are executed (serially, or by the supplied
        ``dispatch`` backend).  The ``requests`` counter advances by the
        number of reads, ``executions`` by exactly the number of unique
        misses.  ``shots`` reaches the seed, the cache key and the execution
        of every request.
        """
        namespace = self._scoped_namespace()
        batch = RequestBatch.of(variants)
        table: Dict[str, VariantResult] = {}
        pending: List[Tuple[str, SubcircuitVariant, Optional[Tuple[int, ...]]]] = []
        scheduled: set = set()
        for variant in batch.variants:
            key = request_key(variant)
            if key in table or key in scheduled:
                continue
            cached = self._cache.get((namespace, self.cache_key(key, shots)))
            if cached is not None:
                self._cache_hits += 1
                table[key] = cached
                continue
            pending.append((key, variant, self.seed_for(key, shots)))
            scheduled.add(key)
        self._requests += len(batch)
        self._dedup_hits += len(batch) - len(table) - len(pending)
        if pending:
            if dispatch is None:
                results: Iterable[Tuple[str, VariantResult]] = self.run_many(pending, shots)
            else:
                results = dispatch(self, pending, shots)
            for key, result in results:
                self._cache.put((namespace, self.cache_key(key, shots)), result)
                table[key] = result
            self._executions += len(pending)
        return table

    # ------------------------------------------------------------------ single API
    def expectation_value(self, variant: SubcircuitVariant) -> float:
        """Sign-weighted expectation of the variant."""
        result = self.run_batch([variant])[request_key(variant)]
        if result.value is None:
            raise CuttingError(
                f"executor {type(self).__name__} produced no expectation value for a "
                f"{variant.mode!r}-mode variant"
            )
        return result.value

    def quasi_distribution(self, variant: SubcircuitVariant) -> np.ndarray:
        """Sign-weighted distribution over the variant's output qubits.

        Returns a private copy: the underlying array lives in the shared result
        cache, which must never be mutated through a caller's handle.
        """
        result = self.run_batch([variant])[request_key(variant)]
        if result.distribution is None:
            raise CuttingError(
                f"executor {type(self).__name__} produced no distribution for a "
                f"{variant.mode!r}-mode variant (distributions require probability mode)"
            )
        return result.distribution.copy()

    # ------------------------------------------------------------------ accounting
    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def executions(self) -> int:
        """Unique variant circuits executed (dedup-aware, for overhead reporting)."""
        return self._executions

    @property
    def requests(self) -> int:
        """Total variant requests received (including dedup and cache hits)."""
        return self._requests

    @property
    def dedup_hits(self) -> int:
        return self._dedup_hits

    @property
    def cache_hits(self) -> int:
        return self._cache_hits


#: Complex-element budget of one batched simulation pass (see
#: :class:`BatchedExactExecutor`): ``2**23`` elements is ~128 MB of amplitudes.
DEFAULT_MAX_BATCH_ELEMENTS = 1 << 23


class BatchedExactExecutor(VariantExecutor):
    """Vectorized exact evaluation: rows of one variant table share a batched pass.

    Rows of one table share their two-qubit gates and measurement/reset
    skeleton and differ only at their cut-end slots.  :meth:`run_many` groups
    cache-miss requests by (table, skeleton class) and runs each group as one
    ``(batch, 2**n)`` pass (:func:`~repro.simulator.batched.simulate_variant_group`),
    which evolves each twin class (a wire cut's I and Z rows) once.  Results are
    **bit-identical** to walking each variant alone through the scalar branching
    simulator, as the tests' scalar executor does (:mod:`repro.simulator.batched`
    says why); a twin is still one execution in the ``executions`` counter.

    Args:
        cache: the shared bounded result cache (as on every executor).
        max_batch_elements: sizing budget per batched pass, in complex
            amplitudes; ``2**23`` (~128 MB) by default.  Groups are split into
            sub-batches of whole twin classes so that ``classes`` times the
            pass program's :attr:`~repro.simulator.batched.Program.row_elements`
            stays under it: a *sizing heuristic*, not a hard memory guarantee
            (see that estimate for why).
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        max_batch_elements: int = DEFAULT_MAX_BATCH_ELEMENTS,
    ) -> None:
        if max_batch_elements < 1:
            raise CuttingError(
                f"max_batch_elements must be >= 1, got {max_batch_elements}"
            )
        super().__init__(cache)
        self._max_batch_elements = int(max_batch_elements)

    # ------------------------------------------------------------------ execution
    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        return self.run_many([(request_key(variant), variant, seed)])[0][1]

    def run_many(
        self,
        pending: Sequence[Tuple[str, SubcircuitVariant, Optional[Tuple[int, ...]]]],
        shots: Optional[ShotPlan] = None,
    ) -> List[Tuple[str, VariantResult]]:
        """Run pending requests in batched passes, one per table skeleton class.

        See :func:`~repro.simulator.batched.pass_batches` for the grouping
        and the sub-batch split.
        """
        variants = [variant for _, variant, _ in pending]
        results: List[Tuple[str, VariantResult]] = []
        for positions in pass_batches(variants, self._max_batch_elements):
            outcomes = simulate_variant_group([variants[p] for p in positions])
            for position, (value, distribution) in zip(positions, outcomes):
                results.append(
                    (pending[position][0], VariantResult(value=value, distribution=distribution))
                )
        return results


class NoisyExecutor(VariantExecutor):
    """Noisy-device evaluation: stochastic Pauli injection + finite-shot emulation.

    Each variant is compiled to the device's native basis (routing is skipped when the
    variant uses fewer wires than the device has qubits, mirroring how small
    subcircuits are placed on the best-connected physical qubits).  ``trajectories``
    independent noise realisations are simulated exactly and averaged; when ``shots``
    (>= 1) is given, zero-mean Gaussian noise with the binomial standard error of the
    shot budget is added to expectation-type values.

    A variant's trajectories are the rows of one batched program, passes
    sized at the default budget: the compiled circuit with an error slot (no
    error, X, Y, Z) after each gate operand some trajectory's
    :func:`~repro.simulator.noise.draw_pauli_errors` strikes, each row's
    choices one trajectory's draws.  Results equal each trajectory's injected
    circuit run alone, byte for byte.

    Every request draws its own RNG seeded from ``(seed, fingerprint)``, so results
    are independent of execution order (serial == parallel, bit for bit) and can be
    cached under seed-aware keys.  ``executions`` counts *variants*, not
    trajectories, making overhead reports comparable with the exact executors.
    """

    def __init__(
        self,
        device: DeviceModel,
        shots: Optional[int] = 16384,
        trajectories: int = 25,
        seed: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if trajectories < 1:
            raise CuttingError("trajectories must be >= 1")
        if shots is not None and shots < 1:
            raise CuttingError(f"shots must be >= 1 or None, got {shots}")
        super().__init__(cache)
        self._device = device
        self._shots = shots
        self._trajectories = trajectories
        if seed is None:
            # Draw a base seed once so the instance is self-consistent (and
            # shippable to worker processes) even without an explicit seed.
            seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFFFFFFFFFF  # qrcclint: disable=unseeded-randomness -- one-time base-seed draw when the caller passes none; every per-request draw is then derived from (base_seed, fingerprint)
        self._base_seed = int(seed)

    # ------------------------------------------------------------------ protocol
    def seed_for(self, fingerprint: str, shots: Optional[ShotPlan] = None) -> Tuple[int, ...]:
        return seed_from_fingerprint(fingerprint, self._base_seed)

    def cache_namespace(self) -> str:
        noise = self._device.noise
        return build_cache_namespace(
            "noisy",
            parts=(
                self._device.name,
                self._device.num_qubits,
                noise.two_qubit_error,
                noise.single_qubit_error,
                self._shots,
                self._trajectories,
            ),
            seed=self._base_seed,
        )

    def spawn_spec(self) -> Tuple[Type["NoisyExecutor"], Tuple]:
        return NoisyExecutor, (self._device, self._shots, self._trajectories, self._base_seed)

    # ------------------------------------------------------------------ execution
    def _prepare(self, variant: SubcircuitVariant) -> Circuit:
        if variant.num_wires > self._device.num_qubits:
            raise CuttingError(
                f"variant needs {variant.num_wires} qubits but device "
                f"{self._device.name} only has {self._device.num_qubits}"
            )
        return decompose_to_basis(variant.circuit)

    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        if seed is None:
            seed = self.seed_for(request_key(variant))
        rng = np.random.default_rng(seed)
        compiled = self._prepare(variant)
        points, choices = draw_pauli_errors(compiled, self._device.noise, rng, self._trajectories)
        # Slots only where some trajectory strikes: elsewhere every row pads I.
        struck = np.flatnonzero(choices.any(axis=0)).tolist()
        slots = {points[point]: column for column, point in enumerate(struck)}
        entries: List[Any] = []
        for index, op in enumerate(compiled):
            entries.append(op)
            for qubit in op.qubits:
                if (index, qubit) in slots:
                    errors = tuple(operation(name, (qubit,)) for name in PAULI_ERRORS)
                    entries.append((slots[index, qubit], (None, *errors)))
        program = compile_program(compiled.num_qubits, entries, variant.output_qubit_order)
        outputs = len(variant.output_qubit_order) if variant.mode == "probability" else None
        rows = simulate_program(program, choices[:, struck], DEFAULT_MAX_BATCH_ELEMENTS, outputs)
        # Averaged as the scalar walk: np.mean, distributions summed in order.
        value = float(np.mean([row_value for row_value, _ in rows]))
        distribution: Optional[np.ndarray] = None
        if outputs is not None:
            distribution = np.zeros(2**outputs)
            for row_distribution in (part for _, part in rows if part is not None):
                distribution += row_distribution
            distribution = distribution / self._trajectories
        if self._shots is not None:
            sigma = 1.0 / np.sqrt(self._shots)
            value += float(rng.normal(0.0, sigma))
            if distribution is not None:
                distribution = distribution + rng.normal(0.0, sigma, size=distribution.shape)
        return VariantResult(value=value, distribution=distribution)
