"""Finite-shot sampling executor: the paper's Section 2.2 "shots-based model".

:class:`SamplingExecutor` estimates every subcircuit variant from a finite number
of measurement shots instead of reading exact branch probabilities.  One shot of
a variant circuit collapses the branching simulation to a single measurement
branch (drawn with the branch's probability) and yields that branch's recorded
outcome: the cumulative ±1 sign for expectation-mode variants, the output-qubit
bitstring (with its sign) for probability-mode variants.  The sample mean over
``shots`` draws is an unbiased estimator of the exact sign-weighted value /
quasi-distribution the :class:`~repro.cutting.executors.ExactExecutor` computes,
with standard error ``O(1/sqrt(shots))`` — which is exactly what real hardware
reports, and what makes shot *allocation* across variants matter (see
:mod:`repro.engine.allocation`).

The exact branches come from grouped batched passes, not from one scalar
simulation per variant: :meth:`SamplingExecutor.run_many` groups cache misses
by circuit structure (:func:`~repro.cutting.executors.structure_batches`), runs
each group once through
:func:`~repro.simulator.batched.simulate_variant_group` with ``rows=True``,
and samples every request from its own slice of the live branch rows.  Those
rows equal the scalar :class:`~repro.simulator.dynamic.BranchingSimulator`
branch list byte for byte (probability, sign and output index per branch, in
the same order), so every draw is unchanged.

Determinism contract (shared with :class:`~repro.cutting.executors.NoisyExecutor`):
every request draws its own RNG seeded from ``(base_seed, fingerprint, shots,
stage)``, so results are independent of submission order, worker count and
chunking — serial and parallel batch runs are bit-identical — and can be cached
safely.  Cache keys additionally carry the request's shot count and allocation
stage (see :meth:`cache_key` / :meth:`set_allocation`), so pilot-pass samples
never alias full-pass results, even at coinciding shot counts.  Streaming
rounds resume each variant's saved generator from a bounded per-executor memo
and draw only their new shots; a memo miss redraws the cumulative count from
the seed, giving the same bits, so results never depend on memo state.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine.cache import ResultCache, build_cache_key, build_cache_namespace
from ..engine.requests import VariantResult, request_key, seed_from_fingerprint
from ..exceptions import CuttingError
from ..simulator.batched import simulate_variant_group
from ..simulator.sampler import sample_weighted_counts_prefix
from .executors import (
    DEFAULT_MAX_BATCH_ELEMENTS,
    VariantExecutor,
    check_output_tags,
    structure_batches,
)
from .variants import SubcircuitVariant

__all__ = ["SamplingExecutor"]

#: Default per-variant shot count when no allocation is applied.
DEFAULT_SHOTS = 4096

#: Entries kept in each per-executor memo, the branch rows and the partially
#: drawn streams (see :meth:`SamplingExecutor.run_many`): streaming sessions
#: sample the same variant circuit every round, so each variant is simulated
#: once and each round draws only its new shots.
_BRANCH_MEMO_SIZE = 4096

#: One variant's exact branches: probabilities, signs (as floats) and, in
#: probability mode, output indices — in the scalar enumeration order.
_BranchTable = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]

#: One partially drawn stream (see :meth:`SamplingExecutor._draw`): the
#: generator positioned after the drawn shots, their cumulative counts, and
#: how many shots that is.
_StreamEntry = Tuple[np.random.Generator, np.ndarray, int]


def _respawn_sampling(
    shots: int,
    seed: int,
    allocation_items: Tuple,
    stage: str,
    seed_shots_items: Optional[Tuple] = None,
) -> "SamplingExecutor":
    """Spawn factory: rebuild a worker-process copy from explicit constructor state."""
    executor = SamplingExecutor(shots=shots, seed=seed)
    executor.set_allocation(
        dict(allocation_items) or None,
        stage=stage,
        seed_shots_by_fingerprint=dict(seed_shots_items) if seed_shots_items else None,
    )
    return executor


class SamplingExecutor(VariantExecutor):
    """Estimate variant values from finite multinomial samples of the exact branches.

    ``shots`` is the default per-variant budget; :meth:`set_allocation` overrides
    it per fingerprint (the engine applies a :class:`~repro.engine.allocation.ShotAllocation`
    this way).  ``executions`` counts variants, not shots, keeping overhead
    reports comparable with the exact and noisy executors.
    """

    def __init__(
        self,
        shots: int = DEFAULT_SHOTS,
        seed: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if shots < 1:
            raise CuttingError(f"shots must be >= 1, got {shots}")
        super().__init__(cache)
        self._shots = int(shots)
        if seed is None:
            # Draw a base seed once so the instance is self-consistent (and
            # shippable to worker processes) even without an explicit seed.
            seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFFFFFFFFFF  # qrcclint: disable=unseeded-randomness -- one-time base-seed draw when the caller passes none; every per-request draw is then derived from (base_seed, fingerprint)
        self._base_seed = int(seed)
        self._allocation: Dict[str, int] = {}
        self._allocation_floor: Optional[int] = None
        self._seed_shots: Dict[str, int] = {}
        self._stage = ""
        self._branch_memo: Dict[str, _BranchTable] = {}
        self._stream_memo: Dict[Tuple[str, Tuple[int, ...]], _StreamEntry] = {}

    # ------------------------------------------------------------------ allocation
    @property
    def shots(self) -> int:
        """Default shots per variant (used when no allocation covers a request)."""
        return self._shots

    @property
    def base_seed(self) -> int:
        return self._base_seed

    @property
    def allocation(self) -> Dict[str, int]:
        """The active per-fingerprint shot allocation (a copy; empty = default)."""
        return dict(self._allocation)

    def set_allocation(
        self,
        shots_by_fingerprint: Optional[Mapping[str, int]] = None,
        stage: str = "",
        seed_shots_by_fingerprint: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Apply (or clear, with ``None``) a per-variant shot allocation.

        Subsequent requests whose fingerprint appears in the mapping are sampled
        with that many shots; all others fall back to the default ``shots``.

        ``stage`` labels the allocation pass (e.g. ``"pilot"``) and enters both
        the per-request seed and the cache key: passes with different labels
        draw statistically independent samples and never alias in the cache,
        *even when a variant happens to get the same shot count in both* — the
        variance-aware allocator relies on this so its pilot sample (which chose
        the allocation) is never silently reused as the final estimate.

        ``seed_shots_by_fingerprint`` decouples the *seed* shot count from the
        *drawn* shot count for streaming sessions: each round re-applies the
        growing cumulative counts here while pinning the seed material to the
        final planned totals, so — the sampler being prefix-stable, see
        :func:`~repro.simulator.sampler.sample_weighted_counts_prefix` — every
        round's sample is a bitwise prefix of the final one, and the final
        round (where drawn == seed counts) reproduces the one-shot batch draw
        exactly.  Each round resumes the generator the previous round left off
        and draws only the new shots (see :meth:`_draw`), so a session of
        ``R`` rounds draws each variant's total once, not ``(R + 1) / 2``
        times.  Rounds whose seed and drawn counts differ carry a ``:seed=``
        marker in their cache key so partial draws never alias complete ones.
        ``None`` (the default, and the batch path) seeds from the drawn counts.

        While an allocation is active, a request whose fingerprint is *not*
        covered (a variant that escaped enumeration and reaches the executor
        through the reconstructor's defensive on-demand path) is sampled at the
        allocation's smallest per-variant count — never at the default
        ``shots``, which callers typically set to the *total* budget.
        """
        if shots_by_fingerprint is None:
            self._allocation = {}
            self._allocation_floor = None
            self._seed_shots = {}
            self._stage = ""
            return
        for fingerprint, count in shots_by_fingerprint.items():
            if count < 1:
                raise CuttingError(
                    f"allocated shots must be >= 1, got {count} for {fingerprint[:12]}..."
                )
        if seed_shots_by_fingerprint is not None:
            for fingerprint, count in seed_shots_by_fingerprint.items():
                if count < 1:
                    raise CuttingError(
                        f"seed shots must be >= 1, got {count} for {fingerprint[:12]}..."
                    )
        self._allocation = {key: int(count) for key, count in shots_by_fingerprint.items()}
        self._allocation_floor = min(self._allocation.values(), default=None)
        self._seed_shots = (
            {key: int(count) for key, count in seed_shots_by_fingerprint.items()}
            if seed_shots_by_fingerprint is not None
            else {}
        )
        self._stage = str(stage)

    def shots_for(self, fingerprint: str) -> int:
        """Shots this executor will spend on the given request.

        Falls back to the default ``shots`` when no allocation is active, and
        to the active allocation's smallest per-variant count for fingerprints
        the allocation does not cover (see :meth:`set_allocation`).
        """
        if fingerprint in self._allocation:
            return self._allocation[fingerprint]
        if self._allocation_floor is not None:
            return self._allocation_floor
        return self._shots

    def seed_shots_for(self, fingerprint: str) -> int:
        """Shot count entering the seed material (see :meth:`set_allocation`).

        Equals :meth:`shots_for` unless a streaming session pinned the seed to
        the final planned totals while drawing a smaller cumulative prefix.
        """
        if fingerprint in self._seed_shots:
            return self._seed_shots[fingerprint]
        return self.shots_for(fingerprint)

    # ------------------------------------------------------------------ protocol
    def seed_for(self, fingerprint: str) -> Tuple[int, ...]:
        # Seed shot count and stage label join the seed material so allocation
        # passes (pilot vs final) always draw statistically independent samples,
        # while streaming rounds (same seed shots, growing drawn counts) keep
        # drawing prefixes of one final sample.
        return (
            *seed_from_fingerprint(fingerprint, self._base_seed),
            self.seed_shots_for(fingerprint),
            zlib.crc32(self._stage.encode("utf-8")),
        )

    def cache_namespace(self) -> str:
        return build_cache_namespace("sampling", seed=self._base_seed)

    def cache_key(self, fingerprint: str) -> str:
        # seed_shots enters the key only when it differs from the drawn count:
        # a partial (prefix) draw of a longer seeded stream must never alias
        # the complete draw, nor partial draws of other stream lengths.
        return build_cache_key(
            fingerprint,
            shots=self.shots_for(fingerprint),
            stage=self._stage,
            seed_shots=self.seed_shots_for(fingerprint),
        )

    def spawn_spec(self) -> Tuple:
        return _respawn_sampling, (
            self._shots,
            self._base_seed,
            tuple(sorted(self._allocation.items())),
            self._stage,
            tuple(sorted(self._seed_shots.items())),
        )

    def __getstate__(self) -> Dict:
        # The branch and stream memos hold per-variant arrays and generators;
        # like the result cache (see VariantExecutor.__getstate__) they never
        # cross the process boundary.
        state = super().__getstate__()
        state["_branch_memo"] = {}
        state["_stream_memo"] = {}
        return state

    # ------------------------------------------------------------------ execution
    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        return self.run_many([(request_key(variant), variant, seed)])[0][1]

    def run_many(
        self, pending: Sequence[Tuple[str, SubcircuitVariant, Optional[Tuple[int, ...]]]]
    ) -> List[Tuple[str, VariantResult]]:
        """Sample every pending request from the exact branch rows of its variant.

        Rows depend only on the circuit, never on the shot count or seed, so
        they are memoised per fingerprint: streaming sessions (which re-sample
        every variant each round) simulate each variant once.  Memo misses are
        grouped by structure and each group runs as one batched pass; every
        request then draws from its own seed exactly as a lone request would.
        A streaming round resumes each request's saved generator and draws
        only the shots added since the last round (see :meth:`_draw`).
        """
        tables: Dict[str, _BranchTable] = {}
        misses: List[Tuple[str, SubcircuitVariant]] = []
        for key, variant, _ in pending:
            check_output_tags(variant)
            table = self._branch_memo.get(key)
            if table is None:
                misses.append((key, variant))
            else:
                tables[key] = table
        for chunk in structure_batches(misses, DEFAULT_MAX_BATCH_ELEMENTS):
            rows = simulate_variant_group([variant for _, variant in chunk], rows=True)
            bounds = rows.bounds.tolist()
            for column, (key, variant) in enumerate(chunk):
                span = slice(bounds[column], bounds[column + 1])
                table = (
                    rows.prob[span].copy(),
                    rows.sign[span].astype(float),
                    rows.out_index[span].copy() if variant.mode == "probability" else None,
                )
                tables[key] = table
                if len(self._branch_memo) >= _BRANCH_MEMO_SIZE:
                    self._branch_memo.pop(next(iter(self._branch_memo)))
                self._branch_memo[key] = table
        return [
            (key, self._sample(key, variant, tables[key], seed))
            for key, variant, seed in pending
        ]

    def _sample(
        self,
        fingerprint: str,
        variant: SubcircuitVariant,
        table: _BranchTable,
        seed: Optional[Tuple[int, ...]],
    ) -> VariantResult:
        """One request's estimate: ``shots`` prefix-stable draws over its branches."""
        probabilities, signs, out_index = table
        shots = self.shots_for(fingerprint)
        if seed is None:
            seed = self.seed_for(fingerprint)
        counts = self._draw(fingerprint, probabilities, shots, seed)
        value = float(np.dot(counts, signs) / shots)
        distribution: Optional[np.ndarray] = None
        if out_index is not None:
            distribution = np.zeros(2 ** len(variant.output_qubit_order))
            # np.add.at applies repeated indices in branch order, like a loop
            # of ``distribution[index] += sign * count`` over drawn branches.
            drawn = counts != 0
            np.add.at(distribution, out_index[drawn], signs[drawn] * counts[drawn])
            distribution /= shots
        return VariantResult(value=value, distribution=distribution)

    def _draw(
        self,
        fingerprint: str,
        probabilities: np.ndarray,
        shots: int,
        seed: Tuple[int, ...],
    ) -> np.ndarray:
        """Cumulative counts of the first ``shots`` draws of the ``seed`` stream.

        A streaming round resumes the generator its previous round left off
        and draws only the new shots: ``Generator.random(a)`` then
        ``random(b)`` equals ``random(a + b)`` byte for byte, so the summed
        counts equal a fresh ``shots``-draw exactly.  Without a usable memo
        entry (none, or one already past ``shots``, as for a second session
        at the same seed) the stream is redrawn from its seed and replaces
        the entry.  An entry lives only while its stream is partial
        (``shots`` below :meth:`seed_shots_for`), so batch and pilot draws
        never enter the memo and a session's final round frees its own.
        """
        key = (fingerprint, seed)
        entry = self._stream_memo.pop(key, None)
        if entry is None or entry[2] > shots:
            rng = np.random.default_rng(seed)
            counts = sample_weighted_counts_prefix(probabilities, shots, rng)
        else:
            rng, counts, drawn = entry
            if shots > drawn:
                counts = counts + sample_weighted_counts_prefix(
                    probabilities, shots - drawn, rng
                )
        if shots < self.seed_shots_for(fingerprint):
            if len(self._stream_memo) >= _BRANCH_MEMO_SIZE:
                self._stream_memo.pop(next(iter(self._stream_memo)))
            self._stream_memo[key] = (rng, counts, shots)
        return counts
