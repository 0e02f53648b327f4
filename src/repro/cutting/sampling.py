"""Finite-shot sampling executor: the paper's Section 2.2 "shots-based model".

:class:`SamplingExecutor` estimates every subcircuit variant from a finite number
of measurement shots instead of reading exact branch probabilities.  One shot of
a variant circuit collapses the branching simulation to a single measurement
branch (drawn with the branch's probability) and yields that branch's recorded
outcome: the cumulative ±1 sign for expectation-mode variants, the output-qubit
bitstring (with its sign) for probability-mode variants.  The sample mean over
``shots`` draws is an unbiased estimator of the exact sign-weighted value /
quasi-distribution the :class:`~repro.cutting.executors.BatchedExactExecutor` computes,
with standard error ``O(1/sqrt(shots))`` — which is exactly what real hardware
reports, and what makes shot *allocation* across variants matter (see
:mod:`repro.engine.allocation`).

The exact branches come from batched passes over variant-table rows, not from
one scalar simulation per variant: :meth:`SamplingExecutor.run_many` splits
cache misses into passes by (table, skeleton class)
(:func:`~repro.simulator.batched.pass_batches`), runs each once through
:func:`~repro.simulator.batched.simulate_variant_group` with ``rows=True``,
and samples every request from its own slice of the live branch rows.  Those
rows equal the scalar :class:`~repro.simulator.dynamic.BranchingSimulator`
branch list byte for byte (probability, sign and output index per branch, in
the same order), so every draw is unchanged.  Every variant is a table row,
whose table checked its ``out:`` measurements when it was built.

The shots a batch draws travel with it as a
:class:`~repro.engine.allocation.ShotPlan` (``run_batch(batch, shots=plan)``);
without one, every request draws the executor's default ``shots``.  The
executor keeps no shot counts between batches.

Determinism contract (shared with :class:`~repro.cutting.executors.NoisyExecutor`):
every request draws its own RNG seeded from ``(base_seed, fingerprint, shots,
stage)``, so results are independent of submission order, worker count and
chunking — serial and parallel batch runs are bit-identical — and can be cached
safely.  Cache keys additionally carry the request's shot count and the plan's
stage (see :meth:`cache_key`), so pilot-pass samples never alias full-pass
results, even at coinciding shot counts.  Streaming rounds resume each
variant's saved generator from a bounded per-executor memo and draw only their
new shots; a memo miss redraws the cumulative count from the seed, giving the
same bits, so results never depend on memo state.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.allocation import ShotPlan
from ..engine.cache import ResultCache, build_cache_key, build_cache_namespace
from ..engine.requests import VariantResult, request_key, seed_from_fingerprint
from ..exceptions import CuttingError
from ..simulator.batched import pass_batches, simulate_variant_group
from ..simulator.sampler import sample_weighted_counts_prefix
from .executors import DEFAULT_MAX_BATCH_ELEMENTS, VariantExecutor
from .variants import SubcircuitVariant

__all__ = ["SamplingExecutor"]

#: Default per-variant shot count of a batch passed no shot plan.
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


class SamplingExecutor(VariantExecutor):
    """Estimate variant values from finite multinomial samples of the exact branches.

    Args:
        shots: the per-variant shot count of a batch passed no
            :class:`~repro.engine.allocation.ShotPlan`; a plan passed with a
            batch (``run_batch(batch, shots=plan)``) sets each request's count,
            stage and seed counts instead.
        seed: base seed of every per-request generator; ``None`` draws one
            once, so the instance stays self-consistent in worker processes.
        cache: the shared bounded result cache (as on every executor).

    ``executions`` counts variants, not shots, keeping overhead reports
    comparable with the exact and noisy executors.
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
        self._branch_memo: Dict[str, _BranchTable] = {}
        self._stream_memo: Dict[Tuple[str, Tuple[int, ...]], _StreamEntry] = {}

    # ------------------------------------------------------------------ shots
    @property
    def shots(self) -> int:
        """Default shots per variant (drawn by a batch passed no shot plan)."""
        return self._shots

    @property
    def base_seed(self) -> int:
        return self._base_seed

    def _counts(self, fingerprint: str, shots: Optional[ShotPlan]) -> Tuple[int, int, str]:
        """``(drawn shots, seed shots, stage)`` of one request under ``shots``."""
        if shots is None:
            return self._shots, self._shots, ""
        return shots.shots_for(fingerprint), shots.seed_shots_for(fingerprint), shots.stage

    # ------------------------------------------------------------------ protocol
    def seed_for(self, fingerprint: str, shots: Optional[ShotPlan] = None) -> Tuple[int, ...]:
        # Seed shot count and stage label join the seed material so allocation
        # passes (pilot vs final) always draw statistically independent samples,
        # while streaming rounds (same seed shots, growing drawn counts) keep
        # drawing prefixes of one final sample.
        _, seed_shots, stage = self._counts(fingerprint, shots)
        return (
            *seed_from_fingerprint(fingerprint, self._base_seed),
            seed_shots,
            zlib.crc32(stage.encode("utf-8")),
        )

    def cache_namespace(self) -> str:
        return build_cache_namespace("sampling", seed=self._base_seed)

    def cache_key(self, fingerprint: str, shots: Optional[ShotPlan] = None) -> str:
        # seed_shots enters the key only when it differs from the drawn count:
        # a partial (prefix) draw of a longer seeded stream must never alias
        # the complete draw, nor partial draws of other stream lengths.
        drawn, seed_shots, stage = self._counts(fingerprint, shots)
        return build_cache_key(fingerprint, shots=drawn, stage=stage, seed_shots=seed_shots)

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
        self,
        pending: Sequence[Tuple[str, SubcircuitVariant, Optional[Tuple[int, ...]]]],
        shots: Optional[ShotPlan] = None,
    ) -> List[Tuple[str, VariantResult]]:
        """Sample every pending request, at the counts ``shots`` plans for it,
        from the exact branch rows of its variant.

        Rows depend only on the circuit, never on the shot count or seed, so
        they are memoised per fingerprint: streaming sessions (which re-sample
        every variant each round) simulate each variant once.  Memo misses
        run in one batched pass per (table, skeleton class), which evolves
        each twin class once (a wire cut's I and Z rows share one evolution and
        differ only in the signs read off its recorded outcome), so the rows,
        and the draws from them, are byte for byte those of each variant
        alone; every request then draws from its own seed exactly as a lone
        request would.
        A streaming round resumes each request's saved generator and draws
        only the shots added since the last round (see :meth:`_draw`).
        """
        tables: Dict[str, _BranchTable] = {}
        misses: List[Tuple[str, SubcircuitVariant]] = []
        for key, variant, _ in pending:
            table = self._branch_memo.get(key)
            if table is None:
                misses.append((key, variant))
            else:
                tables[key] = table
        variants = [variant for _, variant in misses]
        for positions in pass_batches(variants, DEFAULT_MAX_BATCH_ELEMENTS):
            rows = simulate_variant_group([variants[p] for p in positions], rows=True)
            bounds = rows.bounds.tolist()
            for column, position in enumerate(positions):
                key, variant = misses[position]
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
            (key, self._sample(key, variant, tables[key], seed, shots))
            for key, variant, seed in pending
        ]

    def _sample(
        self,
        fingerprint: str,
        variant: SubcircuitVariant,
        table: _BranchTable,
        seed: Optional[Tuple[int, ...]],
        plan: Optional[ShotPlan],
    ) -> VariantResult:
        """One request's estimate: the planned prefix-stable draws over its branches."""
        probabilities, signs, out_index = table
        shots, seed_shots, _ = self._counts(fingerprint, plan)
        if seed is None:
            seed = self.seed_for(fingerprint, plan)
        counts = self._draw(fingerprint, probabilities, shots, seed, seed_shots)
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
        seed_shots: int,
    ) -> np.ndarray:
        """Cumulative counts of the first ``shots`` draws of the ``seed`` stream.

        A streaming round resumes the generator its previous round left off
        and draws only the new shots: ``Generator.random(a)`` then
        ``random(b)`` equals ``random(a + b)`` byte for byte, so the summed
        counts equal a fresh ``shots``-draw exactly.  Without a usable memo
        entry (none, or one already past ``shots``, as for a second session
        at the same seed) the stream is redrawn from its seed and replaces
        the entry.  An entry lives only while its stream is partial
        (``shots`` below the plan's ``seed_shots``), so batch and pilot draws
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
        if shots < seed_shots:
            if len(self._stream_memo) >= _BRANCH_MEMO_SIZE:
                self._stream_memo.pop(next(iter(self._stream_memo)))
            self._stream_memo[key] = (rng, counts, shots)
        return counts
