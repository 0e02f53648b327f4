"""Shot-budget allocation across an enumerated variant batch.

Finite-shot reconstruction error is dominated by *how a total shot budget is
split* across the ``4^cuts * 6^gate-cuts`` subcircuit variants, not just by the
budget itself (ShotQC; Yang et al. on cutting scalability).  This module turns a
budget into a per-variant allocation under three policies:

* ``"uniform"`` — every unique variant gets an equal share,
* ``"weighted"`` — shares proportional to ``|contraction weight|`` (a variant
  whose result is multiplied by a large coefficient in the reconstruction sum
  deserves proportionally more shots),
* ``"variance"`` — ShotQC-flavoured two-pass Neyman allocation: a small *pilot*
  batch estimates every variant's sampling standard deviation, then the
  remaining budget is split proportional to ``weight * sigma`` (variants that
  are nearly deterministic — sigma ~ 0 — are starved down to the one-shot floor,
  freeing budget for the noisy ones).

All policies are exact: the assigned shots (pilot + final) sum to the requested
budget, with the remainder distributed by largest fractional share and ties
broken by fingerprint so the split is deterministic.  Every variant always
receives at least one final shot.

A :class:`ShotPlan` is what a sampling batch actually draws: per-variant
counts, a stage label and optional seed counts.  It travels with the batch
(``ParallelEngine.run_batch(batch, shots=plan)``); no engine or executor keeps
shot counts between batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import AllocationError, CuttingError
from .requests import RequestBatch, request_key

__all__ = [
    "ALLOCATION_POLICIES",
    "ShotAllocation",
    "ShotPlan",
    "allocate_shots",
    "largest_remainder_split",
    "neyman_weight",
]

#: The supported allocation policy names (EngineConfig validates against this).
ALLOCATION_POLICIES: Tuple[str, ...] = ("uniform", "weighted", "variance")

#: Fraction of the total budget spent on the variance policy's pilot pass.
DEFAULT_PILOT_FRACTION = 0.2

#: Sigma floor: keeps near-deterministic variants at a small positive share so
#: the largest-remainder split stays well-conditioned.
_MIN_SIGMA = 1e-3


@dataclass(frozen=True)
class ShotAllocation:
    """A shot budget split across the unique variants of a batch.

    ``shots_by_fingerprint`` holds the final per-variant counts; for the
    two-pass variance policy ``pilot_shots_by_fingerprint`` holds the pilot
    counts (empty for one-pass policies) and ``pilot_seconds`` the wall clock
    the pilot batch spent executing.  ``assigned_shots`` (pilot + final) always
    equals ``total_shots``.
    """

    policy: str
    total_shots: int
    shots_by_fingerprint: Mapping[str, int]
    pilot_shots_by_fingerprint: Mapping[str, int] = field(default_factory=dict)
    pilot_seconds: float = 0.0

    @property
    def num_variants(self) -> int:
        return len(self.shots_by_fingerprint)

    @property
    def assigned_shots(self) -> int:
        """Shots actually assigned (pilot + final); equals ``total_shots``."""
        return sum(self.shots_by_fingerprint.values()) + sum(
            self.pilot_shots_by_fingerprint.values()
        )

    def shots_for(self, fingerprint: str) -> int:
        return self.shots_by_fingerprint[fingerprint]

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        counts = list(self.shots_by_fingerprint.values())
        return {
            "policy": self.policy,
            "total_shots": self.total_shots,
            "unique_variants": self.num_variants,
            "min_shots": min(counts) if counts else 0,
            "max_shots": max(counts) if counts else 0,
            "pilot_shots": sum(self.pilot_shots_by_fingerprint.values()),
        }


@dataclass(frozen=True)
class ShotPlan:
    """The shots one sampling batch draws, passed with that batch.

    Args:
        shots_by_fingerprint: shots each variant draws (every count >= 1).  A
            fingerprint the plan does not cover draws the plan's smallest
            count, never the executor's default ``shots``, which callers
            typically set to the whole budget.
        stage: label of the allocation pass (``"pilot"`` for the variance
            policy's pilot batch).  It enters both the per-request seed and
            the cache key, so passes with different labels draw independent
            samples and never alias in the cache, even where a variant gets
            the same count in both.
        seed_shots_by_fingerprint: shot counts entering the seed material
            when they differ from the drawn counts.  A streaming round draws
            its cumulative counts under the final totals' seed, so (the
            sampler being prefix-stable, see
            :func:`~repro.simulator.sampler.sample_weighted_counts_prefix`)
            every round's sample is a bitwise prefix of the final one, and the
            final round reproduces the one-shot batch draw.  A fingerprint not
            listed seeds from its drawn count.
    """

    shots_by_fingerprint: Mapping[str, int]
    stage: str = ""
    seed_shots_by_fingerprint: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.shots_by_fingerprint:
            raise AllocationError("a shot plan needs at least one variant")
        for what, counts in (
            ("allocated shots", self.shots_by_fingerprint),
            ("seed shots", self.seed_shots_by_fingerprint),
        ):
            for fingerprint, count in counts.items():
                if count < 1:
                    raise CuttingError(
                        f"{what} must be >= 1, got {count} for {fingerprint[:12]}..."
                    )

    def shots_for(self, fingerprint: str) -> int:
        """Shots the request draws (the plan's smallest count when uncovered)."""
        shots = self.shots_by_fingerprint.get(fingerprint)
        return min(self.shots_by_fingerprint.values()) if shots is None else int(shots)

    def seed_shots_for(self, fingerprint: str) -> int:
        """Shot count entering the request's seed material and cache key."""
        seed_shots = self.seed_shots_by_fingerprint.get(fingerprint)
        return self.shots_for(fingerprint) if seed_shots is None else int(seed_shots)


def samples_shots(executor: Any) -> bool:
    """Whether ``executor`` draws finite shots, and so can take a :class:`ShotPlan`."""
    from ..cutting.sampling import SamplingExecutor  # deferred: cutting imports engine

    return isinstance(executor, SamplingExecutor)


def largest_remainder_split(budget: int, weights: Mapping[str, float]) -> Dict[str, int]:
    """Split ``budget`` integer shots proportionally to ``weights``, exactly.

    Every key receives at least one shot; the proportional remainders are
    rounded down and the leftover shots go to the largest fractional parts
    (ties broken by key, so the split is deterministic).  Raises
    :class:`AllocationError` when the budget cannot cover one shot per key.
    """
    if not weights:
        raise AllocationError("cannot allocate shots over an empty batch")
    keys = sorted(weights)
    if budget < len(keys):
        raise AllocationError(
            f"budget of {budget} shots cannot cover {len(keys)} unique variants "
            "(every variant needs at least one shot)"
        )
    magnitudes = np.array([abs(float(weights[key])) for key in keys])
    total_weight = magnitudes.sum()
    if total_weight <= 0:
        magnitudes = np.ones(len(keys))
        total_weight = float(len(keys))
    # One guaranteed shot per key, the rest proportional with largest-remainder
    # rounding: floor every share, then hand leftovers to the biggest fractions.
    remaining = budget - len(keys)
    shares = remaining * magnitudes / total_weight
    floors = np.floor(shares).astype(int)
    leftover = remaining - int(floors.sum())
    order = sorted(range(len(keys)), key=lambda i: (-(shares[i] - floors[i]), keys[i]))
    allocation = {key: 1 + int(floors[i]) for i, key in enumerate(keys)}
    for i in order[:leftover]:
        allocation[keys[i]] += 1
    return allocation


def _unique_variants(batch: RequestBatch) -> Dict[str, object]:
    """First-seen variant per fingerprint, in deterministic (sorted) key order."""
    unique: Dict[str, object] = {}
    for variant in batch.variants:
        key = request_key(variant)
        if key not in unique:
            unique[key] = variant
    return {key: unique[key] for key in sorted(unique)}


def _multiplicity_weights(batch: RequestBatch) -> Dict[str, float]:
    """Fallback weights: how many times each fingerprint is read."""
    weights: Dict[str, float] = {}
    for variant, reads in zip(batch.variants, batch.reads.tolist()):
        key = request_key(variant)
        weights[key] = weights.get(key, 0.0) + float(reads)
    return weights


def _sigma_estimate(result: Any, pilot_shots: int) -> float:
    """Per-shot sampling standard deviation implied by a pilot result.

    Expectation-mode variants record a ±1 outcome per shot, so the variance of
    one shot is ``1 - value**2``.  Probability-mode variants record a signed
    one-hot vector, whose summed per-component variance is ``1 - ||d||^2``.

    The estimate is floored at ``1/sqrt(pilot_shots + 1)`` — the resolution
    limit of the pilot itself: a pilot of ``n`` shots that happened to see
    identical outcomes cannot distinguish ``sigma = 0`` from
    ``sigma ~ 1/sqrt(n)``, and treating such variants as deterministic starves
    them catastrophically when the pilot is small.
    """
    if result.distribution is not None:
        norm = float(np.sum(np.asarray(result.distribution) ** 2))
    else:
        value = float(result.value or 0.0)
        norm = min(1.0, value * value)
    resolution_floor = 1.0 / np.sqrt(pilot_shots + 1)
    return float(max(resolution_floor, np.sqrt(max(0.0, 1.0 - norm))))


def neyman_weight(weight: float, result: Any, shots: int) -> float:
    """Neyman share of one variant: ``max(|weight|, floor) * sigma``.

    ``sigma`` is the per-shot standard deviation :func:`_sigma_estimate` reads
    off a ``shots``-shot ``result``.  The variance policy weighs its final pass
    with it from the pilot batch; a re-planned streaming round weighs its
    chunk with it from the rounds drawn so far.
    """
    return max(abs(float(weight)), _MIN_SIGMA) * _sigma_estimate(result, shots)


def allocate_shots(
    batch: Iterable,
    total_shots: int,
    policy: str = "uniform",
    *,
    weights: Optional[Mapping[str, float]] = None,
    engine: Any = None,
) -> ShotAllocation:
    """Split ``total_shots`` across the unique variants of ``batch``.

    ``batch`` is a :class:`~repro.engine.RequestBatch` or any iterable of
    variants, each item one read.  ``weights`` maps fingerprints to
    |contraction weight| (as accumulated by the ``weights_out`` argument of
    :meth:`~repro.cutting.reconstruction.CutReconstructor.enumerate_expectation_requests`);
    when omitted, the ``weighted`` and ``variance`` policies fall back to each
    fingerprint's read count within the batch.  The ``variance`` policy needs ``engine`` (a
    :class:`~repro.engine.ParallelEngine` over a sampling-capable executor) to
    run its pilot batch, which it passes a :class:`ShotPlan` with stage
    ``"pilot"``; pilot executions are counted in the engine's stats like any
    other batch, and nothing of the pilot stays on the engine or executor.
    The pilot pass spends
    :data:`DEFAULT_PILOT_FRACTION` of ``total_shots`` (clamped so every variant
    gets at least ~4 pilot shots but never more than half the budget);
    ``policy`` is one of :data:`ALLOCATION_POLICIES`.

    Returns:
        A :class:`ShotAllocation` whose assigned shots (pilot + final) sum to
        exactly ``total_shots``.
    """
    if policy not in ALLOCATION_POLICIES:
        raise AllocationError(
            f"unknown allocation policy {policy!r}; expected one of {ALLOCATION_POLICIES}"
        )
    if total_shots < 1:
        raise AllocationError(f"total_shots must be >= 1, got {total_shots}")
    batch = RequestBatch.of(batch)
    unique = _unique_variants(batch)
    if not unique:
        raise AllocationError("cannot allocate shots over an empty batch")

    if policy == "uniform":
        shares: Mapping[str, float] = {key: 1.0 for key in unique}
        return ShotAllocation(policy, total_shots, largest_remainder_split(total_shots, shares))

    if weights is None:
        weights = _multiplicity_weights(batch)
    shares = {key: abs(float(weights.get(key, 0.0))) for key in unique}

    if policy == "weighted":
        return ShotAllocation(policy, total_shots, largest_remainder_split(total_shots, shares))

    # ---------------------------------------------------------------- variance
    if engine is None:
        raise AllocationError(
            "the variance policy runs a pilot batch and therefore needs an engine"
        )
    if not samples_shots(engine.executor):
        raise AllocationError(
            f"the variance policy needs a sampling-capable executor with per-variant "
            f"shot allocation, got {type(engine.executor).__name__}"
        )
    count = len(unique)
    if total_shots < 2 * count:
        raise AllocationError(
            f"variance-aware allocation needs at least 2 shots per variant "
            f"({2 * count} total for {count} variants), got {total_shots}"
        )
    # Pilot sizing: the default fraction, but never fewer than ~4 shots per
    # variant (sigma from 1-2 samples is noise) and never more than half the
    # budget; the 2*count guard above keeps the bounds consistent.
    pilot_budget = int(round(total_shots * DEFAULT_PILOT_FRACTION))
    pilot_budget = max(pilot_budget, min(4 * count, total_shots // 2))
    pilot_budget = max(count, min(pilot_budget, total_shots - count))
    pilot = largest_remainder_split(pilot_budget, {key: 1.0 for key in unique})

    # The "pilot" stage label keeps pilot samples seed- and cache-independent
    # from the final pass even for variants whose shot counts coincide.
    pilot_table, pilot_seconds = engine.run_batch_timed(
        list(unique.values()), shots=ShotPlan(pilot, stage="pilot")
    )

    neyman = {key: neyman_weight(shares[key], pilot_table[key], pilot[key]) for key in unique}
    final = largest_remainder_split(total_shots - pilot_budget, neyman)
    return ShotAllocation(policy, total_shots, final, pilot, pilot_seconds)
