"""Incremental reconstruction: fold shot chunks into a running estimate + CI.

A streaming session grows every variant's sample *cumulatively*: each round
resumes the variant's generator and draws only its new shots, so each round's
sample is a bitwise prefix of the next (see
:func:`~repro.simulator.sampler.sample_weighted_counts_prefix`).  The chunk a
round contributes is recovered by value differencing — for a variant whose
cumulative mean moved from ``v1`` (over ``c1`` shots) to ``v2`` (over ``c2``),
the chunk of ``c2 - c1`` fresh shots has mean ``(c2*v2 - c1*v1) / (c2 - c1)``.
Chunks cover disjoint shot ranges of one i.i.d. stream, so per-variant chunk
means are independent across rounds; contracting a chunk table therefore gives
an *independent, unbiased* estimate of the reconstructed value (every product
term in the contraction multiplies values of distinct variants), and the
sequence of per-chunk contractions feeds a streaming variance accumulator
(:class:`StreamingMoments`, weighted Welford) from which a normal confidence
interval falls out.

The chunk contraction is the session's one per-table contraction, which
reuses the reconstructor's persistent structure memo (contraction plans,
index maps), so each round costs one *kernel* pass — the plan is never
rebuilt from scratch.  The final reported value comes from the same
contraction on the full cumulative table: with every round consumed that
table equals the batch table bit for bit, which is what keeps streaming
run-to-completion identical to the batch pipeline.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Mapping, Optional, Union

import numpy as np

from ..engine.requests import VariantResult

__all__ = ["IncrementalReconstructor", "StreamingMoments", "difference_tables"]


def difference_tables(
    cumulative: Mapping[str, VariantResult],
    previous: Optional[Mapping[str, VariantResult]],
    cumulative_counts: Mapping[str, int],
    previous_counts: Mapping[str, int],
) -> Dict[str, VariantResult]:
    """Per-variant chunk means between two cumulative result tables.

    ``previous=None`` (the first round) returns the cumulative table itself.
    A fingerprint whose count did not grow keeps its cumulative value (no fresh
    shots — its chunk estimate degenerates to the best available mean).
    """
    if previous is None:
        return dict(cumulative)
    chunk: Dict[str, VariantResult] = {}
    for fingerprint, result in cumulative.items():
        c1 = int(previous_counts.get(fingerprint, 0))
        c2 = int(cumulative_counts.get(fingerprint, c1))
        earlier = previous.get(fingerprint)
        if earlier is None or c2 <= c1:
            chunk[fingerprint] = result
            continue
        fresh = c2 - c1
        value = result.value
        if value is not None and earlier.value is not None:
            value = (c2 * result.value - c1 * earlier.value) / fresh
        distribution = result.distribution
        if distribution is not None and earlier.distribution is not None:
            distribution = (
                c2 * np.asarray(distribution) - c1 * np.asarray(earlier.distribution)
            ) / fresh
        chunk[fingerprint] = VariantResult(value=value, distribution=distribution)
    return chunk


class StreamingMoments:
    """Weighted Welford accumulator over per-chunk estimates (scalar or vector).

    Each :meth:`add` folds one chunk's estimate ``x`` with weight ``w`` (the
    chunk's shot count) into the running weighted mean and the weighted sum of
    squared deviations ``M2 = sum_r w_r * (x_r - mean)^2`` — numerically stable,
    one pass, no chunk history kept.  With chunk estimates independent and each
    scaling as ``Var(x_r) ~ sigma^2 / w_r``, ``M2 / (count - 1)`` estimates the
    per-shot variance ``sigma^2`` and the weighted mean's standard error is
    ``sqrt(M2 / ((count - 1) * total_weight))`` — what :meth:`half_width`
    multiplies by the caller's normal quantile.
    """

    def __init__(self) -> None:
        self._count = 0
        self._weight = 0.0
        self._mean: Optional[Union[float, np.ndarray]] = None
        self._m2: Optional[Union[float, np.ndarray]] = None

    @property
    def count(self) -> int:
        """Chunks folded so far."""
        return self._count

    @property
    def weight(self) -> float:
        """Total weight (shots) folded so far."""
        return self._weight

    @property
    def mean(self) -> Optional[Union[float, np.ndarray]]:
        """The running weighted mean (``None`` before the first chunk)."""
        return self._mean

    def add(self, value: Union[float, np.ndarray], weight: float = 1.0) -> None:
        """Fold one chunk estimate with the given positive weight."""
        if weight <= 0:
            raise ValueError(f"chunk weight must be positive, got {weight}")
        value = np.asarray(value, dtype=float) if np.ndim(value) else float(value)
        self._count += 1
        self._weight += weight
        if self._mean is None:
            self._mean = value
            self._m2 = value * 0.0
            return
        delta = value - self._mean
        self._mean = self._mean + (weight / self._weight) * delta
        self._m2 = self._m2 + weight * delta * (value - self._mean)

    def variance(self) -> Optional[Union[float, np.ndarray]]:
        """Estimated per-unit-weight (per-shot) variance; ``None`` below 2 chunks."""
        if self._count < 2:
            return None
        return self._m2 / (self._count - 1)

    def standard_error(self) -> Optional[Union[float, np.ndarray]]:
        """Standard error of the weighted mean; ``None`` below 2 chunks."""
        variance = self.variance()
        if variance is None:
            return None
        return np.sqrt(np.maximum(variance, 0.0) / self._weight)

    def half_width(self, z_value: float) -> Optional[float]:
        """Scalar confidence half-width: ``z * max(standard error)``.

        For vector estimates (per-output probabilities) this is the *widest*
        per-output interval, so a target on it bounds every output at once.
        ``None`` below 2 chunks — no variance information yet.
        """
        error = self.standard_error()
        if error is None:
            return None
        return float(z_value * np.max(error))

    def half_widths(self, z_value: float) -> Optional[Union[float, np.ndarray]]:
        """Per-component confidence half-width(s) (vector for vector estimates)."""
        error = self.standard_error()
        if error is None:
            return None
        return z_value * error


class IncrementalReconstructor:
    """Folds arriving shot chunks into a running reconstruction estimate + CI.

    Each :meth:`fold` contracts one chunk table with ``contract`` and updates
    the :class:`StreamingMoments` the session's stopping rule reads its
    half-width from.

    Args:
        contract: the per-table contraction, mapping a results table to an
            estimate.  :class:`~repro.service.EvaluationSession` picks it once
            per session: ``CutReconstructor.reconstruct_expectation`` (a
            scalar), ``CutReconstructor.reconstruct_probabilities`` (the full
            vector) or, under dynamic definition,
            :func:`~repro.cutting.dynamic_definition.binned_probabilities`
            over the root bin space (``2**qubit_limit`` elements, so the fold
            and its interval stay memory-bounded).  Each carries the
            session's table-miss mode (``"skip"`` under pruning).
    """

    def __init__(self, contract: Callable[[Mapping[str, VariantResult]], Any]) -> None:
        self._contract = contract
        self.moments = StreamingMoments()

    def fold(self, chunk_table: Mapping[str, VariantResult], weight: float) -> Any:
        """Contract one chunk table and fold its estimate; returns the estimate."""
        estimate = self._contract(chunk_table)
        self.moments.add(estimate, weight=weight)
        return estimate

    @property
    def estimate(self) -> Any:
        """The running (weighted-mean-of-chunks) estimate; ``None`` before any fold."""
        return self.moments.mean

    def half_width(self, z_value: float) -> Optional[float]:
        """Scalar confidence half-width of the running estimate (see moments)."""
        width = self.moments.half_width(z_value)
        if width is None or not math.isfinite(width):
            return None
        return width
