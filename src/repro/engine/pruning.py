"""Variant pruning: truncated contraction over the dominant basis terms.

The reconstruction contraction is a weighted sum over ``4^wire-cuts *
6^gate-cuts`` setting combinations; every combination requests subcircuit
variants whose results enter the sum multiplied by a *contraction weight* (the
product of the term coefficient, the per-cut ``1/2`` factor, the gate-cut
instance coefficient and the downstream eigenstate-decomposition weight).  The
weight distribution is heavily skewed in practice — QAOA instance coefficients
``±sin(theta)cos(theta)`` and the ``X``/``Y`` downstream decompositions leave a
long tail of variants whose total contribution is negligible — so dropping the
small-|weight| tail removes executions with a *bounded, a-priori* bias (Chen et
al., "Efficient Quantum Circuit Cutting by Neglecting Basis Elements"; the same
weights drive ShotQC-style shot allocation, see :mod:`repro.engine.allocation`).

This module sits between phase-one enumeration and execution:

1. the reconstructor enumerates the full batch, accumulating each fingerprint's
   total |contraction weight| in the same walk (no second exponential pass),
2. :func:`prune_requests` scores every unique request by that accumulated
   weight, drops the tail according to a :class:`PruningPolicy`, and returns
   the surviving batch plus a :class:`PruningReport` whose ``bias_bound`` is
   ``sum(dropped |weights|) * max_branch_value``,
3. shot allocation (if any) splits the budget over the *survivors* only, and
   reconstruction contracts over the partial results table with skip-missing
   semantics (a dropped variant contributes exactly zero).

The bound is a-priori: every variant value is a sign-weighted expectation or
quasi-distribution whose magnitude (absolute value / L1 norm) is at most 1, and
the product of the co-factor subcircuits' effective values is physically bounded
by 1 as well, so zeroing a variant perturbs the reconstructed value by at most
its accumulated |weight|.  ``max_branch_value`` (default ``1.0``) scales the
bound for executors whose estimates can exceed the physical range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..exceptions import PruningError
from .requests import RequestBatch, request_key

__all__ = ["PRUNING_POLICIES", "PruningPolicy", "PruningReport", "prune_requests"]

#: The supported pruning policy names (EngineConfig validates against this).
PRUNING_POLICIES: Tuple[str, ...] = ("none", "threshold", "top_k", "budget_fraction")

#: Default relative weight threshold for a bare ``"threshold"`` policy string.
DEFAULT_THRESHOLD = 1e-3

#: Default dropped-weight fraction for a bare ``"budget_fraction"`` policy string.
DEFAULT_BUDGET_FRACTION = 0.01


@dataclass(frozen=True)
class PruningPolicy:
    """Which enumerated variant requests to drop before execution.

    Construct through the classmethods (:meth:`none`, :meth:`threshold`,
    :meth:`top_k`, :meth:`budget_fraction`) or :meth:`resolve` (which also
    accepts bare policy-name strings, so ``EngineConfig(pruning="threshold")``
    works with default parameters).

    Attributes:
        policy: one of :data:`PRUNING_POLICIES`.
        parameter: the policy's single knob —

            * ``threshold``: drop every request whose accumulated |weight| is
              below ``parameter * max_weight`` (relative to the largest
              accumulated weight in the batch, so one value transfers across
              workloads),
            * ``top_k``: keep only the ``int(parameter)`` largest-weight
              requests,
            * ``budget_fraction``: drop the longest small-weight tail whose
              cumulative weight stays below ``parameter * total_weight`` — the
              knob that directly caps the relative bias bound,
            * ``none``: ignored.
        max_branch_value: upper bound on the magnitude a single dropped
            variant's contribution can reach per unit of contraction weight
            (``1.0`` for the physical executors; raise it for executors whose
            estimates can leave the physical range).  Scales
            :attr:`PruningReport.bias_bound`.

    Example::

        >>> PruningPolicy.budget_fraction(0.01).describe()
        'budget_fraction(0.01)'
        >>> PruningPolicy.resolve("none").is_none
        True
    """

    policy: str = "none"
    parameter: float = 0.0
    max_branch_value: float = 1.0

    def __post_init__(self) -> None:
        if self.policy not in PRUNING_POLICIES:
            raise PruningError(
                f"pruning policy must be one of {PRUNING_POLICIES}, got {self.policy!r}"
            )
        if self.max_branch_value <= 0.0:
            raise PruningError(
                f"max_branch_value must be > 0, got {self.max_branch_value}"
            )
        if self.policy == "threshold" and not 0.0 <= self.parameter < 1.0:
            raise PruningError(
                f"threshold must be a relative weight in [0, 1), got {self.parameter}"
            )
        if self.policy == "top_k" and (
            self.parameter < 1 or self.parameter != int(self.parameter)
        ):
            raise PruningError(f"top_k needs a positive integer k, got {self.parameter}")
        if self.policy == "budget_fraction" and not 0.0 <= self.parameter < 1.0:
            raise PruningError(
                f"budget_fraction must be in [0, 1), got {self.parameter}"
            )

    # ------------------------------------------------------------------ factories
    @classmethod
    def none(cls) -> "PruningPolicy":
        """Keep every enumerated request (the default; pre-pruning behaviour)."""
        return cls("none")

    @classmethod
    def threshold(cls, relative_threshold: float = DEFAULT_THRESHOLD) -> "PruningPolicy":
        """Drop requests whose weight is below ``relative_threshold * max_weight``."""
        return cls("threshold", float(relative_threshold))

    @classmethod
    def top_k(cls, k: int) -> "PruningPolicy":
        """Keep only the ``k`` largest-|weight| requests."""
        return cls("top_k", float(k))

    @classmethod
    def budget_fraction(cls, fraction: float = DEFAULT_BUDGET_FRACTION) -> "PruningPolicy":
        """Drop the smallest-weight tail worth at most ``fraction`` of total weight."""
        return cls("budget_fraction", float(fraction))

    @classmethod
    def resolve(cls, spec: Union[None, str, "PruningPolicy"]) -> "PruningPolicy":
        """Normalise a config value (``None``, policy name or instance) to a policy.

        Bare strings get the documented default parameter (``"top_k"`` has no
        sensible default and must be constructed explicitly).
        """
        if spec is None:
            return cls.none()
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str):
            raise PruningError(
                f"pruning must be a policy name or PruningPolicy, got {type(spec).__name__}"
            )
        if spec == "none":
            return cls.none()
        if spec == "threshold":
            return cls.threshold()
        if spec == "budget_fraction":
            return cls.budget_fraction()
        if spec == "top_k":
            raise PruningError(
                "top_k has no default k; pass PruningPolicy.top_k(k) instead of the bare name"
            )
        raise PruningError(
            f"pruning policy must be one of {PRUNING_POLICIES}, got {spec!r}"
        )

    # ------------------------------------------------------------------ accessors
    @property
    def is_none(self) -> bool:
        """True when this policy never drops anything."""
        return self.policy == "none"

    def describe(self) -> str:
        """Short human-readable form, e.g. ``'threshold(0.001)'``."""
        if self.policy == "none":
            return "none"
        if self.policy == "top_k":
            return f"top_k({int(self.parameter)})"
        return f"{self.policy}({self.parameter:g})"


@dataclass(frozen=True)
class PruningReport:
    """What a pruning pass kept, what it dropped, and the bias it can introduce.

    Attributes:
        policy: :meth:`PruningPolicy.describe` of the applied policy.
        requested_variants: unique fingerprints in the enumerated batch.
        kept_variants: unique fingerprints that survived.
        dropped_variants: unique fingerprints removed from the batch.
        total_weight: sum of accumulated |contraction weight| over all requests.
        dropped_weight: the dropped share of ``total_weight``.
        bias_bound: a-priori upper bound on the reconstruction error introduced
            by the drop: ``dropped_weight * max_branch_value``.  Exact-executor
            reconstructions observe errors at or below this bound (each dropped
            variant's value and its co-factor product are bounded by 1 in
            magnitude).
        dropped_fingerprints: the dropped request fingerprints (sorted), so
            callers can verify skip-missing contraction against the survivors.
    """

    policy: str
    requested_variants: int
    kept_variants: int
    dropped_variants: int
    total_weight: float
    dropped_weight: float
    bias_bound: float
    dropped_fingerprints: Tuple[str, ...] = ()

    @property
    def kept_fraction(self) -> float:
        """Fraction of unique requests that survived (1.0 for an empty drop)."""
        if self.requested_variants == 0:
            return 1.0
        return self.kept_variants / self.requested_variants

    @property
    def reduction_factor(self) -> float:
        """How many times fewer unique variants execute (``requested / kept``)."""
        if self.kept_variants == 0:
            return float("inf") if self.requested_variants else 1.0
        return self.requested_variants / self.kept_variants

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "pruning": self.policy,
            "requested_variants": self.requested_variants,
            "kept_variants": self.kept_variants,
            "dropped_variants": self.dropped_variants,
            "dropped_weight": round(self.dropped_weight, 6),
            "bias_bound": round(self.bias_bound, 6),
            "reduction_factor": round(self.reduction_factor, 2),
        }


def _unique_scores(
    batch: RequestBatch, weights: Mapping[str, float]
) -> Tuple[List[str], Dict[str, float]]:
    """Unique fingerprints in first-seen order with their accumulated |weight|."""
    order: List[str] = []
    scores: Dict[str, float] = {}
    for variant in batch.variants:
        key = request_key(variant)
        if key not in scores:
            order.append(key)
            scores[key] = abs(float(weights.get(key, 0.0)))
    return order, scores


def _dropped_set(policy: PruningPolicy, scores: Mapping[str, float]) -> List[str]:
    """Fingerprints the policy removes (deterministic: ties broken by key)."""
    # Ascending by (score, fingerprint): the drop candidates, smallest first.
    ascending = sorted(scores, key=lambda key: (scores[key], key))
    total = sum(scores.values())
    if policy.policy == "threshold":
        cutoff = policy.parameter * (max(scores.values()) if scores else 0.0)
        dropped = [key for key in ascending if scores[key] < cutoff]
    elif policy.policy == "top_k":
        keep = int(policy.parameter)
        dropped = ascending[: max(0, len(ascending) - keep)]
    elif policy.policy == "budget_fraction":
        budget = policy.parameter * total
        dropped, spent = [], 0.0
        for key in ascending:
            if spent + scores[key] > budget:
                break
            spent += scores[key]
            dropped.append(key)
    else:  # "none"
        return []
    # Never drop the entire batch: contraction over an empty table is vacuous
    # and reconstruction would silently return zero.
    if len(dropped) >= len(ascending):
        dropped = ascending[:-1]
    return dropped


def prune_requests(
    batch: Iterable,
    weights: Mapping[str, float],
    policy: Union[str, PruningPolicy, None],
    bound_weights: Optional[Mapping[str, float]] = None,
) -> Tuple[RequestBatch, PruningReport]:
    """Drop the small-|weight| tail of an enumerated variant batch.

    Args:
        batch: the phase-one enumeration output, a
            :class:`~repro.engine.RequestBatch` (or any iterable of variants,
            each item one read).  Order is preserved among survivors, and
            each survivor keeps its read count.
        weights: accumulated |contraction weight| per fingerprint, as produced
            by the ``weights_out`` parameter of
            :meth:`~repro.cutting.reconstruction.CutReconstructor.enumerate_expectation_requests`
            (or its probability-mode sibling).  A fingerprint absent from the
            mapping scores zero and is first in line to be dropped.
        policy: a :class:`PruningPolicy`, a bare policy name, or ``None``.
        bound_weights: the true contraction weights, when ``weights`` is only
            a ranking score (e.g. the sampling weights of
            :func:`~repro.cutting.shot_overhead.optimize_overhead_weights`).
            The report's ``total_weight``, ``dropped_weight`` and
            ``bias_bound`` are taken over these, since the a-priori bound holds
            only for true weights.  ``None`` uses ``weights``.

    Returns:
        ``(kept_batch, report)`` — a :class:`~repro.engine.RequestBatch` of
        the surviving requests in their original order, and the
        :class:`PruningReport` with the a-priori
        :attr:`~PruningReport.bias_bound`.  With the ``"none"`` policy the
        batch is returned unchanged (zero bias bound).

    The drop is deterministic: requests are ranked by ``(weight, fingerprint)``
    so equal-weight ties never depend on enumeration order.  At least one
    request always survives.  Contract the survivors' results with
    ``missing="skip"``: an evaluation session does this by giving its one
    per-table contraction (streaming fold and final estimate alike) that mode.
    """
    policy = PruningPolicy.resolve(policy)
    batch = RequestBatch.of(batch)
    order, scores = _unique_scores(batch, weights)
    bound = scores if bound_weights is None else _unique_scores(batch, bound_weights)[1]
    total = sum(bound.values())
    if policy.is_none or not batch:
        report = PruningReport(
            policy=policy.describe(),
            requested_variants=len(order),
            kept_variants=len(order),
            dropped_variants=0,
            total_weight=total,
            dropped_weight=0.0,
            bias_bound=0.0,
        )
        return batch, report
    dropped = _dropped_set(policy, scores)
    dropped_lookup = set(dropped)
    kept = [i for i, v in enumerate(batch.variants) if request_key(v) not in dropped_lookup]
    kept_batch = RequestBatch([batch.variants[i] for i in kept], batch.reads[kept])
    dropped_weight = sum(bound[key] for key in dropped)
    report = PruningReport(
        policy=policy.describe(),
        requested_variants=len(order),
        kept_variants=len(order) - len(dropped),
        dropped_variants=len(dropped),
        total_weight=total,
        dropped_weight=dropped_weight,
        bias_bound=dropped_weight * policy.max_branch_value,
        dropped_fingerprints=tuple(sorted(dropped)),
    )
    return kept_batch, report
