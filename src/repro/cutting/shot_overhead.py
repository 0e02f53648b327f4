"""Cut-parameter sampling-overhead minimization (ShotQC-style basis weights).

Finite-shot reconstruction draws samples for every subcircuit variant and sums
them with the contraction weights; at a total budget of ``N`` shots split as
``n_f = N * p_f`` the worst-case estimator variance is bounded by

    Var <= (1/N) * sum_f w_f**2 / p_f                                   (*)

where ``w_f`` is variant ``f``'s accumulated |contraction weight| (each
variant records a bounded +/-1 outcome, so its per-shot variance is at most 1).
The *free parameters* of the cut decomposition are the sampling weights of the
basis terms at every cut: how often each measurement basis (I/X/Y/Z) is drawn
at a wire cut's upstream end, each initialisation eigenstate
(``zero``/``one``/``plus``/``plus_i``) at its downstream end, and each of the
six Mitarai-Fujii instances at a gate cut.  This module optimizes those
weights, ShotQC-style ("Enhanced Quantum Circuit Cutting Framework for
Sampling Overhead Reduction", arXiv:2412.17704): one probability simplex per
cut side, a variant's sampling probability being the product of its basis
tokens' weights, minimizing the total-variance bound (*).

Formally, with per-token weights ``q_s(o)`` (simplex ``s``, token ``o``) and
``ptilde_f = prod_{(s,o) in profile(f)} q_s(o)`` the normalised allocation is
``p_f = ptilde_f / sum_g ptilde_g`` and the objective is the scale-invariant

    F(q) = (sum_f w_f**2 / ptilde_f) * (sum_g ptilde_g)

whose value, normalised by the ideal Neyman variance ``(sum_f |w_f|)**2``
(attained at ``p_f ~ |w_f|``), is the *sampling overhead* — ``1.0`` means the
basis weights reach the best split any allocator could produce, larger values
mean wasted shots.  ``F`` is minimized by exact cyclic minimization over the
simplices (each block has the closed-form optimum ``q_s(o) ~
sqrt(A_s(o)/B_s(o))`` — see :func:`optimize_overhead_weights`), then
polished by ``scipy.optimize.minimize`` over log-weights (kept only when it
strictly improves the objective).  Both steps are deterministic: no
randomness, fixed sweep order, ties broken by fingerprint.

The optimized per-variant weights feed the shot allocator
(:func:`repro.engine.allocation.allocate_shots`), the pruning scorer
(:func:`repro.engine.pruning.prune_requests`) and the streaming re-planner;
``optimize_overhead="weights"`` on :class:`repro.engine.EngineConfig` threads
the pass through the pipeline.  With ``"none"`` nothing here runs and every
path stays bit-identical to the unoptimized pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..engine.config import OVERHEAD_MODES
from ..engine.requests import RequestBatch, request_key
from ..exceptions import ReproError
from ..utils.timing import perf_clock
from .variants import WIRE_CUT_INIT_LABELS, WIRE_CUT_MEASUREMENT_BASES, SubcircuitVariant

__all__ = [
    "OVERHEAD_MODES",
    "CutBasisWeights",
    "OverheadReport",
    "optimize_overhead_weights",
    "sampling_overhead",
    "sampling_variance_bound",
    "variant_profile",
]

#: Weight floor for basis tokens that only zero-weight variants use: keeps
#: every sampling probability positive (the allocator's one-shot floor still
#: applies) without letting them distort the optimum.
_MIN_TOKEN_WEIGHT = 1e-12

#: Coordinate-descent sweep cap and relative-improvement convergence threshold.
_MAX_SWEEPS = 100
_TOLERANCE = 1e-10

#: Canonical token order per simplex side, for stable reporting.
_TOKEN_ORDER: Dict[str, Tuple[str, ...]] = {  # qrcclint: disable=mutable-default-arg -- read-only constant table (tuple values), never written after import
    "measure": WIRE_CUT_MEASUREMENT_BASES,
    "prepare": WIRE_CUT_INIT_LABELS,
    "instance": ("1", "2", "3", "4", "5", "6"),
}


def variant_profile(variant: SubcircuitVariant) -> Tuple[Tuple[str, str], ...]:
    """The (simplex, token) pairs describing one variant's free cut parameters.

    Args:
        variant: the subcircuit variant whose settings are profiled.

    Returns:
        A sorted tuple of ``(simplex_key, token)`` pairs — one per upstream
        measurement basis (``"measure:<cut>"``), downstream initialisation
        label (``"prepare:<cut>"``) and gate-cut instance
        (``"instance:g<op>"``) in the variant's settings.  A variant of an
        uncut subcircuit has an empty profile (its sampling weight is free of
        the cut simplices).
    """
    settings = variant.settings
    tokens: List[Tuple[str, str]] = []
    for cut_id, basis in settings.measurement_bases:
        tokens.append((f"measure:{cut_id}", basis))
    for cut_id, label in settings.init_labels:
        tokens.append((f"prepare:{cut_id}", label))
    for op_index, instance in settings.gate_instances:
        tokens.append((f"instance:g{op_index}", str(instance)))
    return tuple(sorted(tokens))


def sampling_variance_bound(
    weights: Mapping[str, float], probabilities: Mapping[str, float]
) -> float:
    """Worst-case single-shot variance bound ``sum_f w_f**2 / p_f`` (Eq. *).

    Args:
        weights: accumulated |contraction weight| per fingerprint.
        probabilities: sampling probability per fingerprint (need not be
            normalised; they are normalised here so only the *split* matters).

    Returns:
        The variance bound for a budget of one shot; divide by ``N`` for a
        budget of ``N``.  Fingerprints with zero probability and nonzero
        weight make the bound infinite.
    """
    keys = sorted(weights)
    total = float(sum(max(0.0, float(probabilities.get(key, 0.0))) for key in keys))
    if total <= 0.0:
        raise ReproError("sampling probabilities must have positive total mass")
    bound = 0.0
    for key in keys:
        magnitude = abs(float(weights[key]))
        if magnitude <= 0.0:
            continue
        share = max(0.0, float(probabilities.get(key, 0.0))) / total
        if share <= 0.0:
            return float("inf")
        bound += magnitude * magnitude / share
    return bound


def sampling_overhead(
    weights: Mapping[str, float], probabilities: Mapping[str, float]
) -> float:
    """Variance bound of a split, normalised by the ideal Neyman bound.

    ``1.0`` means ``probabilities`` splits shots as well as any allocation can
    (``p_f ~ |w_f|``); larger values are the multiplicative shot overhead the
    split pays at equal reconstruction error.  ``weights`` and
    ``probabilities`` are per-fingerprint, as in :func:`sampling_variance_bound`.
    """
    ideal = float(sum(abs(float(value)) for value in weights.values())) ** 2
    if ideal <= 0.0:
        return 1.0
    return sampling_variance_bound(weights, probabilities) / ideal


@dataclass(frozen=True)
class CutBasisWeights:
    """Optimized sampling weights for the basis terms of one cut side.

    Attributes:
        cut: the cut identifier (``"w<qubit>_<op>"`` or ``"g<op>"``).
        kind: ``"wire"`` or ``"gate"``.
        side: ``"measure"`` (upstream measurement basis), ``"prepare"``
            (downstream initialisation eigenstate) or ``"instance"``
            (Mitarai-Fujii gate-cut instance).
        tokens: the basis terms observed at this side, in canonical order.
        weights: the optimized sampling weight per token (normalised to sum
            to 1 within this side).
        uniform_share: the pre-optimization weight of every token
            (``1 / len(tokens)``).
    """

    cut: str
    kind: str
    side: str
    tokens: Tuple[str, ...]
    weights: Tuple[float, ...]
    uniform_share: float

    @property
    def max_shift(self) -> float:
        """Largest |optimized - uniform| weight across the side's tokens."""
        return max(
            (abs(weight - self.uniform_share) for weight in self.weights), default=0.0
        )

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "cut": self.cut,
            "kind": self.kind,
            "side": self.side,
            "weights": {
                token: round(weight, 4)
                for token, weight in zip(self.tokens, self.weights)
            },
            "max_shift": round(self.max_shift, 4),
        }


@dataclass(frozen=True)
class OverheadReport:
    """What the sampling-overhead optimization pass did, and what it bought.

    Attributes:
        mode: the ``optimize_overhead`` mode the pass ran under (``"weights"``).
        method: how the optimum was found — ``"coordinate"`` (exact cyclic
            simplex minimization) or ``"coordinate+scipy"`` (polished by
            ``scipy.optimize.minimize``).
        iterations: coordinate sweeps performed (plus scipy iterations when
            the polish improved the objective).
        converged: whether the coordinate descent reached its tolerance before
            the iteration cap.
        num_variants: unique variant fingerprints in the model.
        num_simplices: cut sides (probability simplices) optimized over.
        overhead_before: sampling overhead of the uniform split (the
            pre-optimization allocator default), normalised so ``1.0`` is the
            ideal Neyman split.
        overhead_after: sampling overhead of the optimized split.
        effective_allocation: the allocation policy actually applied after the
            pass (the session upgrades ``"uniform"`` to ``"weighted"`` over
            the optimized weights — a uniform split would ignore them);
            ``None`` outside a session.
        optimize_seconds: wall clock of the whole
            :func:`optimize_overhead_weights` call (model build, descent,
            polish and breakdown).
        cuts: per-cut-side breakdown (:class:`CutBasisWeights`).
    """

    mode: str
    method: str
    iterations: int
    converged: bool
    num_variants: int
    num_simplices: int
    overhead_before: float
    overhead_after: float
    effective_allocation: Optional[str] = None
    optimize_seconds: float = 0.0
    cuts: Tuple[CutBasisWeights, ...] = ()

    @property
    def reduction(self) -> float:
        """Modelled shot reduction at equal error: ``overhead_before / overhead_after``."""
        if self.overhead_after <= 0.0:
            return 1.0
        return self.overhead_before / self.overhead_after

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "mode": self.mode,
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "num_variants": self.num_variants,
            "num_simplices": self.num_simplices,
            "overhead_before": round(self.overhead_before, 4),
            "overhead_after": round(self.overhead_after, 4),
            "reduction": round(self.reduction, 4),
            "effective_allocation": self.effective_allocation,
        }


@dataclass
class _OverheadModel:
    """Dense arrays for the objective ``F(q) = V(q) * S(q)``."""

    fingerprints: List[str]
    #: ``a_f = w_f**2`` per fingerprint.
    a: np.ndarray
    #: token index lists per fingerprint (into the flat ``q`` vector).
    profiles: List[Tuple[int, ...]]
    #: flat token metadata: (simplex_key, token) per q index.
    token_info: List[Tuple[str, str]]
    #: q indices grouped by simplex key (sweep order = sorted keys).
    simplices: Dict[str, List[int]] = field(default_factory=dict)

    def ptilde(self, q: np.ndarray) -> np.ndarray:
        values = np.ones(len(self.fingerprints))
        for index, profile in enumerate(self.profiles):
            for position in profile:
                values[index] *= q[position]
        return values

    def objective(self, q: np.ndarray) -> float:
        ptilde = self.ptilde(q)
        variance = float(np.sum(self.a / ptilde))
        scale = float(np.sum(ptilde))
        return variance * scale


def _build_model(batch: RequestBatch, weights: Mapping[str, float]) -> _OverheadModel:
    """Collect the unique-fingerprint profiles and weights into dense arrays."""
    profile_of: Dict[str, Tuple[Tuple[str, str], ...]] = {}
    for variant in batch.variants:
        key = request_key(variant)
        if key not in profile_of:
            # First-seen profile wins: distinct settings can (rarely) build
            # identical circuits, and the accumulated weight is per
            # fingerprint anyway.
            profile_of[key] = variant_profile(variant)
    fingerprints = sorted(profile_of)
    token_index: Dict[Tuple[str, str], int] = {}
    token_info: List[Tuple[str, str]] = []
    profiles: List[Tuple[int, ...]] = []
    for key in fingerprints:
        positions = []
        for simplex_key, token in profile_of[key]:
            pair = (simplex_key, token)
            if pair not in token_index:
                token_index[pair] = len(token_info)
                token_info.append(pair)
            positions.append(token_index[pair])
        profiles.append(tuple(positions))
    a = np.array(
        [abs(float(weights.get(key, 0.0))) ** 2 for key in fingerprints]
    )
    model = _OverheadModel(
        fingerprints=fingerprints, a=a, profiles=profiles, token_info=token_info
    )
    for position, (simplex_key, _) in enumerate(token_info):
        model.simplices.setdefault(simplex_key, []).append(position)
    return model


def _coordinate_descent(model: _OverheadModel) -> Tuple[np.ndarray, int, bool]:
    """Exact cyclic minimization of ``F`` over the per-cut simplices.

    Holding every other simplex fixed, the block optimum for simplex ``s`` is
    closed-form: with ``r_f = ptilde_f / q_s(token(f))`` the objective splits
    into ``(sum_o A_o/q_o + C)(sum_o B_o q_o + D)`` with ``A_o = sum a_f/r_f``,
    ``B_o = sum r_f`` over the variants using token ``o`` and ``C``/``D`` the
    untouched variants' contributions; the minimum over any fixed
    ``sigma = sum B q`` is at ``q_o ~ sqrt(A_o/B_o)`` and the optimal scale is
    ``sigma* = sqrt(D/C) * sum_o sqrt(A_o B_o)``.  Each sweep therefore never
    increases ``F``, and the sweep order (sorted simplex keys) is fixed, so
    the result is deterministic.
    """
    q = np.ones(len(model.token_info))
    previous = model.objective(q)
    converged = False
    sweeps = 0
    order = sorted(model.simplices)
    for sweeps in range(1, _MAX_SWEEPS + 1):
        for simplex_key in order:
            positions = model.simplices[simplex_key]
            ptilde = model.ptilde(q)
            a_block = np.zeros(len(positions))
            b_block = np.zeros(len(positions))
            touched = np.zeros(len(model.fingerprints), dtype=bool)
            for slot, position in enumerate(positions):
                for index, profile in enumerate(model.profiles):
                    if position in profile:
                        touched[index] = True
                        r = ptilde[index] / q[position]
                        if r > 0.0:
                            a_block[slot] += model.a[index] / r
                            b_block[slot] += r
            rest_variance = float(np.sum(model.a[~touched] / ptilde[~touched]))
            rest_scale = float(np.sum(ptilde[~touched]))
            b_block = np.maximum(b_block, _MIN_TOKEN_WEIGHT)
            shape = np.sqrt(np.maximum(a_block, 0.0) / b_block)
            shape = np.maximum(shape, _MIN_TOKEN_WEIGHT)
            cross = float(np.sum(np.sqrt(np.maximum(a_block, 0.0) * b_block)))
            if rest_variance > 0.0 and rest_scale > 0.0 and cross > 0.0:
                sigma = float(np.sqrt(rest_scale / rest_variance)) * cross
                scale = sigma / float(np.sum(b_block * shape))
            else:
                # Every variant touches this simplex (or the remainder is
                # empty): the scale is a global gauge freedom, pin it to 1.
                scale = 1.0 / max(float(np.sum(b_block * shape)), _MIN_TOKEN_WEIGHT)
            for slot, position in enumerate(positions):
                q[position] = max(shape[slot] * scale, _MIN_TOKEN_WEIGHT)
        current = model.objective(q)
        if previous - current <= _TOLERANCE * max(previous, 1.0):
            converged = True
            break
        previous = current
    return q, sweeps, converged


def _scipy_polish(
    model: _OverheadModel, q: np.ndarray
) -> Tuple[np.ndarray, int, bool]:
    """Refine a coordinate-descent optimum with L-BFGS-B over log-weights.

    Returns ``(q, iterations, used)`` — the polished weights only when they
    strictly improved the objective; otherwise the input is returned
    unchanged (``used = False``).
    """
    # Deferred: loading scipy.optimize costs more than the rest of the package.
    from scipy.optimize import minimize

    def objective_log(theta: np.ndarray) -> float:
        return float(np.log(max(model.objective(np.exp(theta)), _MIN_TOKEN_WEIGHT)))

    result = minimize(
        objective_log,
        np.log(np.maximum(q, _MIN_TOKEN_WEIGHT)),
        method="L-BFGS-B",
        options={"maxiter": 200},
    )
    polished = np.maximum(np.exp(np.asarray(result.x)), _MIN_TOKEN_WEIGHT)
    if model.objective(polished) < model.objective(q):
        return polished, int(result.nit), True
    return q, 0, False


def _cut_breakdown(model: _OverheadModel, q: np.ndarray) -> Tuple[CutBasisWeights, ...]:
    """Normalised per-cut-side weight tables, in sorted simplex order."""
    breakdown: List[CutBasisWeights] = []
    for simplex_key in sorted(model.simplices):
        side, _, cut = simplex_key.partition(":")
        positions = model.simplices[simplex_key]
        observed = {model.token_info[position][1]: position for position in positions}
        canonical = [token for token in _TOKEN_ORDER.get(side, ()) if token in observed]
        canonical += sorted(token for token in observed if token not in canonical)
        raw = np.array([q[observed[token]] for token in canonical])
        total = float(np.sum(raw))
        shares = raw / total if total > 0.0 else np.full(len(raw), 1.0 / max(len(raw), 1))
        breakdown.append(
            CutBasisWeights(
                cut=cut,
                kind="gate" if cut.startswith("g") else "wire",
                side=side,
                tokens=tuple(canonical),
                weights=tuple(float(share) for share in shares),
                uniform_share=1.0 / max(len(canonical), 1),
            )
        )
    return tuple(breakdown)


def optimize_overhead_weights(
    batch: Iterable[SubcircuitVariant],
    weights: Mapping[str, float],
) -> Tuple[Dict[str, float], OverheadReport]:
    """Optimize the per-cut basis sampling weights for an enumerated batch.

    Args:
        batch: the phase-one enumeration output, a
            :class:`~repro.engine.RequestBatch` (or any iterable of variants,
            each item one read); the first-seen variant provides each
            fingerprint's cut-parameter profile.
        weights: accumulated |contraction weight| per fingerprint, as
            collected by the enumeration walk's ``weights_out``.

    Returns:
        ``(optimized_weights, report)`` — a normalised per-fingerprint
        sampling-weight mapping (sums to 1; feed it to
        :func:`repro.engine.allocation.allocate_shots` as ``weights=`` with
        the ``"weighted"`` policy, and to
        :func:`repro.engine.pruning.prune_requests` as the score) and the
        :class:`OverheadReport` with the pre/post overhead and per-cut
        breakdown.  Both are deterministic functions of the inputs.
    """
    batch = RequestBatch.of(batch)
    if not batch:
        raise ReproError("cannot optimize sampling overhead over an empty batch")
    start = perf_clock()
    model = _build_model(batch, weights)
    q, sweeps, converged = _coordinate_descent(model)
    method = "coordinate"
    iterations = sweeps
    q, extra, used = _scipy_polish(model, q)
    if used:
        method = "coordinate+scipy"
        iterations += extra

    count = len(model.fingerprints)
    magnitudes = np.sqrt(model.a)
    ideal = float(np.sum(magnitudes)) ** 2
    uniform_bound = count * float(np.sum(model.a))
    optimized_bound = model.objective(q)
    if optimized_bound > uniform_bound:
        # Never hand the allocator a split worse than the uniform default.
        q = np.ones_like(q)
        optimized_bound = uniform_bound
    ptilde = model.ptilde(q)
    total = float(np.sum(ptilde))
    optimized = {
        key: float(value / total) for key, value in zip(model.fingerprints, ptilde)
    }
    cuts = _cut_breakdown(model, q)
    report = OverheadReport(
        mode="weights",
        method=method,
        iterations=iterations,
        converged=converged,
        num_variants=count,
        num_simplices=len(model.simplices),
        overhead_before=uniform_bound / ideal if ideal > 0.0 else 1.0,
        overhead_after=optimized_bound / ideal if ideal > 0.0 else 1.0,
        optimize_seconds=perf_clock() - start,
        cuts=cuts,
    )
    return optimized, report
