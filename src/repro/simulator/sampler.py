"""Shot-based sampling on top of exact simulation results.

Implements the "shots-based model" of Section 2.2: the circuit is executed many
times; each execution produces one bitstring; the histogram of bitstrings estimates
the output probability vector (and expectation values derived from it).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuits import Circuit
from ..exceptions import SimulationError
from ..utils.pauli import PauliObservable
from .dynamic import simulate_dynamic
from .statevector import simulate_statevector

__all__ = [
    "sample_weighted_counts",
    "sample_weighted_counts_prefix",
    "sample_counts",
    "counts_to_distribution",
    "distribution_to_counts",
    "sample_circuit",
    "expectation_from_counts",
]


def _validated_num_qubits(length: int) -> int:
    """Qubit count for a basis-vector length, rejecting non-powers of two.

    ``int(np.log2(length))`` misrounds for large or odd lengths (floating-point
    log2 of ``2**k - 1`` can land exactly on ``k``); ``(length - 1).bit_length()``
    is exact integer arithmetic.
    """
    if length <= 0:
        raise SimulationError(f"probability vector must be non-empty, got length {length}")
    num_qubits = (length - 1).bit_length()
    if 2**num_qubits != length:
        raise SimulationError(
            f"probability vector length {length} is not a power of two"
        )
    return num_qubits


def sample_weighted_counts(
    weights: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``shots`` multinomial samples from non-negative ``weights``.

    The weights are clipped at zero and normalised; unlike :func:`sample_counts`
    the vector may have any length (it indexes arbitrary outcomes — e.g. the
    branches of a dynamic-circuit simulation — not basis states).  Returns the
    integer count per outcome, summing exactly to ``shots``.

    ``rng`` is required: every draw in this codebase must be derived from
    explicit seed material (the determinism contract, see
    ``docs/determinism.md``) — a silent fall-back to OS entropy here would let
    unseeded sampling slip into reconstruction unnoticed.  Use
    :func:`sample_circuit` for the seeded one-call convenience path.
    """
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    weights = np.asarray(weights, dtype=float)
    weights = np.clip(weights, 0.0, None)
    total = weights.sum()
    if total <= 0:
        raise SimulationError("probability vector sums to zero")
    return rng.multinomial(shots, weights / total)


def sample_weighted_counts_prefix(
    weights: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Like :func:`sample_weighted_counts`, but *prefix-stable* in ``shots``.

    Shots are drawn as a sequence of inverse-CDF lookups over ``shots``
    sequential uniforms, so for a fixed generator state the first ``m`` shots
    of an ``n``-shot draw are exactly the ``m``-shot draw (numpy's
    ``Generator.random(n)`` fills its output sequentially):

    ``sample(w, m, rng(s)) == sample(w, n, rng(s))``'s first-``m`` histogram
    for every ``m <= n``.

    Equivalently, a draw of ``m`` shots followed by a draw of ``n - m`` on the
    same continuing generator sums exactly to the fresh ``n``-shot draw.  This
    is what lets the streaming evaluation service grow a variant's sample
    *cumulatively* across rounds — each round resumes the generator the last
    one left off and draws only its new shots, and earlier rounds' shots are
    bitwise prefixes of later ones — while the bulk
    :func:`sample_weighted_counts` (``rng.multinomial``) gives no such
    guarantee.  Both draw exact multinomial samples; they differ only in
    how the generator stream is consumed.
    """
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    weights = np.asarray(weights, dtype=float)
    weights = np.clip(weights, 0.0, None)
    total = weights.sum()
    if total <= 0:
        raise SimulationError("probability vector sums to zero")
    cumulative = np.cumsum(weights / total)
    # side="right" maps u in [cum[i-1], cum[i]) to outcome i; zero-weight bins
    # have equal adjacent cumulative entries and are therefore unreachable.
    indices = np.searchsorted(cumulative, rng.random(shots), side="right")
    # Floating-point rounding can leave cumulative[-1] a hair under 1.0; clip
    # any overflowing draw onto the last positive-weight outcome.
    last = int(np.flatnonzero(weights > 0)[-1])
    np.clip(indices, None, last, out=indices)
    return np.bincount(indices, minlength=len(weights))


def sample_counts(
    probabilities: np.ndarray, shots: int, rng: np.random.Generator
) -> Dict[str, int]:
    """Draw ``shots`` samples from a probability vector; keys are bitstrings (MSB first).

    ``rng`` is required (see :func:`sample_weighted_counts`): draws must be
    derived from explicit seed material, never from ambient OS entropy.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    num_qubits = _validated_num_qubits(len(probabilities))
    outcomes = sample_weighted_counts(probabilities, shots, rng)
    counts: Dict[str, int] = {}
    for index, count in enumerate(outcomes):
        if count:
            counts[format(index, f"0{num_qubits}b")] = int(count)
    return counts


def counts_to_distribution(counts: Dict[str, int], num_qubits: int) -> np.ndarray:
    """Convert a counts dictionary back into an estimated probability vector."""
    distribution = np.zeros(2**num_qubits)
    total = sum(counts.values())
    if total == 0:
        raise SimulationError("counts dictionary is empty")
    for bitstring, count in counts.items():
        if len(bitstring) != num_qubits:
            raise SimulationError(
                f"bitstring {bitstring!r} does not have {num_qubits} bits"
            )
        distribution[int(bitstring, 2)] = count / total
    return distribution


def distribution_to_counts(probabilities: np.ndarray, shots: int) -> Dict[str, int]:
    """Deterministic rounding of a distribution into counts (no sampling noise)."""
    num_qubits = _validated_num_qubits(len(probabilities))
    counts = {}
    for index, p in enumerate(np.asarray(probabilities, dtype=float)):
        rounded = int(round(p * shots))
        if rounded:
            counts[format(index, f"0{num_qubits}b")] = rounded
    return counts


def sample_circuit(
    circuit: Circuit, shots: int, seed: Optional[int] = None
) -> Dict[str, int]:
    """Simulate ``circuit`` exactly and sample ``shots`` measurement outcomes.

    Circuits containing mid-circuit measurement/reset are handled through the
    branching simulator; unitary circuits take the cheaper statevector path.
    """
    rng = np.random.default_rng(seed)
    has_dynamic = any(not op.is_unitary for op in circuit)
    if has_dynamic:
        result = simulate_dynamic(circuit)
        probabilities = result.probabilities()
    else:
        probabilities = simulate_statevector(circuit).probabilities()
    return sample_counts(probabilities, shots, rng)


def expectation_from_counts(
    counts: Dict[str, int], observable: PauliObservable, num_qubits: int
) -> float:
    """Estimate the expectation of a Z-diagonal observable from measured counts.

    Every term of ``observable`` must be composed of ``I``/``Z`` Paulis only (the
    measurement is in the computational basis).  Terms with ``X``/``Y`` require basis
    rotations before measuring and are rejected here.
    """
    total_shots = sum(counts.values())
    if total_shots == 0:
        raise SimulationError("counts dictionary is empty")
    value = 0.0
    for term in observable.terms:
        for _, label in term.paulis:
            if label not in ("I", "Z"):
                raise SimulationError(
                    "expectation_from_counts only supports I/Z observables; rotate the "
                    "circuit into the measurement basis first"
                )
        term_value = 0.0
        for bitstring, count in counts.items():
            parity = 1
            for qubit, _ in term.paulis:
                bit = int(bitstring[num_qubits - 1 - qubit])
                parity *= -1 if bit else 1
            term_value += parity * count
        value += term.coefficient * term_value / total_shots
    return float(value)
