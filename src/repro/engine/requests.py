"""Variant requests, results and stable fingerprints.

The execution engine treats a subcircuit variant as an opaque *request* identified
by a **fingerprint**: a content hash of everything that determines the outcome of
running the variant — the concrete circuit (operation names, operands, parameters
and measurement tags), the wire count, the output-qubit order, the cut-setting
combination and the restricted Pauli term (mode).  Two requests with equal
fingerprints are guaranteed to produce identical results under any deterministic
executor, which is what makes request-level dedup and cross-batch caching safe.

Fingerprints are computed with :func:`hashlib.sha1` over a canonical textual form
(never Python's salted ``hash``), so they are stable across interpreter runs and
across worker processes — a requirement for the parallel engine's deterministic
per-request seeding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

__all__ = [
    "VariantResult",
    "operation_field",
    "variant_fingerprint",
    "request_key",
    "seed_from_fingerprint",
]


@dataclass(frozen=True)
class VariantResult:
    """The outcome of executing one subcircuit variant.

    Exactly one of the two payloads is populated for a given variant mode:
    ``value`` for ``"expectation"`` variants (the sign-weighted expectation) and
    ``distribution`` for ``"probability"`` variants (the sign-weighted
    quasi-distribution over the variant's original-output qubits).  Executors may
    fill both when both are available for free.  Results are shared through the
    engine cache, so the distribution array is frozen on construction; in-place
    mutation raises instead of silently corrupting cached results.
    """

    value: Optional[float] = None
    distribution: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.distribution is not None:
            self.distribution.flags.writeable = False


def operation_field(op: Any) -> bytes:
    """One operation's encoded fingerprint field: name, operands, parameters, tag."""
    return f"{op.name}|{tuple(op.qubits)!r}|{tuple(op.params)!r}|{op.tag!r}\x1f".encode("utf-8")


def variant_fingerprint(variant: Any, operations: Optional[Tuple[int, bytes]] = None) -> str:
    """Stable content hash identifying a variant request.

    ``variant`` is duck-typed (any object with ``circuit``, ``num_wires``,
    ``output_qubit_order``, ``settings``, ``mode``, ``pauli_term`` and
    ``subcircuit_index`` attributes); the canonical implementation is
    :class:`repro.cutting.variants.SubcircuitVariant`.  ``operations`` is
    ``(qubit count, joined operation fields)`` of the circuit; it defaults to
    ``variant.circuit``'s, and variant-table rows pass it pre-encoded instead
    of building their circuit.  The Pauli-term *coefficient* is deliberately
    excluded: it scales the contraction, not the circuit, so terms that differ
    only by weight share one execution.
    """
    if operations is None:
        circuit = variant.circuit
        operations = circuit.num_qubits, b"".join(map(operation_field, circuit))
    term = getattr(variant, "pauli_term", None)
    fields = (
        f"sub:{variant.subcircuit_index}",
        f"wires:{variant.num_wires}",
        f"mode:{variant.mode}",
        f"out:{tuple(variant.output_qubit_order)!r}",
        f"settings:{variant.settings!r}",
        f"term:{tuple(term.paulis)!r}" if term is not None else "term:None",
        f"nq:{operations[0]}",
    )
    head = "".join(field + "\x1f" for field in fields).encode("utf-8")
    return hashlib.sha1(head + operations[1]).hexdigest()


def request_key(variant: Any) -> str:
    """Fingerprint of ``variant``, using its own memoised value when available."""
    fingerprint = getattr(variant, "fingerprint", None)
    if isinstance(fingerprint, str):
        return fingerprint
    return variant_fingerprint(variant)


def seed_from_fingerprint(fingerprint: str, base_seed: Optional[int] = None) -> Tuple[int, ...]:
    """Deterministic per-request seed material derived from a fingerprint.

    Returns a tuple suitable for :func:`numpy.random.default_rng`.  Because the
    seed depends only on ``(base_seed, fingerprint)`` — never on submission order
    or worker identity — stochastic executors produce bit-identical results
    whether a batch runs serially or across a process pool.
    """
    entropy = int(fingerprint[:16], 16)
    if base_seed is None:
        return (entropy,)
    return (int(base_seed) & 0xFFFFFFFFFFFFFFFF, entropy)
