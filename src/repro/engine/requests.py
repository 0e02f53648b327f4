"""Variant requests, request batches, results and stable fingerprints.

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
per-request seeding.  :func:`fingerprint_head` is that form's one definition of
the head fields; variant tables hash all of their rows with it at once.

A :class:`RequestBatch` is what enumeration hands the engine: each distinct
request once, with the number of times the contraction reads it.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "RequestBatch",
    "VariantResult",
    "fingerprint_head",
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


@dataclass(eq=False)
class RequestBatch:
    """Distinct variant requests with the number of times each one is read.

    Phase one of reconstruction reads the rows of its variant tables many
    times over (one read per Eq. 3 term of every local key that needs the
    row); a batch holds each distinct request once, in first-visit order, with
    its read count.  The engine executes the distinct requests and counts the
    reads as its ``requests``.

    Args:
        variants: the distinct requests, in first-visit order.
        reads: each request's read count, aligned with ``variants``.

    ``len(batch)`` is the total number of reads.  Iterating yields every
    request once per read, so ``list(batch)`` is the equivalent plain batch;
    :meth:`of` turns a plain iterable back into a batch.
    """

    variants: List[Any]
    reads: np.ndarray

    def __post_init__(self) -> None:
        self.reads = np.asarray(self.reads, dtype=np.int64)
        if self.reads.shape != (len(self.variants),):
            raise ValueError(f"{len(self.variants)} requests, read counts {self.reads.shape}")

    @classmethod
    def of(cls, requests: Iterable) -> "RequestBatch":
        """``requests`` as a batch: a :class:`RequestBatch` as it is, any other
        iterable with each item one read of that object (repeats collapse by
        identity, in first-seen order)."""
        if isinstance(requests, RequestBatch):
            return requests
        requests = list(requests)
        variants = {id(variant): variant for variant in requests}
        return cls(list(variants.values()), list(Counter(map(id, requests)).values()))

    def __len__(self) -> int:
        return int(self.reads.sum())

    def __iter__(self) -> Iterator[Any]:
        return chain.from_iterable(map(repeat, self.variants, self.reads.tolist()))


def operation_field(op: Any) -> bytes:
    """One operation's encoded fingerprint field: name, operands, parameters, tag."""
    return f"{op.name}|{tuple(op.qubits)!r}|{tuple(op.params)!r}|{op.tag!r}\x1f".encode("utf-8")


def fingerprint_head(variant: Any, num_qubits: int) -> Tuple[bytes, bytes]:
    """The fingerprint's head fields before and after its settings text.

    A fingerprint hashes ``before + repr(settings) + after + operations``:
    ``before`` ends in ``settings:`` and ``after`` carries the Pauli term and
    the qubit count ``num_qubits``.  ``variant`` needs the head attributes of
    :func:`variant_fingerprint`; a variant table passes itself, since every
    row shares them.
    """
    term = getattr(variant, "pauli_term", None)
    before = (
        f"sub:{variant.subcircuit_index}\x1fwires:{variant.num_wires}\x1fmode:{variant.mode}"
        f"\x1fout:{tuple(variant.output_qubit_order)!r}\x1fsettings:"
    )
    after = f"\x1fterm:{tuple(term.paulis)!r}" if term is not None else "\x1fterm:None"
    return before.encode("utf-8"), f"{after}\x1fnq:{num_qubits}\x1f".encode("utf-8")


def variant_fingerprint(variant: Any) -> str:
    """Stable content hash identifying a variant request.

    ``variant`` is duck-typed (any object with ``circuit``, ``num_wires``,
    ``output_qubit_order``, ``settings``, ``mode``, ``pauli_term`` and
    ``subcircuit_index`` attributes); the canonical implementation is
    :class:`repro.cutting.variants.SubcircuitVariant`, whose table hashes all
    of its rows at once by the same formula (:func:`fingerprint_head`, then
    the settings ``repr`` and the joined :func:`operation_field` text) without
    building their circuits.  The Pauli-term *coefficient* is deliberately
    excluded: it scales the contraction, not the circuit, so terms that differ
    only by weight share one execution.
    """
    circuit = variant.circuit
    before, after = fingerprint_head(variant, circuit.num_qubits)
    settings = repr(variant.settings).encode("utf-8")
    operations = b"".join(map(operation_field, circuit))
    return hashlib.sha1(before + settings + after + operations).hexdigest()


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
