"""The serial scalar contraction walk: the reference the planned kernels are pinned to.

:class:`~repro.cutting.CutReconstructor` contracts through the planned,
sharded kernels of :mod:`repro.cutting.contraction`.  This module keeps the
walk those kernels vectorize — one kron + scatter per global wire-cut
assignment (probability), one scalar product per assignment and gate-cut
instance combination (expectation) — over the reconstructor's own value
stacks and its cut structure's local-key maps.  The tests and ``benchmarks/bench_contraction.py``
compare the library's results with it byte for byte; the bench also times it
as the serial baseline.  It records no contraction report.

``tests/`` has no ``__init__.py``, so pytest puts it on ``sys.path``; the
bench inserts it there itself.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cutting import BinSpace, CutReconstructor
from repro.engine import VariantResult
from repro.exceptions import ReconstructionError
from repro.utils.pauli import PauliObservable, PauliString

__all__ = ["naive_expectation", "naive_probabilities"]


def naive_probabilities(
    reconstructor: CutReconstructor,
    table: Optional[Mapping[str, VariantResult]] = None,
    missing: str = "execute",
) -> np.ndarray:
    """The full probability vector by the serial scalar walk.

    ``table`` and ``missing`` mean what they mean for
    :meth:`~repro.cutting.CutReconstructor.reconstruct_probabilities`; without
    a table the batch is enumerated and executed here.
    """
    if table is None:
        table = reconstructor.engine.run_batch(reconstructor.enumerate_probability_requests())
    return _reconstruct_probabilities_naive(reconstructor, table, missing, {})


def naive_expectation(
    reconstructor: CutReconstructor,
    observable: PauliObservable,
    table: Optional[Mapping[str, VariantResult]] = None,
    missing: str = "execute",
) -> float:
    """The expectation value of ``observable`` by the serial scalar walk.

    ``table`` and ``missing`` as for :func:`naive_probabilities`.
    """
    if table is None:
        table = reconstructor.engine.run_batch(
            reconstructor.enumerate_expectation_requests(observable)
        )
    return _reconstruct_expectation_naive(reconstructor, observable, table, missing, {})


def _reconstruct_probabilities_naive(
    reconstructor: CutReconstructor,
    table: Mapping[str, VariantResult],
    missing: str,
    cache: Dict[Tuple, np.ndarray],
) -> np.ndarray:
    """The serial scalar walk: one kron + scatter per global assignment."""
    num_qubits = reconstructor.solution.circuit.num_qubits
    total = np.zeros(2**num_qubits)
    coefficient_per_assignment = 0.5 ** len(reconstructor.solution.wire_cuts)
    # The qubit order (and therefore the scatter index map) is the same for
    # every assignment; hoisting it out of the 4**k loop is most of the
    # naive path's win.
    orders = [list(spec.output_qubits) for spec in reconstructor.specs]
    order_lsb: List[int] = []
    for order in orders:
        order_lsb = list(order) + order_lsb
    index_map = _output_index_map(order_lsb, num_qubits)
    stacks = reconstructor._value_stacks("probability", None, table, missing, cache)
    space = BinSpace(active=tuple(range(num_qubits)), merged=())
    keys = reconstructor.structure.contraction(reconstructor.engine.workers, space).index_maps
    for assignment in range(4 ** len(reconstructor.solution.wire_cuts)):
        vectors = [stack[key[assignment]] for stack, key in zip(stacks, keys)]
        combined, _ = _combine_subcircuit_vectors(vectors, orders)
        _scatter_into(
            total,
            combined,
            order_lsb,
            coefficient_per_assignment,
            num_qubits,
            index_map=index_map,
        )
    return total


def _reconstruct_expectation_naive(
    reconstructor: CutReconstructor,
    observable: PauliObservable,
    table: Mapping[str, VariantResult],
    missing: str,
    cache: Dict[Tuple, np.ndarray],
) -> float:
    """The serial scalar walk over ``4**k * 6**m`` combinations per term."""
    return float(
        sum(
            term.coefficient * _term_value(reconstructor, term, table, missing, cache)
            for term in observable.terms
        )
    )


def _term_value(
    reconstructor: CutReconstructor,
    term: PauliString,
    table: Mapping[str, VariantResult],
    missing: str,
    cache: Dict[Tuple, np.ndarray],
) -> float:
    inactive_factor = reconstructor._inactive_qubit_factor(term)
    if inactive_factor == 0.0:
        return 0.0
    stacks = [
        stack.tolist()
        for stack in reconstructor._value_stacks("expectation", term, table, missing, cache)
    ]
    keys = [
        index_map.tolist()
        for index_map in reconstructor.structure.contraction(
            reconstructor.engine.workers, num_terms=1
        ).index_maps
    ]
    products = reconstructor._instance_products().tolist()
    value = 0.0
    base_coefficient = 0.5 ** len(reconstructor.solution.wire_cuts)
    for combo in range(len(keys[0])):
        coefficient = base_coefficient * products[combo % len(products)]
        if coefficient == 0.0:
            continue
        product = 1.0
        for stack, key in zip(stacks, keys):
            product *= stack[key[combo]]
            if product == 0.0:
                break
        value += coefficient * product
    return value * inactive_factor


def _combine_subcircuit_vectors(
    vectors: Sequence[np.ndarray], orders: Sequence[Sequence[int]]
) -> Tuple[np.ndarray, List[int]]:
    """Kronecker-combine per-subcircuit vectors; return (vector, LSB-first qubit list).

    Built as a left-to-right chain of outer products (``np.multiply.outer`` +
    ravel): the same pairwise multiplications ``np.kron`` performs, in the same
    association, without kron's reshape overhead — bit-identical output.
    """
    if not vectors:
        return np.array([1.0]), []
    combined = np.asarray(vectors[0])
    order_lsb: List[int] = list(orders[0])
    for vector, order in zip(vectors[1:], orders[1:]):
        combined = np.multiply.outer(combined, np.asarray(vector)).reshape(-1)
        order_lsb = list(order) + order_lsb
    return combined, order_lsb


def _output_index_map(order_lsb: Sequence[int], num_qubits: int) -> np.ndarray:
    """Global basis index for every element of a combined vector.

    ``order_lsb[position]`` is the circuit qubit carried by bit ``position``
    (LSB first) of the combined vector's flat index.  The map is a bijection
    onto the output-qubit subspace — duplicate qubits would make the fancy
    in-place ``+=`` in :func:`_scatter_into` silently drop contributions, so
    they are rejected here.
    """
    if len(set(order_lsb)) != len(order_lsb):
        raise ReconstructionError(f"duplicate output qubits in {list(order_lsb)}")
    indices = np.arange(2 ** len(order_lsb))
    global_indices = np.zeros_like(indices)
    for position, qubit in enumerate(order_lsb):
        if qubit >= num_qubits:
            raise ReconstructionError(f"output qubit {qubit} outside circuit")
        global_indices |= ((indices >> position) & 1) << qubit
    return global_indices


def _scatter_into(
    total: np.ndarray,
    combined: np.ndarray,
    order_lsb: Sequence[int],
    coefficient: float,
    num_qubits: int,
    index_map: Optional[np.ndarray] = None,
) -> None:
    """Scatter a combined vector into the global basis ordering of ``num_qubits``.

    ``index_map`` (from :func:`_output_index_map`) can be precomputed once and
    reused across the ``4**k`` assignments — the map only depends on the qubit
    order.  The indices are unique (enforced by ``_output_index_map``), so the
    scatter is a plain fancy-indexed ``+=`` rather than the much slower
    ``np.add.at``; element for element the additions are identical.
    """
    # Exact integer width check — float log2 can misround for wide vectors.
    if len(combined) != 2 ** len(order_lsb):
        raise ReconstructionError("qubit order does not match combined vector size")
    if index_map is None:
        index_map = _output_index_map(order_lsb, num_qubits)
    total[index_map] += coefficient * combined
