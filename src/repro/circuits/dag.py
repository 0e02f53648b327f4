"""Gate-level DAG view of a circuit.

The DAG exposes exactly the structure the cutting formulation needs:

* one **node** per operation (plus implicit input/output terminals per qubit),
* one **wire segment** per pair of consecutive operations on the same qubit — every
  wire segment is a potential wire-cut location (the yellow crosses of Figure 3),
* convenience queries: predecessors/successors along a wire, segments entering a
  node, topological order, and per-qubit operation chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..exceptions import CircuitError
from .circuit import Circuit
from .gates import Operation

__all__ = ["WireSegment", "DagNode", "CircuitDag"]


@dataclass(frozen=True)
class DagNode:
    """A single operation node in the DAG.

    Attributes:
        index: position of the operation in the circuit's program order.
        operation: the operation itself.
    """

    index: int
    operation: Operation

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.operation.qubits


@dataclass(frozen=True)
class WireSegment:
    """A wire segment between two consecutive operations on the same qubit.

    ``upstream`` is ``None`` for the segment from the circuit input to the qubit's
    first operation (that segment is never a valid cut location — the paper never
    cuts the first layer); ``downstream`` is ``None`` for the segment from the last
    operation to the circuit output.
    """

    qubit: int
    upstream: Optional[int]
    downstream: Optional[int]

    @property
    def is_cuttable(self) -> bool:
        """A segment is a cut candidate only if it joins two real operations."""
        return self.upstream is not None and self.downstream is not None

    def key(self) -> Tuple[int, int, int]:
        up = -1 if self.upstream is None else self.upstream
        down = -1 if self.downstream is None else self.downstream
        return (self.qubit, up, down)


class CircuitDag:
    """DAG of a circuit with per-qubit wire chains and wire-segment enumeration."""

    def __init__(self, circuit: Circuit) -> None:
        self._circuit = circuit
        self._nodes: List[DagNode] = [
            DagNode(i, op) for i, op in enumerate(circuit.operations)
        ]
        self._wire_chains: Dict[int, List[int]] = {q: [] for q in range(circuit.num_qubits)}
        for node in self._nodes:
            for qubit in node.qubits:
                self._wire_chains[qubit].append(node.index)
        self._segments: List[WireSegment] = []
        self._segments_by_qubit: Dict[int, List[WireSegment]] = {
            q: [] for q in range(circuit.num_qubits)
        }
        for qubit, chain in self._wire_chains.items():
            previous: Optional[int] = None
            for node_index in chain:
                segment = WireSegment(qubit, previous, node_index)
                self._segments.append(segment)
                self._segments_by_qubit[qubit].append(segment)
                previous = node_index
            self._segments.append(WireSegment(qubit, previous, None))
            self._segments_by_qubit[qubit].append(WireSegment(qubit, previous, None))
        self._graph = self._build_graph()

    # ------------------------------------------------------------------ accessors
    @property
    def circuit(self) -> Circuit:
        return self._circuit

    @property
    def nodes(self) -> Tuple[DagNode, ...]:
        return tuple(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def node(self, index: int) -> DagNode:
        try:
            return self._nodes[index]
        except IndexError as exc:
            raise CircuitError(f"no DAG node with index {index}") from exc

    def wire_chain(self, qubit: int) -> Tuple[int, ...]:
        """Program-order operation indices touching ``qubit``."""
        if qubit not in self._wire_chains:
            raise CircuitError(f"qubit {qubit} not in circuit")
        return tuple(self._wire_chains[qubit])

    def segments(self, cuttable_only: bool = False) -> Tuple[WireSegment, ...]:
        """All wire segments (optionally only those joining two real operations)."""
        if cuttable_only:
            return tuple(s for s in self._segments if s.is_cuttable)
        return tuple(self._segments)

    def segment_before(self, node_index: int, qubit: int) -> WireSegment:
        """The wire segment entering operation ``node_index`` on ``qubit``."""
        for segment in self._segments_by_qubit[qubit]:
            if segment.downstream == node_index:
                return segment
        raise CircuitError(f"operation {node_index} does not act on qubit {qubit}")

    def segment_after(self, node_index: int, qubit: int) -> WireSegment:
        """The wire segment leaving operation ``node_index`` on ``qubit``."""
        for segment in self._segments_by_qubit[qubit]:
            if segment.upstream == node_index:
                return segment
        raise CircuitError(f"operation {node_index} does not act on qubit {qubit}")

    def predecessor_on(self, node_index: int, qubit: int) -> Optional[int]:
        """Index of the previous operation on ``qubit`` before ``node_index`` (or None)."""
        return self.segment_before(node_index, qubit).upstream

    def successor_on(self, node_index: int, qubit: int) -> Optional[int]:
        """Index of the next operation on ``qubit`` after ``node_index`` (or None)."""
        return self.segment_after(node_index, qubit).downstream

    # ------------------------------------------------------------------ graph views
    def _build_graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        for node in self._nodes:
            graph.add_node(node.index, operation=node.operation)
        for segment in self._segments:
            if segment.is_cuttable:
                graph.add_edge(segment.upstream, segment.downstream, qubit=segment.qubit)
        return graph

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying networkx DiGraph (operation indices as nodes)."""
        return self._graph

    def topological_order(self) -> List[int]:
        return list(nx.topological_sort(self._graph))

    def ancestors(self, node_index: int) -> frozenset:
        """All operations that must execute before ``node_index`` (its causal cone)."""
        return frozenset(nx.ancestors(self._graph, node_index))

    def descendants(self, node_index: int) -> frozenset:
        """All operations that depend on the output of ``node_index``."""
        return frozenset(nx.descendants(self._graph, node_index))

    def qubit_first_op(self, qubit: int) -> Optional[int]:
        chain = self._wire_chains[qubit]
        return chain[0] if chain else None

    def qubit_last_op(self, qubit: int) -> Optional[int]:
        chain = self._wire_chains[qubit]
        return chain[-1] if chain else None

    def qubit_interaction_graph(self) -> nx.Graph:
        """Undirected graph over qubits with an edge per interacting qubit pair."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self._circuit.num_qubits))
        for node in self._nodes:
            if node.operation.is_two_qubit:
                a, b = node.qubits
                if graph.has_edge(a, b):
                    graph[a][b]["weight"] += 1
                else:
                    graph.add_edge(a, b, weight=1)
        return graph

    # ------------------------------------------------------------------ reuse helpers
    def qubit_dependency_graph(self) -> nx.DiGraph:
        """Directed graph over *qubits*: edge ``a -> b`` if some operation on ``b``
        depends (transitively) on an operation on ``a``.

        Used by the qubit-reuse analysis: qubit ``a`` can be reused as qubit ``b``
        only if ``b``'s first operation does not causally precede ``a``'s last
        operation, which this graph makes cheap to query.
        """
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self._circuit.num_qubits))
        for node in self._nodes:
            if node.operation.is_two_qubit:
                a, b = node.qubits
                graph.add_edge(a, b)
                graph.add_edge(b, a)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"CircuitDag(nodes={self.num_nodes}, "
            f"cuttable_segments={len(self.segments(cuttable_only=True))})"
        )
