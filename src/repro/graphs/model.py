"""Labelled, undirected, simple graphs — the data model of the paper.

The paper (Section III) works over a database of undirected simple graphs
whose vertices carry labels drawn from a finite alphabet with a total order.
Edges are unlabelled.  :class:`Graph` implements exactly that model, plus the
seven mutation kinds enumerated in Section IV-C (insert/delete graph happens
at the index layer; the per-graph mutations live here):

* insert an edge / delete an edge,
* insert a vertex / delete a vertex,
* relabel a vertex.

Vertices are identified by non-negative integers chosen by the caller.  Ids
do not need to be contiguous, which keeps deletion cheap and keeps ids stable
across mutations — a property the index-maintenance layer relies on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..errors import (
    DuplicateEdge,
    DuplicateVertex,
    EdgeNotFound,
    GraphError,
    VertexNotFound,
)

Label = str
Edge = Tuple[int, int]


class Graph:
    """A labelled, undirected, simple graph.

    Parameters
    ----------
    labels:
        Mapping from vertex id to vertex label.  May also be an iterable of
        labels, in which case vertices are numbered ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops and duplicate edges are
        rejected because the model is a *simple* graph.

    Examples
    --------
    >>> g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
    >>> g.order
    3
    >>> g.degree(1)
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_labels", "_adj", "_num_edges")

    def __init__(
        self,
        labels: Mapping[int, Label] | Iterable[Label] = (),
        edges: Iterable[Tuple[int, int]] = (),
    ) -> None:
        self._labels: Dict[int, Label] = {}
        self._adj: Dict[int, Set[int]] = {}
        self._num_edges = 0
        if isinstance(labels, Mapping):
            items: Iterable[Tuple[int, Label]] = labels.items()
        else:
            items = enumerate(labels)
        for vid, label in items:
            self.add_vertex(vid, label)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Read-only accessors
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of vertices, written ``|g|`` in the paper."""
        return len(self._labels)

    @property
    def size(self) -> int:
        """Number of edges."""
        return self._num_edges

    def vertices(self) -> Iterator[int]:
        """Iterate over vertex ids (in insertion order)."""
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once in canonical order."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u <= v:
                    yield (u, v)

    def label(self, vertex: int) -> Label:
        """Return the label of *vertex*."""
        try:
            return self._labels[vertex]
        except KeyError:
            raise VertexNotFound(vertex) from None

    def labels(self) -> Dict[int, Label]:
        """Return a copy of the vertex → label mapping."""
        return dict(self._labels)

    def label_multiset(self) -> List[Label]:
        """Return the sorted multiset of all vertex labels."""
        return sorted(self._labels.values())

    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._labels

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, vertex: int) -> Set[int]:
        """Return the set of neighbours of *vertex* (a copy)."""
        try:
            return set(self._adj[vertex])
        except KeyError:
            raise VertexNotFound(vertex) from None

    def degree(self, vertex: int) -> int:
        """``deg(v)`` from Table I."""
        try:
            return len(self._adj[vertex])
        except KeyError:
            raise VertexNotFound(vertex) from None

    def max_degree(self) -> int:
        """``δ(g) = max_v deg(v)`` from Table I; 0 for the empty graph."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # Mutations (Section IV-C update kinds 3–7)
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: int, label: Label) -> None:
        """Insert a new isolated vertex with the given label."""
        if not isinstance(vertex, int) or vertex < 0:
            raise GraphError(f"vertex ids must be non-negative ints, got {vertex!r}")
        if vertex in self._labels:
            raise DuplicateVertex(vertex)
        self._labels[vertex] = label
        self._adj[vertex] = set()

    def remove_vertex(self, vertex: int) -> None:
        """Delete *vertex* and every edge incident to it."""
        if vertex not in self._labels:
            raise VertexNotFound(vertex)
        for nbr in self._adj[vertex]:
            self._adj[nbr].discard(vertex)
            self._num_edges -= 1
        del self._adj[vertex]
        del self._labels[vertex]

    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``{u, v}``."""
        if u == v:
            raise GraphError(f"self loops are not allowed (vertex {u})")
        if u not in self._labels:
            raise VertexNotFound(u)
        if v not in self._labels:
            raise VertexNotFound(v)
        if v in self._adj[u]:
            raise DuplicateEdge(u, v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}``."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFound(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    def relabel_vertex(self, vertex: int, label: Label) -> None:
        """Replace the label of *vertex*."""
        if vertex not in self._labels:
            raise VertexNotFound(vertex)
        self._labels[vertex] = label

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep copy of this graph."""
        clone = Graph()
        clone._labels = dict(self._labels)
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    def relabelled_compact(self) -> Tuple["Graph", Dict[int, int]]:
        """Return a copy with vertices renumbered ``0..n-1``.

        Also returns the mapping from old ids to new ids.  Useful before
        handing the graph to dense-matrix algorithms (A*, Hungarian).
        """
        mapping = {old: new for new, old in enumerate(self._labels)}
        clone = Graph(
            [self._labels[old] for old in self._labels],
            [(mapping[u], mapping[v]) for u, v in self.edges()],
        )
        return clone, mapping

    def connected_components(self) -> List[Set[int]]:
        """Return the vertex sets of the connected components."""
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for start in self._labels:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nbr in self._adj[node]:
                    if nbr not in component:
                        component.add(nbr)
                        frontier.append(nbr)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True when the graph has at most one connected component."""
        return len(self.connected_components()) <= 1

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural identity: same ids, labels and edges.

        Note this is *not* isomorphism — two isomorphic graphs with
        different vertex ids compare unequal.  Use
        :func:`repro.graphs.edit_distance.graph_edit_distance` ``== 0`` for
        an isomorphism check.
        """
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __hash__(self) -> int:  # pragma: no cover - exercised implicitly
        return hash(
            (
                tuple(sorted(self._labels.items())),
                tuple(sorted(self.edges())),
            )
        )

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._labels

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls, labels: Iterable[Label], edges: Iterable[Tuple[int, int]]
    ) -> "Graph":
        """Build a graph from 0-based labels and an edge list."""
        return cls(list(labels), edges)

    @classmethod
    def single_vertex(cls, label: Label) -> "Graph":
        """Build the one-vertex graph with the given label."""
        return cls([label])


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Return ``{degree: count}`` over all vertices of *graph*."""
    histogram: Dict[int, int] = {}
    for v in graph.vertices():
        d = graph.degree(v)
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


def database_max_degree(graphs: Iterable[Graph]) -> int:
    """``δ(D) = max_g δ(g)`` from Table I; 0 for an empty iterable."""
    result = 0
    for g in graphs:
        d = g.max_degree()
        if d > result:
            result = d
    return result


def normalization_factor(
    query: Graph, other: Optional[Graph] = None, *, database_max: int = 0
) -> int:
    """The paper's ``δ' = max{4, ⌈max{δ(q), δ(·)} + 1⌉}`` denominator.

    Used by Lemma 2 (``other`` = a concrete graph) and by the CA halting test
    (``database_max`` = δ over all still-unseen graphs, for which δ(D) is a
    safe over-approximation).
    """
    delta = query.max_degree()
    if other is not None:
        delta = max(delta, other.max_degree())
    delta = max(delta, database_max)
    return max(4, delta + 1)
