"""Finite multigraphs with loops and parallel edges, and their arcs.

A graph is a triple (V, E, ends): V is the dense range 0..n-1, every edge
carries a stable integer id and a set of one (loop) or two endpoints.
Each edge consists of two mutually inverse arcs; the two arcs of a loop
are told apart by their end selector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DanglingEndpoint, SchemaViolation


class Edge(NamedTuple):
    id: int
    ends: tuple[int, ...]  # (v,) for a loop, (u, v) with u <= v otherwise

    @property
    def is_loop(self) -> bool:
        return len(self.ends) == 1


@dataclass(frozen=True, slots=True, order=True)
class Arc:
    """One side of an edge: the arc underlying `edge` whose tail is
    `ends[end]` (loops use end 0 and 1 for their two arcs)."""

    tail: int
    edge: int
    end: int


class MultiGraph:
    """Immutable multigraph; construct once, read from anywhere."""

    __slots__ = ("_n", "_edges", "_by_id", "_adj", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, Sequence[int]]]):
        """`edges` yields (edge id, endpoints); endpoints of length 1 or 2."""
        if n < 0:
            raise SchemaViolation(f"negative vertex count {n}")
        normalized: list[Edge] = []
        seen_ids: set[int] = set()
        for eid, ends in edges:
            ends = tuple(ends)
            if len(ends) == 2 and ends[0] == ends[1]:
                ends = (ends[0],)  # a loop given as (v, v)
            if len(ends) not in (1, 2):
                raise SchemaViolation(f"edge {eid}: {len(ends)} endpoints")
            for v in ends:
                if not (0 <= v < n):
                    raise DanglingEndpoint(f"edge {eid}: endpoint {v} not in 0..{n - 1}")
            if eid in seen_ids:
                raise SchemaViolation(f"duplicate edge id {eid}")
            seen_ids.add(eid)
            if len(ends) == 2 and ends[0] > ends[1]:
                ends = (ends[1], ends[0])
            normalized.append(Edge(eid, ends))
        normalized.sort(key=lambda e: e.id)
        self._n = n
        self._edges = tuple(normalized)
        self._by_id = {e.id: e for e in self._edges}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        degs = [0] * n
        for e in self._edges:
            if e.is_loop:
                v = e.ends[0]
                adj[v].append((v, e.id))
                degs[v] += 2
            else:
                u, v = e.ends
                adj[u].append((v, e.id))
                adj[v].append((u, e.id))
                degs[u] += 1
                degs[v] += 1
        self._adj = tuple(tuple(a) for a in adj)
        self._degrees = tuple(degs)

    # --- basic accessors ---

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edge(self, eid: int) -> Edge:
        return self._by_id[eid]

    def degree(self, v: int) -> int:
        return self._degrees[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, edge id) pairs; a loop at v appears once."""
        return self._adj[v]

    def adjacent_vertices(self, v: int) -> set[int]:
        return {w for w, _ in self._adj[v]}

    # --- structure predicates ---

    @property
    def has_loops(self) -> bool:
        return any(e.is_loop for e in self._edges)

    @property
    def has_parallel_edges(self) -> bool:
        seen: set[tuple[int, ...]] = set()
        for e in self._edges:
            if e.ends in seen:
                return True
            seen.add(e.ends)
        return False

    @property
    def is_simple(self) -> bool:
        return not self.has_loops and not self.has_parallel_edges

    def is_regular(self) -> int | None:
        """The common valence if the graph is regular, else None."""
        if self._n == 0:
            return None
        k = self._degrees[0]
        return k if all(d == k for d in self._degrees) else None

    def is_connected(self) -> bool:
        if self._n <= 1:
            return True
        seen = bytearray(self._n)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            v = stack.pop()
            for w, _ in self._adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == self._n

    # --- arcs ---

    def arcs_of_edge(self, eid: int) -> tuple[Arc, Arc]:
        e = self._by_id[eid]
        if e.is_loop:
            v = e.ends[0]
            return Arc(v, eid, 0), Arc(v, eid, 1)
        u, v = e.ends
        return Arc(u, eid, 0), Arc(v, eid, 1)

    def arcs(self) -> list[Arc]:
        """All 2|E| arcs, sorted by (tail, edge id, end selector)."""
        out: list[Arc] = []
        for e in self._edges:
            out.extend(self.arcs_of_edge(e.id))
        out.sort()
        return out

    def out_arcs(self, v: int) -> list[Arc]:
        out = [a for _, eid in self._adj[v] for a in self.arcs_of_edge(eid) if a.tail == v]
        # a loop contributes both of its arcs exactly once each
        return sorted(set(out))

    def inverse(self, arc: Arc) -> Arc:
        a, b = self.arcs_of_edge(arc.edge)
        return b if arc == a else a

    def arc_head(self, arc: Arc) -> int:
        """The vertex the arc points at (equals the tail for loops)."""
        e = self._by_id[arc.edge]
        if e.is_loop:
            return e.ends[0]
        u, v = e.ends
        return v if arc.tail == u else u

    # --- derived graphs ---

    def relabeled(self, perm: Sequence[int]) -> "MultiGraph":
        """New graph with vertex v renamed perm[v]; edge ids unchanged."""
        if sorted(perm) != list(range(self._n)):
            raise SchemaViolation("perm is not a bijection on vertices")
        return MultiGraph(
            self._n,
            [(e.id, tuple(perm[v] for v in e.ends)) for e in self._edges],
        )

    # --- dunder plumbing ---

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        loops = sum(1 for e in self._edges if e.is_loop)
        tag = f", loops={loops}" if loops else ""
        return f"MultiGraph(n={self._n}, edges={len(self._edges)}{tag})"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))


def from_edge_list(n: int, pairs: Iterable[Sequence[int]]) -> MultiGraph:
    """Build a graph from (u, v) pairs; ids are assigned 0,1,2,... in order.
    A pair (v, v) or a singleton (v,) makes a loop."""
    return MultiGraph(n, list(enumerate(pairs)))
