"""Finite multigraphs with loops and parallel edges, and their arcs.

A graph is a triple (V, E, ends): V is the dense range 0..n-1, every edge
carries a stable integer id and a set of one (loop) or two endpoints.
Each edge consists of two mutually inverse arcs; the two arcs of a loop
are told apart by their end selector. Components, and the cycles of a
2-factor in cyclic order, come from one depth-first walk, `_components`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import DanglingEndpoint, NotAnArc, NotAnEdge, NotAVertex, SchemaViolation


def _is_int(x: object) -> bool:
    """An integer id or count: True and False are ints to Python, but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


class Edge(NamedTuple):
    id: int
    ends: tuple[int, ...]  # (v,) for a loop, (u, v) with u <= v otherwise

    @property
    def is_loop(self) -> bool:
        return len(self.ends) == 1


class Arc(NamedTuple):
    """One side of an edge: the arc underlying `edge` whose tail is
    `ends[end]` (loops use end 0 and 1 for their two arcs)."""

    tail: int
    edge: int
    end: int


class ArcTable(NamedTuple):
    """A graph's arcs, indexed once: schemes, truncations and maps work on
    the integer positions of this table. Read it through
    MultiGraph._arc_table and MultiGraph._arc_indices."""

    arcs: tuple[Arc, ...]  # in (tail, edge id, end) order
    start: tuple[int, ...]  # v's out-arcs are at positions start[v] .. start[v + 1] - 1
    inverse: tuple[int, ...]  # the position of the other arc of the same edge
    position: dict[int, int]  # 2·edge + end -> position; edge ids may be negative or sparse


class MultiGraph:
    """Immutable multigraph; construct once, read from anywhere. The arc
    table, whether any edges are parallel, whether it is connected, the
    girth (`girth.girth`) and the girth report (`girth.girth_report`) are
    found on the first query and only read after that."""

    __slots__ = (
        "_n", "_edges", "_by_id", "_adj", "_degrees", "_arc_cache", "_has_loops", "_parallel",
        "_connected", "_girth", "_report", "__weakref__",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, Sequence[int]]]):
        """`edges` yields (edge id, endpoints); endpoints of length 1 or 2.
        Ids and the count are ints, not bools; SchemaViolation otherwise."""
        if not _is_int(n):
            raise SchemaViolation(f"vertex count {n!r} is not an integer")
        if n < 0:
            raise SchemaViolation(f"negative vertex count {n}")
        try:
            records = iter(edges)
        except TypeError:
            raise SchemaViolation(f"edges must be iterable, not {type(edges).__name__}") from None
        by_id: dict[int, Edge] = {}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        loops = []
        for record in records:
            try:
                eid, ends = record
            except (TypeError, ValueError):
                raise SchemaViolation(f"edge record {record!r} is not an (id, endpoints) pair") from None
            # exact ints pass without a call: every graph is built through here
            if type(eid) is not int and not _is_int(eid):
                raise SchemaViolation(f"edge id {eid!r} is not an integer")
            try:
                ends = tuple(ends)
            except TypeError:
                raise SchemaViolation(f"edge {eid}: endpoints {ends!r} are not a sequence") from None
            if len(ends) == 2 and ends[0] == ends[1]:
                ends = ends[:1]  # a loop given as (v, v)
            if len(ends) not in (1, 2):
                raise SchemaViolation(f"edge {eid}: {len(ends)} endpoints")
            for v in ends:
                if type(v) is not int and not _is_int(v):
                    raise SchemaViolation(f"edge {eid}: endpoint {v!r} is not an integer")
                if not (0 <= v < n):
                    raise DanglingEndpoint(f"edge {eid}: endpoint {v} not in 0..{n - 1}")
            if eid in by_id:
                raise SchemaViolation(f"duplicate edge id {eid}")
            if len(ends) == 1:
                v = ends[0]
                adj[v].append((v, eid))
                loops.append(v)
            else:
                u, v = ends
                if u > v:
                    u, v = v, u
                    ends = (u, v)
                adj[u].append((v, eid))
                adj[v].append((u, eid))
            by_id[eid] = Edge(eid, ends)
        ids = list(by_id)
        if ids != sorted(ids):
            # keep the edges, and so each adjacency list, in edge-id order
            by_id = {eid: by_id[eid] for eid in sorted(ids)}
            for a in adj:
                a.sort(key=itemgetter(1))
        degs = [len(a) for a in adj]
        for v in loops:
            degs[v] += 1  # a loop appears once at v and counts twice
        self._n = n
        self._edges = tuple(by_id.values())
        self._by_id = by_id
        self._adj = tuple(map(tuple, adj))
        self._degrees = tuple(degs)
        self._arc_cache = None
        self._has_loops = bool(loops)
        self._parallel: bool | None = None
        self._connected: bool | None = None
        self._girth: int | None = 0  # 0 until girth() runs; None for a forest
        self._report = None  # the GirthReport, once girth_report() runs

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
        """The edge with this id; NotAnEdge if the graph has none."""
        # exact ints pass without a call, as in the constructor
        if (type(eid) is not int and not _is_int(eid)) or eid not in self._by_id:
            raise NotAnEdge(f"no edge has id {eid!r}")
        return self._by_id[eid]

    def _no_vertex(self, v: int) -> NotAVertex:
        return NotAVertex(f"no vertex {v!r} in 0..{self._n - 1}")

    def degree(self, v: int) -> int:
        if (type(v) is not int and not _is_int(v)) or not 0 <= v < self._n:
            raise self._no_vertex(v)
        return self._degrees[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, edge id) pairs; a loop at v appears once. NotAVertex
        if v is not a vertex id."""
        if (type(v) is not int and not _is_int(v)) or not 0 <= v < self._n:
            raise self._no_vertex(v)
        return self._adj[v]

    # --- structure predicates ---

    @property
    def has_loops(self) -> bool:
        return self._has_loops

    @property
    def has_parallel_edges(self) -> bool:
        """Two edges with the same ends, two loops at one vertex included."""
        if self._parallel is None:
            self._parallel = len({e.ends for e in self._edges}) < len(self._edges)
        return self._parallel

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
        if self._connected is None:
            self._connected = len(self._components()) <= 1
        return self._connected

    def _components(self, skip: Collection[int] = ()) -> list[list[int]]:
        """The components without the edges in `skip`, numbered by least
        vertex. Each lists its vertices as a stack walk from the least one
        pops them, every vertex pushing its unseen neighbours in falling
        edge-id order: a component of a 2-factor comes out as its cycle,
        from the lesser edge on."""
        adj, seen = self._adj, bytearray(self._n)
        comps = []
        for s in range(self._n):
            if seen[s]:
                continue
            seen[s] = 1
            comp, stack = [], [s]
            while stack:
                v = stack.pop()
                comp.append(v)
                for w, eid in reversed(adj[v]):
                    if not seen[w] and eid not in skip:
                        seen[w] = 1
                        stack.append(w)
            comps.append(comp)
        return comps

    # --- arcs ---

    def _arc_table(self) -> ArcTable:
        """The arc table, built on the first arc query and then kept."""
        table = self._arc_cache
        if table is None:
            arcs: list[Arc] = []
            keys: list[int] = []
            start = [0]
            # each adjacency list is in edge-id order, so no sort is needed
            for v, nbrs in enumerate(self._adj):
                for w, eid in nbrs:
                    if w == v:  # a loop: both of its arcs leave v
                        arcs += (Arc(v, eid, 0), Arc(v, eid, 1))
                        keys += (2 * eid, 2 * eid + 1)
                    else:
                        end = int(v > w)
                        arcs.append(Arc(v, eid, end))
                        keys.append(2 * eid + end)
                start.append(len(arcs))
            position = {k: p for p, k in enumerate(keys)}
            inverse = tuple(position[k ^ 1] for k in keys)  # flips the end
            table = self._arc_cache = ArcTable(tuple(arcs), tuple(start), inverse, position)
        return table

    def _arc_indices(self, arcs: Iterable[Arc]) -> list[int]:
        """The position of each arc in the arc table, or -1 for an item that
        is not an arc of this graph, such as one that does not unpack to
        (tail, edge, end) or has a field that is not an int (0.0 and True
        equal ints, but name no arc)."""
        table = self._arc_table()
        position, known = table.position, table.arcs
        out = []
        for a in arcs:
            try:
                tail, eid, end = a  # unpacking reads a named tuple's fields fastest
                p = position.get(2 * eid + end, -1)
            except (TypeError, ValueError):
                p = -1
            if p >= 0 and known[p] is not a and not (
                known[p] == a and all(map(_is_int, (tail, eid, end)))
            ):
                p = -1
            out.append(p)
        return out

    def arcs_of_edge(self, eid: int) -> tuple[Arc, Arc]:
        e = self.edge(eid)
        table = self._arc_table()
        p = table.position[2 * e.id]
        return table.arcs[p], table.arcs[table.inverse[p]]

    def arcs(self) -> list[Arc]:
        """All 2|E| arcs, sorted by (tail, edge id, end selector)."""
        return list(self._arc_table().arcs)

    def out_arcs(self, v: int) -> list[Arc]:
        """The arcs with tail v, sorted by (edge id, end selector); a loop
        contributes both of its arcs."""
        if (type(v) is not int and not _is_int(v)) or not 0 <= v < self._n:
            raise self._no_vertex(v)
        table = self._arc_table()
        return list(table.arcs[table.start[v]:table.start[v + 1]])

    def inverse(self, arc: Arc) -> Arc:
        """The other arc of the same edge; NotAnArc if `arc` is not an arc
        of this graph."""
        [p] = self._arc_indices((arc,))
        if p < 0:
            raise NotAnArc(f"{arc} is not an arc of {self!r}")
        table = self._arc_table()
        return table.arcs[table.inverse[p]]

    def arc_head(self, arc: Arc) -> int:
        """The vertex the arc points at (equals the tail for loops)."""
        return self.inverse(arc).tail

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
