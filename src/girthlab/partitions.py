"""Distance partitions, the six partition facts and the two-path counts:
the library's tools for the paper's extremal-signature bounds. No command
loads this module. `_partition` intersects the balls of radius ⌊g/2⌋ + 1
around two vertices, each found by the girth layer's one BFS, `_bfs`; the
facts and the two-path counts read ε from the graph's girth report.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, NamedTuple

from .errors import NotAnEdge, NotCubicVertex
from .girth import _bfs, _require_finite, girth_report
from .multigraph import MultiGraph, _is_int


# --- distance partitions ---

class DistancePartition(NamedTuple):
    """Cells D^i_j = S_i(u) ∩ S_j(anchor); anchor is v for an edge pair
    (u, v) and w for a 2-path (u, v, w). The repr leaves the cells out."""

    sources: tuple[int, ...]
    radius: int
    cells: dict[tuple[int, int], frozenset[int]]

    def cell(self, i: int, j: int) -> frozenset[int]:
        return self.cells.get((i, j), frozenset())

    def __repr__(self) -> str:
        return f"DistancePartition(sources={self.sources!r}, radius={self.radius!r})"


def _partition(g: MultiGraph, u: int, anchor: int, gir: int) -> DistancePartition:
    d = gir // 2
    # the balls of radius d + 1 around anchor and u; no list of n to fill:
    # a vertex never stamped reads 0, below both bases
    depth, _, _, _ = marks = (defaultdict(int), {}, {}, {})
    near = {x: depth[x] - 1 for x in _bfs(g._adj, anchor, 2 * d + 2, marks, 1)[0]}
    cells: dict[tuple[int, int], set[int]] = {}
    for x in _bfs(g._adj, u, 2 * d + 2, marks, d + 3)[0]:
        if x in near:
            cells.setdefault((depth[x] - d - 3, near[x]), set()).add(x)
    frozen = {ij: frozenset(s) for ij, s in cells.items()}
    return DistancePartition((u, anchor), d, frozen)


def _edge_between(g: MultiGraph, u: int, v: int) -> int:
    """The least id of an edge joining the distinct vertices u and v;
    NotAnEdge if there is none or either is not a vertex id."""
    if u != v and _is_int(u) and _is_int(v) and 0 <= u < g.n:
        for w, eid in g.neighbors(u):  # in edge-id order
            if w == v:
                return eid
    raise NotAnEdge(f"({u!r}, {v!r}) is not an edge")


def distance_partition(g: MultiGraph, u: int, v: int) -> DistancePartition:
    _edge_between(g, u, v)
    return _partition(g, u, v, _require_finite(g))


def distance_partition_2path(g: MultiGraph, u: int, v: int, w: int) -> DistancePartition:
    _edge_between(g, u, v)
    _edge_between(g, v, w)
    part = _partition(g, u, w, _require_finite(g))
    return DistancePartition((u, v, w), part.radius, part.cells)


class FactResult(NamedTuple):
    fact: int
    applicable: bool
    holds: bool | None
    witness: Any = None


def check_partition_facts(g: MultiGraph, u: int, v: int) -> list[FactResult]:
    """Evaluate the six distance-partition facts literally for the edge uv,
    against the report's ε, and report one result per fact 1-6, in order.

    Facts quantified with (k-1)-counts apply to regular graphs only. Fact
    five applies at even girth >= 4 and fact six at odd girth. At girth 2
    neither does: the cells D^0_1 = {u} and D^1_0 = {v} are joined by every
    parallel u-v edge, uv included, while ε(uv) leaves uv out.
    """
    eid = _edge_between(g, u, v)
    report = girth_report(g)
    gir, eps = report.girth, report.epsilon[eid]
    part = _partition(g, u, v, gir)
    d = part.radius
    k = g.is_regular()
    found: dict[int, tuple[bool, Any]] = {}  # (holds, witness) of each fact that applies

    def adj(x: int) -> set[int]:
        return {w for w, _ in g.neighbors(x) if w != x}

    # (1) D^i_i empty below the radius
    bad = [(i, sorted(part.cell(i, i))) for i in range(1, d) if part.cell(i, i)]
    found[1] = (not bad, bad or None)

    # one pass over the off-diagonal shells D^(i-1)_i and D^i_(i-1): (2) each
    # is an independent set; (3) each vertex has one neighbour back and k-1
    # forward (regular only); (4) each has (k-1)^(i-1) vertices (regular only)
    bad2 = []
    bad3 = []
    bad4 = []
    for i in range(1, d + 1):
        for cell_name, (a, b) in (("upper", (i - 1, i)), ("lower", (i, i - 1))):
            cell = part.cell(a, b)
            if k is not None and len(cell) != (k - 1) ** (i - 1):
                bad4.append((i, cell_name, len(cell), (k - 1) ** (i - 1)))
            if i < 2:
                continue
            back, fwd = part.cell(a - 1, b - 1), part.cell(a + 1, b + 1)
            for x in cell:
                nb = adj(x)
                hits = nb & cell
                if hits:
                    bad2.append((i, x, sorted(hits)))
                if len(nb & back) != 1:
                    bad3.append((i, x, "back", len(nb & back)))
                if k is not None and i <= d - 1 and len(nb & fwd) != k - 1:
                    bad3.append((i, x, "forward", len(nb & fwd)))
    found[2] = (not bad2, bad2 or None)
    found[3] = (not bad3, bad3 or None)
    if k is not None:
        found[4] = (not bad4, bad4 or None)

    if gir % 2 == 0 and gir >= 4:
        # (5) even girth: ε(uv) counts the far cross edges
        upper, lower = part.cell(d - 1, d), part.cell(d, d - 1)
        far = sum(1 for x in upper for y, _ in g.neighbors(x) if y in lower)
        found[5] = (far == eps, (far, eps))
    elif gir % 2:
        # (6) odd girth: matched far shell of size ε(uv)
        dd = part.cell(d, d)
        ok = len(dd) == eps
        wit: Any = (len(dd), eps)
        for x in dd:
            if len(adj(x) & part.cell(d - 1, d)) != 1 or len(adj(x) & part.cell(d, d - 1)) != 1:
                ok = False
                wit = ("unmatched far vertex", x)
                break
        found[6] = (ok, wit)
    return [FactResult(f, f in found, *found.get(f, (None, None))) for f in range(1, 7)]


# --- two-path counts ---

class TwoPathCounts(NamedTuple):
    """Girth-cycle counts of the three 2-paths at a cubic vertex, in the
    fixed order (e1e2, e2e3, e3e1) with e1 < e2 < e3 by edge id. Every
    girth cycle through the vertex uses exactly two of its edges, so the
    counts solve ε(e1) = x + z, ε(e2) = x + y, ε(e3) = y + z over the
    report's ε."""

    vertex: int
    edges: tuple[int, int, int]
    x: int
    y: int
    z: int


def two_path_counts(g: MultiGraph, v: int) -> TwoPathCounts:
    if not (_is_int(v) and 0 <= v < g.n) or g.degree(v) != 3 or any(w == v for w, _ in g.neighbors(v)):
        raise NotCubicVertex(f"vertex {v!r} is not a loop-free valence-3 vertex")
    eps = girth_report(g).epsilon
    e1, e2, e3 = sorted(eid for _, eid in g.neighbors(v))
    a, b, c = eps[e1], eps[e2], eps[e3]
    return TwoPathCounts(v, (e1, e2, e3), (a + b - c) // 2, (b + c - a) // 2, (a + c - b) // 2)
