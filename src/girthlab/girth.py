"""Girth, per-edge girth-cycle counts, signatures, girth cycles and
distance partitions, all from one layered BFS, `_bfs`. From a root, to a
radius, optionally over the vertices above the root only, it labels each
vertex with its depth, parent, tree edge and branch (the edge at the root
its tree path leaves by) and lists the non-tree edges it meets: a closed
walk through the root closes at each. A pass stamps each root's depths
above a base of its own, so no root resets the marks. Three consumers:

- `_shortest_cycle`, the girth search, from the core vertices of degree
  >= 3 and once over each core component. It stays a pass of its own:
  `girth()` stays linear on forests and long cycles, and the count's
  checks for shorter cycles could not test a girth that they had found.
- `_rooted_pass`, one BFS of radius d = ⌊g/2⌋ per root r. A girth cycle
  through r is an edge joining two depth-d vertices of different branches
  (g = 2d+1) or two parents of one depth-d vertex (g = 2d), and adds 1 to
  both branches for ε; any other non-tree edge closes a shorter cycle. The
  counts of an edge from its two ends must agree. On request it lists each
  girth cycle once, as arc keys, from its least vertex r, where both tree
  paths stay above r; they must add up to ε. A graph keeps its report, and
  on one that does, the pass lists over the vertices above r and counts none.
- `_partition` intersects the balls of radius d + 1 around two vertices.

The two-path counts at a cubic vertex solve a linear system over the
report's ε, and the partition facts read ε from it too.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .codec import Lazy, json_tree
from .errors import GirthInvariantViolation, InfiniteGirth, NotAnEdge, NotCubicVertex
from .multigraph import MultiGraph, _is_int

# each vertex's depth stamp, parent, tree edge and branch, indexed by vertex
Marks = tuple[Any, Any, Any, Any]


def _marks(n: int) -> Marks:
    """Marks for a pass over many roots, none of 0..n-1 stamped yet."""
    return [-1] * n, [-1] * n, [None] * n, [None] * n


def _bfs(
    adj: Sequence[Sequence[tuple[int, int]]], root: int, length: int, marks: Marks, base: int, low: int = 0
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The one layered BFS of this module, from root over the vertices
    >= low. It reaches depth ⌊length/2⌋ and scans the edges of each vertex
    reached below depth length/2, so every cycle through root of at most
    `length` edges closes at a non-tree edge that it meets. Each vertex
    reached gets, in `marks`, its depth stamp base + depth and, below the
    root, its parent, its tree edge and its branch, the edge at root that
    its tree path leaves by. Stamps below base read as unreached. Returns
    the vertices reached, in BFS order, and the non-tree edges (v, w, edge
    id) in the order met, once from each scanned end v."""
    depth, parent, up, branch = marks
    depth[root], up[root] = base, None
    far, scan = base + length // 2, base + (length - 1) // 2
    order, cross = [root], []
    for v in order:  # the loop also visits what it appends
        dv = depth[v]
        if dv > scan:
            break
        tree, grow = up[v], dv < far
        b = branch[v] if dv > base else None  # at the root each edge starts a branch
        for w, eid in adj[v]:
            if eid == tree or w < low:
                continue
            if depth[w] >= base:
                cross.append((v, w, eid))
            elif grow:
                depth[w], parent[w] = dv + 1, v
                up[w], branch[w] = eid, eid if b is None else b
                order.append(w)
    return order, cross


# --- girth ---

def girth(g: MultiGraph) -> int | None:
    """Length of a shortest cycle; None for forests. Searched for on the
    first call for each graph and kept on the graph."""
    if g._girth == 0:
        g._girth = _shortest_cycle(g)
    return g._girth


def _shortest_cycle(g: MultiGraph) -> int | None:
    """Loops give girth 1 and a parallel pair girth 2; otherwise the girth
    of the simple graph via rooted BFS over its 2-core, each cut off below
    the best cycle found so far; before the first, from 3 edges, doubled
    until one shows. Only core vertices of degree >= 3 are roots: a cycle
    through none of them is a whole core component, a bare cycle as long
    as its vertex count. When every vertex is a root, each BFS runs over
    the vertices above its root: a shortest cycle shows from its least
    vertex.
    """
    if g.has_loops:
        return 1
    if g.has_parallel_edges:
        return 2
    n, adj = g.n, g._adj
    depth, _, _, _ = marks = _marks(n)
    roots: Iterable[int] = range(n)
    above, best = True, None
    if min(g.degrees, default=3) < 3:
        # peel vertices of degree <= 1: no cycle passes through them
        deg = list(g.degrees)
        gone = [d <= 1 for d in deg]
        stack = [v for v, out in enumerate(gone) if out]
        while stack:
            for w, _ in adj[stack.pop()]:
                if not gone[w]:
                    deg[w] -= 1
                    if deg[w] <= 1:
                        gone[w] = True
                        stack.append(w)
        adj = [tuple(p for p in nbrs if not gone[p[0]]) for nbrs in adj]
        roots = [v for v in range(n) if not gone[v] and deg[v] >= 3]
        above = False
        for s in range(n):
            if not gone[s] and depth[s] < 0:  # a core component not scanned yet
                comp, _ = _bfs(adj, s, 2 * n, marks, 0)
                if all(deg[v] == 2 for v in comp) and (best is None or len(comp) < best):
                    best = len(comp)
    base = n  # above the component scans' stamps
    for root in roots:
        length = 3 if best is None else best - 1
        while True:
            _, cross = _bfs(adj, root, length, marks, base, root if above else 0)
            for v, w, _ in cross:  # a closed walk through the root
                cand = depth[v] + depth[w] + 1 - 2 * base
                if best is None or cand < best:
                    best = cand
            base += length // 2 + 1
            if best is not None or length >= 2 * n:
                break
            length *= 2
        if best == 3:
            break
    return best


def _require_finite(g: MultiGraph) -> int:
    gir = girth(g)
    if gir is None:
        raise InfiniteGirth("graph is a forest")
    return gir


# --- reports and girth cycles, from one rooted pass ---

class GirthReport(NamedTuple):
    """The girth, the girth-cycle count, ε of every edge, each vertex's
    signature and the common signature (None unless girth-regular). The
    mappings are read-only, and in edge-id and vertex order: the graph
    keeps its report for later calls."""

    girth: int
    cycle_count: int
    epsilon: Mapping[int, int]
    signatures: Mapping[int, tuple[int, ...]]
    regular: tuple[int, ...] | None

    def json_shape(self) -> dict[str, Any]:
        return {
            "girth": self.girth,
            "cycles": self.cycle_count,
            "epsilon": Lazy(self.epsilon.items(), lambda kv: (str(kv[0]), kv[1]), members=True),
            "signatures": Lazy(
                self.signatures.items(), lambda kv: (str(kv[0]), list(kv[1])), members=True
            ),
            "regular": list(self.regular) if self.regular is not None else None,
        }

    def to_json(self) -> dict[str, Any]:
        return json_tree(self.json_shape())


def _keep_report(g: MultiGraph, gir: int, eps: dict[int, int]) -> GirthReport:
    """The report of the counts ε, kept on g if they are whole cycles."""
    total = sum(eps.values())
    if total % gir:
        raise GirthInvariantViolation(
            f"cycle-count conservation failed: ε sums to {total}, not a multiple of {gir}"
        )
    signatures: dict[int, tuple[int, ...]] = {}
    for v, nbrs in enumerate(g._adj):
        incident = [eps[eid] for _, eid in nbrs]
        if g.has_loops:
            incident += [eps[eid] for w, eid in nbrs if w == v]  # a loop counts twice
        signatures[v] = tuple(sorted(incident))
    values = set(signatures.values())
    regular = values.pop() if len(values) == 1 and g.n > 0 else None
    g._report = GirthReport(gir, total // gir, MappingProxyType(eps), MappingProxyType(signatures), regular)
    return g._report


def girth_report(g: MultiGraph) -> GirthReport:
    """Built on the first call for each graph and kept on the graph."""
    if g._report is None:
        _rooted_pass(g, False)
    return g._report


def epsilon(g: MultiGraph, eid: int) -> int:
    """Number of girth cycles containing the edge (cycles as edge sets)."""
    return girth_report(g).epsilon[g.edge(eid).id]


def _rooted_pass(g: MultiGraph, cycles: bool) -> list[list[int]]:
    """One BFS of radius d = ⌊g/2⌋ per root r (see the module docstring):
    over all vertices to count ε and keep the report, or, if g keeps one,
    over the vertices above r. With `cycles` it returns each girth cycle
    once, as the keys 2·edge + end (those of ArcTable.position) of its arcs
    in walk order from its least vertex r, building no arc: r..x y..r for an
    edge xy, x ≤ y, joining two depth-d vertices (odd girth, a loop at
    d = 0), r..p w q..r for two parents p, q of a depth-d vertex w (even)."""
    report = g._report
    gir = _require_finite(g) if report is None else report.girth
    if report is None and gir <= 2:  # a loop is its own cycle; a parallel pair is one
        mult = Counter(e.ends for e in g.edges)
        report = _keep_report(g, gir, {e.id: int(e.is_loop) if gir == 1 else mult[e.ends] - 1 for e in g.edges})
    count = report is None
    walks: list[list[int]] = []
    if not (count or cycles):
        return walks
    d, even, adj = gir // 2, gir % 2 == 0, g._adj
    eps = dict.fromkeys(g._by_id, 0) if count else {}
    depth, parent, up, branch = marks = _marks(g.n)
    ok = [True] * g.n if cycles else []  # whether a vertex's tree path stays above the root r

    def walk(x: int, across: list[tuple[int, int, int]], y: int) -> list[int]:
        """Up the tree from r to x, the steps `across` to y, down to r."""
        rise, fall = [], []
        while x != r:
            rise.append((parent[x], up[x], x))
            x = parent[x]
        while y != r:
            fall.append((y, up[y], parent[y]))
            y = parent[y]
        # an edge's arc from its greater end has end 1; a loop's arc has end 0
        return [2 * eid + (t > w) for t, eid, w in [*reversed(rise), *across, *fall]]

    for r, nbrs in enumerate(adj):
        far = r * (d + 1) + d  # depth i from r is stamped r·(d + 1) + i
        order, cross = _bfs(adj, r, gir, marks, far - d, 0 if count else r)
        if count and cycles:  # the BFS ran over all vertices: mark the paths above r
            for v in order:
                ok[v] = v == r or v > r and ok[parent[v]]
        counts: dict[int, int] = {}  # by branch
        parents: dict[int, set[int]] = {}  # the branches of depth-d vertices' parents
        met: dict[int, list[tuple[int, int]]] = {}  # depth-d vertices' parents above r, as met
        closing = []  # the depth-d vertices w > r with two such parents, as the second is met
        for v, w, eid in cross:
            dv, dw, b = depth[v], depth[w], branch[v]
            if dv == dw == far:  # across layer d, seen from both ends
                if cycles and w >= v and ok[v] and ok[w]:
                    walks.append(walk(v, [(v, eid, w)], w))
                if count and b != branch[w]:
                    counts[b] = counts.get(b, 0) + 1
                    continue
            elif dw == far == dv + 1:  # another parent of w
                if cycles and ok[v] and w > r:
                    ps = met.setdefault(w, [(parent[w], up[w])] if ok[parent[w]] else [])
                    ps.append((v, eid))
                    if len(ps) == 2:
                        closing.append((w, ps))
                if count and even and b not in (bs := parents.setdefault(w, {branch[w]})):
                    bs.add(b)
                    continue
            if count:
                raise GirthInvariantViolation(
                    f"edge {eid} closes a cycle shorter than the girth {gir} near vertex {r}"
                )
        for w, ps in closing:
            walks += [walk(p, [(p, e, w), (w, f, q)], q) for (p, e), (q, f) in combinations(ps, 2)]
        if not count:
            continue
        for bs in parents.values():
            for b in bs:
                counts[b] = counts.get(b, 0) + len(bs) - 1
        for w, eid in nbrs:
            c = counts.get(eid, 0)
            if w > r:
                eps[eid] = c
            elif eps[eid] != c:
                raise GirthInvariantViolation(
                    f"edge {eid} lies on {eps[eid]} girth cycles counted from vertex {w}"
                    f" but on {c} counted from vertex {r}"
                )
    del marks, depth, parent, up, branch, ok  # freed before the report is built
    if count:
        report = _keep_report(g, gir, eps)
    if cycles:
        listed = Counter(key >> 1 for keys in walks for key in keys)
        bad = sorted(eid for eid, c in report.epsilon.items() if listed[eid] != c)
        if bad:
            raise GirthInvariantViolation(f"ε is not the girth-cycle count of edges {bad}")
    return walks


def girth_cycles(g: MultiGraph) -> list[frozenset[int]]:
    """All girth cycles, each as its set of edge ids, listed against ε."""
    return sorted((frozenset(key >> 1 for key in walk) for walk in _rooted_pass(g, True)), key=sorted)


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

    # (2) the two off-diagonal shells are independent sets
    bad2 = []
    for i in range(2, d + 1):
        for cell in (part.cell(i - 1, i), part.cell(i, i - 1)):
            for x in cell:
                hits = adj(x) & cell
                if hits:
                    bad2.append((i, x, sorted(hits)))
    found[2] = (not bad2, bad2 or None)

    # (3) one neighbour back; k-1 neighbours forward (regular only)
    bad3 = []
    for i in range(2, d + 1):
        for cell, back, fwd in (
            (part.cell(i - 1, i), part.cell(i - 2, i - 1), part.cell(i, i + 1)),
            (part.cell(i, i - 1), part.cell(i - 1, i - 2), part.cell(i + 1, i)),
        ):
            for x in cell:
                nb = adj(x)
                if len(nb & back) != 1:
                    bad3.append((i, x, "back", len(nb & back)))
                if k is not None and i <= d - 1 and len(nb & fwd) != k - 1:
                    bad3.append((i, x, "forward", len(nb & fwd)))
    found[3] = (not bad3, bad3 or None)

    # (4) shell sizes (k-1)^(i-1), regular graphs
    if k is not None:
        bad4 = []
        for i in range(1, d + 1):
            want = (k - 1) ** (i - 1)
            for cell_name, cell in (("upper", part.cell(i - 1, i)), ("lower", part.cell(i, i - 1))):
                if len(cell) != want:
                    bad4.append((i, cell_name, len(cell), want))
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
