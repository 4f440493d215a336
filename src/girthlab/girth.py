"""Girth, per-edge girth-cycle counts, signatures and girth cycles, all
from one layered BFS, `_bfs`. From a root, to a radius, optionally over
the vertices above the root only, it labels each vertex with its depth,
parent, tree edge and branch (the edge at the root its tree path leaves
by) and lists the non-tree edges it meets: a closed walk through the root
closes at each. A pass stamps each root's depths above a base of its own,
so no root resets the marks. Two consumers here, and `partitions` shares
it for the distance partitions:

- `_shortest_cycle`, the girth search, from the core vertices of degree
  >= 3; a core component whose vertices all have core degree 2, found by
  the graph's one component walk, is a bare cycle. It stays a pass of its
  own: `girth()` stays linear on forests and long cycles, and the count's
  checks for shorter cycles could not test a girth that they had found.
- `_rooted_pass`, one BFS of radius d = ⌊g/2⌋ per root r. A girth cycle
  through r is an edge joining two depth-d vertices of different branches
  (g = 2d+1) or two parents of one depth-d vertex (g = 2d), and adds 1 to
  both branches for ε; any other non-tree edge closes a shorter cycle. The
  counts of an edge from its two ends must agree. On request it lists each
  girth cycle once, as arc keys, from its least vertex r, where both tree
  paths stay above r; they must add up to ε. A graph keeps its report, and
  on one that does, the pass lists over the vertices above r and counts none.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .codec import Lazy, json_tree
from .errors import GirthInvariantViolation, InfiniteGirth
from .multigraph import MultiGraph

# each vertex's depth stamp, parent, tree edge and branch, indexed by vertex
Marks = tuple[Any, Any, Any, Any]


def _marks(n: int) -> Marks:
    """Marks for a pass over many roots, none of 0..n-1 stamped yet."""
    return [-1] * n, [-1] * n, [None] * n, [None] * n


def _bfs(
    adj: Sequence[Sequence[tuple[int, int]]], root: int, length: int, marks: Marks, base: int, low: int = 0
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The one layered BFS, here and in `partitions`, from root over the
    vertices >= low. It reaches depth ⌊length/2⌋ and scans the edges of
    each vertex reached below depth length/2, so every cycle through root
    of at most `length` edges closes at a non-tree edge that it meets. Each
    vertex reached gets, in `marks`, its depth stamp base + depth and, below
    the root, its parent, its tree edge and its branch, the edge at root that
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
        # the core's components; a peeled vertex is one of its own, of degree <= 1
        skip = {eid for v, out in enumerate(gone) if out for _, eid in adj[v]}
        for comp in g._components(skip):
            if all(deg[v] == 2 for v in comp) and (best is None or len(comp) < best):
                best = len(comp)
        adj = [tuple(p for p in nbrs if not gone[p[0]]) for nbrs in adj]
        roots = [v for v in range(n) if not gone[v] and deg[v] >= 3]
        above = False
    base = 0
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
