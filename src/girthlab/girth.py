"""Girth, per-edge girth-cycle counts, signatures and distance partitions.

Everything local rests on one bounded BFS, `_ball`: the distances of the
vertices within distance d of a source, read straight off the graph's
adjacency. For girth 2d+1 the girth cycles through an edge uv correspond
one-to-one to the far vertices at distance d from both ends, for girth 2d
to the far edges joining the two depth-d shells; below the girth radius
shortest paths are unique, so each cycle is recovered by walking from its
far witness down to u and to v. Loops (girth 1) and parallel pairs
(girth 2) are the d = 0 and d = 1 cases of the same rule. A graph costs
O(m · |ball|), where the ball has radius ⌊g/2⌋, independent of n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .errors import GirthInvariantViolation, InfiniteGirth, NotAnEdge, NotCubicVertex
from .multigraph import Arc, Edge, MultiGraph

Ball = dict[int, int]
Witness = tuple[int, int | None, int]  # (x, far edge or None, y)


def _ball(g: MultiGraph, src: int, d: int) -> Ball:
    """The vertices within distance d of src, each mapped to its distance.
    Loops never shorten a distance."""
    ball: Ball = {src: 0}
    frontier = [src]
    neighbors = g.neighbors
    for dist in range(1, d + 1):
        nxt = []
        for x in frontier:
            for y, _ in neighbors(x):
                if y not in ball:
                    ball[y] = dist
                    nxt.append(y)
        frontier = nxt
    return ball


# --- girth ---

def girth(g: MultiGraph) -> int | None:
    """Length of a shortest cycle; None for forests.

    Loops give girth 1 and a parallel pair girth 2; otherwise the girth
    of the simple graph via rooted BFS over its 2-core, each cut off at
    half the best cycle found so far. Only core vertices of degree >= 3
    are roots: a cycle through none of them is a whole core component,
    a bare cycle as long as its vertex count.
    """
    if g.has_loops:
        return 1
    if g.has_parallel_edges:
        return 2
    neighbors = g.neighbors
    roots: Iterable[int] = range(g.n)
    best: int | None = None
    if min(g.degrees, default=3) < 3:
        # peel vertices of degree <= 1: no cycle passes through them
        deg = list(g.degrees)
        gone = [d <= 1 for d in deg]
        stack = [v for v, out in enumerate(gone) if out]
        while stack:
            for w, _ in neighbors(stack.pop()):
                if not gone[w]:
                    deg[w] -= 1
                    if deg[w] <= 1:
                        gone[w] = True
                        stack.append(w)
        adj = [tuple(p for p in neighbors(v) if not gone[p[0]]) for v in range(g.n)]
        neighbors = adj.__getitem__
        roots = [v for v in range(g.n) if not gone[v] and deg[v] >= 3]
        seen = gone[:]
        for s in range(g.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            for v in comp:  # the loop also visits what it appends
                for w, _ in neighbors(v):
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            if all(deg[v] == 2 for v in comp) and (best is None or len(comp) < best):
                best = len(comp)
    # reset after each root, so that a BFS costs only what it visits
    dist = [-1] * g.n
    up: list[int | None] = [None] * g.n  # the tree edge to the BFS parent
    for root in roots:
        dist[root], up[root] = 0, None
        queue = [root]
        for v in queue:  # the loop also visits what it appends
            dv = dist[v]
            if best is not None and 2 * dv + 1 >= best:
                break
            for w, eid in neighbors(v):
                if eid == up[v]:
                    continue
                if dist[w] < 0:
                    dist[w], up[w] = dv + 1, eid
                    queue.append(w)
                else:
                    # non-tree edge: closed walk through the root
                    cand = dv + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
        for v in queue:
            dist[v] = -1
        if best == 3:
            break
    return best


def _require_finite(g: MultiGraph) -> int:
    gir = girth(g)
    if gir is None:
        raise InfiniteGirth("graph is a forest")
    return gir


# --- per-edge counts ---

def _far(g: MultiGraph, gir: int, e: Edge) -> tuple[list[Witness], Ball, Ball]:
    """The far witnesses of the edge e = uv, with the balls of radius
    d = gir // 2 around u and v.

    Odd girth: each vertex x at distance d from both ends, as (x, None, x).
    Even girth: each edge f = xy other than e with x in D^{d-1}_d and y in
    D^d_{d-1}, as (x, f, y). A loop (girth 1) is its own far vertex; at
    girth 2 the far edges are the parallels of e.
    """
    u, v = e.ends[0], e.ends[-1]
    d = gir // 2
    bu, bv = _ball(g, u, d), _ball(g, v, d)
    far: list[Witness] = []
    if gir % 2:
        for x, dx in bu.items():
            if dx == d and bv.get(x) == d:
                far.append((x, None, x))
    else:
        for x, dx in bu.items():
            if dx == d - 1 and bv.get(x) == d:
                for y, fid in g.neighbors(x):
                    if fid != e.id and bu.get(y) == d and bv.get(y) == d - 1:
                        far.append((x, fid, y))
    return far, bu, bv


def epsilon(g: MultiGraph, eid: int) -> int:
    """Number of girth cycles containing the edge (cycles as edge sets)."""
    return len(_far(g, _require_finite(g), g.edge(eid))[0])


# --- reports ---

@dataclass(frozen=True, slots=True)
class GirthReport:
    girth: int
    cycle_count: int
    epsilon: dict[int, int]
    signatures: dict[int, tuple[int, ...]]
    regular: tuple[int, ...] | None

    def to_json(self) -> dict[str, Any]:
        return {
            "girth": self.girth,
            "cycles": self.cycle_count,
            "epsilon": {str(k): v for k, v in sorted(self.epsilon.items())},
            "signatures": {str(k): list(v) for k, v in sorted(self.signatures.items())},
            "regular": list(self.regular) if self.regular is not None else None,
        }


def girth_report(g: MultiGraph) -> GirthReport:
    gir = _require_finite(g)
    eps = {e.id: len(_far(g, gir, e)[0]) for e in g.edges}
    total = sum(eps.values())
    if total % gir:
        raise GirthInvariantViolation(
            f"cycle-count conservation failed: ε sums to {total}, not a multiple of {gir}"
        )
    signatures: dict[int, tuple[int, ...]] = {}
    for v in range(g.n):
        incident = [eps[eid] for _, eid in g.neighbors(v)]
        incident += [eps[eid] for w, eid in g.neighbors(v) if w == v]  # a loop counts twice
        signatures[v] = tuple(sorted(incident))
    values = set(signatures.values())
    regular = values.pop() if len(values) == 1 and g.n > 0 else None
    return GirthReport(gir, total // gir, eps, signatures, regular)


# --- girth-cycle listing (partition-guided) ---

def _path_down(g: MultiGraph, ball: Ball, x: int) -> list[tuple[int, int, int]]:
    """The steps (vertex, edge id, next vertex) of the shortest path from x
    down to the centre of `ball`. Below the girth radius it is unique: a
    second neighbour one step nearer would close a cycle shorter than the girth."""
    path = []
    for dx in range(ball[x] - 1, -1, -1):
        step = [(w, eid) for w, eid in g.neighbors(x) if ball.get(w) == dx]
        if len(step) != 1:
            raise GirthInvariantViolation(
                f"vertex {x} has {len(step)} neighbours one step nearer the centre"
                " below the girth radius"
            )
        w, eid = step[0]
        path.append((x, eid, w))
        x = w
    return path


def _list_cycles(g: MultiGraph, gir: int, eps: dict[int, int]) -> dict[frozenset[int], list[Arc]]:
    """Each girth cycle, keyed by its edge ids, as its arcs in walk order:
    from u across e = uv, up from v to y, across the far edge f = yx at even
    girth, then down to u. An edge's far witnesses are walked only while ε
    leaves a cycle through it unlisted; a listed cycle lowers the count of
    each of its edges, and every count must end at zero."""
    left = dict(eps)
    cycles: dict[frozenset[int], list[Arc]] = {}
    for e in g.edges:
        if left[e.id] <= 0:
            continue
        far, bu, bv = _far(g, gir, e)
        for x, fid, y in far:
            up = [(w, eid, t) for t, eid, w in reversed(_path_down(g, bv, y))]
            across = [] if fid is None else [(y, fid, x)]
            walk = [(e.ends[0], e.id, e.ends[-1]), *up, *across, *_path_down(g, bu, x)]
            cyc = frozenset(eid for _, eid, _ in walk)
            if len(cyc) != gir:
                raise GirthInvariantViolation(
                    f"closed walk {sorted(cyc)} through edge {e.id} is not a girth cycle"
                )
            if cyc not in cycles:
                # an edge's arc from its greater end has end 1; a loop's arc has end 0
                cycles[cyc] = [Arc(t, eid, int(t > w)) for t, eid, w in walk]
                for eid in cyc:
                    left[eid] -= 1
                if not left[e.id]:
                    break
    bad = sorted(eid for eid, c in left.items() if c)
    if bad:
        raise GirthInvariantViolation(f"ε is not the girth-cycle count of edges {bad}")
    return cycles


def girth_cycles(g: MultiGraph) -> list[frozenset[int]]:
    """All girth cycles, each as its set of edge ids, listed against ε."""
    gir = _require_finite(g)
    eps = {e.id: len(_far(g, gir, e)[0]) for e in g.edges}
    return sorted(_list_cycles(g, gir, eps), key=sorted)


# --- direct path-count of cycles through an edge or a 2-path ---

def _count_paths(
    g: MultiGraph,
    goal_ball: Ball,
    cur: int,
    goal: int,
    remaining: int,
    visited: set[int],
    skip: int | None,
) -> int:
    """Simple paths of `remaining` edges from cur to goal that avoid the
    vertices in `visited` and the edge `skip`; `goal_ball` (distances to
    goal, radius at least `remaining`) prunes branches that cannot arrive."""
    if remaining <= 0:
        return int(remaining == 0 and cur == goal)
    dist = goal_ball.get(cur)
    if dist is None or dist > remaining:
        return 0
    total = 0
    for w, eid in g.neighbors(cur):
        if eid == skip or w in visited:
            continue
        if w == goal and remaining != 1:
            continue
        visited.add(w)
        total += _count_paths(g, goal_ball, w, goal, remaining - 1, visited, skip)
        visited.remove(w)
    return total


def epsilon_by_paths(g: MultiGraph, eid: int, gir: int | None = None) -> int:
    """ε by direct definition: simple u-v paths of length g-1 avoiding uv.
    Used as the literal side of the partition-fact checks."""
    if gir is None:
        gir = _require_finite(g)
    e = g.edge(eid)
    u, v = e.ends[0], e.ends[-1]
    return _count_paths(g, _ball(g, v, gir - 1), u, v, gir - 1, {u}, eid)


# --- distance partitions ---

@dataclass(frozen=True, slots=True)
class DistancePartition:
    """Cells D^i_j = S_i(u) ∩ S_j(anchor); anchor is v for an edge pair
    (u, v) and w for a 2-path (u, v, w)."""

    sources: tuple[int, ...]
    radius: int
    cells: dict[tuple[int, int], frozenset[int]] = field(repr=False)

    def cell(self, i: int, j: int) -> frozenset[int]:
        return self.cells.get((i, j), frozenset())


def _partition(g: MultiGraph, u: int, anchor: int, gir: int) -> DistancePartition:
    d = gir // 2
    bu, ba = _ball(g, u, d + 1), _ball(g, anchor, d + 1)
    cells: dict[tuple[int, int], set[int]] = {}
    for x, i in bu.items():
        j = ba.get(x)
        if j is not None:
            cells.setdefault((i, j), set()).add(x)
    frozen = {ij: frozenset(s) for ij, s in cells.items()}
    return DistancePartition((u, anchor), d, frozen)


def _edge_between(g: MultiGraph, u: int, v: int) -> int | None:
    """The least id of an edge joining the distinct vertices u and v."""
    if u != v and 0 <= u < g.n:
        for w, eid in g.neighbors(u):  # in edge-id order
            if w == v:
                return eid
    return None


def distance_partition(g: MultiGraph, u: int, v: int) -> DistancePartition:
    if _edge_between(g, u, v) is None:
        raise NotAnEdge(f"({u}, {v}) is not an edge")
    gir = _require_finite(g)
    return _partition(g, u, v, gir)


def distance_partition_2path(g: MultiGraph, u: int, v: int, w: int) -> DistancePartition:
    if _edge_between(g, u, v) is None or _edge_between(g, v, w) is None:
        raise NotAnEdge(f"({u}, {v}, {w}) is not a 2-path")
    gir = _require_finite(g)
    part = _partition(g, u, w, gir)
    return DistancePartition((u, v, w), part.radius, part.cells)


@dataclass(frozen=True, slots=True)
class FactResult:
    fact: int
    applicable: bool
    holds: bool | None
    witness: Any = None


def check_partition_facts(g: MultiGraph, u: int, v: int) -> list[FactResult]:
    """Evaluate the six distance-partition facts literally for the edge uv.

    Facts quantified with (k-1)-counts apply to regular graphs only; facts
    five and six are gated on the girth's parity.
    """
    eid = _edge_between(g, u, v)
    if eid is None:
        raise NotAnEdge(f"({u}, {v}) is not an edge")
    gir = _require_finite(g)
    part = _partition(g, u, v, gir)
    d = part.radius
    k = g.is_regular()
    results: list[FactResult] = []

    def adj(x: int) -> set[int]:
        return {w for w, _ in g.neighbors(x) if w != x}

    # (1) D^i_i empty below the radius
    bad = [(i, sorted(part.cell(i, i))) for i in range(1, d) if part.cell(i, i)]
    results.append(FactResult(1, True, not bad, bad or None))

    # (2) the two off-diagonal shells are independent sets
    bad2 = []
    for i in range(2, d + 1):
        for cell in (part.cell(i - 1, i), part.cell(i, i - 1)):
            for x in cell:
                hits = adj(x) & cell
                if hits:
                    bad2.append((i, x, sorted(hits)))
    results.append(FactResult(2, True, not bad2, bad2 or None))

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
    results.append(FactResult(3, True, not bad3, bad3 or None))

    # (4) shell sizes (k-1)^(i-1), regular graphs
    if k is None:
        results.append(FactResult(4, False, None))
    else:
        bad4 = []
        for i in range(1, d + 1):
            want = (k - 1) ** (i - 1)
            for cell_name, cell in (("upper", part.cell(i - 1, i)), ("lower", part.cell(i, i - 1))):
                if len(cell) != want:
                    bad4.append((i, cell_name, len(cell), want))
        results.append(FactResult(4, True, not bad4, bad4 or None))

    eps_direct = epsilon_by_paths(g, eid, gir)

    # (5) even girth: ε(uv) counts the far cross edges
    if gir % 2 == 0:
        upper, lower = part.cell(d - 1, d), part.cell(d, d - 1)
        far = sum(1 for x in upper for y, _ in g.neighbors(x) if y in lower)
        results.append(FactResult(5, True, far == eps_direct, (far, eps_direct)))
        results.append(FactResult(6, False, None))
    else:
        # (6) odd girth: matched far shell of size ε(uv)
        results.append(FactResult(5, False, None))
        dd = part.cell(d, d)
        ok = len(dd) == eps_direct
        wit: Any = (len(dd), eps_direct)
        for x in dd:
            if len(adj(x) & part.cell(d - 1, d)) != 1 or len(adj(x) & part.cell(d, d - 1)) != 1:
                ok = False
                wit = ("unmatched far vertex", x)
                break
        results.append(FactResult(6, True, ok, wit))
    return results


# --- two-path counts ---

@dataclass(frozen=True, slots=True)
class TwoPathCounts:
    """Girth-cycle counts of the three 2-paths at a cubic vertex, in the
    fixed order (e1e2, e2e3, e3e1) with e1 < e2 < e3 by edge id."""

    vertex: int
    edges: tuple[int, int, int]
    x: int
    y: int
    z: int


def two_path_counts(g: MultiGraph, v: int) -> TwoPathCounts:
    if g.degree(v) != 3 or any(w == v for w, _ in g.neighbors(v)):
        raise NotCubicVertex(f"vertex {v} is not a loop-free valence-3 vertex")
    gir = _require_finite(g)
    (e1, a1), (e2, a2), (e3, a3) = sorted((eid, w) for w, eid in g.neighbors(v))

    def through(a: int, b: int) -> int:
        # girth cycles through the 2-path a-v-b: a-b paths of g-2 edges avoiding v
        return _count_paths(g, _ball(g, b, gir - 2), a, b, gir - 2, {v, a}, None)

    return TwoPathCounts(v, (e1, e2, e3), through(a1, a2), through(a2, a3), through(a3, a1))
