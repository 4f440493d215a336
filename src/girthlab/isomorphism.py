"""Desk-scale multigraph isomorphism: refinement plus backtracking.

Correctness over speed; loops and edge multiplicities are part of the
matching contract. Guarded by a vertex cap since the only callers are
round-trip and classification checks on small witnesses.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Optional

from .errors import SizeCapExceeded
from .multigraph import MultiGraph

DEFAULT_ISO_CAP = 512


def _pair_mults(g: MultiGraph) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Multiplicity per unordered vertex pair, and loop count per vertex."""
    mult: dict[tuple[int, int], int] = {}
    loops = [0] * g.n
    for e in g.edges:
        if e.is_loop:
            loops[e.ends[0]] += 1
        else:
            mult[e.ends] = mult.get(e.ends, 0) + 1
    return mult, loops


def _neighbor_mults(g: MultiGraph) -> list[dict[int, int]]:
    mult, _ = _pair_mults(g)
    nbr: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for (u, v), m in mult.items():
        nbr[u][v] = m
        nbr[v][u] = m
    return nbr


def _distance_profile(g: MultiGraph, v: int) -> tuple[int, ...]:
    dist = [-1] * g.n
    dist[v] = 0
    q = deque([v])
    counts: Counter[int] = Counter()
    while q:
        x = q.popleft()
        for y, _ in g.neighbors(x):
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                counts[dist[y]] += 1
                q.append(y)
    return tuple(counts[i] for i in range(1, max(counts) + 1)) if counts else ()


def _joint_colors(
    g: MultiGraph,
    h: MultiGraph,
    nbr_g: list[dict[int, int]],
    nbr_h: list[dict[int, int]],
    anchor: tuple[int, int] | None,
) -> tuple[list[int], list[int]]:
    """Refine both graphs against one shared color table so that equal
    color ids mean equal refinement classes across the two graphs."""
    _, loops_g = _pair_mults(g)
    _, loops_h = _pair_mults(h)

    def raw(graph, nbr, loops, anchored):
        out = []
        for v in range(graph.n):
            out.append(
                (
                    v == anchored,
                    graph.degree(v),
                    loops[v],
                    tuple(sorted(nbr[v].values())),
                    _distance_profile(graph, v),
                )
            )
        return out

    au = anchor[0] if anchor else -1
    av = anchor[1] if anchor else -1
    raw_g, raw_h = raw(g, nbr_g, loops_g, au), raw(h, nbr_h, loops_h, av)
    table = {s: i for i, s in enumerate(sorted(set(raw_g) | set(raw_h)))}
    col_g = [table[s] for s in raw_g]
    col_h = [table[s] for s in raw_h]

    while True:
        def sig(graph, nbr, loops, colors):
            return [
                (colors[v], loops[v], tuple(sorted((colors[w], m) for w, m in nbr[v].items())))
                for v in range(graph.n)
            ]

        sig_g = sig(g, nbr_g, loops_g, col_g)
        sig_h = sig(h, nbr_h, loops_h, col_h)
        table = {s: i for i, s in enumerate(sorted(set(sig_g) | set(sig_h)))}
        new_g = [table[s] for s in sig_g]
        new_h = [table[s] for s in sig_h]
        if new_g == col_g and new_h == col_h:
            return col_g, col_h
        col_g, col_h = new_g, new_h


def find_isomorphism(
    g: MultiGraph,
    h: MultiGraph,
    cap: int = DEFAULT_ISO_CAP,
    anchor: tuple[int, int] | None = None,
) -> Optional[list[int]]:
    """A vertex bijection m with m(g) = h, or None.

    `anchor = (u, v)` restricts the search to bijections sending u to v.
    """
    if g.n > cap or h.n > cap:
        raise SizeCapExceeded(f"isomorphism capped at {cap} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    nbr_g, nbr_h = _neighbor_mults(g), _neighbor_mults(h)
    col_g, col_h = _joint_colors(g, h, nbr_g, nbr_h, anchor)
    if Counter(col_g) != Counter(col_h):
        return None

    by_color: dict[int, list[int]] = {}
    for x in range(h.n):
        by_color.setdefault(col_h[x], []).append(x)
    candidates = {v: by_color[col_g[v]] for v in range(g.n)}

    # assign in BFS-ish order so every new vertex touches the mapped part
    order: list[int] = []
    seen = [False] * g.n
    starts = sorted(range(g.n), key=lambda v: (len(candidates[v]), v))
    for s in starts:
        if seen[s]:
            continue
        seen[s] = True
        q = deque([s])
        while q:
            x = q.popleft()
            order.append(x)
            for y in sorted(nbr_g[x], key=lambda y: (len(candidates[y]), y)):
                if not seen[y]:
                    seen[y] = True
                    q.append(y)

    mapping = [-1] * g.n
    pre = [-1] * h.n

    def fits(v: int, x: int) -> bool:
        for w, m in nbr_g[v].items():
            mw = mapping[w]
            if mw >= 0 and nbr_h[x].get(mw) != m:
                return False
        # the converse: mapped h-neighbors of x must pull back to
        # g-neighbors of v with the same multiplicity
        for y, m in nbr_h[x].items():
            w = pre[y]
            if w >= 0 and nbr_g[v].get(w) != m:
                return False
        return True

    # depth-first over `order` with an explicit stack, so that the depth
    # is not bounded by the interpreter's recursion limit; tried[i] is
    # how many candidates of order[i] the search has tried
    tried = [0] * len(order)
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        if mapping[v] >= 0:  # backtracked to v: undo its assignment
            pre[mapping[v]] = -1
            mapping[v] = -1
        cands = candidates[v]
        for j in range(tried[i], len(cands)):
            x = cands[j]
            if pre[x] < 0 and fits(v, x):
                mapping[v] = x
                pre[x] = v
                tried[i] = j + 1
                i += 1
                break
        else:
            tried[i] = 0
            i -= 1
    return mapping if i == len(order) else None


def are_isomorphic(
    g: MultiGraph, h: MultiGraph, cap: int = DEFAULT_ISO_CAP
) -> tuple[bool, Optional[list[int]]]:
    """Yes/no plus a verifying vertex bijection when yes."""
    mapping = find_isomorphism(g, h, cap=cap)
    return (mapping is not None), mapping


def has_automorphism_mapping(g: MultiGraph, u: int, v: int, cap: int = DEFAULT_ISO_CAP) -> bool:
    return find_isomorphism(g, g, cap=cap, anchor=(u, v)) is not None


def is_vertex_transitive(g: MultiGraph, cap: int = DEFAULT_ISO_CAP) -> bool:
    """Brute-force orbit check: some automorphism maps 0 to every vertex."""
    return all(has_automorphism_mapping(g, 0, v, cap=cap) for v in range(1, g.n))
