"""Desk-scale multigraph isomorphism: colour refinement plus backtracking.

Correctness over speed; loops and edge multiplicities are part of the
matching contract. Guarded by a vertex cap: the laws search only against
the fixed named models (at most 126 vertices), and the constructive
theorems are checked by the bijection their decompositions build.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Optional

from .errors import SizeCapExceeded
from .multigraph import MultiGraph

DEFAULT_ISO_CAP = 512


def _neighbor_mults(g: MultiGraph) -> tuple[list[dict[int, int]], list[int]]:
    """Edge multiplicity to each neighbour, and loop count, per vertex."""
    nbr: list[dict[int, int]] = [dict() for _ in range(g.n)]
    loops = [0] * g.n
    for e in g.edges:
        if e.is_loop:
            loops[e.ends[0]] += 1
        else:
            u, v = e.ends
            nbr[u][v] = nbr[v][u] = nbr[u].get(v, 0) + 1
    return nbr, loops


def _joint_colors(
    g: MultiGraph,
    h: MultiGraph,
    nbr_g: list[dict[int, int]],
    loops_g: list[int],
    nbr_h: list[dict[int, int]],
    loops_h: list[int],
    anchor: tuple[int, int] | None,
) -> tuple[list[int], list[int]]:
    """Refine both graphs against one shared color table so that equal
    color ids mean equal refinement classes across the two graphs."""

    def raw(graph, nbr, loops, anchored):
        return [
            (v == anchored, graph.degree(v), loops[v], tuple(sorted(nbr[v].values())))
            for v in range(graph.n)
        ]

    def sig(nbr, loops, colors):
        return [
            (colors[v], loops[v], tuple(sorted((colors[w], m) for w, m in nbr[v].items())))
            for v in range(len(colors))
        ]

    au = anchor[0] if anchor else -1
    av = anchor[1] if anchor else -1
    sig_g, sig_h = raw(g, nbr_g, loops_g, au), raw(h, nbr_h, loops_h, av)
    col_g: list[int] = []
    col_h: list[int] = []
    while True:
        table = {s: i for i, s in enumerate(sorted(set(sig_g) | set(sig_h)))}
        new_g = [table[s] for s in sig_g]
        new_h = [table[s] for s in sig_h]
        if new_g == col_g and new_h == col_h:
            return col_g, col_h
        col_g, col_h = new_g, new_h
        sig_g, sig_h = sig(nbr_g, loops_g, col_g), sig(nbr_h, loops_h, col_h)


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
    (nbr_g, loops_g), (nbr_h, loops_h) = _neighbor_mults(g), _neighbor_mults(h)
    col_g, col_h = _joint_colors(g, h, nbr_g, loops_g, nbr_h, loops_h, anchor)
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
