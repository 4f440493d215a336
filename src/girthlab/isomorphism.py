"""Desk-scale multigraph isomorphism: individualise and refine.

Correctness over speed; loops and edge multiplicities are part of the
matching contract. Guarded by a vertex cap: the laws search only against
the fixed named models (at most 126 vertices), and the constructive
theorems are checked by the bijection their decompositions build.

The two graphs are refined as one disjoint union, g on vertices 0..n-1
and h on n..2n-1, so that a cell is a colour class of both. Every split
depends on cell ids and edge counts only, never on vertex names, so an
isomorphism carries each cell of g onto the same cell of h: a cell with
more vertices of one graph than of the other ends the branch. The search
individualises one vertex of g against each candidate of h in a cell and
refines again, until every cell holds one vertex of each graph; an
equitable partition of that shape is an isomorphism.
"""

from __future__ import annotations

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


def _refine(
    adj: list[list[tuple[int, int]]],
    n: int,
    color: list[int],
    cells: list[set[int]],
    queue: list[int],
) -> bool:
    """Split cells until every vertex of a cell has as many edges into each
    cell as the others (an equitable partition), with the queued cells as
    the first splitters. A split cell keeps its id for its part with the
    least count into the splitter (zero when the splitter misses some of
    it), and its other parts take new ids by increasing count; a split
    cell not queued queues all its parts but a largest one. False as soon
    as a cell holds more vertices of g (ids below n) than of h."""
    queued = set(queue)
    while queue:
        s = queue.pop()
        queued.discard(s)
        count: dict[int, int] = {}
        for v in cells[s]:
            for w, m in adj[v]:
                count[w] = count.get(w, 0) + m
        hit: dict[int, list[int]] = {}
        for w in count:
            hit.setdefault(color[w], []).append(w)
        for c in sorted(hit):
            cell = cells[c]
            by_count: dict[int, list[int]] = {}
            for w in hit[c]:
                by_count.setdefault(count[w], []).append(w)
            keys = sorted(by_count)
            if len(hit[c]) == len(cell):
                if len(keys) == 1:
                    continue
                cells[c] = cell = set(by_count[keys.pop(0)])
            else:
                cell.difference_update(hit[c])
            parts = [c]
            for k in keys:
                part = by_count[k]
                if 2 * sum(w < n for w in part) != len(part):
                    return False
                for w in part:
                    color[w] = len(cells)
                parts.append(len(cells))
                cells.append(set(part))
            if c not in queued:
                parts.remove(max(parts, key=lambda p: len(cells[p])))
            for p in parts:
                if p not in queued:
                    queued.add(p)
                    queue.append(p)
    return True


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
    n = g.n
    au, av = anchor if anchor else (-1, -1)
    adj: list[list[tuple[int, int]]] = []
    keys = []
    for graph, offset, anchored in ((g, 0, au), (h, n, av)):
        nbr, loops = _neighbor_mults(graph)
        for v in range(n):
            adj.append([(offset + w, m) for w, m in nbr[v].items()])
            keys.append((v == anchored, graph.degree(v), loops[v], tuple(sorted(nbr[v].values()))))
    table = {k: i for i, k in enumerate(sorted(set(keys)))}
    color = [table[k] for k in keys]
    cells: list[set[int]] = [set() for _ in table]
    for x, c in enumerate(color):
        cells[c].add(x)
    if any(2 * sum(x < n for x in cell) != len(cell) for cell in cells):
        return None
    if not _refine(adj, n, color, cells, list(range(len(cells)))):
        return None

    # depth-first with an explicit stack of (partition, g vertex, the h
    # candidates left for it), so that the depth is not bounded by the
    # interpreter's recursion limit
    stack: list[tuple[list[int], list[set[int]], int, list[int]]] = []
    while True:
        split = [c for c in cells if len(c) > 2]
        if not split:
            mapping = [-1] * n
            for cell in cells:
                v, x = sorted(cell)
                mapping[v] = x - n
            return mapping
        target = min(split, key=len)
        v = min(target)
        stack.append((color, cells, v, sorted((x for x in target if x >= n), reverse=True)))
        while stack:
            color, cells, v, cands = stack[-1]
            if not cands:
                stack.pop()
                continue
            x = cands.pop()
            color, cells = color[:], [set(c) for c in cells]
            c = color[v]
            cells[c] -= {v, x}
            color[v] = color[x] = len(cells)
            cells.append({v, x})
            if _refine(adj, n, color, cells, [len(cells) - 1]):
                break
        else:
            return None


def are_isomorphic(
    g: MultiGraph, h: MultiGraph, cap: int = DEFAULT_ISO_CAP
) -> tuple[bool, Optional[list[int]]]:
    """Yes/no plus a verifying vertex bijection when yes."""
    mapping = find_isomorphism(g, h, cap=cap)
    return (mapping is not None), mapping


def is_vertex_transitive(g: MultiGraph, cap: int = DEFAULT_ISO_CAP) -> bool:
    """Brute-force orbit check: some automorphism maps 0 to every vertex."""
    return all(find_isomorphism(g, g, cap=cap, anchor=(0, v)) is not None for v in range(1, g.n))
