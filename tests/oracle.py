"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against different algorithms
than the production code: girth by edge-deletion distances, cycle counts
by exhaustive DFS enumeration, isomorphism by comparing edge multisets,
and a second graph6 reader and graph6 and sparse6 writers working on a
whole bit string. `contract_cycles` is not independent: it reads the
package's own contraction as arcs, which the truncation round trips need.
"""

from __future__ import annotations

from collections import Counter, deque

from girthlab.multigraph import Arc, MultiGraph
from girthlab.schemes import _contraction


def _adj(g: MultiGraph) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        if e.is_loop:
            continue
        u, v = e.ends
        adj[u].append((v, e.id))
        adj[v].append((u, e.id))
    return adj


def listed_arcs(g: MultiGraph, walks: list[list[int]]) -> list[list[Arc]]:
    """The girth listing's walks as arcs: each key 2·edge + end is read as
    the arc at that key in g's arc table."""
    arcs, _, _, position = g._arc_table()
    return [[arcs[position[key]] for key in keys] for keys in walks]


def contract_cycles(g: MultiGraph, matching: set[int]) -> tuple[MultiGraph, list[Arc]]:
    """Contract each cycle that g leaves without the perfect matching M.

    Λ has one vertex per component of g - M, numbered by least vertex, and
    the edges of M under their ids in g. Vertex v of g becomes the end of
    its M-edge at its own component, read from Λ's arc table: arc_of[v]."""
    lam, _, at = _contraction(g, matching)
    arcs = lam._arc_table().arcs
    return lam, [arcs[p] for p in at]


def _maps_onto(g: MultiGraph, h: MultiGraph, mapping: list[int]) -> bool:
    """Whether v -> mapping[v] is an isomorphism from g onto h: a bijection
    that sends the edges of g, loops and multiplicities included, onto
    the edges of h. One pass over the edges of each graph."""
    if g.n != h.n or g.edge_count != h.edge_count or sorted(mapping) != list(range(h.n)):
        return False
    image = Counter(tuple(sorted(mapping[v] for v in e.ends)) for e in g.edges)
    return image == Counter(e.ends for e in h.edges)


def naive_girth(g: MultiGraph) -> int | None:
    """Shortest cycle length via dist(u, v) in G - e, per edge."""
    if any(e.is_loop for e in g.edges):
        return 1
    seen = set()
    for e in g.edges:
        if e.ends in seen:
            return 2
        seen.add(e.ends)
    adj = _adj(g)
    best = None
    for e in g.edges:
        u, v = e.ends
        dist = {u: 0}
        q = deque([u])
        while q:
            x = q.popleft()
            if x == v:
                break
            for y, eid in adj[x]:
                if eid != e.id and y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if v in dist:
            cand = dist[v] + 1
            if best is None or cand < best:
                best = cand
    return best


def naive_girth_cycles(g: MultiGraph) -> set[frozenset[int]]:
    """Every girth cycle as an edge-id set, by exhaustive DFS from each
    minimal vertex."""
    gir = naive_girth(g)
    if gir is None:
        return set()
    if gir == 1:
        return {frozenset([e.id]) for e in g.edges if e.is_loop}
    if gir == 2:
        out = set()
        for e in g.edges:
            for f in g.edges:
                if f.id < e.id and f.ends == e.ends:
                    out.add(frozenset([e.id, f.id]))
        return out
    adj = _adj(g)
    # distance-to-start pruning
    cycles: set[frozenset[int]] = set()
    for s in range(g.n):
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y, _ in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)

        path_edges: list[int] = []

        def dfs(x: int, seen: set[int]) -> None:
            depth = len(path_edges)
            for y, eid in adj[x]:
                if y == s and depth == gir - 1:
                    cycles.add(frozenset(path_edges + [eid]))
                    continue
                if y <= s or y in seen or depth + 1 + dist.get(y, gir) > gir:
                    continue
                seen.add(y)
                path_edges.append(eid)
                dfs(y, seen)
                path_edges.pop()
                seen.remove(y)

        dfs(s, {s})
    return {c for c in cycles if len(c) == gir}


def naive_epsilon(g: MultiGraph) -> dict[int, int]:
    counts = {e.id: 0 for e in g.edges}
    for cyc in naive_girth_cycles(g):
        for eid in cyc:
            counts[eid] += 1
    return counts


def naive_distances(g: MultiGraph, src: int) -> list[int | None]:
    """Distances from src by relaxing every edge until nothing changes."""
    dist: list[int | None] = [None] * g.n
    dist[src] = 0
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.is_loop:
                continue
            for a, b in (e.ends, e.ends[::-1]):
                if dist[a] is not None and (dist[b] is None or dist[a] + 1 < dist[b]):
                    dist[b] = dist[a] + 1
                    changed = True
    return dist


def naive_partition_cells(
    g: MultiGraph, u: int, anchor: int, bound: int
) -> dict[tuple[int, int], frozenset[int]]:
    """Cells {x : d(u, x) = i, d(anchor, x) = j} for i, j <= bound."""
    du, da = naive_distances(g, u), naive_distances(g, anchor)
    cells: dict[tuple[int, int], set[int]] = {}
    for x in range(g.n):
        i, j = du[x], da[x]
        if i is not None and j is not None and i <= bound and j <= bound:
            cells.setdefault((i, j), set()).add(x)
    return {ij: frozenset(s) for ij, s in cells.items()}


def naive_partition_facts(
    g: MultiGraph, u: int, v: int, eps: int, gir: int | None = None
) -> dict[int, bool]:
    """Whether each of the paper's six distance-partition facts that applies
    holds for the edge uv, given ε(uv) = eps, read literally off the cells
    D^i_j = {x : d(u, x) = i, d(v, x) = j} for i, j <= d + 1, d = ⌊g/2⌋.

    (1) D^i_i is empty for 0 < i < d. For 0 < i <= d each of D^(i-1)_i and
    D^i_(i-1) is (2) an independent set from i = 2 on, where (3) each of
    its vertices has one neighbour one step nearer u and v and, for i < d,
    k - 1 one step further, and (4) it has (k-1)^(i-1) vertices. The
    facts with k apply to k-regular graphs only. At even girth >= 4, (5)
    ε(uv) edges join D^(d-1)_d to D^d_(d-1); at odd girth, (6) D^d_d has
    ε(uv) vertices, each with one neighbour in either of those cells. At
    girth 2 neither applies: every parallel u-v edge joins {u} to {v}.
    The girth g is naive_girth's unless given."""
    gir = gir or naive_girth(g)
    d = gir // 2
    cells = naive_partition_cells(g, u, v, d + 1)
    k, adj = g.is_regular(), _adj(g)

    def cell(i: int, j: int) -> frozenset[int]:
        return cells.get((i, j), frozenset())

    def nbrs(x: int) -> list[int]:
        """x's neighbours, once per edge, loops left out."""
        return [w for w, _ in adj[x]]

    facts = {1: all(not cell(i, i) for i in range(1, d)), 2: True, 3: True}
    if k is not None:
        facts[4] = True
    for i in range(1, d + 1):
        for a, b in ((i - 1, i), (i, i - 1)):
            if k is not None and len(cell(a, b)) != (k - 1) ** (i - 1):
                facts[4] = False
            for x in cell(a, b) if i >= 2 else ():
                near = set(nbrs(x))
                facts[2] &= not (near & cell(a, b))
                facts[3] &= len(near & cell(a - 1, b - 1)) == 1
                if k is not None and i < d:
                    facts[3] &= len(near & cell(a + 1, b + 1)) == k - 1
    upper, lower = cell(d - 1, d), cell(d, d - 1)
    if gir % 2 == 0 and gir >= 4:
        facts[5] = sum(y in lower for x in upper for y in nbrs(x)) == eps
    elif gir % 2:
        facts[6] = len(cell(d, d)) == eps and all(
            len(set(nbrs(x)) & upper) == len(set(nbrs(x)) & lower) == 1 for x in cell(d, d)
        )
    return facts


def naive_signatures(g: MultiGraph) -> dict[int, tuple[int, ...]]:
    eps = naive_epsilon(g)
    out: dict[int, tuple[int, ...]] = {}
    for v in range(g.n):
        entries: list[int] = []
        for e in g.edges:
            if e.is_loop and e.ends[0] == v:
                entries += [eps[e.id], eps[e.id]]
            elif not e.is_loop and v in e.ends:
                entries.append(eps[e.id])
        out[v] = tuple(sorted(entries))
    return out


# --- a second, independently written graph6 reader ---

def graph6_bits_reader(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a (short-form) graph6 line by expanding the whole body into
    one bit string and slicing the column-major upper triangle."""
    data = [ord(ch) - 63 for ch in line.strip()]
    assert all(0 <= x <= 63 for x in data), "character out of range"
    if data[0] == 63:  # '~' long forms
        if data[1] == 63:
            n = int("".join(f"{x:06b}" for x in data[2:8]), 2)
            body = data[8:]
        else:
            n = int("".join(f"{x:06b}" for x in data[1:4]), 2)
            body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    bits = "".join(f"{x:06b}" for x in body)
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos] == "1":
                edges.append((i, j))
            pos += 1
    return n, edges


# --- graph6 and sparse6 writers, by the definition of the formats ---

def _chars(bits: str) -> str:
    """Six bits per character, value + 63; len(bits) is a multiple of 6."""
    return "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))


def _n_prefix(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + _chars(f"{n:018b}")
    return "~~" + _chars(f"{n:036b}")


def naive_graph6_line(g: MultiGraph) -> str:
    """The upper triangle of the adjacency matrix, column by column, as
    one bit string, zero-padded to a multiple of 6."""
    pairs = {e.ends for e in g.edges}
    bits = "".join(
        "1" if (i, j) in pairs else "0" for j in range(1, g.n) for i in range(j)
    )
    bits += "0" * (-len(bits) % 6)
    return _n_prefix(g.n) + _chars(bits)


def naive_sparse6_line(g: MultiGraph) -> str:
    """Edges sorted by (larger end, smaller end) as (b, x) bit fields, with
    the format's padding rule: 1-bits, except that when n = 2^k, vertex
    n-2 has an edge, n-1 has none and k + 1 or more bits are missing, a
    0-bit comes first so the padding cannot read as a loop at n-1."""
    n = g.n
    k = 1
    while (1 << k) < n:
        k += 1
    ends = sorted((e.ends[-1], e.ends[0]) for e in g.edges)  # (larger, smaller)
    bits = ""
    v = 0
    for w, u in ends:
        if w == v:
            bits += "0" + f"{u:0{k}b}"
        elif w == v + 1:
            v = w
            bits += "1" + f"{u:0{k}b}"
        else:
            v = w
            bits += "1" + f"{w:0{k}b}" + "0" + f"{u:0{k}b}"
    pad = -len(bits) % 6
    touched = {x for e in g.edges for x in e.ends}
    if n == 1 << k and (n - 2) in touched and (n - 1) not in touched and pad >= k + 1:
        bits += "0" + "1" * (pad - 1)
    else:
        bits += "1" * pad
    return ":" + _n_prefix(n) + _chars(bits)
