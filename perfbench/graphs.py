"""Graphs for the benchmark inputs: codecs, families and naive facts.

Standard library only and independent of girthlab, in the way
tools/gen_corpus.py is: the benchmark writes its own graph6, sparse6 and
JSON, builds families from edge lists, and knows every expected output
from its own constructions and a brute-force cycle count, so a defect in
the program cannot hide in the checker.

A simple graph is (n, edges) with edges a list of (u, v), u < v.
"""

from __future__ import annotations

import random
from collections import deque


# --- graph6 / sparse6 ---

def _n_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    return bytes([126, 126] + [((n >> s) & 63) + 63 for s in range(30, -1, -6)])


def encode_graph6(n: int, edges) -> str:
    """graph6 of a simple graph; O(n^2 / 6) bytes, O(|E|) Python steps."""
    body = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        pos = j * (j - 1) // 2 + i
        body[pos // 6] += 1 << (5 - pos % 6)
    return (_n_bytes(n) + bytes(body)).decode("ascii")


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    data = line.strip().encode("ascii")
    if data[0] != 126:
        n, body = data[0] - 63, data[1:]
    else:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (body[pos // 6] - 63) >> (5 - pos % 6) & 1:
                edges.append((i, j))
            pos += 1
    return n, edges


def sparse6_order(edges) -> list[tuple[int, int]]:
    """Edges in the order a sparse6 line lists them, which is also the
    order in which a reader numbers them 0, 1, 2, ..."""
    return sorted(((min(e), max(e)) for e in edges), key=lambda p: (p[1], p[0]))


def encode_sparse6(n: int, edges) -> str:
    k = max(1, (n - 1).bit_length())
    bits: list[int] = []

    def emit(b: int, x: int) -> None:
        bits.append(b)
        bits.extend((x >> s) & 1 for s in range(k - 1, -1, -1))

    v = 0
    for u, w in sparse6_order(edges):
        if w == v:
            emit(0, u)
        elif w == v + 1:
            v += 1
            emit(1, u)
        else:
            v = w
            emit(1, w)
            emit(0, u)
    pad = -len(bits) % 6
    if pad >= k + 1 and n == (1 << k) and v == n - 2:
        bits.append(0)  # 1-padding alone would read as a loop at n - 1
        pad -= 1
    bits.extend([1] * pad)
    body = bytes(
        63 + int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)
    )
    return ":" + (_n_bytes(n) + body).decode("ascii")


# --- naive facts ---

def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def naive_girth(adj: list[set[int]]) -> int | None:
    """Shortest cycle by BFS from every root, cut off at the best so far."""
    best = None
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        q = deque([root])
        while q:
            x = q.popleft()
            if best is not None and 2 * dist[x] + 1 >= best:
                break
            for y in adj[x]:
                if y == parent[x]:
                    continue
                if y in dist:
                    cand = dist[x] + dist[y] + 1
                    best = cand if best is None else min(best, cand)
                else:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
    return best


def _paths(adj: list[set[int]], x: int, goal: int, left: int, seen: set[int]) -> int:
    """Simple paths x -> goal of exactly `left` edges avoiding `seen`."""
    if left == 1:
        return 1 if goal in adj[x] else 0
    total = 0
    for y in adj[x]:
        if y != goal and y not in seen:
            seen.add(y)
            total += _paths(adj, y, goal, left - 1, seen)
            seen.remove(y)
    return total


def naive_facts(n: int, edges) -> dict:
    """Girth, per-edge girth-cycle count (by brute-force path count, in
    the order of `edges`), vertex signatures and the common signature."""
    adj = adjacency(n, edges)
    gir = naive_girth(adj)
    eps = [_paths(adj, u, v, gir - 1, {u}) for u, v in edges]
    incident: list[list[int]] = [[] for _ in range(n)]
    for (u, v), c in zip(edges, eps):
        incident[u].append(c)
        incident[v].append(c)
    sigs = [tuple(sorted(s)) for s in incident]
    regular = sigs[0] if n and all(s == sigs[0] for s in sigs) else None
    return {"girth": gir, "epsilon": eps, "signatures": sigs,
            "regular": regular, "cycles": sum(eps) // gir}


# --- families (simple graphs from edge lists) ---

def _norm(pairs) -> list[tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u, v in pairs})


def prism(k: int) -> tuple[int, list]:
    """C_k x K_2 on 2k vertices: girth 4, signature (1,1,2) for k >= 5."""
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(k + i, k + (i + 1) % k) for i in range(k)]
    pairs += [(i, k + i) for i in range(k)]
    return 2 * k, _norm(pairs)


def mobius(k: int) -> tuple[int, list]:
    """Cycle C_2k plus antipodal chords: girth 4, (1,1,2) for k >= 5."""
    return 2 * k, _norm([(i, (i + 1) % (2 * k)) for i in range(2 * k)]
                        + [(i, i + k) for i in range(k)])


def circulant(n: int, s: int) -> tuple[int, list]:
    """Cay(Z_n, {±1, ±s}); for 5 <= s and 4s < n the only 4-cycles are
    the n commuting squares, so girth 4 and signature (2,2,2,2)."""
    return n, _norm([(i, (i + 1) % n) for i in range(n)] + [(i, (i + s) % n) for i in range(n)])


def honeycomb(w: int, h: int) -> tuple[int, list]:
    """Hexagonal torus with w x h hexagons (h even) as a brick wall:
    rows of 2w vertices, a rung (x, y)-(x, y+1) wherever x + y is even.
    For w, h >= 12: girth 6, signature (2,2,2), chi 0, wh faces."""
    width = 2 * w

    def vid(x: int, y: int) -> int:
        return (y % h) * width + x % width

    pairs = []
    for y in range(h):
        for x in range(width):
            pairs.append((vid(x, y), vid(x + 1, y)))
            if (x + y) % 2 == 0:
                pairs.append((vid(x, y), vid(x, y + 1)))
    return width * h, _norm(pairs)


def random_cubic(n: int, rng: random.Random) -> tuple[int, list]:
    """Connected simple cubic graph from the pairing model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
        edges = _norm(pairs)
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            adj = adjacency(n, edges)
            seen = {0}
            stack = [0]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == n:
                return n, edges


def vertex_truncation(n: int, edges) -> tuple[int, list]:
    """Replace each vertex of a simple cubic graph by a triangle: girth 3,
    signature (0,1,1), one girth cycle per base vertex."""
    slots: dict[int, list[int]] = {v: [] for v in range(n)}
    pairs = []
    for u, v in edges:
        a, b = 3 * u + len(slots[u]), 3 * v + len(slots[v])
        slots[u].append(a)
        slots[v].append(b)
        pairs.append((a, b))
    for v in range(n):
        a, b, c = slots[v]
        pairs += [(a, b), (b, c), (a, c)]
    return 3 * n, _norm(pairs)


def relabel(n: int, edges, rng: random.Random) -> tuple[int, list]:
    perm = list(range(n))
    rng.shuffle(perm)
    return n, _norm((perm[u], perm[v]) for u, v in edges)


# --- dihedral schemes and truncations on multigraphs ---

def arcs_of(m_edges) -> list[tuple[int, int, int]]:
    """Arcs (tail, edge id, end) of a loop-free multigraph given as
    (id, u, v) triples, sorted; `end` indexes the ends sorted ascending."""
    arcs = []
    for eid, u, v in m_edges:
        lo, hi = min(u, v), max(u, v)
        arcs += [(lo, eid, 0), (hi, eid, 1)]
    return sorted(arcs)


def truncation_graph6(m_edges, rotation: dict[int, list[tuple[int, int, int]]]) -> str:
    """graph6 of the truncation: one vertex per arc in sorted order,
    arcs adjacent when consecutive in a rotation or mutually inverse."""
    arcs = arcs_of(m_edges)
    index = {a: i for i, a in enumerate(arcs)}
    pairs = set()
    for cyc in rotation.values():
        for i, a in enumerate(cyc):
            pairs.add(frozenset((index[a], index[cyc[(i + 1) % len(cyc)]])))
    by_edge: dict[int, list[int]] = {}
    for a, i in index.items():
        by_edge.setdefault(a[1], []).append(i)
    pairs.update(frozenset(p) for p in by_edge.values())
    return encode_graph6(len(arcs), (tuple(p) for p in pairs))
