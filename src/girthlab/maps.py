"""Combinatorial 2-cell maps: skeleton + face walks + Euler characteristic.

A map is stored purely combinatorially. Validity is the closed-walk
double cover condition (every edge on exactly two face walks) together
with the induced arc relation being a dihedral scheme; the Euler
characteristic |V| - |E| + |F| is recorded, with odd values flagged as
forcing non-orientability. No surface is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .codec import arc_ref, write_multigraph_json
from .errors import (
    Disconnected,
    EdgeCoverageViolation,
    InvalidScheme,
    NotDihedral,
    OddGirth,
    WrongSignature,
)
from .girth import cycle_vertex_order, girth_cycles, girth_report
from .multigraph import Arc, MultiGraph
from .schemes import DihedralScheme, TruncationResult, truncate


@dataclass(frozen=True)
class ClosedWalk:
    """A simple closed walk as a cyclic arc sequence, normalized to start
    at its lexicographically least arc in the lesser traversal direction."""

    arcs: tuple[Arc, ...]

    @classmethod
    def from_arcs(cls, g: MultiGraph, arcs: Sequence[Arc]) -> "ClosedWalk":
        arcs = tuple(arcs)
        if not arcs:
            raise EdgeCoverageViolation("empty walk")
        for i, a in enumerate(arcs):
            b = arcs[(i + 1) % len(arcs)]
            if g.arc_head(a) != b.tail:
                raise EdgeCoverageViolation(f"arcs {a} and {b} do not chain")
        edge_ids = [a.edge for a in arcs]
        if len(set(edge_ids)) != len(edge_ids):
            raise EdgeCoverageViolation("walk traverses an edge twice")
        reverse = tuple(g.inverse(a) for a in reversed(arcs))
        best: tuple[Arc, ...] | None = None
        for seq in (arcs, reverse):
            start = seq.index(min(seq))
            cand = seq[start:] + seq[:start]
            if best is None or cand < best:
                best = cand
        assert best is not None
        return cls(best)

    def __len__(self) -> int:
        return len(self.arcs)

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(a.edge for a in self.arcs)

    def __lt__(self, other: "ClosedWalk") -> bool:
        return self.arcs < other.arcs


@dataclass(frozen=True)
class MapComplex:
    skeleton: MultiGraph
    faces: tuple[ClosedWalk, ...]
    scheme_induced: DihedralScheme
    euler_characteristic: int

    @property
    def non_orientable_forced(self) -> bool:
        return self.euler_characteristic % 2 != 0

    def to_json(self) -> dict[str, Any]:
        return {
            "skeleton": write_multigraph_json(self.skeleton),
            "faces": [[arc_ref(a) for a in w.arcs] for w in self.faces],
            "chi": self.euler_characteristic,
            "nonOrientableForced": self.non_orientable_forced,
        }


def build_map(g: MultiGraph, walks: Iterable[ClosedWalk | Sequence[Arc]]) -> MapComplex:
    """Assemble a map from face walks covering every edge exactly twice."""
    if not g.is_connected():
        raise Disconnected("map skeleton must be connected")
    normalized: list[ClosedWalk] = []
    for w in walks:
        normalized.append(w if isinstance(w, ClosedWalk) else ClosedWalk.from_arcs(g, w))

    coverage: dict[int, int] = {e.id: 0 for e in g.edges}
    for w in normalized:
        for eid in w.edge_ids:
            coverage[eid] += 1
    bad = {eid: c for eid, c in coverage.items() if c != 2}
    if bad:
        raise EdgeCoverageViolation(f"edges not on exactly two walks: {bad}")

    # consecutive face edges relate the two arcs pointing out of the
    # shared vertex; loops contribute their two arcs independently
    partners: dict[Arc, list[Arc]] = {a: [] for a in g.arcs()}
    for w in normalized:
        k = len(w.arcs)
        for i in range(k):
            a, b = w.arcs[i], w.arcs[(i + 1) % k]
            s, t = g.inverse(a), b
            partners[s].append(t)
            partners[t].append(s)
    rotations = []
    for v in range(g.n):
        out = g.out_arcs(v)
        for a in out:
            ps = partners[a]
            if len(ps) != 2 or len(set(ps)) != 2 or a in ps:
                raise NotDihedral(f"arc {a} has partners {ps}")
        # walk the 2-regular partner relation into one cycle over out(v)
        start = out[0]
        cyc = [start]
        prev: Arc | None = None
        while True:
            cur = cyc[-1]
            nxt = partners[cur][0] if partners[cur][0] != prev else partners[cur][1]
            if nxt == start:
                break
            if nxt.tail != v or nxt in cyc:
                raise NotDihedral(f"relation at vertex {v} leaves out({v})")
            cyc.append(nxt)
            prev = cur
        if len(cyc) != len(out):
            raise NotDihedral(
                f"relation components at vertex {v} do not match out({v})"
            )
        rotations.append(tuple(cyc))
    try:
        scheme = DihedralScheme.from_rotations(g, rotations)
    except InvalidScheme as exc:
        raise NotDihedral(str(exc)) from exc

    chi = g.n - g.edge_count + len(normalized)
    assert chi <= 2, "Euler characteristic above 2 on a validated map"
    return MapComplex(g, tuple(sorted(normalized)), scheme, chi)


def truncate_map(m: MapComplex) -> TruncationResult:
    """Truncation of the skeleton with respect to the induced scheme."""
    return truncate(m.scheme_induced)


def _regular_girth_report(g: MultiGraph, want: tuple[int, ...]):
    if not g.is_simple or any(g.degree(v) != 3 for v in range(g.n)):
        raise WrongSignature("decomposition needs a simple cubic graph")
    if not g.is_connected():
        raise Disconnected("decomposition needs a connected graph")
    report = girth_report(g)
    if report.regular != want:
        raise WrongSignature(f"signature {report.regular} != {want}")
    return report


def _walk_of_cycle(g: MultiGraph, cycle: frozenset[int]) -> ClosedWalk:
    pair_eid = {g.edge(eid).ends: eid for eid in cycle}
    vs = cycle_vertex_order(g, cycle)
    arcs = []
    for i, u in enumerate(vs):
        v = vs[(i + 1) % len(vs)]
        eid = pair_eid[(min(u, v), max(u, v))]
        ends = g.edge(eid).ends
        arcs.append(Arc(u, eid, ends.index(u)))
    return ClosedWalk.from_arcs(g, arcs)


def map_from_222(g: MultiGraph) -> MapComplex:
    """A girth-regular (2,2,2) cubic graph is the skeleton of the map whose
    faces are its girth cycles; the Euler characteristic satisfies
    chi = n(3/g - 1/2) as an exact integer identity."""
    report = _regular_girth_report(g, (2, 2, 2))
    walks = [_walk_of_cycle(g, c) for c in girth_cycles(g)]
    m = build_map(g, walks)
    n, gir = g.n, report.girth
    assert (3 * n) % gir == 0, "face count 3n/g is not an integer"
    assert (3 * n) % 2 == 0
    chi = n - (3 * n) // 2 + (3 * n) // gir
    assert m.euler_characteristic == chi
    return m


def decompose_112(g: MultiGraph) -> tuple[MapComplex, dict[str, list[int]]]:
    """Invert the map truncation of a girth-regular (1,1,2) graph.

    The witness splits the edges into X (on exactly one girth cycle) and
    Y (on two); Y is a perfect matching, the X-cycles become the map's
    vertices and each girth cycle contracts to a face walk of length g/2.
    """
    report = _regular_girth_report(g, (1, 1, 2))
    if report.girth % 2:
        raise OddGirth(f"(1,1,2) graph reported odd girth {report.girth}")
    x_edges = sorted(eid for eid, c in report.epsilon.items() if c == 1)
    y_edges = sorted(eid for eid, c in report.epsilon.items() if c == 2)
    assert len(x_edges) + len(y_edges) == g.edge_count

    # Y is a perfect matching
    y_at: dict[int, int] = {}
    for eid in y_edges:
        for v in g.edge(eid).ends:
            assert v not in y_at, "two double-counted edges at one vertex"
            y_at[v] = eid
    assert len(y_at) == g.n

    # X-cycles cover the vertices; index them by least vertex id
    x_adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for eid in x_edges:
        u, v = g.edge(eid).ends
        x_adj[u].append((v, eid))
        x_adj[v].append((u, eid))
    assert all(len(a) == 2 for a in x_adj.values())
    cycle_of: dict[int, int] = {}
    reps: list[int] = []
    for v in range(g.n):
        if v in cycle_of:
            continue
        comp = [v]
        cycle_of[v] = -1
        prev = None
        cur = v
        while True:
            a, b = (w for w, _ in x_adj[cur])
            nxt = a if a != prev else b
            if nxt == v:
                break
            comp.append(nxt)
            prev, cur = cur, nxt
        ci = len(reps)
        reps.append(min(comp))
        for w in comp:
            cycle_of[w] = ci
    order = sorted(range(len(reps)), key=lambda i: reps[i])
    rank = {old: new for new, old in enumerate(order)}
    cycle_of = {v: rank[ci] for v, ci in cycle_of.items()}

    lam_edges = []
    for eid in y_edges:
        u, v = g.edge(eid).ends
        lam_edges.append((eid, (cycle_of[u], cycle_of[v])))
    lam = MultiGraph(len(reps), lam_edges)

    def lam_arc(eid: int, original_tail: int) -> Arc:
        ends = lam.edge(eid).ends
        ci = cycle_of[original_tail]
        if len(ends) == 2:
            return Arc(ci, eid, ends.index(ci))
        # loop: end selector keyed to the lesser original endpoint
        u, v = g.edge(eid).ends
        return Arc(ci, eid, 0 if original_tail == u else 1)

    walks = []
    y_set = set(y_edges)
    for cyc in girth_cycles(g):
        vs = cycle_vertex_order(g, cyc)
        pair_eid = {g.edge(eid).ends: eid for eid in cyc}
        gl = len(vs)
        seq = [pair_eid[(min(vs[i], vs[(i + 1) % gl]), max(vs[i], vs[(i + 1) % gl]))] for i in range(gl)]
        kinds = ["Y" if eid in y_set else "X" for eid in seq]
        assert all(kinds[i] != kinds[(i + 1) % gl] for i in range(gl)), (
            "girth-cycle edges do not alternate between X and Y"
        )
        arcs = []
        for i in range(gl):
            if kinds[i] == "Y":
                arcs.append(lam_arc(seq[i], vs[i]))
        assert len(arcs) == report.girth // 2
        walks.append(ClosedWalk.from_arcs(lam, arcs))

    m = build_map(lam, walks)
    assert g.n % (report.girth // 2) == 0, "g/2 must divide n"
    return m, {"X": x_edges, "Y": y_edges}
