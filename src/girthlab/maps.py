"""Combinatorial 2-cell maps: skeleton + face walks + Euler characteristic.

A map is stored purely combinatorially. Validity is the closed-walk
double cover condition (every edge on exactly two face walks) together
with the induced arc relation being a dihedral scheme; the Euler
characteristic |V| - |E| + |F| is recorded, with odd values flagged as
forcing non-orientability. No surface is ever built.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple, Sequence

from .codec import Lazy, arc_ref, json_tree, multigraph_shape
from .errors import (
    Disconnected,
    EdgeCoverageViolation,
    GirthInvariantViolation,
    InvalidScheme,
    NotDihedral,
    OddGirth,
    WrongSignature,
)
from .girth import GirthReport, _least_vertex_cycles, girth_report
from .multigraph import Arc, MultiGraph
from .schemes import DihedralScheme, TruncationResult, contract_cycles, least_rotation, truncate


class ClosedWalk:
    """A simple closed walk as a cyclic arc sequence, normalized to start
    at its lexicographically least arc in the lesser traversal direction.
    Its length is its arc count, and walks sort by their arcs."""

    __slots__ = ("_arcs",)

    def __init__(self, arcs: tuple[Arc, ...]):
        self._arcs = arcs

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return self._arcs

    @classmethod
    def from_arcs(cls, g: MultiGraph, arcs: Sequence[Arc]) -> "ClosedWalk":
        try:
            arcs = tuple(arcs)
        except TypeError:
            raise EdgeCoverageViolation(f"walk {arcs!r} is not a sequence of arcs") from None
        if not arcs:
            raise EdgeCoverageViolation("empty walk")
        ps = g._arc_indices(arcs)
        if -1 in ps:
            raise EdgeCoverageViolation(f"{arcs[ps.index(-1)]} is not an arc of the graph")
        table = g._arc_table()
        inverse = [table.arcs[table.inverse[p]] for p in ps]
        for i, a in enumerate(arcs):
            b = arcs[(i + 1) % len(arcs)]
            if inverse[i].tail != b.tail:
                raise EdgeCoverageViolation(f"arcs {a} and {b} do not chain")
        edge_ids = [a.edge for a in arcs]
        if len(set(edge_ids)) != len(edge_ids):
            raise EdgeCoverageViolation("walk traverses an edge twice")
        return cls(min(least_rotation(arcs), least_rotation(inverse[::-1])))

    def __len__(self) -> int:
        return len(self._arcs)

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(a.edge for a in self._arcs)

    def __lt__(self, other: "ClosedWalk") -> bool:
        return self._arcs < other._arcs

    def __eq__(self, other: object) -> bool:
        return self._arcs == other._arcs if isinstance(other, ClosedWalk) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._arcs)

    def __repr__(self) -> str:
        return f"ClosedWalk(arcs={self._arcs!r})"


class MapComplex(NamedTuple):
    skeleton: MultiGraph
    faces: tuple[ClosedWalk, ...]
    scheme_induced: DihedralScheme
    euler_characteristic: int

    @property
    def non_orientable_forced(self) -> bool:
        return self.euler_characteristic % 2 != 0

    def json_shape(self) -> dict[str, Any]:
        return {
            "skeleton": multigraph_shape(self.skeleton),
            "faces": Lazy(self.faces, lambda w: [arc_ref(a) for a in w.arcs]),
            "chi": self.euler_characteristic,
            "nonOrientableForced": self.non_orientable_forced,
        }

    def to_json(self) -> dict[str, Any]:
        return json_tree(self.json_shape())


def build_map(g: MultiGraph, walks: Iterable[ClosedWalk | Sequence[Arc]]) -> MapComplex:
    """Assemble a map from face walks covering every edge exactly twice."""
    if not g.is_connected():
        raise Disconnected("map skeleton must be connected")
    normalized: list[ClosedWalk] = []
    positions: list[list[int]] = []  # each walk's arcs in g's arc table
    try:
        walks = iter(walks)
    except TypeError:
        raise EdgeCoverageViolation(f"walks {walks!r} are not a sequence of walks") from None
    for w in walks:
        w = w if isinstance(w, ClosedWalk) else ClosedWalk.from_arcs(g, w)
        ps = g._arc_indices(w.arcs)
        if -1 in ps:
            raise EdgeCoverageViolation(f"{w.arcs[ps.index(-1)]} is not an arc of the graph")
        normalized.append(w)
        positions.append(ps)

    coverage: dict[int, int] = {e.id: 0 for e in g.edges}
    for w in normalized:
        for eid in w.edge_ids:
            coverage[eid] += 1
    bad = {eid: c for eid, c in coverage.items() if c != 2}
    if bad:
        raise EdgeCoverageViolation(f"edges not on exactly two walks: {bad}")

    # consecutive face edges relate the two arcs pointing out of the
    # shared vertex; loops contribute their two arcs independently. Arcs
    # are positions in g's arc table, partners[p] those of arc p.
    arcs, start, inverse, _ = g._arc_table()
    partners: list[list[int]] = [[] for _ in arcs]
    for ps in positions:
        for a, b in zip(ps, ps[1:] + ps[:1]):
            s = inverse[a]
            partners[s].append(b)
            partners[b].append(s)
    rotations = []
    for v in range(g.n):
        first, stop = start[v], start[v + 1]
        if first == stop:
            continue  # an isolated vertex: from_rotations rejects its valence
        for p in range(first, stop):
            ps = partners[p]
            if len(ps) != 2 or ps[0] == ps[1] or p in ps:
                raise NotDihedral(f"arc {arcs[p]} has partners {[arcs[q] for q in ps]}")
        # walk the 2-regular partner relation from the first arc of v around
        # its cycle; from_rotations rejects a cycle that misses out(v)
        cyc = [first]
        prev = -1
        while True:
            cur = cyc[-1]
            nxt = partners[cur][0] if partners[cur][0] != prev else partners[cur][1]
            if nxt == first:
                break
            if not first <= nxt < stop:
                raise NotDihedral(f"relation at vertex {v} leaves out({v})")
            cyc.append(nxt)
            prev = cur
        rotations.append(tuple(arcs[p] for p in cyc))
    try:
        scheme = DihedralScheme.from_rotations(g, rotations)
    except InvalidScheme as exc:
        raise NotDihedral(str(exc)) from exc

    # a connected closed surface: chi <= 2
    chi = g.n - g.edge_count + len(normalized)
    return MapComplex(g, tuple(sorted(normalized)), scheme, chi)


def truncate_map(m: MapComplex) -> TruncationResult:
    """Truncation of the skeleton with respect to the induced scheme."""
    return truncate(m.scheme_induced)


def _regular_girth_report(g: MultiGraph, want: tuple[int, ...]) -> GirthReport:
    if not g.is_simple or any(g.degree(v) != 3 for v in range(g.n)):
        raise WrongSignature("decomposition needs a simple cubic graph")
    if not g.is_connected():
        raise Disconnected("decomposition needs a connected graph")
    report = girth_report(g)
    if report.regular != want:
        raise WrongSignature(f"signature {report.regular} != {want}")
    return report


def map_from_222(g: MultiGraph) -> MapComplex:
    """A girth-regular (2,2,2) cubic graph is the skeleton of the map whose
    faces are its girth cycles; the Euler characteristic satisfies
    chi = n(3/g - 1/2) as an exact integer identity, since the 3n/g faces
    of length g cover each of the 3n/2 edges twice."""
    _regular_girth_report(g, (2, 2, 2))
    return build_map(g, [ClosedWalk.from_arcs(g, arcs) for arcs in _least_vertex_cycles(g)])


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
    y_at = {v: eid for eid in y_edges for v in g.edge(eid).ends}
    # then X is a 2-factor: the other two edges at each vertex
    if len(x_edges) + len(y_edges) != g.edge_count or not 2 * len(y_edges) == len(y_at) == g.n:
        raise GirthInvariantViolation("ε is not 1 on a 2-factor and 2 on a perfect matching")

    # the X-cycles, numbered by least vertex, become the map's vertices
    y_set = set(y_edges)
    lam, arc_of = contract_cycles(g, y_set)

    # each girth cycle alternates X and Y; its g/2 Y-edges walk a face
    walks = []
    for arcs in _least_vertex_cycles(g):
        on_y = [a.edge in y_set for a in arcs]
        if any(on_y[i] == on_y[i - 1] for i in range(len(arcs))):
            cyc = sorted(a.edge for a in arcs)
            raise GirthInvariantViolation(f"girth cycle {cyc} does not alternate between X and Y")
        walks.append(ClosedWalk.from_arcs(lam, [arc_of[a.tail] for a, y in zip(arcs, on_y) if y]))

    m = build_map(lam, walks)
    return m, {"X": x_edges, "Y": y_edges}
