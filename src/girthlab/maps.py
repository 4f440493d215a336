"""Combinatorial 2-cell maps: skeleton + face walks + Euler characteristic.

A map is stored purely combinatorially. Its face walks are checked as
arc-table positions, from one lookup of a walk given as arcs, or from the
girth listing's keys and the (1,1,2) contraction: every edge on exactly two
walks, and the induced arc relation a dihedral scheme. The Euler
characteristic |V| - |E| + |F| is recorded, odd values flagged as forcing
non-orientability. No surface is ever built.
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
from .girth import GirthReport, _rooted_pass, girth_report
from .multigraph import Arc, MultiGraph
from .schemes import DihedralScheme, TruncationResult, _contraction, least_rotation, truncate


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
        return _face(g, _positions(g, arcs))[0]

    def __len__(self) -> int:
        return len(self._arcs)

    def __lt__(self, other: "ClosedWalk") -> bool:
        return self._arcs < other._arcs

    def __eq__(self, other: object) -> bool:
        return self._arcs == other._arcs if isinstance(other, ClosedWalk) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._arcs)

    def __repr__(self) -> str:
        return f"ClosedWalk(arcs={self._arcs!r})"


def _positions(g: MultiGraph, arcs: Sequence[Arc]) -> list[int]:
    """The walk's arcs looked up once in g's arc table; EdgeCoverageViolation if any is not g's."""
    try:
        arcs = tuple(arcs)
    except TypeError:
        raise EdgeCoverageViolation(f"walk {arcs!r} is not a sequence of arcs") from None
    if not arcs:
        raise EdgeCoverageViolation("empty walk")
    ps = g._arc_indices(arcs)
    if -1 in ps:
        raise EdgeCoverageViolation(f"{arcs[ps.index(-1)]} is not an arc of the graph")
    return ps


def _face(g: MultiGraph, ps: Sequence[int]) -> tuple[ClosedWalk, tuple[int, ...]]:
    """The walk at positions ps of g's arc table, if it chains and passes no
    edge twice, normalized, and its positions: these are in arc order, so
    normalizing them picks the walk that normalizing the arcs would."""
    arcs, _, inverse, _ = g._arc_table()
    back = [inverse[p] for p in ps]
    for p, s, q in zip(ps, back, [*ps[1:], ps[0]]):
        if arcs[s].tail != arcs[q].tail:
            raise EdgeCoverageViolation(f"arcs {arcs[p]} and {arcs[q]} do not chain")
    if len({min(p, s) for p, s in zip(ps, back)}) != len(ps):  # an edge's two arcs share the lesser
        raise EdgeCoverageViolation("walk traverses an edge twice")
    best = min(least_rotation(ps), least_rotation(back[::-1]))
    return ClosedWalk(tuple([arcs[p] for p in best])), best


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
    try:
        walks = iter(walks)
    except TypeError:
        raise EdgeCoverageViolation(f"walks {walks!r} are not a sequence of walks") from None
    return _assemble(g, (_positions(g, w.arcs if isinstance(w, ClosedWalk) else w) for w in walks))


def _assemble(g: MultiGraph, faces: Iterable[Sequence[int]]) -> MapComplex:
    """The map on the connected graph g whose faces are at these arc-table positions."""
    walks: list[ClosedWalk] = []
    # consecutive face edges relate the two arcs pointing out of the
    # shared vertex; loops contribute their two arcs independently. Arcs
    # are positions in g's arc table, partners[p] those of arc p.
    arcs, start, inverse, _ = g._arc_table()
    partners: list[list[int]] = [[] for _ in arcs]
    coverage: dict[int, int] = {e.id: 0 for e in g.edges}
    for face in faces:
        w, ps = _face(g, face)
        walks.append(w)
        for a, b in zip(ps, [*ps[1:], ps[0]]):
            coverage[arcs[b].edge] += 1
            s = inverse[a]
            partners[s].append(b)
            partners[b].append(s)
    bad = {eid: c for eid, c in coverage.items() if c != 2}
    if bad:
        raise EdgeCoverageViolation(f"edges not on exactly two walks: {bad}")

    rotations = []
    for v in range(g.n):
        first, stop = start[v], start[v + 1]
        if first == stop:
            continue  # an isolated vertex: from_rotations rejects its valence
        for p in range(first, stop):
            ps = partners[p]
            if len(ps) != 2 or ps[0] == ps[1] or p in ps:
                raise NotDihedral(f"arc {arcs[p]} has partners {[arcs[q] for q in ps]}")
        # walk the 2-regular partner relation from the first arc of v around its cycle: it stays
        # in out(v), as every face chains, and from_rotations rejects a cycle missing part of it
        cyc = [first]
        cur = partners[first][0]
        while cur != first:
            cyc.append(cur)
            a, b = partners[cur]
            cur = b if a == cyc[-2] else a
        rotations.append(tuple(arcs[p] for p in cyc))
    try:
        scheme = DihedralScheme.from_rotations(g, rotations)
    except InvalidScheme as exc:
        raise NotDihedral(str(exc)) from exc

    # a connected closed surface: chi <= 2
    chi = g.n - g.edge_count + len(walks)
    return MapComplex(g, tuple(sorted(walks)), scheme, chi)


def truncate_map(m: MapComplex) -> TruncationResult:
    """Truncation of the skeleton with respect to the induced scheme."""
    return truncate(m.scheme_induced)


def _regular_girth_cycles(g: MultiGraph, want: tuple[int, ...]) -> tuple[GirthReport, list[list[int]]]:
    if not g.is_simple or any(g.degree(v) != 3 for v in range(g.n)):
        raise WrongSignature("decomposition needs a simple cubic graph")
    if not g.is_connected():
        raise Disconnected("decomposition needs a connected graph")
    walks = _rooted_pass(g, True)
    report = girth_report(g)
    if report.regular != want:
        raise WrongSignature(f"signature {report.regular} != {want}")
    return report, walks


def map_from_222(g: MultiGraph) -> MapComplex:
    """A girth-regular (2,2,2) cubic graph is the skeleton of the map whose
    faces are its girth cycles; the Euler characteristic satisfies
    chi = n(3/g - 1/2) as an exact integer identity, since the 3n/g faces
    of length g cover each of the 3n/2 edges twice."""
    cycles = _regular_girth_cycles(g, (2, 2, 2))[1]
    position = g._arc_table().position
    return _assemble(g, ([position[key] for key in keys] for keys in cycles))


def decompose_112(g: MultiGraph) -> tuple[MapComplex, dict[str, list[int]]]:
    """Invert the map truncation of a girth-regular (1,1,2) graph.

    The witness splits the edges into X (on exactly one girth cycle) and
    Y (on two); Y is a perfect matching, the X-cycles become the map's
    vertices and each girth cycle contracts to a face walk of length g/2.
    """
    report, cycles = _regular_girth_cycles(g, (1, 1, 2))
    if report.girth % 2:
        raise OddGirth(f"(1,1,2) graph reported odd girth {report.girth}")
    x_edges = sorted(eid for eid, c in report.epsilon.items() if c == 1)
    y_edges = sorted(eid for eid, c in report.epsilon.items() if c == 2)
    y_at = {v: eid for eid in y_edges for v in g.edge(eid).ends}
    # then X is a 2-factor: the other two edges at each vertex
    if len(x_edges) + len(y_edges) != g.edge_count or not 2 * len(y_edges) == len(y_at) == g.n:
        raise GirthInvariantViolation("ε is not 1 on a 2-factor and 2 on a perfect matching")

    # each girth cycle alternates X and Y; its g/2 Y-arc tails, in one flat list, walk a face
    y_set = set(y_edges)
    tails: list[int] = []
    for keys in cycles:
        on_y = [key >> 1 in y_set for key in keys]
        if any(on_y[i] == on_y[i - 1] for i in range(len(keys))):
            cyc = sorted(key >> 1 for key in keys)
            raise GirthInvariantViolation(f"girth cycle {cyc} does not alternate between X and Y")
        tails += [g._by_id[key >> 1].ends[key & 1] for key, y in zip(keys, on_y) if y]
    del cycles  # no key is read again

    # the X-cycles, numbered by least vertex, become the map's vertices; Λ
    # is connected as g is, and at[v] is the position of v's arc in Λ
    lam, _, at = _contraction(g, y_set)
    half = report.girth // 2
    faces = ([at[v] for v in tails[i:i + half]] for i in range(0, len(tails), half))
    return _assemble(lam, faces), {"X": x_edges, "Y": y_edges}
