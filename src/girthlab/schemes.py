"""Dihedral schemes, truncations, and the (0,1,1) inverse decomposition.

A dihedral scheme is stored as one cyclic arc sequence (rotation) per
vertex; the symmetric 2-regular relation on arcs is derived from
consecutiveness. Rotations are normalized (least arc first, lesser
direction) so equal schemes compare and serialize identically.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, TypeVar

from .errors import GirthInvariantViolation, InvalidScheme, NotCubic, NotGirthRegular, WrongSignature
from .girth import _least_vertex_cycles, girth_report
from .multigraph import Arc, MultiGraph


T = TypeVar("T")


def least_rotation(seq: Sequence[T]) -> tuple[T, ...]:
    """The rotation of a cyclic sequence that starts at its least element."""
    k = seq.index(min(seq))
    return tuple(seq[k:]) + tuple(seq[:k])


class DihedralScheme(NamedTuple):
    base: MultiGraph
    rotations: dict[int, tuple[Arc, ...]]

    @classmethod
    def from_rotations(
        cls, base: MultiGraph, rotations: Iterable[Sequence[Arc]]
    ) -> "DihedralScheme":
        """Validate and normalize one rotation cycle per vertex."""
        arcs, start, _, _ = base._arc_table()
        by_vertex: dict[int, tuple[Arc, ...]] = {}
        for cyc in rotations:
            cyc = tuple(cyc)
            if len(cyc) < 3:
                raise InvalidScheme(f"rotation cycle of length {len(cyc)} < 3")
            tails = {tail for tail, _, _ in cyc}
            if len(tails) != 1:
                raise InvalidScheme(f"rotation mixes vertices {sorted(tails)}")
            v = cyc[0].tail
            if v in by_vertex:
                raise InvalidScheme(f"two rotation cycles at vertex {v}")
            # table positions are in arc order, so normalizing the positions
            # picks the rotation that normalizing the arcs would
            ps = base._arc_indices(cyc)
            if not 0 <= v < base.n or sorted(ps) != list(range(start[v], start[v + 1])):
                raise InvalidScheme(
                    f"rotation at vertex {v} does not list out({v}) exactly once"
                )
            # the relation is direction-free: take the lesser direction
            best = min(least_rotation(ps), least_rotation(ps[::-1]))
            by_vertex[v] = tuple([arcs[p] for p in best])
        for v, d in enumerate(base.degrees):
            if d < 3:
                raise InvalidScheme(f"vertex {v} has valence {d} < 3")
            if v not in by_vertex:
                raise InvalidScheme(f"no rotation at vertex {v}")
        return cls(base, by_vertex)

    def rotation(self, v: int) -> tuple[Arc, ...]:
        return self.rotations[v]

    def __repr__(self) -> str:
        return f"DihedralScheme(base={self.base!r}, vertices={len(self.rotations)})"


class TruncationResult(NamedTuple):
    graph: MultiGraph
    vertex_origin: dict[int, Arc]


def truncate(scheme: DihedralScheme) -> TruncationResult:
    """The simple cubic graph on the arcs of the base: arcs adjacent when
    rotation-consecutive or mutually inverse. Truncation vertex i is the
    base arc at position i of (tail, edge id, end) order."""
    base = scheme.base
    arcs, _, inverse, _ = base._arc_table()
    inv_pairs = {(p, q) for p, q in enumerate(inverse) if p < q}
    rot_pairs: set[tuple[int, int]] = set()
    for cyc in scheme.rotations.values():
        ps = base._arc_indices(cyc)
        for p, q in zip(ps, ps[1:] + ps[:1]):
            rot_pairs.add((p, q) if p < q else (q, p))
    clash = rot_pairs & inv_pairs
    if clash:
        pair = [arcs[p] for p in min(clash)]
        raise InvalidScheme(
            f"loop arcs {pair} are rotation-consecutive; truncation would not be cubic"
        )
    graph = MultiGraph(len(arcs), list(enumerate(sorted(rot_pairs | inv_pairs))))
    if any(d != 3 for d in graph.degrees):
        # only a scheme built without from_rotations gets here
        raise InvalidScheme("truncation is not cubic: a rotation is no cycle over out(v)")
    return TruncationResult(graph, dict(enumerate(arcs)))


def unique_cubic_scheme(g: MultiGraph) -> DihedralScheme:
    """Every cubic graph carries exactly one dihedral scheme: the rotation
    at each vertex is the one 3-cycle on its out-arcs."""
    if any(g.degree(v) != 3 for v in range(g.n)):
        bad = next(v for v in range(g.n) if g.degree(v) != 3)
        raise NotCubic(f"vertex {bad} has valence {g.degree(bad)}")
    return DihedralScheme.from_rotations(g, [g.out_arcs(v) for v in range(g.n)])


def contract_cycles(g: MultiGraph, matching: set[int]) -> tuple[MultiGraph, list[Arc]]:
    """Contract each cycle that g leaves without the perfect matching M.

    Λ has one vertex per component of g - M, numbered by least vertex, and
    the edges of M under their ids in g. Vertex v of g becomes the end of
    its M-edge at its own component: arc_of[v]; a loop of Λ has end 0 at
    its lesser vertex in g. decompose_011 and decompose_112 build Λ so,
    and the laws check their theorems through arc_of in O(m).
    """
    component = [-1] * g.n
    m_at = [-1] * g.n
    count = 0
    for s in range(g.n):
        if component[s] >= 0:
            continue
        component[s] = count
        stack = [s]
        while stack:
            x = stack.pop()
            for y, eid in g.neighbors(x):
                if eid in matching:
                    m_at[x] = eid
                elif component[y] < 0:
                    component[y] = count
                    stack.append(y)
        count += 1
    lam = MultiGraph(count, [(eid, [component[v] for v in g.edge(eid).ends]) for eid in matching])
    arc_of = []
    for v, eid in enumerate(m_at):
        ends = lam.edge(eid).ends
        end = ends.index(component[v]) if len(ends) == 2 else g.edge(eid).ends.index(v)
        arc_of.append(lam.arcs_of_edge(eid)[end])
    return lam, arc_of


def decompose_011(g: MultiGraph) -> tuple[MultiGraph, DihedralScheme]:
    """Invert the truncation of a girth-regular (0,1,1) graph.

    The base has one vertex per girth cycle and one edge per edge lying on
    no girth cycle; rotations follow consecutive attachment points along
    each girth cycle, as `contract_cycles` numbers them. Λ keeps the
    original edge ids of the matching edges.
    """
    if not g.is_simple or any(g.degree(v) != 3 for v in range(g.n)):
        raise WrongSignature("decomposition needs a simple cubic graph")
    report = girth_report(g)
    if report.regular is None:
        raise NotGirthRegular("vertex signatures differ")
    if report.regular != (0, 1, 1):
        raise WrongSignature(f"signature {report.regular} != (0, 1, 1)")

    walks = _least_vertex_cycles(g)
    matching = {e.id for e in g.edges if report.epsilon[e.id] == 0}
    covered = {v for eid in matching for v in g.edge(eid).ends}
    if not 2 * len(matching) == len(covered) == g.n:
        raise GirthInvariantViolation("the edges on no girth cycle are not a perfect matching")
    lam, arc_of = contract_cycles(g, matching)
    # the girth cycles avoid the matching, so each is one cycle of g - M
    if len(walks) != lam.n or any(a.edge in matching for walk in walks for a in walk):
        raise GirthInvariantViolation("the girth cycles are not the cycles left by the matching")
    if lam.has_loops:
        raise GirthInvariantViolation("an edge counted on no girth cycle joins two vertices of one")
    rotations = [[arc_of[a.tail] for a in walk] for walk in walks]
    return lam, DihedralScheme.from_rotations(lam, rotations)
