"""Dihedral schemes, truncations, and the (0,1,1) inverse decomposition.

A dihedral scheme is stored as one cyclic arc sequence (rotation) per
vertex; the symmetric 2-regular relation on arcs is derived from
consecutiveness. Rotations are normalized (least arc first, lesser
direction) so equal schemes compare and serialize identically.

`decompose_011`, `decompose_112` and the laws' truncation check each read
one walk of a graph without a perfect matching, `_contraction`, in O(n).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, TypeVar

from .errors import (
    GirthInvariantViolation, InvalidScheme, NotCubic, NotGirthRegular, UnmatchedVertex, WrongSignature,
)
from .girth import girth_report
from .multigraph import Arc, MultiGraph, _is_int


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
        try:
            cycles = iter(rotations)
        except TypeError:
            raise InvalidScheme(f"rotations {rotations!r} are not a sequence of cycles") from None
        for cyc in cycles:
            try:
                cyc = tuple(cyc)
            except TypeError:
                raise InvalidScheme(f"rotation {cyc!r} is not a sequence of arcs") from None
            if len(cyc) < 3:
                raise InvalidScheme(f"rotation cycle of length {len(cyc)} < 3")
            # positions first: an item that is neither an arc of base nor an
            # Arc of ints has no tail to read
            ps = base._arc_indices(cyc)
            if -1 in ps:
                for p, a in zip(ps, cyc):
                    if p < 0 and not (isinstance(a, Arc) and all(map(_is_int, a))):
                        raise InvalidScheme(f"rotation item {a!r} is not an arc")
            tails = {tail for tail, _, _ in cyc}
            if len(tails) != 1:
                raise InvalidScheme(f"rotation mixes vertices {sorted(tails)}")
            [v] = tails
            if v in by_vertex:
                raise InvalidScheme(f"two rotation cycles at vertex {v}")
            # table positions are in arc order, so normalizing the positions
            # picks the rotation that normalizing the arcs would
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


def _truncation_pairs(scheme: DihedralScheme) -> list[tuple[int, int]]:
    """The truncation's edges as the sorted arc-position pairs (p, q), p < q.
    Distinct, they make a simple graph, which graph6 carries without a
    NotSimple check; InvalidScheme unless it is cubic on all 2|E| arcs."""
    base = scheme.base
    arcs, _, inverse, _ = base._arc_table()
    inv_pairs = {(p, q) for p, q in enumerate(inverse) if p < q}
    rot_pairs = {
        (p, q) if p < q else (q, p)
        for ps in map(base._arc_indices, scheme.rotations.values())
        for p, q in zip(ps, ps[1:] + ps[:1]) if p != q
    }
    clash = rot_pairs & inv_pairs
    if clash:
        pair = [arcs[p] for p in min(clash)]
        raise InvalidScheme(
            f"loop arcs {pair} are rotation-consecutive; truncation would not be cubic"
        )
    rot_pairs |= inv_pairs
    pairs = sorted(rot_pairs)
    degree = [0] * (len(arcs) + 1)  # an arc the base lacks is at -1, the last place
    for p, q in pairs:
        degree[p] += 1
        degree[q] += 1
    if degree != [3] * len(arcs) + [0]:  # only if not built by from_rotations
        raise InvalidScheme("truncation is not cubic: a rotation is no cycle over out(v)")
    return pairs


def truncate(scheme: DihedralScheme) -> TruncationResult:
    """The simple cubic graph on the arcs of the base: arcs adjacent when
    rotation-consecutive or mutually inverse. Truncation vertex i is the
    base arc at position i of (tail, edge id, end) order. The CLI writes
    graph6 from `_truncation_pairs` (distinct p < q: no NotSimple check)
    and the laws compare with them, so neither builds this graph."""
    arcs = scheme.base._arc_table().arcs
    return TruncationResult(
        MultiGraph(len(arcs), list(enumerate(_truncation_pairs(scheme)))), dict(enumerate(arcs))
    )


def unique_cubic_scheme(g: MultiGraph) -> DihedralScheme:
    """Every cubic graph carries exactly one dihedral scheme: the rotation
    at each vertex is the one 3-cycle on its out-arcs."""
    if any(g.degree(v) != 3 for v in range(g.n)):
        bad = next(v for v in range(g.n) if g.degree(v) != 3)
        raise NotCubic(f"vertex {bad} has valence {g.degree(bad)}")
    return DihedralScheme.from_rotations(g, [g.out_arcs(v) for v in range(g.n)])


def _contraction(g: MultiGraph, matching: set[int],
                 base: MultiGraph | None = None) -> tuple[MultiGraph, list[list[int]], list[int]]:
    """One walk of g - M: its cycles, by least vertex; Λ, built from them
    unless `base` is given; and the position in Λ's arc table of each
    vertex's arc, the end of its M-edge at its cycle (end 0 of a loop at
    the lesser vertex in g). UnmatchedVertex if M misses a vertex."""
    cycles = g._components(matching)
    component = [0] * g.n
    for c, cycle in enumerate(cycles):
        for v in cycle:
            component[v] = c
    ends = [(eid, g.edge(eid).ends) for eid in matching]
    if base is None:
        base = MultiGraph(len(cycles), [(eid, [component[v] for v in e]) for eid, e in ends])
    position = base._arc_table().position
    at = [-1] * g.n
    for eid, e in ends:
        flip = component[e[0]] > component[e[-1]]  # Λ lists the lesser cycle first
        for end, v in enumerate(e):
            at[v] = position[2 * eid + (end ^ flip)]
    if -1 in at:
        raise UnmatchedVertex(f"vertex {at.index(-1)} meets no edge of the matching")
    return base, cycles, at


def decompose_011(g: MultiGraph) -> tuple[MultiGraph, DihedralScheme]:
    """Invert the truncation of a girth-regular (0,1,1) graph.

    The edges on no girth cycle form a perfect matching M, and the girth
    cycles are the cycles of g - M, walked in order; none is listed by a
    BFS. The base has one vertex per girth cycle and one edge per edge of
    M, as `_contraction` numbers them, keeping the ids of g; each
    rotation follows the attachment points along its cycle.
    """
    if not g.is_simple or any(g.degree(v) != 3 for v in range(g.n)):
        raise WrongSignature("decomposition needs a simple cubic graph")
    report = girth_report(g)
    if report.regular is None:
        raise NotGirthRegular("vertex signatures differ")
    if report.regular != (0, 1, 1):
        raise WrongSignature(f"signature {report.regular} != (0, 1, 1)")

    matching = {e.id for e in g.edges if report.epsilon[e.id] == 0}
    covered = {v for eid in matching for v in g.edge(eid).ends}
    if not 2 * len(matching) == len(covered) == g.n:
        raise GirthInvariantViolation("the edges on no girth cycle are not a perfect matching")
    lam, cycles, at = _contraction(g, matching)
    # every girth cycle avoids M, so each must be a whole cycle of g - M
    if len(cycles) != report.cycle_count or any(len(c) != report.girth for c in cycles):
        raise GirthInvariantViolation("the girth cycles are not the cycles left by the matching")
    if lam.has_loops:
        raise GirthInvariantViolation("an edge counted on no girth cycle joins two vertices of one")
    arcs = lam._arc_table().arcs
    return lam, DihedralScheme.from_rotations(lam, [[arcs[at[v]] for v in cycle] for cycle in cycles])
