from __future__ import annotations

from itertools import permutations
from types import MappingProxyType

import pytest

from girthlab import families
from girthlab.errors import GirthInvariantViolation, InvalidScheme, NotCubic, NotGirthRegular, WrongSignature
from girthlab.girth import girth, girth_report
from girthlab.isomorphism import are_isomorphic
from girthlab.multigraph import Arc, MultiGraph, from_edge_list
from girthlab.schemes import DihedralScheme, decompose_011, truncate, unique_cubic_scheme


def hosohedron_scheme(n: int) -> DihedralScheme:
    """Two vertices joined by n parallel edges, rotations in matching
    cyclic order on both sides."""
    base = MultiGraph(2, list(enumerate([(0, 1)] * n)))
    rot0 = tuple(Arc(0, i, 0) for i in range(n))
    rot1 = tuple(Arc(1, i, 1) for i in range(n))
    return DihedralScheme.from_rotations(base, [rot0, rot1])


def single_vertex_loop_scheme(k: int) -> DihedralScheme:
    """One vertex with k loops, rotation placing each loop's two arcs
    antipodally (the projective-plane arrangement)."""
    base = MultiGraph(1, [(i, (0,)) for i in range(k)])
    rot = tuple(Arc(0, i, 0) for i in range(k)) + tuple(Arc(0, i, 1) for i in range(k))
    return DihedralScheme.from_rotations(base, [rot])


def test_truncation_size_invariant():
    for g in (families.complete(4), families.petersen(), families.prism(3)):
        tr = truncate(unique_cubic_scheme(g))
        assert tr.graph.n == sum(g.degree(v) for v in range(g.n))
        assert tr.graph.n == 2 * g.edge_count
        assert tr.graph.is_simple
        assert all(tr.graph.degree(v) == 3 for v in range(tr.graph.n))
        assert tr.graph.is_connected()


def test_truncated_3_prism_statistics():
    tr = truncate(unique_cubic_scheme(families.prism(3)))
    rep = girth_report(tr.graph)
    assert tr.graph.n == 18
    assert rep.girth == 3 and rep.regular == (0, 1, 1)


def test_truncation_vertex_origin_is_arc_sorted():
    g = families.complete(4)
    tr = truncate(unique_cubic_scheme(g))
    arcs = [tr.vertex_origin[i] for i in range(tr.graph.n)]
    assert arcs == sorted(arcs)


def test_hosohedron_truncation_is_prism():
    for n in (5, 6, 8):
        tr = truncate(hosohedron_scheme(n))
        assert are_isomorphic(tr.graph, families.prism(n))[0]


def test_loop_scheme_truncation_is_mobius():
    for n in (4, 5):
        tr = truncate(single_vertex_loop_scheme(n))
        assert are_isomorphic(tr.graph, families.mobius(n))[0]


def test_unique_cubic_scheme_requires_cubic():
    with pytest.raises(NotCubic):
        unique_cubic_scheme(families.cycle(5))


def test_truncated_tetrahedron():
    tr = truncate(unique_cubic_scheme(families.complete(4)))
    rep = girth_report(tr.graph)
    assert tr.graph.n == 12 and rep.girth == 3 and rep.regular == (0, 1, 1)


def test_scheme_validation_rejects_bad_rotations():
    g = families.complete(4)
    out = [g.out_arcs(v) for v in range(4)]
    with pytest.raises(InvalidScheme):
        DihedralScheme.from_rotations(g, out[:3])  # a vertex missing
    with pytest.raises(InvalidScheme):
        DihedralScheme.from_rotations(g, out + [out[0]])  # duplicated vertex
    broken = [list(r) for r in out]
    broken[0] = broken[0][:2] + [broken[1][0]]  # mixes vertices
    with pytest.raises(InvalidScheme):
        DihedralScheme.from_rotations(g, broken)
    with pytest.raises(InvalidScheme):
        DihedralScheme.from_rotations(families.cycle(4), [families.cycle(4).out_arcs(0)])


def test_scheme_validation_rejects_foreign_arcs():
    g = families.complete(4)
    out = [g.out_arcs(v) for v in range(4)]
    # Arc(0, 1, 2) is no arc, although 2·1 + 2 is the key of Arc(0, 2, 0)
    bogus = [out[0][:2] + [Arc(0, 1, 2)]] + out[1:]
    with pytest.raises(InvalidScheme, match=r"rotation at vertex 0 does not list out\(0\) exactly once"):
        DihedralScheme.from_rotations(g, bogus)
    beyond = out + [[Arc(7, 0, 0), Arc(7, 1, 0), Arc(7, 2, 0)]]
    with pytest.raises(InvalidScheme, match=r"rotation at vertex 7 does not list out\(7\) exactly once"):
        DihedralScheme.from_rotations(g, beyond)


def test_rotation_items_that_are_not_arcs_are_rejected():
    g = families.complete(4)
    rest = [g.out_arcs(v) for v in (1, 2, 3)]
    for rotation in ([1, 2, 3], [(0, 0), (0, 1), (0, 2)], [Arc("0", 0, 0), *g.out_arcs(0)[1:]]):
        with pytest.raises(InvalidScheme, match="is not an arc"):
            DihedralScheme.from_rotations(g, [rotation, *rest])
    # a rotation, or the list of rotations, that is not iterable at all
    for rotations in ([5, *rest], 5):
        with pytest.raises(InvalidScheme, match="not a sequence"):
            DihedralScheme.from_rotations(g, rotations)
    # a plain tuple equal to an arc of the base is that arc
    plain = [tuple(a) for a in g.out_arcs(0)]
    assert DihedralScheme.from_rotations(g, [plain, *rest]) == DihedralScheme.from_rotations(g, [g.out_arcs(0), *rest])


def test_valence_two_rejected():
    sq = families.cycle(4)
    with pytest.raises(InvalidScheme):
        DihedralScheme.from_rotations(sq, [sq.out_arcs(v) for v in range(4)])


def test_adjacent_loop_arcs_rejected_at_truncation():
    # one vertex, two loops, rotation with a loop's arcs consecutive:
    # a valid dihedral scheme whose truncation would not be cubic
    base = MultiGraph(1, [(0, (0,)), (1, (0,))])
    rot = (Arc(0, 0, 0), Arc(0, 0, 1), Arc(0, 1, 0), Arc(0, 1, 1))
    scheme = DihedralScheme.from_rotations(base, [rot])
    with pytest.raises(InvalidScheme):
        truncate(scheme)


def test_a_scheme_built_without_validation_is_refused_at_truncation():
    # an arc the base lacks takes position -1, the last position, and a
    # one-arc rotation makes the pair (p, p): each still leaves every
    # position in three pairs
    k4 = families.complete(4)
    rotations = {v: tuple(k4.out_arcs(v)) for v in range(4)}
    rotations[3] = rotations[3][:2] + (Arc(3, 99, 0),)
    edge = MultiGraph(2, [(0, (0, 1))])
    one_arc = {0: (Arc(0, 0, 0),), 1: (Arc(1, 0, 1),)}
    for scheme in (DihedralScheme(k4, rotations), DihedralScheme(edge, one_arc)):
        with pytest.raises(InvalidScheme, match="truncation is not cubic"):
            truncate(scheme)


def test_rotation_normalization_makes_schemes_comparable():
    g = families.complete(4)
    rots = [g.out_arcs(v) for v in range(4)]
    a = DihedralScheme.from_rotations(g, rots)
    rolled = [r[1:] + r[:1] for r in rots]
    reflected = [tuple(reversed(r)) for r in rots]
    assert DihedralScheme.from_rotations(g, rolled) == a
    assert DihedralScheme.from_rotations(g, reflected) == a


# --- decompose_011 ---

def test_3_prism_decomposes_to_theta():
    lam, scheme = decompose_011(families.prism(3))
    assert lam.n == 2 and lam.edge_count == 3
    assert lam.has_parallel_edges and not lam.has_loops
    assert are_isomorphic(truncate(scheme).graph, families.prism(3))[0]


def test_truncation_round_trips():
    for base in (families.complete(4), families.prism(3), families.petersen()):
        tr = truncate(unique_cubic_scheme(base)).graph
        lam, scheme = decompose_011(tr)
        assert are_isomorphic(lam, base)[0]
        assert are_isomorphic(truncate(scheme).graph, tr)[0]


def test_lambda_is_girth_regular_base():
    tr = truncate(unique_cubic_scheme(families.heawood())).graph
    lam, scheme = decompose_011(tr)
    gir = girth_report(tr).girth
    assert lam.is_regular() == gir
    assert not lam.has_loops


def test_decompose_011_rejects_wrong_inputs():
    with pytest.raises(WrongSignature):
        decompose_011(families.petersen())  # (4,4,4)
    with pytest.raises(WrongSignature):
        decompose_011(families.cycle(5))  # not cubic
    # cubic but not girth-regular: pick one from scratch
    g = from_edge_list(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (2, 6)],
    )
    # complete it to cubic: vertices 3 and 7 need one more edge
    g = from_edge_list(8, [e.ends for e in g.edges] + [(3, 7)])
    assert g.is_regular() == 3
    if girth_report(g).regular is None:
        with pytest.raises(NotGirthRegular):
            decompose_011(g)


def perfect_matchings(g: MultiGraph):
    """Every perfect matching of a loop-free g, as frozensets of edge ids."""

    def extend(free, chosen):
        if not free:
            yield chosen
            return
        v = min(free)
        for w, eid in g.neighbors(v):
            if w in free:
                yield from extend(free - {v, w}, chosen | {eid})

    return extend(frozenset(range(g.n)), frozenset())


def test_decompose_011_checks_the_report_it_reads():
    # faults planted in the kept report: the edges with ε = 0 must form a
    # perfect matching, and the cycles it leaves must be the girth cycles
    g = truncate(unique_cubic_scheme(families.prism(3))).graph
    report = girth_report(g)
    matching = {eid for eid, c in report.epsilon.items() if c == 0}
    other = next(m for m in perfect_matchings(g) if m != matching)
    for zeros, message in (
        (matching - {min(matching)}, "not a perfect matching"),
        (other, "not the cycles left by the matching"),
    ):
        g._report = report._replace(epsilon=MappingProxyType({eid: int(eid not in zeros) for eid in report.epsilon}))
        with pytest.raises(GirthInvariantViolation, match=message):
            decompose_011(g)


def doubled_k4() -> MultiGraph:
    pairs = []
    for i in range(4):
        for j in range(i + 1, 4):
            pairs.extend([(i, j), (i, j)])
    return from_edge_list(4, pairs)


def antipodal_scheme(g: MultiGraph) -> DihedralScheme | None:
    """Search rotations keeping parallel-edge arcs antipodal until the
    truncation is girth-regular with signature (0, 1, 1)."""
    per_vertex = []
    for v in range(g.n):
        out = g.out_arcs(v)
        mate = {}
        groups: dict[tuple[int, ...], list[Arc]] = {}
        for a in out:
            groups.setdefault(g.edge(a.edge).ends, []).append(a)
        for pair in groups.values():
            mate[pair[0]], mate[pair[1]] = pair[1], pair[0]
        first = out[0]
        rest = [a for a in out if a not in (first, mate[first])]
        rots = []
        for perm in permutations(rest, 2):
            a, b = perm
            if mate[a] == b:
                continue
            rots.append((first, a, b, mate[first], mate[a], mate[b]))
        per_vertex.append(rots)

    from itertools import product

    for combo in product(*per_vertex):
        scheme = DihedralScheme.from_rotations(g, combo)
        rep = girth_report(truncate(scheme).graph)
        if rep.regular == (0, 1, 1):
            return scheme
    return None


def test_doubled_k4_antipodal_truncation_recovers_girth_two_base():
    base = doubled_k4()
    assert girth(base) == 2
    scheme = antipodal_scheme(base)
    assert scheme is not None
    tr = truncate(scheme).graph
    rep = girth_report(tr)
    assert rep.regular == (0, 1, 1)
    lam, back = decompose_011(tr)
    assert girth(lam) == 2
    assert lam.is_regular() == rep.girth
    assert are_isomorphic(lam, base)[0]
    assert are_isomorphic(truncate(back).graph, tr)[0]
