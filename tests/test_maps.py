from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import girthlab
from girthlab import families
from girthlab.errors import Disconnected, EdgeCoverageViolation, NotDihedral, WrongSignature
from girthlab.girth import _least_vertex_cycles, girth_report
from girthlab.isomorphism import are_isomorphic
from girthlab.maps import ClosedWalk, build_map, decompose_112, map_from_222, truncate_map
from girthlab.multigraph import Arc, MultiGraph, from_edge_list


def walks_of_girth_cycles(g):
    return [ClosedWalk.from_arcs(g, arcs) for arcs in _least_vertex_cycles(g)]


def test_build_map_tetrahedron():
    k4 = families.complete(4)
    m = build_map(k4, walks_of_girth_cycles(k4))
    assert len(m.faces) == 4
    assert m.euler_characteristic == 4 - 6 + 4 == 2
    assert not m.non_orientable_forced


def test_build_map_dodecahedron_sphere():
    dod = families.dodecahedron()
    m = build_map(dod, walks_of_girth_cycles(dod))
    assert len(m.faces) == 12
    assert m.euler_characteristic == 2


def test_build_map_single_vertex_four_loops_projective():
    base = MultiGraph(1, [(i, (0,)) for i in range(4)])
    A = [Arc(0, i, 0) for i in range(4)]
    B = [Arc(0, i, 1) for i in range(4)]
    walks = [
        [A[1], B[0]],
        [A[2], B[1]],
        [A[3], B[2]],
        [A[0], A[3]],
    ]
    m = build_map(base, walks)
    assert m.euler_characteristic == 1 - 4 + 4 == 1
    assert m.non_orientable_forced
    tr = truncate_map(m)
    rep = girth_report(tr.graph)
    assert rep.regular == (1, 1, 2)
    assert are_isomorphic(tr.graph, families.mobius(4))[0]


def test_hosohedron_map_truncates_to_prism():
    n = 6
    base = MultiGraph(2, list(enumerate([(0, 1)] * n)))
    walks = []
    for i in range(n):
        j = (i + 1) % n
        walks.append([Arc(0, i, 0), Arc(1, j, 1)])
    m = build_map(base, walks)
    assert m.euler_characteristic == 2 - n + n == 2
    assert are_isomorphic(truncate_map(m).graph, families.prism(n))[0]


def test_face_length_sum_is_twice_edges():
    for g in (families.complete(4), families.cube_q3(), families.dodecahedron()):
        m = map_from_222(g)
        assert sum(len(w) for w in m.faces) == 2 * g.edge_count


def test_build_map_rejects_bad_coverage():
    k4 = families.complete(4)
    walks = walks_of_girth_cycles(k4)
    with pytest.raises(EdgeCoverageViolation):
        build_map(k4, walks[:3])
    with pytest.raises(EdgeCoverageViolation):
        build_map(k4, walks + [walks[0]])


def test_build_map_rejects_disconnected():
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    tri1 = [Arc(0, 0, 0), Arc(1, 1, 0), Arc(2, 2, 1)]
    with pytest.raises(Disconnected):
        build_map(g, [tri1, tri1])


def test_build_map_rejects_a_lone_vertex():
    # connected, no edges, no walks: its valence 0 is no rotation
    with pytest.raises(NotDihedral, match="vertex 0 has valence 0 < 3"):
        build_map(MultiGraph(1, []), [])


def test_closed_walk_validation_and_normalization():
    k4 = families.complete(4)
    pair = {e.ends: e.id for e in k4.edges}
    tri = [
        Arc(0, pair[(0, 1)], 0),
        Arc(1, pair[(1, 2)], 0),
        Arc(2, pair[(0, 2)], 1),
    ]
    w = ClosedWalk.from_arcs(k4, tri)
    rotated = ClosedWalk.from_arcs(k4, tri[1:] + tri[:1])
    reversed_arcs = [k4.inverse(a) for a in reversed(tri)]
    assert w == rotated == ClosedWalk.from_arcs(k4, reversed_arcs)
    with pytest.raises(EdgeCoverageViolation):
        ClosedWalk.from_arcs(k4, tri[:2])  # not closed
    with pytest.raises(EdgeCoverageViolation):
        ClosedWalk.from_arcs(k4, tri + [k4.inverse(tri[-1]), tri[-1]])  # edge reused


def test_closed_walk_rejects_arcs_foreign_to_the_graph():
    k4 = families.complete(4)
    assert k4.edge(2).ends == (0, 3)
    # Arc(1, 2, 0) would leave 1 along edge 2, which does not touch 1
    with pytest.raises(EdgeCoverageViolation, match="is not an arc of the graph"):
        ClosedWalk.from_arcs(k4, [Arc(0, 0, 0), Arc(1, 2, 0)])
    with pytest.raises(EdgeCoverageViolation, match="is not an arc of the graph"):
        ClosedWalk.from_arcs(k4, [Arc(0, 0, 0), Arc(1, 9, 0)])
    # walks built for K4 cover the edge ids of a relabelled K4 twice, but
    # their arcs are not its arcs
    relabelled = k4.relabeled([1, 2, 3, 0])
    with pytest.raises(EdgeCoverageViolation, match="is not an arc of the graph"):
        build_map(relabelled, walks_of_girth_cycles(k4))


def test_walks_not_inducing_dihedral_rejected():
    # four parallel edges, each 2-gon walk doubled: coverage is fine but
    # every arc then sees a single partner twice
    quad = MultiGraph(2, list(enumerate([(0, 1)] * 4)))
    w01 = [Arc(0, 0, 0), Arc(1, 1, 1)]
    w23 = [Arc(0, 2, 0), Arc(1, 3, 1)]
    with pytest.raises(NotDihedral):
        build_map(quad, [w01, w01, w23, w23])


def test_walks_splitting_a_vertex_into_two_rotations_rejected():
    # a 6-edge dipole whose 2-gons run 0-1-2 and 3-4-5 around each vertex:
    # every arc has two partners, but they close two 3-cycles at a vertex
    dipole = MultiGraph(2, list(enumerate([(0, 1)] * 6)))
    walks = [
        [Arc(0, i, 0), Arc(1, j, 1)]
        for t in (0, 3)
        for i, j in ((t, t + 1), (t + 1, t + 2), (t + 2, t))
    ]
    with pytest.raises(NotDihedral, match=r"vertex 0 .* out\(0\)"):
        build_map(dipole, walks)


def test_map_from_222_examples():
    for g, chi in ((families.complete(4), 2), (families.cube_q3(), 2), (families.dodecahedron(), 2)):
        m = map_from_222(g)
        assert m.euler_characteristic == chi
        n, gir = g.n, girth_report(g).girth
        assert m.euler_characteristic == n - (3 * n) // 2 + (3 * n) // gir
        assert len(m.faces) == (3 * n) // gir


def test_map_from_222_rejects_wrong_signature():
    with pytest.raises(WrongSignature):
        map_from_222(families.petersen())
    with pytest.raises(WrongSignature):
        map_from_222(families.prism(5))


def test_truncate_map_tetrahedron():
    m = map_from_222(families.complete(4))
    tr = truncate_map(m)
    rep = girth_report(tr.graph)
    assert tr.graph.n == 12 and rep.girth == 3
    assert all(tr.graph.degree(v) == 3 for v in range(12))


# --- decompose_112 ---

def test_decompose_112_mobius4_projective():
    m, witness = decompose_112(families.mobius(4))
    assert m.skeleton.n == 1
    assert m.skeleton.edge_count == 4
    assert m.euler_characteristic == 1
    assert m.non_orientable_forced
    assert len(m.faces) == 4 and all(len(w) == 2 for w in m.faces)
    assert len(witness["Y"]) == 4


def test_decompose_112_prisms_sphere():
    m5, _ = decompose_112(families.prism(5))
    assert m5.skeleton.n == 2 and m5.skeleton.edge_count == 5
    assert m5.euler_characteristic == 2
    m6, _ = decompose_112(families.prism(6))
    assert m6.skeleton.n == 2 and m6.skeleton.edge_count == 6
    assert m6.euler_characteristic == 2
    assert families.prism(6).n % (girth_report(families.prism(6)).girth // 2) == 0


def test_decompose_112_witness_partitions_edges():
    for g in (families.mobius(5), families.prism(7)):
        rep = girth_report(g)
        m, witness = decompose_112(g)
        assert sorted(witness["X"] + witness["Y"]) == sorted(e.id for e in g.edges)
        assert all(rep.epsilon[e] == 1 for e in witness["X"])
        assert all(rep.epsilon[e] == 2 for e in witness["Y"])
        # Y is a perfect matching
        seen = set()
        for eid in witness["Y"]:
            u, v = g.edge(eid).ends
            assert u not in seen and v not in seen
            seen.update((u, v))
        assert len(seen) == g.n


def test_decompose_112_alternation_along_girth_cycles():
    g = families.prism(6)
    _, witness = decompose_112(g)
    y = set(witness["Y"])
    walks = _least_vertex_cycles(g)
    assert len(walks) == girth_report(g).cycle_count
    for arcs in walks:
        assert len({a.edge for a in arcs}) == len(arcs) == 4
        assert all(g.arc_head(a) == b.tail for a, b in zip(arcs, arcs[1:] + arcs[:1]))
        kinds = [a.edge in y for a in arcs]
        assert all(kinds[i] != kinds[(i + 1) % len(kinds)] for i in range(len(kinds)))


def test_decompose_112_round_trips():
    for g in (families.mobius(4), families.mobius(6), families.prism(5), families.prism(8)):
        m, _ = decompose_112(g)
        assert are_isomorphic(truncate_map(m).graph, g)[0]


def test_decompose_112_rejects_wrong_signature():
    with pytest.raises(WrongSignature):
        decompose_112(families.cube_q3())
    with pytest.raises(WrongSignature):
        decompose_112(families.petersen())


def test_map_json_shape():
    m, _ = decompose_112(families.prism(5))
    doc = m.to_json()
    assert doc["chi"] == 2
    assert doc["nonOrientableForced"] is False
    assert doc["skeleton"]["vertices"] == 2
    assert len(doc["faces"]) == 5
    assert all({"edge", "tail", "end"} == set(ref) for face in doc["faces"] for ref in face)


# a kept report whose ε contradicts the graph: one girth-cycle edge
# counted on none (0,1,1), one edge on two girth cycles counted on one
# (1,1,2), or each girth cycle in turn dropped from ε as a whole, which
# leaves every count a whole number of cycles
FORGED_REPORT_CHECK = """
from types import MappingProxyType
from girthlab import families
from girthlab.errors import GirthInvariantViolation
from girthlab.girth import girth_cycles, girth_report
from girthlab.maps import decompose_112
from girthlab.multigraph import MultiGraph
from girthlab.schemes import decompose_011, truncate, unique_cubic_scheme

def forge(g, rep, **fields):
    g._report = rep._replace(**fields)

def rejects(run, g):
    try:
        run(g)
    except GirthInvariantViolation as exc:
        print(type(exc).__name__, exc)
    else:
        raise SystemExit(run.__name__ + " accepted a forged report")

for g, decompose, flip in (
    (truncate(unique_cubic_scheme(families.prism(3))).graph, decompose_011, {1: 0}),
    (families.prism(6), decompose_112, {2: 1}),
):
    rep = girth_report(g)
    eid = next(e for e, c in rep.epsilon.items() if c in flip)
    forge(g, rep, epsilon=MappingProxyType({**rep.epsilon, eid: flip[rep.epsilon[eid]]}))
    rejects(decompose, g)

two_loops = MultiGraph(1, [(0, (0,)), (1, (0,))])
for g in (families.complete(4), families.petersen(), families.prism(6), two_loops):
    rep = girth_report(g)
    for cycle in girth_cycles(g):
        eps = {e: c - (e in cycle) for e, c in rep.epsilon.items()}
        forge(g, rep, epsilon=MappingProxyType(eps), cycle_count=rep.cycle_count - 1)
        rejects(girth_cycles, g)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_decompositions_reject_a_forged_report(flags):
    env = dict(os.environ, PYTHONPATH=str(Path(girthlab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", FORGED_REPORT_CHECK],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # 2 decompositions, then 4 + 12 + 6 + 2 girth cycles dropped in turn
    assert done.stdout.count("GirthInvariantViolation") == 2 + 24, done.stdout
