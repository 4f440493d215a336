"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its criterion holds (run with
`pytest -s` to see them); any assertion failure marks the criterion
failed. Values are exact unless a runtime budget is stated.
"""

from __future__ import annotations

import time

from girthlab import families
from girthlab.girth import girth_report
from girthlab.isomorphism import are_isomorphic
from girthlab.laws import OUTSIDE, canonical_graph, classify_g5
from girthlab.maps import decompose_112, map_from_222, truncate_map
from girthlab.schemes import decompose_011, truncate

from oracle import naive_epsilon, naive_girth_cycles

# regression constants locked after the first verified oracle run
PETERSEN_GIRTH_CYCLES = 12
HEAWOOD_HEXAGONS = 28


def _report(g):
    return girth_report(g)


def test_criterion_1_named_signature_table():
    table = [
        ("K4", families.complete(4), 3, (2, 2, 2)),
        ("K33", families.complete_bipartite(3, 3), 4, (4, 4, 4)),
        ("Q3", families.cube_q3(), 4, (2, 2, 2)),
        ("petersen", families.petersen(), 5, (4, 4, 4)),
        ("dodecahedron", families.dodecahedron(), 5, (2, 2, 2)),
    ]
    table += [(f"Y{n}", families.prism(n), 4, (1, 1, 2)) for n in range(5, 13)]
    table += [(f"M{n}", families.mobius(n), 4, (1, 1, 2)) for n in range(4, 13)]
    for name, g, want_girth, want_sig in table:
        t0 = time.monotonic()
        rep = _report(g)
        dt = time.monotonic() - t0
        assert (rep.girth, rep.regular) == (want_girth, want_sig), name
        assert dt < 1.0, f"{name} took {dt:.2f}s"
    print("ACCEPTANCE 1: named-graph signature table exact, each under 1s: PASS")


def test_criterion_2_extremal_equality_cases():
    t0 = time.monotonic()
    cases = [
        ("heawood", families.heawood(), 8),
        ("tutteCoxeter", families.tutte_coxeter(), 16),
        ("tutte12Cage", families.tutte_12cage(), 64),
    ]
    for name, g, want in cases:
        rep = _report(g)  # distance-partition counter
        assert rep.regular == (want, want, want), name
        oracle = naive_epsilon(g)  # brute-force enumeration
        assert oracle == rep.epsilon, name
    dt = time.monotonic() - t0
    assert dt <= 30.0, f"extremal cases took {dt:.1f}s"
    print(f"ACCEPTANCE 2: extremal signatures (8,8,8)/(16,16,16)/(64,64,64) agree with oracle in {dt:.1f}s: PASS")


def test_criterion_3_theorem1_bound_sweep(cubic14):
    t0 = time.monotonic()
    offenders = []
    for gid, g in cubic14:
        rep = _report(g)
        bound = 2 ** (rep.girth // 2)
        for eid, count in rep.epsilon.items():
            if count > bound:
                offenders.append((gid, eid, count, bound))
    dt = time.monotonic() - t0
    assert not offenders, offenders[:5]
    assert dt <= 300.0, f"sweep took {dt:.1f}s"
    print(f"ACCEPTANCE 3: zero bound violations across {len(cubic14)} cubic graphs in {dt:.1f}s: PASS")


def test_criterion_4_classification_exhaustive(whole_corpus):
    qualifying = 0
    for gid, g in whole_corpus:
        rep = _report(g)
        if rep.regular is None or rep.girth > 5:
            continue
        if not (g.is_simple and g.is_connected() and g.is_regular() == 3):
            continue
        qualifying += 1
        c = classify_g5(g)
        assert c.case != OUTSIDE, (gid, rep.girth, rep.regular)
        model = canonical_graph(c)
        ok, _ = are_isomorphic(model, g)
        assert ok, (gid, c.case, c.detail)
    assert qualifying > 0
    print(f"ACCEPTANCE 4: classify_g5 exhaustive and sound on {qualifying} qualifying graphs: PASS")


def test_criterion_5_round_trip_decompositions(whole_corpus):
    n011 = n112 = 0
    for gid, g in whole_corpus:
        rep = _report(g)
        if rep.regular == (0, 1, 1):
            lam, scheme = decompose_011(g)
            ok, _ = are_isomorphic(truncate(scheme).graph, g)
            assert ok, gid
            n011 += 1
        elif rep.regular == (1, 1, 2):
            m, _ = decompose_112(g)
            ok, _ = are_isomorphic(truncate_map(m).graph, g)
            assert ok, gid
            n112 += 1
    assert n011 > 0 and n112 > 0
    print(f"ACCEPTANCE 5: decomposition round trips exact on {n011} (0,1,1) and {n112} (1,1,2) graphs: PASS")


def test_criterion_6_euler_characteristic_identities():
    assert map_from_222(families.complete(4)).euler_characteristic == 2
    assert map_from_222(families.cube_q3()).euler_characteristic == 2
    assert map_from_222(families.dodecahedron()).euler_characteristic == 2
    m4, _ = decompose_112(families.mobius(4))
    assert m4.skeleton.n == 1 and m4.skeleton.edge_count == 4
    assert m4.euler_characteristic == 1
    y5, _ = decompose_112(families.prism(5))
    assert y5.skeleton.n == 2 and y5.skeleton.edge_count == 5
    assert y5.euler_characteristic == 2
    print("ACCEPTANCE 6: Euler characteristic identities exact: PASS")


def test_criterion_7_oracle_equivalence(whole_corpus):
    checked = 0
    for gid, g in whole_corpus:
        if g.n > 16:
            continue
        rep = _report(g)
        assert rep.epsilon == naive_epsilon(g), gid
        checked += 1
    assert len(naive_girth_cycles(families.petersen())) == PETERSEN_GIRTH_CYCLES
    assert _report(families.petersen()).cycle_count == PETERSEN_GIRTH_CYCLES
    assert len(naive_girth_cycles(families.heawood())) == HEAWOOD_HEXAGONS
    assert _report(families.heawood()).cycle_count == HEAWOOD_HEXAGONS
    print(f"ACCEPTANCE 7: fast counter equals oracle on {checked} graphs; 12 pentagons, 28 hexagons: PASS")


def test_criterion_8_moore_bound_equalities():
    targets = [
        (3, 5, 10, families.petersen()),
        (3, 6, 14, families.heawood()),
        (3, 8, 30, families.tutte_coxeter()),
        (3, 12, 126, families.tutte_12cage()),
    ]
    for k, gir, want, g in targets:
        assert families.moore_bound(k, gir) == want
        assert g.n == want
        rep = _report(g)
        assert rep.girth == gir and g.is_regular() == k
    print("ACCEPTANCE 8: Moore bounds 10/14/30/126 attained by the named graphs: PASS")


def test_criterion_9_lemma_suite(whole_corpus):
    checked = 0
    for gid, g in whole_corpus:
        rep = _report(g)
        sig = rep.regular
        if sig is None or g.is_regular() != 3 or not g.is_simple:
            continue
        checked += 1
        a, b, c = sig
        gir = rep.girth
        m = 2 ** (gir // 2 - 1)
        assert (a + b + c) % 2 == 0, gid
        assert a + b >= c, gid
        if a == 0:
            assert (b, c) == (1, 1), gid
        if gir % 2 == 1:
            assert a != 1, gid
        assert a >= c - m, gid
        assert b <= a - c + 2 * m, gid
    assert checked > 0
    print(f"ACCEPTANCE 9: lemma suite holds on {checked} cubic girth-regular graphs: PASS")
