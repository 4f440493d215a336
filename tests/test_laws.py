from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
from collections import Counter
from contextlib import suppress

import pytest

from girthlab import corpus, families, laws
from girthlab.codec import parse_graph6, read_multigraph_json_full, write_multigraph_json, write_sparse6
from girthlab.errors import (
    Disconnected,
    GirthLabError,
    InfiniteGirth,
    InvalidScheme,
    PreconditionViolation,
)
from girthlab.girth import girth_report
from girthlab.isomorphism import are_isomorphic
from girthlab.laws import (
    DODECAHEDRON,
    K4,
    K33,
    OUTSIDE,
    PETERSEN,
    PRISM_OR_MOBIUS,
    Q3,
    TRUNC011,
    _maps_onto,
    canonical_graph,
    census,
    check_all_laws,
    classify_g5,
)
from girthlab.maps import decompose_112, map_from_222
from girthlab.multigraph import from_edge_list
from girthlab.schemes import (
    DihedralScheme,
    contract_cycles,
    decompose_011,
    truncate,
    unique_cubic_scheme,
)
from oracle import naive_epsilon, naive_girth, naive_girth_cycles, naive_signatures


def law(results, law_id):
    return next(r for r in results if r.law_id == law_id)


def test_petersen_laws():
    results = check_all_laws(families.petersen())
    assert law(results, "thm1").holds  # 4 <= 2^2
    thm3 = law(results, "thm3")
    assert thm3.applicable and thm3.holds
    assert law(results, "cor3.3").holds
    assert not law(results, "thm2").applicable  # odd girth
    main = law(results, "thm-main")
    assert main.applicable and main.holds
    assert main.witness["case"] == PETERSEN


def test_heawood_thm2():
    results = check_all_laws(families.heawood())
    thm2 = law(results, "thm2")
    assert thm2.applicable and thm2.holds
    assert thm2.witness == {"model": "heawood"}
    assert not law(results, "thm3").applicable


def test_tutte_coxeter_thm2():
    results = check_all_laws(families.tutte_coxeter())
    thm2 = law(results, "thm2")
    assert thm2.applicable and thm2.holds


def test_k33_thm2_and_main():
    results = check_all_laws(families.complete_bipartite(3, 3))
    assert law(results, "thm2").holds
    assert law(results, "thm-main").witness["case"] == K33


def test_lemma_suite_on_named_graphs():
    for g in (
        families.complete(4),
        families.petersen(),
        families.prism(3),
        families.prism(7),
        families.mobius(5),
        families.dodecahedron(),
        truncate(unique_cubic_scheme(families.complete(4))).graph,
    ):
        for r in check_all_laws(g):
            assert not r.violated, (r.law_id, r.witness)


def test_decomposition_laws_applicable_and_hold():
    tr = truncate(unique_cubic_scheme(families.prism(3))).graph
    results = check_all_laws(tr)
    assert law(results, "thm3.6").applicable and law(results, "thm3.6").holds
    results = check_all_laws(families.cube_q3())
    assert law(results, "thm3.9").applicable and law(results, "thm3.9").holds
    results = check_all_laws(families.mobius(6))
    assert law(results, "thm3.11").applicable and law(results, "thm3.11").holds


def dipole(k):
    """Two vertices joined by k parallel edges: girth 2."""
    return from_edge_list(2, [(0, 1)] * k)


@pytest.mark.parametrize("k", [2, 3])
def test_thm2_does_not_apply_at_girth_two(k):
    # generalised polygons are simple, so the Moore bound of girth 2 is never asked for
    assert not law(check_all_laws(dipole(k)), "thm2").applicable
    result = census([("dipole", dipole(k))])
    assert [(b.girth, b.count) for b in result.buckets.values()] == [(2, 1)]
    assert not result.violations


@pytest.mark.parametrize(
    "build, applicable",
    [
        # a triangle with a pendant edge: connected, not regular, one cycle
        (lambda: from_edge_list(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), []),
        (lambda: dipole(2), ["thm1"]),
        (lambda: families.prism(5), ["thm1", "lem3.1", "lem3.4", "thm3.11", "thm-main"]),
        (families.petersen, ["thm1", "thm3", "lem3.1", "cor3.3", "lem3.4", "thm-main"]),
        (families.heawood, ["thm1", "thm2", "lem3.1", "lem3.4"]),
        # the whole lemma suite applies at signature (0,1,1) and girth 3
        (
            lambda: truncate(unique_cubic_scheme(families.complete(4))).graph,
            ["thm1", "lem3.1", "lem3.2", "cor3.3", "lem3.4", "thm3.6", "thm-main"],
        ),
    ],
    ids=["paw", "dipole2", "prism5", "petersen", "heawood", "truncated-k4"],
)
def test_every_law_is_reported_once_in_one_order(build, applicable):
    results = check_all_laws(build())
    assert [r.law_id for r in results] == [
        "thm1", "thm2", "thm3", "lem3.1", "lem3.2", "cor3.3", "lem3.4",
        "thm3.6", "thm3.9", "thm3.11", "thm-main",
    ]
    assert [r.law_id for r in results if r.applicable] == applicable
    for r in results:
        if r.applicable:
            assert r.holds is True, (r.law_id, r.witness)
        else:
            assert (r.applicable, r.holds, r.witness) == (False, None, None)


def test_laws_reject_disconnected_and_forests():
    with pytest.raises(Disconnected):
        check_all_laws(from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    with pytest.raises(InfiniteGirth):
        check_all_laws(from_edge_list(3, [(0, 1), (1, 2)]))


def test_capped_classification_is_unverified_not_violated():
    # 600 vertices, past the isomorphism cap: ladders are checked by their
    # labelling, with no search, so the cap does not apply
    for g in (families.prism(300), families.mobius(300)):
        results = check_all_laws(g, iso_cap=512)
        for law_id in ("thm3.11", "thm-main"):
            r = law(results, law_id)
            assert r.applicable and r.holds is True, (law_id, r.witness)
        assert not any(r.violated for r in results)
    # a search against a named model past the cap is unverified
    results = check_all_laws(families.petersen(), iso_cap=9)
    for law_id in ("thm3", "thm-main"):
        r = law(results, law_id)
        assert r.applicable and r.holds is None, (law_id, r.witness)
    assert not any(r.violated for r in results)


def test_ladders_are_decomposed_once(monkeypatch):
    decompositions = _spy(monkeypatch, "maps", "decompose_112")
    for g in (families.prism(300), families.mobius(300)):
        decompositions.clear()
        check_all_laws(g, iso_cap=512)
        assert len(decompositions) == 1


def test_searches_only_against_named_models(monkeypatch):
    named = {
        families.complete(4),
        families.complete_bipartite(3, 3),
        families.cube_q3(),
        families.petersen(),
        families.dodecahedron(),
        families.heawood(),
        families.tutte_coxeter(),
        families.tutte_12cage(),
    }
    isomorphisms = _spy(monkeypatch, "isomorphism", "find_isomorphism")
    graphs = [g for _, g in itertools.islice(corpus.iter_corpus(corpus.CUBIC_LE14), 200)]
    graphs += [families.prism(7), families.mobius(6), truncate(unique_cubic_scheme(families.prism(3))).graph]
    for g in graphs:
        check_all_laws(g)
    assert isomorphisms
    assert all(args[1] in named for args in isomorphisms)


def test_a_wrong_rotation_violates_thm36(monkeypatch):
    k5 = families.complete(5)
    tr = truncate(DihedralScheme.from_rotations(k5, [k5.out_arcs(v) for v in range(5)])).graph
    results = check_all_laws(tr)
    assert law(results, "thm3.6").holds is True

    def permuted(g):
        # swap two arcs of the rotation at base vertex 0, of valence 4
        lam, scheme = decompose_011(g)
        a, b, c, d = scheme.rotation(0)
        rotations = [(a, c, b, d)] + [scheme.rotation(v) for v in range(1, lam.n)]
        return lam, DihedralScheme.from_rotations(lam, rotations)

    monkeypatch.setattr(laws, "decompose_011", permuted)
    results = check_all_laws(tr)
    assert law(results, "thm3.6").holds is False
    assert law(results, "thm-main").holds is False


def test_maps_onto_checks_edges_with_multiplicities():
    path = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert _maps_onto(path, path, [0, 1, 2, 3])
    assert _maps_onto(path, path, [3, 2, 1, 0])
    assert not _maps_onto(path, path, [0, 0, 2, 3])  # not a bijection
    assert not _maps_onto(path, path, [1, 0, 2, 3])  # two vertices swapped
    assert not _maps_onto(path, from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), [0, 1, 2, 3])
    double = from_edge_list(3, [(0, 1), (0, 1), (1, 2)])
    assert not _maps_onto(double, from_edge_list(3, [(0, 1), (1, 2), (1, 2)]), [0, 1, 2])
    assert _maps_onto(double, from_edge_list(3, [(0, 1), (1, 2), (1, 2)]), [2, 1, 0])
    loop = from_edge_list(2, [(0, 0), (0, 1)])
    assert not _maps_onto(loop, from_edge_list(2, [(1, 1), (0, 1)]), [0, 1])
    assert _maps_onto(loop, from_edge_list(2, [(1, 1), (0, 1)]), [1, 0])


def test_decomposition_laws_hold_on_a_1020_vertex_truncation():
    g = truncate(unique_cubic_scheme(families.prism(170))).graph
    results = check_all_laws(g, iso_cap=2000)
    for law_id in ("thm3.6", "thm-main"):
        r = law(results, law_id)
        assert r.applicable and r.holds is True, (law_id, r.witness)


def _spy(monkeypatch, module: str, name: str) -> list[tuple]:
    """Record the arguments of every call to girthlab.<module>.<name>, from
    every girthlab module that binds it."""
    original = getattr(importlib.import_module(f"girthlab.{module}"), name)
    calls: list[tuple] = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("girthlab"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, spy)
    return calls


def test_check_all_laws_computes_each_quantity_once(monkeypatch):
    counts = _spy(monkeypatch, "girth", "_rooted_epsilon")
    decompositions = _spy(monkeypatch, "schemes", "decompose_011")
    isomorphisms = _spy(monkeypatch, "isomorphism", "find_isomorphism")
    seen_011 = 0
    for gid, g in itertools.islice(corpus.iter_corpus(corpus.CUBIC_LE14), 200):
        for calls in (counts, decompositions, isomorphisms):
            calls.clear()
        gir = girth_report(g).girth
        check_all_laws(g)
        assert [args[0] for args in counts] == [g], gid  # one rooted count, kept on g
        assert len(decompositions) <= 1, gid
        seen_011 += len(decompositions)
        models = [args[1] for args in isomorphisms]
        assert len(models) == len(set(models)), gid
        if gir > 3:  # no search for K4, the only 4-vertex model
            assert all(model.n != 4 for model in models), gid
    assert seen_011 > 0


def test_non_girth_regular_graph_has_no_applicable_cubic_laws():
    # cubic, connected, but not girth-regular
    g = from_edge_list(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (4, 7),
         (5, 6), (5, 7), (2, 6), (3, 7)],
    )
    assert g.is_regular() == 3
    rep = girth_report(g)
    assert rep.regular is None
    results = check_all_laws(g)
    assert law(results, "thm1").applicable  # regular, so the bound applies
    assert law(results, "thm1").holds
    for law_id in ("lem3.1", "lem3.2", "cor3.3", "lem3.4", "thm-main"):
        assert not law(results, law_id).applicable


# --- classify_g5 ---

def test_classification_named_cases():
    assert classify_g5(families.complete(4)).case == K4
    assert classify_g5(families.complete_bipartite(3, 3)).case == K33
    assert classify_g5(families.cube_q3()).case == Q3
    assert classify_g5(families.petersen()).case == PETERSEN
    assert classify_g5(families.dodecahedron()).case == DODECAHEDRON


def test_classification_prisms_and_mobius():
    c = classify_g5(families.prism(7))
    assert c.case == PRISM_OR_MOBIUS and c.detail == {"family": "prism", "n": 7}
    c = classify_g5(families.mobius(6))
    assert c.case == PRISM_OR_MOBIUS and c.detail == {"family": "mobius", "n": 6}


def test_classification_trunc011_witness():
    tr = truncate(unique_cubic_scheme(families.prism(3))).graph
    c = classify_g5(tr)
    assert c.case == TRUNC011
    assert c.detail["girth"] == 3
    lam, scheme = c.witness
    assert lam.is_regular() == 3
    model = canonical_graph(c)
    assert are_isomorphic(model, tr)[0]


def test_classification_soundness_via_canonical_graph():
    for g in (
        families.complete(4),
        families.cube_q3(),
        families.prism(9),
        families.mobius(5),
        families.petersen(),
        families.dodecahedron(),
        families.prism(3),
    ):
        c = classify_g5(g)
        assert c.case != OUTSIDE
        assert are_isomorphic(canonical_graph(c), g)[0]


def test_classification_preconditions():
    with pytest.raises(PreconditionViolation):
        classify_g5(families.heawood())  # girth 6
    with pytest.raises(PreconditionViolation):
        classify_g5(families.cycle(5))  # not cubic
    g = from_edge_list(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (4, 7),
         (5, 6), (5, 7), (2, 6), (3, 7)],
    )
    with pytest.raises(PreconditionViolation):
        classify_g5(g)  # not girth-regular


# --- census ---

def test_census_three_buckets():
    items = [
        ("k4", families.complete(4)),
        ("petersen", families.petersen()),
        ("q3", families.cube_q3()),
    ]
    result = census(items)
    assert result.total == 3
    keys = {(b.girth, b.signature) for b in result.buckets.values()}
    assert keys == {(3, (2, 2, 2)), (5, (4, 4, 4)), (4, (2, 2, 2))}
    assert not result.violations
    assert not result.errors


def test_census_empty():
    result = census([])
    assert result.total == 0 and not result.buckets
    assert "graphs: 0" in result.to_text()


def test_census_collects_parse_errors():
    items = [("ok", families.complete(4)), ("bad", ValueError("nope"))]
    result = census(items)
    assert result.total == 1
    assert result.errors == [("bad", "nope")]


def test_census_text_and_json_shapes():
    result = census([("k4", families.complete(4))])
    text = result.to_text()
    assert "girth" in text and "(2,2,2)" in text
    doc = result.to_json()
    assert doc["total"] == 1
    assert doc["buckets"][0]["signature"] == [2, 2, 2]
    assert doc["buckets"][0]["examples"] == ["k4"]


# --- seeded fuzzing ---

def random_multigraphs(rng, count):
    """Multigraphs on 1-7 vertices with up to 12 edges, about 15 % of them
    loops; then the 2- and 3-dipoles, so that these are always drawn."""
    for _ in range(count):
        n = rng.randint(1, 7)
        ends = [rng.randrange(n) for _ in range(rng.randint(0, 12))]
        yield from_edge_list(n, [(u, u if rng.random() < 0.15 else rng.randrange(n)) for u in ends])
    yield from (dipole(k) for k in (2, 3))


def test_seeded_random_multigraphs():
    rng = random.Random(5)
    graphs = list(random_multigraphs(rng, 1500))
    result = census((str(i), g) for i, g in enumerate(graphs))
    assert result.total == len(graphs) and not result.violations
    for g in graphs:
        for work in (decompose_011, decompose_112, map_from_222, classify_g5):
            with suppress(GirthLabError):
                work(g)
        with suppress(GirthLabError):
            truncate(unique_cubic_scheme(g))
        scheme = None
        if min(g.degrees) >= 3:
            rotations = [rng.sample(g.out_arcs(v), g.degree(v)) for v in g]
            scheme = DihedralScheme.from_rotations(g, rotations)
            with suppress(GirthLabError):
                truncate(scheme)
        h = parse_graph6(write_sparse6(g))
        assert h.n == g.n and sorted(e.ends for e in h.edges) == sorted(e.ends for e in g.edges)
        assert read_multigraph_json_full(json.dumps(write_multigraph_json(g, scheme))) == (g, scheme)


def random_schemes(rng, count):
    """A seeded random rotation at every vertex of the graphs of
    random_multigraphs whose valence is at least 3 everywhere, then of the
    4- and 5-dipoles and K5, where rotations are not forced (any order of
    three arcs is the same dihedral cycle), and of K4 and K3,3."""
    bases = [g for g in random_multigraphs(rng, count) if g.n and min(g.degrees) >= 3]
    bases += [dipole(4), dipole(5), families.complete(5)] * 6
    bases += [families.complete(4), families.complete_bipartite(3, 3)]
    for g in bases:
        yield DihedralScheme.from_rotations(g, [rng.sample(g.out_arcs(v), g.degree(v)) for v in g])


@pytest.fixture(scope="module")
def random_truncations():
    """(scheme, its truncation, or None where truncate must refuse it)."""
    out = []
    for scheme in random_schemes(random.Random(19), 1000):
        # a loop's two arcs side by side in a rotation would give a double edge
        if any(a.edge == cyc[i - 1].edge for cyc in scheme.rotations.values()
               for i, a in enumerate(cyc)):
            with pytest.raises(InvalidScheme):
                truncate(scheme)
            out.append((scheme, None))
        else:
            out.append((scheme, truncate(scheme)))
    return out


def test_truncations_of_random_schemes_are_simple_cubic_and_match_the_oracle(random_truncations):
    compared = 0
    for scheme, result in random_truncations:
        if result is None:
            continue
        t = result.graph
        assert t.n == 2 * scheme.base.edge_count and t.is_simple and set(t.degrees) == {3}
        if t.n <= 12:
            report = girth_report(t)
            assert report.girth == naive_girth(t)
            assert report.cycle_count == len(naive_girth_cycles(t))
            assert report.epsilon == naive_epsilon(t)
            assert report.signatures == naive_signatures(t)
            compared += 1
    assert compared >= 30


def test_011_truncations_of_random_schemes_give_back_their_scheme(random_truncations):
    valences = Counter()
    for scheme, result in random_truncations:
        if result is None:
            continue
        t, origin = result
        report = girth_report(t)
        # base arc a is truncation vertex p; its edge to a's inverse arc is
        # in the matching, and contract_cycles sends p to Λ's arc arc_of[p]
        matching = {e.id for e in t.edges if origin[e.ends[0]].edge == origin[e.ends[1]].edge}
        if report.regular != (0, 1, 1) or any(report.epsilon[eid] for eid in matching):
            # the rotation cycles are not the girth cycles: a bouquet of
            # three loops can truncate to the prism, which decomposes to
            # the 3-dipole
            continue
        lam, back = decompose_011(t)
        lam0, arc_of = contract_cycles(t, matching)
        vertex_of = {a: p for p, a in origin.items()}
        rotations = [[arc_of[vertex_of[a]] for a in cyc] for cyc in scheme.rotations.values()]
        assert lam == lam0 and lam.n == scheme.base.n
        assert back == DihedralScheme.from_rotations(lam0, rotations)
        valences[max(scheme.base.degrees)] += 1
    assert valences[3] >= 3 and valences[4] + valences[5] >= 5
