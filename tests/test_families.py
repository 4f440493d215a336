from __future__ import annotations

import pytest

from girthlab import families
from girthlab.errors import AsymmetricConnectionSet, BadParams, ZeroInConnectionSet
from girthlab.girth import girth, girth_report
from girthlab.isomorphism import are_isomorphic

from oracle import naive_epsilon


def test_prism_table():
    assert girth(families.prism(3)) == 3
    rep4 = girth_report(families.prism(4))
    assert (rep4.girth, rep4.regular) == (4, (2, 2, 2))
    for n in range(5, 10):
        rep = girth_report(families.prism(n))
        assert (rep.girth, rep.regular) == (4, (1, 1, 2))


def test_mobius_table():
    rep3 = girth_report(families.mobius(3))
    assert rep3.regular == (4, 4, 4)
    assert are_isomorphic(families.mobius(3), families.complete_bipartite(3, 3))[0]
    for n in range(4, 10):
        rep = girth_report(families.mobius(n))
        assert (rep.girth, rep.regular) == (4, (1, 1, 2))


def test_prism4_is_cube():
    assert are_isomorphic(families.prism(4), families.cube_q3())[0]


def test_cayley_examples():
    assert are_isomorphic(families.cayley_cyclic(8, (-1, 1, 4)), families.mobius(4))[0]
    assert are_isomorphic(families.cayley_cyclic(6, (-1, 1, 3)), families.complete_bipartite(3, 3))[0]
    assert are_isomorphic(families.cayley_cyclic(5, (-1, 1)), families.cycle(5))[0]
    # residues may be given already reduced mod m
    assert families.cayley_cyclic(8, (1, 4, 7)) == families.cayley_cyclic(8, (-1, 1, 4))


def test_cayley_validation():
    with pytest.raises(ZeroInConnectionSet):
        families.cayley_cyclic(6, (0, 1, 5))
    with pytest.raises(AsymmetricConnectionSet):
        families.cayley_cyclic(7, (1, 2))


def test_named_graph_orders_and_girths():
    # the named graphs are built from constants that nothing checks at run
    # time: a slip in one must fail here
    specs = [
        (families.petersen(), 10, 5, 3),
        (families.heawood(), 14, 6, 3),
        (families.tutte_coxeter(), 30, 8, 3),
        (families.tutte_12cage(), 126, 12, 3),
        (families.dodecahedron(), 20, 5, 3),
        (families.hoffman_singleton(), 50, 5, 7),
    ]
    for g, n, gir, k in specs:
        assert g.n == n
        assert girth(g) == gir
        assert g.is_regular() == k
        assert g.is_simple and g.is_connected()


def test_moore_bound_values():
    assert families.moore_bound(3, 5) == 10
    assert families.moore_bound(3, 6) == 14
    assert families.moore_bound(3, 8) == 30
    assert families.moore_bound(3, 12) == 126
    assert families.moore_bound(2, 5) == 5
    assert families.moore_bound(7, 5) == 50
    with pytest.raises(BadParams):
        families.moore_bound(1, 5)
    with pytest.raises(BadParams):
        families.moore_bound(3, 2)


def test_moore_bound_equality_cases():
    exact = [
        (families.petersen(), 3),
        (families.heawood(), 3),
        (families.tutte_coxeter(), 3),
        (families.tutte_12cage(), 3),
        (families.complete(4), 3),
        (families.cycle(7), 2),
        (families.hoffman_singleton(), 7),
    ]
    for g, k in exact:
        assert g.is_regular() == k
        assert g.n == families.moore_bound(k, girth(g))
    strict = [families.prism(5), families.mobius(6), families.dodecahedron()]
    for g in strict:
        assert g.n > families.moore_bound(3, girth(g))


def test_extremal_even_signatures_by_oracle():
    # the even-girth extremal graphs have constant signature (k-1)^d
    for g, want in ((families.heawood(), 8), (families.tutte_coxeter(), 16)):
        eps = naive_epsilon(g)
        assert set(eps.values()) == {want}
        rep = girth_report(g)
        assert rep.epsilon == eps


def test_hoffman_singleton_is_reported_not_asserted():
    rep = girth_report(families.hoffman_singleton())
    assert rep.regular is not None
    assert len(rep.regular) == 7


def test_family_spec_dispatch():
    assert families.generate(families.FamilySpec("petersen")).n == 10
    assert families.generate(families.FamilySpec("prism", (5,))).n == 10
    assert families.generate(families.FamilySpec("completeBipartite", (3, 3))).n == 6
    assert families.generate(families.FamilySpec("cayleyCyclic", (8, 1, 4, 7))).n == 8
    with pytest.raises(BadParams):
        families.generate(families.FamilySpec("petersen", (1,)))
    with pytest.raises(BadParams):
        families.generate(families.FamilySpec("prism", ()))
    with pytest.raises(BadParams):
        families.generate(families.FamilySpec("nosuch"))
    with pytest.raises(BadParams):
        families.generate(families.FamilySpec("prism", (2,)))


NO_PARAMETER_FAMILIES = (
    "petersen", "heawood", "tutteCoxeter", "tutte12Cage", "dodecahedron", "cubeQ3",
    "hoffmanSingleton",
)


def test_family_names_keep_their_order():
    # the CLI offers them in this order as `generate` choices
    assert families.FAMILY_NAMES == (
        "complete", "completeBipartite", "cycle", "prism", "mobius", "cayleyCyclic",
        *NO_PARAMETER_FAMILIES,
    )


@pytest.mark.parametrize(
    ("name", "params", "message"),
    [
        ("complete", (), "complete takes one parameter"),
        ("complete", (3, 3), "complete takes one parameter"),
        ("completeBipartite", (3,), "completeBipartite takes two parameters"),
        ("completeBipartite", (3, 3, 3), "completeBipartite takes two parameters"),
        ("cycle", (), "cycle takes one parameter"),
        ("prism", (), "prism takes one parameter"),
        ("prism", (5, 5), "prism takes one parameter"),
        ("mobius", (), "mobius takes one parameter"),
        ("cayleyCyclic", (), "cayleyCyclic takes a modulus and connection residues"),
        ("cayleyCyclic", (8,), "cayleyCyclic takes a modulus and connection residues"),
        *[(name, (1,), f"{name} takes no parameters") for name in NO_PARAMETER_FAMILIES],
        (
            "nosuch", (),
            "unknown family 'nosuch'; choose from complete, completeBipartite, cycle, prism, "
            "mobius, cayleyCyclic, petersen, heawood, tutteCoxeter, tutte12Cage, dodecahedron, "
            "cubeQ3, hoffmanSingleton",
        ),
    ],
)
def test_generate_bad_parameter_messages(name, params, message):
    with pytest.raises(BadParams) as info:
        families.generate(families.FamilySpec(name, params))
    assert str(info.value) == message


def test_generated_graphs_respect_moore_bound():
    for spec in (
        families.FamilySpec("complete", (4,)),
        families.FamilySpec("cycle", (9,)),
        families.FamilySpec("prism", (6,)),
        families.FamilySpec("mobius", (5,)),
        families.FamilySpec("petersen"),
        families.FamilySpec("heawood"),
        families.FamilySpec("dodecahedron"),
    ):
        g = families.generate(spec)
        k = g.is_regular()
        assert g.n >= families.moore_bound(k, girth(g))


@pytest.mark.parametrize(
    "build",
    [families.tutte_coxeter, families.tutte_12cage, families.dodecahedron, families.hoffman_singleton],
)
def test_named_graphs_are_built_fresh_on_each_call(build):
    # a graph keeps its girth and report, so a shared one would carry them
    # from one caller to the next
    first, second = build(), build()
    assert first == second and first is not second
    girth_report(first)
    assert first._report is not None and second._report is None
