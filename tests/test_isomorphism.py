from __future__ import annotations

import random
import time
from itertools import combinations, permutations

import pytest

from girthlab import families
from girthlab.errors import SizeCapExceeded
from girthlab.girth import girth
from girthlab.isomorphism import are_isomorphic, find_isomorphism, is_vertex_transitive
from girthlab.multigraph import MultiGraph, from_edge_list
from girthlab.schemes import truncate, unique_cubic_scheme


def kneser_petersen() -> MultiGraph:
    """Petersen as the Kneser graph on 2-subsets of a 5-set."""
    subsets = list(combinations(range(5), 2))
    pairs = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return from_edge_list(10, pairs)


def test_petersen_vs_kneser_construction():
    ok, mapping = are_isomorphic(families.petersen(), kneser_petersen())
    assert ok and mapping is not None


def test_k33_vs_prism_not_isomorphic():
    ok, mapping = are_isomorphic(families.complete_bipartite(3, 3), families.prism(3))
    assert not ok and mapping is None


def test_random_relabeling_recovers_bijection():
    rng = random.Random(5)
    g = families.petersen()
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabeled(perm)
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    for e in g.edges:
        u, v = e.ends
        assert any(
            set(f.ends) == {mapping[u], mapping[v]} for f in h.edges
        )


def test_multiplicities_matter():
    # same underlying simple graph, different parallel-edge placement
    a = from_edge_list(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    b = from_edge_list(3, [(0, 1), (1, 2), (1, 2), (0, 2)])
    assert are_isomorphic(a, b)[0]  # related by swapping 0 and 2
    c = from_edge_list(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
    assert not are_isomorphic(a, c)[0]


def test_loops_matter():
    a = from_edge_list(2, [(0, 0), (0, 1)])
    b = from_edge_list(2, [(1, 1), (0, 1)])
    assert are_isomorphic(a, b)[0]
    c = from_edge_list(2, [(0, 1), (0, 1)])
    assert not are_isomorphic(a, c)[0]


def test_reflexive_and_symmetric():
    g = families.heawood()
    assert are_isomorphic(g, g)[0]
    h = g.relabeled(list(reversed(range(g.n))))
    assert are_isomorphic(g, h)[0]
    assert are_isomorphic(h, g)[0]


def test_different_sizes_reject_fast():
    assert not are_isomorphic(families.cycle(5), families.cycle(6))[0]
    a = from_edge_list(4, [(0, 1), (2, 3)])
    b = from_edge_list(4, [(0, 1), (1, 2)])
    assert not are_isomorphic(a, b)[0]


def test_size_cap():
    big = families.cycle(60)
    with pytest.raises(SizeCapExceeded):
        find_isomorphism(big, big, cap=50)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 1 200 vertices: one frame per vertex would pass the default limit
    g = families.prism(600)
    perm = list(range(g.n))
    random.Random(7).shuffle(perm)
    mapping = find_isomorphism(g, g.relabeled(perm), cap=2000)
    assert mapping is not None and sorted(mapping) == list(range(g.n))


def test_anchored_automorphisms():
    def maps(g, u, v):
        return find_isomorphism(g, g, anchor=(u, v)) is not None

    c5 = families.cycle(5)
    assert all(maps(c5, 0, v) for v in range(5))
    path = from_edge_list(3, [(0, 1), (1, 2)])
    assert maps(path, 0, 2)
    assert not maps(path, 0, 1)


def test_vertex_transitivity_of_k4_truncation():
    tr = truncate(unique_cubic_scheme(families.complete(4))).graph
    assert is_vertex_transitive(tr)


def test_truncated_3_prism_not_vertex_transitive():
    tr = truncate(unique_cubic_scheme(families.prism(3))).graph
    assert not is_vertex_transitive(tr)


def maps_edges_onto(g: MultiGraph, h: MultiGraph, mapping: list[int]) -> bool:
    image = sorted(tuple(sorted(mapping[v] for v in e.ends)) for e in g.edges)
    return sorted(mapping) == list(range(h.n)) and image == sorted(e.ends for e in h.edges)


def test_relabelled_tutte_12cage_is_found_quickly():
    # colour refinement leaves one class on this cubic graph, and no
    # automorphism swaps its two bipartition classes: without refining
    # after each choice, the search ran for minutes
    cage = families.tutte_12cage()
    for seed in range(1, 6):
        perm = list(range(cage.n))
        random.Random(seed).shuffle(perm)
        h = cage.relabeled(perm)
        start = time.process_time()
        mapping = find_isomorphism(h, cage)
        assert time.process_time() - start < 1.0
        assert mapping is not None and maps_edges_onto(h, cage, mapping)


def test_edge_switched_tutte_12cage_is_rejected_quickly():
    # swap the ends of two disjoint edges: still cubic, but a new edge
    # closes a cycle shorter than 12, so it is no longer the cage
    cage = families.tutte_12cage()
    pairs = [e.ends for e in cage.edges]
    (a, b) = pairs[0]
    far = next(
        i for i, (c, d) in enumerate(pairs)
        if len({a, b, c, d}) == 4 and (a, c) not in pairs and (b, d) not in pairs
    )
    c, d = pairs[far]
    switched = from_edge_list(cage.n, pairs[1:far] + pairs[far + 1:] + [(a, c), (b, d)])
    assert switched.is_regular() == 3 and girth(switched) < 12
    start = time.process_time()
    assert find_isomorphism(switched, cage) is None
    assert time.process_time() - start < 5.0


def test_search_agrees_with_brute_force_on_small_multigraphs():
    rng = random.Random(11)

    def brute(g, h, anchor):
        image = sorted(e.ends for e in h.edges)
        return any(
            sorted(tuple(sorted(p[v] for v in e.ends)) for e in g.edges) == image
            for p in permutations(range(g.n))
            if anchor is None or p[anchor[0]] == anchor[1]
        )

    for _ in range(400):
        n = rng.randint(1, 5)
        m = rng.randint(0, 8)
        g = MultiGraph(n, [(i, (rng.randrange(n), rng.randrange(n))) for i in range(m)])
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabeled(perm)
        else:
            h = MultiGraph(n, [(i, (rng.randrange(n), rng.randrange(n))) for i in range(m)])
        anchor = (rng.randrange(n), rng.randrange(n)) if rng.random() < 0.3 else None
        mapping = find_isomorphism(g, h, anchor=anchor)
        assert (mapping is not None) == brute(g, h, anchor)
        if mapping is not None:
            assert maps_edges_onto(g, h, mapping)
            assert anchor is None or mapping[anchor[0]] == anchor[1]
