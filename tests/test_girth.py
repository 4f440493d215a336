from __future__ import annotations

import gc
import hashlib
import importlib
import random
import time
from collections import Counter
from types import MappingProxyType

import pytest

from girthlab import families
from girthlab.errors import GirthInvariantViolation, InfiniteGirth, NotAnEdge, NotCubicVertex
from girthlab.girth import _rooted_pass, epsilon, girth, girth_cycles, girth_report
from girthlab.laws import check_all_laws
from girthlab.maps import decompose_112, map_from_222
from girthlab.multigraph import MultiGraph, from_edge_list
from girthlab.partitions import (
    check_partition_facts,
    distance_partition,
    distance_partition_2path,
    two_path_counts,
)
from girthlab.schemes import decompose_011, truncate, unique_cubic_scheme

from oracle import (
    listed_arcs,
    naive_distances,
    naive_epsilon,
    naive_girth,
    naive_girth_cycles,
    naive_partition_cells,
    naive_signatures,
    naive_two_path_counts,
)

TRUNC_3PRISM = truncate(unique_cubic_scheme(families.prism(3))).graph
TRUNC_K4 = truncate(unique_cubic_scheme(families.complete(4))).graph
THETA = MultiGraph(2, list(enumerate([(0, 1)] * 3)))  # girth 2
TWO_LOOPS = MultiGraph(1, [(0, (0,)), (1, (0,))])  # girth 1


def _random_cubic(rng: random.Random, n: int) -> MultiGraph:
    """Simple cubic graph from the pairing model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            return from_edge_list(n, sorted(pairs))


def _random_girth5_with_trees(rng: random.Random, core: int, pendants: int) -> MultiGraph:
    """A sparse core of girth >= 5, built from random edges whose ends lie
    at distance >= 4, with pendant trees hung off it: not regular, and the
    balls around most edges are not full trees."""
    while True:
        edges: list[tuple[int, int]] = []
        for _ in range(8 * core):
            a, b = rng.sample(range(core), 2)
            d = naive_distances(from_edge_list(core, edges), a)[b]
            if d is None or d >= 4:
                edges.append((a, b))
        if naive_girth(from_edge_list(core, edges)) is not None:
            break
    for v in range(core, core + pendants):
        edges.append((rng.randrange(v), v))
    return from_edge_list(core + pendants, edges)


def _random_multigraph(rng: random.Random) -> MultiGraph:
    """A few vertices with loops and parallel edges."""
    n = rng.randint(1, 5)
    pairs = []
    for _ in range(rng.randint(2, 9)):
        a = rng.randrange(n)
        pairs.append((a, a) if rng.random() < 0.2 else (a, rng.randrange(n)))
    return from_edge_list(n, pairs)


def _subdivided(rng: random.Random, g: MultiGraph) -> MultiGraph:
    """g with each edge made a path of 1 to 4 edges, maybe a bare cycle
    beside it, and pendant trees hung anywhere: vertices of degree 1 and 2
    everywhere, and core components with and without degree-3 vertices."""
    n, pairs = g.n, []
    for e in g.edges:
        inner = list(range(n, n + rng.randrange(4)))
        n += len(inner)
        path = [e.ends[0], *inner, e.ends[-1]]
        pairs += zip(path, path[1:])
    if rng.random() < 0.6:
        ring = rng.randint(3, 40)
        pairs += [(n + i, n + (i + 1) % ring) for i in range(ring)]
        n += ring
    for _ in range(rng.randrange(12) if n else 0):
        pairs.append((rng.randrange(n), n))
        n += 1
    return from_edge_list(n, pairs)


def _union(*parts: MultiGraph) -> MultiGraph:
    """The disjoint union, vertices and edges numbered part after part."""
    n, pairs = 0, []
    for g in parts:
        pairs += [tuple(n + v for v in e.ends) for e in g.edges]
        n += g.n
    return from_edge_list(n, pairs)


def _random_graphs() -> list[MultiGraph]:
    rng = random.Random(2024)
    out = [_random_cubic(rng, n) for n in (8, 10, 12, 14, 16, 18, 20, 24)]
    out += [_random_girth5_with_trees(rng, core, pendants) for core, pendants in
            ((10, 4), (12, 8), (16, 6), (20, 10), (24, 12), (14, 20))]
    out += [_random_multigraph(rng) for _ in range(24)]
    # disconnected unions, of equal girths and of different ones
    out += [_union(out[0], out[1]), _union(out[3], families.petersen(), out[9])]
    # cubic cores with degree-2 chains, bare cycles and pendant trees
    out += [_subdivided(rng, _random_cubic(rng, n)) for n in (6, 8, 10, 12)]
    return out


RANDOM_GRAPHS = _random_graphs()


def _fresh(g: MultiGraph) -> MultiGraph:
    """An equal graph that keeps no girth or report yet, whatever the
    given graph has kept from earlier calls."""
    return MultiGraph(g.n, [(e.id, e.ends) for e in g.edges])


def _assert_closed_walks(g: MultiGraph, walks: list, gir: int) -> None:
    """Each listed cycle is a closed walk in walk order: every arc's head is
    the next arc's tail, and its gir arcs lie on gir distinct edges."""
    for arcs in walks:
        order = [a.tail for a in arcs]
        assert [g.arc_head(a) for a in arcs] == order[1:] + order[:1]
        assert len({a.edge for a in arcs}) == len(arcs) == gir


def _assert_matches_oracle(g: MultiGraph, edges: int | None = None) -> None:
    """girth, report, cycles, ε and the distance-partition cells of every
    edge, each against its brute-force oracle; the listed cycles are closed
    walks, and their count on each edge is ε again. `edges` may cap the
    edges that `epsilon` and `distance_partition` are asked about: the
    oracle's cells cost far more per edge than the library's."""
    gir = naive_girth(g)
    assert girth(g) == gir
    if gir is None:
        return
    eps = naive_epsilon(g)
    cycles = naive_girth_cycles(g)
    rep = girth_report(g)
    assert rep.girth == gir and rep.cycle_count == len(cycles)
    assert rep.epsilon == eps
    assert rep.signatures == naive_signatures(g)
    walks = listed_arcs(g, _rooted_pass(g, True))
    _assert_closed_walks(g, walks, gir)
    assert Counter(a.edge for arcs in walks for a in arcs) == Counter(eps)
    listed = girth_cycles(g)
    assert len(listed) == len(cycles) and set(listed) == cycles
    for e in g.edges[:edges]:
        assert epsilon(g, e.id) == eps[e.id]
        if not e.is_loop:
            u, v = e.ends
            for a, b in ((u, v), (v, u)):
                part = distance_partition(g, a, b)
                assert part.cells == naive_partition_cells(g, a, b, gir // 2 + 1)


def test_girth_of_named_graphs():
    assert girth(families.petersen()) == 5
    assert girth(families.heawood()) == 6
    assert girth(families.complete(4)) == 3
    assert girth(families.complete_bipartite(3, 3)) == 4
    assert girth(families.dodecahedron()) == 5


def test_forest_girth_is_none_but_reports_reject():
    tree = from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
    assert girth(tree) is None
    with pytest.raises(InfiniteGirth):
        girth_report(tree)
    with pytest.raises(InfiniteGirth):
        epsilon(tree, 0)


def test_girth_peels_trees_in_linear_time():
    n = 20_000
    tree = from_edge_list(n, [((i - 1) // 2, i) for i in range(1, n)])
    start = time.perf_counter()
    assert girth(tree) is None
    assert time.perf_counter() - start < 1.0
    # a 50-cycle with n tree vertices hanging off it: 50 + t hangs off
    # cycle vertex t for t < 50, else off 50 + (t - 50) // 2
    cycle = [(i, (i + 1) % 50) for i in range(50)]
    pendant = [(t if t < 50 else 50 + (t - 50) // 2, 50 + t) for t in range(n)]
    start = time.perf_counter()
    assert girth(from_edge_list(50 + n, cycle + pendant)) == 50
    assert time.perf_counter() - start < 1.0


def test_girth_of_subdivided_graphs_matches_oracle():
    rng = random.Random(31)
    graphs = [_subdivided(rng, g) for g in RANDOM_GRAPHS for _ in range(3)]
    graphs += [_subdivided(rng, MultiGraph(0, [])) for _ in range(6)]
    want = [naive_girth(g) for g in graphs]
    assert None in want and {1, 2, 3} < set(want) and max(w or 0 for w in want) > 20
    assert [girth(g) for g in graphs] == want


def test_girth_is_linear_when_the_girth_is_near_n():
    # three paths of 5 000 edges between the vertices 0 and 1
    theta, n = [], 2
    for _ in range(3):
        path = [0, *range(n, n + 4_999), 1]
        n += 4_999
        theta += zip(path, path[1:])
    # a 10 000-cycle with 10 000 tree vertices hanging off it, as above
    ring = [(i, (i + 1) % 10_000) for i in range(10_000)]
    pendant = [(t if t < 10_000 else 10_000 + (t - 10_000) // 2, 10_000 + t) for t in range(10_000)]
    for g, want in (
        (families.cycle(20_000), 20_000),
        (from_edge_list(n, theta), 10_000),
        (from_edge_list(20_000, ring + pendant), 10_000),
    ):
        start = time.perf_counter()
        assert girth(g) == want
        assert time.perf_counter() - start < 1.0


def test_decompose_112_is_linear_in_the_vertex_count():
    # Compare two sizes rather than bound one, so the check does not depend
    # on how fast the machine is. CPU time leaves out time spent waiting for
    # a core on a loaded machine, and the collector is paused so its passes
    # over the whole heap do not count. Eight times the vertices cost about
    # eight times as much here; the quadratic scan this guards cost ~30x.
    def best_of(n, repeats):
        g = families.prism(n)
        times = []
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                decompose_112(g)
                times.append(time.process_time() - start)
            finally:
                gc.enable()
        return min(times)

    small = best_of(500, 5)
    large = best_of(4000, 2)
    assert large / small < 20


def test_truncate_is_linear_in_the_vertex_count():
    # As above, in CPU time with the collector paused. The scheme and the
    # truncation work on integer positions in the base's arc table; each
    # run gets a fresh base, so building that table is timed too.
    def best_of(n, repeats):
        times = []
        for _ in range(repeats):
            g = families.prism(n)
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                truncate(unique_cubic_scheme(g))
                times.append(time.process_time() - start)
            finally:
                gc.enable()
        return min(times)

    small = best_of(500, 5)
    large = best_of(4000, 2)
    assert large / small < 20


def test_check_all_laws_is_linear_in_the_vertex_count():
    # As above, in CPU time with the collector paused. thm3.11 and thm-main
    # are checked through the ladder's own labelling in O(m); a check that
    # runs one BFS per vertex would make this ratio ~64.
    def best_of(n, repeats):
        g = families.prism(n)
        times = []
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                results = check_all_laws(g, iso_cap=10**6)
                times.append(time.process_time() - start)
            finally:
                gc.enable()
        assert not any(r.violated or (r.applicable and r.holds is None) for r in results)
        return min(times)

    small = best_of(250, 5)
    large = best_of(2000, 2)
    assert large / small < 20


def test_girth_report_is_linear_in_the_vertex_count():
    # As above, in CPU time with the collector paused. The report runs one
    # BFS of radius girth // 2 per vertex; the prism's girth is 4 at every
    # size, so each BFS costs the same.
    def best_of(n, repeats):
        g = families.prism(n)
        times = []
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                girth_report(g)
                times.append(time.process_time() - start)
            finally:
                gc.enable()
        return min(times)

    small = best_of(500, 5)
    large = best_of(4000, 2)
    assert large / small < 20


def test_multigraph_girth_conventions():
    assert girth(from_edge_list(2, [(0, 0), (0, 1)])) == 1
    assert girth(from_edge_list(2, [(0, 1), (0, 1)])) == 2
    theta = MultiGraph(2, list(enumerate([(0, 1)] * 3)))
    assert girth(theta) == 2
    rep = girth_report(theta)
    assert rep.cycle_count == 3  # three parallel pairs
    assert rep.epsilon == {0: 2, 1: 2, 2: 2}
    loops = MultiGraph(1, [(0, (0,)), (1, (0,))])
    rep2 = girth_report(loops)
    assert rep2.girth == 1 and rep2.cycle_count == 2 and rep2.epsilon == {0: 1, 1: 1}


def test_epsilon_named_values():
    pet = families.petersen()
    assert all(epsilon(pet, e.id) == 4 for e in pet.edges)
    dod = families.dodecahedron()
    assert all(epsilon(dod, e.id) == 2 for e in dod.edges)
    hea = families.heawood()
    assert all(epsilon(hea, e.id) == 8 for e in hea.edges)  # (k-1)^d = 2^3


def test_girth_report_examples():
    assert girth_report(families.complete(4)).regular == (2, 2, 2)
    assert girth_report(families.complete_bipartite(3, 3)).regular == (4, 4, 4)
    rep = girth_report(TRUNC_3PRISM)
    assert rep.girth == 3 and rep.regular == (0, 1, 1)
    assert girth_report(families.petersen()).cycle_count == 12


def test_cycle_count_conservation():
    for g in (
        families.petersen(),
        families.heawood(),
        families.prism(6),
        families.mobius(5),
        TRUNC_3PRISM,
    ):
        rep = girth_report(g)
        assert sum(rep.epsilon.values()) == rep.girth * rep.cycle_count


def test_non_regular_graph_has_no_graph_signature():
    # triangle with a pendant vertex
    g = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    rep = girth_report(g)
    assert rep.regular is None
    assert rep.signatures[3] == (0,)
    assert rep.signatures[0] == (1, 1)


def test_oracle_equivalence_on_named_graphs():
    for g in (
        families.complete(4),  # girth 3
        families.complete_bipartite(3, 3),  # girth 4
        families.petersen(),  # girth 5
        families.dodecahedron(),  # girth 5
        families.prism(5),
        families.prism(7),
        families.mobius(6),
        families.heawood(),  # girth 6
        families.tutte_coxeter(),  # girth 8
        TRUNC_3PRISM,
    ):
        _assert_matches_oracle(g)
    _assert_matches_oracle(families.tutte_12cage(), edges=100)  # girth 12, 189 edges


def test_per_edge_calls_search_for_the_girth_once_per_graph(monkeypatch):
    mod = importlib.import_module("girthlab.girth")
    searches = []
    search = mod._shortest_cycle
    monkeypatch.setattr(mod, "_shortest_cycle", lambda g: searches.append(g) or search(g))
    g = families.heawood()  # built anew on each call
    for e in g.edges:
        u, v = e.ends
        epsilon(g, e.id)
        distance_partition(g, u, v)
        check_partition_facts(g, u, v)
    (a, _), (b, _), _ = g.neighbors(0)
    distance_partition_2path(g, a, 0, b)
    two_path_counts(g, 0)
    girth_report(g)
    girth_cycles(g)
    assert searches == [g] and girth(g) == 6
    tree = from_edge_list(3, [(0, 1), (1, 2)])
    for _ in range(3):
        with pytest.raises(InfiniteGirth):
            epsilon(tree, 0)
    assert searches == [g, tree]


def test_oracle_equivalence_on_random_graphs():
    kinds = {naive_girth(g) for g in RANDOM_GRAPHS}
    assert {1, 2, 3, 4, 5, None}.issubset(kinds) and max(k or 0 for k in kinds) > 5
    assert any(not g.is_connected() and naive_girth(g) for g in RANDOM_GRAPHS)
    for g in RANDOM_GRAPHS:
        _assert_matches_oracle(g)


def test_oracle_equivalence_on_multigraphs():
    theta = MultiGraph(2, list(enumerate([(0, 1)] * 3)))
    assert girth_report(theta).epsilon == naive_epsilon(theta)
    loopy = MultiGraph(2, [(0, (0,)), (1, (0, 1)), (2, (0, 1))])
    assert girth_report(loopy).epsilon == naive_epsilon(loopy)


def test_path_counts_match_oracle_on_random_graphs():
    for g in RANDOM_GRAPHS:
        if naive_girth(g) is None:
            continue
        eps = naive_epsilon(g)
        for e in g.edges:
            assert epsilon(g, e.id) == eps[e.id]
        for v, want in naive_two_path_counts(g).items():
            t = two_path_counts(g, v)
            assert (t.x, t.y, t.z) == want


@pytest.mark.parametrize(
    ("g", "wrong_girth"),
    [(families.prism(5), 6), (families.cube_q3(), 6), (families.dodecahedron(), 7)],
)
def test_girth_invariants_raise_typed_errors(monkeypatch, g, wrong_girth):
    # a wrong girth breaks the partition facts the counts rest on; the
    # checks are raises, so they also hold under python -O. The rooted
    # pass meets a shorter cycle first, also when it lists; an ε that is
    # not whole cycles fails conservation.
    mod = importlib.import_module("girthlab.girth")
    g, real_girth, real_keep = _fresh(g), mod.girth, mod._keep_report
    monkeypatch.setattr(mod, "girth", lambda _g: wrong_girth)
    for run in (girth_report, girth_cycles):
        with pytest.raises(GirthInvariantViolation, match="shorter than the girth"):
            run(g)
    monkeypatch.setattr(mod, "girth", real_girth)
    one_more = g.edges[0].id
    monkeypatch.setattr(
        mod, "_keep_report",
        lambda _g, gir, eps: real_keep(_g, gir, {eid: c + (eid == one_more) for eid, c in eps.items()}),
    )
    for run in (girth_report, girth_cycles):
        with pytest.raises(GirthInvariantViolation, match="cycle-count conservation"):
            run(g)


@pytest.mark.parametrize(
    ("g", "wrong_girth", "message"),
    [
        # an edge inside layer 1 of the BFS from vertex 0, on a 4-cycle
        (families.prism(5), 6, "edge 10 closes"),
        # from vertex 0: the 4-cycle 1-2-4-3 gives vertex 4 two parents in one branch
        (from_edge_list(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]), 6, "edge 4 closes"),
        # from vertex 0: the triangle 2-3-4 puts an edge inside one branch at depth 3
        (from_edge_list(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)]), 7, "edge 4 closes"),
    ],
)
def test_rooted_count_rejects_shorter_cycles(g, wrong_girth, message):
    g = _fresh(g)
    g._girth = wrong_girth
    for cycles in (False, True):
        with pytest.raises(GirthInvariantViolation, match=f"{message} a cycle shorter than the girth"):
            _rooted_pass(g, cycles)


def test_rooted_count_compares_both_ends():
    # K4 whose vertex 0 does not list its edge to vertex 3: counted from
    # vertex 0 the edge lies on no triangle, from vertex 3 on two
    g = families.complete(4)
    g._adj = tuple(tuple(p for p in nbrs if (v, p[0]) != (0, 3)) for v, nbrs in enumerate(g._adj))
    g._girth = 3
    for cycles in (False, True):
        with pytest.raises(GirthInvariantViolation, match="edge 2 lies on 0 girth cycles counted"
                           " from vertex 0 but on 2 counted from vertex 3"):
            _rooted_pass(g, cycles)


def test_signature_is_isomorphism_invariant():
    rng = random.Random(11)
    for g in (families.petersen(), families.mobius(5), TRUNC_3PRISM):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        sig_g = girth_report(g).signatures
        sig_h = girth_report(h).signatures
        assert sorted(sig_g.values()) == sorted(sig_h.values())
        assert all(sig_h[perm[v]] == sig_g[v] for v in range(g.n))


def test_theorem1_bound_on_regular_samples():
    for g in (
        families.complete(4),
        families.petersen(),
        families.heawood(),
        families.tutte_coxeter(),
        families.cycle(9),
        families.hoffman_singleton(),
    ):
        k = g.is_regular()
        rep = girth_report(g)
        bound = (k - 1) ** (rep.girth // 2)
        assert all(c <= bound for c in rep.epsilon.values())


def test_two_path_counts_examples():
    k4 = families.complete(4)
    for v in range(4):
        t = two_path_counts(k4, v)
        assert (t.x, t.y, t.z) == (1, 1, 1)
    pet = families.petersen()
    for v in range(10):
        t = two_path_counts(pet, v)
        assert (t.x, t.y, t.z) == (2, 2, 2)
    for v in range(TRUNC_3PRISM.n):
        t = two_path_counts(TRUNC_3PRISM, v)
        assert sorted((t.x, t.y, t.z)) == [0, 0, 1]


def test_two_path_counts_solve_their_linear_system():
    for g in (families.petersen(), families.mobius(4), families.prism(6), TRUNC_3PRISM):
        rep = girth_report(g)
        for v in range(g.n):
            t = two_path_counts(g, v)
            a, b, c = (rep.epsilon[e] for e in t.edges)
            assert a == t.x + t.z
            assert b == t.x + t.y
            assert c == t.y + t.z
            assert (t.x, t.y, t.z) == (
                (a + b - c) // 2,
                (-a + b + c) // 2,
                (a - b + c) // 2,
            )


def test_two_path_counts_rejects_non_cubic_vertices():
    with pytest.raises(NotCubicVertex):
        two_path_counts(families.cycle(5), 0)
    with pytest.raises(NotCubicVertex):
        two_path_counts(from_edge_list(2, [(0, 0), (0, 1)]), 0)
    for v in (99, -1, True, "0", 1.0):  # no vertex id of the graph
        with pytest.raises(NotCubicVertex):
            two_path_counts(families.petersen(), v)


def test_distance_partition_petersen():
    pet = families.petersen()
    part = distance_partition(pet, 0, 1)
    assert part.radius == 2
    assert len(part.cell(1, 2)) == 2
    assert len(part.cell(2, 1)) == 2
    assert len(part.cell(2, 2)) == 4
    assert epsilon(pet, next(e.id for e in pet.edges if set(e.ends) == {0, 1})) == 4
    for (i, j), cell in part.cells.items():
        if abs(i - j) >= 2:
            assert not cell


def test_distance_partition_k33_cross_edges():
    g = families.complete_bipartite(3, 3)
    part = distance_partition(g, 0, 3)
    upper, lower = part.cell(1, 2), part.cell(2, 1)
    cross = [
        e
        for e in g.edges
        if (e.ends[0] in upper and e.ends[1] in lower)
        or (e.ends[1] in upper and e.ends[0] in lower)
    ]
    assert len(cross) == 4  # equals epsilon via fact (5)


def test_distance_partition_requires_an_edge():
    pet = families.petersen()
    for u, v in ((0, 2), ("0", 1), (0, "1"), (False, True), (0, True), (0, 1.0)):
        for query in (distance_partition, check_partition_facts):
            with pytest.raises(NotAnEdge):
                query(pet, u, v)
    with pytest.raises(NotAnEdge):
        distance_partition_2path(pet, 4, 0, True)
    with pytest.raises(NotAnEdge):
        epsilon(families.petersen(), 999)


def test_distance_partition_2path():
    pet = families.petersen()
    part = distance_partition_2path(pet, 4, 0, 1)
    assert part.sources == (4, 0, 1)
    assert part.radius == 2
    with pytest.raises(NotAnEdge):
        distance_partition_2path(pet, 0, 2, 4)


def test_partition_facts_even_girth():
    hea = families.heawood()
    u, v = hea.edges[0].ends
    results = {r.fact: r for r in check_partition_facts(hea, u, v)}
    for fact in (1, 2, 3, 4, 5):
        assert results[fact].applicable and results[fact].holds, results[fact]
    assert not results[6].applicable


def test_partition_facts_odd_girth():
    pet = families.petersen()
    results = {r.fact: r for r in check_partition_facts(pet, 0, 1)}
    for fact in (1, 2, 3, 4, 6):
        assert results[fact].applicable and results[fact].holds, results[fact]
    assert not results[5].applicable


def test_partition_facts_skip_fact_5_at_girth_2():
    # the cells D^0_1 = {0} and D^1_0 = {1} are joined by all three edges,
    # while each edge lies on two of the three girth cycles
    results = {r.fact: r for r in check_partition_facts(THETA, 0, 1)}
    assert not results[5].applicable and not results[6].applicable
    assert all(results[fact].holds for fact in (1, 2, 3, 4))


def test_partition_facts_hold_on_random_graphs():
    for g in RANDOM_GRAPHS:
        if naive_girth(g) is None:
            continue
        eps = naive_epsilon(g)
        for e in g.edges:
            if e.is_loop:
                continue
            u, v = e.ends
            for a, b in ((u, v), (v, u)):
                results = check_partition_facts(g, a, b)
                assert [r.fact for r in results] == [1, 2, 3, 4, 5, 6]
                assert not any(r.applicable and not r.holds for r in results), results
                for r in results[4:]:
                    if r.applicable:  # parallel edges, if any, share ε
                        assert r.witness[-1] == eps[e.id]


def test_partition_facts_cycle_degenerate():
    c6 = families.cycle(6)
    results = {r.fact: r for r in check_partition_facts(c6, 0, 1)}
    for fact in (1, 2, 3, 4, 5):
        assert results[fact].holds or not results[fact].applicable


def test_cycle_vertex_order_orientation():
    # each girth cycle is listed once, as a closed walk in walk order
    for g in (families.complete(4), families.petersen(), families.heawood(), THETA, TWO_LOOPS):
        rep = girth_report(g)
        walks = listed_arcs(g, _rooted_pass(g, True))
        assert len(walks) == rep.cycle_count
        assert len({frozenset(a.edge for a in arcs) for arcs in walks}) == len(walks)
        _assert_closed_walks(g, walks, rep.girth)


def test_report_and_listing_bytes_on_multigraphs():
    # the exact report, and the walk and list order of the girth cycles,
    # on loops, parallel edges, disconnected and subdivided graphs: the
    # faces of map_from_222 and decompose_112 follow the listing's order.
    # A graph that keeps its report lists over the vertices above each
    # root; a fresh graph lists while it counts, list for list the same.
    rng = random.Random(17)
    graphs = [*RANDOM_GRAPHS, THETA, TWO_LOOPS, *(_subdivided(rng, g) for g in RANDOM_GRAPHS[::6])]
    digest = hashlib.sha256()
    for g in map(_fresh, graphs):
        found = (girth_report(g), _rooted_pass(g, True)) if girth(g) else None
        if found:
            assert _rooted_pass(_fresh(g), True) == found[1]
            found = (found[0], listed_arcs(g, found[1]))
        digest.update(repr(found).encode())
    assert digest.hexdigest() == "b9a40a51cb2b5c3c71821ce007ac48ca54684b29595efac8e119d38e7f5e96d5"


def test_decompositions_list_each_girth_cycle_once(monkeypatch):
    # a decomposition runs one rooted pass, one BFS per vertex: on a new
    # graph, after the girth search, it counts ε and lists the girth cycles
    # together; on a graph that keeps its report it only lists.
    # decompose_011 lists none: it walks the cycles that the matching
    # leaves. All of them, and the distance partitions, run one BFS routine.
    mod = importlib.import_module("girthlab.girth")
    passes: list[tuple[bool, bool, int]] = []  # (cycles, counted, cycles listed)
    real_pass = mod._rooted_pass

    def counted(g, cycles):
        counting = g._report is None
        walks = real_pass(g, cycles)
        passes.append((cycles, counting, len(walks)))
        return walks

    # each module that imported the name calls its own binding
    for module in (mod, importlib.import_module("girthlab.maps")):
        monkeypatch.setattr(module, "_rooted_pass", counted)
    roots: list[int] = []
    bfs = mod._bfs
    for module in (mod, importlib.import_module("girthlab.partitions")):
        monkeypatch.setattr(module, "_bfs", lambda adj, root, *rest: roots.append(root) or bfs(adj, root, *rest))
    for g, decompose, cycles in (
        (TRUNC_K4, decompose_011, False),
        (families.prism(8), decompose_112, True),
        (families.dodecahedron(), map_from_222, True),
    ):
        roots.clear()
        girth(_fresh(g))
        search = roots[:]
        listed = girth_report(g).cycle_count * cycles
        for fresh in (False, True):
            if fresh:
                g = _fresh(g)
            passes.clear()
            roots.clear()
            decompose(g)
            want = [(cycles, fresh, listed)] if cycles or fresh else []
            assert passes == want, (decompose, passes)
            assert roots == (search if fresh else []) + (list(range(g.n)) if want else []), decompose

    # the search takes the core components from the component walk, with
    # no BFS, then runs from each core vertex of degree >= 3: the Petersen
    # graph with a pendant vertex at 3, beside a bare 7-cycle
    pairs = [e.ends for e in families.petersen().edges] + [(10 + i, 10 + (i + 1) % 7) for i in range(7)]
    roots.clear()
    assert girth(from_edge_list(18, pairs + [(3, 17)])) == 5
    assert roots == [*range(10)]
    g = _fresh(families.prism(8))
    for run, want in (
        (girth, [0, *range(16)]),  # every vertex; 0 first finds no triangle
        (girth_report, list(range(16))),  # the rooted count, once per vertex
        (girth_cycles, list(range(16))),
        (lambda g: distance_partition(g, 0, 1), [1, 0]),
    ):
        roots.clear()
        run(g)
        assert roots == want, run


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("g", [families.complete(4), families.prism(6), TRUNC_3PRISM, THETA])
def test_listing_checks_epsilon_tally(monkeypatch, g, delta):
    rep = girth_report(g)
    for eid, count in rep.epsilon.items():
        forged = MappingProxyType({**rep.epsilon, eid: count + delta})
        monkeypatch.setattr(g, "_report", rep._replace(epsilon=forged))
        with pytest.raises(GirthInvariantViolation, match="girth-cycle count of edges"):
            girth_cycles(g)


def test_the_kept_report_is_read_only():
    g = families.petersen()
    rep = girth_report(g)
    assert girth_report(g) is rep
    with pytest.raises(TypeError):
        rep.epsilon[0] = 0
    with pytest.raises(TypeError):
        rep.signatures[0] = (0, 0, 0)
    assert epsilon(g, 0) == 4 and girth_cycles(g) == girth_cycles(families.petersen())


def test_report_json_shape():
    doc = girth_report(families.complete(4)).to_json()
    assert doc["girth"] == 3 and doc["cycles"] == 4
    assert doc["regular"] == [2, 2, 2]
    assert set(doc["epsilon"]) == {str(e) for e in range(6)}
    assert doc["signatures"]["0"] == [2, 2, 2]
