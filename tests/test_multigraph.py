from __future__ import annotations

import random

import pytest

from girthlab import families
from girthlab.errors import DanglingEndpoint, NotAnArc, NotAnEdge, NotAVertex, SchemaViolation
from girthlab.multigraph import Arc, MultiGraph, from_edge_list


def test_basic_construction_and_degrees():
    g = MultiGraph(3, [(0, (0, 1)), (1, (1, 2)), (2, (2,)), (3, (0, 1))])
    assert g.n == 3
    assert g.edge_count == 4
    assert g.degree(0) == 2
    assert g.degree(1) == 3
    assert g.degree(2) == 3  # one edge plus a loop counting twice
    assert sum(g.degrees) == 2 * g.edge_count


def test_loop_given_as_pair_is_normalized():
    g = MultiGraph(2, [(0, (1, 1))])
    assert g.edge(0).is_loop
    assert g.edge(0).ends == (1,)


def test_arc_inventory_counts_loops_twice():
    g = MultiGraph(2, [(0, (0, 1)), (1, (0,)), (2, (0, 1))])
    arcs = g.arcs()
    assert len(arcs) == 2 * g.edge_count
    loop_arcs = [a for a in arcs if a.edge == 1]
    assert len(loop_arcs) == 2
    assert {a.end for a in loop_arcs} == {0, 1}
    assert g.inverse(loop_arcs[0]) == loop_arcs[1]


def test_out_arcs_and_heads():
    g = MultiGraph(3, [(0, (0, 1)), (1, (0, 2)), (2, (0,))])
    out = g.out_arcs(0)
    assert len(out) == 4
    assert all(a.tail == 0 for a in out)
    non_loops = [a for a in out if a.edge != 2]
    assert sorted(g.arc_head(a) for a in non_loops) == [1, 2]
    assert all(g.arc_head(a) == 0 for a in out if a.edge == 2)


def test_endpoint_validation():
    with pytest.raises(DanglingEndpoint):
        MultiGraph(2, [(0, (0, 5))])
    with pytest.raises(SchemaViolation):
        MultiGraph(2, [(0, (0, 1)), (0, (0, 1))])  # duplicate edge id
    with pytest.raises(SchemaViolation):
        MultiGraph(2, [(0, (0, 1, 1))])


def test_simplicity_flags():
    simple = from_edge_list(3, [(0, 1), (1, 2)])
    assert simple.is_simple
    looped = from_edge_list(2, [(0, 0)])
    assert looped.has_loops and not looped.is_simple
    doubled = from_edge_list(2, [(0, 1), (0, 1)])
    assert doubled.has_parallel_edges and not doubled.is_simple
    assert not looped.has_parallel_edges and not doubled.has_loops
    # two loops at one vertex are parallel, one of them given as (v, v)
    twin_loops = MultiGraph(2, [(5, (0, 0)), (3, (0,)), (4, (0, 1))])
    assert twin_loops.has_loops and twin_loops.has_parallel_edges


def test_connectivity():
    assert from_edge_list(3, [(0, 1), (1, 2)]).is_connected()
    assert not from_edge_list(4, [(0, 1), (2, 3)]).is_connected()
    assert MultiGraph(1, []).is_connected()


def test_relabeled_preserves_structure():
    rng = random.Random(7)
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 0)])
    perm = list(range(5))
    rng.shuffle(perm)
    h = g.relabeled(perm)
    assert sorted(h.degrees) == sorted(g.degrees)
    assert h.edge_count == g.edge_count
    assert h.edge(5).ends == (perm[0],)


def test_arcs_are_ordered_deterministically():
    g = from_edge_list(3, [(2, 1), (0, 2), (1, 0)])
    arcs = g.arcs()
    assert arcs == sorted(arcs)
    assert arcs[0].tail == 0


def test_equality_and_hash():
    a = from_edge_list(3, [(0, 1), (1, 2)])
    b = from_edge_list(3, [(0, 1), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != from_edge_list(3, [(0, 1), (0, 2)])
    assert Arc(0, 1, 0) < Arc(0, 1, 1) < Arc(1, 0, 0)


def random_multigraph(rng: random.Random) -> MultiGraph:
    """Loops, parallel edges, and edge ids that are shuffled, sparse and
    partly negative."""
    n = rng.randint(1, 7)
    ids = rng.sample(range(-40, 40), rng.randint(0, 14))
    edges = []
    for eid in ids:
        u = rng.randrange(n)
        v = u if rng.random() < 0.2 else rng.randrange(n)
        edges.append((eid, (u, v)))
    for _ in range(rng.randint(0, 3)):  # repeat an edge: a parallel pair
        if edges and len(ids) < 80:
            eid = rng.choice([i for i in range(-40, 40) if i not in ids])
            ids.append(eid)
            edges.append((eid, rng.choice(edges)[1][::-1]))
    return MultiGraph(n, edges)


def brute_arcs(g: MultiGraph) -> dict[Arc, int]:
    """Every arc of g with its head, straight from the definition: an edge
    {u, v} with u <= v has the arc u -> v at end 0 and v -> u at end 1."""
    heads = {}
    for e in g.edges:
        u, v = e.ends[0], e.ends[-1]
        heads[Arc(u, e.id, 0)] = v
        heads[Arc(v, e.id, 1)] = u
    return heads


def test_arc_layer_matches_the_definition_on_random_multigraphs():
    rng = random.Random(2024)
    for _ in range(300):
        g = random_multigraph(rng)
        heads = brute_arcs(g)
        assert g.arcs() == sorted(heads)
        for v in g:
            assert g.out_arcs(v) == sorted(a for a in heads if a.tail == v)
        for e in g.edges:
            assert g.arcs_of_edge(e.id) == (Arc(e.ends[0], e.id, 0), Arc(e.ends[-1], e.id, 1))
        for a, head in heads.items():
            assert g.arc_head(a) == head
            inv = g.inverse(a)
            assert inv == Arc(head, a.edge, 1 - a.end) and g.inverse(inv) == a
        # a second pass reads the same table
        assert g.arcs() == sorted(heads)


def test_foreign_arcs_are_rejected():
    k4 = families.complete(4)
    # edge 0 joins 0 and 1, so its end-0 arc leaves 0, not 3
    for arc in (Arc(3, 0, 0), Arc(0, 0, 1), Arc(0, 99, 0), Arc(0, 0, 2), Arc(1, 0, -1)):
        with pytest.raises(NotAnArc):
            k4.inverse(arc)
        with pytest.raises(NotAnArc):
            k4.arc_head(arc)
    loop = MultiGraph(2, [(5, (1,)), (-3, (0, 1))])
    with pytest.raises(NotAnArc):
        loop.inverse(Arc(0, 5, 0))
    assert loop.inverse(Arc(1, 5, 1)) == Arc(1, 5, 0)


def test_foreign_edge_ids_and_vertices_are_rejected():
    p = families.petersen()
    for eid in (999, -1, p.edge_count):
        with pytest.raises(NotAnEdge):
            p.arcs_of_edge(eid)
    # -1 would index vertex 9 from the end
    for v in (-1, -10, p.n, 99):
        for query in (p.degree, p.neighbors, p.out_arcs):
            with pytest.raises(NotAVertex):
                query(v)
    empty = MultiGraph(0, [])
    for query in (empty.degree, empty.neighbors, empty.out_arcs):
        with pytest.raises(NotAVertex):
            query(0)
    # True would answer for vertex or edge 1; neighbors is left unchecked
    for x in (True, "1", 1.0):
        for query in (p.degree, p.out_arcs):
            with pytest.raises(NotAVertex, match="no vertex"):
                query(x)
        with pytest.raises(NotAnEdge, match="no edge has id"):
            p.edge(x)


def test_edges_given_out_of_id_order_are_stored_in_id_order():
    g = MultiGraph(3, [(7, (2, 0)), (-2, (1,)), (3, (0, 1)), (0, (1, 2))])
    assert [e.id for e in g.edges] == [-2, 0, 3, 7]
    assert g.edge(7).ends == (0, 2)
    assert g.neighbors(1) == ((1, -2), (2, 0), (0, 3))
    assert g == MultiGraph(3, sorted([(7, (0, 2)), (-2, (1, 1)), (3, (1, 0)), (0, (2, 1))]))


def test_construction_errors_come_in_input_order():
    # the first bad edge decides the error, whatever comes after it
    with pytest.raises(SchemaViolation, match="edge 4: 3 endpoints"):
        MultiGraph(2, [(4, (0, 1, 1)), (4, (0, 9))])
    with pytest.raises(DanglingEndpoint, match="edge 4: endpoint 9 not in 0..1"):
        MultiGraph(2, [(4, (0, 9)), (4, (0, 1, 1))])
    with pytest.raises(SchemaViolation, match="duplicate edge id 4"):
        MultiGraph(2, [(4, (0, 1)), (4, (1,)), (5, (0, 7))])
    with pytest.raises(SchemaViolation, match="negative vertex count -1"):
        MultiGraph(-1, [(0, (0, 9))])


def test_ids_and_counts_that_are_not_integers_are_rejected():
    # True and False are ints to Python; floats and strings are not ids
    for n in (True, 2.0, "3", None):
        with pytest.raises(SchemaViolation, match="vertex count"):
            MultiGraph(n, [])
    for eid in (True, "a", 1.5):
        with pytest.raises(SchemaViolation, match="edge id"):
            MultiGraph(2, [(eid, (0, 1))])
    for ends in ((False, True), (0, 1.0), (0, "1"), ("0",)):
        with pytest.raises(SchemaViolation, match="endpoint"):
            MultiGraph(2, [(0, ends)])
    for ends in (5, None):
        with pytest.raises(SchemaViolation, match="not a sequence"):
            MultiGraph(2, [(0, ends)])
    for record in (5, (0,), (0, (0, 1), 2), None):
        with pytest.raises(SchemaViolation, match="is not an .id, endpoints. pair"):
            MultiGraph(2, [record])
    with pytest.raises(SchemaViolation, match="edges must be iterable, not NoneType"):
        MultiGraph(2, None)
