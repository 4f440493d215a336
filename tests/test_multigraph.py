from __future__ import annotations

import random

import pytest

from girthlab.errors import DanglingEndpoint, SchemaViolation
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
