from __future__ import annotations

import json
import random

import pytest

from girthlab import codec, families
from girthlab.codec import (
    graph6_chunks,
    parse_graph6,
    read_multigraph_json,
    read_multigraph_json_full,
    write_graph6,
    write_multigraph_json,
    write_sparse6,
)
from girthlab.errors import (
    InvalidScheme,
    MalformedEncoding,
    NotSimple,
    SchemaViolation,
    VertexCountOverflow,
)
from girthlab.isomorphism import are_isomorphic
from girthlab.multigraph import MultiGraph, from_edge_list
from girthlab.schemes import unique_cubic_scheme

from oracle import graph6_bits_reader, naive_graph6_line, naive_sparse6_line


def test_graph6_against_independent_bit_reader():
    n, edges = graph6_bits_reader("D?{")
    g = parse_graph6("D?{")
    assert g.n == n == 5
    assert sorted(e.ends for e in g.edges) == sorted(
        (min(u, v), max(u, v)) for u, v in edges
    )


def test_graph6_empty_one_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count == 0


def test_triangle_encodes_to_Bw():
    # hand-encoded: n=3, bits x01 x02 x12 = 111, padded 111000 -> 56+63='w'
    tri = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    assert write_graph6(tri) == "Bw"
    n, edges = graph6_bits_reader("Bw")
    assert n == 3 and len(edges) == 3


def test_k4_roundtrip_is_isomorphic():
    k4 = families.complete(4)
    again = parse_graph6(write_graph6(k4))
    assert are_isomorphic(k4, again)[0]


def test_write_graph6_rejects_non_simple():
    with pytest.raises(NotSimple):
        write_graph6(from_edge_list(2, [(0, 0)]))
    with pytest.raises(NotSimple):
        write_graph6(from_edge_list(2, [(0, 1), (0, 1)]))


def test_graph6_headers_and_errors():
    assert parse_graph6(">>graph6<<D?{").n == 5
    for line in ("", ":", ">>sparse6<<:"):
        with pytest.raises(MalformedEncoding, match="empty line"):
            parse_graph6(line)
    with pytest.raises(MalformedEncoding):
        parse_graph6("D?")  # truncated body
    with pytest.raises(MalformedEncoding):
        parse_graph6("D?{{")  # overlong body
    with pytest.raises(MalformedEncoding):
        parse_graph6(";Fa@x^")  # incremental sparse6 unsupported
    with pytest.raises(VertexCountOverflow):
        parse_graph6(write_graph6(families.cycle(100)), cap=50)


def test_long_form_vertex_count():
    n = 100
    line = write_graph6(families.cycle(n))
    g = parse_graph6(line)
    assert g.n == n
    assert write_graph6(g) == line


def test_sparse6_known_line():
    # n=7 with edges 01, 02, 12, 56: the format description's worked example
    g = MultiGraph(7, list(enumerate([(0, 1), (0, 2), (1, 2), (5, 6)])))
    assert write_sparse6(g) == ":Fa@x^"
    h = parse_graph6(":Fa@x^")
    assert h.n == 7
    assert sorted(e.ends for e in h.edges) == [(0, 1), (0, 2), (1, 2), (5, 6)]


def test_sparse6_carries_loops_and_parallels():
    g = MultiGraph(3, list(enumerate([(0, 0), (0, 1), (0, 1), (1, 2)])))
    h = parse_graph6(write_sparse6(g))
    assert h.n == 3
    assert sorted(e.ends for e in h.edges) == [(0,), (0, 1), (0, 1), (1, 2)]


def test_sparse6_power_of_two_padding_clash():
    # triangle inside n=4: final position counter lands on n-2
    g = from_edge_list(4, [(0, 1), (0, 2), (1, 2)])
    line = write_sparse6(g)
    h = parse_graph6(line)
    assert sorted(e.ends for e in h.edges) == [(0, 1), (0, 2), (1, 2)]
    # single loop at 0 inside n=2
    g2 = MultiGraph(2, [(0, (0, 0))])
    h2 = parse_graph6(write_sparse6(g2))
    assert [e.ends for e in h2.edges] == [(0,)]


def test_sparse6_random_multigraph_roundtrips():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 12)
        m = rng.randint(0, 20)
        pairs = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n)
            pairs.append((min(u, v), max(u, v)))
        g = from_edge_list(n, pairs)
        h = parse_graph6(write_sparse6(g))
        assert h.n == g.n
        assert sorted(e.ends for e in h.edges) == sorted(e.ends for e in g.edges)


def test_graph6_random_simple_roundtrips():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 13)
        pairs = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        }
        g = from_edge_list(n, sorted(pairs))
        line = write_graph6(g)
        h = parse_graph6(line)
        assert write_graph6(h) == line
        assert sorted(e.ends for e in h.edges) == sorted(e.ends for e in g.edges)


def _ends(g: MultiGraph) -> list[tuple[int, ...]]:
    return sorted(e.ends for e in g.edges)


def _graphs_of_each_density(n: int) -> list[MultiGraph]:
    rng = random.Random(1000 + n)
    graphs = []
    for density in (0.0, 0.02, 0.3, 1.0):
        pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
        rng.shuffle(pairs)  # edge ids in random order
        graphs.append(from_edge_list(n, pairs))
    return graphs


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 62, 63, 64, 200, 500])
def test_graph6_bytes_match_the_definition(n):
    for g in _graphs_of_each_density(n):
        line = write_graph6(g)
        assert line == naive_graph6_line(g)
        h = parse_graph6(line)
        assert h.n == n and _ends(h) == _ends(g)
        assert graph6_bits_reader(line) == (n, sorted(_ends(g), key=lambda p: (p[1], p[0])))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 62, 63, 64, 200])
def test_graph6_bytes_match_the_definition_in_small_chunks(n, monkeypatch):
    # bits fall on every boundary between the pieces of the body; the
    # lines made in one piece are checked against the definition above
    graphs = _graphs_of_each_density(n)
    lines = [write_graph6(g) for g in graphs]
    for chunk in (1, 7):
        monkeypatch.setattr(codec, "_CHUNK", chunk)
        for g, line in zip(graphs, lines):
            header, *body, newline = graph6_chunks(g)
            assert header + "".join(body) == line and newline == "\n"
            assert [len(piece) for piece in body[:-1]] == [chunk] * (len(body) - 1)
            assert all(0 < len(piece) <= chunk for piece in body)


def test_graph6_checks_run_before_the_first_piece():
    loop = MultiGraph(1, [(0, (0,))])
    with pytest.raises(NotSimple):
        graph6_chunks(loop)  # raised by the call, not by the first next()


def _random_multigraph(rng: random.Random, n: int, top: int) -> MultiGraph:
    """Loops, parallel pairs and plain edges on the vertices 0..top."""
    pairs = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randint(0, top), rng.randint(0, top)
        pairs.append((min(u, v), max(u, v)))
        if rng.random() < 0.2:
            pairs.append(pairs[-1])  # a parallel copy (or a second loop)
    return from_edge_list(n, pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32, 63, 64, 65, 200])
def test_sparse6_bytes_match_the_definition(n):
    rng = random.Random(2000 + n)
    for _ in range(60):
        # top = n - 2 makes the last vertex idle, where 1-padding can clash
        top = n - 2 if n >= 2 and rng.random() < 0.5 else n - 1
        g = _random_multigraph(rng, n, top)
        line = write_sparse6(g)
        assert line == naive_sparse6_line(g)
        h = parse_graph6(line)
        assert h.n == n and _ends(h) == _ends(g)


def test_sparse6_vertex_counts_in_the_36_bit_form():
    # 258 048 is the least count past the 18-bit form. A graph on 300 000
    # vertices would take a tenth of a second to build, so past that one
    # round trip only the count is checked
    g = from_edge_list(258048, [(0, 1), (5, 258047), (1, 2), (1, 2), (258047, 258047)])
    line = write_sparse6(g)
    assert line == naive_sparse6_line(g)
    h = parse_graph6(codec.SPARSE6_HEADER + line)
    assert h.n == g.n and _ends(h) == _ends(g)
    top = 2**36 - 1
    for n in (300000, top):
        assert codec._decode_n(codec._encode_n(n), n) == (n, b"")
    with pytest.raises(MalformedEncoding, match="truncated 36-bit vertex count"):
        parse_graph6(":~~?????")
    with pytest.raises(MalformedEncoding, match="negative vertex count"):
        codec._encode_n(-1)
    with pytest.raises(MalformedEncoding, match="vertex count too large"):
        codec._encode_n(top + 1)


def test_sparse6_power_of_two_clash_is_exercised():
    # n = 2^k, last edge at n-2, and k + 1 or more padding bits: the pad
    # must start with a 0-bit, or it would decode as a loop at n-1
    for n, pairs in (
        (2, [(0, 0)]),
        (4, [(0, 1), (0, 2), (1, 2)]),
        (8, [(0, 6)]),
        (16, [(0, 13), (0, 14), (1, 14), (2, 14)]),
    ):
        g = from_edge_list(n, pairs)
        line = write_sparse6(g)
        assert line == naive_sparse6_line(g)
        assert _ends(parse_graph6(line)) == _ends(g)


def test_empty_graphs_in_both_formats():
    for n in (0, 1, 2, 63):
        g = MultiGraph(n, [])
        assert write_graph6(g) == naive_graph6_line(g)
        assert write_sparse6(g) == naive_sparse6_line(g)
        assert parse_graph6(write_sparse6(g)).n == n


@pytest.mark.parametrize(
    "line",
    [
        "Bww",  # graph6 body one byte too long
        "Dw",  # graph6 body one byte too short
        "D?\x7f",  # a byte above 126
        "D!{",  # a byte below 63
        ":Fa@x" + "\x7f",  # sparse6 body byte above 126
        "~",  # truncated 36-bit header
        "~?",  # truncated 18-bit header
        "~~?????",  # 36-bit header one byte short
        ":~?",  # truncated sparse6 header
        "D?\u00e9",  # non-ascii
    ],
)
def test_malformed_lines_raise_typed_errors(line):
    with pytest.raises(MalformedEncoding):
        parse_graph6(line)


def test_json_vertex_cap_checked_before_construction(monkeypatch):
    built = []
    real_init = MultiGraph.__init__

    def spy(self, n, edges):
        built.append(n)
        real_init(self, n, edges)

    monkeypatch.setattr(MultiGraph, "__init__", spy)
    doc = {"vertices": 51, "edges": [{"id": 0, "ends": [0, 1]}]}
    with pytest.raises(VertexCountOverflow, match="51 vertices exceeds cap 50"):
        read_multigraph_json_full(doc, cap=50)
    with pytest.raises(VertexCountOverflow):
        read_multigraph_json_full(json.dumps(doc), cap=50)
    assert built == []
    assert read_multigraph_json_full(doc, cap=51)[0].n == 51
    assert built == [51]


def test_corpus_lines_roundtrip_byte_exact(cubic14):
    from girthlab.corpus import corpus_lines

    for line in corpus_lines():
        assert write_graph6(parse_graph6(line)) == line


# --- multigraph JSON ---

def test_json_theta_graph_roundtrip():
    # two vertices, three parallel edges
    g = MultiGraph(2, list(enumerate([(0, 1)] * 3)))
    doc = write_multigraph_json(g)
    back = read_multigraph_json(doc)
    assert back == g


def test_json_empty_and_loop():
    assert read_multigraph_json({"vertices": 0, "edges": []}).n == 0
    g = read_multigraph_json({"vertices": 1, "edges": [{"id": 0, "ends": [0]}]})
    assert g.edge(0).is_loop


def test_json_scheme_roundtrip():
    k4 = families.complete(4)
    scheme = unique_cubic_scheme(k4)
    doc = write_multigraph_json(k4, scheme)
    g, scheme2 = read_multigraph_json_full(json.dumps(doc))
    assert g == k4
    assert scheme2 == scheme


def test_json_schema_violations():
    with pytest.raises(SchemaViolation):
        read_multigraph_json({"edges": []})
    with pytest.raises(SchemaViolation):
        read_multigraph_json({"vertices": 1, "edges": [{"id": 0}]})
    with pytest.raises(SchemaViolation):
        read_multigraph_json({"vertices": 1, "edges": [{"id": 0, "ends": []}]})
    with pytest.raises(SchemaViolation):
        read_multigraph_json("not json at all {")
    # bool subclasses int, but a JSON true or false is no count or id
    for doc, msg in (
        ({"vertices": True, "edges": []}, "'vertices' must be"),
        ({"vertices": 3, "edges": [{"id": True, "ends": [0, 1]}]}, "edge id must be"),
        ({"vertices": 3, "edges": [{"id": 3, "ends": [2, False]}]}, "edge 3: 'ends' must"),
        ({"vertices": 2, "edges": [{"id": 0, "ends": [True]}]}, "edge 0: 'ends' must"),
    ):
        with pytest.raises(SchemaViolation, match=msg):
            read_multigraph_json(doc)


@pytest.mark.parametrize("field", ["edge", "tail", "end"])
def test_json_arc_ref_booleans_are_not_integers(field):
    k4 = families.complete(4)
    doc = write_multigraph_json(k4, unique_cubic_scheme(k4))
    ref = doc["scheme"][1][0]  # at vertex 1: its edge, tail and end are 0 or 1
    assert ref[field] in (0, 1)
    ref[field] = bool(ref[field])
    with pytest.raises(SchemaViolation, match="arc ref needs integer"):
        read_multigraph_json_full(doc)


def test_json_dangling_endpoint():
    from girthlab.errors import DanglingEndpoint

    with pytest.raises(DanglingEndpoint):
        read_multigraph_json({"vertices": 1, "edges": [{"id": 0, "ends": [0, 3]}]})


def test_json_invalid_scheme_rejected():
    k4 = families.complete(4)
    doc = write_multigraph_json(k4, unique_cubic_scheme(k4))
    doc["scheme"][0] = doc["scheme"][0][:2]  # rotation no longer covers out(v)
    with pytest.raises(InvalidScheme):
        read_multigraph_json_full(doc)
