"""Relabelling invariance: a seeded vertex permutation together with a
seeded injective map of the edge ids into a sparse range, negative ids
included, changes no girth fact, law verdict or classification; nor does
writing a graph through each codec that carries it and verifying it from
the file.

The least-vertex filter of the girth-cycle listing depends on the labels,
and so does the order in which the rooted pass meets edges: the original
graph lists its girth cycles with its report kept (over the vertices above
each root), the relabelled one while it counts (over all vertices).
"""

from __future__ import annotations

import json
import random

from girthlab import cli, corpus, families
from girthlab.codec import write_graph6, write_multigraph_json, write_sparse6
from girthlab.errors import GirthLabError
from girthlab.girth import girth, girth_cycles, girth_report
from girthlab.laws import (
    DODECAHEDRON, K4, K33, PETERSEN, PRISM_OR_MOBIUS, Q3, TRUNC011, check_all_laws, classify_g5,
)
from girthlab.maps import map_from_222
from girthlab.multigraph import MultiGraph, from_edge_list
from girthlab.schemes import truncate, unique_cubic_scheme

RNG_SEED = 20


def _sample() -> list[MultiGraph]:
    """Named graphs of each classification case, the girth-regular graphs
    on 16 to 20 vertices, and small random multigraphs: loops, parallel
    edges, pendant trees and several components."""
    rng = random.Random(RNG_SEED)
    graphs = [
        families.complete(4), families.complete_bipartite(3, 3), families.cube_q3(),
        families.petersen(), families.dodecahedron(), families.heawood(),
        families.prism(7), families.mobius(6), truncate(unique_cubic_scheme(families.prism(4))).graph,
    ]
    graphs += [g for _, g in corpus.iter_corpus(corpus.GIRTHREG_EXT)]
    for _ in range(40):
        n = rng.randint(2, 9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n, 2 * n + 2))]
        graphs.append(from_edge_list(n, pairs))
    return graphs


def _relabelled(g: MultiGraph, rng: random.Random) -> tuple[MultiGraph, list[int], dict[int, int]]:
    """g with vertex v renamed perm[v] and edge e renamed ids[e]."""
    perm = rng.sample(range(g.n), g.n)
    m = g.edge_count
    ids = dict(zip((e.id for e in g.edges), rng.sample(range(-10 * m - 7, 10 * m + 7), m)))
    edges = [(ids[e.id], tuple(perm[v] for v in e.ends)) for e in g.edges]
    rng.shuffle(edges)
    return MultiGraph(g.n, edges), perm, ids


def _case(g: MultiGraph) -> tuple | None:
    """The classification case with its family, n and base-vertex count,
    and the Euler characteristic and face count of the map it rests on."""
    if not (g.is_simple and g.is_connected() and g.is_regular() == 3):
        return None
    rep = girth_report(g)
    if rep.regular is None or rep.girth > 5:
        return None
    c = classify_g5(g)
    detail = tuple(c.detail.get(key) for key in ("family", "n", "baseVertices"))
    m = c.witness[0] if rep.regular == (1, 1, 2) else map_from_222(g) if rep.regular == (2, 2, 2) else None
    faces = None if m is None else (m.euler_characteristic, len(m.faces))
    return c.case, detail, faces


def test_relabelling_changes_no_girth_fact_law_or_case():
    rng = random.Random(RNG_SEED)
    cases = set()
    for g in _sample():
        h, perm, ids = _relabelled(g, rng)
        back = {new: old for old, new in ids.items()}
        assert girth(h) == girth(g)
        if girth(g) is None:
            continue
        rep_g = girth_report(g)
        cycles_h = girth_cycles(h)  # listed while h counts its report
        rep_h = girth_report(h)
        assert (rep_h.girth, rep_h.regular, rep_h.cycle_count) == (rep_g.girth, rep_g.regular, rep_g.cycle_count)
        assert sorted(rep_h.epsilon.values()) == sorted(rep_g.epsilon.values())
        assert {ids[e]: c for e, c in rep_g.epsilon.items()} == dict(rep_h.epsilon)
        assert sorted(rep_h.signatures.values()) == sorted(rep_g.signatures.values())
        assert all(rep_h.signatures[perm[v]] == sig for v, sig in rep_g.signatures.items())
        assert {frozenset(back[e] for e in c) for c in cycles_h} == set(girth_cycles(g))
        if g.is_connected():
            verdicts = [(r.law_id, r.applicable, r.holds) for r in check_all_laws(g)]
            assert [(r.law_id, r.applicable, r.holds) for r in check_all_laws(h)] == verdicts, g
        case = _case(g)
        assert _case(h) == case, g
        cases.add(case and case[0])
    assert {TRUNC011, PRISM_OR_MOBIUS, K4, K33, Q3, PETERSEN, DODECAHEDRON} <= cases


def _verdicts(g: MultiGraph) -> list | str:
    """(law, applicable, holds) of each law, or why verify skips g."""
    try:
        return [[r.law_id, r.applicable, r.holds] for r in check_all_laws(g)]
    except GirthLabError as exc:
        return str(exc)


def test_every_codec_carries_the_law_verdicts(tmp_path, capsys):
    # graph6 and sparse6 renumber the edge ids, so the laws read new arc
    # maps and ladder labels
    graphs = _sample()
    for name, write in (("g6", write_graph6), ("s6", write_sparse6),
                        ("json", lambda g: json.dumps(write_multigraph_json(g)))):
        carried = [g for g in graphs if g.is_simple or name != "g6"]
        path = tmp_path / f"sample.{name}"
        path.write_text("".join(write(g) + "\n" for g in carried))
        assert cli.main(["verify", "--format", "json", str(path)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        got = [r.get("skipped") or [[law["law"], law["applicable"], law["holds"]] for law in r["laws"]]
               for r in records]
        assert got == [_verdicts(g) for g in carried], name
        assert len(carried) >= 60
