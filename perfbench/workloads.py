"""The three workloads: seeded inputs, CLI invocations and their checks.

Every workload is batch work for one closed-loop client: the benchmark
runs one `girthlab` invocation at a time, with default flags apart from
`--format json`, and the next only after the previous one has exited.

- corpus_laws: `verify`, then `census`, over both bundled corpora, every
  graph relabelled by a seeded permutation, replicated and shuffled.
  Thousands of graphs of at most 20 vertices, so per-graph fixed costs
  dominate: laws, isomorphism, repeated girth calls, graph6 parsing and
  the CLI's record loop, thread pool and buffering.
- family_girth: `analyze`, then `decompose --mode 011/112/222`, on large
  sparse graphs at two sizes a factor of 4 apart, one input per family.
  The girth layer (ε, signatures, cycle listing) is nearly
  all the time; isomorphism never runs.
- family_truncate: `truncate` on large cubic graphs and on JSON
  multigraphs with parallel edges and a seeded dihedral scheme. The
  girth-free path: schemes plus the graph6 encoder, with large outputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import check
import graphs

NAMES = ("corpus_laws", "family_girth", "family_truncate")
WORK_DIR = Path("perfbench") / "_work"
CORPORA = ("src/girthlab/data/cubic_le14.g6", "src/girthlab/data/girthreg_ext_16_20.g6")

CORPUS_REPLICATION = 3
# family_girth vertex counts, each family at two sizes a factor of 4 apart;
# the honeycomb tori have 12 x 12 and 24 x 24 hexagons
LADDER_SIZES = (192, 768)
HONEYCOMB_SIDES = (12, 24)


@dataclass
class Invocation:
    argv: list[str]  # arguments after `python -m girthlab.cli`
    check: check.Check


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[Invocation]
    inputs: dict[str, str] = field(default_factory=dict)  # path -> sha256
    sizes: tuple[tuple[int, int], ...] = ()  # (n, 4n) pairs for girth.report_slope


def _write(root: Path, wl: Workload, name: str, text: str) -> str:
    rel = WORK_DIR / wl.name / name
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode("ascii")
    path.write_bytes(data)
    wl.inputs[str(rel)] = hashlib.sha256(data).hexdigest()
    return str(rel)


# --- corpus_laws ---

def _corpus_laws(root: Path, wl: Workload, rng: random.Random) -> None:
    base = []
    for rel in CORPORA:
        for line in (root / rel).read_text().splitlines():
            if line.strip():
                base.append(graphs.decode_graph6(line))
    buckets: Counter = Counter()
    for n, edges in base:
        facts = graphs.naive_facts(n, edges)
        buckets[(facts["girth"], facts["regular"])] += CORPUS_REPLICATION
    lines = [
        graphs.encode_graph6(*graphs.relabel(n, edges, rng))
        for _ in range(CORPUS_REPLICATION)
        for n, edges in base
    ]
    rng.shuffle(lines)
    path = _write(root, wl, "corpus.g6", "\n".join(lines) + "\n")
    gids = [f"{path}:{i}" for i in range(1, len(lines) + 1)]
    wl.invocations = [
        Invocation(["verify", "--format", "json", path],
                   check.RecordCheck([(g, None) for g in gids],
                                     check.compare_laws, check.damage_laws)),
        Invocation(["census", "--format", "json", path],
                   check.CensusCheck(len(lines), dict(buckets))),
    ]


# --- family_girth ---

def _families(rng: random.Random) -> dict[str, list[tuple]]:
    """name -> [(n, edges, known facts)] at both sizes; the facts follow
    from each construction and are cross-checked by brute force."""
    out: dict[str, list[tuple]] = {k: [] for k in ("prism", "mobius", "circulant", "truncation", "honeycomb")}
    for n, side in zip(LADDER_SIZES, HONEYCOMB_SIDES):
        out["prism"].append(graphs.prism(n // 2) + ((4, (1, 1, 2), n // 2),))
        out["mobius"].append(graphs.mobius(n // 2) + ((4, (1, 1, 2), n // 2),))
        out["circulant"].append(graphs.circulant(n, 7) + ((4, (2, 2, 2, 2), n),))
        cubic = graphs.random_cubic(n // 3, rng)
        out["truncation"].append(graphs.vertex_truncation(*cubic) + ((3, (0, 1, 1), n // 3),))
        out["honeycomb"].append(graphs.honeycomb(side, side) + ((6, (2, 2, 2), side * side),))
    return out


def _report(facts: dict) -> dict:
    return {
        "girth": facts["girth"],
        "cycles": facts["cycles"],
        "epsilon": {str(i): c for i, c in enumerate(facts["epsilon"])},
        "signatures": {str(v): list(s) for v, s in enumerate(facts["signatures"])},
        "regular": list(facts["regular"]),
    }


def _lambda(n: int, edges: list, facts: dict) -> dict:
    """The base of a (0,1,1) graph: girth cycles numbered by least vertex,
    matching edges keep their ids, rotations listed in arc order."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    matching = []
    for eid, ((u, v), c) in enumerate(zip(edges, facts["epsilon"])):
        if c:
            adj[u].append(v)
            adj[v].append(u)
        else:
            matching.append((eid, u, v))
    cycle_of: dict[int, int] = {}
    cycles = 0
    for v in range(n):  # increasing v, so cycles are numbered by least vertex
        if v not in cycle_of:
            ci, cycles = cycles, cycles + 1
            stack = [v]
            cycle_of[v] = ci
            while stack:
                for y in adj[stack.pop()]:
                    if y not in cycle_of:
                        cycle_of[y] = ci
                        stack.append(y)
    base_edges = [(eid, *sorted((cycle_of[u], cycle_of[v]))) for eid, u, v in matching]
    rotation: dict[int, list] = {}
    for tail, eid, end in graphs.arcs_of(base_edges):
        rotation.setdefault(tail, []).append({"edge": eid, "tail": tail, "end": end})
    return {
        "vertices": len(rotation),
        "edges": [{"id": eid, "ends": [a, b]} for eid, a, b in base_edges],
        "scheme": [rotation[c] for c in sorted(rotation)],
    }


def _decomposition(name: str, n: int, edges: list, facts: dict) -> tuple | None:
    """(mode, expected record, compare, damage) for a family graph's
    decomposition, or None for the circulant, which has none."""
    if name == "truncation":
        return "011", _lambda(n, edges, facts), check.compare_lambda, check.damage_lambda
    if name in ("prism", "mobius"):
        eps = facts["epsilon"]
        rings = 2 if name == "prism" else 1
        return "112", {
            "mode": "112", "chi": rings, "faces": n // 2, "faceLengths": [2],
            "skeletonVertices": rings, "skeletonEdges": n // 2,
            "witness": {"X": [i for i, c in enumerate(eps) if c == 1],
                        "Y": [i for i, c in enumerate(eps) if c == 2]},
        }, check.compare_map, check.damage_map
    if name == "honeycomb":
        return "222", {
            "mode": "222", "chi": 0, "faces": n // 2, "faceLengths": [6],
            "skeletonVertices": n, "skeletonEdges": len(edges), "nonOrientableForced": False,
        }, check.compare_map, check.damage_map
    return None


def _family_girth(root: Path, wl: Workload, rng: random.Random) -> None:
    """One input file per family, holding its graph at both sizes, so the
    CLI's two worker threads overlap only while the smaller graph runs.
    With every graph in one input they would contend for the interpreter
    lock for seconds, and that contention, not the girth layer, would set
    the run-to-run spread."""
    wl.sizes = (LADDER_SIZES, tuple(2 * side * side for side in HONEYCOMB_SIDES))
    analyze, decompose = [], []
    for name, items in _families(rng).items():
        rows = []
        for n, edges, (gir, sig, cycles) in items:
            n, edges = graphs.relabel(n, edges, rng)
            edges = graphs.sparse6_order(edges)
            facts = graphs.naive_facts(n, edges)
            if (facts["girth"], facts["regular"], facts["cycles"]) != (gir, sig, cycles):
                raise AssertionError(f"benchmark generator: {name} on {n} vertices")
            rows.append((n, edges, facts))
        path = _write(root, wl, f"{name}.s6",
                      "".join(graphs.encode_sparse6(n, edges) + "\n" for n, edges, _ in rows))
        gids = [f"{path}:{i}" for i in range(1, len(rows) + 1)]
        analyze.append(Invocation(
            ["analyze", "--format", "json", path],
            check.RecordCheck([(gid, _report(facts)) for gid, (_, _, facts) in zip(gids, rows)],
                              check.compare_report, check.damage_report)))
        expected = [_decomposition(name, *row) for row in rows]
        if expected[0]:
            mode, _, compare, damage = expected[0]
            decompose.append(Invocation(
                ["decompose", "--mode", mode, "--format", "json", path],
                check.RecordCheck([(gid, e[1]) for gid, e in zip(gids, expected)],
                                  compare, damage)))
    wl.invocations = analyze + decompose


# --- family_truncate ---

CUBIC_SIZES = (500, 1000)      # truncations on 1500 and 3000 vertices
MULTIGRAPH_SIZES = (300, 400)  # valence 5: truncations on 1500 and 2000


def _multigraph(n: int, rng: random.Random) -> tuple[list, dict]:
    """Loop-free valence-5 multigraph (a doubled cycle plus a perfect
    matching) with shuffled edge ids and a seeded rotation per vertex."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(i, (i + 1) % n) for i in range(n)] * 2
    pairs += [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
    ids = list(range(len(pairs)))
    rng.shuffle(ids)
    m_edges = [(eid, u, v) for eid, (u, v) in zip(ids, pairs)]
    rotation: dict[int, list] = {}
    for arc in graphs.arcs_of(m_edges):
        rotation.setdefault(arc[0], []).append(arc)
    for arcs in rotation.values():
        rng.shuffle(arcs)
    return m_edges, rotation


def _family_truncate(root: Path, wl: Workload, rng: random.Random) -> None:
    cubic_lines, expected = [], []
    for size in CUBIC_SIZES:
        n, edges = graphs.random_cubic(size, rng)
        cubic_lines.append(graphs.encode_sparse6(n, edges))
        m_edges = [(eid, u, v) for eid, (u, v) in enumerate(graphs.sparse6_order(edges))]
        rotation: dict[int, list] = {}
        for arc in graphs.arcs_of(m_edges):
            rotation.setdefault(arc[0], []).append(arc)
        expected.append(graphs.truncation_graph6(m_edges, rotation))
    json_lines = []
    for size in MULTIGRAPH_SIZES:
        m_edges, rotation = _multigraph(size, rng)
        doc = {
            "vertices": size,
            "edges": [{"id": eid, "ends": [u, v]} for eid, u, v in m_edges],
            "scheme": [[{"edge": e, "tail": t, "end": x} for t, e, x in rotation[v]]
                       for v in range(size)],
        }
        json_lines.append(json.dumps(doc, separators=(",", ":")))
        expected.append(graphs.truncation_graph6(m_edges, rotation))
    cubic = _write(root, wl, "cubic.s6", "\n".join(cubic_lines) + "\n")
    multi = _write(root, wl, "multigraphs.jsonl", "\n".join(json_lines) + "\n")
    wl.invocations = [
        Invocation(["truncate", "--format", "json", cubic, multi], check.LinesCheck(expected)),
    ]


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate the workload's inputs under the work directory of the
    checkout at `root`; the same seed writes byte-identical files."""
    wl = Workload(name, seed, [])
    rng = random.Random(f"{name}:{seed}")
    {"corpus_laws": _corpus_laws, "family_girth": _family_girth,
     "family_truncate": _family_truncate}[name](root, wl, rng)
    return wl


def empty_input(root: Path) -> str:
    """An empty graph file: the CLI's fixed start-up cost runs on it."""
    rel = WORK_DIR / "empty.g6"
    (root / rel).parent.mkdir(parents=True, exist_ok=True)
    (root / rel).write_bytes(b"")
    return str(rel)
