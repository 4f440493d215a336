from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import weakref
from importlib.resources import files
from pathlib import Path

import pytest

import girthlab
from girthlab import cli, families
from girthlab.cli import main
from girthlab.codec import parse_graph6, write_graph6, write_multigraph_json, write_sparse6
from girthlab.corpus import CUBIC_LE14
from girthlab.multigraph import MultiGraph, from_edge_list
from girthlab.schemes import DihedralScheme, truncate, unique_cubic_scheme

CORPUS = str(files("girthlab.data").joinpath(CUBIC_LE14))


@pytest.fixture()
def petersen_file(tmp_path):
    p = tmp_path / "petersen.g6"
    p.write_text(write_graph6(families.petersen()) + "\n")
    return p


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_analyze_text(petersen_file, capsys):
    code, out = run(capsys, "analyze", petersen_file)
    assert code == 0
    assert "girth=5" in out and "regular=(4,4,4)" in out


def test_analyze_json_stream(petersen_file, capsys):
    code, out = run(capsys, "analyze", "--format", "json", petersen_file)
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["girth"] == 5 and doc["cycles"] == 12
    assert doc["regular"] == [4, 4, 4]


def test_analyze_forest_warns_but_exits_zero(tmp_path, capsys):
    from girthlab.multigraph import from_edge_list

    p = tmp_path / "forest.g6"
    p.write_text(write_graph6(from_edge_list(4, [(0, 1), (1, 2), (1, 3)])) + "\n")
    code, out = run(capsys, "analyze", p)
    assert code == 0
    assert "Infinite" in out


def test_analyze_parse_error_sets_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.g6"
    p.write_text("!!!notagraph\n")
    code, out = run(capsys, "analyze", p)
    assert code == 1
    assert "ERROR" in out


def test_analyze_json_array(tmp_path, capsys):
    p = tmp_path / "two.g6"
    p.write_text(
        write_graph6(families.complete(4)) + "\n" + write_graph6(families.cube_q3()) + "\n"
    )
    code, out = run(capsys, "analyze", "--format", "json-array", p)
    assert code == 0
    docs = json.loads(out)
    assert [d["girth"] for d in docs] == [3, 4]


def test_verify_past_a_thousand_vertices(tmp_path, capsys):
    from girthlab.schemes import truncate, unique_cubic_scheme

    p = tmp_path / "trunc.g6"
    p.write_text(write_graph6(truncate(unique_cubic_scheme(families.prism(170))).graph) + "\n")
    code, out = run(capsys, "verify", "--max-vertices", "2000", "--format", "json", p)
    assert code == 0
    laws = {law["law"]: law for law in json.loads(out)["laws"]}
    assert laws["thm3.6"]["applicable"] and laws["thm3.6"]["holds"] is True


def test_generate_graph6_and_json(capsys):
    code, out = run(capsys, "generate", "petersen")
    assert code == 0
    from girthlab.codec import parse_graph6
    from girthlab.isomorphism import are_isomorphic

    g = parse_graph6(out.strip())
    assert are_isomorphic(g, families.petersen())[0]
    code, out = run(capsys, "generate", "prism", "5", "--format", "json")
    doc = json.loads(out)
    assert doc["vertices"] == 10 and len(doc["edges"]) == 15


def test_generate_multigraph_family_emits_sparse6(capsys):
    # a Cayley connection set with a forced double edge would not be
    # simple; instead exercise JSON emission of a simple family
    code, out = run(capsys, "generate", "cayleyCyclic", "8", "1", "4", "7")
    assert code == 0
    assert not out.startswith(":")  # simple -> graph6


def test_truncate_pipeline(tmp_path, capsys):
    p = tmp_path / "k4.g6"
    p.write_text(write_graph6(families.complete(4)) + "\n")
    code, out = run(capsys, "truncate", p)
    assert code == 0
    from girthlab.codec import parse_graph6

    tr = parse_graph6(out.strip())
    assert tr.n == 12


def test_truncate_json_input_with_attached_scheme(tmp_path, capsys):
    from girthlab.codec import write_multigraph_json
    from girthlab.multigraph import Arc, MultiGraph
    from girthlab.schemes import DihedralScheme

    base = MultiGraph(2, list(enumerate([(0, 1)] * 5)))
    rot0 = tuple(Arc(0, i, 0) for i in range(5))
    rot1 = tuple(Arc(1, i, 1) for i in range(5))
    scheme = DihedralScheme.from_rotations(base, [rot0, rot1])
    p = tmp_path / "hoso.json"
    p.write_text(json.dumps(write_multigraph_json(base, scheme)) + "\n")
    code, out = run(capsys, "truncate", p)
    assert code == 0
    from girthlab.codec import parse_graph6
    from girthlab.isomorphism import are_isomorphic

    assert are_isomorphic(parse_graph6(out.strip()), families.prism(5))[0]


def test_analyze_jsonl_multigraph_input(tmp_path, capsys):
    from girthlab.codec import write_multigraph_json
    from girthlab.multigraph import MultiGraph

    theta = MultiGraph(2, list(enumerate([(0, 1)] * 3)))
    loop = MultiGraph(1, [(0, (0,))])
    p = tmp_path / "multi.jsonl"
    p.write_text(
        json.dumps(write_multigraph_json(theta))
        + "\n"
        + json.dumps(write_multigraph_json(loop))
        + "\n"
    )
    code, out = run(capsys, "analyze", "--format", "json", p)
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["girth"] for d in docs] == [2, 1]


def test_analyze_pretty_printed_json_document(tmp_path, capsys):
    from girthlab.codec import write_multigraph_json

    doc = write_multigraph_json(families.complete(4))
    p = tmp_path / "k4.json"
    p.write_text(json.dumps(doc, indent=2))
    code, out = run(capsys, "analyze", "--format", "json", p)
    assert code == 0
    assert json.loads(out)["girth"] == 3


def test_record_ids_of_json_files(tmp_path, capsys):
    # a file that parses as one JSON document is read whole, so its records
    # are numbered #k, even a .jsonl file of one line; otherwise each line
    # is one record, numbered by its line
    theta = json.dumps(write_multigraph_json(MultiGraph(2, list(enumerate([(0, 1)] * 3)))))
    loop = json.dumps(write_multigraph_json(MultiGraph(1, [(0, (0,))])))
    one, two, array = tmp_path / "one.jsonl", tmp_path / "two.jsonl", tmp_path / "array.json"
    one.write_text(theta + "\n")
    two.write_text(theta + "\n" + loop + "\n")
    array.write_text(f"[{theta},{loop}]\n")
    code, out = run(capsys, "analyze", "--format", "json", one, two, array)
    assert code == 0
    ids = [json.loads(line)["id"] for line in out.splitlines()]
    assert ids == [f"{one}:#1", f"{two}:1", f"{two}:2", f"{array}:#1", f"{array}:#2"]


def test_decompose_112_prism(tmp_path, capsys):
    p = tmp_path / "y5.g6"
    p.write_text(write_graph6(families.prism(5)) + "\n")
    code, out = run(capsys, "decompose", "--mode", "112", "--format", "json", p)
    assert code == 0
    doc = json.loads(out)
    assert doc["map"]["skeleton"]["vertices"] == 2
    assert doc["map"]["chi"] == 2
    assert len(doc["witness"]["Y"]) == 5


def test_decompose_011_emits_scheme_carrying_json(tmp_path, capsys):
    p = tmp_path / "y3.g6"
    p.write_text(write_graph6(families.prism(3)) + "\n")
    code, out = run(capsys, "decompose", "--mode", "011", "--format", "json", p)
    assert code == 0
    doc = json.loads(out)
    lam = doc["lambda"]
    assert lam["vertices"] == 2 and len(lam["edges"]) == 3
    assert len(lam["scheme"]) == 2


def test_decompose_wrong_signature_reports_error(tmp_path, capsys):
    p = tmp_path / "pet.g6"
    p.write_text(write_graph6(families.petersen()) + "\n")
    code, out = run(capsys, "decompose", "--mode", "222", p)
    assert code == 1
    assert "ERROR" in out


def test_verify_exit_zero_on_sound_graphs(tmp_path, capsys):
    p = tmp_path / "sample.g6"
    p.write_text(
        "\n".join(
            write_graph6(g)
            for g in (families.complete(4), families.petersen(), families.mobius(5))
        )
        + "\n"
    )
    code, out = run(capsys, "verify", p)
    assert code == 0
    assert "VIOLATED" not in out


def test_census_directory(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "a.g6").write_text(write_graph6(families.complete(4)) + "\n")
    (d / "b.g6").write_text(write_graph6(families.petersen()) + "\n")
    (d / "c.g6").write_text(write_graph6(families.cube_q3()) + "\n")
    code, out = run(capsys, "census", d)
    assert code == 0
    assert "(2,2,2)" in out and "(4,4,4)" in out
    assert "law violations: 0" in out
    code, out = run(capsys, "census", "--format", "json", d)
    doc = json.loads(out)
    assert doc["total"] == 3 and len(doc["buckets"]) == 3


def test_census_exit_code_on_parse_error(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "bad.g6").write_text("???bogus\n")
    code, out = run(capsys, "census", d)
    assert code == 1


def test_mobius_truncate_pipeline_vertex_count(tmp_path, capsys):
    # |V(Tr)| equals the degree sum of the base: M4 has 8 cubic vertices
    p = tmp_path / "m4.g6"
    p.write_text(write_graph6(families.mobius(4)) + "\n")
    code, out = run(capsys, "truncate", p)
    assert code == 0
    from girthlab.codec import parse_graph6

    tr = parse_graph6(out.strip())
    assert tr.n == 24
    p2 = tmp_path / "tr.g6"
    p2.write_text(write_graph6(tr) + "\n")
    code, out = run(capsys, "analyze", "--format", "json", p2)
    doc = json.loads(out.splitlines()[-1])
    assert doc["girth"] == 3 and doc["regular"] == [0, 1, 1]


def test_census_of_bundled_corpus(tmp_path, capsys):
    from girthlab.multigraph import from_edge_list

    # the 2- and 3-dipoles (two vertices, parallel edges) have girth 2
    dipoles = tmp_path / "dipoles.jsonl"
    dipoles.write_text("".join(
        json.dumps(write_multigraph_json(from_edge_list(2, [(0, 1)] * k))) + "\n" for k in (2, 3)
    ))
    code, out = run(capsys, "census", "--format", "json", CORPUS, dipoles)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 621 + 2
    assert doc["violations"] == []
    code, out = run(capsys, "verify", "--format", "json", dipoles)
    assert code == 0
    for line in out.splitlines():
        laws = {law["law"]: law for law in json.loads(line)["laws"]}
        assert not laws["thm2"]["applicable"]


def test_max_vertices_flag_and_env(tmp_path, capsys, monkeypatch):
    p = tmp_path / "c100.g6"
    p.write_text(write_graph6(families.cycle(100)) + "\n")
    code, out = run(capsys, "analyze", "--max-vertices", "50", p)
    assert code == 1 and "ERROR" in out
    monkeypatch.setenv("GIRTHLAB_MAX_VERTICES", "50")
    code, out = run(capsys, "analyze", p)
    assert code == 1 and "ERROR" in out
    monkeypatch.delenv("GIRTHLAB_MAX_VERTICES")
    code, out = run(capsys, "analyze", p)
    assert code == 0


def test_max_vertices_zero_is_a_cap(petersen_file, capsys):
    code, out = run(capsys, "analyze", "--max-vertices", "0", petersen_file)
    assert code == 1
    assert "10 vertices exceeds cap 0" in out


def test_negative_max_vertices_flag_is_one_error_line(petersen_file, capsys):
    for command in ("analyze", "truncate", "decompose", "verify", "census"):
        extra = ["--mode", "222"] if command == "decompose" else []
        code = main([command, *extra, "--max-vertices", "-1", str(petersen_file)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("girthlab: error: --max-vertices")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["lots", "-3", "1.5"])
def test_bad_env_cap_is_one_error_line(value, petersen_file, capsys, monkeypatch):
    monkeypatch.setenv("GIRTHLAB_MAX_VERTICES", value)
    for command in ("analyze", "verify", "truncate"):
        code = main([command, str(petersen_file)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "GIRTHLAB_MAX_VERTICES" in captured.err


def _unreadable_inputs(tmp_path):
    """Files that cannot be read or decoded, and the (id, a word of the
    error message) of each record they give. JSON nested past the
    recursion limit comes as a whole-file array, as a whole-file document
    and as a JSON line after a readable K4, whose record has no word."""
    missing = tmp_path / "missing.g6"
    bad = tmp_path / "latin1.g6"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    deep = "[" * 100_000
    array, document, lines = (tmp_path / f"deep-{k}.json" for k in ("array", "document", "lines"))
    array.write_text(deep)
    document.write_text('{"vertices": ' + deep)
    lines.write_text(json.dumps(write_multigraph_json(families.complete(4))) + '\n{"edges": ' + deep)
    records = [
        (str(missing), "No such file"),
        (str(bad), "decode"),
        (f"{array}:1", "recursion"),
        (f"{document}:1", "recursion"),
        (f"{lines}:1", None),
        (f"{lines}:2", "recursion"),
    ]
    return [missing, bad, array, document, lines], records


@pytest.mark.parametrize(
    "command", [["analyze"], ["decompose", "--mode", "222"], ["verify"]]
)
def test_unreadable_inputs_become_error_records(command, tmp_path, capsys):
    paths, records = _unreadable_inputs(tmp_path)
    cube = tmp_path / "q3.g6"
    cube.write_text(write_graph6(families.cube_q3()) + "\n")
    code, out = run(capsys, *command, "--format", "json", paths[0], cube, *paths[1:])
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    records.insert(1, (f"{cube}:1", None))
    assert [d["id"] for d in docs] == [gid for gid, _ in records]
    for doc, (_, word) in zip(docs, records):
        assert word in doc["error"] if word else "error" not in doc


def test_unreadable_inputs_in_truncate_and_census(tmp_path, capsys):
    paths, records = _unreadable_inputs(tmp_path)
    errors = [gid for gid, word in records if word]
    code = main(["truncate", *map(str, paths)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.splitlines()) == 1  # the truncation of K4
    assert [line.split(": ERROR")[0] for line in captured.err.splitlines()] == errors
    code, out = run(capsys, "census", "--format", "json", *paths)
    assert code == 1
    doc = json.loads(out)
    assert doc["total"] == 1
    assert [e["graph"] for e in doc["errors"]] == errors


def test_json_input_over_the_cap_is_an_error_record(tmp_path, capsys):
    p = tmp_path / "big.jsonl"
    p.write_text(
        json.dumps({"vertices": 60, "edges": []})
        + "\n"
        + json.dumps({"vertices": 3, "edges": [{"id": 0, "ends": [0, 1]}]})
        + "\n"
    )
    code, out = run(capsys, "analyze", "--max-vertices", "50", p)
    assert code == 1
    assert out == (
        f"{p}:1: ERROR 60 vertices exceeds cap 50\n{p}:2: girth=Infinite (forest)\n"
    )
    p2 = tmp_path / "big.json"
    p2.write_text(json.dumps([{"vertices": 60, "edges": []}]))
    code, out = run(capsys, "analyze", "--max-vertices", "50", p2)
    assert code == 1
    assert out == f"{p2}:#1: ERROR 60 vertices exceeds cap 50\n"


def test_generate_bad_parameters_is_one_error_line(capsys):
    code = main(["generate", "cayleyCyclic", "8", "1", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "girthlab: error: [1, 3] not closed under negation mod 8\n"


@pytest.mark.parametrize("fmt", ["text", "json", "json-array"])
def test_each_record_is_written_before_the_next_graph_is_parsed(
    tmp_path, capsys, monkeypatch, fmt
):
    from girthlab import cli

    p = tmp_path / "many.g6"
    p.write_text("".join(write_graph6(families.prism(n)) + "\n" for n in range(3, 9)))
    parse = cli.iter_graphs
    seen = []

    def written() -> int:
        out = capsys.readouterr().out
        seen.append(out)
        text = "".join(seen)
        return text.count('"id":') if fmt == "json-array" else text.count("\n")

    def spied(*args):
        for k, item in enumerate(parse(*args)):
            assert written() == k
            yield item

    monkeypatch.setattr(cli, "iter_graphs", spied)
    code = main(["analyze", "--format", fmt, str(p)])
    assert code == 0
    assert written() == 6


def test_json_array_on_empty_input(tmp_path, capsys):
    p = tmp_path / "empty.g6"
    p.write_text("")
    code, out = run(capsys, "analyze", "--format", "json-array", p)
    assert code == 0
    assert out == "[]\n"


# runs one command in a fresh interpreter, then names the girthlab modules
# it loaded, and the standard modules that no command needs
LOADED_MODULES = """
import sys
from girthlab.cli import main
main(sys.argv[1:])
print(*sorted(m.removeprefix("girthlab.") for m in sys.modules if m.startswith("girthlab.")))
print(*sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


@pytest.mark.parametrize(
    ("command", "needs", "skips"),
    [
        (["analyze"], {"codec", "girth", "multigraph"}, {"laws", "maps", "schemes", "isomorphism", "partitions"}),
        (["truncate"], {"schemes"}, {"laws", "maps", "isomorphism", "partitions"}),
        (["decompose", "--mode", "112"], {"maps", "schemes"}, {"laws", "isomorphism", "partitions"}),
        (["verify"], {"laws", "isomorphism", "maps", "schemes"}, {"partitions"}),
        (["census"], {"laws", "isomorphism", "maps", "schemes"}, {"partitions"}),
    ],
    ids=["analyze", "truncate", "decompose", "verify", "census"],
)
def test_each_command_loads_only_what_it_runs(command, needs, skips, tmp_path):
    p = tmp_path / "empty.g6"
    p.write_text("")
    env = dict(os.environ, PYTHONPATH=str(Path(girthlab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *command, str(p)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    *_, ours, stdlib = done.stdout.splitlines()
    loaded = set(ours.split())
    assert needs <= loaded and not skips & loaded, sorted(loaded)
    # site loads neither, so a command that does pays for them on every start
    assert stdlib == "", stdlib


def _cli_process(argv, **kwargs):
    """The CLI in a child process whose stdout is block-buffered, as it is
    when a pipe reads it."""
    env = dict(os.environ, PYTHONPATH=str(Path(girthlab.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "girthlab.cli", *map(str, argv)], env=env, **kwargs)


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["verify", "--format", "json"], ["decompose", "--mode", "112"], ["truncate"]],
)
def test_a_reader_that_closes_the_pipe_gets_no_traceback(command, tmp_path):
    p = tmp_path / "input"
    if command == ["truncate"]:
        # one 750 KB graph6 line, written in pieces; the reader leaves inside it
        p.write_text(write_sparse6(families.prism(500)) + "\n")
    else:
        p.write_text(Path(CORPUS).read_text() * 4)  # more output than a pipe holds
    proc = _cli_process([*command, p], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if command == ["truncate"]:
        assert b"\n" not in proc.stdout.read(4096)
    else:
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


PEAK_RSS_OF_CHILD = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "girthlab.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, as Linux reports it")
def test_truncate_memory_does_not_grow_with_the_line(tmp_path):
    # prism(2500) truncates to 15 000 vertices: an 18.7 MB graph6 line.
    # Linux adds the peak of the process that exec'd a child to the
    # child's ru_maxrss, so the CLI starts from a small interpreter.
    p = tmp_path / "prism.s6"
    p.write_text(write_sparse6(families.prism(2500)) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(girthlab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_OF_CHILD, "truncate", str(p)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0
    assert peak_kib < 60 * 1024  # holding the line once would add 18.7 MB


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, as Linux reports it")
def test_truncate_builds_no_second_graph(tmp_path):
    # building the 15 000-vertex truncation of prism(2500) as a MultiGraph
    # took the peak from 22-27 MB to 33-39 MB on Pythons 3.10 to 3.13
    p = tmp_path / "prism.s6"
    p.write_text(write_sparse6(families.prism(2500)) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(girthlab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_OF_CHILD, "truncate", str(p)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0
    assert peak_kib < 30 * 1024


def _random_cubic(n: int, rng: random.Random) -> MultiGraph:
    """A simple cubic graph: an n-cycle plus a random perfect matching of
    chords, under a random vertex order."""
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        chords = [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
        if all((u - v) % n not in (1, n - 1) for u, v in chords):
            g = from_edge_list(n, [(i, (i + 1) % n) for i in range(n)] + chords)
            return g.relabeled(rng.sample(range(n), n))


def _valence_5_scheme(n: int, rng: random.Random) -> DihedralScheme:
    """A doubled n-cycle plus a perfect matching, so with parallel edges,
    under shuffled edge ids and a shuffled rotation at every vertex."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(i, (i + 1) % n) for i in range(n)] * 2 + [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
    g = MultiGraph(n, zip(rng.sample(range(len(pairs)), len(pairs)), pairs))
    return DihedralScheme.from_rotations(g, [rng.sample(g.out_arcs(v), 5) for v in range(n)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_truncate_writes_the_graph6_of_the_truncation_graph(seed, tmp_path, capsys):
    rng = random.Random(seed)
    # as read back: sparse6 numbers the edges, and so the arcs, afresh
    cubic = [parse_graph6(write_sparse6(_random_cubic(n, rng))) for n in (4, 10, 26, 60)]
    schemes = [_valence_5_scheme(n, rng) for n in (2, 6, 14)]
    s6 = tmp_path / "cubic.s6"
    s6.write_text("".join(write_sparse6(g) + "\n" for g in cubic))
    jsonl = tmp_path / "multigraphs.jsonl"
    jsonl.write_text("".join(json.dumps(write_multigraph_json(s.base, s)) + "\n" for s in schemes))
    code, out = run(capsys, "truncate", s6, jsonl)
    assert code == 0
    want = [unique_cubic_scheme(g) for g in cubic] + schemes
    assert out == "".join(write_graph6(truncate(s).graph) + "\n" for s in want)


@pytest.mark.parametrize(
    ("command", "inputs"),
    [
        (["truncate"], "sparse6"),
        (["truncate"], "jsonl"),
        (["analyze", "--format", "json"], "sparse6"),
        (["census"], "sparse6"),
    ],
    ids=["truncate-sparse6", "truncate-jsonl", "analyze", "census"],
)
def test_each_streaming_loop_holds_one_input_graph_at_a_time(
    command, inputs, tmp_path, monkeypatch, capsys
):
    # no gc.collect(): a graph that a name or a reference cycle still holds
    # is alive when the next parse starts
    graphs = [families.petersen(), families.prism(5), from_edge_list(4, [(0, 1), (1, 2), (2, 3)]),
              families.complete(4), families.mobius(4)]
    p = tmp_path / "graphs"
    if inputs == "sparse6":
        p.write_text("".join(write_sparse6(g) + "\n" for g in graphs))
    else:
        p.write_text("".join(
            json.dumps(write_multigraph_json(g, unique_cubic_scheme(g) if g.is_regular() == 3 else None)) + "\n"
            for g in graphs
        ))
    refs: list[weakref.ref] = []
    alive_at_parse = []

    def watched(parse):
        def parse_and_watch(*args, **kwargs):
            alive_at_parse.append(sum(ref() is not None for ref in refs))
            parsed = parse(*args, **kwargs)
            refs.append(weakref.ref(parsed[0] if isinstance(parsed, tuple) else parsed))
            return parsed
        return parse_and_watch

    for name in ("parse_graph6", "read_multigraph_json_full"):
        monkeypatch.setattr(cli, name, watched(getattr(cli, name)))
    main([*command, str(p)])
    capsys.readouterr()
    assert alive_at_parse == [0] * len(graphs)


@pytest.mark.parametrize("layout", ["document", "array"])
def test_no_list_holds_a_json_document_while_it_is_read(layout, tmp_path, monkeypatch, capsys):
    # the parsed tree of a whole-file document or array is handed to the
    # reader item by item, so the reader can drop each part once it is read
    docs = [write_multigraph_json(g, unique_cubic_scheme(g)) for g in (families.prism(4), families.petersen())]
    p = tmp_path / "graphs.json"
    p.write_text(json.dumps(docs if layout == "array" else docs[0], indent=1))
    read = cli.read_multigraph_json_full
    holders = []

    def read_and_look(doc, cap):
        holders.append(sum(isinstance(r, list) for r in gc.get_referrers(doc)))
        return read(doc, cap)

    monkeypatch.setattr(cli, "read_multigraph_json_full", read_and_look)
    main(["analyze", str(p)])
    capsys.readouterr()
    assert holders == [0] * (2 if layout == "array" else 1)


def test_a_pipe_closed_before_the_first_flush_gets_no_traceback(petersen_file):
    # one record stays in the buffer until the command has returned
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(["analyze", petersen_file], stdout=write, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    finally:
        os.close(write)
    assert err == b""
    assert proc.returncode == 1
