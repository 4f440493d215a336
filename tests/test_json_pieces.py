"""JSON records are written in pieces of at most `codec._PIECE` list items
or object members. Whatever the piece size, the bytes are those of one
json.dumps of the record's to_json() dict, and writing a record holds
neither its dict tree nor its whole text."""

from __future__ import annotations

import io
import json
import sys
import tracemalloc

import pytest

from girthlab import cli, codec, families
from girthlab.codec import parse_graph6, write_multigraph_json, write_sparse6
from girthlab.errors import GirthLabError
from girthlab.girth import girth_report
from girthlab.maps import decompose_112, map_from_222
from girthlab.multigraph import from_edge_list
from girthlab.schemes import decompose_011, truncate, unique_cubic_scheme

PIECES = (1, 7)
SEPARATORS = (",", ":")
real_emit = cli._emit


def honeycomb(w: int, h: int):
    """The hexagonal torus as a brick wall of h rows of 2w vertices (h
    even): each vertex has its two row neighbours and one vertical edge."""
    at = lambda r, c: (r % h) * 2 * w + c % (2 * w)
    pairs = [(at(r, c), at(r, c + 1)) for r in range(h) for c in range(2 * w)]
    pairs += [(at(r, c), at(r + 1, c)) for r in range(h) for c in range(2 * w) if (r + c) % 2 == 0]
    return from_edge_list(2 * w * h, pairs)


def expected_doc(command: str, g) -> dict:
    """One graph's record, made from the library's to_json() dicts."""
    try:
        if command == "analyze":
            return girth_report(g).to_json()
        if command == "011":
            lam, scheme = decompose_011(g)
            return {"mode": "011", "lambda": write_multigraph_json(lam, scheme)}
        if command == "222":
            return {"mode": "222", "map": map_from_222(g).to_json()}
        m, witness = decompose_112(g)
        return {"mode": "112", "map": m.to_json(), "witness": witness}
    except GirthLabError as exc:
        return {"error": str(exc)}


@pytest.fixture(scope="module")
def graphs(cubic14, extension):
    """Both bundled corpora, then one graph per command whose lists are
    longer than a piece of the default size."""
    large = [
        families.prism(100),  # analyze; (1,1,2)
        truncate(unique_cubic_scheme(families.prism(40))).graph,  # (0,1,1)
        honeycomb(6, 8),  # (2,2,2)
    ]
    return cubic14 + extension + [(f"family:{i}", g) for i, g in enumerate(large)]


def assert_same(got: str, want: str) -> None:
    """got == want, reporting only the first difference: pytest's own diff
    of texts this long would take minutes."""
    if got != want:
        k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(map(len, (got, want))))
        pytest.fail(f"first difference at {k}: {got[k - 30:k + 30]!r} != {want[k - 30:k + 30]!r}")


def emitted(records, fmt: str) -> str:
    out = io.StringIO()
    stdout, sys.stdout = sys.stdout, out
    try:
        real_emit(records, fmt, None)
    finally:
        sys.stdout = stdout
    return out.getvalue()


@pytest.mark.parametrize("command", ["analyze", "011", "112", "222"])
def test_records_in_pieces_are_the_bytes_of_one_dumps(graphs, monkeypatch, command):
    docs = [dict(expected_doc(command, g), id=gid) for gid, g in graphs]
    family = {"analyze": -3, "112": -3, "011": -2, "222": -1}[command]
    assert "error" not in docs[family]
    lines = [json.dumps(doc, separators=SEPARATORS) for doc in docs]
    # the command's own records, from graphs parsed once (reading is tested elsewhere)
    records = []
    monkeypatch.setattr(cli, "iter_graphs", lambda paths, cap: ((i, g, None) for i, g in graphs))
    monkeypatch.setattr(cli, "_emit", lambda recs, fmt, text_of: records.extend(recs))
    argv = ["analyze"] if command == "analyze" else ["decompose", "--mode", command]
    cli.main([*argv, "--format", "json"])
    for piece in PIECES:
        monkeypatch.setattr(codec, "_PIECE", piece)
        assert_same(emitted(records, "json"), "".join(line + "\n" for line in lines))
        assert_same(emitted(records, "json-array"), "[" + ",".join(lines) + "]\n")


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("fmt", ["json", "json-array"])
def test_generate_writes_one_object_in_pieces(monkeypatch, capsys, piece, fmt):
    monkeypatch.setattr(codec, "_PIECE", piece)
    assert cli.main(["generate", "prism", "100", "--format", fmt]) == 0
    doc = write_multigraph_json(families.prism(100))
    assert_same(capsys.readouterr().out, json.dumps(doc, separators=SEPARATORS) + "\n")


@pytest.mark.parametrize("fmt", ["json", "json-array"])
def test_a_non_ascii_id_is_escaped_as_json_dumps_does(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.setattr(codec, "_PIECE", 1)
    path = tmp_path / "grafo-ñ.s6"
    g = parse_graph6(write_sparse6(families.prism(5)))
    path.write_text(write_sparse6(g) + "\n")
    assert cli.main(["decompose", "--mode", "112", "--format", fmt, str(path)]) == 0
    line = json.dumps(dict(expected_doc("112", g), id=f"{path}:1"), separators=SEPARATORS)
    assert "\\u00f1" in line
    assert_same(capsys.readouterr().out, line + "\n" if fmt == "json" else f"[{line}]\n")


def test_only_records_with_large_parts_are_split(monkeypatch):
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(1) or dumps(*a, **k))
    for doc in ({"laws": [{"law": "thm1", "holds": True}], "id": "x"}, {"error": "bad", "id": "y"},
                {"girth": None, "epsilon": {}, "warning": "infinite girth (forest)", "id": "z"}):
        calls.clear()
        assert "".join(codec.json_pieces(doc)) == dumps(doc, separators=SEPARATORS)
        assert len(calls) == 1


@pytest.mark.parametrize("piece", PIECES)
def test_empty_and_nested_lazy_parts(monkeypatch, piece):
    monkeypatch.setattr(codec, "_PIECE", piece)
    doc = {"a": codec.Lazy([]), "b": {"c": codec.Lazy({}.items(), members=True), "d": 1},
           "e": codec.Lazy(range(9), lambda i: (f"k{i}", [i]), members=True), "id": "\u00e9"}
    text = "".join(codec.json_pieces(doc))
    assert text == json.dumps(codec.json_tree(doc), separators=SEPARATORS)
    assert text.startswith('{"a":[],"b":{"c":{},"d":1},"e":{"k0":[0],')


class Sink:
    """A stdout that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)

    def writelines(self, texts) -> None:
        for text in texts:
            self.write(text)

    def flush(self) -> None:
        pass


def test_writing_a_large_record_holds_neither_its_tree_nor_its_text(tmp_path, monkeypatch):
    path = tmp_path / "prism.s6"
    path.write_text(write_sparse6(families.prism(1250)) + "\n")
    peaks = []

    def measured_emit(records, fmt, text_of):
        records = list(records)  # the work, before any measuring
        tracemalloc.start()
        try:
            real_emit(records, fmt, text_of)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    sink = Sink()
    monkeypatch.setattr(cli, "_emit", measured_emit)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["decompose", "--mode", "112", "--format", "json", str(path)]) == 0
    # one record of about 130 KB: its tree and whole text would take 10 to 20
    # times that, and one piece takes about a quarter
    assert sink.size > 125_000
    assert peaks[0] < sink.size / 3
