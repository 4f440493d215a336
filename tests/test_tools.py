"""A smoke test for tools/gen_corpus.py, which regenerates the bundled
corpora; the full run takes too long for the test suite, so the smallest
orders are checked against the shipped file."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_gen_corpus():
    spec = importlib.util.spec_from_file_location("gen_corpus", ROOT / "tools" / "gen_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_corpus_reproduces_the_smallest_cubic_graphs():
    gen = _load_gen_corpus()
    levels = gen.generate_connected_cubic(8)
    assert {n: len(graphs) for n, graphs in levels.items()} == {4: 1, 6: 2, 8: 5}
    lines = [gen.graph6_line(n, cert[1:]) for n in sorted(levels) for cert in levels[n]]
    shipped = (ROOT / "src" / "girthlab" / "data" / "cubic_le14.g6").read_text().splitlines()
    assert lines == shipped[:8]
