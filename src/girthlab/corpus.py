"""Access to the bundled graph6 corpora.

cubic_le14.g6 holds every connected cubic simple graph on 4..14 vertices
(1 + 2 + 5 + 19 + 85 + 509 = 621 graphs); girthreg_ext_16_20.g6 extends
it with the girth-regular graphs of girth <= 5 on 16/18/20 vertices.
Both files are produced once by tools/gen_corpus.py, which is
independent of this library.
"""

from __future__ import annotations

from importlib.resources import files
from typing import Iterator

from .codec import parse_graph6
from .multigraph import MultiGraph

CUBIC_LE14 = "cubic_le14.g6"
GIRTHREG_EXT = "girthreg_ext_16_20.g6"


def corpus_lines(name: str = CUBIC_LE14) -> list[str]:
    text = files("girthlab.data").joinpath(name).read_text()
    return [line for line in text.splitlines() if line.strip()]


def iter_corpus(name: str = CUBIC_LE14) -> Iterator[tuple[str, MultiGraph]]:
    """Yield (graph id, graph); ids are '<file>:<line number>'."""
    for i, line in enumerate(corpus_lines(name), start=1):
        yield f"{name}:{i}", parse_graph6(line)
