"""Command-line front end: analyze, generate, truncate, decompose, verify,
census.

Graphs stream in as graph6/sparse6 lines or multigraph JSON; every
command that emits a graph emits a format every reading command accepts.
Each graph is parsed, worked on and written before the next is read, so
records come out in input order, and the exit status is 0 exactly when
nothing failed to parse and no law was violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from . import families
from .codec import (
    Lazy,
    _graph6_pieces,
    graph6_chunks,
    json_pieces,
    multigraph_shape,
    parse_graph6,
    read_multigraph_json_full,
)
from .errors import GirthLabError, InfiniteGirth
from .multigraph import MultiGraph

if TYPE_CHECKING:  # pragma: no cover
    from .schemes import DihedralScheme

ANALYZE_CAP = 100_000
ENV_CAP = "GIRTHLAB_MAX_VERTICES"


class UsageError(Exception):
    """A bad setting that concerns the whole invocation, not one input."""


def _cap(args: argparse.Namespace, default: int) -> int:
    """The vertex cap: --max-vertices, else $GIRTHLAB_MAX_VERTICES, else
    the default; a negative cap is a usage error from either source."""
    if args.max_vertices is not None:
        source, value = "--max-vertices", str(args.max_vertices)
    else:
        source, value = ENV_CAP, os.environ.get(ENV_CAP)
        if not value:
            return default
    try:
        cap = int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise UsageError(f"{source} must be a nonnegative integer, got {value!r}")
    return cap


# --- input streaming ---

def _read(read: Callable[[], str]) -> str | Exception:
    try:
        return read()
    except (OSError, UnicodeDecodeError) as exc:
        return exc


def _input_files(paths: list[str]) -> Iterator[tuple[str, str | Exception]]:
    """(display name, content or the error that reading it raised) per
    input file; '-' reads stdin."""
    for p in paths:
        if p == "-":
            yield "<stdin>", _read(sys.stdin.read)
            continue
        path = Path(p)
        if path.is_dir():
            for child in sorted(path.iterdir()):
                if child.is_file():
                    yield str(child), _read(child.read_text)
        else:
            yield str(path), _read(path.read_text)


ParsedGraph = tuple[str, "MultiGraph | Exception", "DihedralScheme | None"]


def iter_graphs(paths: list[str], cap: int) -> Iterator[ParsedGraph]:
    """Parse every graph in the inputs, one (id, graph-or-error, scheme)
    per graph, ordered by (file, position); it keeps no graph it has yielded."""
    for name, content in _input_files(paths):
        if isinstance(content, Exception):
            yield name, content, None
            continue
        stripped = content.lstrip()
        docs = None
        if stripped.startswith("["):
            try:
                docs = json.loads(content)
            except (json.JSONDecodeError, RecursionError) as exc:
                yield f"{name}:1", exc, None
                continue
        elif stripped.startswith("{"):
            # one pretty-printed document, or JSON Lines (handled below)
            try:
                docs = [json.loads(content)]
            except (json.JSONDecodeError, RecursionError):
                docs = None
        if docs is not None:
            docs.reverse()  # each document is popped as it is read: no list holds it then
            for k in range(1, len(docs) + 1):
                gid = f"{name}:#{k}"
                try:
                    yield (gid, *read_multigraph_json_full(docs.pop(), cap))
                except GirthLabError as exc:
                    yield gid, exc, None
            continue
        for i, line in enumerate(content.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            gid = f"{name}:{i}"
            try:
                if line.startswith("{"):
                    yield (gid, *read_multigraph_json_full(line, cap))
                else:
                    yield gid, parse_graph6(line, cap=cap), None
            except GirthLabError as exc:
                yield gid, exc, None


Record = tuple[str, dict[str, Any]]


def _emit(records: Iterable[Record], fmt: str,
          text_of: Callable[[str, dict[str, Any]], str]) -> None:
    """Write each record as it arrives, a JSON one in the bounded pieces of
    `json_pieces`; json-array writes the bytes of json.dumps(list) without
    holding the list, or any record's tree or whole text."""
    out = sys.stdout
    if fmt == "json-array":
        out.write("[")
    for k, (gid, doc) in enumerate(records):
        if fmt == "text":
            print(f"{gid}: ERROR {doc['error']}" if "error" in doc else text_of(gid, doc))
        else:
            out.write("," if k and fmt == "json-array" else "")
            out.writelines(json_pieces(dict(doc, id=gid)))
            out.write("\n" if fmt == "json" else "")
        del doc  # each record is gone before the next graph is parsed
    if fmt == "json-array":
        out.write("]\n")


def _run(args: argparse.Namespace, cap: int,
         work: Callable[[MultiGraph], dict[str, Any]],
         text_of: Callable[[str, dict[str, Any]], str]) -> int:
    """Parse, work on and write one graph at a time; 1 when a record is an
    error or shows a violated law, else 0."""
    status = 0

    def records() -> Iterator[Record]:
        nonlocal status
        for gid, g, scheme in iter_graphs(args.paths, cap):
            doc = {"error": str(g)} if isinstance(g, Exception) else work(g)
            del g, scheme  # so that the next graph is parsed without this one
            if "error" in doc or any(
                law["applicable"] and law["holds"] is False for law in doc.get("laws", ())
            ):
                status = 1
            yield gid, doc
            del doc

    _emit(records(), args.format, text_of)
    return status


# --- commands (each imports only what it runs) ---

def cmd_analyze(args: argparse.Namespace) -> int:
    from .girth import girth_report

    def work(g: MultiGraph) -> dict[str, Any]:
        try:
            return girth_report(g).json_shape()
        except InfiniteGirth:
            return {
                "girth": None,
                "cycles": 0,
                "epsilon": {},
                "signatures": {},
                "regular": None,
                "warning": "infinite girth (forest)",
            }

    def text(gid: str, doc: dict[str, Any]) -> str:
        if doc.get("girth") is None:
            return f"{gid}: girth=Infinite (forest)"
        reg = doc["regular"]
        reg_s = "(" + ",".join(map(str, reg)) + ")" if reg else "-"
        return f"{gid}: girth={doc['girth']} cycles={doc['cycles']} regular={reg_s}"

    return _run(args, _cap(args, ANALYZE_CAP), work, text)


def cmd_generate(args: argparse.Namespace) -> int:
    spec = families.FamilySpec(args.family, tuple(args.params))
    g = families.generate(spec)
    if args.format in ("json", "json-array"):
        sys.stdout.writelines(json_pieces(multigraph_shape(g)))
        print()
    else:
        sys.stdout.writelines(graph6_chunks(g))
    return 0


def cmd_truncate(args: argparse.Namespace) -> int:
    from .schemes import _truncation_pairs, unique_cubic_scheme
    cap = _cap(args, ANALYZE_CAP)
    failures = 0
    for gid, g, scheme in iter_graphs(args.paths, cap):
        error = str(g) if isinstance(g, Exception) else None
        if error is None:
            try:
                if scheme is None:
                    scheme = unique_cubic_scheme(g)
                # every check runs before the first piece is written
                sys.stdout.writelines(_graph6_pieces(2 * g.edge_count, _truncation_pairs(scheme)))
            except GirthLabError as exc:
                error = str(exc)
        # the next graph is parsed without this one; an error keeps only its text
        del g, scheme
        if error is not None:
            print(f"{gid}: ERROR {error}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def cmd_decompose(args: argparse.Namespace) -> int:
    from .maps import decompose_112, map_from_222
    from .schemes import decompose_011

    def work(g: MultiGraph) -> dict[str, Any]:
        try:
            if args.mode == "011":
                lam, scheme = decompose_011(g)
                return {"mode": "011", "lambda": multigraph_shape(lam, scheme)}
            if args.mode == "222":
                return {"mode": "222", "map": map_from_222(g).json_shape()}
            m, witness = decompose_112(g)
            xy = {k: Lazy(v) for k, v in witness.items()}
            return {"mode": "112", "map": m.json_shape(), "witness": xy}
        except GirthLabError as exc:
            return {"error": str(exc)}

    def text(gid: str, doc: dict[str, Any]) -> str:
        if doc["mode"] == "011":
            lam = doc["lambda"]
            return (
                f"{gid}: base graph with {lam['vertices']} vertices, "
                f"{len(lam['edges'])} edges; scheme attached"
            )
        m = doc["map"]
        face_lengths = sorted(len(f) for f in m["faces"])
        return (
            f"{gid}: map with {m['skeleton']['vertices']} vertices, "
            f"{len(m['skeleton']['edges'])} edges, {len(m['faces'])} faces "
            f"(lengths {face_lengths}), chi={m['chi']}"
        )

    return _run(args, _cap(args, ANALYZE_CAP), work, text)


def cmd_verify(args: argparse.Namespace) -> int:
    from .isomorphism import DEFAULT_ISO_CAP
    from .laws import check_all_laws
    cap = _cap(args, DEFAULT_ISO_CAP)

    def work(g: MultiGraph) -> dict[str, Any]:
        try:
            laws = check_all_laws(g, iso_cap=cap)
        except GirthLabError as exc:
            return {"skipped": str(exc), "laws": []}
        return {"laws": [law.to_json() for law in laws]}

    def text(gid: str, doc: dict[str, Any]) -> str:
        if "skipped" in doc:
            return f"{gid}: skipped ({doc['skipped']})"
        parts = []
        for law in doc["laws"]:
            if not law["applicable"]:
                continue
            state = {True: "holds", False: "VIOLATED", None: "unverified"}[law["holds"]]
            parts.append(f"{law['law']}={state}")
        return f"{gid}: " + (" ".join(parts) if parts else "no applicable laws")

    return _run(args, cap, work, text)


def cmd_census(args: argparse.Namespace) -> int:
    from .isomorphism import DEFAULT_ISO_CAP
    from .laws import census
    cap = _cap(args, DEFAULT_ISO_CAP)
    # (id, graph) pairs, no name holding the last one
    result = census(map(itemgetter(0, 1), iter_graphs(args.paths, cap)), iso_cap=cap)
    if args.format in ("json", "json-array"):
        print(json.dumps(result.to_json(), separators=(",", ":")))
    else:
        print(result.to_text())
    return 1 if result.violations or result.errors else 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "json-array"), default="text")
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("paths", nargs="*", default=["-"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthlab",
        description="Girth-cycle statistics, truncations, map decompositions "
        "and theorem checks for finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="girth/signature report per input graph")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("generate", help="emit a named family graph")
    p.add_argument("family", choices=families.FAMILY_NAMES)
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--format", choices=("text", "json", "json-array"), default="text")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("truncate", help="truncate cubic graphs (or attached schemes)")
    _add_common(p)
    p.set_defaults(fn=cmd_truncate)

    p = sub.add_parser("decompose", help="invert a truncation or build the face map")
    p.add_argument("--mode", choices=("011", "112", "222"), required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="evaluate every law with witnesses")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("census", help="bucket a corpus by (girth, signature)")
    _add_common(p)
    p.set_defaults(fn=cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except (UsageError, GirthLabError) as exc:  # per-graph errors never get here
        print(f"girthlab: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader has gone; devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
