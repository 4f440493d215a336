"""Command-line front end: analyze, generate, truncate, decompose, verify,
census.

Graphs stream in as graph6/sparse6 lines or multigraph JSON; every
command that emits a graph emits a format every reading command accepts.
Output ordering follows input ordering regardless of the worker count,
and the exit status is 0 exactly when nothing failed to parse and no law
was violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from . import families
from .codec import (
    parse_graph6,
    read_multigraph_json_full,
    write_graph6,
    write_multigraph_json,
    write_sparse6,
)
from .errors import GirthLabError, InfiniteGirth
from .girth import girth_report
from .laws import census as run_census
from .laws import check_all_laws
from .maps import decompose_112, map_from_222
from .multigraph import MultiGraph
from .schemes import DihedralScheme, decompose_011, truncate, unique_cubic_scheme

ANALYZE_CAP = 100_000
ISO_CAP = 512
ENV_CAP = "GIRTHLAB_MAX_VERTICES"

T = TypeVar("T")
R = TypeVar("R")


class UsageError(Exception):
    """A bad setting that concerns the whole invocation, not one input."""


def _cap(args: argparse.Namespace, default: int) -> int:
    if args.max_vertices is not None:
        return args.max_vertices
    env = os.environ.get(ENV_CAP)
    if not env:
        return default
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise UsageError(f"{ENV_CAP} must be a nonnegative integer, got {env!r}")
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
    per graph, ordered by (file, position)."""
    for name, content in _input_files(paths):
        if isinstance(content, Exception):
            yield name, content, None
            continue
        stripped = content.lstrip()
        docs = None
        if stripped.startswith("["):
            try:
                docs = json.loads(content)
            except json.JSONDecodeError as exc:
                yield f"{name}:1", exc, None
                continue
        elif stripped.startswith("{"):
            # one pretty-printed document, or JSON Lines (handled below)
            try:
                docs = [json.loads(content)]
            except json.JSONDecodeError:
                docs = None
        if docs is not None:
            for k, d in enumerate(docs, start=1):
                gid = f"{name}:#{k}"
                try:
                    g, scheme = read_multigraph_json_full(d, cap)
                    yield gid, g, scheme
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
                    g, scheme = read_multigraph_json_full(line, cap)
                    yield gid, g, scheme
                else:
                    yield gid, parse_graph6(line, cap=cap), None
            except GirthLabError as exc:
                yield gid, exc, None


def _map_ordered(
    fn: Callable[[T], R], items: Iterable[T], threads: int
) -> Iterator[R]:
    if threads <= 1:
        for item in items:
            yield fn(item)
        return
    # a bounded read-ahead: pool.map would parse and hold every input at once
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque[Future[R]] = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > 4 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _emit(records: Iterable[tuple[str, dict[str, Any]]], fmt: str,
          text_of: Callable[[str, dict[str, Any]], str]) -> None:
    if fmt == "json-array":
        docs = [dict(doc, id=gid) for gid, doc in records]
        print(json.dumps(docs, separators=(",", ":")))
    elif fmt == "json":
        for gid, doc in records:
            print(json.dumps(dict(doc, id=gid), separators=(",", ":")))
    else:
        for gid, doc in records:
            print(text_of(gid, doc))


# --- commands ---

def cmd_analyze(args: argparse.Namespace) -> int:
    cap = _cap(args, ANALYZE_CAP)
    failures = 0

    def work(item: ParsedGraph) -> tuple[str, dict[str, Any]]:
        gid, g, _ = item
        if isinstance(g, Exception):
            return gid, {"error": str(g)}
        try:
            return gid, girth_report(g).to_json()
        except InfiniteGirth:
            return gid, {
                "girth": None,
                "cycles": 0,
                "epsilon": {},
                "signatures": {},
                "regular": None,
                "warning": "infinite girth (forest)",
            }

    def text(gid: str, doc: dict[str, Any]) -> str:
        if "error" in doc:
            return f"{gid}: ERROR {doc['error']}"
        if doc.get("girth") is None:
            return f"{gid}: girth=Infinite (forest)"
        reg = doc["regular"]
        reg_s = "(" + ",".join(map(str, reg)) + ")" if reg else "-"
        return f"{gid}: girth={doc['girth']} cycles={doc['cycles']} regular={reg_s}"

    records = []
    for rec in _map_ordered(work, iter_graphs(args.paths, cap), args.threads):
        if "error" in rec[1]:
            failures += 1
        records.append(rec)
    _emit(records, args.format, text)
    return 1 if failures else 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = families.FamilySpec(args.family, tuple(args.params))
    g = families.generate(spec)
    if args.format in ("json", "json-array"):
        print(json.dumps(write_multigraph_json(g), separators=(",", ":")))
    elif g.is_simple:
        print(write_graph6(g))
    else:
        print(write_sparse6(g))
    return 0


def cmd_truncate(args: argparse.Namespace) -> int:
    cap = _cap(args, ANALYZE_CAP)
    failures = 0
    for gid, g, scheme in iter_graphs(args.paths, cap):
        if isinstance(g, Exception):
            print(f"{gid}: ERROR {g}", file=sys.stderr)
            failures += 1
            continue
        try:
            if scheme is None:
                scheme = unique_cubic_scheme(g)
            result = truncate(scheme)
            print(write_graph6(result.graph))
        except GirthLabError as exc:
            print(f"{gid}: ERROR {exc}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def cmd_decompose(args: argparse.Namespace) -> int:
    cap = _cap(args, ANALYZE_CAP)
    failures = 0

    def work(item: ParsedGraph) -> tuple[str, dict[str, Any]]:
        gid, g, _ = item
        if isinstance(g, Exception):
            return gid, {"error": str(g)}
        try:
            if args.mode == "011":
                lam, scheme = decompose_011(g)
                return gid, {"mode": "011", "lambda": write_multigraph_json(lam, scheme)}
            if args.mode == "222":
                return gid, {"mode": "222", "map": map_from_222(g).to_json()}
            m, witness = decompose_112(g)
            return gid, {"mode": "112", "map": m.to_json(), "witness": witness}
        except GirthLabError as exc:
            return gid, {"error": str(exc)}

    def text(gid: str, doc: dict[str, Any]) -> str:
        if "error" in doc:
            return f"{gid}: ERROR {doc['error']}"
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

    records = []
    for rec in _map_ordered(work, iter_graphs(args.paths, cap), args.threads):
        if "error" in rec[1]:
            failures += 1
        records.append(rec)
    _emit(records, args.format, text)
    return 1 if failures else 0


def cmd_verify(args: argparse.Namespace) -> int:
    cap = _cap(args, ISO_CAP)
    failures = 0
    violations = 0

    def work(item: ParsedGraph) -> tuple[str, dict[str, Any]]:
        gid, g, _ = item
        if isinstance(g, Exception):
            return gid, {"error": str(g)}
        try:
            laws = check_all_laws(g, iso_cap=cap)
        except GirthLabError as exc:
            return gid, {"skipped": str(exc), "laws": []}
        return gid, {"laws": [law.to_json() for law in laws]}

    def text(gid: str, doc: dict[str, Any]) -> str:
        if "error" in doc:
            return f"{gid}: ERROR {doc['error']}"
        if "skipped" in doc:
            return f"{gid}: skipped ({doc['skipped']})"
        parts = []
        for law in doc["laws"]:
            if not law["applicable"]:
                continue
            state = {True: "holds", False: "VIOLATED", None: "unverified"}[law["holds"]]
            parts.append(f"{law['law']}={state}")
        return f"{gid}: " + (" ".join(parts) if parts else "no applicable laws")

    records = []
    for rec in _map_ordered(work, iter_graphs(args.paths, cap), args.threads):
        if "error" in rec[1]:
            failures += 1
        for law in rec[1].get("laws", ()):
            if law["applicable"] and law["holds"] is False:
                violations += 1
        records.append(rec)
    _emit(records, args.format, text)
    return 1 if failures or violations else 0


def cmd_census(args: argparse.Namespace) -> int:
    cap = _cap(args, ISO_CAP)
    stream = ((gid, g) for gid, g, _ in iter_graphs(args.paths, cap))
    result = run_census(stream, iso_cap=cap)
    if args.format in ("json", "json-array"):
        print(json.dumps(result.to_json(), separators=(",", ":")))
    else:
        print(result.to_text())
    return 1 if result.violations or result.errors else 0


def _add_common(p: argparse.ArgumentParser, paths: bool = True) -> None:
    p.add_argument("--format", choices=("text", "json", "json-array"), default="text")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--max-vertices", type=int, default=None)
    if paths:
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
        return args.fn(args)
    except (UsageError, GirthLabError) as exc:  # per-graph errors never get here
        print(f"girthlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
