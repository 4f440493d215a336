"""Run one girthlab CLI invocation in-process with each layer traced.

Usage: python perfbench/tracer.py SUMMARY.json CLI-ARGS...

Imports girthlab from PYTHONPATH, replaces each traced public function
in every girthlab module namespace that binds it (laws, schemes, maps
and cli import functions by name), runs `girthlab.cli.main(argv)` with
stdout captured, writes the captured bytes to the real stdout and a
summary of the spans to SUMMARY.json. Spans (name, start, end, parent,
thread) stay in memory until the run ends; a thread-local stack gives
each span its parent, so the CLI's worker threads nest correctly. A
traced name that the program no longer has is listed as absent.

Self times are thread CPU times: under the interpreter lock the CLI's
worker threads take turns, so a span's wall time would also count the
time its thread waited for the lock while the other thread ran.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path) -> span name; a span's self time is its CPU
# time minus that of the spans it encloses on its own thread
SPANS = {
    ("codec", "parse_graph6"): "codec.parse",
    ("codec", "read_multigraph_json_full"): "codec.parse",
    ("codec", "write_graph6"): "codec.encode",
    ("codec", "write_sparse6"): "codec.encode",
    ("codec", "write_multigraph_json"): "codec.encode",
    ("multigraph", "MultiGraph.__init__"): "multigraph.build",
    ("girth", "girth"): "girth.girth",
    ("girth", "girth_report"): "girth.report",
    ("girth", "girth_cycles"): "girth.cycles",
    ("schemes", "unique_cubic_scheme"): "schemes.scheme",
    ("schemes", "DihedralScheme.from_rotations"): "schemes.scheme",
    ("schemes", "truncate"): "schemes.truncate",
    ("schemes", "decompose_011"): "schemes.decompose_011",
    ("maps", "build_map"): "maps.build_map",
    ("maps", "decompose_112"): "maps.decompose_112",
    ("maps", "map_from_222"): "maps.map_from_222",
    ("laws", "check_all_laws"): "laws.check_all",
    ("laws", "census"): "laws.census",
    ("isomorphism", "find_isomorphism"): "isomorphism",
    ("cli", "_emit"): "cli.emit",
}
# counted only, so that their time stays with the enclosing span
COUNTS = {
    ("laws", "classify_g5"): "laws.classify_g5",
}


def _note(name: str, args: tuple, kwargs: dict, result) -> int:
    """The number a span carries besides its times."""
    first = args[0] if args else next(iter(kwargs.values()), None)
    if name == "codec.parse":
        return len(first) if isinstance(first, str) else 0
    if name == "codec.encode":
        return len(result) if isinstance(result, str) else 0
    if name == "girth.report":
        return getattr(first, "n", 0)
    if name == "isomorphism":
        return int(result is not None)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, cpu, parent, thread, note)
        self.events: list[str] = []
        self.graphs: list[int] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def span(self, name: str, fn):
        spans, local, ids = self.spans, self._local, self._ids
        clock, cpu_clock = time.perf_counter, time.thread_time

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start, cpu_start = clock(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu, end = cpu_clock() - cpu_start, clock()
                stack.pop()
                spans.append((sid, name, start, end, cpu, parent, threading.get_ident(),
                              _note(name, args, kwargs, result)))

        return traced

    def count(self, name: str, fn):
        events = self.events

        def counted(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        return counted

    def count_yields(self, fn):
        graphs = self.graphs

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                graphs.append(1)
                yield item

        return counted

    def install(self) -> None:
        mods = {}
        for name in ("codec", "multigraph", "girth", "schemes", "maps", "laws",
                     "isomorphism", "cli"):
            try:
                mods[name] = importlib.import_module(f"girthlab.{name}")
            except ImportError:
                pass
        table = [(key, name, self.span) for key, name in SPANS.items()]
        table += [(key, name, self.count) for key, name in COUNTS.items()]
        table.append((("cli", "iter_graphs"), "cli.graphs", lambda _n, fn: self.count_yields(fn)))
        for (mod, path), name, make in table:
            owner = mods.get(mod)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{mod}.{path}")
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(name, raw.__func__)))
            elif outer:
                setattr(owner, attr, make(name, raw))
            else:
                wrapped = make(name, raw)
                for module in list(sys.modules.values()):
                    if module is not None and module.__name__.startswith("girthlab"):
                        for key, value in list(vars(module).items()):
                            if value is raw:
                                setattr(module, key, wrapped)

    def summary(self, main_s: float) -> dict:
        inner: dict[int, float] = defaultdict(float)
        for sid, name, start, end, cpu, parent, *_ in self.spans:
            if parent >= 0:
                inner[parent] += cpu
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        notes: dict[str, int] = defaultdict(int)
        report_by_n: dict[int, float] = defaultdict(float)
        top = []
        for sid, name, start, end, cpu, parent, _thread, note in self.spans:
            self_s[name] += cpu - inner[sid]
            calls[name] += 1
            if name == "girth.report":
                report_by_n[note] += cpu
            else:
                notes[name] += note
            if parent < 0:
                top.append((start, end))
        for name in self.events:
            calls[name] += 1
        covered, reach = 0.0, float("-inf")  # union of top-level spans
        for start, end in sorted(top):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return {
            "main_s": main_s, "spans_union_s": covered, "graphs": len(self.graphs),
            "self_s": self_s, "calls": calls, "notes": notes,
            "report_by_n": report_by_n, "absent": self.absent,
        }


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from girthlab import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - start
    sys.stdout.buffer.write(buf.getvalue().encode("utf-8"))
    sys.stdout.flush()
    with open(summary_path, "w") as f:
        json.dump(tracer.summary(main_s), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
