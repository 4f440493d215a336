"""Benchmark of the girthlab CLI, end to end and per layer.

Usage, from the root of a checkout:

  python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Without --workload it runs every workload in turn.

Generates the workload's inputs from the seed (see workloads.py), runs
`python -m girthlab.cli` against the checkout's own `src` as a child
process, one invocation at a time, checks every output, and repeats the
workload for S seconds, starting no repetition that would likely end
later. The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}; `attempted` and `failed` count
graphs, and every metric is a median over the repetitions.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  wall_s          wall time of the workload's invocations, summed
  cpu_s           user + system CPU time of those children (os.wait4)
  first_record_s  start of the first invocation to its first stdout line
  peak_rss_mb     highest ru_maxrss over the children, in MB (2^20 bytes)
  setup_s         median wall time of one invocation on an empty input,
                  sampled at the start and after every repetition

--trace 1 runs each repetition twice, untraced and then through
tracer.py, asserts that both print the same bytes, and reports the
per-layer metrics (self times, exact call counts, ratios) together with
trace.overhead_ratio, the traced wall time over the untraced one. A count
or byte total that differs between repetitions fails the run. Metric
names and units are those of BENCHMARK.json.

The line before the result is a JSON report with the environment, the
load average and the hypervisor's steal time over the run, the sha256 of
every input and every stdout, the samples, the problems found, and the
share of graphs that failed. It is also appended to
perfbench/_work/reports.jsonl. The exit status is 1 when any check
fails, and 2 when the checkout has no girthlab source or cannot be
measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_FIRST, SETUP_EACH = 5, 4  # empty-input invocations at start, per repetition
RUN_LIMIT_S = 170  # a run must end within 180 s

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
EXACT = {name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")}
REPORTS = workloads.WORK_DIR / "reports.jsonl"  # every run's report, appended

# per-layer metric -> (summary field, span name), from tracer.py
LAYER_SOURCES = {
    "codec.parse_s": ("self_s", "codec.parse"),
    "codec.parse_calls": ("calls", "codec.parse"),
    "codec.encode_s": ("self_s", "codec.encode"),
    "codec.encode_calls": ("calls", "codec.encode"),
    "codec.bytes_in": ("notes", "codec.parse"),
    "codec.bytes_out": ("notes", "codec.encode"),
    "multigraph.build_s": ("self_s", "multigraph.build"),
    "multigraph.builds": ("calls", "multigraph.build"),
    "girth.girth_s": ("self_s", "girth.girth"),
    "girth.girth_calls": ("calls", "girth.girth"),
    "girth.report_s": ("self_s", "girth.report"),
    "girth.report_calls": ("calls", "girth.report"),
    "girth.cycles_s": ("self_s", "girth.cycles"),
    "girth.cycles_calls": ("calls", "girth.cycles"),
    "schemes.scheme_s": ("self_s", "schemes.scheme"),
    "schemes.truncate_s": ("self_s", "schemes.truncate"),
    "schemes.decompose_011_s": ("self_s", "schemes.decompose_011"),
    "schemes.decompose_011_calls": ("calls", "schemes.decompose_011"),
    "maps.build_map_s": ("self_s", "maps.build_map"),
    "maps.decompose_112_s": ("self_s", "maps.decompose_112"),
    "maps.map_from_222_s": ("self_s", "maps.map_from_222"),
    "laws.check_all_s": ("self_s", "laws.check_all"),
    "laws.check_all_calls": ("calls", "laws.check_all"),
    "laws.classify_g5_calls": ("calls", "laws.classify_g5"),
    "laws.census_s": ("self_s", "laws.census"),
    "isomorphism.s": ("self_s", "isomorphism"),
    "isomorphism.calls": ("calls", "isomorphism"),
    "cli.emit_s": ("self_s", "cli.emit"),
}

class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Child:
    wall: float
    cpu: float
    first_line: float | None
    rss_mb: float
    out: bytes
    err: bytes
    code: int


class Spawner:
    """Client of spawner.py, which starts every child from a process that
    stays small, so that each child's peak RSS is its own."""

    def __init__(self, root: Path, env: dict):
        self.out = root / workloads.WORK_DIR / "child.out"
        self.err = root / workloads.WORK_DIR / "child.err"
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=root,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], deadline: float) -> Child:
        request = {"argv": argv, "out": str(self.out), "err": str(self.err),
                   "timeout": max(0.0, deadline - time.perf_counter())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline() or '{"error": "spawner exited"}')
        if "error" in reply:
            raise BenchError(reply["error"])
        return Child(reply["wall"], reply["cpu"], reply["first_line"], reply["rss_mb"],
                     self.out.read_bytes(), self.err.read_bytes(), reply["code"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def child_env(root: Path) -> dict:
    """The environment every child gets: the checkout's own source first
    on the import path, a fixed hash seed, and no size-cap override."""
    env = dict(os.environ)
    env.pop("GIRTHLAB_MAX_VERTICES", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_argv(inv_argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "girthlab.cli", *inv_argv]


def commit_of(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def steal_seconds() -> float:
    """CPU time the machine's hypervisor took from this guest so far, from
    /proc/stat; it rises when other tenants contend for the host."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment(root: Path) -> dict:
    workers = os.cpu_count() or 1
    affinity = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "commit": commit_of(root),
        # the CLI's default --threads is os.cpu_count()
        "default_workers_exceed_affinity": workers > affinity,
    }


class Runner:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root: Path, wl: workloads.Workload, seconds: int, spawner: Spawner):
        self.root = root
        self.wl = wl
        self.seconds = seconds
        self.spawner = spawner
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[tuple[bytes, int]] | None = None  # first outputs
        self.stdout_sha256: list[str] = []
        self.setup_samples: list[float] = []

    def empty_runs(self, count: int) -> None:
        """Time `count` invocations on an empty input, the CLI's fixed
        start-up cost (interpreter, girthlab import, argparse)."""
        argv = cli_argv(["analyze", "--format", "json", workloads.empty_input(self.root)])
        for _ in range(count):
            child = self.spawner.run(argv, self.deadline)
            if child.code != 0 or child.out:
                raise BenchError(f"empty input: exit {child.code}: {child.err[-500:]!r}")
            self.setup_samples.append(child.wall)

    def iteration(self) -> tuple[dict, list[Child]]:
        """Run the workload's invocations once and check what they print."""
        children = [self.spawner.run(cli_argv(inv.argv), self.deadline)
                    for inv in self.wl.invocations]
        for inv, child in zip(self.wl.invocations, children):
            self.stderr_problem(inv, child)
        self.account([(c.out, c.code) for c in children])
        first = children[0]
        return {
            "wall_s": sum(c.wall for c in children),
            "cpu_s": sum(c.cpu for c in children),
            "first_record_s": first.first_line if first.first_line is not None else first.wall,
            "peak_rss_mb": max(c.rss_mb for c in children),
        }, children

    def account(self, outputs: list[tuple[bytes, int]]) -> None:
        """Check one repetition's outputs record by record; a later
        repetition must also repeat the first byte for byte."""
        first = self.reference is None
        if first:
            self.reference = outputs
            self.stdout_sha256 = [hashlib.sha256(out).hexdigest() for out, _ in outputs]
            self.self_check(outputs)
        changed = outputs != self.reference
        if changed:
            self.problems.append("output differs between repetitions of one run")
        for inv, (out, code) in zip(self.wl.invocations, outputs):
            attempted, failed, problems = inv.check.check(out, code)
            self.attempted += attempted
            self.failed += failed
            if first or changed:
                self.problems.extend(f"{inv.argv[0]}: {p}" for p in problems)

    def stderr_problem(self, inv: workloads.Invocation, child: Child) -> None:
        """Keep the end of a failing child's stderr, the likely reason."""
        if child.code != 0:
            self.problems.append(f"{inv.argv[0]}: exit {child.code}, stderr "
                                 f"{child.err[-1000:].decode('utf-8', 'replace')!r}")

    def self_check(self, outputs: list[tuple[bytes, int]]) -> None:
        """The checker must pass each real output and catch it corrupted."""
        for inv, (out, code) in zip(self.wl.invocations, outputs):
            if inv.check.check(out, code)[1]:
                continue  # already failing; the failure is reported anyway
            if not inv.check.check(inv.check.corrupt(out), code)[1]:
                self.problems.append(f"{inv.argv[0]}: checker missed a corrupted record")

    def traced(self, untraced: list[Child]) -> tuple[list[dict], float]:
        """Run each invocation through tracer.py; its stdout must equal
        the untraced run's byte for byte."""
        summaries, wall = [], 0.0
        path = self.root / workloads.WORK_DIR / "trace-summary.json"
        for inv, plain in zip(self.wl.invocations, untraced):
            path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(path), *inv.argv]
            child = self.spawner.run(argv, self.deadline)
            wall += child.wall
            self.stderr_problem(inv, child)
            if not path.is_file():
                raise BenchError(f"tracer wrote no summary: {child.err[-2000:]!r}")
            if (child.out, child.code) != (plain.out, plain.code):
                self.problems.append(f"{inv.argv[0]}: traced output differs from untraced")
            summaries.append(json.loads(path.read_text()))
        return summaries, wall

    def layer_metrics(self, summaries: list[dict], traced_wall: float,
                      untraced_wall: float) -> tuple[dict, list[str]]:
        values: dict[str, float] = {}
        for metric, (field, span) in LAYER_SOURCES.items():
            values[metric] = sum(s[field].get(span, 0) for s in summaries)
        by_n: dict[int, float] = {}
        for s in summaries:
            for n, secs in s["report_by_n"].items():
                by_n[int(n)] = by_n.get(int(n), 0.0) + secs
        small = sum(by_n.get(n, 0.0) for n, _ in self.wl.sizes)
        large = sum(by_n.get(n, 0.0) for _, n in self.wl.sizes)
        slope = math.log(large / small, 4) if small > 0 and large > 0 else 0.0
        calls = values["isomorphism.calls"]
        values.update({
            "girth.report_slope": slope,
            "isomorphism.found_ratio":
                sum(s["notes"].get("isomorphism", 0) for s in summaries) / calls if calls else 0.0,
            "cli.graphs": sum(s["graphs"] for s in summaries),
            "cli.self_s": sum(s["main_s"] - s["spans_union_s"] for s in summaries),
            "trace.overhead_ratio": traced_wall / untraced_wall,
        })
        absent = sorted({name for s in summaries for name in s["absent"]})
        return values, absent

    def measure(self, trace: bool) -> tuple[dict, dict]:
        """Repeat the workload for the run's seconds; medians per metric.
        A warm-up fills the byte-code cache first. Untraced, set-up samples
        are spread over the run like the other samples."""
        samples: list[dict] = []
        absent: list[str] = []
        self.empty_runs(1)
        self.setup_samples.clear()
        if not trace:
            self.empty_runs(SETUP_FIRST)
        start = last = time.perf_counter()
        durations: list[float] = []
        # stop before a repetition that would likely end past the run's seconds
        while not samples or last - start + statistics.median(durations) <= self.seconds:
            plain, children = self.iteration()
            if trace:
                summaries, traced_wall = self.traced(children)
                plain, absent = self.layer_metrics(summaries, traced_wall, plain["wall_s"])
            else:
                self.empty_runs(SETUP_EACH)
            samples.append(plain)
            durations.append(time.perf_counter() - last)
            last = time.perf_counter()
        medians = {"setup_s": statistics.median(self.setup_samples)} if not trace else {}
        for name in samples[0]:
            values = [s[name] for s in samples]
            if name in EXACT and len(set(values)) > 1:
                # the same inputs must take the same work on every repetition
                self.problems.append(f"{name} did not repeat: {values}")
            medians[name] = statistics.median(values)
        return medians, {"repetitions": len(samples), "samples": samples,
                         "setup_samples": self.setup_samples, "absent": absent}


def run_workload(root: Path, spawner: Spawner, name: str, seed: int, seconds: int,
                 trace: int) -> dict:
    """Measure one workload, print its table and report, return its result."""
    load_before, steal_before = os.getloadavg(), steal_seconds()
    wl = workloads.build(name, seed, root)
    runner = Runner(root, wl, seconds, spawner)
    metrics, extra = runner.measure(trace=bool(trace))
    units = LAYER_UNITS if trace else END_TO_END
    if metrics.keys() != units.keys():
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(metrics.keys() ^ units.keys())}")
    report = {
        "workload": wl.name, "seed": wl.seed, "trace": trace,
        "environment": environment(root),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "steal_s": steal_seconds() - steal_before,
        "inputs_sha256": wl.inputs, "stdout_sha256": runner.stdout_sha256,
        "failed_ratio": runner.failed / runner.attempted,
        "problems": runner.problems[:50], **extra,
    }
    for metric, unit in units.items():
        print(f"{wl.name:16} {metric:28} {metrics[metric]:14.6g} {unit}")
    print(f"{wl.name:16} {'failed_ratio':28} {report['failed_ratio']:14.6g} "
          f"({runner.failed} of {runner.attempted} graphs)")
    for problem in runner.problems[:20]:
        print(f"{wl.name:16} problem: {problem}")
    line = json.dumps(report, separators=(",", ":"))
    with open(root / REPORTS, "a") as f:
        f.write(line + "\n")
    print(line)
    return {
        "correct": not runner.problems and runner.failed == 0,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="one workload (default: all, each metric named workload.metric)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "girthlab" / "cli.py").is_file():
        print("perfbench: no girthlab source under ./src; run from a checkout's root",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else workloads.NAMES
    spawner = Spawner(root, child_env(root))
    try:
        results = {name: run_workload(root, spawner, name, args.seed, args.seconds, args.trace)
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
    if args.workload:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
