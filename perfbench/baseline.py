"""Measure this checkout's baseline and write perfbench/BASELINE.json.

Usage, from the root of a checkout:

  python3 perfbench/baseline.py

Runs every workload in BENCHMARK.json ten times untraced, with seeds
1, 2, ..., 10, and twice traced. Each run is the benchmark command
itself, for `run_seconds`. Per metric it records every run's value, the
median and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) over the median. Per run it keeps
the load average before and after, the hypervisor's steal time and the
problems found. It prints each end-to-end spread against the metric's
bound, names the known slow points with their measured values, and
exits 1 when a run failed a check.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS, TRACE_RUNS = 10, 2
OUT = HERE / "BASELINE.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout[-3000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    return {name: m["value"] for name, m in result["metrics"].items()} | {
        "_failed": result["failed"], "_attempted": result["attempted"],
        "_correct": result["correct"], "_env": report["environment"],
        "_run": {"seed": seed, "loadavg_before": report["loadavg_before"],
                 "loadavg_after": report["loadavg_after"], "steal_s": report["steal_s"],
                 "problems": report["problems"]},
    }


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        if name.startswith("_"):
            continue
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def slow_points(wl: dict) -> list[dict]:
    """The known slow points, by metric and workload, with their values."""
    corpus, trunc = wl["corpus_laws"], wl["family_truncate"]
    layers = corpus["per_layer"]
    graphs = layers["cli.graphs"]["median"]

    def per_graph(name: str) -> float:
        return layers[name]["median"] / graphs

    return [
        {"workload": "corpus_laws", "metrics": ["wall_s", "first_record_s", "cpu_s"],
         "what": "The CLI's thread pool (default os.cpu_count() workers) is GIL-bound: "
                 "the workers take turns and every record is buffered until the end, "
                 "so first_record_s is the whole verify invocation.",
         "spread": {m: corpus["end_to_end"][m]["spread"]
                    for m in ("wall_s", "first_record_s", "cpu_s")},
         "cli.self_s": layers["cli.self_s"]["median"]},
        {"workload": "family_truncate", "metrics": ["peak_rss_mb", "wall_s"],
         "what": "write_graph6 builds a dense n x n adjacency list for each output.",
         "peak_rss_mb": trunc["end_to_end"]["peak_rss_mb"]["median"],
         "codec.encode_s": trunc["per_layer"]["codec.encode_s"]["median"],
         "wall_s": trunc["end_to_end"]["wall_s"]["median"]},
        {"workload": "corpus_laws",
         "metrics": ["girth.girth_calls", "girth.report_calls", "isomorphism.calls"],
         "what": "Per-graph quantities are recomputed: girth() and girth_report() run "
                 "several times per graph, and model isomorphisms are confirmed again.",
         "per_graph": {"girth.girth_calls": per_graph("girth.girth_calls"),
                       "girth.report_calls": per_graph("girth.report_calls"),
                       "isomorphism.calls": per_graph("isomorphism.calls")},
         "isomorphism.found_ratio": layers["isomorphism.found_ratio"]["median"],
         "base": {"cli.graphs": graphs}},
    ]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, dict] = {}
    failures: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        plain, traced = [], []
        for seed in range(1, RUNS + 1):
            start = time.time()
            plain.append(run(name, seed, seconds, 0))
            env = plain[-1]["_env"]
            print(f"{name} seed {seed}: {time.time() - start:.0f} s "
                  + " ".join(f"{k}={v:.4g}" for k, v in plain[-1].items()
                             if not k.startswith("_"))
                  + f" steal_s={plain[-1]['_run']['steal_s']:.2f}", flush=True)
        for seed in range(1, TRACE_RUNS + 1):
            traced.append(run(name, seed, seconds, 1))
        results[name] = {
            "end_to_end": summarize(plain),
            "per_layer": summarize(traced),
            "failed": sum(r["_failed"] for r in plain),
            "attempted": sum(r["_attempted"] for r in plain),
            "runs": [r["_run"] for r in plain],
            "traced_runs": [r["_run"] for r in traced],
        }
        failures += [f"{name} seed {r['_run']['seed']}: {r['_run']['problems']}"
                     for r in plain + traced if not r["_correct"]]
        for metric, s in results[name]["end_to_end"].items():
            bound = bounds[metric]
            verdict = ("ok" if s["spread"] < bound / 3 else
                       "within bound" if s["spread"] <= bound else "OVER BOUND")
            print(f"{name:16} {metric:16} median {s['median']:10.4f} spread "
                  f"{s['spread']:.4f} bound {bound} {verdict}", flush=True)
    baseline = {
        "commit": env["commit"],
        "environment": env,
        "run_seconds": seconds,
        "runs": RUNS,
        "trace_runs": TRACE_RUNS,
        "workloads": results,
        "slow_points": slow_points(results),
    }
    OUT.write_text(json.dumps(baseline, indent=1) + "\n")
    for failure in failures:
        print(f"FAILED {failure}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
