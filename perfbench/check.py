"""Output checks for each CLI invocation of a workload.

A check knows what the program must print for the generated inputs and
counts the graphs whose record is missing, is an error or skipped
record, or differs from what the generator knows. `corrupt` damages one
record the way a defect would, so that the benchmark can show on every
run that its checker catches a bad record.
"""

from __future__ import annotations

import json
from typing import Any, Callable


def _lines(out: bytes) -> list[str]:
    return out.decode("utf-8", "replace").splitlines()


def _json_or_none(line: str) -> Any:
    try:
        return json.loads(line)
    except ValueError:
        return None


def _dump(doc: Any) -> str:
    return json.dumps(doc, separators=(",", ":"))


class Check:
    """Base: `check` returns (graphs attempted, graphs failed, problems)."""

    graphs = 0

    def check(self, out: bytes, code: int) -> tuple[int, int, list[str]]:
        raise NotImplementedError

    def corrupt(self, out: bytes) -> bytes:
        raise NotImplementedError


def _exit_problem(code: int) -> list[str]:
    return [] if code == 0 else [f"exit status {code}, expected 0"]


class RecordCheck(Check):
    """One JSON record per graph, in input order, each carrying its id.
    `compare(record, want)` returns None when the record is right, else
    the reason; `damage(record)` mutates a record into a wrong one."""

    def __init__(self, expected: list[tuple[str, Any]],
                 compare: Callable[[dict, Any], str | None],
                 damage: Callable[[dict], None]):
        self.expected = expected
        self.compare = compare
        self.damage = damage
        self.graphs = len(expected)

    def check(self, out: bytes, code: int) -> tuple[int, int, list[str]]:
        records = [_json_or_none(line) for line in _lines(out)]
        problems = _exit_problem(code)
        if len(records) != len(self.expected):
            problems.append(f"{len(records)} records for {len(self.expected)} graphs")
        failed = 0
        for i, (gid, want) in enumerate(self.expected):
            rec = records[i] if i < len(records) else None
            if not isinstance(rec, dict):
                why = "missing or unreadable record"
            elif rec.get("id") != gid:
                why = f"record id {rec.get('id')!r}"
            elif "error" in rec or "skipped" in rec:
                why = f"error record: {rec.get('error', rec.get('skipped'))}"
            else:
                why = self.compare(rec, want)
            if why:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"{gid}: {why}")
        return len(self.expected), failed, problems

    def corrupt(self, out: bytes) -> bytes:
        lines = _lines(out)
        rec = json.loads(lines[0])
        self.damage(rec)
        lines[0] = _dump(rec)
        return ("\n".join(lines) + "\n").encode()


# --- per-command comparisons ---

def compare_report(rec: dict, want: dict) -> str | None:
    for key, value in want.items():
        if rec.get(key) != value:
            return f"{key} differs"
    return None


def damage_report(rec: dict) -> None:
    rec["girth"] += 1


def compare_lambda(rec: dict, want: dict) -> str | None:
    if rec.get("mode") != "011":
        return "not a 011 record"
    lam = rec.get("lambda") or {}
    for key in ("vertices", "edges", "scheme"):
        if lam.get(key) != want[key]:
            return f"base {key} differs"
    return None


def damage_lambda(rec: dict) -> None:
    rec["lambda"]["vertices"] += 1


def map_summary(rec: dict) -> dict:
    m = rec.get("map") or {}
    skel = m.get("skeleton") or {}
    faces = m.get("faces") or []
    out = {
        "mode": rec.get("mode"),
        "chi": m.get("chi"),
        "faces": len(faces),
        "faceLengths": sorted({len(f) for f in faces}),
        "skeletonVertices": skel.get("vertices"),
        "skeletonEdges": len(skel.get("edges") or []),
        "nonOrientableForced": m.get("nonOrientableForced"),
    }
    if "witness" in rec:
        out["witness"] = rec["witness"]
    return out


def compare_map(rec: dict, want: dict) -> str | None:
    got = map_summary(rec)
    for key, value in want.items():
        if got.get(key) != value:
            return f"map {key} is {got.get(key)!r}, expected {value!r}"
    return None


def damage_map(rec: dict) -> None:
    rec["map"]["chi"] += 1


def compare_laws(rec: dict, _want: None) -> str | None:
    laws = rec.get("laws")
    if not laws or not any(law.get("applicable") for law in laws):
        return "no applicable law"
    for law in laws:
        if law.get("applicable") and law.get("holds") is not True:
            state = "violated" if law.get("holds") is False else "unverified"
            return f"law {law.get('law')} {state}"
    return None


def damage_laws(rec: dict) -> None:
    next(law for law in rec["laws"] if law["applicable"])["holds"] = False


class CensusCheck(Check):
    """One census document: bucket counts, and no violation, cap-unverified
    law or error. Each graph in a wrong bucket count is one failure."""

    def __init__(self, total: int, buckets: dict[tuple, int]):
        self.graphs = total
        self.buckets = buckets

    def check(self, out: bytes, code: int) -> tuple[int, int, list[str]]:
        lines = _lines(out)
        doc = _json_or_none(lines[0]) if len(lines) == 1 else None
        problems = _exit_problem(code)
        if not isinstance(doc, dict):
            return self.graphs, self.graphs, problems + ["no census document"]
        got = {}
        for b in doc.get("buckets", []):
            sig = b.get("signature")
            got[(b.get("girth"), tuple(sig) if sig is not None else None)] = b.get("count")
        failed = 0
        for key in set(got) | set(self.buckets):
            have, want = got.get(key) or 0, self.buckets.get(key, 0)
            if have != want:
                failed += abs(have - want)
                problems.append(f"bucket {key}: {have} graphs, expected {want}")
        for field in ("violations", "unverified", "errors"):
            items = doc.get(field)
            if items != []:
                failed += len(items) if isinstance(items, list) else self.graphs
                problems.append(f"{field}: {str(items)[:200]}")
        if doc.get("total") != self.graphs:
            problems.append(f"total {doc.get('total')}, expected {self.graphs}")
        return self.graphs, min(failed, self.graphs), problems

    def corrupt(self, out: bytes) -> bytes:
        doc = json.loads(_lines(out)[0])
        doc["buckets"][0]["count"] += 1
        return (_dump(doc) + "\n").encode()


class LinesCheck(Check):
    """Exact expected output lines, one per graph (truncate's graph6)."""

    def __init__(self, expected: list[str]):
        self.expected = expected
        self.graphs = len(expected)

    def check(self, out: bytes, code: int) -> tuple[int, int, list[str]]:
        lines = _lines(out)
        problems = _exit_problem(code)
        if len(lines) != len(self.expected):
            problems.append(f"{len(lines)} lines for {len(self.expected)} graphs")
        failed = 0
        for i, want in enumerate(self.expected):
            if i >= len(lines) or lines[i] != want:
                failed += 1
                problems.append(f"graph {i + 1}: output differs")
        return len(self.expected), failed, problems

    def corrupt(self, out: bytes) -> bytes:
        lines = _lines(out)
        last = lines[0][-1]
        lines[0] = lines[0][:-1] + ("?" if last != "?" else "@")
        return ("\n".join(lines) + "\n").encode()
