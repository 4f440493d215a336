"""Executable forms of the bounds, lemmas and classification theorems.

Every law carries its own applicability gate so corpus sweeps never
misreport out-of-scope graphs; a failing law on any input means an
implementation defect, and the witness carries enough to recompute the
violation independently. `check_all_laws` (and so `verify`) reports the
eleven laws in the one order that `LAWS` fixes, each law not applicable
where its gate does not hold.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Iterable, NamedTuple

from . import families
from .errors import Disconnected, GirthLabError, InfiniteGirth, PreconditionViolation, SizeCapExceeded
from .girth import girth_report
from .isomorphism import DEFAULT_ISO_CAP, find_isomorphism
from .maps import decompose_112, map_from_222
from .multigraph import MultiGraph
from .schemes import DihedralScheme, _contraction, _truncation_pairs, decompose_011, truncate

EXAMPLES_PER_BUCKET = 3


class LawResult(NamedTuple):
    law_id: str
    applicable: bool
    holds: bool | None
    witness: Any = None

    @property
    def violated(self) -> bool:
        return self.applicable and self.holds is False

    def to_json(self) -> dict[str, Any]:
        return {"law": self.law_id, "applicable": self.applicable, "holds": self.holds, "witness": self.witness}


# classification cases
TRUNC011 = "Trunc011"
K4 = "K4"
PRISM_OR_MOBIUS = "PrismOrMobius"
K33 = "K33"
Q3 = "Q3"
PETERSEN = "Petersen"
DODECAHEDRON = "Dodecahedron"
OUTSIDE = "OutsideTheorem"


class _Case(NamedTuple):
    case: str
    detail: dict[str, Any]
    witness: Any = None
    model: MultiGraph | None = None


class Classification(_Case):
    """A classification case. `witness` is the decomposition the case
    rests on: (base, scheme) for Trunc011, (map, X/Y split) at signature
    (1,1,2). `model` is the named graph that an isomorphism search checked
    g against; None for a ladder, which its own labels confirm. Each case
    made without a detail gets a new empty one."""

    __slots__ = ()

    def __new__(
        cls, case: str, detail: dict[str, Any] | None = None, witness: Any = None, model: MultiGraph | None = None
    ) -> "Classification":
        return super().__new__(cls, case, {} if detail is None else detail, witness, model)

    def to_json(self) -> dict[str, Any]:
        return {"case": self.case, "detail": self.detail}


def _truncation_of(g: MultiGraph, scheme: DihedralScheme) -> bool:
    """Whether g is the truncation of the scheme when v goes to the position
    of its arc in the base's arc table, read from one walk of g without the
    base's edges: g's mapped edges, sorted, must be the truncation's
    arc-position pairs. Neither a truncation nor a second base is built."""
    pairs = _truncation_pairs(scheme)
    base = scheme.base
    mapping = _contraction(g, {e.id for e in base.edges}, base)[2]
    return g.n == 2 * base.edge_count and sorted(mapping) == list(range(g.n)) and (
        sorted(tuple(sorted(mapping[v] for v in e.ends)) for e in g.edges) == pairs)


def _is_ladder(g: MultiGraph, y_edges: list[int], prism: bool) -> bool:
    """Whether g, simple and cubic, is the ladder of families.prism or
    families.mobius under their numbering: vertex i of the X-cycle through
    0, as the component walk lists it without the Y-edges, is i; on a prism
    its Y-partner is n + i. The labels must be a bijection, and each edge
    a rung i ~ i + n or a ring step, mod n on a prism, mod 2n otherwise."""
    n = g.n // 2
    labels = [-1] * g.n
    for i, v in enumerate(g._components(set(y_edges))[0]):
        labels[v] = i
    if prism:
        for eid in y_edges:
            u, v = sorted(g.edge(eid).ends, key=labels.__getitem__)  # u is unlabelled: -1
            labels[u] = labels[v] + n
    steps = (1, n, n - 1 if prism else 2 * n - 1)
    return sorted(labels) == list(range(g.n)) and all(
        abs(labels[u] - labels[v]) in steps for u, v in (e.ends for e in g.edges))


def classify_g5(g: MultiGraph, iso_cap: int = DEFAULT_ISO_CAP) -> Classification:
    """Place a connected cubic girth-regular graph of girth <= 5 into its
    classification case. A prism or Möbius ladder is confirmed by checking
    the labelling its X-cycles and Y-rungs give it, edge by edge, with no
    model built; a fixed named model by an isomorphism search."""
    if not g.is_simple or not g.is_connected() or g.is_regular() != 3:
        raise PreconditionViolation("classifier needs a simple connected cubic graph")
    report = girth_report(g)
    sig = report.regular
    if sig is None:
        raise PreconditionViolation("graph is not girth-regular")
    if report.girth > 5:
        raise PreconditionViolation(f"girth {report.girth} > 5")
    gir = report.girth

    def confirmed(
        case: str, model: MultiGraph | None, detail: dict[str, Any], witness: Any = None, found: bool = False
    ) -> Classification:
        # a fixed model is confirmed by search, a ladder by its own labels
        if model is not None:
            found = find_isomorphism(g, model, cap=iso_cap) is not None
        if not found:
            detail = {"girth": gir, "signature": list(sig), "reason": f"not isomorphic to {case}"}
            case = OUTSIDE
        return Classification(case, detail, witness, model)

    if sig == (0, 1, 1):
        lam, scheme = decompose_011(g)
        return Classification(TRUNC011, {"girth": gir, "baseVertices": lam.n}, (lam, scheme))
    if gir == 3 and sig == (2, 2, 2):
        return confirmed(K4, families.complete(4), {})
    if gir == 4:
        if sig == (4, 4, 4):
            return confirmed(K33, families.complete_bipartite(3, 3), {})
        if sig == (2, 2, 2):
            return confirmed(Q3, families.cube_q3(), {})
        if sig == (1, 1, 2):
            split = decompose_112(g)
            comps = split[0].skeleton.n  # the X-cycles
            if comps in (1, 2):
                family = "prism" if comps == 2 else "mobius"
                ladder = _is_ladder(g, split[1]["Y"], prism=comps == 2)
                return confirmed(PRISM_OR_MOBIUS, None, {"family": family, "n": g.n // 2}, split, ladder)
            detail = {"girth": gir, "signature": list(sig), "reason": f"{comps} single-cycle components"}
            return Classification(OUTSIDE, detail, split)
    if gir == 5:
        if sig == (4, 4, 4):
            return confirmed(PETERSEN, families.petersen(), {})
        if sig == (2, 2, 2):
            return confirmed(DODECAHEDRON, families.dodecahedron(), {})
    return Classification(OUTSIDE, {"girth": gir, "signature": list(sig)})


def canonical_graph(c: Classification) -> MultiGraph | None:
    """Re-expand a classification case to a concrete graph."""
    if c.case == TRUNC011:
        return truncate(c.witness[1]).graph
    if c.case == PRISM_OR_MOBIUS:
        return getattr(families, c.detail["family"])(c.detail["n"])
    return None if c.case == OUTSIDE else c.model


# every law check_all_laws reports, in its report order
LAWS = (
    "thm1", "thm2", "thm3", "lem3.1", "lem3.2", "cor3.3", "lem3.4",
    "thm3.6", "thm3.9", "thm3.11", "thm-main",
)

# the cubic generalised polygons by girth: thm2's witness name and model
_EXTREMAL_EVEN: dict[int, tuple[str, Callable[[], MultiGraph]]] = {
    4: ("completeBipartite", lambda: families.complete_bipartite(3, 3)),
    6: ("heawood", families.heawood),
    8: ("tutteCoxeter", families.tutte_coxeter),
    12: ("tutte12Cage", families.tutte_12cage),
}


def check_all_laws(g: MultiGraph, iso_cap: int = DEFAULT_ISO_CAP) -> list[LawResult]:
    """Evaluate every law with its own applicability gate, and report one
    result per id in LAWS, in that order; a law whose gate does not apply
    is reported not applicable. Each per-graph quantity is computed once
    and shared between the laws: the report, the classification with the
    decomposition it rests on, and the isomorphism to each named model.
    thm3.6 and thm3.11 check the vertex map that the decomposition built,
    edge by edge."""
    if not g.is_connected():
        raise Disconnected("laws are stated for connected graphs")
    report = girth_report(g)
    gir = report.girth
    d = gir // 2
    k = g.is_regular()
    sig = report.regular
    girth_regular = sig is not None
    cubic_gr = girth_regular and k == 3 and g.is_simple
    found: dict[str, tuple[bool | None, Any]] = {}  # (holds, witness) of each law that applies

    classified: Classification | GirthLabError | None = None
    if cubic_gr and gir <= 5:
        try:
            classified = classify_g5(g, iso_cap=iso_cap)
        except GirthLabError as exc:
            classified = exc
    verdicts: dict[MultiGraph, bool | None] = {}
    if isinstance(classified, Classification) and classified.model is not None:
        verdicts[classified.model] = classified.case != OUTSIDE

    def iso(model: MultiGraph) -> bool | None:
        """Whether g is isomorphic to the model; None past the size cap."""
        if model not in verdicts:
            try:
                verdicts[model] = find_isomorphism(g, model, cap=iso_cap) is not None
            except SizeCapExceeded:
                verdicts[model] = None
        return verdicts[model]

    def decomposition(decompose: Callable[[MultiGraph], Any]) -> Any:
        """The decomposition classify_g5 built, else a new one."""
        if isinstance(classified, Classification) and classified.witness is not None:
            return classified.witness
        if isinstance(classified, GirthLabError):
            raise classified
        return decompose(g)

    # thm1: extremal bound on the per-edge counts
    if k is not None:
        bad = {e: c for e, c in report.epsilon.items() if c > (k - 1) ** d}
        found["thm1"] = (not bad, bad or None)

    # thm2: even-girth equality case forces the incidence graphs; these are simple: girth >= 4
    if girth_regular and k is not None and gir >= 4 and gir % 2 == 0 and sig[-1] == (k - 1) ** d:
        constant = len(set(sig)) == 1
        ok: bool | None = constant and g.n == families.moore_bound(k, gir)
        wit: Any = {"signature": list(sig), "n": g.n}
        if ok and k == 3:
            if gir not in _EXTREMAL_EVEN:
                ok = False
                wit = {"reason": f"no generalised polygon for girth {gir}"}
            else:
                name, model = _EXTREMAL_EVEN[gir]
                ok = iso(model())
                wit = {"model": name} if ok else wit
        found["thm2"] = (ok, wit)

    # thm3: odd-girth equality case forces K4 or Petersen; an isomorphism
    # keeps the girth, and K4's is 3, Petersen's 5
    if cubic_gr and gir % 2 == 1 and sig[-1] == 2**d:
        ok = iso(families.complete(4) if gir == 3 else families.petersen())
        found["thm3"] = (ok, {"signature": list(sig)})

    # lemma suite on the cubic signature (a, b, c)
    if cubic_gr:
        a, b, c = sig
        even_ok = (a + b + c) % 2 == 0
        tri_ok = a + b >= c
        parity_ok = not (a >= 1 and c == a + b) or gir % 2 == 0
        found["lem3.1"] = (even_ok and tri_ok and parity_ok, {"signature": list(sig), "girth": gir})
        if a == 0:
            found["lem3.2"] = ((b, c) == (1, 1), {"signature": list(sig)})
        if gir % 2 == 1:
            found["cor3.3"] = (a != 1, {"signature": list(sig)})
        m = 2 ** (d - 1)
        found["lem3.4"] = (a >= c - m and b <= a - c + 2 * m, {"signature": list(sig), "m": m})

    # thm3.6: (0,1,1) graphs are truncations of g-regular schemes
    if cubic_gr and sig == (0, 1, 1):
        try:
            lam, scheme = decomposition(decompose_011)
            wit = {"baseVertices": lam.n, "baseRegular": lam.is_regular()}
            ok = lam.is_regular() == gir and not lam.has_loops and _truncation_of(g, scheme)
        except GirthLabError as exc:
            ok, wit = False, {"error": str(exc)}
        found["thm3.6"] = (ok, wit)

    # thm3.9: (2,2,2) graphs are skeletons of {g,3}-maps
    if cubic_gr and sig == (2, 2, 2):
        try:
            m = map_from_222(g)
            chi = m.euler_characteristic
            ok = (3 * g.n) % gir == 0 and chi == g.n - (3 * g.n) // 2 + (3 * g.n) // gir and chi <= 2
            wit = {"chi": chi, "faces": len(m.faces)}
        except GirthLabError as exc:
            ok, wit = False, {"error": str(exc)}
        found["thm3.9"] = (ok, wit)

    # thm3.11: (1,1,2) graphs are truncations of maps with g/2-faces
    if cubic_gr and sig == (1, 1, 2):
        try:
            ok = gir % 2 == 0 and g.n % (gir // 2) == 0
            wit = {"girth": gir}
            if ok:
                m, coloring = decomposition(decompose_112)
                wit = {
                    "chi": m.euler_characteristic,
                    "skeletonVertices": m.skeleton.n,
                    "matching": len(coloring["Y"]),
                }
                ok = len(coloring["Y"]) == g.n // 2 and _truncation_of(g, m.scheme_induced)
        except GirthLabError as exc:
            ok, wit = False, {"error": str(exc)}
        found["thm3.11"] = (ok, wit)

    # thm-main: the girth <= 5 classification; classify_g5 confirmed a
    # named case, and a Trunc011 case holds by thm3.6
    if isinstance(classified, Classification):
        ok = found["thm3.6"][0] if classified.case == TRUNC011 else classified.case != OUTSIDE
        found["thm-main"] = (ok, classified.to_json())
    elif classified is not None:
        # past the isomorphism cap the case is unverified, not refuted
        ok = None if isinstance(classified, SizeCapExceeded) else False
        found["thm-main"] = (ok, {"error": str(classified)})

    return [LawResult(law, law in found, *found.get(law, (None, None))) for law in LAWS]


# --- census ---

class CensusBucket(SimpleNamespace):
    """The graphs of one (girth, signature): how many, and the first ids."""

    def __init__(self, girth: int | None, signature: tuple[int, ...] | None):
        super().__init__(girth=girth, signature=signature, count=0, examples=[])

    def __reduce__(self) -> tuple:
        # SimpleNamespace's own would call the class without its two required arguments
        return type(self), (self.girth, self.signature), self.__dict__


class CensusResult(SimpleNamespace):
    """What census gathered; each result starts with its own containers."""

    def __init__(self):
        super().__init__(total=0, buckets={}, violations=[], unverified=[], errors=[])

    def sorted_buckets(self) -> list[CensusBucket]:
        """By girth, forests last; within a girth by signature, non-regular last."""
        return sorted(self.buckets.values(),
                      key=lambda b: (b.girth is None, b.girth or 0, b.signature is None, b.signature or ()))

    def to_json(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "buckets": [
                {
                    "girth": b.girth,
                    "signature": list(b.signature) if b.signature is not None else None,
                    "count": b.count,
                    "examples": b.examples,
                }
                for b in self.sorted_buckets()
            ],
            "violations": [
                {"graph": gid, "law": law, "witness": wit} for gid, law, wit in self.violations
            ],
            "unverified": [{"graph": gid, "law": law} for gid, law in self.unverified],
            "errors": [{"graph": gid, "error": msg} for gid, msg in self.errors],
        }

    def to_text(self) -> str:
        rows = [("girth", "signature", "count", "examples")]
        for b in self.sorted_buckets():
            rows.append(
                (
                    "inf" if b.girth is None else str(b.girth),
                    "-" if b.signature is None else "(" + ",".join(map(str, b.signature)) + ")",
                    str(b.count),
                    " ".join(b.examples),
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip() for row in rows]
        lines.append("")
        lines.append(f"graphs: {self.total}")
        lines.append(f"law violations: {len(self.violations)}")
        if self.unverified:
            lines.append(f"unverified (size cap): {len(self.unverified)}")
        if self.errors:
            lines.append(f"errors: {len(self.errors)}")
        return "\n".join(lines)


def census(
    items: Iterable[tuple[str, MultiGraph | Exception]],
    iso_cap: int = DEFAULT_ISO_CAP,
) -> CensusResult:
    """Aggregate (girth, signature) buckets and law results over a stream;
    parse errors are collected, not fatal."""
    result = CensusResult()
    for gid, item in items:
        if isinstance(item, Exception):
            result.errors.append((gid, str(item)))
            continue
        result.total += 1
        laws: list[LawResult] = []
        try:
            report = girth_report(item)
            key: tuple = (report.girth, report.regular)
            laws = check_all_laws(item, iso_cap=iso_cap)
        except InfiniteGirth:
            key = (None, None)
        except Disconnected:
            pass
        del item  # before the next graph is parsed
        bucket = result.buckets.get(key)
        if bucket is None:
            bucket = CensusBucket(girth=key[0], signature=key[1])
            result.buckets[key] = bucket
        bucket.count += 1
        if len(bucket.examples) < EXAMPLES_PER_BUCKET:
            bucket.examples.append(gid)
        for law in laws:
            if law.violated:
                result.violations.append((gid, law.law_id, law.witness))
            elif law.applicable and law.holds is None:
                result.unverified.append((gid, law.law_id))
    return result
