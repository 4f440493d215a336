"""Deterministic generators for the named graphs used as fixtures and
classification anchors, plus the Moore vertex bound.

Canonical numbering is documented per family so serialized outputs stay
stable across runs.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import AsymmetricConnectionSet, BadParams, ZeroInConnectionSet
from .multigraph import MultiGraph, from_edge_list


def moore_bound(k: int, g: int) -> int:
    """Minimum vertex count of a k-regular graph of girth g, by the
    summation forms (odd: 1 + k·Σ(k-1)^j, even: 2·Σ(k-1)^j)."""
    if k < 2 or g < 3:
        raise BadParams(f"moore_bound needs k >= 2 and g >= 3, got ({k}, {g})")
    if g % 2:
        return 1 + k * sum((k - 1) ** j for j in range((g - 1) // 2))
    return 2 * sum((k - 1) ** j for j in range(g // 2))


def _simple(n: int, pairs: Iterable[tuple[int, int]]) -> MultiGraph:
    uniq = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    return from_edge_list(n, uniq)


def complete(n: int) -> MultiGraph:
    """K_n on vertices 0..n-1."""
    if n < 1:
        raise BadParams("complete graph needs n >= 1")
    return _simple(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(m: int, n: int) -> MultiGraph:
    """K_{m,n}: part one is 0..m-1, part two is m..m+n-1."""
    if m < 1 or n < 1:
        raise BadParams("complete bipartite graph needs m, n >= 1")
    return _simple(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def cycle(n: int) -> MultiGraph:
    """C_n: vertex i adjacent to i±1 mod n."""
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    return _simple(n, ((i, (i + 1) % n) for i in range(n)))


def prism(n: int) -> MultiGraph:
    """Y_n = C_n □ K_2: outer ring 0..n-1, inner ring n..2n-1, rung i-(i+n)."""
    if n < 3:
        raise BadParams("prism needs n >= 3")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(n + i, n + (i + 1) % n) for i in range(n)]
    pairs += [(i, n + i) for i in range(n)]
    return _simple(2 * n, pairs)


def cube_q3() -> MultiGraph:
    """The cube graph, generated as the 4-prism."""
    return prism(4)


def cayley_cyclic(m: int, conn: Sequence[int]) -> MultiGraph:
    """Cay(Z_m, conn): u ~ v iff v - u mod m lies in the connection set."""
    if m < 1:
        raise BadParams("modulus must be positive")
    residues = {c % m for c in conn}
    if 0 in residues:
        raise ZeroInConnectionSet("0 in connection set")
    if {(-c) % m for c in residues} != residues:
        raise AsymmetricConnectionSet(f"{sorted(residues)} not closed under negation mod {m}")
    return _simple(m, ((v, (v + c) % m) for v in range(m) for c in residues))


def mobius(n: int) -> MultiGraph:
    """M_n = Cay(Z_{2n}, {-1, 1, n}): ring 0..2n-1 plus antipodal chords."""
    if n < 3:
        raise BadParams("Möbius ladder needs n >= 3")
    return cayley_cyclic(2 * n, (-1, 1, n))


def petersen() -> MultiGraph:
    """Outer pentagon 0..4, inner pentagram 5..9 (5+i ~ 5+(i+2 mod 5)),
    spokes i ~ 5+i."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pairs += [(i, 5 + i) for i in range(5)]
    return _simple(10, pairs)


def heawood() -> MultiGraph:
    """Fano-plane incidence graph: points 0..6, lines 7..13, line i holding
    the quadratic-residue translate {i+1, i+2, i+4} mod 7."""
    pairs = []
    for i in range(7):
        for r in (1, 2, 4):
            pairs.append(((i + r) % 7, 7 + i))
    return _simple(14, pairs)


def _lcf(n: int, seq: Sequence[int]) -> MultiGraph:
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, (i + seq[i % len(seq)]) % n) for i in range(n)]
    return _simple(n, pairs)


# LCF words from the standard catalogue entries for these graphs; the
# tests pin each named graph's order, girth and valence, so that a
# transcription slip fails them.
_TUTTE_COXETER_LCF = (-13, -9, 7, -7, 9, 13)
_TUTTE_12CAGE_LCF = (
    17, 27, -13, -59, -35, 35, -11, 13, -53, 53, -27, 21, 57, 11, -21, -57, 59, -17,
)
_DODECAHEDRON_LCF = (10, 7, 4, -4, -7, 10, -4, 7, -7, 4)


def tutte_coxeter() -> MultiGraph:
    """Tutte-Coxeter graph (Tutte 8-cage), 30 vertices, girth 8."""
    return _lcf(30, _TUTTE_COXETER_LCF)


def tutte_12cage() -> MultiGraph:
    """Tutte 12-cage, 126 vertices, girth 12."""
    return _lcf(126, _TUTTE_12CAGE_LCF)


def dodecahedron() -> MultiGraph:
    """Dodecahedron skeleton, 20 vertices, girth 5."""
    return _lcf(20, _DODECAHEDRON_LCF)


def hoffman_singleton() -> MultiGraph:
    """Hoffman-Singleton graph: pentagons P_h (vertices 5h+j, j ~ j±1) for
    h in 0..4, pentagrams Q_i (vertices 25+5i+j, j ~ j±2), and P_h,j
    joined to Q_i,(hi+j mod 5)."""
    pairs = []
    for h in range(5):
        for j in range(5):
            pairs.append((5 * h + j, 5 * h + (j + 1) % 5))
            pairs.append((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                pairs.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return _simple(50, pairs)


class FamilySpec(NamedTuple):
    name: str
    params: tuple[int, ...] = ()


# family -> (generator, parameter count); cayleyCyclic's None stands for
# a modulus and one or more connection residues
_FAMILIES = {
    "complete": (complete, 1),
    "completeBipartite": (complete_bipartite, 2),
    "cycle": (cycle, 1),
    "prism": (prism, 1),
    "mobius": (mobius, 1),
    "cayleyCyclic": (lambda m, *conn: cayley_cyclic(m, conn), None),
    "petersen": (petersen, 0),
    "heawood": (heawood, 0),
    "tutteCoxeter": (tutte_coxeter, 0),
    "tutte12Cage": (tutte_12cage, 0),
    "dodecahedron": (dodecahedron, 0),
    "cubeQ3": (cube_q3, 0),
    "hoffmanSingleton": (hoffman_singleton, 0),
}
_TAKES = ("no parameters", "one parameter", "two parameters")

FAMILY_NAMES = tuple(_FAMILIES)


def generate(spec: FamilySpec) -> MultiGraph:
    """Dispatch a FamilySpec to its generator."""
    name, params = spec.name, spec.params
    if name not in _FAMILIES:
        raise BadParams(f"unknown family {name!r}; choose from {', '.join(FAMILY_NAMES)}")
    make, count = _FAMILIES[name]
    if count is None and len(params) < 2:
        raise BadParams(f"{name} takes a modulus and connection residues")
    if count is not None and len(params) != count:
        raise BadParams(f"{name} takes {_TAKES[count]}")
    return make(*params)
