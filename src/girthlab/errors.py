"""Exception hierarchy shared by all girthlab modules."""

from __future__ import annotations


class GirthLabError(Exception):
    """Base class for all girthlab errors."""


# --- graph model / serialization ---

class MalformedEncoding(GirthLabError):
    """graph6/sparse6 line is syntactically invalid."""


class VertexCountOverflow(GirthLabError):
    """Encoded vertex count exceeds the configured cap."""


class NotSimple(GirthLabError):
    """Operation requires a graph without loops or parallel edges."""


class SchemaViolation(GirthLabError):
    """Multigraph JSON document does not match the schema."""


class DanglingEndpoint(GirthLabError):
    """An edge references a vertex that is not declared."""


class NotAVertex(GirthLabError):
    """The given vertex is not in the graph's range 0..n-1."""


class NotAnArc(GirthLabError):
    """The given arc is not one of the graph's arcs."""


class InvalidScheme(GirthLabError):
    """Rotation data does not form a dihedral scheme, or the scheme
    cannot be truncated into a cubic graph."""


class SizeCapExceeded(GirthLabError):
    """Input too large for a desk-scale operation (isomorphism etc.)."""


# --- girth statistics ---

class InfiniteGirth(GirthLabError):
    """Graph is a forest; girth-cycle statistics are undefined."""


class NotAnEdge(GirthLabError):
    """The given edge id is not an edge of the graph."""


class GirthInvariantViolation(GirthLabError):
    """A girth-cycle invariant failed: a BFS below the girth radius meets a
    shorter cycle, an edge's ε counted from its two ends differs, the ε
    counts add up to no cycle or not to whole cycles, the listed girth
    cycles do not add up to ε, or a decomposition finds the girth cycles
    and ε not as its signature says."""


# --- schemes / maps ---

class NotCubic(GirthLabError):
    """Operation requires every vertex to have valence exactly 3."""


class WrongSignature(GirthLabError):
    """Graph signature does not match the decomposition's contract."""


class NotGirthRegular(GirthLabError):
    """Vertices do not all share the same signature."""


class EdgeCoverageViolation(GirthLabError):
    """Some edge does not lie on exactly two of the given closed walks."""


class UnmatchedVertex(GirthLabError):
    """A vertex meets no edge of the set given as a perfect matching."""


class NotDihedral(GirthLabError):
    """The relation induced by the face walks is not a dihedral scheme."""


class OddGirth(GirthLabError):
    """Internal assertion: a (1,1,2) graph reported an odd girth."""


# --- families / laws / cli ---

class BadParams(GirthLabError):
    """Family parameters out of their documented range."""


class AsymmetricConnectionSet(GirthLabError):
    """Cayley connection set is not closed under negation."""


class ZeroInConnectionSet(GirthLabError):
    """Cayley connection set contains 0 (would create loops)."""


class Disconnected(GirthLabError):
    """Operation requires a connected graph."""


class PreconditionViolation(GirthLabError):
    """Classifier preconditions not met (cubic, girth-regular, girth <= 5)."""
