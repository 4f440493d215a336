"""graph6/sparse6 lines and the multigraph JSON interchange format.

graph6 carries simple graphs only; sparse6 and the JSON format carry loops
and parallel edges. Both text formats follow the published byte layout
(printable characters 63..126, 6 bits per byte).

A graph6 line has a ⌈n(n−1)/12⌉-byte body, so `graph6_chunks` makes it in
pieces of at most 64 KiB: a writer holds O(n + m) memory plus one piece,
never the line. The readers still take the whole line.

JSON records are described once, as dicts whose large parts are `Lazy`
lists or objects made from the result objects on demand. `json_tree`
builds the plain dicts from a description, and `json_pieces` writes it in
bounded pieces, so the CLI never holds a record's tree or whole string.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import compress, islice
from typing import Any, Callable, Collection, Iterable, Iterator, TYPE_CHECKING

from .errors import (
    MalformedEncoding,
    NotSimple,
    SchemaViolation,
    VertexCountOverflow,
)
from .multigraph import Arc, MultiGraph, _is_int

if TYPE_CHECKING:  # pragma: no cover
    from .schemes import DihedralScheme

GRAPH6_HEADER = ">>graph6<<"
SPARSE6_HEADER = ">>sparse6<<"

#: Hard cap on the decoded vertex count.
DEFAULT_PARSE_CAP = 10**6


# --- shared byte plumbing ---

# each byte carries six bits, most significant first, as the character 63 + value
_PRINTABLE = bytes(range(63, 127))
_UP = bytes((b + 63) & 255 for b in range(256))
_DOWN = bytes((b - 63) & 255 for b in range(256))
# the offsets 0..5 of the bits set in each 6-bit value
_SET_BITS = tuple(tuple(i for i in range(6) if x & (32 >> i)) for x in range(64))


def _decode_n(data: bytes, cap: int) -> tuple[int, bytes]:
    """Read the N(n) prefix, return (n, the remaining 6-bit values)."""
    if not data:
        raise MalformedEncoding("empty line")
    bad = data.translate(None, _PRINTABLE)
    if bad:
        raise MalformedEncoding(f"byte {bad[0]} outside printable range 63..126")
    data = data.translate(_DOWN)
    if data[0] != 63:
        n, rest = data[0], data[1:]
    elif len(data) >= 2 and data[1] != 63:
        if len(data) < 4:
            raise MalformedEncoding("truncated 18-bit vertex count")
        n, rest = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    else:
        if len(data) < 8:
            raise MalformedEncoding("truncated 36-bit vertex count")
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        rest = data[8:]
    if n > cap:
        raise VertexCountOverflow(f"{n} vertices exceeds cap {cap}")
    return n, rest


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise MalformedEncoding("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in range(30, -1, -6)])
    raise MalformedEncoding("vertex count too large for graph6/sparse6")


# --- graph6 ---

def parse_graph6(text: str, cap: int = DEFAULT_PARSE_CAP) -> MultiGraph:
    """Decode one graph6 or sparse6 line (headers tolerated)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    elif s.startswith(SPARSE6_HEADER):
        s = s[len(SPARSE6_HEADER):]
    if not s:
        raise MalformedEncoding("empty line")
    if s.startswith(";"):
        raise MalformedEncoding("incremental sparse6 is not supported")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise MalformedEncoding("non-ascii character") from exc
    if data.startswith(b":"):
        return _parse_sparse6_body(data[1:], cap)
    n, body = _decode_n(data, cap)
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(body) != need:
        raise MalformedEncoding(f"expected {need} body bytes, got {len(body)}")
    # bit p holds the pair (i, j), i < j, with p = col + i and col = j(j-1)/2
    pairs = []
    j, col = 1, 0
    for k in compress(range(need), body):  # the nonzero groups
        for off in _SET_BITS[body[k]]:
            p = 6 * k + off
            if p >= total:  # padding
                break
            while p >= col + j:
                col += j
                j += 1
            pairs.append((p - col, j))
    return MultiGraph(n, enumerate(pairs))


_CHUNK = 1 << 16  # body bytes per piece of a graph6 line


def graph6_chunks(g: MultiGraph) -> Iterator[str]:
    """The canonical graph6 line under the graph's current vertex order,
    newline included, as the header, body pieces of at most _CHUNK bytes,
    and "\\n". Every check runs before this returns, so no error can cut
    a line short."""
    if not g.is_simple:
        raise NotSimple("graph6 cannot carry loops or parallel edges")
    return _graph6_pieces(g.n, (e.ends for e in g.edges))


def _graph6_pieces(n: int, pairs: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """`graph6_chunks` for n vertices and the caller's distinct pairs u < v."""
    header = _encode_n(n).decode("ascii")
    # bit p holds the pair (u, v), u < v, with p = v(v-1)/2 + u
    bits = sorted([v * (v - 1) // 2 + u for u, v in pairs])
    size = (n * (n - 1) // 2 + 5) // 6

    def pieces() -> Iterator[str]:
        yield header
        k = 0
        for start in range(0, size, _CHUNK):
            stop = min(start + _CHUNK, size)
            chunk = bytearray(b"?") * (stop - start)  # 63: no bits set
            j = bisect_left(bits, 6 * stop, k)
            for p in bits[k:j]:  # distinct, so adding sets each bit
                chunk[p // 6 - start] += 32 >> (p % 6)
            k = j
            yield chunk.decode("ascii")
        yield "\n"

    return pieces()


def write_graph6(g: MultiGraph) -> str:
    """Canonical graph6 line under the graph's current vertex order."""
    return "".join(graph6_chunks(g))[:-1]


# --- sparse6 ---
# The body is a sequence of (1 + k)-bit fields b·x, packed most
# significant first; b = 1 advances the current vertex v, then x > v
# jumps v to x and x <= v is the edge {x, v}.

def _sparse6_k(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _parse_sparse6_body(data: bytes, cap: int) -> MultiGraph:
    n, rest = _decode_n(data, cap)
    k = _sparse6_k(n)
    width, mask = k + 1, (1 << k) - 1
    pairs = []
    v = 0
    acc = nbits = 0
    for x6 in rest:
        acc = (acc << 6) | x6
        nbits += 6
        while nbits >= width:  # an incomplete field at the end is padding
            nbits -= width
            field = acc >> nbits
            acc &= (1 << nbits) - 1
            if field >> k:
                v += 1
            x = field & mask
            if x >= n or v >= n:
                return MultiGraph(n, enumerate(pairs))
            if x > v:
                v = x
            else:
                pairs.append((x, v))
    return MultiGraph(n, enumerate(pairs))


def write_sparse6(g: MultiGraph) -> str:
    """Encode any multigraph (loops and parallel edges included)."""
    n = g.n
    k = _sparse6_k(n)
    width, b = k + 1, 1 << k
    pairs = sorted(
        ((e.ends[0], e.ends[-1]) for e in g.edges), key=lambda p: (p[1], p[0])
    )
    fields = []
    v = 0
    for u, w in pairs:
        if w == v:
            fields.append(u)
        elif w == v + 1:
            v += 1
            fields.append(b | u)
        else:
            v = w
            fields.append(b | w)
            fields.append(u)
    out = bytearray()
    acc = nbits = 0
    for f in fields:
        acc = (acc << width) | f
        nbits += width
        while nbits >= 6:
            nbits -= 6
            out.append(acc >> nbits)
            acc &= (1 << nbits) - 1
    pad = -nbits % 6
    if pad:
        # power-of-two clash: plain 1-padding would decode as a loop at n-1
        clash = pad >= width and n == b and v == n - 2
        out.append((acc << pad) | ((1 << (pad - clash)) - 1))
    return ":" + (_encode_n(n) + out.translate(_UP)).decode("ascii")


# --- JSON records in pieces ---

_PIECE = 16  # list items or object members per json.dumps call, which holds
# every token of its piece as a string of its own until it returns
_SEPARATORS = (",", ":")


class Lazy:
    """A JSON list, or an object when `members` is set, whose items (for
    an object, (key, value) pairs) are `make` of each element of `source`,
    made on demand each time it is iterated. The items are plain values."""

    __slots__ = ("source", "make", "members")

    def __init__(self, source: Collection[Any], make: Callable[[Any], Any] | None = None,
                 members: bool = False):
        self.source, self.make, self.members = source, make, members

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.source) if self.make is None else map(self.make, self.source)


def _is_large(value: Any) -> bool:
    return isinstance(value, Lazy) or type(value) is dict and any(map(_is_large, value.values()))


def json_tree(value: Any) -> Any:
    """The plain dicts and lists that a description stands for."""
    if isinstance(value, Lazy):
        return dict(value) if value.members else list(value)
    if type(value) is dict:
        return {k: json_tree(v) for k, v in value.items()}
    return value


def json_pieces(value: Any) -> Iterator[str]:
    """The text of json.dumps(json_tree(value), separators=(",", ":")), as
    one json.dumps call for a value with no `Lazy` part, else one call per
    run of plain members, per key before a large member and per _PIECE
    items of a `Lazy`."""
    if isinstance(value, Lazy):
        items, sep = iter(value), ""
        yield "{" if value.members else "["
        while batch := list(islice(items, _PIECE)):
            text = json.dumps(dict(batch) if value.members else batch, separators=_SEPARATORS)
            yield sep + text[1:-1]
            sep = ","
        yield "}" if value.members else "]"
    elif _is_large(value):  # a dict
        sep, plain = "{", {}
        for key, v in value.items():
            if not _is_large(v):
                plain[key] = v
                continue
            if plain:
                yield sep + json.dumps(plain, separators=_SEPARATORS)[1:-1]
                sep, plain = ",", {}
            yield sep + json.dumps(key) + ":"
            yield from json_pieces(v)
            sep = ","
        yield (sep + json.dumps(plain, separators=_SEPARATORS)[1:-1] if plain else "") + "}"
    else:
        yield json.dumps(value, separators=_SEPARATORS)


# --- multigraph JSON ---

def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaViolation(msg)


def read_multigraph_json(doc: dict[str, Any] | str) -> MultiGraph:
    """Decode the JSON multigraph document (any attached scheme is
    validated and discarded; use read_multigraph_json_full to keep it)."""
    return read_multigraph_json_full(doc)[0]


def read_multigraph_json_full(
    doc: dict[str, Any] | str, cap: int = DEFAULT_PARSE_CAP
) -> tuple[MultiGraph, "DihedralScheme | None"]:
    """Decode the JSON multigraph document and its attached scheme, if any;
    a vertex count above `cap` is refused before anything is allocated."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaViolation(f"not valid JSON: {exc}") from exc
    _check(isinstance(doc, dict), "document must be a JSON object")
    _check("vertices" in doc and "edges" in doc, "missing 'vertices' or 'edges'")
    n = doc["vertices"]
    _check(_is_int(n) and n >= 0, "'vertices' must be a nonnegative integer")
    if n > cap:
        raise VertexCountOverflow(f"{n} vertices exceeds cap {cap}")
    raw_edges, raw = doc["edges"], doc.get("scheme")
    del doc  # a tree parsed here now lives in these two parts, each dropped once read
    _check(isinstance(raw_edges, list), "'edges' must be a list")
    edges = []
    for rec in raw_edges:
        _check(isinstance(rec, dict), "edge record must be an object")
        _check("id" in rec and "ends" in rec, "edge record needs 'id' and 'ends'")
        _check(_is_int(rec["id"]), "edge id must be an integer")
        ends = rec["ends"]
        _check(isinstance(ends, list) and len(ends) in (1, 2) and all(map(_is_int, ends)),
               f"edge {rec.get('id')}: 'ends' must hold 1 or 2 vertex ids")
        edges.append((rec["id"], tuple(ends)))
    del raw_edges
    g = MultiGraph(n, edges)
    del edges

    scheme = None
    if raw is not None:
        from .schemes import DihedralScheme

        _check(isinstance(raw, list), "'scheme' must be a list of rotation cycles")
        rotations = []
        for cyc in raw:
            _check(isinstance(cyc, list), "rotation cycle must be a list of arc refs")
            arcs = []
            for ref in cyc:
                _check(isinstance(ref, dict) and all(_is_int(ref.get(f)) for f in ("edge", "tail", "end")),
                       "arc ref needs integer 'edge', 'tail', 'end'")
                arcs.append(Arc(ref["tail"], ref["edge"], ref["end"]))
            rotations.append(tuple(arcs))
        del raw
        scheme = DihedralScheme.from_rotations(g, rotations)
    return g, scheme


def arc_ref(arc: Arc) -> dict[str, int]:
    return {"edge": arc.edge, "tail": arc.tail, "end": arc.end}


def multigraph_shape(
    g: MultiGraph, scheme: "DihedralScheme | None" = None
) -> dict[str, Any]:
    """The multigraph document, with its edges and scheme left `Lazy`."""
    doc: dict[str, Any] = {
        "vertices": g.n,
        "edges": Lazy(g.edges, lambda e: {"id": e.id, "ends": list(e.ends)}),
    }
    if scheme is not None:
        doc["scheme"] = Lazy(sorted(scheme.rotations), lambda v: [arc_ref(a) for a in scheme.rotation(v)])
    return doc


def write_multigraph_json(
    g: MultiGraph, scheme: "DihedralScheme | None" = None
) -> dict[str, Any]:
    return json_tree(multigraph_shape(g, scheme))
