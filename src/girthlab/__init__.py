"""girthlab: girth-cycle statistics, dihedral schemes, truncations and
map decompositions for finite graphs, with machine checks of the
classification laws they satisfy."""

from importlib import import_module

# Every command needs codec, girth and multigraph; an eager `girth` also stays
# the function, where a submodule's first import would bind the module here.
# The other names load with their module on first use (PEP 562); no command loads `partitions`.
from .codec import (
    parse_graph6,
    read_multigraph_json,
    read_multigraph_json_full,
    write_graph6,
    write_multigraph_json,
    write_sparse6,
)
from .girth import GirthReport, epsilon, girth, girth_cycles, girth_report
from .multigraph import Arc, MultiGraph, from_edge_list

__version__ = "0.1.0"

_LAZY = {
    name: module
    for module, names in (
        ("isomorphism", "are_isomorphic find_isomorphism is_vertex_transitive"),
        ("laws", "Classification LawResult census check_all_laws classify_g5"),
        ("maps", "ClosedWalk MapComplex build_map decompose_112 map_from_222 truncate_map"),
        ("partitions", "DistancePartition TwoPathCounts check_partition_facts distance_partition two_path_counts"),
        ("schemes", "DihedralScheme TruncationResult decompose_011 truncate unique_cubic_scheme"),
    )
    for name in names.split()
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = sorted(
    [
        "Arc",
        "GirthReport",
        "MultiGraph",
        "epsilon",
        "from_edge_list",
        "girth",
        "girth_cycles",
        "girth_report",
        "parse_graph6",
        "read_multigraph_json",
        "read_multigraph_json_full",
        "write_graph6",
        "write_multigraph_json",
        "write_sparse6",
        *_LAZY,
    ]
)
