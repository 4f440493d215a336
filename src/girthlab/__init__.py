"""girthlab: girth-cycle statistics, dihedral schemes, truncations and
map decompositions for finite graphs, with machine checks of the
classification laws they satisfy."""

from .codec import (
    parse_graph6,
    read_multigraph_json,
    read_multigraph_json_full,
    write_graph6,
    write_multigraph_json,
    write_sparse6,
)
from .girth import (
    DistancePartition,
    GirthReport,
    TwoPathCounts,
    check_partition_facts,
    distance_partition,
    epsilon,
    girth,
    girth_cycles,
    girth_report,
    two_path_counts,
)
from .isomorphism import are_isomorphic, find_isomorphism, is_vertex_transitive
from .laws import Classification, LawResult, census, check_all_laws, classify_g5
from .maps import ClosedWalk, MapComplex, build_map, decompose_112, map_from_222, truncate_map
from .multigraph import Arc, MultiGraph, from_edge_list
from .schemes import DihedralScheme, TruncationResult, decompose_011, truncate, unique_cubic_scheme

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "Classification",
    "ClosedWalk",
    "DihedralScheme",
    "DistancePartition",
    "GirthReport",
    "LawResult",
    "MapComplex",
    "MultiGraph",
    "TruncationResult",
    "TwoPathCounts",
    "are_isomorphic",
    "build_map",
    "census",
    "check_all_laws",
    "check_partition_facts",
    "classify_g5",
    "decompose_011",
    "decompose_112",
    "distance_partition",
    "epsilon",
    "find_isomorphism",
    "from_edge_list",
    "girth",
    "girth_cycles",
    "girth_report",
    "is_vertex_transitive",
    "map_from_222",
    "parse_graph6",
    "read_multigraph_json",
    "read_multigraph_json_full",
    "truncate",
    "truncate_map",
    "two_path_counts",
    "unique_cubic_scheme",
    "write_graph6",
    "write_multigraph_json",
    "write_sparse6",
]
