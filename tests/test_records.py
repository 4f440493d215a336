"""The public record types: how they print, compare, sort and serialise,
and that the immutable ones refuse assignment."""

from __future__ import annotations

import copy
import json
import pickle

import pytest

from girthlab import families
from girthlab.errors import NotAnArc
from girthlab.families import FamilySpec
from girthlab.girth import check_partition_facts, distance_partition, girth_report, two_path_counts
from girthlab.laws import CensusBucket, CensusResult, Classification, LawResult, check_all_laws
from girthlab.maps import ClosedWalk, MapComplex, map_from_222
from girthlab.multigraph import Arc, MultiGraph
from girthlab.schemes import TruncationResult, unique_cubic_scheme

K4 = families.complete(4)


def theta() -> MultiGraph:
    return MultiGraph(2, [(0, (0, 1)), (1, (0, 1)), (2, (0, 1))])


def k4_face() -> ClosedWalk:
    return ClosedWalk.from_arcs(K4, [Arc(0, 0, 0), Arc(1, 3, 0), Arc(2, 1, 1)])


# each record built fresh by its maker, and the text its repr gives
RECORDS = {
    "Arc": (lambda: Arc(1, 0, 1), "Arc(tail=1, edge=0, end=1)"),
    "GirthReport": (
        lambda: girth_report(theta()),
        "GirthReport(girth=2, cycle_count=3, epsilon=mappingproxy({0: 2, 1: 2, 2: 2}),"
        " signatures=mappingproxy({0: (2, 2, 2), 1: (2, 2, 2)}), regular=(2, 2, 2))",
    ),
    "DistancePartition": (
        lambda: distance_partition(K4, 0, 1), "DistancePartition(sources=(0, 1), radius=1)"
    ),
    "FactResult": (
        lambda: check_partition_facts(K4, 0, 1)[0],
        "FactResult(fact=1, applicable=True, holds=True, witness=None)",
    ),
    "TwoPathCounts": (
        lambda: two_path_counts(K4, 0), "TwoPathCounts(vertex=0, edges=(0, 1, 2), x=1, y=1, z=1)"
    ),
    "FamilySpec": (lambda: FamilySpec("prism", (3,)), "FamilySpec(name='prism', params=(3,))"),
    "LawResult": (
        lambda: LawResult("thm1", True, True, {"a": 1}),
        "LawResult(law_id='thm1', applicable=True, holds=True, witness={'a': 1})",
    ),
    "DihedralScheme": (
        lambda: unique_cubic_scheme(K4), "DihedralScheme(base=MultiGraph(n=4, edges=6), vertices=4)"
    ),
    "TruncationResult": (
        lambda: TruncationResult(MultiGraph(0, []), {}),
        "TruncationResult(graph=MultiGraph(n=0, edges=0), vertex_origin={})",
    ),
    "MapComplex": (
        lambda: MapComplex(K4, (), unique_cubic_scheme(K4), 2),
        "MapComplex(skeleton=MultiGraph(n=4, edges=6), faces=(),"
        " scheme_induced=DihedralScheme(base=MultiGraph(n=4, edges=6), vertices=4),"
        " euler_characteristic=2)",
    ),
    "ClosedWalk": (
        k4_face,
        "ClosedWalk(arcs=(Arc(tail=0, edge=0, end=0), Arc(tail=1, edge=3, end=0),"
        " Arc(tail=2, edge=1, end=1)))",
    ),
    "Classification": (
        lambda: Classification("K4"), "Classification(case='K4', detail={}, witness=None, model=None)"
    ),
    "CensusBucket": (
        lambda: CensusBucket(3, (2, 2, 2)),
        "CensusBucket(girth=3, signature=(2, 2, 2), count=0, examples=[])",
    ),
    "CensusResult": (
        CensusResult, "CensusResult(total=0, buckets={}, violations=[], unverified=[], errors=[])"
    ),
}
IMMUTABLE = [name for name in RECORDS if not name.startswith("Census")]


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_each_field(name):
    make, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", IMMUTABLE)
def test_immutable_records_compare_by_their_fields_and_refuse_assignment(name):
    make, _ = RECORDS[name]
    rec = make()
    assert rec == make()
    field = "arcs" if name == "ClosedWalk" else type(rec).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)


def test_arcs_compare_hash_and_sort_as_their_fields():
    a, b, c = Arc(0, 1, 0), Arc(0, 1, 1), Arc(1, 0, 0)
    assert a == Arc(0, 1, 0) and a != b and a != Arc(1, 1, 0)
    assert hash(a) == hash(Arc(0, 1, 0)) == hash((0, 1, 0))
    assert len({a, b, c, Arc(0, 1, 0)}) == 3
    assert a < b < c and sorted([c, b, a]) == [a, b, c] and max(a, c) is c
    assert str(a) == "Arc(tail=0, edge=1, end=0)"
    with pytest.raises(NotAnArc, match=r"Arc\(tail=3, edge=0, end=0\) is not an arc"):
        K4.inverse(Arc(3, 0, 0))


def test_a_closed_walk_has_its_arc_count_as_length_and_sorts_by_its_arcs():
    m = map_from_222(K4)
    assert [len(w) for w in m.faces] == [len(w.arcs) for w in m.faces] == [3] * 4
    faces = list(m.faces)
    assert sorted(reversed(faces)) == faces == sorted(faces, key=lambda w: w.arcs)
    assert faces[0] < faces[1] and not faces[1] < faces[0]
    assert len({*faces, k4_face()}) == 4 and k4_face() in faces


@pytest.mark.parametrize("g", [
    # ids given out of order, a negative one among them; girth 3, 2 and 1
    MultiGraph(4, [(9, (2, 3)), (-3, (0, 1)), (4, (3, 0)), (0, (1, 2)), (7, (0, 2))]),
    MultiGraph(2, [(5, (0, 1)), (1, (1, 0)), (3, (0, 1))]),
    MultiGraph(2, [(8, (1,)), (2, (0, 1)), (6, (0,))]),
])
def test_report_mappings_are_stored_in_id_order(g):
    # to_json writes them in stored order, so the bytes rest on this order
    report = girth_report(g)
    assert list(report.epsilon) == sorted(e.id for e in g.edges)
    assert list(report.signatures) == list(range(g.n))
    doc = report.to_json()
    assert list(doc["epsilon"]) == [str(k) for k in sorted(report.epsilon)]
    assert list(doc["signatures"]) == [str(v) for v in range(g.n)]


def test_to_json_is_unchanged():
    assert girth_report(theta()).to_json() == {
        "girth": 2,
        "cycles": 3,
        "epsilon": {"0": 2, "1": 2, "2": 2},
        "signatures": {"0": [2, 2, 2], "1": [2, 2, 2]},
        "regular": [2, 2, 2],
    }
    assert LawResult("thm1", False, None).to_json() == {
        "law": "thm1", "applicable": False, "holds": None, "witness": None
    }
    main = check_all_laws(families.petersen())[-1]
    assert json.dumps(main.to_json(), separators=(",", ":")) == (
        '{"law":"thm-main","applicable":true,"holds":true,"witness":{"case":"Petersen","detail":{}}}'
    )
    assert map_from_222(K4).to_json() == {
        "skeleton": {
            "vertices": 4,
            "edges": [
                {"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [0, 2]}, {"id": 2, "ends": [0, 3]},
                {"id": 3, "ends": [1, 2]}, {"id": 4, "ends": [1, 3]}, {"id": 5, "ends": [2, 3]},
            ],
        },
        "faces": [
            [{"edge": e, "tail": t, "end": x} for t, e, x in face]
            for face in (
                [(0, 0, 0), (1, 3, 0), (2, 1, 1)],
                [(0, 0, 0), (1, 4, 0), (3, 2, 1)],
                [(0, 1, 0), (2, 5, 0), (3, 2, 1)],
                [(1, 3, 0), (2, 5, 0), (3, 4, 1)],
            )
        ],
        "chi": 2,
        "nonOrientableForced": False,
    }


def test_each_accumulator_has_its_own_lists():
    a, b = CensusResult(), CensusResult()
    a.total += 1
    a.buckets[(3, None)] = CensusBucket(3, None)
    a.violations.append(("g", "thm1", None))
    a.unverified.append(("g", "thm2"))
    a.errors.append(("g", "bad"))
    assert (b.total, b.buckets, b.violations, b.unverified, b.errors) == (0, {}, [], [], [])
    x, y = CensusBucket(3, None), CensusBucket(3, None)
    x.count += 1
    x.examples.append("g")
    assert (y.count, y.examples) == (0, [])
    # copies and pickles compare equal to the original and own their lists
    for acc, inner in ((a, "violations"), (x, "examples")):
        twin = copy.deepcopy(acc)
        assert twin == acc and getattr(twin, inner) is not getattr(acc, inner)
        assert pickle.loads(pickle.dumps(acc)) == acc


def test_a_classification_has_its_own_empty_detail():
    a, b = Classification("K4"), Classification("K4")
    assert a.detail == {} and a.detail is not b.detail
    assert a.to_json() == {"case": "K4", "detail": {}}
