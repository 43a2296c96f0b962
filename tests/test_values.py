"""The value types: immutable, compared and hashed by their fields, printed and pickled whole.

The repr strings are those the package printed when the types were
frozen dataclasses; the types keep that text.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from wcifano.core import Candidate, GcdClass
from wcifano.enumerator import EnumerationQuery, EnumerationResult, SearchStats
from wcifano.filters import SMOOTH_FANO_PROFILE, FilterId, FilterReport, FilterVerdict
from wcifano.output import OutputRecord
from wcifano.transforms import (
    PairRemovalStep,
    SectionStep,
    TransformKind,
    TransformTrace,
    VeroneseStep,
)
from wcifano.verify import SliceOutcome, Verdict, VerificationResult, VerifyCase

C = Candidate((1, 1, 2), (4,))
C_REPR = "Candidate(weights=(1, 1, 2), degrees=(4,))"
QUERY = EnumerationQuery(1, 1, 1, 4, frozenset({FilterId.DELTAS}))
QUERY_REPR = (
    "EnumerationQuery(n=1, index=1, k=1, max_weight=4,"
    " profile=frozenset({<FilterId.DELTAS: 'Deltas'>}))"
)
RESULT = EnumerationResult(QUERY, (C,), False, False, SearchStats(5, 2))
RESULT_REPR = (
    f"EnumerationResult(query={QUERY_REPR}, survivors=({C_REPR},), cap_touched=False,"
    " prefix_infeasible=False, stats=SearchStats(nodes=5, tested=2))"
)
SLICE = SliceOutcome(1, 1, 1, (C,), RESULT, Verdict.VERIFIED)
SLICE_REPR = (
    f"SliceOutcome(n=1, index=1, k=1, expected=({C_REPR},), result={RESULT_REPR},"
    " status=<Verdict.VERIFIED: 'Verified'>, counterexample=None)"
)

# (type, its fields in order with values, a field and another value for
# it, whether it hashes, its repr).  A type with a dict field does not
# hash, as a frozen dataclass with one did not.
CASES = [
    (Candidate, {"weights": (1, 1, 2), "degrees": (4,)}, ("degrees", (5,)), True, C_REPR),
    (
        GcdClass,
        {"delta": 2, "member_indices": frozenset({2}), "class_gcd": 2},
        ("class_gcd", 4),
        True,
        "GcdClass(delta=2, member_indices=frozenset({2}), class_gcd=2)",
    ),
    (
        FilterVerdict,
        {"filter_id": FilterId.DELTAS, "passed": False, "witness": {"j": 1}},
        ("witness", {"j": 2}),
        False,
        "FilterVerdict(filter_id=<FilterId.DELTAS: 'Deltas'>, passed=False, witness={'j': 1})",
    ),
    (
        FilterReport,
        {
            "candidate": C,
            "verdicts": (FilterVerdict(FilterId.LINEAR_CONE, True),),
            "profile": frozenset({FilterId.LINEAR_CONE}),
        },
        ("verdicts", ()),
        True,
        f"FilterReport(candidate={C_REPR}, verdicts=(FilterVerdict(filter_id="
        "<FilterId.LINEAR_CONE: 'LinearCone'>, passed=True, witness=None),),"
        " profile=frozenset({<FilterId.LINEAR_CONE: 'LinearCone'>}))",
    ),
    (
        OutputRecord,
        {
            "weights": (1, 1, 2),
            "degrees": (4,),
            "dim": 1,
            "codim": 1,
            "fano_index": 0,
            "verdicts": {"LinearCone": True},
            "witnesses": {},
        },
        ("fano_index", 1),
        False,
        "OutputRecord(weights=(1, 1, 2), degrees=(4,), dim=1, codim=1, fano_index=0,"
        " verdicts={'LinearCone': True}, witnesses={})",
    ),
    (
        EnumerationQuery,
        {"n": 1, "index": 1, "k": 1, "max_weight": 4, "profile": frozenset({FilterId.DELTAS})},
        ("max_weight", 5),
        True,
        QUERY_REPR,
    ),
    (SearchStats, {"nodes": 5, "tested": 2}, ("tested", 3), True, "SearchStats(nodes=5, tested=2)"),
    (
        EnumerationResult,
        {
            "query": QUERY,
            "survivors": (C,),
            "cap_touched": False,
            "prefix_infeasible": False,
            "stats": SearchStats(5, 2),
        },
        ("cap_touched", True),
        True,
        RESULT_REPR,
    ),
    (
        SliceOutcome,
        {
            "n": 1,
            "index": 1,
            "k": 1,
            "expected": (C,),
            "result": RESULT,
            "status": Verdict.VERIFIED,
            "counterexample": None,
        },
        ("counterexample", C),
        True,
        SLICE_REPR,
    ),
    (
        VerificationResult,
        {
            "case_id": VerifyCase.CASE_II,
            "cap": 15,
            "slices": (SLICE,),
            "verdict": Verdict.REFUTED,
            "counterexample": C,
            "notes": ("a note",),
        },
        ("notes", ()),
        True,
        f"VerificationResult(case_id=<VerifyCase.CASE_II: 'ii'>, cap=15, slices=({SLICE_REPR},),"
        f" verdict=<Verdict.REFUTED: 'Refuted'>, counterexample={C_REPR}, notes=('a note',))",
    ),
    (
        VeroneseStep,
        {"factor": 2, "divided_positions": (1, 2)},
        ("factor", 3),
        True,
        "VeroneseStep(factor=2, divided_positions=(1, 2))",
    ),
    (
        PairRemovalStep,
        {"weight_pos": 1, "degree_pos": 0, "value": 3},
        ("value", 4),
        True,
        "PairRemovalStep(weight_pos=1, degree_pos=0, value=3)",
    ),
    (SectionStep, {"removed_pos": 0}, ("removed_pos", 1), True, "SectionStep(removed_pos=0)"),
    (
        TransformTrace,
        {
            "kind": TransformKind.HYPERPLANE_SECTION,
            "before": C,
            "after": Candidate((1, 2), (4,)),
            "steps": (SectionStep(0),),
        },
        ("steps", ()),
        True,
        f"TransformTrace(kind=<TransformKind.HYPERPLANE_SECTION: 'HyperplaneSection'>,"
        f" before={C_REPR}, after=Candidate(weights=(1, 2), degrees=(4,)),"
        " steps=(SectionStep(removed_pos=0),))",
    ),
]


REQUIRED = inspect.Parameter.empty

# The constructor parameters of each type, in order, with their defaults.
SIGNATURES = {
    Candidate: [("weights", REQUIRED), ("degrees", ())],
    GcdClass: [("delta", REQUIRED), ("member_indices", REQUIRED), ("class_gcd", REQUIRED)],
    FilterVerdict: [("filter_id", REQUIRED), ("passed", REQUIRED), ("witness", None)],
    FilterReport: [("candidate", REQUIRED), ("verdicts", REQUIRED), ("profile", REQUIRED)],
    OutputRecord: [
        (name, REQUIRED)
        for name in ("weights", "degrees", "dim", "codim", "fano_index", "verdicts", "witnesses")
    ],
    EnumerationQuery: [
        ("n", REQUIRED),
        ("index", REQUIRED),
        ("k", REQUIRED),
        ("max_weight", None),
        ("profile", SMOOTH_FANO_PROFILE),
    ],
    SearchStats: [("nodes", REQUIRED), ("tested", REQUIRED)],
    EnumerationResult: [
        (name, REQUIRED)
        for name in ("query", "survivors", "cap_touched", "prefix_infeasible", "stats")
    ],
    SliceOutcome: [
        *((name, REQUIRED) for name in ("n", "index", "k", "expected", "result", "status")),
        ("counterexample", None),
    ],
    VerificationResult: [
        (name, REQUIRED)
        for name in ("case_id", "cap", "slices", "verdict", "counterexample", "notes")
    ],
    VeroneseStep: [("factor", REQUIRED), ("divided_positions", REQUIRED)],
    PairRemovalStep: [("weight_pos", REQUIRED), ("degree_pos", REQUIRED), ("value", REQUIRED)],
    SectionStep: [("removed_pos", REQUIRED)],
    TransformTrace: [(name, REQUIRED) for name in ("kind", "before", "after", "steps")],
}


@pytest.fixture(params=CASES, ids=[case[0].__name__ for case in CASES])
def case(request):
    return request.param


def test_every_value_type_is_covered():
    assert len(CASES) == 14


def test_constructors_take_their_parameters_in_order_with_their_defaults(case):
    cls = case[0]
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)


def test_a_call_without_the_first_field_names_it(case):
    cls, fields, _, _, _ = case
    first, *rest = fields
    with pytest.raises(TypeError) as info:
        cls(**{name: fields[name] for name in rest})
    assert str(info.value) == (
        f"{cls.__name__}.__init__() missing 1 required positional argument: '{first}'"
    )


def test_repr_is_the_dataclass_text(case):
    cls, fields, _, _, text = case
    assert repr(cls(**fields)) == text


def test_a_rebuilt_copy_is_equal_and_hashes_alike(case):
    cls, fields, _, hashable, _ = case
    value, rebuilt = cls(**fields), cls(**copy.deepcopy(fields))
    assert value == rebuilt and not value != rebuilt
    if hashable:
        assert hash(value) == hash(rebuilt)
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_one_field_differing_makes_it_unequal(case):
    cls, fields, (name, other), _, _ = case
    assert cls(**fields) != cls(**{**fields, name: other})


def test_a_different_type_with_the_same_fields_is_unequal(case):
    cls, fields, _, _, _ = case
    # an equal field tuple of another type is no match
    assert cls(**fields) != tuple(fields.values())


def test_positional_and_keyword_construction_agree(case):
    cls, fields, _, _, _ = case
    value = cls(*fields.values())
    assert value == cls(**fields)
    assert [getattr(value, name) for name in fields] == list(fields.values())


def test_class_patterns_take_the_fields_in_order(case):
    cls, fields, _, _, _ = case
    assert cls.__match_args__ == tuple(fields)
    match cls(**fields):
        case Candidate(weights, degrees):
            assert (weights, degrees) == ((1, 1, 2), (4,))
        case cls():
            pass
        case _:
            pytest.fail("the value did not match its own class")


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, fields, (name, other), _, _ = case
    value = cls(**fields)
    with pytest.raises(AttributeError):
        setattr(value, name, other)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == fields[name]


@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(case, round_trip):
    cls, fields, _, _, _ = case
    value = cls(**fields)
    back = round_trip(value)
    assert type(back) is cls and back == value


def test_defaults_fill_the_trailing_fields():
    assert Candidate((1,)) == Candidate(weights=(1,), degrees=())
    query = EnumerationQuery(3, 2, 1)
    assert (query.max_weight, query.profile) == (24, SMOOTH_FANO_PROFILE)
    assert FilterVerdict(FilterId.DELTAS, True).witness is None
    assert SliceOutcome(1, 1, 1, (C,), RESULT, Verdict.VERIFIED).counterexample is None


def test_construction_keeps_its_conversions():
    c = Candidate([1, 1, 2], iter([4]))
    assert (c.weights, c.degrees) == ((1, 1, 2), (4,))
    query = EnumerationQuery(1, 1, 1, profile=[FilterId.DELTAS])
    assert query.profile == frozenset({FilterId.DELTAS})
