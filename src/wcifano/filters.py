"""Necessary-condition screens for smooth well formed Fano candidates.

Every filter expresses one numerical condition a smooth well formed Fano
(or Calabi-Yau) weighted complete intersection must satisfy, stated
purely on the (weights, degrees) tuples.  The screens are necessary
conditions only: a candidate passing all of them is not thereby proved
to carry a smooth family.

Verdicts carry machine-checkable witnesses on failure.  Witness fields
follow the notation convention: weight positions 0-based, degree
positions 1-based.

Each screen has exactly one implementation: a private predicate
(weights, degrees) -> witness dict | None that builds the witness only
on failure.  The public verdict functions, run_all and passes_profile
call these predicates, and so does the enumerator for each screen that
neither its search shape nor its cuts enforce.  It enforces GcdCover and
LinearCone by cutting its walk, so no screen it runs per tuple reads the
class gcds.

Every way of running a profile walks its predicates in FILTER_ORDER,
the order a report lists them in: run_all evaluates each of them, while
passes_profile and the enumerator stop at the first witness.  So the
first predicate that fails a tuple is also the first failing verdict of
its run_all report.  Both raise NotNormalized on unsorted tuples when
the profile holds a screen of _READS_POSITIONS, as does each of those
screens' verdict function.

One plan per profile (_Plan, cached, 256 at most) serves run_all,
passes_profile and the enumerator: the (screen, predicate, passing
verdict) steps, the predicates alone, and the screens that read
positions, so a call looks up no screen.  The sort check runs once per
call, before any predicate, and only when such a screen is in the
profile.  It only raises; every verdict, Normalized's included, comes
from that screen's predicate.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from .core import (
    Candidate,
    NotNormalized,
    _Value,
    _class_generators,
    _complement_gcd,
    _first_inversion,
)

__all__ = [
    "CALABI_YAU_PROFILE",
    "FILTER_ORDER",
    "FilterId",
    "FilterReport",
    "FilterVerdict",
    "NoDegrees",
    "SMOOTH_FANO_PROFILE",
    "ambient_well_formed",
    "deltas_ok",
    "fano_positive",
    "gcd_cover_ok",
    "is_linear_cone",
    "is_normalized",
    "last_weight_ok",
    "passes_profile",
    "run_all",
    "unit_prefix_ok",
]


class NoDegrees(ValueError):
    """The filter needs at least one degree (k >= 1)."""


class FilterId(str, Enum):
    """The screens, declared in their canonical evaluation and reporting order."""

    NORMALIZED = "Normalized"
    AMBIENT_WELL_FORMED = "AmbientWellFormed"
    FANO_POSITIVITY = "FanoPositivity"
    LINEAR_CONE = "LinearCone"
    DELTAS = "Deltas"
    LAST_WEIGHT = "LastWeight"
    GCD_COVER = "GcdCover"
    UNIT_PREFIX = "UnitPrefix"


FILTER_ORDER: tuple[FilterId, ...] = tuple(FilterId)

SMOOTH_FANO_PROFILE: frozenset[FilterId] = frozenset(FILTER_ORDER)

# Same screens without index positivity; meant for index-0 searches.
CALABI_YAU_PROFILE: frozenset[FilterId] = SMOOTH_FANO_PROFILE - {FilterId.FANO_POSITIVITY}


class FilterVerdict(_Value):
    __slots__ = {"filter_id": "FilterId", "passed": "bool", "witness": "dict | None"}
    _defaults = {"witness": None}


class FilterReport(_Value):
    """All requested verdicts for one candidate, in FILTER_ORDER."""

    __slots__ = {
        "candidate": "Candidate", "verdicts": "tuple[FilterVerdict, ...]",
        "profile": "frozenset[FilterId]",
    }

    @property
    def survives(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failing(self) -> tuple[FilterVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.passed)


def is_normalized(c: Candidate) -> FilterVerdict:
    """Both tuples sorted non-decreasing; witness is the first inversion."""
    return _screen(FilterId.NORMALIZED, c)


def ambient_well_formed(c: Candidate) -> FilterVerdict:
    """gcd of any N of the N+1 weights is 1.

    Witness: the omitted position and the offending gcd.  For N = 0 the
    single weight itself must be 1 (the degenerate reading under which
    wellformization of a one-weight space always lands on a pass).
    """
    return _screen(FilterId.AMBIENT_WELL_FORMED, c)


def fano_positive(c: Candidate) -> FilterVerdict:
    """sum(weights) - sum(degrees) > 0."""
    return _screen(FilterId.FANO_POSITIVITY, c)


def is_linear_cone(c: Candidate) -> FilterVerdict:
    """Fails iff some degree equals some weight (a cone over a smaller cut).

    Witness: (weight_index, degree_index, value), first in degree order.
    """
    return _screen(FilterId.LINEAR_CONE, c)


def deltas_ok(c: Candidate) -> FilterVerdict:
    """d_j > a_{n+j} for j = 1..k, pairing the degrees with the top weights.

    Requires a normalized candidate.  Vacuous pass for k = 0.
    """
    return _screen(FilterId.DELTAS, c)


def last_weight_ok(c: Candidate) -> FilterVerdict:
    """d_k >= 2 a_N: the top degree dominates twice the top weight."""
    if c.codim == 0:
        raise NoDegrees("last_weight_ok needs at least one degree")
    return _screen(FilterId.LAST_WEIGHT, c)


def gcd_cover_ok(c: Candidate) -> FilterVerdict:
    """Divisibility-class form of the quasi-smoothness count condition.

    For every merged class (members S, class gcd g) at least |S| degrees
    must be divisible by g.  Witness: the first class, in class order,
    with fewer divisible degrees than members.
    """
    return _screen(FilterId.GCD_COVER, c)


def unit_prefix_ok(c: Candidate, index: int) -> FilterVerdict:
    """a_0 = ... = a_{k+i-1} = 1 where i = max(index, 0).

    Requires a normalized candidate, so the check reduces to the single
    position k+i-1.  An empty prefix (k = 0, i <= 0) passes vacuously; a
    prefix longer than the weight tuple fails as infeasible.
    """
    return _screen(FilterId.UNIT_PREFIX, c, index)


def run_all(c: Candidate, profile: frozenset[FilterId] = SMOOTH_FANO_PROFILE) -> FilterReport:
    """Evaluate every requested filter in FILTER_ORDER, no short-circuit.

    Each verdict comes from the same predicate as the standalone verdict
    function; UnitPrefix uses the candidate's own Fano index.  For k = 0
    candidates the LastWeight screen is reported as a vacuous pass (there
    is no degree for it to constrain); the standalone last_weight_ok
    still raises.  Raises NotNormalized on unsorted tuples when the
    profile holds a screen that needs them sorted.
    """
    if not isinstance(profile, frozenset):
        profile = frozenset(profile)
    plan = _plan(profile)
    weights, degrees = c.weights, c.degrees
    _require_sorted(weights, degrees, plan)
    verdicts = []
    for fid, predicate, passed in plan.steps:
        witness = predicate(weights, degrees)
        verdicts.append(passed if witness is None else FilterVerdict(fid, False, witness))
    return FilterReport(c, tuple(verdicts), profile)


def passes_profile(c: Candidate, profile: frozenset[FilterId]) -> bool:
    """True iff every filter in the profile passes.

    Walks the same predicates as run_all, in the same order, so it equals
    run_all(...).survives by construction, NotNormalized raise included;
    it only stops at the first witness and builds no verdicts.  The
    enumerator runs the same walk on its own (always sorted) tuples.
    """
    plan = _plan(profile if isinstance(profile, frozenset) else frozenset(profile))
    _require_sorted(c.weights, c.degrees, plan)
    return _survives(c.weights, c.degrees, plan.predicates)


def _verdict(fid: FilterId, witness: dict | None) -> FilterVerdict:
    if witness is None:
        return _PASSED[fid]
    return FilterVerdict(fid, False, witness)


def _screen(fid: FilterId, c: Candidate, *args) -> FilterVerdict:
    """One screen's verdict on c, through its predicate."""
    _require_sorted(c.weights, c.degrees, _plan(frozenset((fid,))))
    return _verdict(fid, _PREDICATES[fid](c.weights, c.degrees, *args))


# The screens whose predicates read tuple positions, so they need sorted
# tuples.  LastWeight reads none at k = 0, where it passes vacuously.
_READS_POSITIONS = frozenset({FilterId.DELTAS, FilterId.LAST_WEIGHT, FilterId.UNIT_PREFIX})


class _Plan:
    """How run_all, passes_profile and the enumerator run one profile.

    steps: (screen, predicate, passing verdict) per screen, in
    FILTER_ORDER.  predicates: the same predicates alone.  reads: the
    names of the profile's screens of _READS_POSITIONS, in FILTER_ORDER,
    joined for NotNormalized's message ("" when none), with degrees and
    without (LastWeight reads no position at k = 0).
    """

    __slots__ = ("steps", "predicates", "reads", "reads_ambient")

    def __init__(self, profile: frozenset[FilterId]) -> None:
        screens = [fid for fid in FILTER_ORDER if fid in profile]
        self.steps = tuple((fid, _PREDICATES[fid], _PASSED[fid]) for fid in screens)
        self.predicates = tuple(_PREDICATES[fid] for fid in screens)
        reads = [fid.value for fid in screens if fid in _READS_POSITIONS]
        self.reads = ", ".join(reads)
        self.reads_ambient = ", ".join(r for r in reads if r != FilterId.LAST_WEIGHT.value)


@cache
def _plan(profile: frozenset[FilterId]) -> _Plan:
    """The profile's plan, built once per profile (256 at most)."""
    return _Plan(profile)


def _predicates(profile: frozenset[FilterId]) -> tuple:
    """The profile's predicates, in FILTER_ORDER, from its cached plan."""
    return _plan(profile).predicates


def _require_sorted(weights, degrees, plan: _Plan) -> None:
    """Raise NotNormalized on unsorted tuples if a screen of the plan reads their positions."""
    reads = plan.reads if degrees else plan.reads_ambient
    if reads and _first_inversion(weights, degrees) is not None:
        raise NotNormalized(f"sorted weights and degrees needed by {reads}")


def _survives(weights, degrees, predicates) -> bool:
    for predicate in predicates:
        if predicate(weights, degrees) is not None:
            return False
    return True


# One predicate per screen: (weights, degrees) -> witness dict, or None
# on a pass.  Those of _READS_POSITIONS assume sorted tuples.
# Normalized's is core._first_inversion, which Candidate.is_normalized
# walks too.


def _ambient_well_formed(weights, degrees):
    if len(weights) == 1:
        return None if weights[0] == 1 else {"omitted_index": 0, "gcd": weights[0]}
    found = _complement_gcd(weights)
    return None if found is None else {"omitted_index": found[0], "gcd": found[1]}


def _fano_positive(weights, degrees):
    value = sum(weights) - sum(degrees)
    return None if value > 0 else {"fano_index": value}


def _linear_cone(weights, degrees):
    for j, d in enumerate(degrees, start=1):
        if d in weights:
            return {"weight_index": weights.index(d), "degree_index": j, "value": d}
    return None


def _deltas(weights, degrees):
    n = len(weights) - 1 - len(degrees)
    for j, d in enumerate(degrees, start=1):
        if d <= weights[n + j]:
            return {"j": j, "degree": d, "weight": weights[n + j]}
    return None


def _last_weight(weights, degrees):
    # k = 0 passes vacuously here; last_weight_ok raises NoDegrees first.
    if degrees and degrees[-1] < 2 * weights[-1]:
        return {"d_k": degrees[-1], "a_N": weights[-1]}
    return None


def _gcd_cover(weights, degrees):
    # Walks the classes of core.gcd_classes in the same ascending order,
    # without building the class objects, and counts a class's members
    # and divisible degrees only when it is reached: nearly every failing
    # tuple fails at its first class.
    for g in _class_generators(weights):
        required = [a % g for a in weights].count(0)
        available = [d % g for d in degrees].count(0)
        if available < required:
            return {"class_gcd": g, "required": required, "available": available}
    return None


def _unit_prefix(weights, degrees, index=None):
    if index is None:
        index = sum(weights) - sum(degrees)
    prefix_len = len(degrees) + max(index, 0)
    if prefix_len == 0:
        return None
    if prefix_len > len(weights):
        return {"infeasible_prefix": True, "required_length": prefix_len, "num_weights": len(weights)}
    if weights[prefix_len - 1] == 1:
        return None
    # Sorted weights: the first non-unit weight lies inside the prefix.
    p = next(p for p, a in enumerate(weights) if a != 1)
    return {"position": p, "weight": weights[p]}


# One passing verdict per screen, shared by every report: a value is
# immutable, and a pass carries no witness.
_PASSED = {fid: FilterVerdict(fid, True) for fid in FilterId}

_PREDICATES = {
    FilterId.NORMALIZED: _first_inversion,
    FilterId.AMBIENT_WELL_FORMED: _ambient_well_formed,
    FilterId.FANO_POSITIVITY: _fano_positive,
    FilterId.LINEAR_CONE: _linear_cone,
    FilterId.DELTAS: _deltas,
    FilterId.LAST_WEIGHT: _last_weight,
    FilterId.GCD_COVER: _gcd_cover,
    FilterId.UNIT_PREFIX: _unit_prefix,
}
