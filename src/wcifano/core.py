"""Exact-integer domain objects for weighted complete intersection screening.

A candidate is a pair of integer tuples: the ambient weights
(a_0, ..., a_N) of a weighted projective space and the multidegree
(d_1, ..., d_k) of a would-be complete intersection of codimension k
inside it.  All arithmetic is exact; Python integers never overflow, so
the Fano index and every gcd computed here are exact values.

Convention used across the package: weight positions are 0-based and
degree positions are 1-based, mirroring the usual a_i / d_j notation.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import gcd
from operator import attrgetter

__all__ = [
    "Candidate",
    "CandidateError",
    "EmptyWeights",
    "GcdClass",
    "NonPositiveEntry",
    "NotNormalized",
    "TooManyDegrees",
    "canonical_key",
    "fano_index",
    "gcd_classes",
    "new_candidate",
    "normalize",
]


class CandidateError(ValueError):
    """Invalid weight/degree data."""


class EmptyWeights(CandidateError):
    """A candidate needs at least one weight."""


class NonPositiveEntry(CandidateError):
    """Weights and degrees must be positive integers."""


class TooManyDegrees(CandidateError):
    """The codimension k may not exceed the ambient dimension N."""


class NotNormalized(ValueError):
    """The operation requires weights and degrees sorted non-decreasing."""


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields, in order, as its __slots__ and sets
    them in its own __init__ through _set.  Two values are equal when
    they have the same class and equal fields, and hash as their field
    tuple; repr prints Name(field=value, ...).  Fields cannot be
    assigned or deleted, and pickling rebuilds a value through its
    class, so copy and deepcopy work too.  A class pattern in a match
    statement takes the fields positionally, in order.  Values cannot be
    weakly referenced: the slots hold the fields only.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # _fields reads the field tuple in one call: attrgetter returns a
        # tuple for two names or more.
        get = attrgetter(*cls.__slots__)
        cls._fields = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")

    def __reduce__(self):
        return self.__class__, self._fields


# Sets a field in an __init__, past _Value.__setattr__.
_set = object.__setattr__


class Candidate(_Value):
    """A (weights, degrees) pair with derived dimension data.

    N = len(weights) - 1 is the ambient dimension, k = len(degrees) the
    codimension, n = N - k the dimension of the cut.  k = 0 is legal and
    denotes the ambient space itself.  Construction validates shape only;
    no geometric condition is implied.
    """

    __slots__ = ("weights", "degrees")

    def __init__(self, weights: tuple[int, ...], degrees: tuple[int, ...] = ()) -> None:
        weights = tuple(weights)
        degrees = tuple(degrees)
        if not weights:
            raise EmptyWeights("candidate needs at least one weight")
        # Exact positive ints pass at once; the rest take the full check,
        # which accepts other int subclasses and rejects bool.
        for value in [v for v in weights + degrees if type(v) is not int or v < 1]:
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise NonPositiveEntry(f"entries must be positive integers, got {value!r}")
        if len(degrees) > len(weights) - 1:
            raise TooManyDegrees(
                f"{len(degrees)} degrees against ambient dimension {len(weights) - 1}"
            )
        _set(self, "weights", weights)
        _set(self, "degrees", degrees)

    @property
    def ambient_dim(self) -> int:
        """N, the dimension of the ambient weighted projective space."""
        return len(self.weights) - 1

    @property
    def codim(self) -> int:
        """k, the number of degrees."""
        return len(self.degrees)

    @property
    def dim(self) -> int:
        """n = N - k, the dimension of the complete intersection."""
        return len(self.weights) - 1 - len(self.degrees)

    @property
    def is_normalized(self) -> bool:
        """True when both tuples are sorted non-decreasing."""
        return _first_inversion(self.weights, self.degrees) is None


class GcdClass(_Value):
    """Weight positions sharing a common divisor delta > 1.

    member_indices holds every position whose weight delta divides;
    class_gcd is the gcd of those weights.  gcd_classes takes each delta
    from the gcd closure of the weights, so delta == class_gcd by
    construction.
    """

    __slots__ = ("delta", "member_indices", "class_gcd")

    def __init__(self, delta: int, member_indices: frozenset[int], class_gcd: int) -> None:
        _set(self, "delta", delta)
        _set(self, "member_indices", member_indices)
        _set(self, "class_gcd", class_gcd)


def new_candidate(weights, degrees=()) -> Candidate:
    """Validating constructor; accepts any integer iterables."""
    return Candidate(tuple(weights), tuple(degrees))


def normalize(c: Candidate) -> Candidate:
    """The canonical representative: both tuples sorted non-decreasing; c itself when sorted."""
    weights, degrees = tuple(sorted(c.weights)), tuple(sorted(c.degrees))
    if weights == c.weights and degrees == c.degrees:
        return c
    # The same entries in another order: c's validation holds for them.
    sorted_c = object.__new__(Candidate)
    _set(sorted_c, "weights", weights)
    _set(sorted_c, "degrees", degrees)
    return sorted_c


def canonical_key(c: Candidate) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Total order key: lexicographic on (sorted weights, sorted degrees)."""
    n = normalize(c)
    return (n.weights, n.degrees)


def fano_index(c: Candidate) -> int:
    """sum(weights) - sum(degrees); positive for Fano, zero for Calabi-Yau."""
    return sum(c.weights) - sum(c.degrees)


def _first_inversion(weights, degrees) -> dict | None:
    """The first adjacent pair out of order, weights before degrees, or None when both are sorted.

    This is the Normalized screen's witness: {"list": "weights" or
    "degrees", "position": p} with values[p] > values[p + 1].
    """
    for name, values in (("weights", weights), ("degrees", degrees)):
        for p in range(len(values) - 1):
            if values[p] > values[p + 1]:
                return {"list": name, "position": p}
    return None


def _complement_gcd(weights) -> tuple[int, int] | None:
    """First position whose complement (all weights but that one) has gcd > 1.

    Returns (position, gcd), or None when every complement is coprime.
    One weight has an empty complement (gcd 0), so it gives None.
    """
    if weights.count(1) >= 2:
        # Every complement keeps a unit weight, so every gcd is 1.
        return None
    # suffixes[p] = gcd(weights[p:]), with gcd() = 0
    suffixes = list(accumulate(reversed(weights), gcd, initial=0))[::-1]
    prefix = 0
    for p, value in enumerate(weights):
        g = gcd(prefix, suffixes[p + 1])
        if g > 1:
            return p, g
        prefix = gcd(prefix, value)
    return None


def _class_generators(weights) -> list[int]:
    """The gcds g > 1 of nonempty weight subsets, ascending.

    This is the gcd closure of the weight values, built by one pass
    (_gcds_added) that adds each distinct weight and its gcd with every
    value seen so far (a repeated weight adds nothing); no weight is
    factored.  Unit weights only contribute gcd 1 and are skipped.
    """
    closure: set[int] = set()
    for a in set(weights):
        if a > 1:
            closure |= _gcds_added(closure, a)
    closure.discard(1)
    return sorted(closure)


def _gcds_added(closure, a: int) -> set[int]:
    """What a weight a > 1 adds to a gcd closure: a and its gcd (possibly 1) with each value."""
    return {a, *map(gcd, closure, repeat(a))}


def gcd_classes(c: Candidate) -> list[GcdClass]:
    """All divisibility classes of the weights, merged by member set.

    For every integer delta > 1 dividing at least one weight, the class
    of delta collects every position it divides; distinct divisors that
    cut out the same position set describe the same class, whose
    generator is the gcd of its member weights.  Those generators are
    exactly the gcds g > 1 of nonempty weight subsets: the class of a
    divisor delta has as gcd the gcd of the weights delta divides, and
    the class of a subset gcd g has g itself as gcd (it contains the
    subset, and g divides each member).  So the classes are built from
    the gcd closure of the weights, {i : g | a_i} for each closure value
    g > 1, with no factoring, and deciding them costs gcds only, however
    large the weights.  Distinct generators give distinct classes;
    classes are returned sorted by (delta, member positions), which is
    ascending delta.
    """
    return [
        GcdClass(
            delta=g,
            member_indices=frozenset(p for p, a in enumerate(c.weights) if a % g == 0),
            class_gcd=g,
        )
        for g in _class_generators(c.weights)
    ]
