"""Tuple-level surgeries: wellformization, cone removal, hyperplane section.

Each transform returns a TransformTrace whose steps are mechanical
replay instructions: applying them to the `before` candidate reproduces
`after` exactly (see replay_trace).  Step positions are 0-based indices
into the lists as they stand when the step fires.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .core import Candidate, NotNormalized, _complement_gcd, _Value, fano_index, normalize

__all__ = [
    "DegenerateEmpty",
    "DegreeNotDivisible",
    "DimensionZero",
    "NoUnitWeight",
    "NotFano",
    "OverallGcdNotOne",
    "PairRemovalStep",
    "SectionStep",
    "TransformError",
    "TransformKind",
    "TransformTrace",
    "VeroneseStep",
    "hyperplane_section",
    "replay_trace",
    "unconize",
    "wellformize",
]


class TransformError(ValueError):
    """The transform is undefined for this input."""


class OverallGcdNotOne(TransformError):
    """wellformize needs gcd(all weights) == 1."""


class DegreeNotDivisible(TransformError):
    """A Veronese factor must divide every degree.

    Carries the 1-based degree position and the factor.
    """

    def __init__(self, degree_index: int, factor: int):
        super().__init__(f"degree d_{degree_index} not divisible by factor {factor}")
        self.degree_index = degree_index
        self.factor = factor


class NoUnitWeight(TransformError):
    """hyperplane_section needs a_0 = 1."""


class NotFano(TransformError):
    """hyperplane_section needs Fano index >= 1."""


class DimensionZero(TransformError):
    """hyperplane_section needs dimension n >= 1."""


class DegenerateEmpty(TransformError):
    """unconize emptied the weight tuple; it never does, since k <= N (kept for the API)."""


class TransformKind(str, Enum):
    WELLFORMIZE = "Wellformize"
    UNCONIZE = "Unconize"
    HYPERPLANE_SECTION = "HyperplaneSection"


class VeroneseStep(_Value):
    """Divide the weights at divided_positions and every degree by factor."""

    __slots__ = {"factor": "int", "divided_positions": "tuple[int, ...]"}


class PairRemovalStep(_Value):
    """Delete weight at weight_pos and degree at degree_pos (equal values)."""

    __slots__ = {"weight_pos": "int", "degree_pos": "int", "value": "int"}


class SectionStep(_Value):
    """Delete the unit weight at removed_pos."""

    __slots__ = {"removed_pos": "int"}


class TransformTrace(_Value):
    __slots__ = {
        "kind": "TransformKind", "before": "Candidate", "after": "Candidate", "steps": "tuple",
    }


def wellformize(c: Candidate) -> TransformTrace:
    """Divide out Veronese factors until the ambient weights are well formed.

    Repeatedly finds a factor g > 1 common to all weights but one,
    divides those weights and every degree by g, then normalizes.
    Requires gcd of all weights 1; raises DegreeNotDivisible when a
    factor does not divide some degree (the surgery is undefined on the
    tuple then).  The dimension n is preserved.
    """
    if gcd(*c.weights) != 1:
        raise OverallGcdNotOne(f"gcd of weights is {gcd(*c.weights)}")
    weights = list(c.weights)
    degrees = list(c.degrees)
    steps: list[VeroneseStep] = []
    while True:
        found = _complement_gcd(weights)
        if found is None:
            break
        exempt, factor = found
        for j, d in enumerate(degrees, start=1):
            if d % factor != 0:
                raise DegreeNotDivisible(j, factor)
        positions = tuple(p for p in range(len(weights)) if p != exempt)
        for p in positions:
            weights[p] //= factor
        degrees = [d // factor for d in degrees]
        steps.append(VeroneseStep(factor=factor, divided_positions=positions))
    after = normalize(Candidate(tuple(weights), tuple(degrees)))
    return TransformTrace(TransformKind.WELLFORMIZE, before=c, after=after, steps=tuple(steps))


def unconize(c: Candidate) -> TransformTrace:
    """Remove matched degree/weight pairs until no degree equals a weight.

    Each step takes the largest value d that is both a weight and a
    degree, and removes the last weight and the first degree equal to d.
    Preserves the dimension n and the Fano index; the result passes the
    linear-cone screen.  A weight always remains, since a Candidate has
    fewer degrees than weights.
    """
    weights = list(c.weights)
    degrees = list(c.degrees)
    steps: list[PairRemovalStep] = []
    while common := set(weights) & set(degrees):
        d = max(common)
        i = len(weights) - 1 - weights[::-1].index(d)
        j = degrees.index(d)
        steps.append(PairRemovalStep(weight_pos=i, degree_pos=j, value=d))
        del weights[i]
        del degrees[j]
    after = Candidate(tuple(weights), tuple(degrees))
    return TransformTrace(TransformKind.UNCONIZE, before=c, after=after, steps=tuple(steps))


def hyperplane_section(c: Candidate) -> TransformTrace:
    """Drop one unit weight: dimension and Fano index each decrease by 1.

    Requires a normalized candidate with a_0 = 1, Fano index >= 1 and
    dimension n >= 1.  Degrees are unchanged.
    """
    if not c.is_normalized:
        raise NotNormalized("hyperplane_section needs sorted weights and degrees")
    if c.weights[0] != 1:
        raise NoUnitWeight(f"smallest weight is {c.weights[0]}")
    if fano_index(c) < 1:
        raise NotFano(f"fano index is {fano_index(c)}")
    if c.dim < 1:
        raise DimensionZero(f"dimension is {c.dim}")
    after = Candidate(c.weights[1:], c.degrees)
    return TransformTrace(
        TransformKind.HYPERPLANE_SECTION, before=c, after=after, steps=(SectionStep(0),)
    )


def replay_trace(trace: TransformTrace) -> Candidate:
    """Re-apply the recorded steps to trace.before; must equal trace.after."""
    weights = list(trace.before.weights)
    degrees = list(trace.before.degrees)
    if trace.kind is TransformKind.WELLFORMIZE:
        for step in trace.steps:
            for p in step.divided_positions:
                weights[p] //= step.factor
            degrees = [d // step.factor for d in degrees]
        return normalize(Candidate(tuple(weights), tuple(degrees)))
    if trace.kind is TransformKind.UNCONIZE:
        for step in trace.steps:
            del weights[step.weight_pos]
            del degrees[step.degree_pos]
        return Candidate(tuple(weights), tuple(degrees))
    if trace.kind is TransformKind.HYPERPLANE_SECTION:
        for step in trace.steps:
            del weights[step.removed_pos]
        return Candidate(tuple(weights), tuple(degrees))
    raise ValueError(f"unknown transform kind {trace.kind!r}")
