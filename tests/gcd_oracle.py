"""Literal quantifier form of the GcdCover count condition, for cross-checking.

Deliberately naive: it enumerates weight subsets instead of building the
gcd closure, so it shares no code with the screen it checks.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from wcifano.core import Candidate
from wcifano.filters import FilterId, FilterVerdict


class TooLarge(ValueError):
    """Instance too big for the brute-force oracle (N > 12)."""


def gcd_cover_bruteforce(c: Candidate) -> FilterVerdict:
    """The GcdCover verdict by brute force over weight subsets.

    For every subset of weight positions with gcd delta > 1, searches for
    as many degrees with gcd divisible by delta as the subset has
    members.  Exponential in N; guarded to N <= 12.  The verdict always
    matches gcd_cover_ok; witnesses may differ in shape.
    """
    if c.ambient_dim > 12:
        raise TooLarge(f"brute-force oracle capped at N <= 12, got N = {c.ambient_dim}")
    positions = range(len(c.weights))
    searched: dict[tuple[int, int], bool] = {}
    for r in range(1, len(c.weights) + 1):
        for subset in combinations(positions, r):
            delta = gcd(*(c.weights[p] for p in subset))
            if delta == 1:
                continue
            key = (delta, r)
            if key not in searched:
                searched[key] = any(
                    gcd(*combo) % delta == 0 for combo in combinations(c.degrees, r)
                )
            if not searched[key]:
                witness = {"delta": delta, "weight_positions": list(subset), "required": r}
                return FilterVerdict(FilterId.GCD_COVER, False, witness)
    return FilterVerdict(FilterId.GCD_COVER, True)
