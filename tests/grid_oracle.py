"""Unpruned reference enumeration used to cross-check the search.

Deliberately naive: every normalized weight tuple within the cap, every
degree partition the index equation allows, each run through the full
reporting path.

grid_cells runs each such tuple once under the full profile and keeps
the set of screens it fails, cached per slice; naive_survivors keeps
the cells that fail no screen of the profile asked for.  A verdict comes
from its screen's predicate alone, whatever else the profile holds, so
one pass serves all 256 profiles of a slice.  naive_survivors_per_profile
is the reference it is checked against: a run_all under the profile
itself per tuple, with a unit-prefix precheck (_holds_unit_prefix)
applied solely when the profile contains that screen (any survivor must
satisfy it, so skipping the others is sound).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from wcifano.core import Candidate, canonical_key
from wcifano.filters import SMOOTH_FANO_PROFILE, FilterId, run_all


def sorted_tuples(length: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """All non-decreasing tuples of the given length with entries in lo..hi."""
    if length == 0:
        yield ()
        return
    for value in range(lo, hi + 1):
        for rest in sorted_tuples(length - 1, value, hi):
            yield (value, *rest)


def sorted_partitions(total: int, parts: int, lo: int = 1) -> Iterator[tuple[int, ...]]:
    """All non-decreasing tuples of `parts` entries >= lo summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for value in range(lo, total // parts + 1):
        for rest in sorted_partitions(total - value, parts - 1, value):
            yield (value, *rest)


def grid_cells(
    n: int, index: int, k: int, cap: int
) -> tuple[tuple[Candidate, frozenset[FilterId]], ...]:
    """Every grid tuple of the slice with the screens it fails under the full profile.

    The cells whose weights hold the unit prefix come first, then those
    that fail UnitPrefix; each part is cached on its own (_cells).
    """
    return _cells(n, index, k, cap, True) + _cells(n, index, k, cap, False)


@lru_cache(maxsize=16)
def _cells(
    n: int, index: int, k: int, cap: int, unit_prefix: bool
) -> tuple[tuple[Candidate, frozenset[FilterId]], ...]:
    """The grid cells of the slice whose weights hold the unit prefix, or those that do not."""
    cells = []
    for ws in sorted_tuples(n + k + 1, 1, cap):
        if _holds_unit_prefix(ws, index, k) is not unit_prefix:
            continue
        for ds in sorted_partitions(sum(ws) - index, k):
            c = Candidate(ws, ds)
            failing = frozenset(v.filter_id for v in run_all(c, SMOOTH_FANO_PROFILE).failing())
            cells.append((c, failing))
    return tuple(cells)


def naive_survivors(
    n: int, index: int, k: int, cap: int, profile: frozenset[FilterId]
) -> tuple[Candidate, ...]:
    """The grid tuples of the slice that fail no screen of the profile, canonically ordered.

    Under UnitPrefix only the cells with the unit prefix can survive, so
    only those are read.
    """
    if FilterId.UNIT_PREFIX in profile:
        cells = _cells(n, index, k, cap, True)
    else:
        cells = grid_cells(n, index, k, cap)
    out = [c for c, failing in cells if failing.isdisjoint(profile)]
    out.sort(key=canonical_key)
    return tuple(out)


def naive_survivors_per_profile(
    n: int, index: int, k: int, cap: int, profile: frozenset[FilterId]
) -> tuple[Candidate, ...]:
    """naive_survivors by a run_all under the profile itself per grid tuple."""
    use_prefix = FilterId.UNIT_PREFIX in profile
    out = []
    for ws in sorted_tuples(n + k + 1, 1, cap):
        if use_prefix and not _holds_unit_prefix(ws, index, k):
            continue
        for ds in sorted_partitions(sum(ws) - index, k):
            c = Candidate(ws, ds)
            if run_all(c, profile).survives:
                out.append(c)
    out.sort(key=canonical_key)
    return tuple(out)


def _holds_unit_prefix(ws: tuple[int, ...], index: int, k: int) -> bool:
    """The first k + max(index, 0) of the sorted weights ws are all 1.

    Every degree partition of the slice gives a tuple the slice's index,
    so these are exactly the weight vectors whose tuples pass UnitPrefix.
    """
    prefix_len = k + max(index, 0)
    return prefix_len == 0 or (prefix_len <= len(ws) and ws[prefix_len - 1] == 1)
