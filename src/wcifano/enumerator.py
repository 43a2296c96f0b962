"""Bounded exhaustive search for normalized candidates of fixed (n, index, k).

Candidates are generated in canonical order (lexicographic on weights,
then degrees), deduplicated by construction, post-filtered through the
query profile, and returned with search metadata.  Every normalized
tuple whose weights all lie within max_weight is decided.

- cap_touched is True iff some enumeration variable had a structurally
  admissible range reaching beyond max_weight, i.e. raising the cap
  could reveal further survivors.  The cap bounds weights only; degrees
  are determined by the index equation and are never capped.
- stats.nodes counts entries placed: one node per weight or degree
  fixed, except that the last degree, forced by the index equation,
  counts only when it is admissible.  stats.tested counts the tuples
  run through the profile.

When the profile contains UnitPrefix and Deltas the search is
structured: weights split into a forced unit prefix of length k+index,
free middle weights, and tail weights paired with the degrees, whose
excesses e_j = d_j - a_{n+j} >= 1 satisfy sum(e) = k + sum(middles).
Profiles without that structure fall back to a plain grid over all
normalized weight tuples within the cap.  Both searches run on the one
sorted-tuple walker and the one degree walker of _Walk.  Each weight
vector gets one filters._WeightContext, shared by all of its degree
tuples, so the screen work that depends on the weights alone (the
complement gcd, the class gcds) is done once per vector, not per tuple.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .core import Candidate, canonical_key
from .filters import FilterId, SMOOTH_FANO_PROFILE, _WeightContext, _fail_fast, _survives

__all__ = [
    "CapTooSmall",
    "EnumerationQuery",
    "EnumerationResult",
    "InvalidQuery",
    "SearchStats",
    "enumerate_candidates",
    "enumerate_streaming",
]


class InvalidQuery(ValueError):
    """Inconsistent query bounds."""


class CapTooSmall(InvalidQuery):
    """max_weight must be at least 1."""


@dataclass(frozen=True)
class EnumerationQuery:
    """Target dimension n, Fano index, codimension k, weight cap, profile.

    max_weight defaults to 4 * (n + k + index), enough to contain every
    survivor in the regimes the verification harness exercises.  k may
    be 0 (ambient spaces); k <= n + 1 is enforced.
    """

    n: int
    index: int
    k: int
    max_weight: int | None = None
    profile: frozenset[FilterId] = SMOOTH_FANO_PROFILE

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", frozenset(self.profile))
        if self.n < 1:
            raise InvalidQuery(f"dimension n must be >= 1, got {self.n}")
        if self.index < 0:
            raise InvalidQuery(f"index must be >= 0, got {self.index}")
        if not 0 <= self.k <= self.n + 1:
            raise InvalidQuery(f"codimension k must lie in 0..n+1, got k={self.k} at n={self.n}")
        if self.max_weight is None:
            object.__setattr__(self, "max_weight", 4 * (self.n + self.k + self.index))
        if self.max_weight < 1:
            raise CapTooSmall(f"max_weight must be >= 1, got {self.max_weight}")


@dataclass(frozen=True)
class SearchStats:
    """nodes: partial assignments tried; tested: candidates run through the profile."""

    nodes: int
    tested: int


@dataclass(frozen=True)
class EnumerationResult:
    query: EnumerationQuery
    survivors: tuple[Candidate, ...]
    cap_touched: bool
    prefix_infeasible: bool
    stats: SearchStats


# Filters that justify capping a single middle weight at 2: with one
# middle m, tails lie in {m, m+1} and the forced excess split makes
# every m >= 3 fail GcdCover and every m = 2 fail GcdCover or
# LinearCone unless k = 1 with all tails m+1.  Survivors beyond the
# bound cannot exist, so the cap is not considered touched by it.
_CLOSURE_FILTERS = frozenset(
    {FilterId.LAST_WEIGHT, FilterId.GCD_COVER, FilterId.LINEAR_CONE}
)


def _middle_bound(middle_count: int, profile: frozenset[FilterId]) -> int | None:
    if middle_count == 1 and _CLOSURE_FILTERS <= profile:
        return 2
    return None


def enumerate_candidates(query: EnumerationQuery, workers: int = 1) -> EnumerationResult:
    """Run the search to completion and return all survivors."""
    return enumerate_streaming(query, lambda c: None, workers=workers)


def enumerate_streaming(
    query: EnumerationQuery,
    sink: Callable[[Candidate], None],
    workers: int = 1,
) -> EnumerationResult:
    """Run the search, feeding each survivor to sink in canonical order.

    The returned result is identical for any worker count; with several
    workers the search is partitioned over the first middle weight and
    partial results are merged in ascending task order.  The sink sees
    each task's survivors as soon as that task and every earlier one
    have finished, not after the whole search.
    """
    if workers < 1:
        raise InvalidQuery(f"workers must be >= 1, got {workers}")
    structured = FilterId.UNIT_PREFIX in query.profile and (
        FilterId.DELTAS in query.profile or query.k == 0
    )
    if structured:
        return _run_structured(query, sink, workers)
    return _collect(query, [_grid_task(query)], sink)


def _run_structured(query, sink, workers: int) -> EnumerationResult:
    middle_count = query.n - query.k - query.index + 1
    if middle_count < 0:
        # Unit prefix plus index equation admit no weight vector at all.
        return EnumerationResult(
            query=query,
            survivors=(),
            cap_touched=False,
            prefix_infeasible=True,
            stats=SearchStats(nodes=0, tested=0),
        )
    if query.k == 0:
        # No degrees: the index equation forces all weights to 1, which
        # needs index == n + 1 exactly; no range depends on the cap.
        return _collect(query, [_prefix_only_task(query)], sink)
    base_touched = False
    if middle_count == 0:
        tasks = [_structured_task(query, None)]
    else:
        bound = _middle_bound(middle_count, query.profile)
        if bound is None or bound > query.max_weight:
            base_touched = True
        hi = query.max_weight if bound is None else min(query.max_weight, bound)
        keys = range(1, hi + 1)
        if workers > 1 and len(keys) > 1:
            # pool.map yields in submission order, so the sink order
            # stays canonical while later tasks still run.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                tasks = pool.map(_structured_task, repeat(query), keys)
                return _collect(query, tasks, sink, base_touched)
        tasks = (_structured_task(query, m1) for m1 in keys)
    return _collect(query, tasks, sink, base_touched)


def _collect(query, walks, sink, base_touched: bool = False) -> EnumerationResult:
    """Merge task walks in order, feeding survivors to sink as each walk arrives."""
    survivors: list[Candidate] = []
    nodes = tested = 0
    touched = base_touched
    for walk in walks:
        for c in walk.survivors:
            sink(c)
        survivors.extend(walk.survivors)
        nodes += walk.nodes
        tested += walk.tested
        touched = touched or walk.touched
    survivors.sort(key=canonical_key)
    return EnumerationResult(
        query=query,
        survivors=tuple(survivors),
        cap_touched=touched,
        prefix_infeasible=False,
        stats=SearchStats(nodes=nodes, tested=tested),
    )


class _Walk:
    """One search task: the profile's predicates, its counters and its survivors.

    Both the structured and the grid search are loop nests over the two
    walkers below that test each weight vector's degree tuples on one
    shared weight context.  touched records that the cap cut a
    structurally admissible range.
    """

    def __init__(self, profile: frozenset[FilterId]) -> None:
        self.predicates = _fail_fast(profile)
        self.nodes = 0
        self.tested = 0
        self.touched = False
        self.survivors: list[Candidate] = []

    def tuples(self, head: tuple[int, ...], length: int, lo: int, hi: int):
        """Yield the non-decreasing extensions of head to length entries in lo..hi."""
        if len(head) == length:
            yield head
            return
        for value in range(head[-1] if head else lo, hi + 1):
            self.nodes += 1
            yield from self.tuples(head + (value,), length, lo, hi)

    def degrees(self, floors: tuple[int, ...], total: int, min_last: int, head=()):
        """Yield the non-decreasing degrees d_j = floors[j] + e_j extending head.

        Every e_j >= 1, the e_j of the unplaced degrees sum to total, and
        the last e_j >= min_last >= 1.  The last degree is forced by the
        sum, so it counts as a node only when admissible.  No floors: the
        empty tuple, iff total == 0.
        """
        j, last = len(head), len(floors) - 1
        prev = head[-1] if head else 0
        if j >= last:
            if j > last:
                if total == 0:
                    yield head
            elif total >= min_last and floors[j] + total >= prev:
                self.nodes += 1
                yield head + (floors[j] + total,)
            return
        reserve = last - 1 - j + min_last
        for e in range(max(1, prev - floors[j]), total - reserve + 1):
            self.nodes += 1
            yield from self.degrees(floors, total - e, min_last, head + (floors[j] + e,))

    def test(self, context: _WeightContext, ds: tuple[int, ...]) -> None:
        self.tested += 1
        if _survives(context, ds, self.predicates):
            self.survivors.append(Candidate(context.weights, ds))


def _prefix_only_task(query) -> _Walk:
    walk = _Walk(query.profile)
    if query.index == query.n + 1:
        walk.nodes += 1
        walk.test(_WeightContext((1,) * (query.n + 1)), ())
    return walk


def _structured_task(query: EnumerationQuery, first_middle: int | None) -> _Walk:
    """Explore the structured search tree under one fixed first middle weight."""
    n, index, k, cap, profile = query.n, query.index, query.k, query.max_weight, query.profile
    prefix = (1,) * (k + index)
    middle_count = n - k - index + 1
    use_last_weight = FilterId.LAST_WEIGHT in profile
    mid_bound = _middle_bound(middle_count, profile)
    mid_hi = cap if mid_bound is None else min(cap, mid_bound)
    walk = _Walk(profile)
    if middle_count == 0:
        middles = [()]
    else:
        walk.nodes += 1  # the fixed first middle weight
        middles = walk.tuples((first_middle,), middle_count, first_middle, mid_hi)
    for ms in middles:
        msum = sum(ms)
        tail_struct = msum + 1 if use_last_weight else None
        if tail_struct is None or tail_struct > cap:
            walk.touched = True
        tail_hi = cap if tail_struct is None else min(cap, tail_struct)
        for ts in walk.tuples((), k, ms[-1] if ms else 1, tail_hi):
            context = _WeightContext(prefix + ms + ts)
            for ds in walk.degrees(ts, k + msum, ts[-1] if use_last_weight else 1):
                walk.test(context, ds)
    return walk


def _grid_task(query: EnumerationQuery) -> _Walk:
    """Plain grid for profiles without the prefix/excess structure.

    All normalized weight tuples within the cap; degrees enumerated from
    the index equation sum(d) = sum(a) - index.  The region beyond the
    cap stays structurally admissible, so cap_touched is set whenever
    weight choices exist (k >= 1) or a k = 0 partition part overflows.
    """
    n, index, k, cap = query.n, query.index, query.k, query.max_weight
    walk = _Walk(query.profile)
    walk.touched = k > 0 or index - n > cap
    for ws in walk.tuples((), n + k + 1, 1, cap):
        context = _WeightContext(ws)
        for ds in walk.degrees((0,) * k, context.total - index, 1):
            walk.test(context, ds)
    return walk
