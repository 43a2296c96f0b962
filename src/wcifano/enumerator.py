"""Bounded exhaustive search for normalized candidates of fixed (n, index, k).

Candidates are generated in canonical order (lexicographic on weights,
then degrees), deduplicated by construction, post-filtered through the
query profile, and returned with completeness metadata:

- complete_within_cap is always True: every normalized tuple whose
  weights all lie within max_weight has been decided.
- cap_touched is True iff some enumeration variable had a structurally
  admissible range reaching beyond max_weight, i.e. raising the cap
  could reveal further survivors.  The cap bounds weights only; degrees
  are determined by the index equation and are never capped.

When the profile contains UnitPrefix and Deltas the search is
structured: weights split into a forced unit prefix of length k+index,
free middle weights, and tail weights paired with the degrees, whose
excesses e_j = d_j - a_{n+j} >= 1 satisfy sum(e) = k + sum(middles).
Profiles without that structure fall back to a plain grid over all
normalized weight tuples within the cap.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .core import Candidate, canonical_key
from .filters import FilterId, SMOOTH_FANO_PROFILE, _fail_fast, _survives, passes_profile

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
    complete_within_cap: bool
    cap_touched: bool
    prefix_infeasible: bool
    stats: SearchStats


@dataclass(frozen=True)
class _TaskResult:
    survivors: tuple[Candidate, ...]
    nodes: int
    tested: int
    cap_touched: bool


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
            complete_within_cap=True,
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


def _collect(query, tasks, sink, base_touched: bool = False) -> EnumerationResult:
    """Merge task results in order, feeding survivors to sink as each task arrives."""
    survivors: list[Candidate] = []
    nodes = tested = 0
    touched = base_touched
    for task in tasks:
        for c in task.survivors:
            sink(c)
        survivors.extend(task.survivors)
        nodes += task.nodes
        tested += task.tested
        touched = touched or task.cap_touched
    survivors.sort(key=canonical_key)
    return EnumerationResult(
        query=query,
        survivors=tuple(survivors),
        complete_within_cap=True,
        cap_touched=touched,
        prefix_infeasible=False,
        stats=SearchStats(nodes=nodes, tested=tested),
    )


def _prefix_only_task(query) -> _TaskResult:
    if query.index != query.n + 1:
        return _TaskResult(survivors=(), nodes=0, tested=0, cap_touched=False)
    c = Candidate((1,) * (query.n + 1), ())
    survivors = (c,) if passes_profile(c, query.profile) else ()
    return _TaskResult(survivors=survivors, nodes=1, tested=1, cap_touched=False)


def _structured_task(query: EnumerationQuery, first_middle: int | None) -> _TaskResult:
    """Explore the structured search tree under one fixed first middle weight."""
    n, index, k, cap, profile = query.n, query.index, query.k, query.max_weight, query.profile
    prefix = (1,) * (k + index)
    middle_count = n - k - index + 1
    use_last_weight = FilterId.LAST_WEIGHT in profile
    mid_bound = _middle_bound(middle_count, profile)
    mid_hi = cap if mid_bound is None else min(cap, mid_bound)
    predicates = _fail_fast(profile)

    survivors: list[Candidate] = []
    state = {"nodes": 0, "tested": 0, "touched": False}

    def middles(ms: tuple[int, ...]) -> None:
        if len(ms) == middle_count:
            tails_stage(ms)
            return
        lo = ms[-1] if ms else 1
        for value in range(lo, mid_hi + 1):
            state["nodes"] += 1
            middles(ms + (value,))

    def tails_stage(ms: tuple[int, ...]) -> None:
        msum = sum(ms)
        tail_struct = msum + 1 if use_last_weight else None
        if tail_struct is None or tail_struct > cap:
            state["touched"] = True
        tail_hi = cap if tail_struct is None else min(cap, tail_struct)
        lo = ms[-1] if ms else 1
        excess_total = k + msum

        def tails(ts: tuple[int, ...]) -> None:
            if len(ts) == k:
                excess_stage(ms, ts, excess_total)
                return
            for value in range(ts[-1] if ts else lo, tail_hi + 1):
                state["nodes"] += 1
                tails(ts + (value,))

        tails(())

    def excess_stage(ms: tuple[int, ...], ts: tuple[int, ...], total: int) -> None:
        min_last = ts[-1] if use_last_weight else 1

        def excesses(j: int, prev_degree: int, rem: int, ds: tuple[int, ...]) -> None:
            if j == k - 1:
                degree = ts[j] + rem
                if rem >= 1 and rem >= min_last and degree >= prev_degree:
                    state["nodes"] += 1
                    test(ms, ts, ds + (degree,))
                return
            reserve = (k - 2 - j) + max(1, min_last)
            lo_e = max(1, prev_degree - ts[j])
            for e in range(lo_e, rem - reserve + 1):
                state["nodes"] += 1
                excesses(j + 1, ts[j] + e, rem - e, ds + (ts[j] + e,))

        excesses(0, 0, total, ())

    def test(ms: tuple[int, ...], ts: tuple[int, ...], ds: tuple[int, ...]) -> None:
        ws = prefix + ms + ts
        state["tested"] += 1
        if _survives(ws, ds, predicates):
            survivors.append(Candidate(ws, ds))

    if middle_count == 0:
        tails_stage(())
    else:
        state["nodes"] += 1
        middles((first_middle,))
    return _TaskResult(
        survivors=tuple(survivors),
        nodes=state["nodes"],
        tested=state["tested"],
        cap_touched=state["touched"],
    )


def _grid_task(query: EnumerationQuery) -> _TaskResult:
    """Plain grid for profiles without the prefix/excess structure.

    All normalized weight tuples within the cap; degrees enumerated from
    the index equation sum(d) = sum(a) - index.  The region beyond the
    cap stays structurally admissible, so cap_touched is set whenever
    weight choices exist (k >= 1) or a k = 0 partition part overflows.
    """
    n, index, k, cap, profile = query.n, query.index, query.k, query.max_weight, query.profile
    length = n + k + 1
    predicates = _fail_fast(profile)
    survivors: list[Candidate] = []
    state = {"nodes": 0, "tested": 0}
    if k == 0:
        touched = index - n > cap
    else:
        touched = True

    def weights_rec(ws: tuple[int, ...]) -> None:
        if len(ws) == length:
            total = sum(ws) - index
            if k == 0:
                if total == 0:
                    test(ws, ())
                return
            if total < k:
                return
            degrees_rec(ws, (), total)
            return
        for value in range(ws[-1] if ws else 1, cap + 1):
            state["nodes"] += 1
            weights_rec(ws + (value,))

    def degrees_rec(ws: tuple[int, ...], ds: tuple[int, ...], rem: int) -> None:
        slot = len(ds)
        if slot == k - 1:
            if rem >= (ds[-1] if ds else 1):
                state["nodes"] += 1
                test(ws, ds + (rem,))
            return
        lo = ds[-1] if ds else 1
        for value in range(lo, rem - (k - 1 - slot) + 1):
            state["nodes"] += 1
            degrees_rec(ws, ds + (value,), rem - value)

    def test(ws: tuple[int, ...], ds: tuple[int, ...]) -> None:
        state["tested"] += 1
        if _survives(ws, ds, predicates):
            survivors.append(Candidate(ws, ds))

    weights_rec(())
    return _TaskResult(
        survivors=tuple(survivors),
        nodes=state["nodes"],
        tested=state["tested"],
        cap_touched=touched,
    )
