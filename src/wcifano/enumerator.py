"""Bounded exhaustive search for normalized candidates of fixed (n, index, k).

Candidates are generated in canonical order (lexicographic on weights,
then degrees), deduplicated by construction, and returned with search
metadata.  Every normalized tuple whose weights all lie within
max_weight is decided.

- cap_touched is True iff some enumeration variable had a structurally
  admissible range reaching beyond max_weight, i.e. raising the cap
  could reveal further survivors.  The cap bounds weights only; degrees
  are determined by the index equation and are never capped.
- stats.nodes counts entries placed: one node per weight or degree
  fixed, except that the forced unit prefix places none, an entry forced
  by a sum (the last degree; the last middle at k = 0) counts only when
  it is admissible, and a weight or a degree the cuts skip is not
  placed, so not a node: nor is a tail that the degree-sum bound
  rejects on the tail prefix it ends, nor any degree of the slots left
  that it rejects.
  stats.tested counts the tuples run through the profile.

Every profile runs one search shape (_Shape), derived once per query
from the structural screens it holds.  UnitPrefix forces a prefix of
k + index unit weights (prefix_infeasible when it cannot fit); Deltas
makes the top k weights tails, paired with the degrees d_j = a_{n+j} +
e_j with every excess e_j >= 1; the other weights are middles.  The
index equation fixes sum(e) (the degree sum without tails) at
sum(prefix + middles) - index.  With tails, LastWeight asks e_k >= a_N,
which bounds the tails by that total - k + 1; at k = 0 the weights sum
to the index, so each middle is at most an equal share of what the
earlier ones leave and the last is forced.  One task walks the middles,
tails and degrees under one fixed first middle weight, for any profile;
the tasks are exactly the values the first middle's slot admits
(_slot_values), so at k = 0 none lies above the equal share.
The screens the shape decides (Normalized, UnitPrefix and
FanoPositivity always, Deltas and LastWeight with tails) are not re-run
on its tuples.  The index equation gives every tuple the query's index,
so FanoPositivity passes them all at index >= 1 and none at index 0:
there the shape is empty, no task runs, and the result has no node, no
tested tuple and cap_touched False.

At every codimension the profile's GcdCover and LinearCone cut the
search instead of screening its tuples.  GcdCover asks every class (gcd
g, required members) for at least required degrees divisible by g, so a
vector with required > k has no degree tuple.  The class gcds (the gcd
closure of the weights) and their member counts only grow as weights
are appended, so the walk keeps them along the weights it places,
extended by one weight per middle and per tail from the first middle
on.  A weight that gives some class more than k members is not placed,
and its whole subtree is skipped.  The degree sum the index equation
fixes bounds each stage.  At k = 1, GcdCover with any screen that bans
the one degree from equalling the top weight (LinearCone, Deltas or
LastWeight) leaves no survivor with a weight above n + 2 - index
(_Shape.weight_bound), so neither the middles nor the tail are walked
above it.  With one middle at k >= 1, or two at k >= 2, UnitPrefix,
Deltas, LastWeight, GcdCover and LinearCone leave no survivor with a
middle above 2 (_Shape.middle_bound).  LastWeight bounds the tails by
the middle sum + 1, at most 5, so such a slice, the survey's among
them, touches no cap of 5 or more.  At k >= 2, under LastWeight, a tail
is placed only when the tail prefix it ends passes two cuts, both sound
because the class counts, the gcd closure and the banned weights only
grow as weights are appended.  It must leave each class a degree
outside the last slot or a share of the last degree: a class that only
the last degree can serve may have one member, and all such classes
must divide one degree in the last slot's window (_tails_fit).  And its degree slack must hold: the
least raise to an admissible multiple that each class needs, in as many
of the slots paired with the tails placed as the unplaced tails' slots
cannot hold for it, must fit what the degree sum leaves above the least
degrees (_slots_fit with those slots free).  On a whole vector that is
the degree walk's test before its first degree, which is not run twice.
A tail that fails the first cut for sure, as a class only the last
degree can serve, is not even tried (_skips), nor any first tail past
one at which the middles' classes already fail it.
While a class is pending, the degree walk fills a slot only when the
slots left fit what is left of that sum (_slots_fit): the least degree
each can hold, plus the least raise to an admissible multiple that each
class needs in as many slots as it still needs, must not exceed it.  No
class may need more divisible degrees than there are slots left: a
class that needs every slot left must divide the next degree, so the
walk steps through multiples of the lcm of those classes.  LinearCone
skips every degree equal to a weight.
Every tuple the walk tests passes both screens, so they are not re-run.
The profile's other screens run per tuple, so each screen is decided in
exactly one way: by the shape, by a cut, or on the tested tuples.

Index reduction.  Under a profile that holds UnitPrefix, with index >= 2
and k <= n, prepending a unit weight maps the survivors of (n - 1,
index - 1, k) one to one onto those of (n, index, k), and
transforms.hyperplane_section is the inverse; this is the arithmetic
side of the remark that a general element of |O_X(1)| is smooth.  The
two queries build the same _Shape but for one more unit in the prefix:
the middle count, the middle sum at k = 0 (zero), the excess total k +
sum(middles), the middle bound, the weight bound (n + 2 - index is the
same for both), the decided screens, the cuts and the predicates all
agree.  The prefix places no node, so both walks place the same
middles, tails and degrees, and the tested tuples answer every
predicate alike: a unit lies in no gcd class, 1 is banned as a degree in
both (each prefix holds a unit), LastWeight reads the top weight only,
and AmbientWellFormed passes both, since at k >= 1 each prefix holds two
units or more and at k = 0 both slices are empty unless every weight is
a unit.  So stats, cap_touched and prefix_infeasible agree too.  Index
1 is left out: it maps to index 0, where FanoPositivity passes no tuple,
so the shape is empty.  So is k = n + 1, which maps to an invalid query.
"""

from __future__ import annotations

import os
from itertools import accumulate
from math import lcm
from time import perf_counter
from typing import Callable

from .core import Candidate, _gcds_added, _set, _Value
from .filters import FilterId, SMOOTH_FANO_PROFILE, _predicates, _survives

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


class EnumerationQuery(_Value):
    """Target dimension n, Fano index, codimension k, weight cap, profile.

    max_weight defaults to 4 * (n + k + index).  That default is not
    proved to contain every survivor: (5, 1, 2), with three middles,
    reports cap_touched at its default 32, so only cap_touched False
    says a listing is complete.  At k = 1 the default 4 * (n + 1 +
    index) is at least the weight bound n + 2 - index
    (_Shape.weight_bound), so under GcdCover with LinearCone, Deltas or
    LastWeight the default listing is complete.  So is it, at 8 or more,
    with one middle at k >= 1 or two at k >= 2 under UnitPrefix, Deltas,
    LastWeight, GcdCover and LinearCone (_Shape.middle_bound), as at
    (5, 1, 3) and (6, 1, 4).  k may be 0 (ambient spaces); k <= n + 1 is
    enforced.
    """

    __slots__ = {
        "n": "int", "index": "int", "k": "int", "max_weight": "int",
        "profile": "frozenset[FilterId]",
    }

    def __init__(
        self,
        n: int,
        index: int,
        k: int,
        max_weight: int | None = None,
        profile: frozenset[FilterId] = SMOOTH_FANO_PROFILE,
    ) -> None:
        profile = frozenset(profile)
        _require_ints(n=n, index=index, k=k)
        if n < 1:
            raise InvalidQuery(f"dimension n must be >= 1, got {n}")
        if index < 0:
            raise InvalidQuery(f"index must be >= 0, got {index}")
        if not 0 <= k <= n + 1:
            raise InvalidQuery(f"codimension k must lie in 0..n+1, got k={k} at n={n}")
        if max_weight is None:
            max_weight = 4 * (n + k + index)
        _require_ints(max_weight=max_weight)
        if max_weight < 1:
            raise CapTooSmall(f"max_weight must be >= 1, got {max_weight}")
        try:
            _predicates(profile)  # the profile's cached plan rejects an entry that is no screen
        except ValueError as error:
            raise InvalidQuery(str(error)) from None
        _set(self, "n", n)
        _set(self, "index", index)
        _set(self, "k", k)
        _set(self, "max_weight", max_weight)
        _set(self, "profile", profile)


def _require_ints(**values) -> None:
    """Raise InvalidQuery unless each value is an int, never a bool (Candidate's rule)."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidQuery(f"{name} must be an integer, got {value!r}")


class SearchStats(_Value):
    """nodes: entries placed; tested: candidates run through the profile.

    A weight, tail or degree that a cut or the degree-sum bound rejects
    is not placed, so it is not a node (the module docstring has the
    full rule).
    """

    __slots__ = {"nodes": "int", "tested": "int"}


class EnumerationResult(_Value):
    __slots__ = {
        "query": "EnumerationQuery", "survivors": "tuple[Candidate, ...]", "cap_touched": "bool",
        "prefix_infeasible": "bool", "stats": "SearchStats",
    }


# The work left, in seconds, that repays forking the helpers (_split).
# A helper costs a search about 0.01 s: forked at once at (6, 1, 4, 20)
# on a 2-core VM, its 2-worker search took 0.018-0.021 s against
# 0.018-0.020 s inline, although the helper ran tasks that take 0.008-
# 0.009 s inline (medians of 16-20 fresh processes, in three sets).  That
# is the fork, the reap, loading the fork code, pickle, select and
# signal, and the caller's tasks slowed by copy-on-write faults.  On two
# CPUs a helper takes over at most half the work left, so it repays that
# cost only when twice as much is left; the threshold is three times that.
_FORK_WORK_S = 0.06


class _Shape:
    """The search shape of one query, derived from its profile's structural screens.

    prefix: the forced unit weights.  tails: how many top weights pair
    with the degrees.  middles: how many free weights lie between, each
    in 1..middle_hi (negative when the prefix cannot fit).  empty: no
    tuple of the shape can survive, so no task runs.  last_weight: the
    top tail bounds the last excess from below.  touched: the cap cut
    the middle range.  enforced: the profile's screens the shape
    decides, which every tuple it tests passes by construction.  cuts: the profile's
    GcdCover and LinearCone, which cut the walk instead of screening its
    tuples.  predicates: the profile's other screens, run on each tuple
    tested, in FILTER_ORDER.

    middle_bound: 2 with one middle at k >= 1 or two middles at k >= 2,
    when the profile holds UnitPrefix, Deltas, LastWeight, GcdCover and
    LinearCone, else None.  No survivor has a middle above it, so a cap
    at or above it is not touched.  In both proofs the index equation
    (with k + index units) makes the excesses e_j = d_j - t_j >= 1 sum
    to k + S, S the sum of the middles, with e_k >= t_k (LastWeight).

    Proof for one middle m, with tails m <= t_1 <= ... <= t_k.
    1. So each e_j <= m + 1, t_k <= m + 1, and every degree t_j + e_j <=
       2 m + 2.
    2. Suppose m >= 2.  Then every weight above 1 is m or m + 1, coprime.
    3. GcdCover asks for 1 + #{t_j = m} degrees divisible by m and
       #{t_j = m + 1} divisible by m + 1: k + 1 in all, from only k
       degrees.  So some degree is divisible by m (m + 1).
    4. That degree is at most 2 m + 2, so m (m + 1) <= 2 m + 2: m <= 2.
    This proof does not use LinearCone; the hypothesis keeps it so that
    no output moves.

    Proof for two middles a <= b, with tails b <= t_1 <= ... <= t_k = T
    and k >= 2.  Suppose b >= 3, and let E = sum over j < k of e_j - 1.
    1. T <= e_k = S + 1 - E, so each d_j with j < k is at most T + 1 + E
       <= S + 2 <= 2 b + 2 < 3 b, and d_k = T + e_k <= 2 S + 2 <= 4 b + 2
       < 5 b.
    2. Let X be the weights b, t_1, ..., t_k, all >= b.  LinearCone bans
       each of them as a degree.  So a d_j with j < k that some x in X
       divides is 2 x, as 3 x >= 3 b: it serves one value of X at most.
       And d_k / y is 2, 3 or 4 for each y in X that divides d_k.
    3. 2 b is no weight: else the class of b has two members, and the
       only degrees b may divide are 2 b, banned, and d_k.
    4. GcdCover gives each value of X at least as many degrees it divides
       as it has copies among the weights.  Summed over the values, with
       Y the values that divide d_k and w the d_j (j < k) serving none:
       k + 1 + [a = b] <= k - 1 - w + |Y|.  All three of d_k / 2, d_k / 3
       and d_k / 4 in Y asks b <= d_k / 4 <= b + 1/2, so d_k = 4 b and
       2 b is a weight, against 3.  So |Y| = 2, a < b and w = 0.
    5. Now S + 2 <= 2 b + 1, so each d_j (j < k) is 2 x <= 2 b + 1 with x
       >= b: d_j = 2 b, and no other value of X divides it, by 3.  The
       count of 4 is an equality, so each value has exactly as many
       copies as degrees it divides: b has k - 1 + [b in Y], and each
       other value one, in Y.
    6. If b is in Y: t_1 = ... = t_(k-1) = b < T, so each e_j (j < k) is
       b and (k - 1)(b - 1) = E <= S + 1 - T <= a <= b - 1.  So k = 2,
       and then T = b + 1, a = b - 1, e_k = b + 1 and d_k = 2 b + 2, which
       b must divide: b divides 2.
    7. If b is not in Y: Y holds the tails y < T above b, the other tails
       are b, and E = (k - 2)(b - 1) + 2 b - y - 1 <= S + 1 - T <= 2 b -
       T.  So (k - 2)(b - 1) <= y + 1 - T <= 0: k = 2 and T = y + 1.  The
       coprime y and y + 1 both divide d_k, so (b + 1)(b + 2) <= y (y +
       1) <= d_k <= 4 b + 2, and b <= 1.
    Both cases contradict b >= 3, so a <= b <= 2.

    weight_bound: max(1, n + 2 - index) at k = 1 when the profile holds
    GcdCover and one of LinearCone, Deltas and LastWeight, else None.
    No survivor has a weight above it, so it bounds the middles (as
    middle_bound does, tighter, where that is set) and the tail, and a
    cap at or above it is not touched.  Proof.  At k = 1 GcdCover gives
    each gcd class at most one member, so the weights above 1, b_1 < ...
    < b_r = t, are distinct and pairwise coprime; each is a class that
    the one degree d must serve, so their product P divides d >= 1.  The
    index equation gives d = C + sum(b_i) with C = n + 2 - r - index.
    - r = 1: t divides C.  C = 0 gives d = t, which each of the three
      screens bans: LinearCone as d is a weight, Deltas as d <= a_N and
      LastWeight as d < 2 a_N.  C < 0 leaves none, as d > 0 asks t > -C,
      which t divides.  So t <= C = n + 1 - index.
    - r = 2, b = b_1: b t <= d = C + b + t, so (b - 1)(t - 1) <= C + 1,
      and as b >= 2, t <= C + 2 = n + 2 - index.
    - r >= 3: b_1 ... b_(r-1) are pairwise coprime and above 1, so their
      product is at least that of the first r - 1 primes, which is at
      least r + 3 (6 at r = 3).  So (r + 3) t <= P <= d <= C + r t, and
      t <= C / 3 < n + 2 - index.
    No case leaves a tuple with r >= 1 when C < 0, so where n + 2 -
    index < 1 every weight is 1: hence the max with 1.
    """

    def __init__(self, query: EnumerationQuery) -> None:
        n, index, k, cap, profile = query.n, query.index, query.k, query.max_weight, query.profile
        self.query = query
        self.prefix = (1,) * (k + index) if FilterId.UNIT_PREFIX in profile else ()
        self.tails = k if FilterId.DELTAS in profile else 0
        self.middles = n + k + 1 - len(self.prefix) - self.tails
        # The index equation at k = 0 (no degrees): the middles sum to
        # what the prefix leaves of the index.
        self.middle_sum = index - len(self.prefix) if k == 0 else None
        bans_top = profile & {FilterId.LINEAR_CONE, FilterId.DELTAS, FilterId.LAST_WEIGHT}
        bounded = k == 1 and FilterId.GCD_COVER in profile and bans_top
        self.weight_bound = max(1, n + 2 - index) if bounded else None
        five_screens = {
            FilterId.UNIT_PREFIX, FilterId.DELTAS, FilterId.LAST_WEIGHT, FilterId.GCD_COVER,
            FilterId.LINEAR_CONE,
        }
        proved = self.middles == 1 and k >= 1 or self.middles == 2 and k >= 2
        self.middle_bound = 2 if proved and five_screens <= profile else None
        bound = self.middle_bound if k else self.middle_sum - self.middles + 1
        self.middle_hi, touched = _capped(cap, bound, self.weight_bound)
        # The index equation gives every tuple the query's index, so
        # FanoPositivity passes them all at index >= 1 and none at index 0.
        self.empty = self.middles < 0 or (index == 0 and FilterId.FANO_POSITIVITY in profile)
        self.touched = not self.empty and self.middles > 0 and touched
        self.last_weight = self.tails > 0 and FilterId.LAST_WEIGHT in profile
        enforced = {FilterId.NORMALIZED, FilterId.UNIT_PREFIX, FilterId.FANO_POSITIVITY}
        if self.tails:
            enforced |= {FilterId.DELTAS, FilterId.LAST_WEIGHT}
        self.enforced = profile & enforced
        self.cuts = profile & {FilterId.GCD_COVER, FilterId.LINEAR_CONE}
        self.predicates = _predicates(profile - self.enforced - self.cuts)


def _capped(cap: int, *bounds: int | None) -> tuple[int, bool]:
    """The top of a range under the cap and the least bound set, and whether the cap cut it.

    The cap always cuts a range with no bound set (every bound None).
    """
    bound = min((b for b in bounds if b is not None), default=None)
    if bound is None:
        return cap, True
    return min(cap, bound), bound > cap


def enumerate_candidates(query: EnumerationQuery, workers: int = 1) -> EnumerationResult:
    """Run the search to completion and return all survivors."""
    return enumerate_streaming(query, lambda c: None, workers=workers)


def enumerate_streaming(
    query: EnumerationQuery,
    sink: Callable[[Candidate], None],
    workers: int = 1,
) -> EnumerationResult:
    """Run the search, feeding each survivor to sink in canonical order.

    The returned result is identical for any worker count.  The search
    is split into one task per value of the first middle weight, exactly
    the values its slot admits (_slot_values), and the partial results
    are merged in ascending task order.  With size processes (at most
    workers, the task count and the usable CPUs; 1 where os.fork is
    missing), the caller runs the tasks inline until the work its tasks
    so far predict is left repays forked helpers; then each task left
    runs in the first process to come free: the caller, which runs the
    tasks it claims inline, or one of size - 1 forked children, which
    send each outcome as soon as they have it (_split).  The merge takes
    task j once tasks 0..j are all in, and the caller checks for outcomes
    after each task of its own, so the sink sees each task's survivors
    soon after that task and every earlier one have finished, not after
    the whole search.
    """
    _require_ints(workers=workers)
    if workers < 1:
        raise InvalidQuery(f"workers must be >= 1, got {workers}")
    shape = _Shape(query)
    if shape.empty:
        keys = []
    elif shape.middles > 0:
        keys = _slot_values((), shape.middles, shape.middle_hi, shape.middle_sum)
    else:
        keys = [None]
    # The processes beyond the caller are forked together, so there are
    # no more than there are tasks or usable CPUs.
    size = min(workers, len(keys), _usable_cpus()) if hasattr(os, "fork") else 1
    outcomes = _split(shape, keys, size)
    try:
        return _collect(shape, outcomes, sink)
    finally:
        outcomes.close()


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _split(shape: _Shape, keys, size: int):
    """Yield the outcome of each task in task order, forking helpers once the work repays them.

    The caller runs the tasks inline, in order.  With size > 1, before
    each task it predicts the work left as the mean time of its tasks so
    far times the tasks left; once that reaches _FORK_WORK_S and two
    tasks or more are left, it shares them with size - 1 forked helpers
    (_forked._share, loaded only then).  The first task always runs
    inline, unless _FORK_WORK_S is 0.  So a short search or one of size
    1 forks nothing, and loads no fork code, and a long one forks after a
    task or a few.  Either way the outcomes are those of an inline run,
    in the same order.
    """
    busy = 0.0
    for j, key in enumerate(keys):
        left = len(keys) - j
        if size > 1 and left > 1 and busy * left >= _FORK_WORK_S * max(j, 1):
            from ._forked import _share

            yield from _share(lambda key: _task(shape, key).outcome(), keys[j:], min(size, left))
            return
        start = perf_counter()
        outcome = _task(shape, key).outcome()
        busy += perf_counter() - start
        yield outcome


def _collect(shape: _Shape, outcomes, sink) -> EnumerationResult:
    """Merge task outcomes in order, feeding survivors to sink as each one arrives.

    An outcome is a task's (survivors, nodes, tested, touched), as
    _Walk.outcome gives it.  Nothing sorts the survivors: the tasks come
    in ascending first middle weight, and each walk yields its weight
    vectors in lexicographic order and the degrees of a vector in order,
    so they arrive canonical.
    """
    survivors: list[Candidate] = []
    nodes = tested = 0
    touched = shape.touched
    for found, task_nodes, task_tested, task_touched in outcomes:
        for c in found:
            sink(c)
        survivors.extend(found)
        nodes += task_nodes
        tested += task_tested
        touched = touched or task_touched
    return EnumerationResult(
        query=shape.query,
        survivors=tuple(survivors),
        cap_touched=touched,
        prefix_infeasible=shape.middles < 0,
        stats=SearchStats(nodes=nodes, tested=tested),
    )


class _Walk:
    """One search task: its counters, its survivors and its two generators.

    The shape's cuts act in the generators: GcdCover by the class counts
    carried along the weights, LinearCone by banning the weights as
    degrees.  test runs the shape's predicates on a tuple.  touched
    records that the cap cut a structurally admissible range.
    """

    def __init__(self, shape: _Shape) -> None:
        self.shape = shape
        self.nodes = 0
        self.tested = 0
        self.touched = False
        self.survivors: list[Candidate] = []

    def tuples(
        self,
        head: tuple[int, ...],
        length: int,
        hi: int,
        total=None,
        classes=None,
        first=None,
    ):
        """Yield each non-decreasing extension of head to length entries in 1..hi, with counts.

        With total, only the extensions summing to total: the last entry
        is forced (a node only when admissible), and each earlier one is
        at most an equal share of what the entries before it leave.
        With classes, the class counts of head (_grow_classes), the counts
        are carried along: a value that gives some class more than k
        members is not placed, so is not a node, and its subtree is
        skipped.  Without, every extension comes with None.  With first,
        the next slot takes only that value, which must be one of its
        _slot_values: the tasks are exactly the first slot's values.
        """
        if len(head) == length:
            if total is None or sum(head) == total:
                yield head, classes
            return
        values = _slot_values(head, length, hi, total) if first is None else (first,)
        # A value in the last slot completes the tuple (with total it is the
        # forced value, so the sum holds): it is yielded without a leaf call.
        last = len(head) + 1 == length
        for value in values:
            placed = head + (value,)
            grown = None
            if classes is not None:
                grown = _grow_classes(classes, placed, self.shape.query.k)
                if grown is None:
                    continue
            self.nodes += 1
            if last:
                yield placed, grown
            else:
                yield from self.tuples(placed, length, hi, total, grown)

    def tails(self, head, m, classes, last_only, total, tail_hi, bans):
        """Yield each tail vector extending head under LastWeight at k >= 2, with its counts.

        head is m middles and the tails placed so far, classes its class
        counts, last_only the lcm of its last-only classes (_tails_fit;
        unused before the first tail) and bans whether the weights are
        banned as degrees.  Each tail up to tail_hi that _skips leaves is
        placed only when the prefix it ends passes _tails_fit and the
        degree slack test, _slots_fit with the tails not yet placed as free
        slots; on a whole vector that is the walk's test before its first
        degree, so _task does not run it again.
        """
        k = self.shape.query.k
        top = total - k + 2
        first = len(head) == m
        for t in range(head[-1] if head else 1, tail_hi + 1):
            if first:
                # The first window shrinks as t grows: once the middles fail, all larger t do.
                last_only = _tails_fit((t,), total, classes.items(), head if bans else (), k, tail_hi)
                if not last_only:
                    return
            if _skips(t, head, last_only, top, tail_hi + top - 1, bans or first):
                continue
            placed = head + (t,)
            grown = _grow_classes(classes, placed, k)
            if grown is None:
                continue
            banned = placed if bans else ()
            tails = placed[m:]
            lone = _tails_fit(tails, total, grown.items(), banned, k, tail_hi)
            if not lone:
                continue
            free = k - len(tails)
            if not _slots_fit(tails, total, t, grown.items(), banned, 0, free):
                continue
            self.nodes += 1
            if free:
                yield from self.tails(placed, m, grown, lone, total, tail_hi, bans)
            else:
                yield placed, grown

    def degrees(self, floors, total, min_last, pending, banned, head=()):
        """Yield the non-decreasing degrees d_j = floors[j] + e_j extending head.

        Every e_j >= 1, the e_j of the unplaced degrees sum to total, and
        the last e_j >= min_last >= 1.  Each (g, c) in pending asks c > 0
        more degrees divisible by g (GcdCover), with c at most the number
        of unplaced degrees; while one is, free slots are walked only when
        the unplaced degrees fit their sum (_slots_fit; with none, the slot
        ranges hold the slack): the caller checks the slots of head, and
        the walk those left after each degree it places, before it walks
        them.  A class whose c equals that number must
        divide the next degree, so only multiples of the lcm of those
        classes are placed, and the bound holds again after each degree.
        No degree is in banned (LinearCone).  The last degree is forced by
        the sum, so it counts as a node only when admissible.  No floors:
        the empty tuple, iff total == 0.
        """
        j, last = len(head), len(floors) - 1
        prev = head[-1] if head else 0
        if j >= last:
            if j > last:
                if total == 0:
                    yield head
                return
            d = floors[j] + total
            if (
                total >= min_last
                and d >= prev
                and d not in banned
                and (not pending or all(d % g == 0 for g, _ in pending))
            ):
                self.nodes += 1
                yield head + (d,)
            return
        step = lcm(*(g for g, c in pending if c == last + 1 - j))
        lo = max(floors[j] + 1, prev)
        hi = floors[j] + total - (last - 1 - j + min_last)
        for d in range(-(-lo // step) * step, hi + 1, step):
            if d in banned:
                continue
            self.nodes += 1
            rest = tuple((g, c - (d % g == 0)) for g, c in pending if c > 1 or d % g)
            left = total + floors[j] - d
            if j + 1 < last and rest:
                if not _slots_fit(floors[j + 1 :], left, min_last, rest, banned, d):
                    continue
            yield from self.degrees(floors, left, min_last, rest, banned, head + (d,))

    def test(self, weights: tuple[int, ...], ds: tuple[int, ...]) -> None:
        self.tested += 1
        if _survives(weights, ds, self.shape.predicates):
            self.survivors.append(Candidate(weights, ds))

    def outcome(self) -> tuple[list[Candidate], int, int, bool]:
        """(survivors, nodes, tested, touched): what _collect merges, and what a child sends."""
        return self.survivors, self.nodes, self.tested, self.touched


def _slot_values(head: tuple[int, ...], length: int, hi: int, total: int | None) -> range:
    """The values of the slot after head: from head[-1] (or 1) up to hi.

    With total, the entries must sum to total: each is at most an equal
    share of what head leaves over the slots left, and the last is forced.
    """
    start = head[-1] if head else 1
    if total is None:
        return range(start, hi + 1)
    slots, left = length - len(head), total - sum(head)
    return range(max(start, left) if slots == 1 else start, min(hi, left // slots) + 1)


def _skips(t, head, last_only, top, reach, own_class) -> bool:
    """True only when the tail prefix head + (t,) fails _tails_fit, so t need not be tried.

    top = total - k + 2 and reach = tail_hi + top - 1 <= 2 top - 2 bound
    the windows of _tails_fit; last_only is the lcm of head's last-only
    classes (the middles' at t for the first tail), which stay last-only.
    With own_class (t is the first tail or banned) and 2 t > top, no
    multiple of t outside banned lies in the first window, as t lies below
    it or is banned, so t is a last-only class: no weight before it may
    equal t, and the last degree, 2 t or 3 t in [2 t, reach] as reach <
    4 t, must be one that last_only divides.
    """
    return own_class and 2 * t > top and (
        t in head or 2 * t % last_only and (3 * t > reach or 3 * t % last_only)
    )


def _grow_classes(
    classes: dict[int, int], placed: tuple[int, ...], k: int
) -> dict[int, int] | None:
    """The class counts of placed, from the counts classes of placed[:-1], or None on a cut.

    The counts map every gcd g > 1 of the gcd closure of the weights to
    the number of weights g divides, GcdCover's required count.  The new
    weight a = placed[-1] changes exactly the counts of _gcds_added(classes,
    a): a class g joins it iff gcd(a, g) == g, so each such g already a
    class gains a member, and each other value above 1 is a new class,
    counted by one scan of placed.  So the classes it changes are exactly
    those a divides, and a unit weight changes none.  None when some count
    exceeds k: that class needs more divisible degrees than there are,
    and neither the closure nor a count shrinks as weights are appended.
    """
    a = placed[-1]
    if a == 1:
        return classes
    grown = dict(classes)
    for g in _gcds_added(classes, a):
        if g > 1:
            count = classes[g] + 1 if g in classes else [w % g for w in placed].count(0)
            if count > k:
                return None
            grown[g] = count
    return grown


def _tails_fit(tails, total, classes, banned, k, tail_hi) -> int:
    """0 only when no completion of a tail prefix has a degree tuple; else its last-only lcm.

    Under LastWeight (the last excess is at least the last tail): tails
    are t_1 <= ... <= t_cur placed so far, all k of them at the last
    depth, and classes and banned the class counts and the weights so
    far; the other tails lie in t_cur..tail_hi.  In any completion slot j
    holds at least t_j + 1, the last slot 2 t_k, with slack total - (k -
    1) - t_k >= 0 above those least values, so every degree but the last
    lies in [t_1 + 1, total - k + 2] and the last in
    [2 t_cur, tail_hi + total - k + 1].  A class with no multiple of g
    outside banned in the first window is last-only: the class counts,
    the gcd closure and banned only grow as weights are appended, so it
    stays last-only in every completion.  A last-only class with c >= 2
    has no completion, and every last-only class divides the last
    degree, so their lcm needs a multiple outside banned in the last
    window.  So not placing the tail that ends a failing prefix loses no
    survivor.
    """
    top = total - k + 2
    last_only = 1
    for g, c in classes:
        if _least_multiple(tails[0] + 1, g, banned) > top:
            if c >= 2:
                return 0
            last_only = lcm(last_only, g)
    if last_only > 1 and _least_multiple(2 * tails[-1], last_only, banned) > tail_hi + top - 1:
        return 0
    return last_only


def _slots_fit(floors, total, min_last, pending, banned, prev, free=0) -> bool:
    """False only when _Walk.degrees fills no slots left after the degree prev.

    floors are the floors of the unplaced slots, total the sum of their
    excesses, and prev the degree placed last (0 before the first).  In
    any completion the degrees are non-decreasing and at least prev,
    every e_j >= 1 and the last e_j >= min_last, so slot j holds at least
    lo_j, the running max from prev of floors[j] + 1 (floors[-1] +
    min_last in the last slot).  The degrees sum to S = sum(floors) +
    total, which leaves slack = S - sum(lo) above those least values;
    negative slack leaves no completion.  Each (g, c) in pending asks c
    degrees divisible by g, none of them in banned, and the least such
    degree in slot j is lo_j + inc_j.  c slots hold one and no slot lies
    below its lo_j, so the slack is at least the sum of the c smallest
    inc_j.  Before the first degree this is the test of a whole vector.
    So not filling slots that fail loses no survivor.

    With free, floors are the placed slots of a tail prefix under
    LastWeight and the last free slots are not placed yet (_Walk.tails,
    with prev 0 and min_last the last tail placed).  In any completion
    the floor of a free slot, the tail it pairs with, is at least
    floors[-1], and so is the last excess; taking them at that least
    value only raises the slack, to total - (k - 1) - t_cur.  A free slot
    may need no raise, so a class is charged its c - free smallest inc_j
    over the placed slots only, and a class with c <= free nothing.  The
    class counts and banned only grow as weights are appended, so a
    prefix that fails has no completion.
    """
    if free:
        pending = [(g, c - free) for g, c in pending if c > free]
        if not pending:
            return True
    lo = [f + 1 for f in floors] + [floors[-1] + 1] * free
    lo[-1] += min_last - 1
    lo = list(accumulate(lo, max, initial=prev))[1:]
    slack = sum(floors) + free * floors[-1] + total - sum(lo)
    if slack < 0:
        return False
    placed = lo[: len(floors)]
    for g, c in pending:
        incs = [_least_multiple(x, g, banned) - x for x in placed]
        if sum(sorted(incs)[:c]) > slack:
            return False
    return True


def _least_multiple(x: int, g: int, banned) -> int:
    """The least multiple of g that is at least x and not in banned."""
    d = x + (-x) % g
    while d in banned:
        d += g
    return d


def _task(shape: _Shape, first_middle: int | None) -> _Walk:
    """Walk the middles, tails and degrees of the shape under one fixed first middle weight."""
    index, k, cap = shape.query.index, shape.query.k, shape.query.max_weight
    walk = _Walk(shape)
    # The unit prefix lies in no class, so the middles start the class counts.
    counts = {} if FilterId.GCD_COVER in shape.cuts else None
    bans_weights = FilterId.LINEAR_CONE in shape.cuts
    middles = walk.tuples(
        (), shape.middles, shape.middle_hi, shape.middle_sum, counts, first=first_middle
    )
    for ms, counts in middles:
        total = len(shape.prefix) + sum(ms) - index
        last_weight_bound = total - k + 1 if shape.last_weight else None
        tail_hi, touched = _capped(cap, last_weight_bound, shape.weight_bound)
        if shape.tails and touched:
            walk.touched = True
        # The degrees are walked only when their slots fit (_slots_fit):
        # the tail stage checks its vectors, this loop the others.
        check = k >= 2
        if k >= 2 and shape.last_weight and counts is not None:
            vectors = walk.tails(ms, len(ms), counts, 1, total, tail_hi, bans_weights)
            check = False
        else:
            vectors = walk.tuples(ms, len(ms) + shape.tails, tail_hi, classes=counts)
        for ws, classes in vectors:
            weights = shape.prefix + ws
            floors = ws[len(ms) :] if shape.tails else (0,) * k
            min_last = ws[-1] if shape.last_weight else 1
            pending = tuple(classes.items()) if classes else ()
            banned = weights if bans_weights else ()
            if check and pending and not _slots_fit(floors, total, min_last, pending, banned, 0):
                continue
            for ds in walk.degrees(floors, total, min_last, pending, banned):
                walk.test(weights, ds)
    return walk
