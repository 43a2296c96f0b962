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
  rejects on the tail prefix it ends, nor any tail of a middle vector
  it rejects, nor any degree of the slots left that it rejects.
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
The screens the shape enforces (Normalized and UnitPrefix always,
FanoPositivity at index >= 1, Deltas and LastWeight with tails) are not
re-run on its tuples.

At every codimension the profile's GcdCover and LinearCone cut the
search instead of screening its tuples.  GcdCover asks every class (gcd
g, required members) for at least required degrees divisible by g, so a
vector with required > k has no degree tuple.  The class gcds (the gcd
closure of the weights) and their member counts only grow as weights
are appended, so the walk keeps them along the weights it places,
extended by one weight per middle and per tail from the first middle
on.  A weight that gives some class more than k members is not placed,
and its whole subtree is skipped.  The degree sum the index equation
fixes bounds each stage.  Under LastWeight, every middle vector, and at
k >= 2 every tail placed, must leave each class a degree outside the
last slot or a share of the last degree: a class that only the last
degree can serve may have one member, and all such classes must divide
one degree in the last slot's window (_tails_fit).  At k = 1 no degree
comes before the last, so every class is last-only.  A middle vector
is checked with its last middle as a virtual tail, a lower bound on
every tail, and its tails are not walked when it fails; a tail that
fails is not placed.  While a class is pending, the degree walk fills a
slot only when the slots left fit what is left of that sum (_slots_fit):
the least degree each can hold, plus the least raise to an admissible
multiple that each class needs in as many slots as it still needs, must
not exceed it.  No class may need more divisible degrees than there are
slots left: a class that needs every slot left must divide the next
degree, so the walk steps through multiples of the lcm of those classes.  LinearCone skips every degree
equal to a weight.
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
sum(middles), the middle bound, the enforced screens (FanoPositivity at
both indices), the cuts and the predicates all agree.  The prefix
places no node, so both walks place the same middles, tails and
degrees, and the tested tuples answer every predicate alike: a unit
lies in no gcd class, 1 is banned as a degree in both (each prefix
holds a unit), LastWeight reads the top weight only, and
AmbientWellFormed passes both, since at k >= 1 each prefix holds two
units or more and at k = 0 both slices are empty unless every weight is
a unit.  So stats, cap_touched and prefix_infeasible agree too.  Index
1 is left out: it maps to index 0, where FanoPositivity is not
enforced.  So is k = n + 1, which maps to an invalid query.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from typing import Callable

from .core import Candidate, _gcds_added
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


@dataclass(frozen=True)
class EnumerationQuery:
    """Target dimension n, Fano index, codimension k, weight cap, profile.

    max_weight defaults to 4 * (n + k + index).  That default is not
    proved to contain every survivor: (5, 1, 3) at its default 36 and
    (6, 1, 4) at 44 report cap_touched, so only cap_touched False says a
    listing is complete.  k may be 0 (ambient spaces); k <= n + 1 is
    enforced.
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
    """nodes: entries placed; tested: candidates run through the profile.

    A weight, tail or degree that a cut or the degree-sum bound rejects
    is not placed, so it is not a node (the module docstring has the
    full rule).
    """

    nodes: int
    tested: int


@dataclass(frozen=True)
class EnumerationResult:
    query: EnumerationQuery
    survivors: tuple[Candidate, ...]
    cap_touched: bool
    prefix_infeasible: bool
    stats: SearchStats


# Filters that justify capping a single middle weight at 2: with the
# unit prefix and one middle m, the Deltas tails lie in {m, m+1} and
# the forced excess split makes every m >= 3 fail GcdCover and every
# m = 2 fail GcdCover or LinearCone unless k = 1 with all tails m+1.
# Survivors beyond the bound cannot exist, so the cap is not considered
# touched by it.
_CLOSURE_FILTERS = frozenset(
    {
        FilterId.UNIT_PREFIX,
        FilterId.DELTAS,
        FilterId.LAST_WEIGHT,
        FilterId.GCD_COVER,
        FilterId.LINEAR_CONE,
    }
)


def _middle_bound(middle_count: int, profile: frozenset[FilterId]) -> int | None:
    if middle_count == 1 and _CLOSURE_FILTERS <= profile:
        return 2
    return None


class _Shape:
    """The search shape of one query, derived from its profile's structural screens.

    prefix: the forced unit weights.  tails: how many top weights pair
    with the degrees.  middles: how many free weights lie between, each
    in 1..middle_hi (negative when the prefix cannot fit).  last_weight:
    the top tail bounds the last excess from below.  touched: the cap
    cut the middle range.  enforced: the profile's screens that every
    tuple of the shape passes by construction.  cuts: the profile's
    GcdCover and LinearCone, which cut the walk instead of screening its
    tuples.  predicates: the profile's other screens, run on each tuple
    tested, in FILTER_ORDER.
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
        if k == 0:
            bound = self.middle_sum - self.middles + 1
        else:
            bound = _middle_bound(self.middles, profile)
        self.middle_hi, touched = _capped(bound, cap)
        self.touched = self.middles > 0 and touched
        self.last_weight = self.tails > 0 and FilterId.LAST_WEIGHT in profile
        enforced = {FilterId.NORMALIZED, FilterId.UNIT_PREFIX}
        if index >= 1:
            enforced.add(FilterId.FANO_POSITIVITY)
        if self.tails:
            enforced |= {FilterId.DELTAS, FilterId.LAST_WEIGHT}
        self.enforced = profile & enforced
        self.cuts = profile & {FilterId.GCD_COVER, FilterId.LINEAR_CONE}
        self.predicates = _predicates(profile - self.enforced - self.cuts)


def _capped(bound: int | None, cap: int) -> tuple[int, bool]:
    """The top of a range under the cap, and whether the cap cut it (always, with no bound)."""
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
    missing), each task runs in the first process to come free: the
    caller, which runs the tasks it claims inline, or one of size - 1
    forked children, which send each outcome as soon as they have it
    (_split).  The merge takes task j once tasks 0..j are all in, and
    the caller checks for outcomes after each task of its own, so the
    sink sees each task's survivors soon after that task and every
    earlier one have finished, not after the whole search.
    """
    if workers < 1:
        raise InvalidQuery(f"workers must be >= 1, got {workers}")
    shape = _Shape(query)
    if shape.middles > 0:
        keys = _slot_values((), shape.middles, shape.middle_hi, shape.middle_sum)
    else:
        keys = [None] if shape.middles == 0 else []
    # Every process beyond the caller is forked at once, so there are no
    # more than there are tasks or usable CPUs.
    size = min(workers, len(keys), _usable_cpus())
    if size > 1 and hasattr(os, "fork"):
        outcomes = _split(shape, keys, size)
        try:
            return _collect(shape, outcomes, sink)
        finally:
            outcomes.close()
    return _collect(shape, (_task(shape, m1).outcome() for m1 in keys), sink)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _split(shape: _Shape, keys, size: int):
    """Yield the outcome of each task in task order, the tasks shared among size processes.

    Each process claims the next task not yet claimed (_Tickets) as soon
    as it is free, so one that runs slower or draws longer tasks claims
    fewer.  Process 0 is the caller, which runs the tasks it claims
    inline; the others are forked children (_fork), which send each
    outcome with its task number as soon as they have it.  The caller
    takes what the children sent after each task of its own, and waits
    for them once no task is left to claim; it yields task j as soon as
    tasks 0..j are all in.  Whatever ends the generator (its last
    outcome, a task's exception re-raised here, or close() when the
    consumer stops), every pipe is closed and every child reaped when
    it ends; a child is killed first unless every outcome has arrived.
    """
    import select
    import signal

    tickets = _Tickets(len(keys))
    children: dict[int, int] = {}  # the read end of each child's pipe: its pid
    outcomes: dict[int, tuple | Exception] = {}
    done = False
    try:
        for _ in range(1, size):
            fd, pid = _fork(shape, keys, tickets, children)
            children[fd] = pid
        for j in range(len(keys)):
            while j not in outcomes:
                mine = tickets.claim()
                if mine is not None:
                    outcomes[mine] = _task(shape, keys[mine]).outcome()
                # Poll after a task of the caller's; block when none is left.
                timeout = 0 if mine is not None else None
                for fd in select.select(list(children), [], [], timeout)[0]:
                    _receive(fd, children, outcomes)
            outcome = outcomes.pop(j)
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome
        done = True
    finally:
        tickets.close()
        for fd, pid in children.items():
            os.close(fd)
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _Tickets:
    """The number of the next task to claim, shared by forked processes.

    A pipe holds it as one 8-byte message: a claim reads it, which no
    other process can do until the claim writes back the next number.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self.r, self.w = os.pipe()
        os.write(self.w, bytes(8))

    def claim(self) -> int | None:
        """The task number claimed, or None once every task is claimed."""
        j = int.from_bytes(os.read(self.r, 8), "little")
        os.write(self.w, (j + 1).to_bytes(8, "little"))
        return j if j < self.count else None

    def close(self) -> None:
        os.close(self.r)
        os.close(self.w)


def _fork(shape: _Shape, keys, tickets: _Tickets, siblings) -> tuple[int, int]:
    """Fork a child that runs the tasks it claims; the read end of its pipe and its pid.

    The child sends each task's number and outcome, or the exception the
    task raised, after which it stops: an 8-byte length, then the pickle.
    It leaves through os._exit, so it never returns into the caller's
    stack, runs no atexit handler and flushes no buffer it inherited.
    siblings are the read ends of the children forked before, which the
    child closes.
    """
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for fd in siblings:
                os.close(fd)
            with open(w, "wb") as out:
                while (j := tickets.claim()) is not None:
                    try:
                        outcome = _task(shape, keys[j]).outcome()
                    except Exception as exc:
                        outcome = exc
                    message = pickle.dumps((j, outcome))
                    out.write(len(message).to_bytes(8, "little") + message)
                    out.flush()
                    if isinstance(outcome, Exception):
                        break
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return r, pid


def _receive(fd: int, children: dict[int, int], outcomes: dict) -> None:
    """Take the next message on a child's pipe into outcomes, or reap the child at its end.

    A child that ends with a nonzero status took a task it did not send.
    """
    import pickle

    head = _read(fd, 8)
    if not head:
        pid = children.pop(fd)
        os.close(fd)
        _, status = os.waitpid(pid, 0)
        if status:
            raise RuntimeError(
                f"search worker {pid} ended before sending its results"
                f" (exit status {os.waitstatus_to_exitcode(status)})"
            )
        return
    j, outcome = pickle.loads(_read(fd, int.from_bytes(head, "little")))
    outcomes[j] = outcome


def _read(fd: int, n: int) -> bytes:
    """n bytes from fd, or fewer at its end."""
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            break
        data += chunk
    return data


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
        fits=None,
        first=None,
    ):
        """Yield each non-decreasing extension of head to length entries in 1..hi, with counts.

        With total, only the extensions summing to total: the last entry
        is forced (a node only when admissible), and each earlier one is
        at most an equal share of what the entries before it leave.
        With classes, the class counts of head (_grow_classes), the counts
        are carried along: a value that gives some class more than k
        members is not placed, so is not a node, and its subtree is
        skipped.  Without, every extension comes with None.  With fits (a
        predicate on the entries placed and their counts), a value it
        rejects is not placed either.  With first, the next slot takes only
        that value, which must be one of its _slot_values: the tasks are
        exactly the first slot's values.
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
            if fits is not None and not fits(placed, grown):
                continue
            self.nodes += 1
            if last:
                yield placed, grown
            else:
                yield from self.tuples(placed, length, hi, total, grown, fits)

    def degrees(self, floors, total, min_last, pending, banned, head=()):
        """Yield the non-decreasing degrees d_j = floors[j] + e_j extending head.

        Every e_j >= 1, the e_j of the unplaced degrees sum to total, and
        the last e_j >= min_last >= 1.  Each (g, c) in pending asks c > 0
        more degrees divisible by g (GcdCover), with c at most the number
        of unplaced degrees; while one is, a free slot is filled only when
        the unplaced degrees fit their sum (_slots_fit; with none, the slot
        ranges hold the slack).  A class whose c equals that number must
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
        if pending and not _slots_fit(floors[j:], total, min_last, pending, banned, prev):
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


def _grow_classes(
    classes: dict[int, int], placed: tuple[int, ...], k: int
) -> dict[int, int] | None:
    """The class counts of the weights placed, from those of placed[:-1].

    The counts map every gcd g > 1 of the gcd closure of the weights to
    the number of weights g divides, GcdCover's required count.  The new
    weight a = placed[-1] changes exactly the counts of _gcds_added(classes,
    a): a class g joins it iff gcd(a, g) == g, so each such g already a
    class gains a member, and each other value above 1 is a new class,
    counted by one scan of placed.  A unit weight changes nothing.  None
    when some count exceeds k: that class needs more divisible degrees
    than there are, and neither the closure nor a count shrinks as
    weights are appended.
    """
    a = placed[-1]
    if a == 1:
        return classes
    grown = dict(classes)
    for g in _gcds_added(classes, a):
        if g > 1:
            count = classes[g] + 1 if g in classes else sum(1 for w in placed if w % g == 0)
            if count > k:
                return None
            grown[g] = count
    return grown


def _tails_fit(tails, total, classes, banned, k, tail_hi) -> bool:
    """False only when no completion of a tail prefix has a degree tuple.

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
    stays last-only in every completion.  At k = 1 there is no degree
    but the last, so every class is last-only.  A last-only class with
    c >= 2 has no completion, and every last-only class divides the last
    degree, so their lcm needs a multiple outside banned in the last
    window.  So not placing the tail that ends a failing prefix loses no
    survivor.  tails may also be one virtual tail at most every real
    one, such as the last middle: both windows then only widen, so a
    middle vector that fails has no tails with a degree tuple.
    """
    top = total - k + 2
    last_only = 1
    for g, c in classes:
        if k == 1 or _least_multiple(tails[0] + 1, g, banned) > top:
            if c >= 2:
                return False
            last_only = lcm(last_only, g)
    if last_only == 1:
        return True
    return _least_multiple(2 * tails[-1], last_only, banned) <= tail_hi + top - 1


def _slots_fit(floors, total, min_last, pending, banned, prev) -> bool:
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
    """
    lo = [f + 1 for f in floors]
    lo[-1] += min_last - 1
    lo = list(accumulate(lo, max, initial=prev))[1:]
    slack = sum(floors) + total - sum(lo)
    if slack < 0:
        return False
    for g, c in pending:
        incs = [_least_multiple(x, g, banned) - x for x in lo]
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
        tail_hi, touched = _capped(total - k + 1 if shape.last_weight else None, cap)
        if shape.tails and touched:
            walk.touched = True
        if ms and shape.last_weight and counts is not None:
            # Every tail is at least ms[-1], so the middles must leave the
            # degrees room for a virtual tail ms[-1] (_tails_fit); at k >= 2
            # the first tail's check repeats this one.
            banned = ms if bans_weights else ()
            if not _tails_fit((ms[-1],), total, counts.items(), banned, k, tail_hi):
                continue
        fits = None
        if k >= 2 and shape.last_weight and counts is not None:
            # Each tail placed, the last one included, must leave the
            # degrees room (_tails_fit on the tails so far).  The unit
            # prefix needs no ban: every degree exceeds a tail.
            def fits(placed, classes, m=len(ms)):
                banned = placed if bans_weights else ()
                return _tails_fit(placed[m:], total, classes.items(), banned, k, tail_hi)

        vectors = walk.tuples(ms, len(ms) + shape.tails, tail_hi, classes=counts, fits=fits)
        for ws, classes in vectors:
            weights = shape.prefix + ws
            floors = ws[len(ms) :] if shape.tails else (0,) * k
            min_last = ws[-1] if shape.last_weight else 1
            pending = tuple(classes.items()) if classes else ()
            banned = weights if bans_weights else ()
            for ds in walk.degrees(floors, total, min_last, pending, banned):
                walk.test(weights, ds)
    return walk
