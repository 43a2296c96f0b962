"""Search behavior: frozen slices, determinism, pruning honesty."""

from __future__ import annotations

import itertools
import os
import select
import sys
import time
from math import lcm
from unittest import mock

import pytest
from grid_oracle import (
    grid_cells,
    naive_survivors,
    naive_survivors_per_profile,
    sorted_partitions,
    sorted_tuples,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wcifano._forked
import wcifano.core
import wcifano.enumerator
import wcifano.filters
from wcifano.core import Candidate, _class_generators, canonical_key, fano_index
from wcifano.enumerator import (
    CapTooSmall,
    EnumerationQuery,
    EnumerationResult,
    InvalidQuery,
    SearchStats,
    _grow_classes,
    _Shape,
    _slots_fit,
    _tails_fit,
    _capped,
    _Walk,
    enumerate_candidates,
    enumerate_streaming,
)
from wcifano.filters import (
    _PREDICATES,
    CALABI_YAU_PROFILE,
    FILTER_ORDER,
    SMOOTH_FANO_PROFILE,
    FilterId,
    gcd_cover_ok,
    run_all,
)
from wcifano.transforms import hyperplane_section

ALL_PROFILES = [
    frozenset(c) for r in range(len(FILTER_ORDER) + 1) for c in itertools.combinations(FILTER_ORDER, r)
]
# The smooth-Fano profile without LinearCone: the middle bound does not
# hold there, so the cap bounds the middles of the survey slices.
NO_CONE = SMOOTH_FANO_PROFILE - {FilterId.LINEAR_CONE}
# The hypothesis of _Shape.middle_bound.
FIVE_SCREENS = frozenset(
    {
        FilterId.UNIT_PREFIX,
        FilterId.DELTAS,
        FilterId.LAST_WEIGHT,
        FilterId.GCD_COVER,
        FilterId.LINEAR_CONE,
    }
)


class TestQueryValidation:
    def test_default_cap_formula(self):
        q = EnumerationQuery(n=3, index=2, k=1)
        assert q.max_weight == 4 * (3 + 1 + 2)

    def test_profile_coerced_to_frozenset(self):
        q = EnumerationQuery(n=2, index=1, k=1, profile={FilterId.NORMALIZED})
        assert q.profile == frozenset({FilterId.NORMALIZED})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "index": 1, "k": 0},
            {"n": 2, "index": -1, "k": 1},
            {"n": 2, "index": 1, "k": 4},
            {"n": 2, "index": 1, "k": -1},
        ],
    )
    def test_rejects_inconsistent_bounds(self, kwargs):
        with pytest.raises(InvalidQuery):
            EnumerationQuery(**kwargs)

    def test_rejects_tiny_cap(self):
        with pytest.raises(CapTooSmall):
            EnumerationQuery(n=2, index=1, k=1, max_weight=0)

    @pytest.mark.parametrize("profile", [{"Deltas", "bogus"}, {"bogus"}, {FilterId.DELTAS, "bogus"}])
    def test_rejects_unknown_profile_entries(self, profile):
        with pytest.raises(InvalidQuery, match="^unknown filter id 'bogus'$"):
            EnumerationQuery(n=2, index=1, k=1, max_weight=6, profile=profile)

    def test_accepts_screen_names_given_as_strings(self):
        q = EnumerationQuery(n=2, index=1, k=1, max_weight=6, profile={"Deltas"})
        result = enumerate_candidates(q)
        assert result == enumerate_candidates(
            EnumerationQuery(n=2, index=1, k=1, max_weight=6, profile={FilterId.DELTAS})
        )
        assert len(result.survivors) == 126

    def test_rejects_bad_worker_count(self):
        q = EnumerationQuery(n=2, index=1, k=1)
        with pytest.raises(InvalidQuery):
            enumerate_streaming(q, lambda c: None, workers=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 5, "index": 1, "k": 3, "max_weight": 20.5},
            {"n": 3.0, "index": 1, "k": 2, "max_weight": 10},
            {"n": 2, "index": 1, "k": True},
            {"n": 2, "index": 1.0, "k": 1},
            {"n": 2, "index": 1, "k": 1, "max_weight": True},
            {"n": "2", "index": 1, "k": 1},
        ],
    )
    def test_rejects_non_integers(self, kwargs):
        # as Candidate's entries: an int, never a bool
        with pytest.raises(InvalidQuery, match="must be an integer"):
            EnumerationQuery(**kwargs)

    def test_accepts_int_subclasses(self):
        class Count(int):
            pass

        q = EnumerationQuery(n=Count(2), index=Count(1), k=Count(1), max_weight=Count(6))
        assert (q.n, q.index, q.k, q.max_weight) == (2, 1, 1, 6)
        assert enumerate_candidates(q, workers=Count(1)) == enumerate_candidates(q)

    @pytest.mark.parametrize("workers", [2.0, True, "2"])
    def test_rejects_a_non_integer_worker_count_before_searching(self, monkeypatch, workers):
        monkeypatch.setattr(wcifano.enumerator, "_Shape", None)
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=20)
        with pytest.raises(InvalidQuery, match="workers must be an integer"):
            enumerate_candidates(q, workers=workers)


def drop_middle_bound(monkeypatch):
    """From here on, build each shape with its middle bound dropped.

    The first bound _Shape hands _capped is the middle bound, so the cap
    alone bounds the middles; the tail's own _capped call is kept.
    """
    shape, capped = wcifano.enumerator._Shape, wcifano.enumerator._capped

    def unbounded_shape(query):
        with monkeypatch.context() as m:
            m.setattr(wcifano.enumerator, "_capped", lambda c, *b: capped(c, None, *b[1:]))
            built = shape(query)
        assert built.middle_bound == 2
        return built

    monkeypatch.setattr(wcifano.enumerator, "_Shape", unbounded_shape)


class TestFrozenSlices:
    def test_index_two_hypersurfaces_in_dimension_three(self):
        result = enumerate_candidates(EnumerationQuery(n=3, index=2, k=1, max_weight=50))
        assert result.survivors == (
            Candidate((1, 1, 1, 1, 1), (3,)),
            Candidate((1, 1, 1, 1, 2), (4,)),
            Candidate((1, 1, 1, 2, 3), (6,)),
        )
        assert result.cap_touched is False
        assert result.prefix_infeasible is False
        assert result.stats == SearchStats(nodes=8, tested=3)

    def test_two_quadrics_slice(self):
        result = enumerate_candidates(EnumerationQuery(n=2, index=1, k=2))
        assert result.survivors == (Candidate((1, 1, 1, 1, 1), (2, 2)),)
        assert result.cap_touched is False

    @pytest.mark.parametrize(
        "n, index, k, cap, profile, expected",
        [
            (5, 1, 3, 12, NO_CONE, (919, 8, 8, True)),
            (4, 1, 1, 15, SMOOTH_FANO_PROFILE, (42, 4, 4, False)),
            (6, 4, 2, 15, SMOOTH_FANO_PROFILE, (12, 1, 1, False)),
            (2, 3, 0, None, SMOOTH_FANO_PROFILE, (0, 1, 1, False)),
            (2, 0, 2, 6, CALABI_YAU_PROFILE, (12, 1, 1, False)),
            (
                2,
                1,
                1,
                8,
                SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS},
                (18, 3, 3, False),
            ),
            (2, 9, 0, 9, frozenset(), (17, 7, 7, False)),
            (3, 1, 2, 8, frozenset({FilterId.UNIT_PREFIX, FilterId.DELTAS}), (944, 330, 330, True)),
            (5, 1, 2, 12, SMOOTH_FANO_PROFILE, (1631, 6, 6, True)),
            (6, 1, 3, 10, SMOOTH_FANO_PROFILE, (2660, 10, 10, True)),
        ],
    )
    def test_search_counts_are_pinned(self, n, index, k, cap, profile, expected):
        # nodes, tested, survivors and cap_touched of profiles with and
        # without the unit-prefix structure, ambient-only slices included;
        # without LinearCone the cap, not the middle bound, bounds the
        # middles of (5, 1, 3), and with three middles at k >= 2 the cap
        # bounds them under the full profile too, so every tail prefix
        # of those slices runs through _tails_fit
        q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=profile)
        result = enumerate_candidates(q)
        nodes, tested, survivors, touched = expected
        assert result.stats == SearchStats(nodes=nodes, tested=tested)
        assert len(result.survivors) == survivors
        assert result.cap_touched is touched

    def test_infeasible_prefix(self):
        result = enumerate_candidates(EnumerationQuery(n=2, index=2, k=3))
        assert result.survivors == ()
        assert result.prefix_infeasible is True
        assert result.cap_touched is False
        assert result.stats == SearchStats(nodes=0, tested=0)


class TestDeepQueries:
    # the walk nests a generator frame per middle, tail and degree, so a
    # slice about as deep as the recursion limit stops with InvalidQuery,
    # and a deep slice within it still answers
    TOO_DEEP = "nests deeper than the interpreter allows"

    @pytest.mark.parametrize(
        "n, index, k, profile",
        [(1000, 1, 1000, SMOOTH_FANO_PROFILE), (990, 991, 0, {FilterId.NORMALIZED})],
    )
    def test_a_search_too_deep_raises_invalid_query(self, n, index, k, profile):
        q = EnumerationQuery(n=n, index=index, k=k, max_weight=5, profile=profile)
        message = f"^the search of n={n}, index={index}, k={k} {self.TOO_DEEP}: "
        with pytest.raises(InvalidQuery, match=message):
            enumerate_candidates(q)

    def test_a_task_too_deep_raises_invalid_query_from_a_worker(self, fork_at_once):
        # two tasks, first middle 1 and 2, shared among two processes
        # where a second CPU is usable
        q = EnumerationQuery(n=990, index=1982, k=0, max_weight=5, profile={FilterId.NORMALIZED})
        with pytest.raises(InvalidQuery, match=self.TOO_DEEP):
            enumerate_candidates(q, workers=2)

    def test_a_deep_slice_within_the_limit_answers(self):
        # case ii at n = 400: the one all-quadrics tuple
        result = enumerate_candidates(EnumerationQuery(n=400, index=1, k=400, max_weight=5))
        assert result.survivors == (Candidate((1,) * 801, (2,) * 400),)
        assert result.stats == SearchStats(nodes=800, tested=1)
        assert result.cap_touched is False


class TestNoGcdClosure:
    @pytest.mark.parametrize("n, index, k, cap", [(5, 1, 3, 12), (3, 2, 1, 50)])
    def test_the_walk_builds_no_gcd_closure(self, monkeypatch, n, index, k, cap):
        # GcdCover cuts the walk at every codimension: the walk carries the
        # class counts along the weights it places, and no screen it runs
        # per tuple reads the class gcds, so no gcd closure is built
        closures: list[tuple[int, ...]] = []
        build = wcifano.core._class_generators

        def recording_build(weights):
            closures.append(tuple(weights))
            return build(weights)

        monkeypatch.setattr(wcifano.core, "_class_generators", recording_build)
        monkeypatch.setattr(wcifano.filters, "_class_generators", recording_build)
        result = enumerate_candidates(EnumerationQuery(n=n, index=index, k=k, max_weight=cap))
        assert result.survivors
        assert closures == []


class TestSearchShape:
    @pytest.mark.parametrize(
        "n, index, k, cap",
        [
            (1, 0, 1, 5),
            (1, 2, 0, 5),
            (2, 1, 1, 5),
            (2, 3, 0, 4),
            (2, 2, 2, 4),
            (3, 1, 2, 4),
            (3, 5, 1, 4),
        ],
    )
    def test_enforced_screens_hold_on_every_tested_tuple(self, monkeypatch, n, index, k, cap):
        # the screens the shape enforces are not re-run, so every tuple
        # the walk tests must pass them; the survivors must still match
        # the naive grid for every profile
        test = wcifano.enumerator._Walk.test
        checked: list[int] = []

        def checking_test(walk, weights, ds):
            assert run_all(Candidate(weights, ds), walk.shape.enforced).survives
            checked.append(1)
            test(walk, weights, ds)

        monkeypatch.setattr(wcifano.enumerator._Walk, "test", checking_test)
        assert len(ALL_PROFILES) == 256
        for profile in ALL_PROFILES:
            q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=profile)
            result = enumerate_candidates(q)
            assert result.survivors == naive_survivors(n, index, k, cap, profile)
        assert checked

    @pytest.mark.parametrize(
        "bound, expected",
        [(None, (5, True)), (3, (3, False)), (5, (5, False)), (7, (5, True))],
    )
    def test_the_cap_rule(self, bound, expected):
        # a range with no structural bound always counts the cap as touched
        assert _capped(5, bound) == expected

    @pytest.mark.parametrize(
        "bounds, expected",
        [((None, None), (5, True)), ((None, 7, 4), (4, False)), ((7, 6), (5, True))],
    )
    def test_the_least_bound_set_decides(self, bounds, expected):
        assert _capped(5, *bounds) == expected

    def test_forced_unit_weights_are_cap_independent(self):
        # UnitPrefix alone at (1, 2, 1) forces every weight to 1, so no
        # range depends on the cap
        profile = frozenset({FilterId.UNIT_PREFIX})
        low, high = (
            enumerate_candidates(EnumerationQuery(n=1, index=2, k=1, max_weight=cap, profile=profile))
            for cap in (4, 9)
        )
        assert low.survivors == high.survivors == (Candidate((1, 1, 1), (1,)),)
        assert low.cap_touched is high.cap_touched is False

    def test_index_zero_under_fano_positivity_runs_no_task(self, monkeypatch):
        # every tuple of the shape has the query's index, so at index 0
        # FanoPositivity fails them all: no task runs, nothing is placed or
        # tested, and no cap is touched
        monkeypatch.setattr(wcifano.enumerator, "_task", None)
        queries = [
            EnumerationQuery(n=n, index=0, k=k, max_weight=5, profile=profile)
            for n in range(1, 4)
            for k in range(n + 2)
            for profile in ALL_PROFILES
            if FilterId.FANO_POSITIVITY in profile
        ]
        assert len(queries) == 1536
        for q in queries:
            empty = EnumerationResult(q, (), False, False, SearchStats(nodes=0, tested=0))
            assert enumerate_candidates(q) == empty

    def test_prefix_infeasible_without_deltas(self):
        profile = frozenset({FilterId.UNIT_PREFIX})
        result = enumerate_candidates(EnumerationQuery(n=1, index=3, k=1, profile=profile))
        assert result.prefix_infeasible is True
        assert result.survivors == ()
        assert result.stats == SearchStats(nodes=0, tested=0)

    @pytest.mark.parametrize("n, index, k", [(3, 1, 2), (2, 0, 1), (2, 3, 0), (1, 2, 2)])
    def test_the_shape_runs_its_predicates_in_filter_order(self, n, index, k):
        # one screen order: a tested tuple's first failing predicate is the
        # first failing verdict of its run_all report
        for profile in ALL_PROFILES:
            shape = _Shape(EnumerationQuery(n=n, index=index, k=k, profile=profile))
            screens = profile - shape.enforced - shape.cuts
            assert shape.predicates == tuple(_PREDICATES[f] for f in FILTER_ORDER if f in screens)


class TestIndexReduction:
    # Under UnitPrefix, with index >= 2 and k <= n, (n, index, k) and
    # (n - 1, index - 1, k) build the same shape but for one more unit in
    # the prefix, so prepending a unit weight maps the survivors of the
    # second one to one onto those of the first, and the walks agree.
    # index 1 would map to index 0, where FanoPositivity passes no tuple,
    # and k = n + 1 to an invalid query.

    def test_a_unit_weight_maps_the_survivors_one_to_one(self):
        profiles = [p for p in ALL_PROFILES if FilterId.UNIT_PREFIX in p]
        slices = [
            (n, index, k) for n in range(2, 5) for k in range(n + 1) for index in range(2, n + 3)
        ]
        assert (len(profiles), len(slices)) == (128, 50)
        mapped = 0
        # every other pair of the 6,400, so each profile and each slice is
        # sampled
        for p, profile in enumerate(profiles):
            for n, index, k in slices[p % 2 :: 2]:
                high, low = (
                    enumerate_candidates(EnumerationQuery(m, i, k, max_weight=5, profile=profile))
                    for m, i in ((n, index), (n - 1, index - 1))
                )
                assert tuple(hyperplane_section(c).after for c in high.survivors) == low.survivors
                assert high.stats == low.stats
                assert high.cap_touched is low.cap_touched
                assert high.prefix_infeasible is low.prefix_infeasible
                mapped += len(high.survivors)
        assert mapped > 10_000


class TestDegreeCuts:
    # A profile without GcdCover and LinearCone walks the uncut search:
    # the pinned {UnitPrefix, Deltas} row of test_search_counts_are_pinned
    # (944 nodes, 330 tested) keeps its counts from before the cuts.

    @pytest.mark.parametrize(
        "n, index, k, cap", [(3, 1, 2, 4), (2, 1, 3, 4), (2, 1, 1, 5), (2, 1, 2, 5)]
    )
    def test_cut_search_equals_the_grid_for_every_profile(self, monkeypatch, n, index, k, cap):
        # GcdCover and LinearCone cut the degree search when the profile
        # holds them and are then not re-run, so every tested tuple must
        # pass them; no profile may lose or gain a survivor by the cuts or
        # by the degree-sum bound, which stops the degree walk at every
        # k >= 2 row
        test = wcifano.enumerator._Walk.test
        fit = wcifano.enumerator._slots_fit
        checked: list[int] = []
        skipped: list[bool] = []

        def checking_test(walk, weights, ds):
            assert run_all(Candidate(weights, ds), walk.shape.cuts).survives
            checked.append(len(walk.shape.cuts))
            test(walk, weights, ds)

        def recording_fit(*args):
            fits = fit(*args)
            skipped.append(not fits)
            return fits

        monkeypatch.setattr(wcifano.enumerator._Walk, "test", checking_test)
        monkeypatch.setattr(wcifano.enumerator, "_slots_fit", recording_fit)
        tested = {}
        for profile in ALL_PROFILES:
            q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=profile)
            result = enumerate_candidates(q)
            assert result.survivors == naive_survivors(n, index, k, cap, profile)
            tested[profile] = result.stats.tested
        # the cuts bite: most profiles with a cut screen test fewer tuples
        # than the same profile without GcdCover and LinearCone
        cut_screens = {FilterId.GCD_COVER, FilterId.LINEAR_CONE}
        bitten = [p for p in ALL_PROFILES if tested[p] < tested[p - cut_screens]]
        assert len(bitten) >= 128
        assert any(checked)
        assert any(skipped) is (k >= 2)

    def test_every_tested_tuple_survives_the_smooth_fano_profile(self):
        result = enumerate_candidates(EnumerationQuery(n=5, index=1, k=3, max_weight=12))
        assert result.stats.tested == len(result.survivors) == 3

    def test_ambient_middles_are_bounded_by_the_index_sum(self):
        # at k = 0 each middle is at most an equal share of what the index
        # leaves, and the last is forced: 2,475 nodes for 1,115 partitions
        q = EnumerationQuery(n=4, index=40, k=0, max_weight=40, profile=frozenset())
        result = enumerate_candidates(q)
        assert len(result.survivors) == len(list(sorted_partitions(40, 5))) == 1115
        assert result.stats == SearchStats(nodes=2475, tested=1115)


class TestDegreeSumBound:
    # _slots_fit stops the degree walk before a slot when the floors of
    # the slots left, or the least unbanned multiples their GcdCover
    # classes need, exceed the degree sum left; _tails_fit asks the
    # classes of a tail prefix that only the last degree can serve to
    # share that degree.

    @staticmethod
    def degree_walk(floors, total, min_last, pending, banned, pruned=False):
        """The walk's degree tuples; unless pruned, with _slots_fit off, as a reference."""
        walk = _Walk(_Shape(EnumerationQuery(n=1, index=0, k=1)))
        if pruned:
            return list(walk.degrees(floors, total, min_last, pending, banned))
        with mock.patch.object(wcifano.enumerator, "_slots_fit", lambda *args: True):
            return list(walk.degrees(floors, total, min_last, pending, banned))

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_a_skipped_vector_has_no_degree_tuple(self, data):
        # the reference walk never calls _slots_fit, so a bound that
        # rejects too much cannot empty it as well
        k = data.draw(st.integers(2, 4))
        floors = tuple(data.draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)))
        total = data.draw(st.integers(0, 24))
        min_last = data.draw(st.integers(1, 6))
        pending = tuple(
            data.draw(st.dictionaries(st.integers(2, 7), st.integers(1, k), max_size=3)).items()
        )
        banned = tuple(data.draw(st.lists(st.integers(1, 30), max_size=6)))
        # the degree placed before these slots, 0 before the first
        prev = data.draw(st.integers(0, 34))
        ds = self.degree_walk(floors, total, min_last, pending, banned)
        if not _slots_fit(floors, total, min_last, pending, banned, prev):
            assert [d for d in ds if d[0] >= prev] == []
        # the walk's own pruning keeps every tuple of the reference
        assert self.degree_walk(floors, total, min_last, pending, banned, pruned=True) == ds

    @staticmethod
    def prefix_fits(k, middles, tails, total, tail_hi, bans):
        """The walk's test of its tail prefix middles + tails (None: the weight cut skips it)."""
        weights = middles + tails
        classes = TestWeightStageCut.class_counts(weights, k)
        if classes is None:
            return None
        banned = weights if bans else ()
        return _tails_fit(tails, total, classes.items(), banned, k, tail_hi)

    @classmethod
    def live_completions(cls, k, middles, tails, total, tail_hi, bans):
        """The non-decreasing completions of tails up to tail_hi that have a degree tuple."""
        live = []
        for rest in sorted_tuples(k - len(tails), (middles + tails)[-1], tail_hi):
            weights = middles + tails + rest
            classes = TestWeightStageCut.class_counts(weights, k)
            if classes is None:
                continue  # the weight cut skips it before its degrees
            floors = tails + rest
            banned = weights if bans else ()
            if cls.degree_walk(floors, total, floors[-1], tuple(classes.items()), banned):
                live.append(rest)
        return live

    @staticmethod
    def draw_middles(data):
        """k, the middles, the top tail, the excess total and whether weights are banned."""
        k = data.draw(st.integers(1, 4))
        middles = tuple(sorted(data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))))
        # LastWeight bounds the tails by total - k + 1, the cap may cut lower
        tail_hi = data.draw(st.integers(middles[-1], 10))
        total = data.draw(st.integers(tail_hi + k - 1, tail_hi + k + 4))
        return k, middles, tail_hi, total, data.draw(st.booleans())

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_a_skipped_tail_prefix_has_no_completion(self, data):
        # tail prefixes under LastWeight: middles, then the first tails,
        # with the class counts and the bans of the weights so far; when
        # the bound rejects the prefix, no completion of its tails has a
        # degree tuple.  The walk checks them at k >= 2; at k = 1 the one
        # tail is the whole prefix, and the bound must hold there too.
        k, middles, tail_hi, total, bans = self.draw_middles(data)
        placed = data.draw(st.integers(1, k))
        tail = st.integers(middles[-1], tail_hi)
        tails = tuple(sorted(data.draw(st.lists(tail, min_size=placed, max_size=placed))))
        fits = self.prefix_fits(k, middles, tails, total, tail_hi, bans)
        assume(fits is not None)
        if not fits:
            assert self.live_completions(k, middles, tails, total, tail_hi, bans) == []

    def test_no_small_tail_prefix_is_skipped_wrongly(self):
        # every tail prefix at k 1..3 after one middle up to 5, tails up
        # to 7 and the total up to 3 above its least: an off-by-one in
        # either window or a first window that starts at the last tail
        # placed would skip a live prefix here
        rejected = 0
        for k, middle, bans in itertools.product((1, 2, 3), range(1, 6), (False, True)):
            for tail_hi, placed in itertools.product(range(middle, 8), range(1, k + 1)):
                for total, tails in itertools.product(
                    range(tail_hi + k - 1, tail_hi + k + 3), sorted_tuples(placed, middle, tail_hi)
                ):
                    case = (k, (middle,), tails, total, tail_hi, bans)
                    if self.prefix_fits(*case) is False:
                        rejected += 1
                        assert self.live_completions(*case) == [], case
        assert rejected > 1000

    def test_the_bound_skips_vectors_and_only_saves_nodes(self, monkeypatch):
        # at (5, 1, 3, 12) without LinearCone, where the cap bounds the
        # two middles, the bound rejects tail prefixes and the degree
        # slack stops the degree walk, on whole vectors and where the
        # classes fit the slots left but not the degree sum: the walk
        # places 919 nodes, 1,627 without the slack, 2,092 without the
        # bound and 3,701 with neither, for the same tested tuples,
        # survivors and cap flag
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=12, profile=NO_CONE)
        tails_fit, slots_fit = wcifano.enumerator._tails_fit, wcifano.enumerator._slots_fit
        prefixes, skipped = [], []

        def recording_tails_fit(tails, total, classes, banned, k, tail_hi):
            fits = tails_fit(tails, total, classes, banned, k, tail_hi)
            if not fits:
                prefixes.append(tails)
            return fits

        def recording_slots_fit(floors, total, min_last, pending, banned, prev):
            fits = slots_fit(floors, total, min_last, pending, banned, prev)
            if not fits and slots_fit(floors, total, min_last, (), banned, prev):
                skipped.append(floors)
            return fits

        monkeypatch.setattr(wcifano.enumerator, "_tails_fit", recording_tails_fit)
        monkeypatch.setattr(wcifano.enumerator, "_slots_fit", recording_slots_fit)
        bounded = enumerate_candidates(q)
        assert skipped
        assert any(len(tails) < q.k for tails in prefixes)
        monkeypatch.setattr(wcifano.enumerator, "_slots_fit", lambda *args: True)
        no_slack = enumerate_candidates(q)
        monkeypatch.setattr(wcifano.enumerator, "_tails_fit", lambda *args: True)
        neither = enumerate_candidates(q)
        monkeypatch.setattr(wcifano.enumerator, "_slots_fit", slots_fit)
        no_bound = enumerate_candidates(q)
        results = (bounded, no_slack, no_bound, neither)
        assert len({r.survivors for r in results}) == 1
        assert {r.cap_touched for r in results} == {True}
        assert bounded.stats == SearchStats(nodes=919, tested=8)
        assert no_slack.stats == SearchStats(nodes=1627, tested=8)
        assert no_bound.stats == SearchStats(nodes=2092, tested=8)
        assert neither.stats == SearchStats(nodes=3701, tested=8)

    @pytest.mark.parametrize(
        "n, index, k, cap, nodes, tested",
        [(5, 1, 3, 20, 4307, 8), (6, 1, 4, 20, 14496, 16)],
        ids=["n5i1k3c20", "n6i1k4c20"],
    )
    def test_survey_slices_keep_the_cut(self, n, index, k, cap, nodes, tested):
        # without LinearCone the cap bounds the survey slices' two middles,
        # and they place few nodes once the bound cuts tail prefixes; a
        # search that loses the cut places many times more (36,392 and
        # 200,927 nodes without _tails_fit and _slots_fit)
        q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=NO_CONE)
        result = enumerate_candidates(q)
        assert result.stats == SearchStats(nodes=nodes, tested=tested)
        assert len(result.survivors) == tested
        assert result.cap_touched is True


class TestWeightStageCut:
    # With GcdCover among the cuts, the walk carries each
    # vector's class counts (gcd g -> weights g divides) along the weights
    # it places, and places no weight that gives a class more than k
    # members.

    @staticmethod
    def expected_counts(weights):
        return [(g, sum(1 for a in weights if a % g == 0)) for g in _class_generators(weights)]

    @staticmethod
    def class_counts(weights, k):
        classes = {}
        for p in range(1, len(weights) + 1):
            classes = _grow_classes(classes, weights[:p], k)
            if classes is None:
                return None
        return classes

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_counts_built_weight_by_weight_equal_the_classes(self, weights):
        # The class step does not need sorted weights: the order drawn is
        # one more input.
        for ws in (tuple(weights), tuple(sorted(weights))):
            classes: dict[int, int] = {}
            for p in range(1, len(ws) + 1):
                # no class has more members than there are weights: no cut
                grown = _grow_classes(classes, ws[:p], len(ws))
                assert sorted(grown.items()) == self.expected_counts(ws[:p])
                # the weight leaves the count of every class it does not divide
                assert all(grown[g] == c for g, c in classes.items() if ws[p - 1] % g)
                classes = grown

    @given(
        st.lists(st.integers(1, 60), min_size=1, max_size=10),
        st.integers(0, 6),
        st.lists(st.integers(1, 60), max_size=4),
        st.lists(st.one_of(st.just(None), st.integers(1, 240)), min_size=6, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_fired_cut_has_no_surviving_extension(self, weights, k, extension, degrees):
        weights = tuple(sorted(weights))
        for p in range(1, len(weights) + 1):
            prefix = weights[:p]
            fired = self.class_counts(prefix, k) is None
            assert fired == any(required > k for _, required in self.expected_counts(prefix))
            if fired:
                # None stands for the lcm of the weights, which every class
                # gcd divides: the degree that serves the most classes
                extended = tuple(sorted(prefix + tuple(extension)))
                ds = sorted(lcm(*extended) if d is None else d for d in degrees[:k])
                assert not gcd_cover_ok(Candidate(extended, tuple(ds))).passed

    def test_cut_fires_and_the_walk_equals_the_grid_for_every_profile(self, monkeypatch):
        grow = wcifano.enumerator._grow_classes
        cut: list[tuple[int, ...]] = []

        def recording_grow(classes, placed, k):
            grown = grow(classes, placed, k)
            if grown is None:
                cut.append(placed)
            return grown

        monkeypatch.setattr(wcifano.enumerator, "_grow_classes", recording_grow)
        n, index, k, cap = 2, 0, 2, 4
        for profile in ALL_PROFILES:
            q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=profile)
            cut.clear()
            assert enumerate_candidates(q).survivors == naive_survivors(n, index, k, cap, profile)
            if profile == CALABI_YAU_PROFILE:
                # its shape has one middle weight and two tails, so every
                # cut falls on a tail
                assert cut


@pytest.fixture
def fork_at_once(monkeypatch):
    """The caller forks its helpers before its first task, however short the search."""
    monkeypatch.setattr(wcifano.enumerator, "_FORK_WORK_S", 0)


def task_clock(monkeypatch, durations):
    """A clock under which the caller's task j takes durations[j] seconds inline."""
    ends = list(itertools.accumulate(durations))
    readings = iter(t for end, d in zip(ends, durations) for t in (end - d, end))
    monkeypatch.setattr(wcifano.enumerator, "perf_counter", lambda: next(readings))


DOUBLING = [2**j for j in range(10)]


class TestDeterminism:
    def test_worker_counts_agree_exactly(self, fork_at_once):
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=12)
        single = enumerate_candidates(q, workers=1)
        multi = enumerate_candidates(q, workers=4)
        assert single == multi  # survivors, flags and stats all included

    def test_worker_counts_agree_without_the_unit_prefix_structure(self, fork_at_once):
        # profiles without UnitPrefix and Deltas are split into tasks too
        profile = SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS}
        q = EnumerationQuery(n=3, index=1, k=1, max_weight=8, profile=profile)
        assert enumerate_candidates(q, workers=1) == enumerate_candidates(q, workers=2)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # every search goes through _split, which records its size here (the
        # one-worker reference run records 1); a split that shares its tasks
        # runs them inline, so forks no process
        sizes: list[int] = []
        split = wcifano.enumerator._split

        def recording_split(shape, keys, size):
            sizes.append(size)
            return split(shape, keys, size)

        monkeypatch.setattr(wcifano.enumerator, "_split", recording_split)
        monkeypatch.setattr(wcifano._forked, "_share", lambda run, keys, size: map(run, keys))
        return sizes

    def test_pool_is_clamped_to_the_task_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        q = EnumerationQuery(n=5, index=1, k=2, max_weight=10)
        assert enumerate_candidates(q, workers=5000) == enumerate_candidates(q)
        assert pool_sizes == [10, 1]

    @pytest.mark.parametrize("cpus, sizes", [(3, [3, 1]), (1, [1, 1])])
    def test_pool_is_clamped_to_the_usable_cpus(self, monkeypatch, pool_sizes, cpus, sizes):
        # ten tasks (the first of three middles, up to the cap) on three
        # usable CPUs get three workers; on one CPU the tasks run inline,
        # and the fork code is not even loaded, although the caller would
        # fork before its first task if it could
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        if cpus == 1:
            monkeypatch.setattr(wcifano.enumerator, "_FORK_WORK_S", 0)
            monkeypatch.setitem(sys.modules, "wcifano._forked", None)
        q = EnumerationQuery(n=5, index=1, k=2, max_weight=10)
        assert enumerate_candidates(q, workers=5000) == enumerate_candidates(q)
        assert pool_sizes == sizes

    def test_the_cpu_count_stands_in_without_an_affinity_mask(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        q = EnumerationQuery(n=5, index=1, k=2, max_weight=10)
        assert enumerate_candidates(q, workers=5000) == enumerate_candidates(q)
        assert pool_sizes == [3, 1]

    @pytest.mark.parametrize(
        "durations, work, shared",
        [
            (DOUBLING, 9, [((2, 3, 4, 5, 6, 7, 8, 9, 10), 3)]),
            (DOUBLING, 60, [((9, 10), 2)]),
            (DOUBLING, 64, []),
            ([1] * 8 + [100, 1], 10, []),
        ],
        ids=["nine-left", "two-left", "never", "one-left"],
    )
    def test_helpers_are_forked_once_the_work_left_repays_them(
        self, monkeypatch, durations, work, shared
    ):
        # before task j the caller predicts the mean of its j task times
        # times the 10 - j tasks left.  When task j takes 2 ** j seconds
        # that is 9 s before task 1 and grows to 63.75 s before task 8, the
        # last with two tasks left; with one long task 8 it is 12 s before
        # task 9, but one task left is run alone.  The caller shares the
        # tasks left once the prediction reaches work, with no more helpers
        # than tasks.
        # the one-worker reference reads the clock too, so it runs first;
        # (5, 1, 2) has three middles, so cap 10 gives ten tasks
        single = enumerate_candidates(EnumerationQuery(n=5, index=1, k=2, max_weight=10))
        task_clock(monkeypatch, durations)
        monkeypatch.setattr(wcifano.enumerator, "_FORK_WORK_S", work)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        calls = []

        def inline_share(run, keys, size):
            calls.append((tuple(keys), size))
            return (run(key) for key in keys)

        monkeypatch.setattr(wcifano._forked, "_share", inline_share)
        q = EnumerationQuery(n=5, index=1, k=2, max_weight=10)
        assert enumerate_candidates(q, workers=3) == single
        assert calls == shared

    def test_repeat_runs_agree(self):
        q = EnumerationQuery(n=4, index=1, k=2, max_weight=10)
        assert enumerate_candidates(q) == enumerate_candidates(q)


@pytest.mark.usefixtures("fork_at_once")
class TestSplit:
    """The forked split: the caller and its children claim tasks as they come free."""

    # without UnitPrefix, Deltas and GcdCover every weight is a middle, and
    # the survivors come from five tasks, one per first weight
    SPREAD = EnumerationQuery(
        n=2,
        index=1,
        k=2,
        max_weight=6,
        profile=SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS, FilterId.GCD_COVER},
    )

    @pytest.fixture
    def in_children(self, monkeypatch):
        """Patch _task so that a child runs child_task(task, shape, key) in its place.

        The caller's first task after it forks waits (up to 10 s) until a
        child has started a task, so that children run some tasks however
        fast the caller is; a child that starts one writes to the gate pipe.
        """
        caller = os.getpid()
        gate_r, gate_w = os.pipe()
        task = wcifano.enumerator._task
        fork = wcifano._forked._fork
        forked = []
        waited = []

        def forking(*args):
            forked.append(True)
            return fork(*args)

        def patch(child_task):
            def patched(shape, first_middle):
                if os.getpid() != caller:
                    os.write(gate_w, b"x")
                    return child_task(task, shape, first_middle)
                if forked and not waited:
                    waited.append(select.select([gate_r], [], [], 10))
                return task(shape, first_middle)

            monkeypatch.setattr(wcifano.enumerator, "_task", patched)
            monkeypatch.setattr(wcifano._forked, "_fork", forking)

        yield patch
        assert select.select([gate_r], [], [], 0)[0] == [gate_r], "no child ran a task"
        os.close(gate_r)
        os.close(gate_w)
        # every child was reaped, whatever ended the search
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_equal_the_one_worker_result(self, in_children, workers):
        single = enumerate_candidates(self.SPREAD)
        assert len({c.weights[0] for c in single.survivors}) == 5
        in_children(lambda task, shape, key: task(shape, key))
        assert enumerate_candidates(self.SPREAD, workers=workers) == single

    def test_helpers_forked_after_inline_tasks_keep_the_one_worker_order(
        self, monkeypatch, in_children
    ):
        # task j takes 2 ** j seconds inline, so the caller predicts 5 s left
        # before task 1 and 6 s before task 2: it runs tasks 0 and 1, whose
        # survivors reach the sink first, then forks for the four left
        seen_single: list[Candidate] = []
        single = enumerate_streaming(self.SPREAD, seen_single.append)
        task_clock(monkeypatch, DOUBLING)
        monkeypatch.setattr(wcifano.enumerator, "_FORK_WORK_S", 6)
        shared = []
        share = wcifano._forked._share

        def recording_share(run, keys, size):
            shared.append((tuple(keys), size))
            return share(run, keys, size)

        monkeypatch.setattr(wcifano._forked, "_share", recording_share)
        in_children(lambda task, shape, key: task(shape, key))
        seen: list[Candidate] = []
        assert enumerate_streaming(self.SPREAD, seen.append, workers=2) == single
        assert seen == seen_single
        assert shared == [((3, 4, 5, 6), 2)]

    def test_a_task_error_in_a_child_is_raised_in_the_caller(self, in_children):
        def failing(task, shape, key):
            raise ZeroDivisionError(f"task {key}")

        in_children(failing)
        with pytest.raises(ZeroDivisionError, match="task"):
            enumerate_candidates(self.SPREAD, workers=2)

    def test_a_sink_that_raises_kills_the_busy_children(self, in_children):
        # a child's second task would sleep for a minute, so the test
        # ends fast only if the children are killed, not waited for
        ran = []

        def slow_after_the_first(task, shape, key):
            if ran:
                time.sleep(60)
            ran.append(key)
            return task(shape, key)

        def sink(c):
            raise KeyError("stop")

        in_children(slow_after_the_first)
        start = time.monotonic()
        with pytest.raises(KeyError):
            enumerate_streaming(self.SPREAD, sink, workers=3)
        assert time.monotonic() - start < 30

    def test_a_child_that_dies_is_named_with_its_exit_status(self, in_children):
        in_children(lambda task, shape, key: os._exit(7))
        with pytest.raises(RuntimeError, match="exit status 7"):
            enumerate_candidates(self.SPREAD, workers=2)

    def test_without_fork_the_search_runs_inline(self, monkeypatch):
        # _split runs it at size 1, which loads no fork code, though the
        # caller would fork before its first task if it could
        monkeypatch.delattr(os, "fork")
        monkeypatch.setitem(sys.modules, "wcifano._forked", None)
        assert enumerate_candidates(self.SPREAD, workers=3) == enumerate_candidates(self.SPREAD)


class TestStreaming:
    def test_sink_sees_survivors_in_canonical_order(self):
        q = EnumerationQuery(n=4, index=2, k=2, max_weight=10)
        seen: list[Candidate] = []
        result = enumerate_streaming(q, seen.append)
        assert tuple(seen) == result.survivors
        assert seen == sorted(seen, key=canonical_key)
        assert len(set(seen)) == len(seen)

    def test_sink_sees_survivors_with_workers(self, fork_at_once):
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=10)
        seen: list[Candidate] = []
        result = enumerate_streaming(q, seen.append, workers=3)
        assert tuple(seen) == result.survivors
        # nothing sorts the merged survivors: the tasks and the walks find
        # them in canonical order
        assert seen == sorted(seen, key=canonical_key)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_survivors_are_canonical_without_the_unit_prefix_structure(
        self, fork_at_once, workers
    ):
        # without UnitPrefix and Deltas every weight is a middle; here the
        # survivors come from five tasks, one per first weight
        profile = SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS, FilterId.GCD_COVER}
        q = EnumerationQuery(n=2, index=1, k=2, max_weight=6, profile=profile)
        survivors = list(enumerate_candidates(q, workers=workers).survivors)
        assert len(survivors) == 451
        assert {c.weights[0] for c in survivors} == {1, 2, 3, 4, 5}
        assert survivors == sorted(survivors, key=canonical_key)

    def test_sink_runs_before_the_last_task(self, monkeypatch):
        # (5, 1, 2) has three middle weights, which the middle bound does
        # not reach, so cap 10 gives ten tasks, one per first middle weight;
        # every survivor has first middle 1.
        started: list[int] = []
        task = wcifano.enumerator._task

        def counting_task(shape, first_middle):
            started.append(first_middle)
            return task(shape, first_middle)

        monkeypatch.setattr(wcifano.enumerator, "_task", counting_task)
        tasks_started_at_sink: list[int] = []
        q = EnumerationQuery(n=5, index=1, k=2, max_weight=10)
        result = enumerate_streaming(q, lambda c: tasks_started_at_sink.append(len(started)))
        assert len(started) == 10
        assert len(tasks_started_at_sink) == len(result.survivors) == 6
        assert tasks_started_at_sink[0] == 1


class TestCapMonotonicity:
    @pytest.mark.parametrize(
        "n, index, k, caps",
        [
            (3, 1, 2, (4, 6, 9)),
            (4, 2, 1, (5, 12, 30)),
            (5, 1, 3, (7, 10, 12)),
        ],
    )
    def test_survivors_grow_with_cap(self, n, index, k, caps):
        previous: set[Candidate] = set()
        for cap in caps:
            q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap)
            current = set(enumerate_candidates(q).survivors)
            assert previous <= current
            previous = current


class TestAgainstNaiveGrid:
    @pytest.mark.parametrize(
        "n, index, k, cap, profile",
        [
            (2, 1, 1, 6, SMOOTH_FANO_PROFILE),
            (3, 2, 2, 5, SMOOTH_FANO_PROFILE),
            (2, 0, 1, 5, CALABI_YAU_PROFILE),
            (1, 1, 2, 6, SMOOTH_FANO_PROFILE),
            (
                2,
                1,
                1,
                5,
                SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS},
            ),
        ],
    )
    def test_matches_reference_enumeration(self, n, index, k, cap, profile):
        q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=profile)
        assert enumerate_candidates(q).survivors == naive_survivors(n, index, k, cap, profile)

    @pytest.mark.parametrize("n, k, cap", [(1, 0, 5), (1, 1, 5), (1, 2, 5), (2, 1, 4), (3, 2, 3)])
    def test_index_zero_matches_the_grid_for_every_profile(self, n, k, cap):
        for profile in ALL_PROFILES:
            q = EnumerationQuery(n=n, index=0, k=k, max_weight=cap, profile=profile)
            assert enumerate_candidates(q).survivors == naive_survivors(n, 0, k, cap, profile)

    @pytest.mark.parametrize(
        "n, index, k, cap", [(1, 0, 1, 5), (2, 1, 1, 4), (1, 2, 2, 4), (2, 3, 0, 4), (1, 3, 1, 4)]
    )
    def test_the_cells_agree_with_the_per_profile_grid(self, n, index, k, cap):
        # one run_all per grid tuple under the full profile serves every
        # profile: the cells hold the whole grid, and the survivors they
        # give equal those of a run_all under each profile itself
        grid = [
            (ws, ds)
            for ws in sorted_tuples(n + k + 1, 1, cap)
            for ds in sorted_partitions(sum(ws) - index, k)
        ]
        cells = grid_cells(n, index, k, cap)
        assert sorted((c.weights, c.degrees) for c, _ in cells) == grid
        for profile in ALL_PROFILES:
            per_profile = naive_survivors_per_profile(n, index, k, cap, profile)
            assert naive_survivors(n, index, k, cap, profile) == per_profile

    @pytest.mark.parametrize("n, index, k, cap", [(3, 0, 2, 6), (3, 0, 3, 5), (4, 0, 2, 5)])
    def test_matches_reference_where_the_tail_prefix_bound_fires(
        self, monkeypatch, n, index, k, cap
    ):
        # k >= 2 slices where the degree-sum bound rejects tail prefixes
        # short of the last tail
        fit = wcifano.enumerator._tails_fit
        q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=CALABI_YAU_PROFILE)
        rejected: list[tuple[int, ...]] = []

        def recording_fit(tails, total, classes, banned, k, tail_hi):
            fits = fit(tails, total, classes, banned, k, tail_hi)
            if not fits and len(tails) < k:
                rejected.append(tails)
            return fits

        monkeypatch.setattr(wcifano.enumerator, "_tails_fit", recording_fit)
        survivors = enumerate_candidates(q).survivors
        assert rejected
        assert survivors == naive_survivors(n, index, k, cap, CALABI_YAU_PROFILE)


class TestUnitPrefixLemma:
    """The paper's lemma, a_{k+index-1} = 1, as a property of the other screens.

    Without the UnitPrefix screen every survivor of the remaining
    smooth-Fano (index >= 1) or Calabi-Yau (index 0) screens still has
    k + index unit weights, so the screen removes nothing.  Checked on
    n 1..3, k 1..n+1, index 0..n+1, and only up to the weight cap.
    """

    SLICES = [(n, index, k) for n in range(1, 4) for k in range(1, n + 2) for index in range(n + 2)]

    @pytest.mark.parametrize("search, cap", [("enumerator", 8), ("grid", 4)])
    def test_survivors_have_the_unit_prefix_up_to_the_cap(self, search, cap):
        found = 0
        for n, index, k in self.SLICES:
            profile = SMOOTH_FANO_PROFILE if index >= 1 else CALABI_YAU_PROFILE
            without = profile - {FilterId.UNIT_PREFIX}
            if search == "enumerator":
                q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=without)
                survivors = enumerate_candidates(q).survivors
            else:
                survivors = naive_survivors(n, index, k, cap, without)
            for c in survivors:
                assert c.weights.count(1) >= k + index, c
            q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=profile)
            assert survivors == enumerate_candidates(q).survivors
            found += len(survivors)
        assert found == {"enumerator": 36, "grid": 35}[search]


class TestWeightBound:
    """At k = 1 no survivor has a weight above max(1, n + 2 - index).

    It holds under GcdCover with any one of LinearCone, Deltas and
    LastWeight (the proof is in _Shape's docstring), so the walk stops
    every range there and does not touch a cap at or above it.  Checked
    against the grid oracle at caps 2 above the bound, on n 1..4 and
    index 0..n+1 for the bound and n 1..3 for the walk.  The middle
    bound (no middle above 2, with one middle at k >= 1 or two at k >=
    2, under UnitPrefix, Deltas, LastWeight, GcdCover and LinearCone) is
    checked against the grid at cap 5 and, for two middles, against the
    screens' predicates with the larger middle up to 8.
    """

    BANS_TOP = (FilterId.LINEAR_CONE, FilterId.DELTAS, FilterId.LAST_WEIGHT)

    @staticmethod
    def bound(n: int, index: int) -> int:
        return max(1, n + 2 - index)

    def test_no_survivor_lies_above_the_bound(self):
        found = at_bound = 0
        for n in range(1, 5):
            for index, screen in itertools.product(range(n + 2), self.BANS_TOP):
                bound = self.bound(n, index)
                profile = frozenset({FilterId.GCD_COVER, screen})
                for c in naive_survivors(n, index, 1, bound + 2, profile):
                    assert max(c.weights) <= bound, (c, profile)
                    found += 1
                    at_bound += max(c.weights) == bound
        assert (found, at_bound) == (96, 18)

    @pytest.mark.parametrize("cap", [3, 6])
    def test_gcd_cover_alone_leaves_the_linear_cones(self, cap):
        # (1, 1, t; t) has index 2 and one class t that its degree serves,
        # so without a screen that bans d = a_N it survives above the bound 1
        survivors = naive_survivors(1, 2, 1, cap, frozenset({FilterId.GCD_COVER}))
        assert Candidate((1, 1, cap), (cap,)) in survivors
        assert self.bound(1, 2) == 1

    def test_the_walk_equals_the_grid_without_touching_the_cap(self):
        profiles = [
            p for p in ALL_PROFILES if FilterId.GCD_COVER in p and p.intersection(self.BANS_TOP)
        ]
        assert len(profiles) == 112
        assert SMOOTH_FANO_PROFILE - {FilterId.LAST_WEIGHT} in profiles
        found = 0
        for n in range(1, 4):
            for index in range(n + 2):
                cap = self.bound(n, index) + 2
                for profile in profiles:
                    q = EnumerationQuery(n=n, index=index, k=1, max_weight=cap, profile=profile)
                    result = enumerate_candidates(q)
                    assert _Shape(q).weight_bound == self.bound(n, index)
                    assert result.survivors == naive_survivors(n, index, 1, cap, profile)
                    assert result.cap_touched is False, (n, index, profile)
                    found += len(result.survivors)
        assert found == 1736

    @pytest.mark.parametrize(
        "n, index, cap, nodes, tested, uncut",
        [(3, 1, 100, 17, 2, 27563), (4, 1, 30, 42, 4, 4788)],
    )
    def test_hypersurface_slices_end_at_the_bound(
        self, monkeypatch, n, index, cap, nodes, tested, uncut
    ):
        # no weight is walked above n + 2 - index (4 and 5 here), so the
        # cap is not touched; with the weight bound dropped from every
        # range, the cap bounds the middles and the tail instead
        q = EnumerationQuery(n=n, index=index, k=1, max_weight=cap)
        result = enumerate_candidates(q)
        assert result.stats == SearchStats(nodes, tested)
        assert len(result.survivors) == tested
        assert result.cap_touched is False
        capped = wcifano.enumerator._capped
        # the first bound set is the middle bound or LastWeight's on the tail
        monkeypatch.setattr(wcifano.enumerator, "_capped", lambda c, *b: capped(c, *b[:1]))
        unbounded = enumerate_candidates(q)
        assert unbounded.survivors == result.survivors
        assert unbounded.stats == SearchStats(uncut, tested)
        assert unbounded.cap_touched is True

    def test_one_middle_lies_at_most_at_two(self):
        # the middle bound (proof in _Shape's docstring): under its hypothesis,
        # on every slice with one middle (n = index + k), no grid survivor has
        # its middle above 2, and the walk equals the grid without touching
        # the cap
        cap = 5
        middles = []
        for n in range(1, 5):
            for k in range(1, n + 1):
                index = n - k
                q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=FIVE_SCREENS)
                assert (_Shape(q).middles, _Shape(q).middle_bound) == (1, 2)
                survivors = naive_survivors(n, index, k, cap, FIVE_SCREENS)
                middles += [c.weights[k + index] for c in survivors]
                result = enumerate_candidates(q)
                assert result.survivors == survivors
                assert result.cap_touched is False, (n, index, k)
        assert max(middles) == 2
        assert (len(middles), middles.count(2)) == (18, 4)

    def test_two_middles_lie_at_most_at_two(self):
        # the middle bound with two middles (proof in _Shape's docstring):
        # under its hypothesis, on every slice with two middles at k >= 2
        # (n = index + k + 1), no grid survivor has a middle above 2, and
        # the walk equals the grid without touching the cap
        cap = 5
        middles = []
        for n in range(1, 5):
            for k in range(2, n):
                index = n - k - 1
                q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=FIVE_SCREENS)
                assert (_Shape(q).middles, _Shape(q).middle_bound) == (2, 2)
                survivors = naive_survivors(n, index, k, cap, FIVE_SCREENS)
                middles += [c.weights[k + index : k + index + 2] for c in survivors]
                result = enumerate_candidates(q)
                assert result.survivors == survivors
                assert result.cap_touched is False, (n, index, k)
        assert max(b for a, b in middles) == 2
        assert (len(middles), [b for a, b in middles].count(2)) == (17, 4)

    def test_no_two_middle_tuple_above_two_passes_the_screens(self):
        # past any cap, by the screens' own predicates: every tuple of the
        # two-middle shape at index 1 and k 2..4 with b <= 8, that is k + 1
        # units, middles a <= b, tails b <= t_1 <= ... <= t_k = T and
        # excesses e_j >= 1 summing to k + a + b with e_k >= T (LastWeight,
        # so T <= a + b + 1), each degree d_j = t_j + e_j.  Normalized and
        # the five screens of the hypothesis pass none with b >= 3, and those
        # with b <= 2 are the walk's survivors
        screens = FIVE_SCREENS | {FilterId.NORMALIZED}
        predicates = [_PREDICATES[f] for f in FILTER_ORDER if f in screens]
        tried = survivors = 0
        for k in range(2, 5):
            found = []
            for b in range(1, 9):
                for a in range(1, b + 1):
                    s = a + b
                    for tails in sorted_tuples(k, b, s + 1):
                        weights = (1,) * (k + 1) + (a, b) + tails
                        slack = s + 1 - tails[-1]
                        for head in itertools.product(range(1, slack + 2), repeat=k - 1):
                            if sum(head) - (k - 1) > slack:
                                continue
                            excesses = head + (k + s - sum(head),)
                            degrees = tuple(t + e for t, e in zip(tails, excesses))
                            tried += 1
                            if all(p(weights, degrees) is None for p in predicates):
                                found.append(Candidate(weights, degrees))
            assert all(c.weights[k + 2] <= 2 for c in found)
            q = EnumerationQuery(n=k + 2, index=1, k=k, max_weight=8, profile=FIVE_SCREENS)
            assert enumerate_candidates(q).survivors == tuple(sorted(found, key=canonical_key))
            survivors += len(found)
        assert (tried, survivors) == (61870, 13)

    @pytest.mark.parametrize(
        "n, index, k, cap, nodes, tested",
        [(5, 1, 3, 20, 54, 3), (6, 1, 4, 20, 83, 3)],
        ids=["n5i1k3c20", "n6i1k4c20"],
    )
    def test_two_middle_slices_end_at_the_bound(self, n, index, k, cap, nodes, tested):
        # the survey slices walk no middle above 2 and so no tail above 5
        # (LastWeight), and touch no cap
        result = enumerate_candidates(EnumerationQuery(n=n, index=index, k=k, max_weight=cap))
        assert result.stats == SearchStats(nodes, tested)
        assert len(result.survivors) == tested
        assert result.cap_touched is False
        assert max(max(c.weights) for c in result.survivors) <= 5

    @pytest.mark.parametrize(
        "n, index, k", [(3, 1, 1), (2, 0, 1), (3, 1, 2), (3, 1, 0), (4, 1, 2), (5, 1, 2)]
    )
    def test_no_bound_is_set_outside_its_hypothesis(self, n, index, k):
        # the weight bound only at k = 1, and only with GcdCover and one
        # screen that bans d = a_N; the middle bound only under its five
        # screens, with one middle at k >= 1 or two at k >= 2 (the middles
        # under UnitPrefix and Deltas are n + 1 - k - index)
        middles = n + 1 - k - index
        proved = middles == 1 and k >= 1 or middles == 2 and k >= 2
        for profile in ALL_PROFILES:
            held = k == 1 and FilterId.GCD_COVER in profile and profile & set(self.BANS_TOP)
            shape = _Shape(EnumerationQuery(n=n, index=index, k=k, profile=profile))
            assert shape.weight_bound == (self.bound(n, index) if held else None)
            assert shape.middle_bound == (2 if proved and FIVE_SCREENS <= profile else None)


class TestPruningHonesty:
    def test_middle_bound_is_conservative(self, monkeypatch):
        # disabling the single-middle closure bound must change no survivor,
        # only the cap_touched claim (the bound is what makes it exhaustive);
        # at k = 2, where no weight bound stands in for it
        q = EnumerationQuery(n=3, index=1, k=2, max_weight=50)
        bounded = enumerate_candidates(q)
        drop_middle_bound(monkeypatch)
        unbounded = enumerate_candidates(q)
        assert unbounded.survivors == bounded.survivors
        assert bounded.cap_touched is False
        assert unbounded.cap_touched is True

    def test_middle_bound_conservative_at_higher_dimension(self, monkeypatch):
        q = EnumerationQuery(n=6, index=4, k=2, max_weight=15)
        bounded = enumerate_candidates(q)
        drop_middle_bound(monkeypatch)
        unbounded = enumerate_candidates(q)
        assert unbounded.survivors == bounded.survivors
        assert bounded.cap_touched is False

    def test_without_closure_filters_cap_is_reported_touched(self):
        profile = frozenset({FilterId.UNIT_PREFIX, FilterId.DELTAS})
        result = enumerate_candidates(
            EnumerationQuery(n=2, index=1, k=1, max_weight=3, profile=profile)
        )
        # minimal structured profile: survivors are the raw prefix/excess
        # space (1, 1, m, t; m + t + 1) with 1 <= m <= t <= 3
        assert len(result.survivors) == 6
        for c in result.survivors:
            assert c.weights[:2] == (1, 1)
            assert fano_index(c) == 1
            assert c.degrees[0] > c.weights[-1]
        assert result.cap_touched is True


class TestAmbientOnlySlices:
    def test_projective_space_found_when_index_matches(self):
        result = enumerate_candidates(EnumerationQuery(n=2, index=3, k=0))
        assert result.survivors == (Candidate((1, 1, 1)),)
        assert result.cap_touched is False

    def test_empty_when_index_off_by_one(self):
        result = enumerate_candidates(EnumerationQuery(n=2, index=2, k=0))
        assert result.survivors == ()
        assert result.cap_touched is False

    def test_unstructured_ambient_counts_match_partitions(self):
        # with no screens at all, the k = 0 grid is exactly the partitions
        # of the index into n + 1 parts within the cap
        q = EnumerationQuery(n=2, index=9, k=0, max_weight=9, profile=frozenset())
        result = enumerate_candidates(q)
        expected = len(list(sorted_partitions(9, 3)))
        assert len(result.survivors) == expected == 7
        assert result.cap_touched is False

    def test_first_middles_the_class_counts_reject_place_nothing(self):
        # without UnitPrefix every weight is a middle; at k = 0 GcdCover
        # admits no class, so the tasks of first middles 2..4 (the equal
        # share 12 // 3) place nothing; only 1, 1 is placed, and the
        # forced 10 is not
        profile = frozenset({FilterId.GCD_COVER})
        q = EnumerationQuery(n=2, index=12, k=0, max_weight=20, profile=profile)
        result = enumerate_candidates(q)
        assert result.survivors == naive_survivors(2, 12, 0, 20, profile) == ()
        assert result.stats == SearchStats(nodes=2, tested=0)
        assert result.cap_touched is False

    @pytest.mark.parametrize(
        "n, index, cap, profile, tasks, survivors",
        [
            (2, 12, 20, frozenset({FilterId.GCD_COVER}), 4, 0),
            (3, 15, None, frozenset(), 3, 27),
            (4, 40, 40, frozenset(), 8, 1115),
        ],
    )
    def test_the_tasks_are_the_first_middles_up_to_the_equal_share(
        self, monkeypatch, n, index, cap, profile, tasks, survivors
    ):
        # at k = 0 without UnitPrefix every weight is a middle, and the
        # first is at most index // (n + 1), so a task above it would place
        # nothing; with no screens every partition of the index survives
        keys = []
        run_task = wcifano.enumerator._task

        def task(shape, first_middle):
            keys.append(first_middle)
            return run_task(shape, first_middle)

        monkeypatch.setattr(wcifano.enumerator, "_task", task)
        q = EnumerationQuery(n=n, index=index, k=0, max_weight=cap, profile=profile)
        result = enumerate_candidates(q)
        assert keys == list(range(1, index // (n + 1) + 1)) and len(keys) == tasks
        assert len(result.survivors) == survivors
        if not profile:
            assert survivors == len(list(sorted_partitions(index, n + 1)))

    def test_unstructured_ambient_cap_flag(self):
        q = EnumerationQuery(n=2, index=9, k=0, max_weight=2, profile=frozenset())
        result = enumerate_candidates(q)
        assert result.survivors == ()
        assert result.cap_touched is True
