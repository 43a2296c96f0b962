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
from grid_oracle import naive_survivors, sorted_partitions, sorted_tuples
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wcifano.core
import wcifano.enumerator
import wcifano.filters
from wcifano.core import Candidate, _class_generators, canonical_key, fano_index
from wcifano.enumerator import (
    CapTooSmall,
    EnumerationQuery,
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

    def test_rejects_bad_worker_count(self):
        q = EnumerationQuery(n=2, index=1, k=1)
        with pytest.raises(InvalidQuery):
            enumerate_streaming(q, lambda c: None, workers=0)


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
            (5, 1, 3, 12, SMOOTH_FANO_PROFILE, (453, 3, 3, True)),
            (4, 1, 1, 15, SMOOTH_FANO_PROFILE, (320, 4, 4, True)),
            (6, 4, 2, 15, SMOOTH_FANO_PROFILE, (12, 1, 1, False)),
            (2, 3, 0, None, SMOOTH_FANO_PROFILE, (0, 1, 1, False)),
            (2, 0, 2, 6, CALABI_YAU_PROFILE, (12, 1, 1, False)),
            (
                2,
                1,
                1,
                8,
                SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS},
                (102, 3, 3, True),
            ),
            (2, 9, 0, 9, frozenset(), (17, 7, 7, False)),
            (3, 1, 2, 8, frozenset({FilterId.UNIT_PREFIX, FilterId.DELTAS}), (944, 330, 330, True)),
        ],
    )
    def test_search_counts_are_pinned(self, n, index, k, cap, profile, expected):
        # nodes, tested, survivors and cap_touched of profiles with and
        # without the unit-prefix structure, ambient-only slices included
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
        assert _capped(bound, 5) == expected

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
    # index 1 would map to index 0, where FanoPositivity is not enforced,
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
        # k >= 2 row and skips middle vectors on the k = 1 row
        test = wcifano.enumerator._Walk.test
        fit, tails_fit = wcifano.enumerator._slots_fit, wcifano.enumerator._tails_fit
        checked: list[int] = []
        skipped: list[bool] = []
        middles_skipped: list[tuple[int, ...]] = []

        def checking_test(walk, weights, ds):
            assert run_all(Candidate(weights, ds), walk.shape.cuts).survives
            checked.append(len(walk.shape.cuts))
            test(walk, weights, ds)

        def recording_fit(*args):
            fits = fit(*args)
            skipped.append(not fits)
            return fits

        def recording_tails_fit(tails, *args):
            fits = tails_fit(tails, *args)
            # _task checks a middle vector itself; the tail stage checks
            # its prefixes through its fits predicate
            if not fits and sys._getframe(1).f_code.co_name == "_task":
                middles_skipped.append(tails)
            return fits

        monkeypatch.setattr(wcifano.enumerator._Walk, "test", checking_test)
        monkeypatch.setattr(wcifano.enumerator, "_slots_fit", recording_fit)
        monkeypatch.setattr(wcifano.enumerator, "_tails_fit", recording_tails_fit)
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
        if k == 1:
            assert len(middles_skipped) == 64

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
    # classes of a tail prefix, or of a middle vector with its last middle
    # as a virtual tail, that only the last degree can serve to share that
    # degree.

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
        """The bound on the walk's tail prefix middles + tails (None: the weight cut skips it)."""
        weights = middles + tails
        classes = TestWeightStageCut.class_counts(weights, k)
        if classes is None:
            return None
        banned = weights if bans else ()
        return _tails_fit(tails, total, classes.items(), banned, k, tail_hi)

    @classmethod
    def middles_fit(cls, k, middles, total, tail_hi, bans):
        """The bound on the walk's middle vector: its last middle is a virtual tail."""
        return cls.prefix_fits(k, middles[:-1], middles[-1:], total, tail_hi, bans)

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

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_a_skipped_middle_vector_has_no_tails(self, data):
        # every tail is at least the last middle, so the walk checks a
        # middle vector with that middle as a virtual tail; when the bound
        # rejects it, no tail tuple in middles[-1]..tail_hi has a degree
        # tuple
        k, middles, tail_hi, total, bans = self.draw_middles(data)
        fits = self.middles_fit(k, middles, total, tail_hi, bans)
        assume(fits is not None)
        if not fits:
            assert self.live_completions(k, middles, (), total, tail_hi, bans) == []

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

    def test_no_small_middle_vector_is_skipped_wrongly(self):
        # every middle vector at k 1..3 of one to three middles up to 6,
        # tails up to 8 and the total up to 3 above its least: a virtual
        # tail two above the last middle would skip a live vector here
        rejected = 0
        for k, length, bans in itertools.product((1, 2, 3), (1, 2, 3), (False, True)):
            for middles in sorted_tuples(length, 1, 6):
                for tail_hi in range(middles[-1], 9):
                    for total in range(tail_hi + k - 1, tail_hi + k + 3):
                        case = (k, middles, total, tail_hi, bans)
                        if self.middles_fit(*case) is False:
                            rejected += 1
                            assert self.live_completions(k, middles, (), *case[2:]) == [], case
        assert rejected > 100

    def test_the_bound_skips_vectors_and_only_saves_nodes(self, monkeypatch):
        # at (5, 1, 3, 12) the bound rejects tail prefixes and stops the
        # degree walk where the classes fit the slots left but not the
        # degree sum: the walk places 453 nodes, 542 with the prefix part
        # alone and 2,916 with neither, for the same tested tuples,
        # survivors and cap flag
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=12)
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
        prefix_only = enumerate_candidates(q)
        monkeypatch.setattr(wcifano.enumerator, "_tails_fit", lambda *args: True)
        unbounded = enumerate_candidates(q)
        assert unbounded.survivors == prefix_only.survivors == bounded.survivors
        assert unbounded.cap_touched is prefix_only.cap_touched is bounded.cap_touched is True
        assert bounded.stats == SearchStats(nodes=453, tested=3)
        assert prefix_only.stats == SearchStats(nodes=542, tested=3)
        assert unbounded.stats == SearchStats(nodes=2916, tested=3)

    @pytest.mark.parametrize(
        "n, index, k, cap, nodes",
        [(5, 1, 3, 20, 1167), (6, 1, 4, 20, 1799)],
    )
    def test_survey_slices_keep_the_cut(self, n, index, k, cap, nodes):
        # the survey slices place few nodes once the bound cuts tail
        # prefixes; a search that loses the cut places many times more
        result = enumerate_candidates(EnumerationQuery(n=n, index=index, k=k, max_weight=cap))
        assert result.stats == SearchStats(nodes=nodes, tested=3)
        assert len(result.survivors) == 3
        assert result.cap_touched is True

    @pytest.mark.parametrize(
        "n, index, k, cap, stats",
        [(3, 1, 1, 100, SearchStats(3353, 2)), (4, 1, 1, 30, SearchStats(1728, 4))],
    )
    def test_hypersurface_slices_keep_the_cut(self, n, index, k, cap, stats):
        # at k = 1 every class is last-only, so the walk skips a middle
        # vector whose classes cannot share the one degree before walking
        # its tails: 27,563 and 4,788 nodes without that check
        result = enumerate_candidates(EnumerationQuery(n=n, index=index, k=k, max_weight=cap))
        assert result.stats == stats
        assert len(result.survivors) == stats.tested
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
                break
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
                classes = _grow_classes(classes, ws[:p], len(ws))
                assert sorted(classes.items()) == self.expected_counts(ws[:p])

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


class TestDeterminism:
    def test_worker_counts_agree_exactly(self):
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=12)
        single = enumerate_candidates(q, workers=1)
        multi = enumerate_candidates(q, workers=4)
        assert single == multi  # survivors, flags and stats all included

    def test_worker_counts_agree_without_the_unit_prefix_structure(self):
        # profiles without UnitPrefix and Deltas are split into tasks too
        profile = SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS}
        q = EnumerationQuery(n=3, index=1, k=1, max_weight=8, profile=profile)
        assert enumerate_candidates(q, workers=1) == enumerate_candidates(q, workers=2)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # a split that runs every share inline and records its size forks
        # no process
        sizes: list[int] = []

        def inline_split(shape, keys, size):
            sizes.append(size)
            return (wcifano.enumerator._task(shape, key).outcome() for key in keys)

        monkeypatch.setattr(wcifano.enumerator, "_split", inline_split)
        return sizes

    def test_pool_is_clamped_to_the_task_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=10)
        assert enumerate_candidates(q, workers=5000) == enumerate_candidates(q)
        assert pool_sizes == [10]

    @pytest.mark.parametrize("cpus, sizes", [(3, [3]), (1, [])])
    def test_pool_is_clamped_to_the_usable_cpus(self, monkeypatch, pool_sizes, cpus, sizes):
        # ten tasks on three usable CPUs get three workers; on one CPU the
        # tasks run inline, with no pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=10)
        assert enumerate_candidates(q, workers=5000) == enumerate_candidates(q)
        assert pool_sizes == sizes

    def test_the_cpu_count_stands_in_without_an_affinity_mask(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=10)
        assert enumerate_candidates(q, workers=5000) == enumerate_candidates(q)
        assert pool_sizes == [3]

    def test_repeat_runs_agree(self):
        q = EnumerationQuery(n=4, index=1, k=2, max_weight=10)
        assert enumerate_candidates(q) == enumerate_candidates(q)


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

        The caller's first task waits (up to 10 s) until a child has
        started a task, so that children run some tasks however fast the
        caller is; a child that starts one writes to the gate pipe.
        """
        caller = os.getpid()
        gate_r, gate_w = os.pipe()
        task = wcifano.enumerator._task
        waited = []

        def patch(child_task):
            def patched(shape, first_middle):
                if os.getpid() != caller:
                    os.write(gate_w, b"x")
                    return child_task(task, shape, first_middle)
                if not waited:
                    waited.append(select.select([gate_r], [], [], 10))
                return task(shape, first_middle)

            monkeypatch.setattr(wcifano.enumerator, "_task", patched)

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
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(wcifano.enumerator, "_split", None)
        assert enumerate_candidates(self.SPREAD, workers=3) == enumerate_candidates(self.SPREAD)


class TestStreaming:
    def test_sink_sees_survivors_in_canonical_order(self):
        q = EnumerationQuery(n=4, index=2, k=2, max_weight=10)
        seen: list[Candidate] = []
        result = enumerate_streaming(q, seen.append)
        assert tuple(seen) == result.survivors
        assert seen == sorted(seen, key=canonical_key)
        assert len(set(seen)) == len(seen)

    def test_sink_sees_survivors_with_workers(self):
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=10)
        seen: list[Candidate] = []
        result = enumerate_streaming(q, seen.append, workers=3)
        assert tuple(seen) == result.survivors
        # nothing sorts the merged survivors: the tasks and the walks find
        # them in canonical order
        assert seen == sorted(seen, key=canonical_key)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_survivors_are_canonical_without_the_unit_prefix_structure(self, workers):
        # without UnitPrefix and Deltas every weight is a middle; here the
        # survivors come from five tasks, one per first weight
        profile = SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS, FilterId.GCD_COVER}
        q = EnumerationQuery(n=2, index=1, k=2, max_weight=6, profile=profile)
        survivors = list(enumerate_candidates(q, workers=workers).survivors)
        assert len(survivors) == 451
        assert {c.weights[0] for c in survivors} == {1, 2, 3, 4, 5}
        assert survivors == sorted(survivors, key=canonical_key)

    def test_sink_runs_before_the_last_task(self, monkeypatch):
        # (5, 1, 3) has two middle weights, so cap 10 gives ten tasks, one
        # per first middle weight; every survivor has first middle 1.
        started: list[int] = []
        task = wcifano.enumerator._task

        def counting_task(shape, first_middle):
            started.append(first_middle)
            return task(shape, first_middle)

        monkeypatch.setattr(wcifano.enumerator, "_task", counting_task)
        tasks_started_at_sink: list[int] = []
        q = EnumerationQuery(n=5, index=1, k=3, max_weight=10)
        result = enumerate_streaming(q, lambda c: tasks_started_at_sink.append(len(started)))
        assert len(started) == 10
        assert len(tasks_started_at_sink) == len(result.survivors) == 3
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

    @pytest.mark.parametrize("n, index, k, cap", [(3, 0, 2, 6), (3, 0, 3, 5), (4, 0, 2, 5)])
    def test_matches_reference_where_the_tail_prefix_bound_fires(
        self, monkeypatch, n, index, k, cap
    ):
        # k >= 2 slices where the degree-sum bound rejects tail prefixes
        # short of the last tail
        fit = wcifano.enumerator._tails_fit
        rejected: list[tuple[int, ...]] = []

        def recording_fit(tails, total, classes, banned, k, tail_hi):
            fits = fit(tails, total, classes, banned, k, tail_hi)
            if not fits and len(tails) < k:
                rejected.append(tails)
            return fits

        monkeypatch.setattr(wcifano.enumerator, "_tails_fit", recording_fit)
        q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=CALABI_YAU_PROFILE)
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


class TestPruningHonesty:
    def test_middle_bound_is_conservative(self, monkeypatch):
        # disabling the single-middle closure bound must change no survivor,
        # only the cap_touched claim (the bound is what makes it exhaustive)
        q = EnumerationQuery(n=3, index=2, k=1, max_weight=50)
        bounded = enumerate_candidates(q)
        monkeypatch.setattr(wcifano.enumerator, "_middle_bound", lambda mc, profile: None)
        unbounded = enumerate_candidates(q)
        assert unbounded.survivors == bounded.survivors
        assert bounded.cap_touched is False
        assert unbounded.cap_touched is True

    def test_middle_bound_conservative_at_higher_dimension(self, monkeypatch):
        q = EnumerationQuery(n=6, index=4, k=2, max_weight=15)
        bounded = enumerate_candidates(q)
        monkeypatch.setattr(wcifano.enumerator, "_middle_bound", lambda mc, profile: None)
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
