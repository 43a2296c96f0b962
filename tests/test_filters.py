"""Filter semantics: frozen examples, witness soundness, cross-checks."""

from __future__ import annotations

import random
from math import gcd

import pytest
from gcd_oracle import TooLarge, gcd_cover_bruteforce
from hypothesis import given, settings
from hypothesis import strategies as st

import wcifano.filters
from wcifano.core import Candidate, NotNormalized, fano_index, gcd_classes, normalize
from wcifano.filters import (
    CALABI_YAU_PROFILE,
    FILTER_ORDER,
    FilterId,
    FilterReport,
    FilterVerdict,
    NoDegrees,
    SMOOTH_FANO_PROFILE,
    _PREDICATES,
    _predicates,
    _survives,
    _verdict,
    ambient_well_formed,
    deltas_ok,
    fano_positive,
    gcd_cover_ok,
    is_linear_cone,
    is_normalized,
    last_weight_ok,
    passes_profile,
    run_all,
    unit_prefix_ok,
)
from wcifano.verify import (
    all_quadrics_family,
    index_hypersurface_families,
    quadrics_cubic_family,
)

any_candidates = st.builds(
    lambda w, d: Candidate(tuple(w), tuple(d[: len(w) - 1])),
    st.lists(st.integers(1, 20), min_size=1, max_size=8),
    st.lists(st.integers(1, 40), min_size=0, max_size=7),
)

normalized_candidates = any_candidates.map(normalize)

profiles = st.frozensets(st.sampled_from(list(FilterId)))


class TestProfiles:
    def test_order_covers_every_filter_once(self):
        assert len(FILTER_ORDER) == len(set(FILTER_ORDER)) == len(FilterId)

    def test_named_profiles(self):
        assert SMOOTH_FANO_PROFILE == frozenset(FilterId)
        assert CALABI_YAU_PROFILE == SMOOTH_FANO_PROFILE - {FilterId.FANO_POSITIVITY}

    @pytest.mark.parametrize("profile", [{"Deltas", "bogus"}, {"bogus"}, {FilterId.DELTAS, "bogus"}])
    def test_unknown_entries_are_rejected(self, profile):
        # with the CLI's message, by run_all and passes_profile alike
        c = Candidate((1, 1, 1, 2), (4,))
        with pytest.raises(ValueError, match="^unknown filter id 'bogus'$"):
            run_all(c, profile)
        with pytest.raises(ValueError, match="^unknown filter id 'bogus'$"):
            passes_profile(c, profile)

    def test_screen_names_given_as_strings_still_work(self):
        c = Candidate((1, 1, 1, 2), (4,))
        names = {fid.value for fid in SMOOTH_FANO_PROFILE}
        assert run_all(c, names).verdicts == run_all(c, SMOOTH_FANO_PROFILE).verdicts
        assert run_all(c, {"Deltas"}).verdicts == run_all(c, {FilterId.DELTAS}).verdicts
        assert passes_profile(c, names) == passes_profile(c, SMOOTH_FANO_PROFILE)


class TestNormalizedFilter:
    def test_pass(self):
        assert is_normalized(Candidate((1, 1, 2), (2, 3))).passed

    def test_first_inversion_witness(self):
        v = is_normalized(Candidate((1, 3, 2), (2,)))
        assert not v.passed and v.witness == {"list": "weights", "position": 1}
        v = is_normalized(Candidate((1, 1, 2), (4, 2)))
        assert not v.passed and v.witness == {"list": "degrees", "position": 0}


class TestAmbientWellFormed:
    def test_pass(self):
        assert ambient_well_formed(Candidate((1, 2, 3))).passed
        # no unit weight needed: every two of (2, 3, 5) are coprime
        assert ambient_well_formed(Candidate((2, 3, 5))).passed

    def test_fail_witness(self):
        v = ambient_well_formed(Candidate((1, 2, 2)))
        assert not v.passed and v.witness == {"omitted_index": 0, "gcd": 2}

    def test_single_weight_convention(self):
        assert ambient_well_formed(Candidate((1,))).passed
        v = ambient_well_formed(Candidate((3,)))
        assert not v.passed and v.witness == {"omitted_index": 0, "gcd": 3}

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=8))
    @settings(max_examples=300)
    def test_matches_direct_definition(self, weights):
        c = Candidate(tuple(weights))
        expected = all(
            gcd(*(w for p, w in enumerate(weights) if p != omitted)) == 1
            for omitted in range(len(weights))
        )
        assert ambient_well_formed(c).passed == expected


class TestFanoPositive:
    def test_pass_and_fail(self):
        assert fano_positive(Candidate((1, 1, 1, 1, 1, 1), (2, 3))).passed
        v = fano_positive(Candidate((1, 2, 3), (6,)))
        assert not v.passed and v.witness == {"fano_index": 0}
        v = fano_positive(Candidate((1, 1, 2), (5,)))
        assert not v.passed and v.witness == {"fano_index": -1}


class TestLinearCone:
    def test_pass(self):
        assert is_linear_cone(Candidate((1, 1, 2), (3,))).passed

    def test_fail_witness(self):
        v = is_linear_cone(Candidate((1, 1, 2), (2,)))
        assert not v.passed
        assert v.witness == {"weight_index": 2, "degree_index": 1, "value": 2}

    def test_first_degree_wins(self):
        v = is_linear_cone(Candidate((1, 2, 3, 4), (3, 4)))
        assert v.witness == {"weight_index": 2, "degree_index": 1, "value": 3}


class TestDeltas:
    def test_pass(self):
        assert deltas_ok(Candidate((1, 1, 1, 2), (3,))).passed
        assert deltas_ok(Candidate((1, 1, 1, 1, 1), (2, 2))).passed

    def test_fail_witness(self):
        v = deltas_ok(Candidate((1, 3), (2,)))
        assert not v.passed and v.witness == {"j": 1, "degree": 2, "weight": 3}

    def test_vacuous_for_k_zero(self):
        assert deltas_ok(Candidate((2, 3))).passed

    def test_requires_normalized(self):
        with pytest.raises(NotNormalized):
            deltas_ok(Candidate((2, 1), (3,)))


class TestLastWeight:
    def test_pass_boundary(self):
        assert last_weight_ok(Candidate((1, 2, 3), (6,))).passed

    def test_fail_witness(self):
        v = last_weight_ok(Candidate((1, 2, 3), (5,)))
        assert not v.passed and v.witness == {"d_k": 5, "a_N": 3}

    def test_needs_a_degree(self):
        with pytest.raises(NoDegrees):
            last_weight_ok(Candidate((1, 2)))

    def test_needs_a_degree_before_sorted_tuples(self):
        # at k = 0 the screen reads no position, so the order is not checked
        with pytest.raises(NoDegrees):
            last_weight_ok(Candidate((2, 1)))

    def test_requires_normalized(self):
        with pytest.raises(NotNormalized):
            last_weight_ok(Candidate((2, 1), (4,)))


class TestGcdCover:
    def test_pass(self):
        assert gcd_cover_ok(Candidate((1, 2, 4), (4, 8))).passed
        assert gcd_cover_ok(Candidate((1, 1, 1), (2, 3))).passed

    def test_fail_witness(self):
        v = gcd_cover_ok(Candidate((6, 10, 15), (30,)))
        assert not v.passed
        assert v.witness == {"class_gcd": 2, "required": 2, "available": 1}

    def test_bruteforce_agrees_on_examples(self):
        for weights, degrees in [
            ((1, 2, 4), (4, 8)),
            ((6, 10, 15), (30,)),
            ((1, 1, 2, 2), (2, 4)),
            ((1, 2, 2, 3), (6,)),
        ]:
            c = Candidate(weights, degrees)
            assert gcd_cover_bruteforce(c).passed == gcd_cover_ok(c).passed

    def test_bruteforce_size_guard(self):
        with pytest.raises(TooLarge):
            gcd_cover_bruteforce(Candidate((1,) * 14))
        # N = 12 is still allowed
        assert gcd_cover_bruteforce(Candidate((1,) * 13)).passed

    def test_huge_shared_prime(self):
        p = 2**61 - 1
        weights = (1, 1, 2 * p, 3 * p, 6 * p)
        assert gcd_cover_ok(Candidate(weights, (6 * p, 6 * p, 6 * p))).passed
        v = gcd_cover_ok(Candidate(weights, (2 * p, 3 * p)))
        assert not v.passed
        assert v.witness == {"class_gcd": p, "required": 3, "available": 2}

    @given(any_candidates)
    @settings(max_examples=400, deadline=None)
    def test_witness_is_first_short_class(self, c):
        short = [
            cls
            for cls in gcd_classes(c)
            if sum(1 for d in c.degrees if d % cls.class_gcd == 0) < len(cls.member_indices)
        ]
        v = gcd_cover_ok(c)
        if not short:
            assert v.passed and v.witness is None
            return
        first = short[0]
        assert not v.passed
        assert v.witness == {
            "class_gcd": first.class_gcd,
            "required": len(first.member_indices),
            "available": sum(1 for d in c.degrees if d % first.class_gcd == 0),
        }

    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=6),
        st.lists(st.integers(1, 24), min_size=0, max_size=5),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_bruteforce(self, weights, degrees):
        c = Candidate(tuple(weights), tuple(degrees[: len(weights) - 1]))
        assert gcd_cover_ok(c).passed == gcd_cover_bruteforce(c).passed


class TestUnitPrefix:
    def test_pass(self):
        c = Candidate((1, 1, 1, 2), (3,))
        assert unit_prefix_ok(c, fano_index(c)).passed

    def test_fail_witness(self):
        c = Candidate((1, 2, 2), (3,))
        v = unit_prefix_ok(c, fano_index(c))
        assert not v.passed and v.witness == {"position": 1, "weight": 2}

    def test_empty_prefix_passes(self):
        assert unit_prefix_ok(Candidate((2, 3)), 0).passed
        assert unit_prefix_ok(Candidate((2, 3)), -4).passed

    def test_infeasible_prefix(self):
        v = unit_prefix_ok(Candidate((1, 1)), 5)
        assert not v.passed
        assert v.witness == {
            "infeasible_prefix": True,
            "required_length": 5,
            "num_weights": 2,
        }

    def test_requires_normalized(self):
        with pytest.raises(NotNormalized):
            unit_prefix_ok(Candidate((2, 1), (3,)), 0)


class TestWitnessSoundness:
    """Every failure witness must recheck against the raw tuples."""

    @given(normalized_candidates)
    @settings(max_examples=500, deadline=None)
    def test_witnesses_recheck(self, c):
        report = run_all(c, SMOOTH_FANO_PROFILE)
        index = fano_index(c)
        for v in report.verdicts:
            if v.passed:
                assert v.witness is None
                continue
            w = v.witness
            if v.filter_id is FilterId.NORMALIZED:
                values = getattr(c, w["list"])
                assert values[w["position"]] > values[w["position"] + 1]
            elif v.filter_id is FilterId.AMBIENT_WELL_FORMED:
                rest = [x for p, x in enumerate(c.weights) if p != w["omitted_index"]]
                assert w["gcd"] > 1
                assert (gcd(*rest) if rest else c.weights[0]) == w["gcd"]
            elif v.filter_id is FilterId.FANO_POSITIVITY:
                assert w["fano_index"] == index <= 0
            elif v.filter_id is FilterId.LINEAR_CONE:
                assert c.weights[w["weight_index"]] == w["value"]
                assert c.degrees[w["degree_index"] - 1] == w["value"]
            elif v.filter_id is FilterId.DELTAS:
                assert c.degrees[w["j"] - 1] == w["degree"]
                assert c.weights[c.dim + w["j"]] == w["weight"]
                assert w["degree"] <= w["weight"]
            elif v.filter_id is FilterId.LAST_WEIGHT:
                assert c.degrees[-1] == w["d_k"] < 2 * w["a_N"] == 2 * c.weights[-1]
            elif v.filter_id is FilterId.GCD_COVER:
                g = w["class_gcd"]
                members = [p for p, a in enumerate(c.weights) if a % g == 0]
                assert len(members) == w["required"]
                assert sum(1 for d in c.degrees if d % g == 0) == w["available"]
                assert w["available"] < w["required"]
            elif v.filter_id is FilterId.UNIT_PREFIX:
                if w.get("infeasible_prefix"):
                    assert w["required_length"] == c.codim + max(index, 0)
                    assert w["required_length"] > w["num_weights"] == len(c.weights)
                else:
                    assert w["position"] < c.codim + max(index, 0)
                    assert c.weights[w["position"]] == w["weight"] > 1


class TestOrderFreeFilters:
    @given(any_candidates, st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_verdict_ignores_tuple_order(self, c, seed):
        rng = random.Random(seed)
        w = list(c.weights)
        d = list(c.degrees)
        rng.shuffle(w)
        rng.shuffle(d)
        shuffled = Candidate(tuple(w), tuple(d))
        for screen in (ambient_well_formed, fano_positive, is_linear_cone, gcd_cover_ok):
            assert screen(shuffled).passed == screen(c).passed


class TestRunAll:
    def test_all_pass_example(self):
        report = run_all(Candidate((1, 1, 1, 1, 1, 1), (2, 3)))
        assert report.survives
        assert [v.filter_id for v in report.verdicts] == list(FILTER_ORDER)
        assert report.failing() == ()

    def test_no_short_circuit(self):
        # fails FanoPositivity yet every later verdict is still present
        report = run_all(Candidate((1, 1, 2), (5,)))
        assert not report.survives
        assert len(report.verdicts) == len(FILTER_ORDER)
        assert {v.filter_id for v in report.failing()} == {
            FilterId.FANO_POSITIVITY,
            FilterId.GCD_COVER,
        }

    def test_profile_subset(self):
        profile = frozenset({FilterId.FANO_POSITIVITY, FilterId.GCD_COVER})
        report = run_all(Candidate((2, 4), (8,)), profile)
        assert [v.filter_id for v in report.verdicts] == [
            FilterId.FANO_POSITIVITY,
            FilterId.GCD_COVER,
        ]
        assert report.profile == profile

    def test_k_zero_last_weight_vacuous(self):
        report = run_all(Candidate((1, 1, 1)))
        assert report.survives
        by_id = {v.filter_id: v for v in report.verdicts}
        assert by_id[FilterId.LAST_WEIGHT].passed

    @staticmethod
    def reference(c, profile):
        """run_all built from the standalone verdict functions, in FILTER_ORDER.

        A screen that reads positions raises NotNormalized on unsorted
        tuples; run_all names every such screen of the profile.
        """
        standalone = {
            FilterId.NORMALIZED: is_normalized,
            FilterId.AMBIENT_WELL_FORMED: ambient_well_formed,
            FilterId.FANO_POSITIVITY: fano_positive,
            FilterId.LINEAR_CONE: is_linear_cone,
            FilterId.DELTAS: deltas_ok,
            FilterId.LAST_WEIGHT: last_weight_ok,
            FilterId.GCD_COVER: gcd_cover_ok,
            FilterId.UNIT_PREFIX: lambda c: unit_prefix_ok(c, fano_index(c)),
        }
        verdicts, unsorted = [], []
        for fid in FILTER_ORDER:
            if fid not in profile:
                continue
            if fid is FilterId.LAST_WEIGHT and not c.degrees:
                # run_all reports k = 0 as a vacuous pass; last_weight_ok raises
                verdicts.append(FilterVerdict(fid, True))
                continue
            try:
                verdicts.append(standalone[fid](c))
            except NotNormalized:
                unsorted.append(fid.value)
        if unsorted:
            raise NotNormalized(f"sorted weights and degrees needed by {', '.join(unsorted)}")
        return FilterReport(c, tuple(verdicts), profile)

    @given(any_candidates, st.booleans(), profiles)
    @settings(max_examples=400, deadline=None)
    def test_verdicts_match_standalone_functions(self, c, keep_sorted, profile):
        # sorted and unsorted tuples, k = 0 included: the same report as
        # the standalone verdict functions give, or the same NotNormalized
        # with the same message
        if keep_sorted:
            c = normalize(c)
        try:
            expected = self.reference(c, profile)
        except NotNormalized as exc:
            with pytest.raises(NotNormalized) as info:
                run_all(c, profile)
            assert str(info.value) == str(exc)
            return
        assert run_all(c, profile) == expected

    def test_propagates_not_normalized(self):
        with pytest.raises(NotNormalized):
            run_all(Candidate((2, 1, 1), (2,)))

    def test_unsorted_ok_without_order_filters(self):
        profile = frozenset({FilterId.FANO_POSITIVITY, FilterId.LINEAR_CONE})
        assert run_all(Candidate((2, 1, 1), (3,)), profile).survives

    def test_last_weight_reads_no_position_at_k_zero(self):
        profile = frozenset({FilterId.LAST_WEIGHT})
        assert run_all(Candidate((2, 1)), profile).survives
        assert passes_profile(Candidate((2, 1)), profile)
        with pytest.raises(NotNormalized, match="^sorted weights and degrees needed by LastWeight$"):
            run_all(Candidate((2, 1), (4,)), profile)


class TestFamilyInvariants:
    """The classification families pass the full screen at every size."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_quadrics(self, n):
        for index in range(1, n + 1):
            k = n - index + 1
            c = all_quadrics_family(n, k)
            assert fano_index(c) == index
            assert run_all(c).survives

    @pytest.mark.parametrize("n", range(3, 9))
    def test_quadrics_cubic(self, n):
        for index in range(1, n - 1):
            k = n - index
            c = quadrics_cubic_family(n, k)
            assert fano_index(c) == index
            assert run_all(c).survives

    @pytest.mark.parametrize("n", range(3, 9))
    def test_hypersurface_triple(self, n):
        for c in index_hypersurface_families(n):
            assert c.dim == n
            assert fano_index(c) == n - 1
            assert run_all(c).survives


class TestPassesProfile:
    @given(any_candidates, profiles)
    @settings(max_examples=600, deadline=None)
    def test_equivalent_to_run_all(self, c, profile):
        try:
            expected = run_all(c, profile).survives
        except NotNormalized:
            with pytest.raises(NotNormalized):
                passes_profile(c, profile)
            return
        assert passes_profile(c, profile) == expected

    def test_empty_profile_accepts_anything(self):
        assert passes_profile(Candidate((7, 3), (5,)), frozenset())


class TestPredicates:
    """The predicates on (weights, degrees) give run_all's verdicts, in its order.

    Some degree tuples are left unsorted, so the Normalized witness must
    come from the degrees when the weights are sorted.
    """

    all_profiles = [
        frozenset(f for bit, f in enumerate(FILTER_ORDER) if mask >> bit & 1)
        for mask in range(1 << len(FILTER_ORDER))
    ]
    # run_all on unsorted tuples raises for the screens that read positions
    order_free = SMOOTH_FANO_PROFILE - {FilterId.DELTAS, FilterId.LAST_WEIGHT, FilterId.UNIT_PREFIX}

    @given(
        st.lists(st.one_of(st.just(1), st.integers(1, 24)), min_size=1, max_size=8),
        st.lists(
            st.tuples(st.lists(st.integers(1, 48), max_size=7), st.booleans()),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_match_run_all(self, weights, degree_lists):
        weights = tuple(sorted(weights))
        for ds, keep_sorted in degree_lists:
            degrees = tuple(sorted(ds) if keep_sorted else ds)[: len(weights) - 1]
            c = Candidate(weights, degrees)
            report = run_all(c, SMOOTH_FANO_PROFILE if c.is_normalized else self.order_free)
            for v in report.verdicts:
                assert _verdict(v.filter_id, _PREDICATES[v.filter_id](weights, degrees)) == v
            for profile in self.all_profiles:
                try:
                    survives = run_all(c, profile).survives
                except NotNormalized:
                    continue
                assert _survives(weights, degrees, _predicates(profile)) == survives

    def test_passes_profile_walks_filter_order(self, monkeypatch):
        seen: list[tuple] = []
        survives = wcifano.filters._survives

        def recording_survives(weights, degrees, predicates):
            seen.append(predicates)
            return survives(weights, degrees, predicates)

        monkeypatch.setattr(wcifano.filters, "_survives", recording_survives)
        assert len(self.all_profiles) == 256
        for profile in self.all_profiles:
            passes_profile(Candidate((1, 1, 2), (3,)), profile)
            assert seen.pop() == tuple(_PREDICATES[f] for f in FILTER_ORDER if f in profile)

    @given(normalized_candidates, profiles)
    @settings(max_examples=400, deadline=None)
    def test_first_failing_predicate_is_the_first_failing_verdict(self, c, profile):
        # passes_profile and the enumerator stop at the first predicate
        # that fails, which is the first failing verdict of the report
        failing = run_all(c, profile).failing()
        first = next((p for p in _predicates(profile) if p(c.weights, c.degrees) is not None), None)
        if not failing:
            assert first is None
        else:
            assert first is _PREDICATES[failing[0].filter_id]
            assert first(c.weights, c.degrees) == failing[0].witness
