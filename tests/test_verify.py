"""Classification harness: verdict logic, quick verified ranges, the survey families."""

from __future__ import annotations

import pytest

import wcifano.verify
from wcifano.core import Candidate, fano_index
from wcifano.enumerator import EnumerationQuery, enumerate_candidates
from wcifano.verify import (
    Verdict,
    VerifyCase,
    _aggregate,
    _check_slice,
    all_quadrics_family,
    index_hypersurface_families,
    quadrics_cubic_family,
    survey_codim,
    survey_families,
    verify_case_i,
    verify_case_ii,
    verify_case_iii,
    verify_hypersurface_remark,
)


class TestFamilyBuilders:
    def test_all_quadrics(self):
        c = all_quadrics_family(2, 2)
        assert c == Candidate((1, 1, 1, 1, 1), (2, 2))
        assert fano_index(c) == 1

    def test_quadrics_cubic(self):
        c = quadrics_cubic_family(3, 2)
        assert c == Candidate((1, 1, 1, 1, 1, 1), (2, 3))
        assert fano_index(c) == 1

    def test_hypersurface_triple(self):
        triple = index_hypersurface_families(3)
        assert triple == (
            Candidate((1, 1, 1, 1, 1), (3,)),
            Candidate((1, 1, 1, 1, 2), (4,)),
            Candidate((1, 1, 1, 2, 3), (6,)),
        )
        assert all(fano_index(c) == 2 for c in triple)


class TestVerifiedRanges:
    def test_case_i_small(self):
        result = verify_case_i((2, 4), cap=10)
        assert result.verdict is Verdict.VERIFIED
        assert result.counterexample is None
        assert all(s.status is Verdict.VERIFIED for s in result.slices)
        assert all(s.result.prefix_infeasible for s in result.slices)

    def test_case_ii_small(self):
        result = verify_case_ii((2, 4), cap=12)
        assert result.verdict is Verdict.VERIFIED
        # one slice per index 1..n for each n in 2..4
        assert len(result.slices) == 2 + 3 + 4
        for s in result.slices:
            assert s.result.survivors == (all_quadrics_family(s.n, s.k),)

    def test_case_iii_small(self):
        result = verify_case_iii((3, 5), cap=12)
        assert result.verdict is Verdict.VERIFIED
        for s in result.slices:
            assert s.result.survivors == (quadrics_cubic_family(s.n, s.k),)

    def test_hypersurface_small(self):
        result = verify_hypersurface_remark((3, 4), cap=50)
        assert result.verdict is Verdict.VERIFIED
        for s in result.slices:
            assert s.result.survivors == index_hypersurface_families(s.n)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_case_i((1, 4))
        with pytest.raises(ValueError):
            verify_case_iii((2, 4))
        # A selection of no slice checks nothing, so it must not verify.
        for empty, case in [
            (lambda: verify_case_ii(n_range=(7, 6)), "ii"),
            (lambda: verify_case_iii((5, 4)), "iii"),
            (lambda: verify_hypersurface_remark((9, 3)), "hypersurface"),
            (lambda: verify_case_i((2, 2), i_range=(0, 0)), "i"),
        ]:
            with pytest.raises(ValueError, match=f"^case {case}: "):
                empty()

    @pytest.mark.parametrize(
        "n_range, i_range, index, top",
        [((3, 3), (0, 9), 0, 2), ((2, 6), (1, 6), 6, 5)],
    )
    def test_case_i_index_range_outside_every_dimension_raises(self, n_range, i_range, index, top):
        # dimension n admits the indices 1..n-1; an index that no
        # dimension of the range admits is not checked, so the range
        # must not read as verified
        message = f"^case i: index {index} is admitted by no dimension in .*; "
        with pytest.raises(ValueError, match=message + f"the admissible indices are 1..{top}$"):
            verify_case_i(n_range, i_range=i_range)

    def test_case_i_index_admitted_by_some_dimension_verifies(self):
        # index 5 is admitted by n = 6 only, which checks it
        result = verify_case_i((2, 6), i_range=(1, 5))
        assert result.verdict is Verdict.VERIFIED
        assert {s.index for s in result.slices} == {1, 2, 3, 4, 5}


class TestSliceComparator:
    def test_extra_survivor_refutes(self):
        outcome = _check_slice(3, 2, 1, expected=(), cap=50)
        assert outcome.status is Verdict.REFUTED
        assert outcome.counterexample == Candidate((1, 1, 1, 1, 1), (3,))

    def test_the_counterexample_is_the_least_extra(self):
        outcome = _check_slice(3, 1, 1, (), 20)
        assert len(outcome.result.survivors) > 1
        assert outcome.status is Verdict.REFUTED
        assert outcome.counterexample == Candidate((1, 1, 1, 1, 1), (4,))

    def test_missing_family_with_cap_untouched_refutes(self):
        bogus = Candidate((1, 1, 1, 7), (8,))
        actual = Candidate((1, 1, 1, 1), (2,))
        outcome = _check_slice(2, 2, 1, expected=(actual, bogus), cap=15)
        assert outcome.status is Verdict.REFUTED
        assert outcome.counterexample == bogus

    # (5, 1, 2) has three middle weights, which no bound reaches, so it
    # touches its cap
    def test_missing_family_with_cap_touched_is_inconclusive(self):
        survivors = enumerate_candidates(
            EnumerationQuery(n=5, index=1, k=2, max_weight=8)
        ).survivors
        bogus = Candidate((1,) * 7 + (5,), (2, 9))
        outcome = _check_slice(5, 1, 2, expected=survivors + (bogus,), cap=8)
        assert outcome.status is Verdict.INCONCLUSIVE_CAP_TOUCHED
        assert outcome.counterexample == bogus

    def test_exact_match_with_cap_touched_is_inconclusive(self):
        survivors = enumerate_candidates(
            EnumerationQuery(n=5, index=1, k=2, max_weight=8)
        ).survivors
        outcome = _check_slice(5, 1, 2, expected=survivors, cap=8)
        assert outcome.status is Verdict.INCONCLUSIVE_CAP_TOUCHED
        assert outcome.counterexample is None

    def test_aggregate_precedence(self):
        verified = _check_slice(2, 2, 1, expected=(Candidate((1, 1, 1, 1), (2,)),), cap=15)
        refuted = _check_slice(3, 2, 1, expected=(), cap=50)
        inconclusive = _check_slice(
            5,
            1,
            2,
            expected=enumerate_candidates(
                EnumerationQuery(n=5, index=1, k=2, max_weight=8)
            ).survivors,
            cap=8,
        )
        both = _aggregate(VerifyCase.CASE_I, 8, [inconclusive, refuted])
        assert both.verdict is Verdict.REFUTED
        assert both.counterexample == refuted.counterexample
        soft = _aggregate(VerifyCase.CASE_I, 8, [verified, inconclusive])
        assert soft.verdict is Verdict.INCONCLUSIVE_CAP_TOUCHED
        clean = _aggregate(VerifyCase.CASE_I, 8, [verified, verified])
        assert clean.verdict is Verdict.VERIFIED


# Every survey slice (k = n - index - 1 >= 1) with n <= 9.
SURVEY_SLICES = [(n, n - k - 1, k) for n in range(3, 10) for k in range(1, n - 1)]


class TestSurveyFamilies:
    @pytest.mark.parametrize("cap", [5, 10**12])
    @pytest.mark.parametrize("n, index, k", SURVEY_SLICES)
    def test_the_survivors_are_the_survey_families(self, n, index, k, cap):
        result = enumerate_candidates(EnumerationQuery(n=n, index=index, k=k, max_weight=cap))
        assert result.survivors == survey_families(n, k)
        assert result.cap_touched is False


class TestSurvey:
    def test_checks_one_exact_slice(self):
        result = survey_codim(5, 1, cap=12)
        assert result.verdict is Verdict.VERIFIED
        (outcome,) = result.slices
        assert (outcome.n, outcome.index, outcome.k) == (5, 1, 3)
        assert outcome.expected == survey_families(5, 3)
        assert outcome.result.survivors == outcome.expected
        assert outcome.result.cap_touched is False

    def test_named_family_containment(self):
        result = survey_codim(6, 1, cap=20)
        assert result.verdict is Verdict.VERIFIED
        survivors = set(result.slices[0].result.survivors)
        assert Candidate((1,) * 10 + (3,), (2, 2, 2, 6)) in survivors
        assert survivors == set(survey_families(6, 4))

    # The survey slice at (5, 1) has two middles, which no survivor lifts
    # above 2, and so tails of 5 at most: a cap of 5 or more leaves it
    # untouched, and a cap of 1 cuts its middles (and hides the true
    # family (1^8, 3; 2, 2, 6), so the bogus families there lie below it).

    def test_missing_named_family_goes_inconclusive_under_cap(self, extend_survey_families):
        bogus = Candidate((1,) * 8 + (2,), (2, 2, 5))
        extend_survey_families(bogus)
        result = survey_codim(5, 1, cap=1)
        assert result.verdict is Verdict.INCONCLUSIVE_CAP_TOUCHED
        assert result.counterexample == bogus

    @pytest.mark.parametrize("cap", [5, 10**12])
    def test_missing_named_family_refutes_on_the_cap_free_slice(self, extend_survey_families, cap):
        bogus = Candidate((1,) * 8 + (7,), (2, 2, 10))
        extend_survey_families(bogus)
        result = survey_codim(5, 1, cap=cap)
        assert result.slices[0].result.cap_touched is False
        assert result.slices[0].status is Verdict.REFUTED
        assert result.verdict is Verdict.REFUTED
        assert result.counterexample == bogus

    def test_the_counterexample_is_the_least_missing_family(self, extend_survey_families):
        # both fail LinearCone; the canonical-least one is listed second
        larger = Candidate((1,) * 8 + (2,), (2, 3, 4))
        least = Candidate((1,) * 8 + (2,), (2, 2, 5))
        extend_survey_families(larger, least)
        result = survey_codim(5, 1, cap=1)
        assert result.verdict is Verdict.INCONCLUSIVE_CAP_TOUCHED
        assert result.slices[0].counterexample == least
        assert result.counterexample == least

    @pytest.mark.parametrize("dropped", range(3))
    def test_a_survivor_missing_from_the_families_refutes(self, monkeypatch, dropped):
        true = survey_families(5, 3)
        kept = true[:dropped] + true[dropped + 1:]
        monkeypatch.setattr(wcifano.verify, "survey_families", lambda n, k: kept)
        result = survey_codim(5, 1, cap=20)
        assert result.verdict is Verdict.REFUTED
        assert result.counterexample == true[dropped]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            survey_codim(1, 1)
        with pytest.raises(ValueError):
            survey_codim(3, 2)  # k = 0
        with pytest.raises(ValueError):
            survey_codim(2, 0)  # index 0: the smooth-Fano profile leaves nothing

    def test_index_one_hypersurface_slice_count(self):
        # dimension-3 regression value: the k = 1 slice at index 1 holds
        # exactly the quartic and the weight-3 sextic
        result = survey_codim(3, 1, cap=20)
        assert result.slices[0].result.survivors == (
            Candidate((1, 1, 1, 1, 1), (4,)),
            Candidate((1, 1, 1, 1, 3), (6,)),
        )


class TestAllIndexFamilyCounts:
    @pytest.mark.parametrize(
        "n, k, expected_total", [(4, 2, 9), (5, 3, 5), (6, 4, 5), (7, 2, 9), (9, 6, 5)]
    )
    def test_codimension_totals_across_indices(self, n, k, expected_total):
        # at codimension k >= 2, index i = n - k - 1 and the two above it
        # leave the survey, quadrics-and-a-cubic and all-quadrics families,
        # and every higher index (case i) leaves nothing
        survey_index = n - k - 1
        families = {
            survey_index: survey_families(n, k),
            survey_index + 1: (quadrics_cubic_family(n, k),),
            survey_index + 2: (all_quadrics_family(n, k),),
        }
        total = 0
        for index in range(survey_index, n + 2):
            result = enumerate_candidates(
                EnumerationQuery(n=n, index=index, k=k, max_weight=20)
            )
            assert result.survivors == families.get(index, ())
            total += len(result.survivors)
        assert total == expected_total
