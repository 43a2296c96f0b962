"""Transform surgeries: frozen examples, invariants, replay fidelity."""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wcifano.core import Candidate, NotNormalized, fano_index, normalize
from wcifano.filters import ambient_well_formed, is_linear_cone, run_all
from wcifano.transforms import (
    DegreeNotDivisible,
    DimensionZero,
    NoUnitWeight,
    NotFano,
    OverallGcdNotOne,
    PairRemovalStep,
    SectionStep,
    TransformKind,
    VeroneseStep,
    hyperplane_section,
    replay_trace,
    unconize,
    wellformize,
)
from wcifano.verify import all_quadrics_family

any_candidates = st.builds(
    lambda w, d: Candidate(tuple(w), tuple(d[: len(w) - 1])),
    st.lists(st.integers(1, 12), min_size=1, max_size=7),
    st.lists(st.integers(1, 12), min_size=0, max_size=6),
)


@st.composite
def veronese_inflated(draw):
    """Candidates built by multiplying a base through Veronese factors.

    Every round multiplies all weights but one unit position and every
    degree by a factor, so wellformize always applies (overall gcd stays
    1 through the kept unit) and must be able to unwind to a well formed
    tuple of the same dimension.
    """
    weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    weights[draw(st.integers(0, len(weights) - 1))] = 1
    if not ambient_well_formed(Candidate(tuple(weights))).passed:
        # plant a second unit: every weight complement then contains a 1,
        # so the base carries no Veronese factor of its own and only the
        # inflation rounds below need unwinding
        non_units = [p for p, w in enumerate(weights) if w != 1]
        weights[draw(st.sampled_from(non_units))] = 1
    k = draw(st.integers(0, len(weights) - 1))
    degrees = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    for _ in range(draw(st.integers(0, 3))):
        units = [p for p, w in enumerate(weights) if w == 1]
        exempt = draw(st.sampled_from(units))
        factor = draw(st.integers(2, 4))
        weights = [w if p == exempt else w * factor for p, w in enumerate(weights)]
        degrees = [d * factor for d in degrees]
    return Candidate(tuple(weights), tuple(degrees))


class TestWellformize:
    def test_single_factor_example(self):
        trace = wellformize(Candidate((1, 2, 2, 2), (4,)))
        assert trace.after == Candidate((1, 1, 1, 1), (2,))
        assert trace.steps == (VeroneseStep(factor=2, divided_positions=(1, 2, 3)),)
        assert trace.kind is TransformKind.WELLFORMIZE

    def test_middle_exempt_example(self):
        trace = wellformize(Candidate((2, 3, 4), (12,)))
        assert trace.after == Candidate((1, 2, 3), (6,))
        assert trace.steps == (VeroneseStep(factor=2, divided_positions=(0, 2)),)

    def test_already_well_formed_is_identity(self):
        c = Candidate((1, 1, 2), (3,))
        trace = wellformize(c)
        assert trace.after == c and trace.steps == ()

    def test_requires_overall_gcd_one(self):
        with pytest.raises(OverallGcdNotOne):
            wellformize(Candidate((2, 4), (4,)))

    def test_degree_not_divisible(self):
        with pytest.raises(DegreeNotDivisible) as exc:
            wellformize(Candidate((1, 2, 2), (3,)))
        assert exc.value.degree_index == 1 and exc.value.factor == 2

    @given(veronese_inflated())
    @settings(max_examples=300, deadline=None)
    def test_inflated_inputs_unwind(self, c):
        trace = wellformize(c)
        after = trace.after
        assert after.dim == c.dim
        assert after.is_normalized
        assert ambient_well_formed(after).passed
        # independent recheck of well-formedness, straight from the definition
        w = after.weights
        if len(w) > 1:
            for omitted in range(len(w)):
                assert gcd(*(x for p, x in enumerate(w) if p != omitted)) == 1
        assert replay_trace(trace) == after
        # a second pass finds nothing left to divide
        assert wellformize(after).steps == ()

    @given(veronese_inflated())
    @settings(max_examples=200, deadline=None)
    def test_steps_are_valid_veronese_moves(self, c):
        trace = wellformize(c)
        weights = list(c.weights)
        degrees = list(c.degrees)
        for step in trace.steps:
            exempt = set(range(len(weights))) - set(step.divided_positions)
            assert len(exempt) == 1
            assert step.factor > 1
            for p in step.divided_positions:
                assert weights[p] % step.factor == 0
                weights[p] //= step.factor
            for j, d in enumerate(degrees):
                assert d % step.factor == 0
                degrees[j] = d // step.factor
        assert normalize(Candidate(tuple(weights), tuple(degrees))) == trace.after


class TestUnconize:
    def test_example(self):
        trace = unconize(Candidate((1, 1, 2, 3), (3, 4)))
        assert trace.after == Candidate((1, 1, 2), (4,))
        assert trace.steps == (PairRemovalStep(weight_pos=3, degree_pos=0, value=3),)

    def test_largest_degree_then_largest_weight_position(self):
        trace = unconize(Candidate((1, 2, 2), (2, 2)))
        assert trace.after == Candidate((1,), ())
        assert trace.steps == (
            PairRemovalStep(weight_pos=2, degree_pos=0, value=2),
            PairRemovalStep(weight_pos=1, degree_pos=0, value=2),
        )

    def test_largest_common_value_first(self):
        trace = unconize(Candidate((1, 1, 2, 3), (2, 3)))
        assert trace.after == Candidate((1, 1), ())
        assert trace.steps == (
            PairRemovalStep(weight_pos=3, degree_pos=1, value=3),
            PairRemovalStep(weight_pos=2, degree_pos=0, value=2),
        )

    def test_no_match_is_identity(self):
        c = Candidate((1, 1, 2), (3,))
        trace = unconize(c)
        assert trace.after == c and trace.steps == ()

    @given(any_candidates)
    @settings(max_examples=400)
    def test_invariants(self, c):
        trace = unconize(c)
        after = trace.after
        assert after.dim == c.dim
        assert fano_index(after) == fano_index(c)
        assert is_linear_cone(after).passed
        assert len(trace.steps) == c.codim - after.codim
        assert replay_trace(trace) == after
        assert unconize(after).steps == ()


class TestHyperplaneSection:
    def test_example(self):
        trace = hyperplane_section(Candidate((1, 1, 1, 2), (3,)))
        assert trace.after == Candidate((1, 1, 2), (3,))
        assert trace.steps == (SectionStep(removed_pos=0),)

    def test_requires_normalized(self):
        with pytest.raises(NotNormalized):
            hyperplane_section(Candidate((2, 1, 1), (3,)))

    def test_requires_unit_weight(self):
        with pytest.raises(NoUnitWeight):
            hyperplane_section(Candidate((2, 3), ()))

    def test_requires_positive_index(self):
        with pytest.raises(NotFano):
            hyperplane_section(Candidate((1, 1, 2), (4,)))

    def test_requires_positive_dimension(self):
        with pytest.raises(DimensionZero):
            hyperplane_section(Candidate((1,), ()))

    @given(
        st.lists(st.integers(1, 10), min_size=2, max_size=7),
        st.lists(st.integers(1, 10), min_size=0, max_size=6),
    )
    @settings(max_examples=400)
    def test_invariants(self, raw_w, raw_d):
        c = normalize(Candidate((1, *raw_w), tuple(raw_d[: len(raw_w)])))
        assume(fano_index(c) >= 1 and c.dim >= 1)
        trace = hyperplane_section(c)
        after = trace.after
        assert after.dim == c.dim - 1
        assert fano_index(after) == fano_index(c) - 1
        assert after.degrees == c.degrees
        assert replay_trace(trace) == after

    @pytest.mark.parametrize("n", range(3, 8))
    def test_quadric_family_descends(self, n):
        # cutting the k-quadrics family yields the same family one
        # dimension and one index lower, for every index >= 2
        for index in range(2, n + 1):
            k = n - index + 1
            c = all_quadrics_family(n, k)
            after = hyperplane_section(c).after
            assert after == all_quadrics_family(n - 1, k)
            assert run_all(after).survives


class TestAlternation:
    @given(any_candidates)
    @settings(max_examples=200, deadline=None)
    def test_unconize_wellformize_alternation_terminates(self, c):
        current = normalize(c)
        stuck = False  # factor found but some degree indivisible: no surgery exists
        for _ in range(30):
            moved = False
            trace = unconize(current)
            if trace.steps:
                current, moved = normalize(trace.after), True
            stuck = False
            if gcd(*current.weights) == 1:
                try:
                    trace = wellformize(current)
                except DegreeNotDivisible:
                    stuck = True
                else:
                    if trace.steps:
                        current, moved = trace.after, True
            if not moved:
                break
        else:
            pytest.fail("alternation did not reach a fixed point")
        assert is_linear_cone(current).passed
        if gcd(*current.weights) == 1 and not stuck:
            assert ambient_well_formed(current).passed
