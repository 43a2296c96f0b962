"""Core domain types: construction, normalization, index, gcd classes."""

from __future__ import annotations

from enum import IntEnum
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcifano.core import (
    Candidate,
    EmptyWeights,
    GcdClass,
    NonPositiveEntry,
    TooManyDegrees,
    canonical_key,
    fano_index,
    gcd_classes,
    new_candidate,
    normalize,
)


def brute_gcd_classes(weights: tuple[int, ...]) -> dict[frozenset[int], int]:
    """Independent oracle: member set -> class gcd, via every divisor scan."""
    out: dict[frozenset[int], int] = {}
    for delta in range(2, max(weights) + 1):
        members = frozenset(p for p, w in enumerate(weights) if w % delta == 0)
        if members:
            g = gcd(*(weights[p] for p in members))
            out[members] = max(out.get(members, 0), g)
    return out


candidates = st.builds(
    lambda w, extra: Candidate(tuple(w), tuple(extra[: len(w) - 1])),
    st.lists(st.integers(1, 30), min_size=1, max_size=9),
    st.lists(st.integers(1, 30), min_size=0, max_size=8),
)


class TestConstruction:
    def test_valid(self):
        c = new_candidate([1, 1, 2, 3], [6])
        assert c.weights == (1, 1, 2, 3)
        assert c.degrees == (6,)
        assert (c.ambient_dim, c.codim, c.dim) == (3, 1, 2)

    def test_k_zero_is_legal(self):
        c = new_candidate([1, 1, 1])
        assert c.codim == 0 and c.dim == 2

    def test_empty_weights(self):
        with pytest.raises(EmptyWeights):
            new_candidate([])

    def test_non_positive_entry(self):
        with pytest.raises(NonPositiveEntry):
            new_candidate([1, 0, 2])
        with pytest.raises(NonPositiveEntry):
            new_candidate([1, 2], [-3])
        with pytest.raises(NonPositiveEntry):
            new_candidate([1, 2.5], [2])
        with pytest.raises(NonPositiveEntry):
            Candidate((True, True, True), (2,))

    @pytest.mark.parametrize(
        "weights, degrees, bad",
        [
            ((1, 0, 2), (), 0),
            ((1, 2), (-3,), -3),
            ((1, 2.5), (2,), 2.5),
            ((True, True, True), (2,), True),
            ((1, 1, 2), (False,), False),
            ((1, "2"), (), "2"),
            ((1, None), (), None),
            # the first bad entry is named, weights before degrees
            ((1, 0, -1), (2.5,), 0),
            ((1, 1, 2), (0, True), 0),
        ],
    )
    def test_rejections_keep_their_messages(self, weights, degrees, bad):
        with pytest.raises(NonPositiveEntry) as info:
            Candidate(weights, degrees)
        assert str(info.value) == f"entries must be positive integers, got {bad!r}"

    def test_int_subclasses_other_than_bool_are_accepted(self):
        class Big(int):
            pass

        Weight = IntEnum("Weight", {"ONE": 1, "TWO": 2})
        c = Candidate((Weight.ONE, Big(1), 2), (Weight.TWO,))
        assert c.weights == (1, 1, 2) and c.degrees == (2,)
        assert type(c.weights[1]) is Big

    def test_too_many_degrees(self):
        with pytest.raises(TooManyDegrees):
            new_candidate([1, 1], [2, 2])

    def test_tuple_coercion_and_equality(self):
        assert new_candidate([1, 2], [2]) == Candidate((1, 2), (2,))
        assert hash(new_candidate([1, 2], [2])) == hash(Candidate((1, 2), (2,)))


class TestNormalize:
    def test_examples(self):
        assert normalize(Candidate((3, 1, 2), (4, 2))) == Candidate((1, 2, 3), (2, 4))
        assert normalize(Candidate((1, 1, 2), (3,))) == Candidate((1, 1, 2), (3,))

    def test_is_normalized_flag(self):
        assert Candidate((1, 2, 2), (3,)).is_normalized
        assert not Candidate((2, 1, 2), (3,)).is_normalized
        assert not Candidate((1, 2, 3), (4, 2)).is_normalized

    @given(candidates)
    def test_sorted_input_is_returned_and_unsorted_input_sorted(self, c):
        n = normalize(c)
        if c.is_normalized:
            assert n is c
        else:
            assert type(n) is Candidate
            assert n == Candidate(tuple(sorted(c.weights)), tuple(sorted(c.degrees)))

    @given(candidates)
    def test_idempotent_and_multiset_preserving(self, c):
        n1 = normalize(c)
        assert n1.is_normalized
        assert normalize(n1) == n1
        assert sorted(n1.weights) == sorted(c.weights)
        assert sorted(n1.degrees) == sorted(c.degrees)

    @given(candidates)
    def test_fano_index_invariant_under_normalize(self, c):
        assert fano_index(c) == fano_index(normalize(c))


class TestFanoIndex:
    @pytest.mark.parametrize(
        "weights, degrees, expected",
        [
            ((1, 1, 1, 1), (2, 2), 0),
            ((1, 2, 3), (6,), 0),
            ((1, 1, 2), (5,), -1),
            ((1, 1, 1, 1, 1, 1), (2, 3), 1),
        ],
    )
    def test_examples(self, weights, degrees, expected):
        assert fano_index(Candidate(weights, degrees)) == expected


class TestCanonicalKey:
    def test_orders_by_weights_then_degrees(self):
        a = Candidate((1, 1, 2), (3,))
        b = Candidate((1, 2, 2), (2,))
        c = Candidate((1, 1, 2), (4,))
        assert canonical_key(a) < canonical_key(c) < canonical_key(b)

    def test_uses_normalized_form(self):
        assert canonical_key(Candidate((2, 1), ())) == canonical_key(Candidate((1, 2), ()))


class TestGcdClasses:
    def test_all_units(self):
        assert gcd_classes(Candidate((1, 1, 1))) == []

    def test_example_1_2_4(self):
        classes = gcd_classes(Candidate((1, 2, 4)))
        assert [(c.delta, set(c.member_indices), c.class_gcd) for c in classes] == [
            (2, {1, 2}, 2),
            (4, {2}, 4),
        ]

    def test_example_6_10_15(self):
        classes = gcd_classes(Candidate((6, 10, 15)))
        assert [(c.delta, set(c.member_indices), c.class_gcd) for c in classes] == [
            (2, {0, 1}, 2),
            (3, {0, 2}, 3),
            (5, {1, 2}, 5),
            (6, {0}, 6),
            (10, {1}, 10),
            (15, {2}, 15),
        ]

    def test_merged_duplicates(self):
        # divisors 2 and 4 cut out the same member set {0, 1}; one class remains
        classes = gcd_classes(Candidate((4, 8)))
        assert [(c.delta, set(c.member_indices), c.class_gcd) for c in classes] == [
            (4, {0, 1}, 4),
            (8, {1}, 8),
        ]

    def test_huge_shared_prime(self):
        # p = 2^61 - 1 is prime: the classes come from gcds alone, with no
        # factoring of the weights.
        p = 2**61 - 1
        classes = gcd_classes(Candidate((1, 1, 2 * p, 3 * p, 6 * p)))
        assert [(c.delta, set(c.member_indices), c.class_gcd) for c in classes] == [
            (p, {2, 3, 4}, p),
            (2 * p, {2, 4}, 2 * p),
            (3 * p, {3, 4}, 3 * p),
            (6 * p, {4}, 6 * p),
        ]

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=9))
    @settings(max_examples=300)
    def test_matches_divisor_scan_oracle(self, weights):
        c = Candidate(tuple(weights))
        got = {cls.member_indices: cls.class_gcd for cls in gcd_classes(c)}
        assert got == brute_gcd_classes(c.weights)

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_every_subset_with_common_divisor_is_covered(self, weights):
        c = Candidate(tuple(weights))
        classes = gcd_classes(c)
        by_members = {cls.member_indices: cls for cls in classes}
        # every subset with gcd delta > 1 lies inside the class of that delta
        for mask in range(1, 1 << len(weights)):
            subset = [p for p in range(len(weights)) if mask >> p & 1]
            delta = gcd(*(weights[p] for p in subset))
            if delta == 1:
                continue
            members = frozenset(p for p, w in enumerate(weights) if w % delta == 0)
            assert members in by_members
            cls = by_members[members]
            assert set(subset) <= set(cls.member_indices)
            assert cls.class_gcd % delta == 0

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=9))
    @settings(max_examples=200)
    def test_class_invariants(self, weights):
        c = Candidate(tuple(weights))
        for cls in gcd_classes(c):
            assert isinstance(cls, GcdClass)
            assert cls.delta > 1
            assert cls.class_gcd % cls.delta == 0
            assert cls.class_gcd >= cls.delta
            for p in cls.member_indices:
                assert weights[p] % cls.delta == 0
            # members are exactly the positions delta divides
            assert set(cls.member_indices) == {
                p for p, w in enumerate(weights) if w % cls.delta == 0
            }
