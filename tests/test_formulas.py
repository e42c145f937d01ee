"""Closed-form quantities: heights, case classification, density bounds."""

import pytest
from fractions import Fraction
from math import comb

from subposet.formulas import (
    CaseLabel,
    Regime,
    antichain_height,
    case_intervals,
    classify,
    density_bounds,
    density_bounds_induced,
    induced_free_levels,
    middle_height,
    positive_part,
    reduce_signature,
    wide_ends,
)
from subposet.posets import chain_poset, complete_multilevel

from oracles import (antichain_height_by_scan, antichain_subfamilies, k1s1_pair_coeff,
                     size_height_bound)


def test_wide_ends():
    assert wide_ends(1, 1) == 0
    assert wide_ends(1, 5) == 1
    assert wide_ends(5, 1) == 1
    assert wide_ends(3, 3) == 2
    assert wide_ends(2, 2) == 2  # the >=2 reading; width 2 counts as wide
    with pytest.raises(ValueError):
        wide_ends(0, 1)


def test_positive_part():
    assert positive_part(-1) == 0
    assert positive_part(0) == 0
    assert positive_part(3) == 3


def test_middle_height():
    assert middle_height(2, 0) == 2
    assert middle_height(2, 2) == 1
    assert middle_height(6, 0) == 3
    with pytest.raises(ValueError):
        middle_height(1, 2)
    # exact at powers of two: s - ends + 2 = 2^m must give m, not m+1
    for m in range(1, 20):
        assert middle_height(2**m - 2, 0) == m
        assert middle_height(2**m - 1, 0) == m + 1


def test_middle_height_rejects_ends_outside_wide_ends_range():
    # wide_ends yields 0, 1 or 2 only; other values used to give a number
    for s, ends in ((5, -3), (9, 4), (9, 3), (4, -1)):
        with pytest.raises(ValueError, match="need ends in 0..2"):
            middle_height(s, ends)
    assert [middle_height(2, ends) for ends in (0, 1, 2)] == [2, 2, 1]


def test_antichain_height_values():
    assert antichain_height(1) == 1
    assert antichain_height(4) == 4
    assert antichain_height(20) == 6
    with pytest.raises(ValueError):
        antichain_height(0)


def test_antichain_height_monotone_and_inverse():
    prev = 0
    for s in range(1, 200):
        h = antichain_height(s)
        assert h >= prev
        prev = h
    for m in range(1, 21):
        assert antichain_height(comb(m, (m + 1) // 2)) == m


def test_antichain_height_matches_the_scan_from_one():
    centrals = [comb(m, (m + 1) // 2) for m in range(1, 201)]
    for s in sorted({*range(1, 5001), *centrals, *(c + 1 for c in centrals)}):
        assert antichain_height(s) == antichain_height_by_scan(s), s


def test_antichain_height_of_a_4000_digit_width():
    # a scan from m = 1 took about 29 s on a 2-core VM; the defining
    # inequalities decide the answer
    s = 10**3999 + 12345
    m = antichain_height(s)
    assert comb(m - 1, m // 2) < s <= comb(m, (m + 1) // 2)


def test_antichain_height_is_smallest_cube_dimension():
    # brute force: smallest m such that the m-cube holds an s-antichain
    for s in range(1, 7):
        m = 1
        while not any(True for _ in antichain_subfamilies(range(1 << m), s)):
            m += 1
        assert antichain_height(s) == m


def test_reduce_signature():
    assert reduce_signature([2, 4, 2]) == (0, (4,))
    assert reduce_signature([1, 2, 1]) == (0, (2,))
    assert reduce_signature([1, 1, 2]) == (1, ())
    assert reduce_signature([1, 1]) == (1, ())
    assert reduce_signature([1, 1, 1]) == (2, ())
    with pytest.raises(ValueError):
        reduce_signature([3])


def test_induced_free_levels():
    assert induced_free_levels([2, 4, 2]) == 6
    assert induced_free_levels([1, 2, 1]) == 2
    assert induced_free_levels([1, 1, 2]) == 2
    assert induced_free_levels([2, 2]) == 2
    assert induced_free_levels([1, 1]) == 1
    # empty middle: the wide-end count, except that the two-element chain
    # gets its level from the ones-collapse rule (a single level never
    # contains two nested sets, so 0 would be wrong there)
    for r in range(1, 6):
        for t in range(1, 6):
            expected = 1 if r == t == 1 else wide_ends(r, t)
            assert induced_free_levels([r, t]) == expected


def test_induced_free_levels_reversal_invariant():
    def signatures(total, length):
        if length == 1:
            yield (total,)
            return
        for first in range(1, total - length + 2):
            for rest in signatures(total - first, length - 1):
                yield (first,) + rest

    for total in range(2, 9):
        for length in range(2, total + 1):
            for sig in signatures(total, length):
                assert induced_free_levels(sig) == induced_free_levels(sig[::-1])


def test_case_intervals_partition_the_range():
    for m in range(1, 14):
        (lo1, hi1), (lo2, hi2) = case_intervals(m)
        assert lo1 == 2 ** (m - 1) - 1
        assert hi2 == 2**m - 2
        assert lo2 == hi1 + 1


def test_classify_examples():
    assert classify(1, 3, 1) is CaseLabel.CASE1
    assert classify(1, 6, 1) is CaseLabel.CASE2
    assert classify(3, 2, 3) is CaseLabel.S_TWO_WIDE
    assert classify(1, 2, 2) is CaseLabel.S_TWO_WIDE
    assert classify(1, 1, 1) is CaseLabel.OUT_OF_SCOPE
    assert classify(2, 3, 2) is CaseLabel.OUT_OF_SCOPE  # s - ends = 1
    assert classify(1, 2, 1) is CaseLabel.CASE2  # s - ends = 2 classifies normally


def test_classify_totality():
    realize = {0: (1, 1), 1: (1, 2), 2: (2, 2)}
    for ends, (r, t) in realize.items():
        for d in range(2, 4097):
            s = d + ends
            label = classify(r, s, t)
            assert label in (CaseLabel.CASE1, CaseLabel.CASE2)
            m = middle_height(s, ends)
            (lo1, hi1), (lo2, hi2) = case_intervals(m)
            assert lo1 <= d <= hi2
            assert (label is CaseLabel.CASE1) == (lo1 <= d <= hi1)


def test_density_bounds():
    assert density_bounds(1, 3, 1) == (Fraction(3), Fraction(3))
    assert density_bounds(1, 6, 1) == (Fraction(3), Fraction(11, 3))
    assert density_bounds(2, 2, 2) == (Fraction(3), Fraction(3))
    assert density_bounds(1, 2, 1) == (Fraction(2), Fraction(5, 2))
    with pytest.raises(ValueError):
        density_bounds(1, 1, 1)


def test_density_bounds_ordered():
    for r in range(1, 5):
        for t in range(1, 5):
            for s in range(1, 65):
                if classify(r, s, t) is CaseLabel.OUT_OF_SCOPE:
                    continue
                lower, upper = density_bounds(r, s, t)
                assert lower <= upper


def test_density_bounds_induced():
    assert density_bounds_induced(2, 4, 2, Regime.S4) == (Fraction(6), Fraction(6))
    assert density_bounds_induced(1, 4, 1, Regime.S4) == (Fraction(4), Fraction(4))
    assert density_bounds_induced(1, 20, 1, Regime.LARGE_GENERAL) == (Fraction(6), Fraction(7))
    assert density_bounds_induced(1, 20, 1, Regime.LARGE_BOUNDED) == (Fraction(6), Fraction(6))
    with pytest.raises(ValueError):
        density_bounds_induced(1, 5, 1, Regime.S4)


def test_k1s1_pair_coeff():
    assert k1s1_pair_coeff(3) == Fraction(3)
    assert k1s1_pair_coeff(6) == Fraction(11, 3)
    # s=2 sits in the second interval of the printed cases: 2+1-(4-2-1)/2
    assert k1s1_pair_coeff(2) == Fraction(5, 2)
    with pytest.raises(ValueError):
        k1s1_pair_coeff(1)


def test_size_height_bound():
    assert size_height_bound(chain_poset(2)) == Fraction(1)
    assert size_height_bound(chain_poset(1)) == Fraction(0)
    assert size_height_bound(complete_multilevel([1, 2, 2])) == Fraction(3)
