"""Lower-bound families: sizes, part structure, freeness, spread property."""

import pytest
from fractions import Fraction
from math import comb

from subposet.constructions import (
    construct_induced,
    construct_rst,
    construct_rst_induced,
    construct_rt,
)
from subposet.containment import contains_subposet
from subposet.formulas import antichain_height, middle_height, positive_part, wide_ends
from subposet.lattice import consecutive_levels, largest_mod_classes, sigma
from subposet.posets import complete_multilevel

from oracles import verify_mod_spread


def levels_used(family):
    return sorted({m.bit_count() for m in family.members})


def test_construct_rt_shape():
    fam = construct_rt(8, 2, 2)
    assert levels_used(fam) == [2, 3, 4, 5]
    by_level = {lvl: sum(1 for m in fam.members if m.bit_count() == lvl) for lvl in levels_used(fam)}
    assert by_level[3] == comb(8, 3)
    assert by_level[4] == comb(8, 4)
    assert by_level[2] == largest_mod_classes(8, 2, 1).size
    assert by_level[5] == largest_mod_classes(8, 5, 1).size
    assert fam.size == sum(by_level.values())
    # dropping the fringes leaves exactly the two middle levels
    core = [m for m in fam.members if m.bit_count() in (3, 4)]
    assert len(core) == sigma(8, 2)
    with pytest.raises(ValueError):
        construct_rt(5, 2, 2)
    with pytest.raises(ValueError):
        construct_rt(8, 1, 2)


def test_construct_rt_free():
    fam = construct_rt(8, 2, 2)
    res = contains_subposet(fam, complete_multilevel([2, 2]), induced=True)
    assert res.free


def test_construct_rst_small_case():
    fam = construct_rst(10, 1, 2, 1)
    assert levels_used(fam) == [4, 5]
    assert fam.size == sigma(10, 2)
    res = contains_subposet(fam, complete_multilevel([1, 2, 1]), induced=False)
    assert res.free


def test_construct_rst_wide_case():
    fam = construct_rst(10, 3, 2, 3)
    # band of middle_height(2, 2) + 2 = 3 levels plus one class on each side
    assert levels_used(fam) == [3, 4, 5, 6, 7]
    mids = [4, 5, 6]
    for lvl in mids:
        assert sum(1 for m in fam.members if m.bit_count() == lvl) == comb(10, lvl)
    res = contains_subposet(fam, complete_multilevel([3, 2, 3]), induced=False)
    assert res.free
    with pytest.raises(ValueError):
        construct_rst(10, 2, 3, 2)  # s - ends = 1: unsupported widths


def test_construct_rst_size_floor():
    for (n, r, s, t) in [(10, 1, 2, 1), (10, 3, 2, 3), (10, 2, 4, 2), (11, 1, 3, 2)]:
        fam = construct_rst(n, r, s, t)
        ends = wide_ends(r, t)
        band = middle_height(s, ends) + ends
        k = -(-(n - band) // 2) - 1
        top = k + band + 1
        middle = sum(comb(n, k + i) for i in range(1, band + 1))
        floor = (
            Fraction(middle)
            + Fraction(positive_part(r - 2), n) * comb(n, k)
            + Fraction(positive_part(t - 2), n) * comb(n, top)
        )
        assert Fraction(fam.size) >= floor


def test_construct_rst_induced():
    fam = construct_rst_induced(9, 2, 2, 2)
    assert levels_used(fam) == [2, 3, 4, 5, 6, 7]
    res = contains_subposet(fam, complete_multilevel([2, 2, 2]), induced=True)
    assert res.free
    with pytest.raises(ValueError):
        construct_rst_induced(9, 2, 1, 2)


def test_construct_rst_induced_trivial_ends():
    fam = construct_rst_induced(10, 1, 4, 1)
    assert fam.size == sigma(10, 4)
    # r = t = 1: exactly a band of antichain_height(s) consecutive levels
    k = -(-(10 - 4) // 2) - 1
    assert fam == consecutive_levels(10, k, 4)
    fam2 = construct_rst_induced(9, 1, 2, 1)
    k2 = -(-(9 - 2) // 2) - 1
    assert fam2 == consecutive_levels(9, k2, 2)


def test_construct_induced_equals_the_old_spellings():
    # the two- and three-level builders' own band heights: 2, and
    # antichain_height(s) + wide_ends(r, t)
    compared = 0
    for n in range(6, 11):
        for r in range(1, 5):
            for t in range(1, 5):
                cases = [(construct_rt, (n, r, t), (r, t), 2)]
                cases += [(construct_rst_induced, (n, r, s, t), (r, s, t),
                           antichain_height(s) + wide_ends(r, t)) for s in range(2, 7)]
                for builder, args, widths, band in cases:
                    try:
                        old = builder(*args)
                    except ValueError:
                        continue
                    fam = construct_induced(n, widths)
                    assert fam == old
                    assert len(levels_used(fam)) == band + (r > 1) + (t > 1)
                    compared += 1
    assert compared > 200


@pytest.mark.parametrize("widths", [(2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 3, 2), (2, 2, 4, 2),
                                    (2, 1, 2, 2), (1, 3, 3, 1), (1, 2, 1, 2, 1)])
def test_construct_induced_multilevel_free(widths):
    fam = construct_induced(11, widths)
    res = contains_subposet(fam, complete_multilevel(widths), induced=True)
    assert res.free


def test_construct_induced_refuses_one_width():
    with pytest.raises(ValueError, match="signature needs a bottom and a top width"):
        construct_induced(8, (2,))


def test_construct_too_small_n():
    with pytest.raises(ValueError):
        construct_rst_induced(4, 2, 4, 2)


def test_verify_mod_spread():
    rep = verify_mod_spread(6, 3, 1)
    assert rep.passed and rep.exhaustive and rep.counterexample is None
    rep = verify_mod_spread(8, 4, 2)
    assert rep.passed and rep.exhaustive
    assert rep.tuples_checked == comb(rep.family_size, 3)


def test_verify_mod_spread_sampled():
    rep = verify_mod_spread(9, 4, 3, exhaustive_limit=10, seed=5, samples=500)
    assert rep.passed and not rep.exhaustive
    assert rep.tuples_checked == 500


def test_verify_mod_spread_preconditions():
    # the property concerns unions of fewer than n classes; the full level
    # fails it already at pairs ({1,2},{1,3} meet in k-1 elements)
    with pytest.raises(ValueError):
        verify_mod_spread(4, 2, 4)
    with pytest.raises(ValueError):
        verify_mod_spread(6, 1, 2)
