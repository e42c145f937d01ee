"""Containment search, antichain machinery, and the level-freeness probe."""

import pytest
from random import Random

from subposet.containment import (
    SearchStatus,
    contains_any,
    contains_subposet,
    empirical_free_levels,
    interval_has_antichain,
    max_antichain,
    s_minus,
    s_plus,
)
from subposet.constructions import construct_rst, construct_rst_induced, construct_rt
from subposet.lattice import SetFamily, complement_family, consecutive_levels, level
from subposet.posets import chain_poset, complete_multilevel, dual, named_poset

from oracles import (
    Relation,
    brute_contains,
    brute_max_antichain,
    brute_s_minus,
    brute_s_plus,
    compare,
    nx_max_antichain,
    random_family_masks,
)


def test_compare():
    assert compare(0, 1) is Relation.LESS
    assert compare(1, 2) is Relation.INCOMPARABLE
    assert compare(3, 3) is Relation.EQUAL
    assert compare(7, 5) is Relation.GREATER


def test_contains_basic():
    fam = SetFamily.of(2, [0, 1])
    res = contains_subposet(fam, chain_poset(2))
    assert res.found and res.embedding == (0, 1)

    full = SetFamily.of(2, range(4))
    res = contains_subposet(full, complete_multilevel([1, 2, 1]), induced=True)
    assert res.found

    res = contains_subposet(consecutive_levels(4, 1, 2), complete_multilevel([1, 2, 1]),
                            induced=True)
    assert res.free


def test_contains_embedding_is_valid():
    fam = SetFamily.of(4, range(16))
    for widths in ([1, 2, 1], [2, 2], [1, 1, 1]):
        poset = complete_multilevel(widths)
        for induced in (False, True):
            res = contains_subposet(fam, poset, induced)
            assert res.found
            images = [fam.members[i] for i in res.embedding]
            assert len(set(images)) == poset.size
            for i in range(poset.size):
                for j in range(poset.size):
                    if poset.less(i, j):
                        assert images[i] != images[j] and images[i] & images[j] == images[i]
                    elif induced and i != j and not poset.less(j, i):
                        assert compare(images[i], images[j]) is Relation.INCOMPARABLE


def test_contains_any():
    vee, wedge = named_poset("vee"), named_poset("wedge")
    full = SetFamily.of(2, range(4))
    res = contains_any(full, [vee, wedge])
    assert res.found and res.poset_index == 0
    res = contains_any(level(4, 2), [vee, wedge])
    assert res.free
    fam = SetFamily.of(2, [0, 1, 2])  # {}, {1}, {2}
    assert contains_any(fam, [wedge]).free
    hit = contains_any(fam, [vee])
    assert hit.found and hit.poset_index == 0


def test_budget_outcome_is_distinct():
    fam = SetFamily.of(3, range(8))
    res = contains_subposet(fam, complete_multilevel([1, 2, 1]), budget=1)
    assert res.status is SearchStatus.BUDGET
    assert res.embedding is None


def test_contains_matches_brute_force():
    rng = Random(20240811)
    patterns = [
        chain_poset(2),
        chain_poset(3),
        named_poset("vee"),
        named_poset("wedge"),
        complete_multilevel([2, 2]),
        complete_multilevel([1, 2, 1]),
        complete_multilevel([1, 3]),
        complete_multilevel([4]),
    ]
    for trial in range(200):
        n = rng.randint(2, 4)
        masks = random_family_masks(rng, n, 10)
        fam = SetFamily.of(n, masks)
        poset = patterns[rng.randrange(len(patterns))]
        induced = rng.random() < 0.5
        res = contains_subposet(fam, poset, induced)
        assert res.status in (SearchStatus.FOUND, SearchStatus.FREE)
        assert res.found == brute_contains(fam.members, poset, induced)


def test_contains_matches_brute_force_on_arbitrary_posets():
    from subposet.posets import Poset
    from oracles import random_strict_order

    rng = Random(314159)
    for trial in range(250):
        p = rng.randint(1, 4)
        poset = Poset(p, random_strict_order(rng, p))
        n = rng.randint(2, 4)
        fam = SetFamily.of(n, random_family_masks(rng, n, 9))
        induced = rng.random() < 0.5
        res = contains_subposet(fam, poset, induced)
        assert res.status in (SearchStatus.FOUND, SearchStatus.FREE)
        assert res.found == brute_contains(fam.members, poset, induced)


@pytest.mark.parametrize("build, args, widths, induced, nodes", [
    (construct_rst_induced, (8, 2, 2, 2), (2, 2, 2), True, 30888),
    (construct_rt, (10, 2, 2), (2, 2), True, 82839),
    (construct_rst, (10, 2, 2, 2), (2, 2, 2), False, 22155),
])
def test_search_order_node_counts(build, args, widths, induced, nodes):
    # golden counts: any change to the search order or pruning moves them
    res = contains_subposet(build(*args), complete_multilevel(widths), induced)
    assert res.free
    assert res.nodes == nodes


def test_containment_monotone_in_family():
    rng = Random(99)
    vee = named_poset("vee")
    diamond = complete_multilevel([1, 2, 1])
    for _ in range(60):
        n = rng.randint(2, 5)
        big = random_family_masks(rng, n, 14)
        if not big:
            continue
        small = [m for m in big if rng.random() < 0.6]
        fam_small, fam_big = SetFamily.of(n, small), SetFamily.of(n, big)
        for poset in (vee, diamond):
            for induced in (False, True):
                if contains_subposet(fam_small, poset, induced).found:
                    assert contains_subposet(fam_big, poset, induced).found


def test_containment_duality():
    rng = Random(4242)
    patterns = [
        chain_poset(2),
        named_poset("vee"),
        complete_multilevel([1, 2, 1]),
        complete_multilevel([2, 2]),
        complete_multilevel([1, 1, 2]),
    ]
    for _ in range(120):
        n = rng.randint(2, 5)
        fam = SetFamily.of(n, random_family_masks(rng, n, 12))
        poset = patterns[rng.randrange(len(patterns))]
        induced = rng.random() < 0.5
        direct = contains_subposet(fam, poset, induced).found
        mirrored = contains_subposet(complement_family(fam), dual(poset), induced).found
        assert direct == mirrored


def test_max_antichain_basics():
    assert max_antichain(level(4, 2)).size == 6
    five_chain = SetFamily.of(5, [0, 1, 3, 7, 15])
    assert max_antichain(five_chain).size == 1
    res = max_antichain(SetFamily.of(3, range(8)))
    assert res.size == 3
    assert max_antichain(SetFamily.of(3, [])).size == 0
    # all of B_12 and the two middle levels of B_13: far deeper augmenting
    # paths than the recursion limit allows
    for fam, want in ((consecutive_levels(12, -1, 13), 924), (consecutive_levels(13, 5, 2), 1716)):
        size, witness = max_antichain(fam)
        assert size == want == len(witness)
        images = [fam.members[i] for i in witness]
        for a in images:
            assert not any(a != b and a & b == a for b in images)


def test_max_antichain_witness_is_antichain():
    rng = Random(7)
    for _ in range(100):
        n = rng.randint(2, 5)
        fam = SetFamily.of(n, random_family_masks(rng, n, 14))
        size, witness = max_antichain(fam)
        assert len(witness) == size
        images = [fam.members[i] for i in witness]
        for a in images:
            for b in images:
                if a != b:
                    assert compare(a, b) is Relation.INCOMPARABLE
        assert size == brute_max_antichain(fam.members)


def test_max_antichain_matches_networkx_matching():
    # families of 30-150 members at n = 6-8: many augmenting-path searches
    # fail, beyond the reach of the 2^|F| brute-force oracle
    rng = Random(2026)
    for _ in range(30):
        n = rng.randint(6, 8)
        fam = SetFamily.of(n, rng.sample(range(1 << n), rng.randint(30, min(150, 1 << n))))
        assert max_antichain(fam).size == nx_max_antichain(fam.members)
        bound = rng.randrange(1 << n)
        assert s_minus(fam, bound) == nx_max_antichain([m for m in fam.members if m & bound == m])
        assert s_plus(fam, bound) == nx_max_antichain([m for m in fam.members if m & bound == bound])


def test_s_minus_s_plus():
    full3 = SetFamily.of(3, range(8))
    assert s_minus(full3, 7) == 3
    assert s_minus(SetFamily.of(3, [0, 1]), 0) == 1
    assert s_minus(SetFamily.of(3, [1, 2]), 0) == 0
    assert s_plus(level(4, 2), 0b0011) == 1

    rng = Random(13)
    for _ in range(80):
        n = rng.randint(2, 5)
        fam = SetFamily.of(n, random_family_masks(rng, n, 12))
        full = (1 << n) - 1
        bound = rng.randrange(1 << n)
        assert s_minus(fam, bound) == brute_s_minus(fam.members, bound)
        assert s_plus(fam, bound) == brute_s_plus(fam.members, bound)
        # duality and the full-set identity
        assert s_plus(fam, bound) == s_minus(complement_family(fam), full ^ bound)
        assert s_minus(fam, full) == max_antichain(fam).size


def test_interval_has_antichain():
    assert interval_has_antichain(0, 0b11, 2)
    assert not interval_has_antichain(0, 0b111, 4)
    assert interval_has_antichain(0b1, 0b1, 1) is False  # literal height rule at s=1
    with pytest.raises(ValueError):
        interval_has_antichain(0b10, 0b01, 1)


def test_empirical_free_levels():
    assert empirical_free_levels(complete_multilevel([1, 2, 1]), True, 6, 4) == 2
    assert empirical_free_levels(complete_multilevel([2, 2]), True, 6, 4) == 2
    assert empirical_free_levels(chain_poset(2), False, 5, 3) == 1
    assert empirical_free_levels(chain_poset(3), False, 6, 4) == 2
    with pytest.raises(ValueError):
        empirical_free_levels(chain_poset(2), False, 4, 5)


def test_empirical_matches_formula_across_signatures():
    from subposet.formulas import induced_free_levels

    # widths, probe n (at least free-level count + element count)
    cases = [
        ((1, 1), 3),
        ((1, 2), 4),
        ((2, 2), 6),
        ((1, 1, 1), 5),
        ((1, 2, 1), 6),
        ((1, 1, 2), 6),
        ((2, 1, 2), 7),
        ((1, 1, 1, 1), 7),
        ((1, 3, 1), 8),
    ]
    for widths, n in cases:
        want = induced_free_levels(widths)
        assert n >= want + sum(widths)
        got = empirical_free_levels(complete_multilevel(widths), True, n, want + 1)
        assert got == want, f"widths {widths}: empirical {got} != formula {want}"
