"""Acceptance suite: every exactly-stated quantity and property gate.

One test per criterion; each prints a single pass/fail line (with its
measured runtime) so a plain ``pytest tests/test_acceptance.py -v -s`` reads
as a checklist. All comparisons are exact (ints and Fractions); no
tolerances are involved anywhere.
"""

import time
from collections import Counter
from fractions import Fraction
from random import Random

from subposet.chains import (
    capped_level_coeff,
    count_pairs_enumerated,
    count_pairs_formula,
    min_max_partition,
    min_r_partition,
    minr_maxt_partition,
    three_per_level_coeff,
)
from subposet.constructions import (
    construct_rst,
    construct_rst_induced,
    construct_rt,
)
from subposet.containment import (
    SearchStatus,
    contains_subposet,
    max_antichain,
)
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
    wide_ends,
)
from subposet.lattice import SetFamily, set_str, sigma
from subposet.posets import chain_poset, complete_multilevel, named_poset
from subposet.solver import la_exact

from oracles import (
    brute_contains,
    brute_max_antichain,
    brute_s_minus,
    brute_s_plus,
    chain_prefixes,
    empirical_free_levels,
    enumerate_chains,
    verify_mod_spread,
)


def report(num, description, started):
    print(f"criterion {num:2d} [PASS] {description} ({time.time() - started:.2f}s)")


def test_criterion_01_three_wide_coefficients():
    t0 = time.time()
    values = {2: Fraction(7, 2), 3: Fraction(4), 4: Fraction(4), 5: Fraction(19, 5)}
    for n, want in values.items():
        assert three_per_level_coeff(n) == want
    report(1, "three-per-level coefficients at n=2..5 are 7/2, 4, 4, 19/5", t0)


def test_criterion_02_three_wide_monotone():
    t0 = time.time()
    for n in range(2, 41):
        assert three_per_level_coeff(n) <= 4
    for n in range(5, 40):
        assert three_per_level_coeff(n) >= three_per_level_coeff(n + 1)
    report(2, "coefficient <= 4 on 2..40 and monotone decreasing on 5..40", t0)


def test_criterion_03_height_functions():
    t0 = time.time()
    assert antichain_height(4) == 4
    assert middle_height(2, 0) == 2
    assert wide_ends(1, 1) == 0
    assert wide_ends(1, 5) == 1
    assert wide_ends(3, 3) == 2
    report(3, "antichain height, middle height, and wide-end counts", t0)


def test_criterion_04_solver_reproductions():
    t0 = time.time()
    cases = [
        (3, [chain_poset(2)], 3),
        (4, [chain_poset(2)], 6),
        (4, [chain_poset(3)], 10),
        (3, [named_poset("vee"), named_poset("wedge")], 4),
        (4, [named_poset("vee"), named_poset("wedge")], 6),
        (4, [complete_multilevel([2, 2])], 10),
    ]
    for n, posets, want in cases:
        res = la_exact(n, posets)
        assert res.exhausted, f"solver did not exhaust at n={n}"
        assert res.optimum == want, f"optimum {res.optimum} != {want} at n={n}"
    assert sigma(4, 2) == 10
    report(4, "six exact optima (2-chain, 3-chain, vee+wedge, butterfly)", t0)


def test_criterion_05_formula_vs_empirical_level_freeness():
    t0 = time.time()
    cases = [
        ((1, 2, 1), 6, 4, 2),
        ((2, 2), 6, 4, 2),
        ((1, 1, 2), 6, 4, 2),
        ((2, 4, 2), 8, 7, 6),
    ]
    for widths, n, k_max, want in cases:
        assert induced_free_levels(widths) == want
        got = empirical_free_levels(complete_multilevel(widths), True, n, k_max)
        assert got == want, f"empirical {got} != formula {want} for widths {widths}"
    report(5, "induced free-level formula matches exhaustive probes (incl. K[2,4,2] at n=8)", t0)


def test_criterion_06_pair_count_identity():
    t0 = time.time()
    rng = Random(1205)
    for trial in range(100):
        n = rng.randint(3, 6)
        size = rng.randint(0, min(20, 1 << n))
        fam = SetFamily.of(n, rng.sample(range(1 << n), size))
        assert count_pairs_enumerated(fam) == count_pairs_formula(fam)
    report(6, "pair-count identity on 100 seeded random families, n in 3..6", t0)


def _oracle_minr_maxt_label(fam, prefixes, r, t):
    members = fam.member_set
    sm = lambda x: brute_s_minus(fam.members, x)
    sp = lambda x: brute_s_plus(fam.members, x)
    if r == 1:
        a = next((x for x in prefixes if x in members), None)
        if a is None:
            return "EMPTY"
    else:
        a = next(x for x in prefixes if sm(x) >= r)
    if sp(a) < t:
        return f"S:{set_str(a)}"
    if t == 1 and r == 1:
        b = next(x for x in reversed(prefixes) if x in members)
    elif t == 1:
        b = next(x for x in reversed(prefixes) if sp(x) >= 1)
    else:
        b = next(x for x in reversed(prefixes) if sp(x) >= t)
    assert a & b == a
    return f"AB:{set_str(a)}|{set_str(b)}"


def test_criterion_07_partition_totality():
    t0 = time.time()
    rng = Random(1205)  # same suite as the pair-count identity
    from math import factorial

    families = []
    for trial in range(100):
        n = rng.randint(3, 6)
        size = rng.randint(0, min(20, 1 << n))
        families.append(SetFamily.of(n, rng.sample(range(1 << n), size)))

    partitions = 0
    regular_labels = 0
    for fam in families:
        n = fam.n
        nfact = factorial(n)
        rep = min_max_partition(fam)
        assert rep.total_chains == nfact
        partitions += 1
        width = max_antichain(fam).size
        for r in (1, 2, 3):
            if width >= r:
                rep = min_r_partition(fam, r)
                assert rep.total_chains == nfact
                partitions += 1
        # verify the two-marker partition on the smaller families by a
        # fully independent per-chain scan (brute-force antichain widths)
        small = fam.size <= 12 and n <= 5
        for r in (1, 2, 3):
            for t in (1, 2, 3):
                if r >= 2 and width < max(r, t):
                    continue
                rep = minr_maxt_partition(fam, r, t)
                assert rep.total_chains == nfact
                assert sum(rep.chain_counts.values()) == nfact
                partitions += 1
                for label in rep.chain_counts:
                    if label.startswith("AB:"):
                        regular_labels += 1
                if small:
                    expected = Counter()
                    for perm in enumerate_chains(n):
                        expected[
                            _oracle_minr_maxt_label(fam, chain_prefixes(perm), r, t)
                        ] += 1
                    assert rep.chain_counts == dict(expected)
    assert partitions > 400 and regular_labels > 50
    report(7, f"partition totality and marker re-verification ({partitions} partitions)", t0)


def test_criterion_08_constructions():
    t0 = time.time()
    fam1 = construct_rt(8, 2, 2)
    floor = sigma(8, 2) + -(-28 // 8) + -(-56 // 8)
    assert fam1.size >= floor
    res = contains_subposet(fam1, complete_multilevel([2, 2]), induced=True)
    assert res.status is SearchStatus.FREE

    fam2 = construct_rst(10, 1, 2, 1)
    assert fam2.size == sigma(10, 2)
    res = contains_subposet(fam2, complete_multilevel([1, 2, 1]), induced=False)
    assert res.status is SearchStatus.FREE

    fam3 = construct_rst_induced(9, 2, 2, 2)
    res = contains_subposet(fam3, complete_multilevel([2, 2, 2]), induced=True)
    assert res.status is SearchStatus.FREE

    for (n, k, r) in ((6, 3, 1), (8, 4, 2)):
        rep = verify_mod_spread(n, k, r)
        assert rep.passed and rep.exhaustive
    report(8, "construction sizes, exhaustive freeness, and residue spread", t0)


def test_criterion_09_capped_coefficient_monotone():
    t0 = time.time()
    for s in (4, 10, 20, 50):
        for n in range(antichain_height(s), 30):
            assert capped_level_coeff(n + 1, s) <= capped_level_coeff(n, s)
    report(9, "capped level coefficient monotone for n >= antichain height", t0)


def test_criterion_10_case_classifier_and_bounds():
    t0 = time.time()
    realize = {0: (1, 1), 1: (1, 2), 2: (2, 2)}
    for ends, (r, t) in realize.items():
        for d in range(2, 4097):
            s = d + ends
            label = classify(r, s, t)
            assert label in (CaseLabel.CASE1, CaseLabel.CASE2)
            m = middle_height(s, ends)
            (lo1, hi1), (lo2, hi2) = case_intervals(m)
            assert lo1 <= d <= hi2 and lo2 == hi1 + 1
            assert (label is CaseLabel.CASE1) == (d <= hi1)
    assert density_bounds(1, 3, 1) == (Fraction(3), Fraction(3))
    assert density_bounds(1, 6, 1) == (Fraction(3), Fraction(11, 3))
    assert density_bounds(2, 2, 2) == (Fraction(3), Fraction(3))
    assert density_bounds_induced(2, 4, 2, Regime.S4) == (Fraction(6), Fraction(6))
    report(10, "classifier totality to 4096 and the four bound coefficients", t0)


def test_criterion_11_oracle_equivalences():
    t0 = time.time()
    rng = Random(2601)

    for trial in range(200):
        n = rng.randint(3, 5)
        size = rng.randint(0, min(14, 1 << n))
        fam = SetFamily.of(n, rng.sample(range(1 << n), size))
        assert max_antichain(fam).size == brute_max_antichain(fam.members)

    patterns = [
        chain_poset(2),
        chain_poset(3),
        named_poset("vee"),
        named_poset("wedge"),
        complete_multilevel([2, 2]),
        complete_multilevel([1, 2, 1]),
    ]
    for trial in range(200):
        n = rng.randint(2, 4)
        size = rng.randint(0, min(10, 1 << n))
        fam = SetFamily.of(n, rng.sample(range(1 << n), size))
        poset = patterns[rng.randrange(len(patterns))]
        induced = rng.random() < 0.5
        res = contains_subposet(fam, poset, induced)
        assert res.status in (SearchStatus.FOUND, SearchStatus.FREE)
        assert res.found == brute_contains(fam.members, poset, induced)

    def naive_la(posets):
        universe = list(range(8))
        best = 0
        for pick in range(1 << 8):
            if pick.bit_count() <= best:
                continue
            masks = [universe[i] for i in range(8) if pick >> i & 1]
            if not any(brute_contains(masks, p, False) for p in posets):
                best = len(masks)
        return best

    for posets in ([chain_poset(2)], [named_poset("vee")]):
        assert la_exact(3, posets).optimum == naive_la(posets)
    report(11, "matching vs brute antichains, search vs injections, solver vs enumeration", t0)
