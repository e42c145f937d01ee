"""Chain enumeration, pair counting, LYM, marker partitions, coefficients."""

import pytest
from fractions import Fraction
from math import comb, factorial
from random import Random

from subposet import chains
from subposet.chains import (
    EMPTY_LABEL,
    PartitionPreconditionError,
    capped_level_coeff,
    count_pairs_enumerated,
    count_pairs_formula,
    lym_sum,
    min_max_partition,
    min_r_partition,
    minr_maxt_partition,
    three_per_level_coeff,
)
from subposet.constructions import construct_rst_induced, construct_rt
from subposet.containment import max_antichain
from subposet.formulas import antichain_height
from subposet.lattice import SetFamily, consecutive_levels, level, set_str

from oracles import (
    brute_s_minus,
    brute_s_plus,
    chain_prefixes,
    enumerate_chains,
    random_family_masks,
    walk_pairs,
    walk_partition,
)


def test_enumerate_chains():
    assert sum(1 for _ in enumerate_chains(1)) == 1
    assert sum(1 for _ in enumerate_chains(3)) == 6
    assert sum(1 for _ in enumerate_chains(4)) == 24
    chains = list(enumerate_chains(3))
    assert chains == sorted(chains)  # lexicographic permutation order
    assert all(len(set(c)) == 3 for c in chains)
    with pytest.raises(ValueError):
        next(iter(enumerate_chains(9)))
    assert next(iter(enumerate_chains(9, cap=9))) == tuple(range(1, 10))  # cap is overridable
    with pytest.raises(ValueError):
        next(iter(enumerate_chains(17, cap=18)))  # hard cap


def test_chain_prefixes():
    assert chain_prefixes((2, 1, 3)) == [0, 0b010, 0b011, 0b111]


def test_pair_count_examples():
    assert count_pairs_formula(SetFamily.of(3, [0])) == 6
    assert count_pairs_enumerated(SetFamily.of(3, [0])) == 6
    assert count_pairs_formula(level(3, 1)) == 6
    assert count_pairs_enumerated(level(3, 1)) == 6
    empty = SetFamily.of(3, [])
    assert count_pairs_formula(empty) == 0
    assert count_pairs_enumerated(empty) == 0


def test_pair_counts_agree_on_random_suite():
    rng = Random(611)
    for trial in range(100):
        n = rng.randint(3, 6)
        fam = SetFamily.of(n, random_family_masks(rng, n, 20))
        assert count_pairs_enumerated(fam) == count_pairs_formula(fam)


def test_lym_sum():
    assert lym_sum(level(6, 2)) == 1
    assert lym_sum(SetFamily.of(4, list(level(4, 2)) + list(level(4, 3)))) == 2
    assert lym_sum(SetFamily.of(5, [0, 31])) == 2
    fam = SetFamily.of(4, [1, 3, 7])
    assert lym_sum(fam) == Fraction(count_pairs_formula(fam), factorial(4))


def test_lym_size_consequence():
    rng = Random(612)
    for _ in range(50):
        n = rng.randint(3, 6)
        fam = SetFamily.of(n, random_family_masks(rng, n, 24))
        bound = lym_sum(fam)
        assert fam.size <= bound * comb(n, -(-n // 2))


def test_min_max_partition():
    empty = SetFamily.of(3, [])
    rep = min_max_partition(empty)
    assert rep.chain_counts == {EMPTY_LABEL: 6}
    both_ends = SetFamily.of(3, [0, 7])
    rep = min_max_partition(both_ends)
    assert rep.chain_counts == {"AB:{}|{1,2,3}": 6}
    assert rep.pair_counts == {"AB:{}|{1,2,3}": 12}
    rep = min_max_partition(level(3, 1))
    assert rep.chain_counts == {f"AB:{s}|{s}": 2 for s in ("{1}", "{2}", "{3}")}


def test_reports_run_only_the_suffix_dps_they_read(monkeypatch):
    # minmax marks A and B in one array, so no part is single and the
    # unmarked suffix DP is skipped; minr marks no B, so only that one runs
    calls = []
    suffix_dp = chains._suffix_dp

    def counted(n, member, marked):
        calls.append(any(marked))
        return suffix_dp(n, member, marked)

    monkeypatch.setattr(chains, "_suffix_dp", counted)
    min_max_partition(level(4, 2))
    assert calls == [True]
    calls.clear()
    min_r_partition(level(4, 2), 2)
    assert calls == [False]


def test_min_r_partition():
    rep = min_r_partition(SetFamily.of(3, [0]), 1)
    assert rep.chain_counts == {"A:{}": 6}
    rep = min_r_partition(level(4, 2), 2)
    # the first chain set with two members below is always the 3-prefix
    assert all(label.startswith("A:") for label in rep.chain_counts)
    assert rep.total_chains == 24
    assert len(rep.chain_counts) == 4
    with pytest.raises(PartitionPreconditionError):
        min_r_partition(SetFamily.of(3, [0, 1]), 2)


def test_minr_maxt_examples():
    rep = minr_maxt_partition(SetFamily.of(4, [0, 15]), 1, 1)
    assert rep.chain_counts == {"AB:{}|{1,2,3,4}": 24}

    two_levels = SetFamily.of(4, list(level(4, 2)) + list(level(4, 3)))
    rep = minr_maxt_partition(two_levels, 2, 2)
    assert rep.total_chains == 24
    assert all(label.startswith("S:") for label in rep.chain_counts)

    spiky = SetFamily.of(4, list(level(4, 1)) + [15])
    rep = minr_maxt_partition(spiky, 2, 2)
    assert all(label.startswith("S:") for label in rep.chain_counts)

    with pytest.raises(PartitionPreconditionError):
        minr_maxt_partition(SetFamily.of(3, [0, 1]), 2, 1)


def test_minr_maxt_total_with_top_marker_one():
    # with r >= 2 and t = 1, a membership-based top marker can fall below A
    # (here: chains through {1},{1,2},{1,2,4} see only {1} from the family);
    # the s_plus-based marker keeps the partition total with A below B
    fam = SetFamily.of(4, [0b0001, 0b0010, 0b0111])
    rep = minr_maxt_partition(fam, 2, 1)
    assert rep.total_chains == 24
    for label in rep.chain_counts:
        assert label.startswith(("S:", "AB:"))


def _scan_label(fam, prefixes, r, t, sm, sp):
    """Independent per-chain marker computation used as the test oracle."""
    members = fam.member_set
    if r == 1:
        a = next((x for x in prefixes if x in members), None)
        if a is None:
            return EMPTY_LABEL
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
    return f"AB:{set_str(a)}|{set_str(b)}"


def test_minr_maxt_matches_independent_scan():
    rng = Random(613)
    trials = 0
    for _ in range(40):
        n = rng.randint(3, 5)
        fam = SetFamily.of(n, random_family_masks(rng, n, 14))
        for r in (1, 2, 3):
            for t in (1, 2, 3):
                if r >= 2 and max_antichain(fam).size < max(r, t):
                    with pytest.raises(PartitionPreconditionError):
                        minr_maxt_partition(fam, r, t)
                    continue
                rep = minr_maxt_partition(fam, r, t)
                sm = lambda x: brute_s_minus(fam.members, x)
                sp = lambda x: brute_s_plus(fam.members, x)
                from collections import Counter

                expected = Counter()
                for perm in enumerate_chains(n):
                    expected[_scan_label(fam, chain_prefixes(perm), r, t, sm, sp)] += 1
                assert rep.chain_counts == dict(expected)
                trials += 1
    assert trials > 100


def test_threshold_marks_match_widths():
    # the marks of {s_minus >= r} and {s_plus >= t}, threshold questions to
    # the matcher, equal the widths' thresholds, also for an r that no width
    # reaches; some yes answers need a matching (no live level that wide)
    from subposet.containment import Relations, s_minus, s_plus

    rng = Random(2603)
    matched = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        masks = random_family_masks(rng, n, 3 * n)
        if not masks:
            continue
        rels = Relations(sorted(masks, key=lambda x: (x.bit_count(), x)))
        minus = [s_minus(rels, s) for s in range(1 << n)]
        plus = [s_plus(rels, s) for s in range(1 << n)]
        above = max(minus + plus) + 1  # wider than every width: every answer is no
        for r in (1, 2, 3, 4, above):
            assert list(chains._s_minus_at_least(n, rels, r)) == [w >= r for w in minus]
            assert list(chains._s_plus_at_least(n, rels, r)) == [w >= r for w in plus]
            matched += sum(w >= r and all((lv & rels.below(s)).bit_count() < r
                                          for lv in rels.levels) for s, w in enumerate(minus))
    assert matched > 100


def _dp_partitions(fam):
    """Every partition the chains module accepts for fam, r, t in {1, 2, 3},
    as (args for walk_partition, report)."""
    width = max_antichain(fam).size
    out = [(("minmax",), min_max_partition(fam))]
    for r in (1, 2, 3):
        if width >= r:
            out.append((("minr", r), min_r_partition(fam, r)))
        for t in (1, 2, 3):
            if r == 1 or width >= max(r, t):
                out.append((("minrmaxt", r, t), minr_maxt_partition(fam, r, t)))
    return out


def _differential_families():
    rng = Random(614)
    fams = [SetFamily.of(n, []) for n in (1, 2, 4, 6)]
    for n in range(1, 7):
        full = (1 << n) - 1
        for ends in ((), (0,), (full,), (0, full)):
            for _ in range(3):
                fams.append(SetFamily.of(n, set(random_family_masks(rng, n, 14)) | set(ends)))
    fams += [level(5, 2), SetFamily.of(6, list(level(6, 2)) + list(level(6, 3))),
             SetFamily.of(6, range(64))]
    # band families: every B marker lies below [n], so the interval DP stops early
    fams += [construct_rt(6, 2, 2), construct_rst_induced(7, 1, 2, 1), consecutive_levels(7, 1, 3)]
    return fams


def test_partitions_match_chain_walk():
    partitions = regular = 0
    for fam in _differential_families():
        assert count_pairs_enumerated(fam) == walk_pairs(fam)
        for args, rep in _dp_partitions(fam):
            chain_counts, pair_counts = walk_partition(fam, *args)
            assert rep.chain_counts == chain_counts, (fam, args)
            assert rep.pair_counts == pair_counts, (fam, args)
            partitions += 1
            regular += sum(label.startswith("AB:") for label in chain_counts)
    assert partitions > 600 and regular > 1000


def test_hard_cap_refused_before_any_relation(monkeypatch):
    # the library's one limit, checked where the first 2^n array is built
    monkeypatch.setattr(chains, "Relations", lambda masks: pytest.fail("Relations ran"))
    monkeypatch.setattr(chains, "s_minus", lambda *args: pytest.fail("precondition ran"))
    fam = SetFamily.of(17, [0, 1, 3])
    for call in (lambda: count_pairs_enumerated(fam), lambda: min_max_partition(fam),
                 lambda: min_r_partition(fam, 2), lambda: minr_maxt_partition(fam, 2, 2)):
        with pytest.raises(ValueError, match=r"n <= 16, got n=17"):
            call()


def test_three_per_level_coeff():
    assert three_per_level_coeff(2) == Fraction(7, 2)
    assert three_per_level_coeff(3) == Fraction(4)
    assert three_per_level_coeff(4) == Fraction(4)
    assert three_per_level_coeff(5) == Fraction(19, 5)
    for n in range(2, 41):
        assert three_per_level_coeff(n) <= 4
    for n in range(5, 40):
        assert three_per_level_coeff(n) >= three_per_level_coeff(n + 1)


def test_capped_level_coeff():
    assert capped_level_coeff(1, 2) == 2
    assert capped_level_coeff(3, 100) == 4  # everything clamps to 1
    # direct termwise oracle
    n, s = 10, 20
    direct = sum(min(Fraction(s - 1, comb(n, j)), Fraction(1)) for j in range(n + 1))
    assert capped_level_coeff(n, s) == direct


def test_capped_level_coeff_monotone():
    for s in (4, 10, 20, 50):
        start = antichain_height(s)
        for n in range(start, 30):
            assert capped_level_coeff(n + 1, s) <= capped_level_coeff(n, s)


def test_report_payload_counts_are_strings():
    rep = min_max_partition(SetFamily.of(3, [0, 7]))
    payload = rep.payload()
    assert payload["total_chains"] == "6"
    for entry in payload["labels"].values():
        assert isinstance(entry["chains"], str) and isinstance(entry["pairs"], str)
