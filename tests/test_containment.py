"""Containment search and antichain machinery."""

import sys
import threading

import pytest
from collections import Counter
from itertools import combinations
from math import comb
from random import Random

from subposet import containment
from subposet.containment import (
    MAX_MEMBERS,
    Relations,
    SearchStatus,
    contains_subposet,
    find_embedding,
    max_antichain,
    s_minus,
    s_plus,
)
from subposet.constructions import construct_rst, construct_rst_induced, construct_rt
from subposet.lattice import SetFamily, bits, consecutive_levels, level
from subposet.posets import chain_poset, complete_multilevel, named_poset, size_gaps

from oracles import (
    Relation,
    brute_contains,
    brute_copies,
    brute_max_antichain,
    brute_s_minus,
    brute_s_plus,
    compare,
    compare_with_reference,
    complement_family,
    dual,
    empirical_free_levels,
    gaps_by_definition,
    interval_has_antichain,
    is_copy,
    kuhn_max_antichain,
    loop_above,
    loop_below,
    min_size_gaps,
    nx_max_antichain,
    pair_relations,
    random_family_masks,
    read_rows,
    reference_search,
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


def rows(masks):
    return read_rows(Relations(masks))


def test_member_relations_match_pair_loop():
    assert rows([]) == pair_relations([]) == ([], [], [])
    assert rows([0]) == pair_relations([0]) == ([0], [0], [0])
    rng = Random(515)
    for _ in range(150):
        n = rng.randint(1, 8)
        masks = rng.sample(range(1 << n), rng.randint(0, min(60, 1 << n)))
        assert rows(masks) == pair_relations(masks)


def built(rows) -> list[int]:
    """The members whose entry of one row kind has been built, in index order."""
    return sorted(rows)


def test_relations_build_each_row_kind_when_first_read():
    rng = Random(516)
    for _ in range(60):
        n = rng.randint(1, 8)
        masks = rng.sample(range(1 << n), rng.randint(1, min(60, 1 << n)))
        sup, sub, inc = pair_relations(masks)
        rels = Relations(masks)
        assert not built(rels.sup) + built(rels.sub) + built(rels.inc)
        assert read_rows(rels, 1)[0] == sup
        assert not built(rels.sub) + built(rels.inc)
        assert read_rows(rels, 2)[1] == sub and not built(rels.inc)
        assert read_rows(rels, 3)[2] == inc
        # a plain search reads the sup and sub rows only
        rels = Relations(masks)
        find_embedding(rels, rels.full, complete_multilevel([1, 2, 1]))
        assert not built(rels.inc)


def test_rows_read_by_many_threads_match_pair_loop():
    # threads that read one record's rows in different orders may build a
    # row twice; every read and every stored row still equals the pair loop
    masks = SetFamily.of(7, random_family_masks(Random(517), 7, 90)).members
    want = pair_relations(masks)
    rels = Relations(masks)
    bad = []

    def reader(seed):
        order = [(i, k) for i in range(len(masks)) for k in range(3)]
        Random(seed).shuffle(order)
        kinds = rels.sup, rels.sub, rels.inc
        bad.extend((i, k) for i, k in order if kinds[k][i] != want[k][i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not bad
    assert read_rows(rels) == want


def test_member_relations_refuse_oversized_families():
    masks = range(MAX_MEMBERS + 1)
    with pytest.raises(ValueError, match="50000"):
        Relations(masks)
    with pytest.raises(ValueError):
        contains_subposet(SetFamily(17, tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))),
                          chain_poset(2))


def test_above_below_tables_match_element_loops():
    # has is the per-element transpose of the masks, and one lookup per chunk
    # of 8 elements matches the per-element loops and the definitions, at
    # chunk edges, on the empty family and on {∅}, and on sets with elements
    # at or past the highest one any member holds; the size windows hold the
    # members of each size and up or down, zeros past both ends
    rng = Random(1928)
    cases = [[], [0]]
    for n in (1, 7, 8, 9, 16, 17, 24):
        for _ in range(4):
            cases.append(list({rng.getrandbits(n) for _ in range(rng.randint(1, 150))}))
        cases.append([(1 << n) - 1, *rng.sample(range(1 << n), min(40, 1 << n) - 1)])
    for masks in cases:
        rels = Relations(masks)
        n = len(rels.has)
        assert n == max(masks, default=0).bit_length()
        assert rels.has == tuple(sum(1 << i for i, x in enumerate(masks) if x >> e & 1)
                                 for e in range(n))
        at_least, at_most = rels.windows
        for k in range(-n - 1, 2 * n + 2):
            assert at_least[k] == sum(1 << i for i, x in enumerate(masks)
                                      if n >= x.bit_count() >= k >= 0)
            assert at_most[k] == sum(1 << i for i, x in enumerate(masks)
                                     if 0 <= x.bit_count() <= k <= n)
        sets = [0, (1 << n) - 1, 1 << n, (1 << n) - 1 | 1 << (n + 5), 1 << 40, *masks[:10],
                *(rng.getrandbits(n) for _ in range(40)),
                *(rng.getrandbits(n + 9) for _ in range(10))]
        for mask in sets:
            up = sum(1 << i for i, x in enumerate(masks) if x & mask == mask)
            down = sum(1 << i for i, x in enumerate(masks) if x & mask == x)
            assert rels.above(mask) == loop_above(rels, mask) == up
            assert rels.below(mask) == loop_below(rels, mask) == down


CLI_PATTERNS = [named_poset("vee"), named_poset("wedge"), named_poset("butterfly"),
                chain_poset(2), chain_poset(3), complete_multilevel([1, 2, 1]),
                complete_multilevel([2, 2])]


def bitset(indices) -> int:
    return sum(1 << i for i in indices)


def test_live_set_search_matches_compact_search():
    # the solver lists the copies ending at a position inside rows built over
    # all 2^n candidates, live = that position and all before it; restricted
    # to the live levels, a pinned search (first copy or all copies) must walk
    # the same tree as over the compact member list
    rng = Random(8080)
    for n in (4, 5):
        candidates = rng.sample(range(1 << n), 1 << n)
        rels = Relations(candidates)
        for _ in range(60):
            pos = rng.randrange(1, 1 << n)
            sampled = sorted(rng.sample(range(pos), rng.randint(0, min(pos, 12))))
            for chosen in (sampled, list(range(pos))):  # the second: the solver's live set
                kept = (*chosen, pos)
                live = bitset(kept)
                compact_rels = Relations([candidates[c] for c in kept])
                for poset in CLI_PATTERNS:
                    for induced in (False, True):
                        full = find_embedding(rels, live, poset, induced, require_member=pos)
                        compact = find_embedding(compact_rels, compact_rels.full, poset, induced,
                                                 require_member=len(chosen))
                        assert full.status is compact.status
                        assert full.nodes == compact.nodes
                        assert full.embedding == (compact.embedding and tuple(
                            kept[i] for i in compact.embedding))
                        full_copies, compact_copies = {}, {}
                        listed = find_embedding(rels, live, poset, induced, require_member=pos,
                                                copies=full_copies)
                        compact = find_embedding(compact_rels, compact_rels.full, poset, induced,
                                                 require_member=len(chosen), copies=compact_copies)
                        assert (listed.status, listed.nodes, listed.embedding) == (
                            compact.status, compact.nodes,
                            compact.embedding and tuple(kept[i] for i in compact.embedding))
                        assert list(full_copies.items()) == [
                            (bitset(kept[i] for i in bits(b)), tuple(kept[i] for i in emb))
                            for b, emb in compact_copies.items()]


def test_plain_searches_fill_no_inc_entry():
    rng = Random(5151)
    for trial in range(40):
        n = rng.randint(3, 6)
        masks = SetFamily.of(n, random_family_masks(rng, n, 40)).members
        if not masks:
            continue
        poset = CLI_PATTERNS[trial % len(CLI_PATTERNS)]
        rels = Relations(masks)
        find_embedding(rels, rels.full, poset)
        find_embedding(rels, rels.full, poset, require_member=trial % len(masks), copies={})
        assert not built(rels.inc)
        # each row a search built equals the pair loop
        for rows, want in zip((rels.sup, rels.sub), pair_relations(masks)):
            assert all(row == want[i] for i, row in rows.items())


def widest_level(rels: Relations, live: int) -> int:
    return max((level & live).bit_count() for level in rels.levels)


def without_full_centre(masks) -> list[int]:
    """``masks`` less their largest set at a full central rank of B_n', n' the
    largest member's bit length, as long as one is full: the LYM certificate
    cannot settle the width, so the matcher runs."""
    masks = list(masks)
    while masks:
        n = max(masks).bit_length()
        full = [k for k in {n // 2, (n + 1) // 2}
                if sum(x.bit_count() == k for x in masks) == comb(n, k)]
        if not full:
            break
        masks.remove(max(x for x in masks if x.bit_count() == full[0]))
    return masks


def assert_matcher_rows(rels: Relations, live: int, size: int) -> str:
    """The rows an antichain matcher of ``live`` built: the ``sup`` rows of a
    prefix of live in index order, all of live when ``size`` exceeds the
    widest live level, and no ``sub`` or ``inc`` row. "none" when it built no
    row, "stopped" when it took roots and stopped before its last, "all" when
    it took every root."""
    order = list(bits(live))
    filled = built(rels.sup)
    assert filled == order[:len(filled)]
    if size > widest_level(rels, live):
        assert filled == order
    assert not built(rels.sub) + built(rels.inc)
    return "none" if not filled else "stopped" if len(filled) < len(order) else "all"


def test_antichains_fill_only_live_sup_entries(monkeypatch):
    made = []

    class Recorded(Relations):
        def __init__(self, masks):
            super().__init__(masks)
            made.append(self)

    monkeypatch.setattr(containment, "Relations", Recorded)
    rng = Random(5252)
    stopped = []
    for _ in range(40):
        n = rng.randint(1, 6)
        fam = SetFamily.of(n, without_full_centre(random_family_masks(rng, n, 40)))
        size = max_antichain(fam).size
        assert size == kuhn_max_antichain(fam.members)
        rels = made.pop()
        stopped.append(assert_matcher_rows(rels, rels.full, size))
        shared, union = Relations(fam.members), 0
        for _ in range(3):
            bound = rng.randrange(1 << n)
            for antichain, live in ((s_minus, rels.below(bound)), (s_plus, rels.above(bound))):
                fresh = Relations(fam.members)
                stopped.append(assert_matcher_rows(fresh, live, antichain(fresh, bound)))
                antichain(shared, bound)
                union |= live
        assert set(built(shared.sup)) <= set(bits(union))
        assert not built(shared.sub) + built(shared.inc)
    # augmenting paths run, and both ends of the matcher are exercised
    assert {"stopped", "all"} <= set(stopped)


def test_matcher_stops_at_the_widest_level():
    # sizes against the oracles on random families and the three
    # constructions, and against Sperner's widths on bands of full levels; a
    # witness as wide as a level is the highest such level. The random
    # families and a copy of each construction lack a full central rank, so
    # the matcher takes roots; the bands off the centre stop at their widest
    # level after taking roots, those holding it take none (LYM)
    rng = Random(1945)
    families = [SetFamily.of(n, without_full_centre(random_family_masks(rng, n, 12)))
                for n in range(1, 6) for _ in range(12)]
    families += [SetFamily.of(n, without_full_centre(random_family_masks(rng, n, 60)))
                 for n in range(6, 10) for _ in range(4)]
    constructions = [construct_rt(8, 2, 2), construct_rt(9, 2, 3), construct_rst(8, 1, 2, 1),
                     construct_rst(9, 1, 3, 1), construct_rst_induced(8, 1, 2, 1),
                     construct_rst_induced(9, 1, 3, 1)]
    families += constructions
    families += [SetFamily.of(fam.n, without_full_centre(fam.members)) for fam in constructions]
    bands = [(n, j, k) for n in range(1, 10) for k in range(1, n + 2) for j in range(-1, n - k + 1)]
    stops = 0
    for fam in families + [consecutive_levels(*band) for band in bands]:
        rels = Relations(fam.members)
        size, witness = max_antichain(fam, rels)
        widest = widest_level(rels, rels.full)
        n = len(rels.levels) - 1
        certified = widest == comb(n, n // 2)
        assert certified or len(fam) == widest or built(rels.sup)
        if size == widest:
            stops += 1
            top = max(k for k, level in enumerate(rels.levels) if level.bit_count() == size)
            assert witness == tuple(bits(rels.levels[top]))
        if certified:
            assert size == widest and not built(rels.sup)
    assert len(bands) < stops < len(families) + len(bands)
    for fam in families:
        rels = Relations(fam.members)
        oracle = brute_max_antichain if len(fam) <= 12 else kuhn_max_antichain
        assert max_antichain(fam, rels).size == oracle(fam.members)
        full = (1 << fam.n) - 1
        for bound in (0, full, *(rng.randrange(full + 1) for _ in range(3))):
            assert s_minus(rels, bound) == oracle([m for m in fam.members if m & bound == m])
            assert s_plus(rels, bound) == oracle([m for m in fam.members if m & bound == bound])
    for n, j, k in bands:
        fam = consecutive_levels(n, j, k)
        rels = Relations(fam.members)
        sizes = range(j + 1, j + k + 1)
        assert max_antichain(fam, rels).size == max(comb(n, i) for i in sizes)
        # a central level certifies the width and a single level needs no
        # root; any other band takes roots and stops before its last
        if {n // 2, (n + 1) // 2} & {*sizes} or k == 1:
            assert not built(rels.sup)
        else:
            assert 0 < len(built(rels.sup)) < len(fam)
        for bound in range(1 << n) if n <= 4 else rng.sample(range(1 << n), 8):
            d = bound.bit_count()  # the band inside B(bound), and above it in B([n] - bound)
            assert s_minus(rels, bound) == max(comb(d, i) for i in sizes)
            assert s_plus(rels, bound) == max((comb(n - d, i - d) for i in sizes if i >= d),
                                              default=0)
    # a single level is its own widest antichain: no row is built
    for n, k in ((1, 0), (6, 3), (9, 4), (12, 6)):
        rels = Relations(level(n, k).members)
        assert max_antichain(level(n, k), rels) == (comb(n, k), tuple(range(comb(n, k))))
        assert s_minus(rels, (1 << n) - 1) == s_plus(rels, 0) == comb(n, k)
        assert not built(rels.sup) + built(rels.sub) + built(rels.inc)


def planted_centre(rng: Random, n: int) -> list[int]:
    """Every set of B_n at rank n // 2, first, and random sets of the ranks
    that are not central."""
    centre = [x for x in range(1 << n) if x.bit_count() == n // 2]
    others = [x for x in range(1 << n) if x.bit_count() not in (n // 2, (n + 1) // 2)]
    return centre + rng.sample(others, rng.randint(0, min(len(others), 12)))


def test_lym_certificate_matches_the_oracles():
    # a full central level settles the width before any root; less one
    # central set, the matcher runs. Sizes against kuhn (and brute force on
    # small families); the witness is the highest widest level either way
    rng = Random(1966)
    for n in range(2, 9):
        for _ in range(6):
            planted = planted_centre(rng, n)
            for masks in (planted, planted[1:]):
                fam = SetFamily.of(n, masks)
                rels = Relations(fam.members)
                size, witness = max_antichain(fam, rels)
                assert size == kuhn_max_antichain(fam.members)
                if len(fam) <= 14:
                    assert size == brute_max_antichain(fam.members)
                widest = widest_level(rels, rels.full)
                if size == widest:
                    top = max(k for k, level in enumerate(rels.levels) if level.bit_count() == size)
                    assert witness == tuple(bits(rels.levels[top]))
                if masks is planted:
                    assert size == comb(n, n // 2) and not built(rels.sup)
                else:
                    assert widest < comb(n, n // 2)
                    assert built(rels.sup) or len(fam) == widest


def test_lym_certificate_of_intervals():
    # s_minus(S) over a family holding every subset of S at rank |S| // 2,
    # s_plus(S) over one holding S | T for every T outside S at rank
    # (n - |S|) // 2, plus random sets: the certificate settles each width
    # with no row built, and the sizes agree with the oracles
    rng = Random(1967)
    for n in range(1, 9):
        top = (1 << n) - 1  # a member, so every interval lies in [n]
        for _ in range(8):
            bound = rng.randrange(1 << n)
            d = bound.bit_count()
            extra = rng.sample(range(1 << n), rng.randint(0, min(1 << n, 10)))
            cases = (
                (s_minus, brute_s_minus, comb(d, d // 2), lambda x: x & bound == x,
                 [x for x in range(1 << n) if x & bound == x and x.bit_count() == d // 2]),
                (s_plus, brute_s_plus, comb(n - d, (n - d) // 2), lambda x: x & bound == bound,
                 [bound | x for x in range(1 << n)
                  if not x & bound and x.bit_count() == (n - d) // 2]))
            for antichain, brute, width, inside, centre in cases:
                fam = SetFamily.of(n, [top, *centre, *extra])
                rels = Relations(fam.members)
                live = [x for x in fam.members if inside(x)]
                assert antichain(rels, bound) == width == kuhn_max_antichain(live)
                if len(live) <= 14:
                    assert brute(fam.members, bound) == width
                assert not built(rels.sup)


def test_has_and_tables_wait_for_the_first_above_or_below():
    # an empty domain decides P2 in level 5 of B_10 before any row is read,
    # so neither has nor the chunk tables are built; built by above or below
    # first, they still agree with the per-element loops
    rels = Relations(level(10, 5).members)
    res = find_embedding(rels, rels.full, chain_poset(2))
    assert res.free and res.nodes == 0
    assert not {"has", "_chunks"} & vars(rels).keys()
    rng = Random(1411)
    for n in (1, 8, 9, 17):
        masks = list({rng.getrandbits(n) for _ in range(60)})
        for mask in (0, (1 << n) - 1, 1 << n, *(rng.getrandbits(n + 2) for _ in range(12))):
            for first, loop in (("above", loop_above), ("below", loop_below)):
                rels = Relations(masks)
                got = getattr(rels, first)(mask)
                assert "has" in vars(rels)  # the tables too, unless mask is past the last element
                assert got == loop(rels, mask)


def test_quick_find_fills_few_rows():
    # induced K[1,2,1] in levels 6-8 of B_14 (9,438 members) is found in 4
    # nodes of the first band pin: the bottom's placement reads its sup row,
    # the top's its sub row, the first middle's its inc row (which builds its
    # sup and sub rows), one count-filter cut reads the sup rows of 8 members
    # of level 7 and the last placement reads no row: 12 rows on 10 of the
    # 9,438 members
    fam = consecutive_levels(14, 5, 3)
    assert len(fam) == 9438
    rels = Relations(fam.members)
    res = find_embedding(rels, rels.full, complete_multilevel([1, 2, 1]), induced=True)
    assert res.found and res.nodes == 4
    assert is_copy([fam.members[i] for i in res.embedding], complete_multilevel([1, 2, 1]), True)
    assert len({*rels.sup, *rels.sub, *rels.inc}) <= 10
    assert len(rels.sup) + len(rels.sub) + len(rels.inc) <= 12


def check_copies(masks, poset, induced, member):
    """find_embedding's copy list for ``member`` against brute_copies; returns
    the first-copy search result and the listed copies."""
    rels = Relations(masks)
    res = find_embedding(rels, rels.full, poset, induced, require_member=member)
    copies = {}
    listed = find_embedding(rels, rels.full, poset, induced, require_member=member,
                            copies=copies)
    want = [bitset(combo) for combo in brute_copies(masks, poset, induced, masks[member])]
    assert len(set(want)) == len(want) == len(copies)  # each member set once
    assert set(copies) == set(want)
    for bits, emb in copies.items():
        assert bitset(emb) == bits and len(emb) == poset.size
        assert is_copy([masks[i] for i in emb], poset, induced)
    # the first copy the pinned search reaches heads the list
    assert listed.status is res.status and listed.embedding == res.embedding
    if res.found:
        assert next(iter(copies.items())) == (bitset(res.embedding), res.embedding)
    return res, copies


def test_require_member_matches_brute_force():
    # FOUND exactly when some copy uses the member, and the witness uses it
    from subposet.posets import Poset
    from oracles import random_strict_order

    rng = Random(6061)
    found = 0
    for trial in range(300):
        n = rng.randint(1, 5)
        masks = random_family_masks(rng, n, 9)
        if not masks:
            continue
        if trial % 2:
            poset = CLI_PATTERNS[rng.randrange(len(CLI_PATTERNS))]
        else:
            size = rng.randint(1, 4)
            poset = Poset(size, random_strict_order(rng, size))
        induced = rng.random() < 0.5
        member = rng.randrange(len(masks))
        res, copies = check_copies(masks, poset, induced, member)
        assert res.status in (SearchStatus.FOUND, SearchStatus.FREE)
        assert res.found == brute_contains(masks, poset, induced, using=masks[member])
        assert res.found == bool(copies)
        if res.found:
            found += 1
            assert member in res.embedding and len(set(res.embedding)) == poset.size
            assert is_copy([masks[i] for i in res.embedding], poset, induced)
    assert 30 < found < 270


def test_copies_match_brute_force():
    # every copy through each member, for the CLI patterns and random 3-5
    # element orders; over all members they are all the family's copies
    from subposet.posets import Poset
    from oracles import random_strict_order

    rng = Random(5150)
    listed = 0
    for trial in range(200):
        n = rng.randint(2, 5)
        masks = random_family_masks(rng, n, 10)
        if trial % 2:
            poset = CLI_PATTERNS[trial // 2 % len(CLI_PATTERNS)]
        else:
            size = rng.randint(3, 5)
            poset = Poset(size, random_strict_order(rng, size))
        for induced in (False, True):
            every = set()
            for member in range(len(masks)):
                every |= set(check_copies(masks, poset, induced, member)[1])
            assert every == {bitset(c) for c in brute_copies(masks, poset, induced)}
            listed += len(every)
    assert listed > 1000


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


# (family, pattern widths, induced, nodes, nodes of the reference loop)
GOLDEN_SEARCHES = [
    (construct_rst_induced, (8, 2, 2, 2), (2, 2, 2), True, 520, 6769),
    (construct_rt, (10, 2, 2), (2, 2), True, 513, 16544),
    (construct_rst, (10, 2, 2, 2), (2, 2, 2), False, 1, 210),
]
GOLDEN_IDS = ["rsti8_K222_induced", "rt10_K22_induced", "rst10_K222"]


@pytest.mark.parametrize("build, args, widths, induced, nodes, reference_nodes",
                         GOLDEN_SEARCHES, ids=GOLDEN_IDS)
def test_search_order_node_counts(build, args, widths, induced, nodes, reference_nodes):
    # golden counts: any change to the search order, the pins of the band
    # and fringe phases, or pruning moves them. The count filter drops the
    # candidates whose class-count check fails before they are tried, and the
    # size gaps narrow the domains, so these are below the reference loop's
    # counts (next test)
    res = contains_subposet(build(*args), complete_multilevel(widths), induced)
    assert res.free
    assert res.nodes == nodes


@pytest.mark.parametrize("build, args, widths, induced, nodes, reference_nodes",
                         GOLDEN_SEARCHES, ids=GOLDEN_IDS)
def test_reference_search_node_counts(build, args, widths, induced, nodes, reference_nodes):
    # the same searches on the loop without the schedule and the count
    # filter, which tries every candidate: the counts before the filter
    poset = complete_multilevel(widths)
    with reference_search(poset, induced):
        res = contains_subposet(build(*args), poset, induced)
    assert res.free
    assert res.nodes == reference_nodes


def relabel(family, rng):
    """The family under a random permutation of its ground set."""
    perm = rng.sample(range(family.n), family.n)
    return SetFamily.of(family.n, [sum(1 << perm[e] for e in bits(x)) for x in family.members])


def test_containment_frontier():
    # decided by the size gaps: rsti11 K[2,4,2] stopped at BUDGET after 10^7
    # nodes without them, rsti12 K[2,2,2] took 1,150,684 nodes; a relabelled
    # ground set changes the member order but not the verdict. Either
    # labelling of rsti11 takes about 56,700 nodes with the pinned plans'
    # height order and 141,765 without it, so the budget guards that order
    family = construct_rst_induced(11, 2, 4, 2)
    for fam in (family, relabel(family, Random(7))):
        assert contains_subposet(fam, complete_multilevel([2, 4, 2]), True, 10**5).free
    assert contains_subposet(construct_rst_induced(12, 2, 2, 2),
                             complete_multilevel([2, 2, 2]), True).free


def random_twin_poset(rng):
    """A random strict order on 1-4 vertices, each blown up into 1-3
    interchangeable elements (the first into 2-3), the elements shuffled so
    that classes interleave."""
    from subposet.posets import Poset
    from oracles import random_strict_order

    q = rng.randint(1, 4)
    order = random_strict_order(rng, q, rng.choice([0.3, 0.7]))
    sizes = [rng.randint(2, 3), *(rng.randint(1, 3) for _ in range(q - 1))]
    vertex = [v for v in range(q) for _ in range(sizes[v])]
    rng.shuffle(vertex)
    return Poset(len(vertex), tuple(sum(1 << x for x, u in enumerate(vertex)
                                        if order[v] >> u & 1) for v in vertex))


def test_pinned_plans_keep_class_order():
    # a pinned plan puts the pin first, then the rest by height distance from
    # it, ties in the base order: each class still in class order, and each
    # twin_prev placed before its element, where the class's first element
    # and the pin's next twin (the pin may be any image of its class) have none
    rng = Random(2601)
    for trial in range(300):
        poset = random_twin_poset(rng)
        heights = poset.heights
        for induced in (False, True):
            base = containment._plan_for(poset, induced).order
            for cls in poset.twin_classes:
                plan = containment._plan_for(poset, induced, cls[0])
                order = plan.order
                assert order[0] == cls[0] and sorted(order) == list(range(poset.size))
                far = [abs(heights[e] - heights[cls[0]]) for e in order]
                assert all(far[d] < far[d + 1] or far[d] == far[d + 1]
                           and base.index(order[d]) < base.index(order[d + 1])
                           for d in range(1, poset.size - 1))
                at = {e: d for d, e in enumerate(order)}
                for twins in plan.classes:
                    assert [at[e] for e in twins] == sorted(at[e] for e in twins)
                    for pos, e in enumerate(twins):
                        prev = plan.twin_prev[e]
                        free = pos == 0 or twins[pos - 1] == cls[0]
                        assert prev == (-1 if free else twins[pos - 1])
                        assert prev < 0 or at[prev] < at[e]


def test_plans_name_the_classes_with_unplaced_elements():
    # at every depth the steps, counts, cuts, rises and falls name only the
    # classes with unplaced elements; counts holds each with its unplaced
    # count, the steps pair each with the row kind its elements take towards
    # the element placed (none for an incomparable one, plain), the cuts hold
    # the counts of the classes narrowed, transposed, and rise and fall the
    # classes above and below with their size gaps past 1
    rng = Random(2801)
    posets = [complete_multilevel(widths) for widths in
              ((1, 4, 1), (2, 4, 2), (4, 4), (3, 3), (2, 3, 2), (2, 2, 2), (1, 2, 1))]
    posets += [random_twin_poset(rng) for _ in range(200)]
    for poset in posets:
        classes, above, below = poset.twin_classes, poset.above, poset.below
        for induced in (False, True):
            gaps, _ = size_gaps(poset, induced)
            for first in (None, *(cls[0] for cls in classes)):
                plan = containment._plan_for(poset, induced, first)
                assert plan.classes == classes
                assert all(plan.class_of[e] == ci for ci, cls in enumerate(classes) for e in cls)
                for d, e in enumerate(plan.order):
                    unplaced = Counter(plan.class_of[x] for x in plan.order[d + 1:])
                    assert dict(plan.counts[d]) == unplaced and len(plan.counts[d]) == len(unplaced)
                    kinds = {}
                    for x in plan.order[d + 1:]:
                        k = 0 if above[e] >> x & 1 else 1 if below[e] >> x & 1 else 2
                        if k < 2 or induced:
                            assert kinds.setdefault(plan.class_of[x], k) == k
                    assert dict(plan.steps[d]) == kinds and len(plan.steps[d]) == len(kinds)
                    assert sorted(plan.cuts[d]) == sorted(
                        (ci, unplaced[ci], (1, 0, 2)[k]) for ci, k in kinds.items())
                    ce = plan.class_of[e]
                    assert sorted(plan.rise[d]) == sorted(
                        (ci, gaps[ce][ci]) for ci, k in kinds.items()
                        if k == 0 and gaps[ce][ci] > 1)
                    assert sorted(plan.fall[d]) == sorted(
                        (ci, gaps[ci][ce]) for ci, k in kinds.items()
                        if k == 1 and gaps[ci][ce] > 1)


def test_banded_verdicts_match_brute_force():
    # bands of full levels with residue-class fringes run the fringe and band
    # pins: verdicts and witnesses agree with brute force, plain and induced,
    # under the builder's labels and relabelled
    from subposet.constructions import _banded_family

    rng = Random(2602)
    patterns = CLI_PATTERNS + [complete_multilevel([1, 3]), complete_multilevel([3, 1]),
                               complete_multilevel([2, 1, 2]), chain_poset(4)]
    found = free = 0
    for trial in range(120):
        n = rng.randint(4, 5)
        height = rng.randint(1, 3 if n == 5 else 2)
        family = _banded_family(n, height, rng.randint(0, 2), rng.randint(0, 2), "")
        if trial % 2:
            family = relabel(family, rng)
        poset = patterns[trial % len(patterns)]
        for induced in (False, True):
            res = contains_subposet(family, poset, induced)
            assert res.status in (SearchStatus.FOUND, SearchStatus.FREE)
            assert res.found == brute_contains(family.members, poset, induced), (n, poset)
            if res.found:
                found += 1
                assert is_copy([family.members[i] for i in res.embedding], poset, induced)
            free += res.free
    assert found > 120 and free > 60


def search_gaps(poset, induced):
    """The size gaps of the containment search, {(b, e): gap} over the pairs b < e."""
    class_of = {e: c for c, cls in enumerate(poset.twin_classes) for e in cls}
    gaps, reach = size_gaps(poset, induced)
    pairs = {(b, e): gaps[class_of[b]][class_of[e]]
             for e in range(poset.size) for b in bits(poset.below[e])}
    assert all(g <= reach for g in pairs.values())
    return pairs


def test_size_gaps_follow_the_class_rule():
    # bottom to top, induced: [bottom class >= 2] + antichain_height of each
    # middle class + [top class >= 2 or the class below it a singleton];
    # plain: the steps of a longest chain
    for widths, induced_gap, plain_gap in [((2, 2, 2), 4, 2), ((2, 3, 2), 5, 2),
                                           ((1, 3, 1), 3, 2), ((2, 2), 2, 1),
                                           ((1, 1, 1), 2, 2), ((2, 1, 2), 2, 2),
                                           ((1, 2, 2, 1), 4, 3)]:
        poset = complete_multilevel(widths)
        assert search_gaps(poset, True)[0, poset.size - 1] == induced_gap, widths
        assert search_gaps(poset, False)[0, poset.size - 1] == plain_gap, widths


def test_size_gaps_match_the_definition():
    # each comparable class pair's gap, and the bound, against the heaviest
    # chain over all comparable class pairs, not only covers: the CLI
    # patterns and random orders of 1-8 elements, plain and induced
    from subposet.posets import Poset
    from oracles import random_strict_order

    rng = Random(3030)
    posets = CLI_PATTERNS + [Poset(size := rng.randint(1, 8),
                                   random_strict_order(rng, size, rng.choice([0.2, 0.4, 0.8])))
                             for _ in range(300)]
    wide = 0
    for poset in posets:
        for induced in (False, True):
            gaps, reach = size_gaps(poset, induced)
            want, bound = gaps_by_definition(poset, induced)
            assert {pair: gaps[pair[0]][pair[1]] for pair in want} == want, (poset, induced)
            assert reach == bound, (poset, induced)
            wide += bound > 2
    assert wide > 100


def test_size_gaps_hold_in_every_copy():
    # no gap exceeds the least size difference over all copies in B_5:
    # random orders of 1-5 elements and the CLI patterns, plain and induced
    from subposet.posets import Poset
    from oracles import random_strict_order

    rng = Random(2024)
    posets = CLI_PATTERNS + [Poset(size := rng.randint(1, 5),
                                   random_strict_order(rng, size, rng.choice([0.4, 0.8])))
                             for _ in range(200)]
    checked = wide = 0
    for poset in posets:
        for induced in (False, True):
            least = min_size_gaps(poset, induced, 5)
            for pair, gap in search_gaps(poset, induced).items():
                if least[pair] is not None:
                    assert gap <= least[pair], (poset, induced, pair)
                    checked += 1
                    wide += gap > 1
    assert checked > 900 and wide > 300


def test_size_gaps_past_the_windows():
    # induced K[3,3,3,3,3,3] has a bottom-to-top gap of 14, and in B_7 every
    # element's domain holds sets: the band pins put a bottom element on ∅,
    # {1} and {1,2}, and the last reads the size window at 2 + 14, past the
    # record's 8 entries and 8 zeros of padding
    poset = complete_multilevel([3] * 6)
    assert size_gaps(poset, True)[1] == 14
    res = contains_subposet(consecutive_levels(7, -1, 8), poset, True)
    assert res.free and res.nodes == 3


def test_size_gaps_are_realised():
    # induced, each gap is the least size difference of some copy, once B_h
    # has room: K[2,2,2] bottom to top {1}, {1,2,3}, {1,2,3,4,5}
    for widths, h in [((2, 2, 2), 6), ((2, 3, 2), 7), ((1, 3, 1), 3), ((2, 2), 4)]:
        poset = complete_multilevel(widths)
        assert search_gaps(poset, True) == min_size_gaps(poset, True, h), widths


def test_search_matches_reference_loop():
    # random families at n <= 6 and bands plus fringes at n = 6-7, random
    # orders of 1-6 elements and the CLI patterns, plain and induced, over
    # all members or a live subset, unpinned (band and fringe pins where the
    # family has a full level) and pinned, first copy or all copies, under
    # budgets from 0 to unbounded
    from subposet.posets import Poset
    from oracles import random_strict_order

    rng = Random(9191)
    fewer = budget_hits = 0
    for trial in range(400):
        if trial % 4:
            n = rng.randint(1, 6)
            masks = random_family_masks(rng, n, 40)
        else:
            n = rng.randint(6, 7)
            ks = rng.sample(range(1, n), rng.randint(1, 2))
            masks = sorted({x for x in range(1 << n) if x.bit_count() in ks}
                           | set(rng.sample(range(1 << n), rng.randint(0, 8))))
        if not masks:
            continue
        poset = (CLI_PATTERNS[trial // 2 % len(CLI_PATTERNS)] if trial % 2 else
                 Poset(size := rng.randint(1, 6), random_strict_order(rng, size)))
        rels = Relations(masks)
        live = rels.full if trial % 3 else rng.randint(1, rels.full)
        for induced in (False, True):
            budget = rng.choice([0, 1, 10, 100, 1000, 10**6])
            searches = [compare_with_reference(rels, live, poset, induced, budget)]
            member = rng.choice(list(bits(live)))
            for listing in (False, True):
                searches.append(compare_with_reference(rels, live, poset, induced, budget,
                                                       member, listing))
            fewer += sum(res.nodes < ref.nodes for res, ref in searches)
            budget_hits += sum(ref.status is SearchStatus.BUDGET for _, ref in searches)
    assert fewer > 80 and budget_hits > 200


def test_deeper_band_verdicts_within_small_budgets():
    # two-level constructions the count filter decides in a few thousand
    # nodes; the loop without it needs 889,098 and 102,736
    res = contains_subposet(construct_rt(11, 3, 3), complete_multilevel([3, 3]), True,
                            budget=100_000)
    assert res.free
    res = contains_subposet(construct_rt(12, 2, 2), named_poset("butterfly"), True,
                            budget=20_000)
    assert res.free


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
    # the frontier constructions, relabelled: the complement of each is free
    # of the dual of the self-dual pattern it avoids (about 0.4 s)
    rng = Random(12)
    for family, widths in ((construct_rt(12, 2, 2), [2, 2]), (construct_rt(14, 3, 3), [3, 3]),
                           (construct_rst_induced(12, 2, 2, 2), [2, 2, 2])):
        mirror = complement_family(relabel(family, rng))
        assert contains_subposet(mirror, dual(complete_multilevel(widths)), True).free


def induced_copy_by_subsets(images, poset):
    """Is image i inside image j exactly where the poset has i < j?"""
    return all((x & y == x) == bool(poset.below[j] >> i & 1)
               for i, x in enumerate(images) for j, y in enumerate(images) if i != j)


def test_planted_copies_are_found():
    # construct_rt(12, 2, 2) is levels 5 and 6 with one residue class of
    # 4-sets and one of 7-sets as fringes, free of induced K[2,2]; one added
    # set completes a copy, placed three ways, and the search must find one
    family = construct_rt(12, 2, 2)
    k22 = complete_multilevel([2, 2])
    assert contains_subposet(family, k22, True).free
    bottom = [m for m in family.members if m.bit_count() == 4]
    top = [m for m in family.members if m.bit_count() == 7]

    def outside(mask, count):
        """The lowest ``count`` elements outside the mask, as one-bit masks."""
        return [1 << e for e in range(12) if not mask >> e & 1][:count]

    # fringe only: two bottom-fringe sets with a 6-set union, a top-fringe
    # set over it, and an added 7-set over it (two sets of one residue class
    # differ in at least two elements)
    a1, a2, b1 = next((a1, a2, b1) for b1 in top
                      for a1, a2 in combinations([a for a in bottom if a & b1 == a], 2)
                      if (a1 & a2).bit_count() == 2)
    fringe = (a1, a2, b1, a1 | a2 | outside(b1, 1)[0])
    # band and fringe: a bottom-fringe set and an added 4-set sharing 3 of
    # its elements, under two 6-sets of the band
    a = bottom[0]
    added = a ^ (a & -a) | outside(a, 1)[0]
    y, z = outside(a | added, 2)
    band = (a, added, a | added | y, a | added | z)
    # across the top of the band: two 5-sets inside a 6-subset of a
    # top-fringe set, under it and under an added 7-set
    b = top[0]
    u = b ^ (b & -b)
    e1, e2 = [1 << e for e in bits(u)][:2]
    across = (u ^ e1, u ^ e2, b, u | outside(b, 1)[0])
    for copy, planted in ((fringe, fringe[3]), (band, band[1]), (across, across[3])):
        assert planted not in family.members and induced_copy_by_subsets(copy, k22)
        assert all(m in family.members for m in copy if m != planted)
        planted_family = SetFamily.of(12, [*family.members, planted])
        res = contains_subposet(planted_family, k22, True)
        assert res.found
        images = [planted_family.members[i] for i in res.embedding]
        assert planted in images and induced_copy_by_subsets(images, k22)


def test_planted_three_level_copies_are_found():
    # construct_rst_induced(12, 2, 2, 2) is levels 4-7 with one residue class
    # of 3-sets and one of 8-sets as fringes, free of induced K[2,2,2]; one
    # added set completes a copy, placed two ways, and the search must find one
    family = construct_rst_induced(12, 2, 2, 2)
    k222 = complete_multilevel([2, 2, 2])
    assert contains_subposet(family, k222, True).free
    bottom = [m for m in family.members if m.bit_count() == 3]
    top = [m for m in family.members if m.bit_count() == 8]

    def outside(mask, count):
        """The lowest ``count`` elements outside the mask, as one-bit masks."""
        return [1 << e for e in range(12) if not mask >> e & 1][:count]

    # band and fringe: a bottom-fringe set and an added 3-set sharing 2 of its
    # elements (two sets of one residue class share at most 1), under two
    # 5-sets and two 7-sets of the band
    a = bottom[0]
    added = a ^ (a & -a) | outside(a, 1)[0]
    y, z = outside(a | added, 2)
    u, v = outside(a | added | y | z, 2)
    band = (a, added, a | added | y, a | added | z, a | added | y | z | u, a | added | y | z | v)
    # across the top of the band: a top-fringe set and an added 8-set over a
    # shared 7-subset, which holds two 6-sets of the band, whose shared
    # 5-subset holds two 4-sets of the band
    c = top[0]
    shared = c ^ (c & -c)
    e1, e2 = [1 << e for e in bits(shared)][:2]
    middle = shared ^ e1 ^ e2
    f1, f2 = [1 << e for e in bits(middle)][:2]
    across = (middle ^ f1, middle ^ f2, shared ^ e1, shared ^ e2, c, shared | outside(c, 1)[0])
    for copy, planted in ((band, band[1]), (across, across[5])):
        assert planted not in family.members and induced_copy_by_subsets(copy, k222)
        assert all(m in family.members for m in copy if m != planted)
        planted_family = SetFamily.of(12, [*family.members, planted])
        res = contains_subposet(planted_family, k222, True)
        assert res.found
        images = [planted_family.members[i] for i in res.embedding]
        assert planted in images and induced_copy_by_subsets(images, k222)


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
        rels = Relations(fam.members)
        bound = rng.randrange(1 << n)
        assert s_minus(rels, bound) == nx_max_antichain([m for m in fam.members if m & bound == m])
        assert s_plus(rels, bound) == nx_max_antichain([m for m in fam.members if m & bound == bound])


def test_live_set_widths_match_oracle():
    # s_minus/s_plus match on the members below/above S read off the has
    # bitsets; at every S they must equal a matching on the filtered list
    rng = Random(4343)
    families = [(6, list(range(64)))]
    for n in (5, 6, 7):
        full = (1 << n) - 1
        for ends in ((), (0,), (full,), (0, full)):
            for _ in range(2):
                masks = list(set(random_family_masks(rng, n, 24)) | set(ends))
                rng.shuffle(masks)
                families.append((n, masks))
        # no member holds element n: every S holding it has nothing above
        families.append((n, [x for x in random_family_masks(rng, n, 24) if not x >> (n - 1)]))
    for n, masks in families:
        rels = Relations(masks)
        assert kuhn_max_antichain(masks) == nx_max_antichain(masks) == max_antichain(
            SetFamily.of(n, masks)).size
        for bound in range(1 << n):
            assert s_minus(rels, bound) == kuhn_max_antichain([m for m in masks if m & bound == m])
            assert s_plus(rels, bound) == kuhn_max_antichain(
                [m for m in masks if m & bound == bound])


def test_s_minus_s_plus():
    assert s_minus(Relations(range(8)), 7) == 3
    assert s_minus(Relations([0, 1]), 0) == 1
    assert s_minus(Relations([1, 2]), 0) == 0
    assert s_plus(Relations(level(4, 2).members), 0b0011) == 1

    rng = Random(13)
    for _ in range(80):
        n = rng.randint(2, 5)
        fam = SetFamily.of(n, random_family_masks(rng, n, 12))
        full = (1 << n) - 1
        bound = rng.randrange(1 << n)
        rels = Relations(fam.members)
        assert s_minus(rels, bound) == brute_s_minus(fam.members, bound)
        assert s_plus(rels, bound) == brute_s_plus(fam.members, bound)
        # duality and the full-set identity
        assert s_plus(rels, bound) == s_minus(Relations(complement_family(fam).members),
                                              full ^ bound)
        assert s_minus(rels, full) == max_antichain(fam).size


def test_threshold_widths_match_the_oracles():
    # s_minus(S, r) and s_plus(S, r) are >= r exactly when the widths are,
    # for every r from 1 to one past the live members: too few live members,
    # a live level of r sets and a matching all answer
    rng = Random(2910)
    answers = Counter()
    for _ in range(60):
        n = rng.randint(1, 8)
        masks = random_family_masks(rng, n, 12)
        rels = Relations(SetFamily.of(n, masks).members)
        for _ in range(4):
            bound = rng.randrange(1 << n)
            for antichain, oracle, live in ((s_minus, brute_s_minus, rels.below(bound)),
                                            (s_plus, brute_s_plus, rels.above(bound))):
                width = oracle(masks, bound)
                for r in range(1, live.bit_count() + 2):
                    assert (antichain(rels, bound, r) >= r) == (width >= r), (masks, bound, r)
                    answers["few" if live.bit_count() < r else
                            "level" if widest_level(rels, live) >= r else "matched"] += 1
    assert min(answers.values()) > 100, answers


def test_threshold_builds_no_more_rows_than_the_width():
    # on fresh records a threshold question takes a prefix of the roots the
    # exact width takes, and fewer when it is settled early: {1} and {2,3}
    # are too few for r = 3, while their width takes both roots; some
    # matchings stop at |live| - matching < r before the width is known
    def rows(antichain, masks, bound, *r):
        rels = Relations(masks)
        antichain(rels, bound, *r)
        return built(rels.sup)

    assert rows(s_minus, [0b001, 0b110], 0b111, 3) == []
    assert rows(s_minus, [0b001, 0b110], 0b111) == [0, 1]
    rng = Random(2911)
    fewer = Counter()
    for _ in range(60):
        n = rng.randint(1, 8)
        fam = SetFamily.of(n, without_full_centre(random_family_masks(rng, n, 40)))
        rels = Relations(fam.members)
        for _ in range(3):
            bound = rng.randrange(1 << n)
            for antichain, live in ((s_minus, rels.below(bound)), (s_plus, rels.above(bound))):
                exact = rows(antichain, fam.members, bound)
                for r in range(1, live.bit_count() + 2):
                    some = rows(antichain, fam.members, bound, r)
                    assert some == exact[:len(some)]
                    fewer["matched" if some else "none"] += len(some) < len(exact)
    assert fewer["none"] > 100 and fewer["matched"] > 100, fewer


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
        ((1, 2, 2, 1), 10),
        ((1, 2, 1, 2, 1), 11),
        ((2, 1, 2, 2), 11),
        ((2, 2, 2, 2), 14),
        ((1, 3, 3, 1), 14),
    ]
    for widths, n in cases:
        want = induced_free_levels(widths)
        assert n >= want + sum(widths)
        got = empirical_free_levels(complete_multilevel(widths), True, n, want + 1)
        assert got == want, f"widths {widths}: empirical {got} != formula {want}"
