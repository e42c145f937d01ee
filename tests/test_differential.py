"""Property-based differential tests of the search engines against the
brute-force oracles (skipped when hypothesis is not installed)."""

from math import comb
from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from subposet.chains import (
    count_pairs_enumerated,
    min_max_partition,
    min_r_partition,
    minr_maxt_partition,
)
from subposet.containment import (
    Relations,
    SearchStatus,
    _initial_domains,
    _plan_for,
    _search,
    contains_subposet,
    find_embedding,
    max_antichain,
)
from subposet.lattice import SetFamily, parse_family, set_str
from subposet.posets import Poset, chain_poset, complete_multilevel, named_poset
from subposet.solver import la_exact

from oracles import (
    brute_contains,
    brute_copies,
    brute_la,
    comparable,
    compare_with_reference,
    doll_walk_la,
    eager_rows,
    has_reference,
    is_copy,
    levels_reference,
    pair_relations,
    parse_family_reference,
    parse_outcome,
    random_strict_order,
    read_rows,
    strictly_less,
    walk_pairs,
    walk_partition,
)


@st.composite
def posets(draw, max_size=4):
    """Any strict order on up to max_size elements, closed transitively."""
    below: list[int] = []
    for j in range(draw(st.integers(1, max_size))):
        direct = draw(st.integers(0, (1 << j) - 1))
        closed = direct
        for i in range(j):
            if direct >> i & 1:
                closed |= below[i]
        below.append(closed)
    return Poset(len(below), tuple(below))


@st.composite
def families(draw, max_n=4, max_size=9):
    n = draw(st.integers(1, max_n))
    return SetFamily.of(n, draw(st.sets(st.integers(0, (1 << n) - 1), max_size=max_size)))


@st.composite
def banded_families(draw, max_n=5, max_band=12, max_extras=4):
    """Full levels of B_n (at most max_band sets in all), maybe one set short
    of full, plus a few extra sets."""
    n = draw(st.integers(1, max_n))
    ks = draw(st.sets(st.integers(0, n)).filter(
        lambda ks: sum(comb(n, k) for k in ks) <= max_band))
    band = {x for x in range(1 << n) if x.bit_count() in ks}
    if band and draw(st.booleans()):
        band.remove(draw(st.sampled_from(sorted(band))))
    extras = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=max_extras))
    return SetFamily.of(n, band | extras)


@st.composite
def mask_lists(draw, max_n=8, max_size=60):
    """Distinct masks over [n] in any order."""
    n = draw(st.integers(1, max_n))
    return draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=max_size))


MIDDLE_OUT_6 = sorted(range(1 << 6), key=lambda m: (abs(2 * m.bit_count() - 6), m.bit_count(), m))


@settings(max_examples=300, deadline=None)
@given(mask_lists())
@example(MIDDLE_OUT_6)  # the solver's candidate order
@example(MIDDLE_OUT_6[::-1])
def test_member_relations_match_pair_loop(masks):
    rels = Relations(masks)
    assert rels.levels == levels_reference(masks)
    assert read_rows(rels) == pair_relations(masks)


@st.composite
def row_reads(draw):
    """Distinct masks and reads (member, kind) of their rows, kind 0 sup, 1
    sub, 2 inc, in any order, repeated or not, over any subset of the members."""
    masks = draw(mask_lists())
    member = st.integers(0, len(masks) - 1) if masks else st.nothing()
    return masks, draw(st.lists(st.tuples(member, st.integers(0, 2)), max_size=2 * len(masks)))


@settings(max_examples=300, deadline=None)
@given(row_reads())
@example(([], []))
@example(([0], [(0, 2)]))
@example(([1, 0], [(1, 0), (0, 2), (1, 1)]))
def test_rows_read_in_any_order_match_pair_loop(case):
    # a read builds the entry read and no other (an inc entry also the sup
    # and sub entries it is made from); every entry equals the pair loop and
    # the whole-list rows whatever was read before
    masks, reads = case
    rels = Relations(masks)
    assert rels.has == has_reference(masks)
    want = pair_relations(masks)
    assert eager_rows(rels) == want
    kinds = rels.sup, rels.sub, rels.inc
    read = [set(), set(), set()]
    for i, k in reads:
        assert kinds[k][i] == want[k][i]
        read[k].add(i)
    read[0] |= read[2]
    read[1] |= read[2]
    for rows, want_rows, members in zip(kinds, want, read):
        assert rows == {i: want_rows[i] for i in members}


@settings(max_examples=150, deadline=None)
@given(families(max_n=6, max_size=16), st.integers(1, 3), st.integers(1, 3))
def test_partitions_match_chain_walk(family, r, t):
    assert count_pairs_enumerated(family) == walk_pairs(family)
    width = max_antichain(family).size
    reports = [(("minmax",), min_max_partition(family))]
    if width >= r:
        reports.append((("minr", r), min_r_partition(family, r)))
    if r == 1 or width >= max(r, t):
        reports.append((("minrmaxt", r, t), minr_maxt_partition(family, r, t)))
    for args, rep in reports:
        assert (rep.chain_counts, rep.pair_counts) == walk_partition(family, *args)


@settings(max_examples=500, deadline=None)
@given(st.one_of(families(), banded_families()), posets(), st.booleans())
def test_contains_matches_brute_force(family, poset, induced):
    res = contains_subposet(family, poset, induced)
    assert res.status in (SearchStatus.FOUND, SearchStatus.FREE)
    assert res.found == brute_contains(family.members, poset, induced)
    if res.found:
        images = [family.members[i] for i in res.embedding]
        assert len(set(res.embedding)) == poset.size
        for i in range(poset.size):
            for j in range(poset.size):
                if poset.less(i, j):
                    assert strictly_less(images[i], images[j])
                elif induced and i != j and not poset.less(j, i):
                    assert not comparable(images[i], images[j])


@settings(max_examples=300, deadline=None)
@given(families(max_n=5), posets(max_size=5), st.booleans(), st.data())
def test_copies_through_a_member_match_brute_force(family, poset, induced, data):
    masks = family.members
    if not masks:
        return
    member = data.draw(st.integers(0, len(masks) - 1))
    rels = Relations(masks)
    copies = {}
    res = find_embedding(rels, rels.full, poset, induced, require_member=member, copies=copies)
    want = [sum(1 << i for i in c) for c in brute_copies(masks, poset, induced, masks[member])]
    assert len(copies) == len(want) and set(copies) == set(want)
    for bits, emb in copies.items():
        assert sum(1 << i for i in emb) == bits and is_copy([masks[i] for i in emb], poset, induced)
    first = find_embedding(rels, rels.full, poset, induced, require_member=member)
    assert (res.status, res.embedding) == (first.status, first.embedding)
    assert first.embedding is None or sum(1 << i for i in first.embedding) in copies


def test_band_and_fringe_pins_match_unpinned_search():
    # families of full levels plus extra sets at n = 6-7, too large for brute
    # force: the pinned driver must agree with one unpinned search
    rng = Random(7171)
    patterns = [complete_multilevel([2, 2]), complete_multilevel([1, 2, 1]),
                complete_multilevel([2, 2, 2]), named_poset("vee"), named_poset("wedge"),
                chain_poset(3)]
    found = free = 0
    for trial in range(300):
        n = rng.randint(6, 7)
        ks = rng.sample(range(n + 1), rng.randint(1, 2))
        masks = {x for x in range(1 << n) if x.bit_count() in ks}
        if trial % 3 == 0 and len(masks) > 1:  # one set short of full: that level is fringe
            masks.remove(rng.choice(sorted(masks)))
        masks |= set(rng.sample(range(1 << n), rng.randint(0, 8)))
        family = SetFamily.of(n, masks)
        poset = patterns[trial % len(patterns)] if trial % 4 else Poset(
            5, random_strict_order(rng, 5))
        for induced in (False, True):
            rels = Relations(family.members)
            assert rels.levels == levels_reference(family.members)
            want, _, _ = _search(rels, _plan_for(poset, induced),
                                 _initial_domains(rels.levels, poset), 10**7)
            res = contains_subposet(family, poset, induced)
            assert res.status is want
            if res.found:
                found += 1
                assert is_copy([family.members[i] for i in res.embedding], poset, induced)
            else:
                free += 1
    assert found > 40 and free > 40


@settings(max_examples=300, deadline=None)
@given(st.one_of(families(max_n=6, max_size=30), banded_families(max_n=7, max_band=40)),
       posets(max_size=6), st.booleans(), st.sampled_from([0, 3, 50, 10**6]), st.data())
def test_search_matches_reference_loop(family, poset, induced, budget, data):
    # the schedule and the count filter change no verdict, witness or copy
    # list, only drop nodes, unpinned, pinned and listing all copies
    if not family.members:
        return
    rels = Relations(family.members)
    compare_with_reference(rels, rels.full, poset, induced, budget)
    member = data.draw(st.integers(0, rels.full.bit_length() - 1))
    listing = data.draw(st.booleans())
    compare_with_reference(rels, rels.full, poset, induced, budget, member, listing)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(posets(max_size=3), min_size=1, max_size=2), st.booleans())
def test_la_exact_matches_brute_force(n, patterns, induced):
    res = la_exact(n, patterns, induced)
    assert res.exhausted
    assert res.optimum == brute_la(n, patterns, induced)
    assert res.witness.size == res.optimum
    assert not any(brute_contains(res.witness.members, p, induced) for p in patterns)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.lists(posets(max_size=3), min_size=1, max_size=2), st.booleans(),
       st.one_of(st.none(), st.integers(0, 80)), st.booleans())
def test_la_exact_walks_as_the_three_phase_oracle(n, patterns, induced, budget, break_symmetry):
    # one-element patterns too: every set is then a copy of its own
    res = la_exact(n, patterns, induced, budget=budget, break_symmetry=break_symmetry)
    got = (res.optimum, res.witness.members, res.nodes_explored, res.exhausted)
    assert got == doll_walk_la(n, patterns, induced, budget, break_symmetry)[:4]


@st.composite
def family_texts(draw, max_n=14):
    """Family file texts near the format: a header (maybe odd or missing),
    valid set lines, and up to three lines that are malformed, unsorted,
    repeated, padded, out of range, non-ASCII or noise, with LF or CRLF
    line ends."""
    n = draw(st.integers(1, max_n))
    header = draw(st.sampled_from([f"n={n}"] * 5 + [f" n={n}\t", f"n=0{n}", "n=0", "n=25", "{1}",
                                                     "# h", ""]))
    lines = [set_str(m) for m in draw(st.lists(st.integers(0, (1 << n) - 1), unique=True,
                                               max_size=30))]
    token = st.one_of(st.integers(0, n + 1).map(str),
                      st.sampled_from(["01", "\u0661", " 2", "", "+1"]))
    odd = st.one_of(
        st.lists(token, max_size=5).map(lambda ts: "{" + ",".join(ts) + "}"),
        st.lists(st.integers(1, n), min_size=2, max_size=4).map(
            lambda es: "{" + ",".join(map(str, es)) + "}"),
        st.text("{},0123456789 #n=\u0661", max_size=8),
        st.sampled_from(["", "# c", "  ", "{}"]),
        st.sampled_from(lines) if lines else st.just("{}"),
    )
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join([header] + lines)


@settings(max_examples=500, deadline=None)
@given(family_texts())
def test_parse_family_matches_reference_reader(text):
    assert parse_outcome(parse_family, text) == parse_outcome(parse_family_reference, text)
