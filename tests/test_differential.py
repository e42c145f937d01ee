"""Property-based differential tests of the search engines against the
brute-force oracles (skipped when hypothesis is not installed)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from subposet.chains import (
    count_pairs_enumerated,
    min_max_partition,
    min_r_partition,
    minr_maxt_partition,
)
from subposet.containment import SearchStatus, _member_relations, contains_subposet, max_antichain
from subposet.lattice import SetFamily
from subposet.posets import Poset
from subposet.solver import la_exact

from oracles import (
    brute_contains,
    brute_la,
    comparable,
    pair_relations,
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
def mask_lists(draw, max_n=8, max_size=60):
    """Distinct masks over [n] in any order."""
    n = draw(st.integers(1, max_n))
    return draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=max_size))


@settings(max_examples=300, deadline=None)
@given(mask_lists())
def test_member_relations_match_pair_loop(masks):
    assert _member_relations(masks) == pair_relations(masks)


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


@settings(max_examples=300, deadline=None)
@given(families(), posets(), st.booleans())
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(posets(max_size=3), min_size=1, max_size=2), st.booleans())
def test_la_exact_matches_brute_force(n, patterns, induced):
    res = la_exact(n, patterns, induced)
    assert res.exhausted
    assert res.optimum == brute_la(n, patterns, induced)
    assert res.witness.size == res.optimum
    assert not any(brute_contains(res.witness.members, p, induced) for p in patterns)
