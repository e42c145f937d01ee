"""Property-based differential tests of the search engines against the
brute-force oracles (skipped when hypothesis is not installed)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from subposet.containment import SearchStatus, contains_subposet
from subposet.lattice import SetFamily
from subposet.posets import Poset
from subposet.solver import la_exact

from oracles import brute_contains, brute_la, comparable, strictly_less


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
