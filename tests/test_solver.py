"""Exact solver: known optima, oracle agreement, budgets, certification."""

import pytest
from random import Random

from subposet.constructions import construct_rst
from subposet.containment import BudgetExceededError, contains_any, contains_subposet
from subposet.lattice import SetFamily, sigma
from subposet.posets import chain_poset, complete_multilevel, named_poset
from subposet.solver import FreenessError, certified_lower_bound, la_exact

from oracles import brute_la


def test_known_optima_small():
    assert la_exact(3, [chain_poset(2)]).optimum == 3
    assert la_exact(3, [named_poset("vee"), named_poset("wedge")]).optimum == 4
    assert la_exact(2, [chain_poset(3)]).optimum == 3


def test_solver_result_contract():
    res = la_exact(3, [chain_poset(2)])
    assert res.exhausted
    assert res.witness.size == res.optimum
    assert contains_subposet(res.witness, chain_poset(2)).free
    # local maximality: no single unused set extends the witness
    used = res.witness.member_set
    for extra in range(1 << 3):
        if extra in used:
            continue
        extended = SetFamily.of(3, list(res.witness) + [extra])
        assert contains_subposet(extended, chain_poset(2)).found


def test_agrees_with_naive_enumeration():
    for poset in (chain_poset(2), named_poset("vee")):
        for induced in (False, True):
            res = la_exact(3, [poset], induced=induced)
            assert res.exhausted
            assert res.optimum == brute_la(3, [poset], induced)


def test_solver_node_counts():
    # golden include-attempt counts: any change to the walk order or the
    # bound moves them
    res = la_exact(5, [chain_poset(2)])
    assert (res.optimum, res.nodes_explored, res.exhausted) == (10, 68459, True)
    res = la_exact(4, [named_poset("butterfly")])
    assert (res.optimum, res.nodes_explored, res.exhausted) == (10, 3350, True)


def test_chain_optima_match_middle_level_sums():
    for n in range(1, 5):
        for k in range(1, 4):
            res = la_exact(n, [chain_poset(k + 1)])
            assert res.exhausted
            # k middle levels are optimal while a (k+1)-chain fits at all;
            # beyond that the whole lattice is already free
            want = sigma(n, k) if k <= n else 1 << n
            assert res.optimum == want


def test_monotone_in_forbidden_list():
    lists = [
        [chain_poset(3)],
        [chain_poset(3), named_poset("vee")],
        [chain_poset(3), named_poset("vee"), named_poset("wedge")],
        [chain_poset(3), named_poset("vee"), named_poset("wedge"), chain_poset(2)],
    ]
    values = [la_exact(4, posets).optimum for posets in lists]
    assert values == sorted(values, reverse=True)


def la_vs_la_star(n, poset):
    """Optimum of the plain and of the induced problem for one pattern."""
    return (la_exact(n, [poset], induced=False, max_n=4),
            la_exact(n, [poset], induced=True, max_n=4))


def test_induced_at_least_plain():
    for poset in (chain_poset(2), chain_poset(3), complete_multilevel([2, 2])):
        plain, star = la_vs_la_star(3, poset)
        assert plain.exhausted and star.exhausted
        assert plain.optimum <= star.optimum
    # chains have identical plain and induced containment in families
    plain, star = la_vs_la_star(4, chain_poset(3))
    assert (plain.optimum, star.optimum) == (10, 10)


def test_budget_gives_lower_bound():
    res = la_exact(4, [chain_poset(2)], budget=5)
    assert not res.exhausted
    assert res.optimum <= 6
    assert contains_subposet(res.witness, chain_poset(2)).free


def test_break_symmetry_same_optimum():
    for posets in ([chain_poset(2)], [complete_multilevel([2, 2])]):
        plain = la_exact(4, posets)
        broken = la_exact(4, posets, break_symmetry=True)
        assert plain.optimum == broken.optimum
        assert broken.nodes_explored <= plain.nodes_explored


def test_solver_guards():
    with pytest.raises(ValueError):
        la_exact(6, [chain_poset(2)])
    with pytest.raises(ValueError):
        la_exact(3, [])
    res = la_exact(5, [chain_poset(2)], max_n=5)
    assert res.optimum == 10  # middle binomial of 5


def test_certified_lower_bound():
    fam = construct_rst(10, 1, 2, 1)
    diamond = complete_multilevel([1, 2, 1])
    assert certified_lower_bound(fam, [diamond]) == sigma(10, 2)
    assert certified_lower_bound(SetFamily.of(4, []), [chain_poset(2)]) == 0
    bad = SetFamily.of(3, [0, 1])
    with pytest.raises(FreenessError) as err:
        certified_lower_bound(bad, [chain_poset(2)])
    assert err.value.poset_index == 0
    images = [bad.members[i] for i in err.value.embedding]
    assert images[0] != images[1] and images[0] & images[1] == images[0]


def test_certified_lower_bound_budget():
    fam = SetFamily.of(4, range(16))
    with pytest.raises(BudgetExceededError):
        certified_lower_bound(fam, [complete_multilevel([2, 3, 2])], budget=1)


def test_random_instances_match_oracle():
    rng = Random(77)
    patterns = [chain_poset(2), chain_poset(3), named_poset("vee"), complete_multilevel([2, 2])]
    for _ in range(6):
        poset = patterns[rng.randrange(len(patterns))]
        induced = rng.random() < 0.5
        res = la_exact(3, [poset], induced=induced)
        assert res.exhausted
        assert res.optimum == brute_la(3, [poset], induced)
        assert contains_any(res.witness, [poset], induced).free
