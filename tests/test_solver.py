"""Exact solver: known optima, oracle agreement, budgets, certification."""

import json

import pytest
from itertools import combinations
from random import Random

from subposet import cli, solver
from subposet.constructions import construct_rst
from subposet.containment import (BudgetExceededError, SearchResult, SearchStatus,
                                  contains_subposet)
from subposet.lattice import SetFamily, level, sigma
from subposet.posets import Poset, chain_poset, complete_multilevel, named_poset, signature_str
from subposet.solver import FreenessError, certified_lower_bound, la_exact

from test_solve_pool import solve_pool
from oracles import (brute_contains, brute_la, brute_suffix_la, doll_walk_la, milp_la,
                     pascal, symmetric_chains, walk_la)

CLI_PATTERNS = [named_poset("vee"), named_poset("wedge"), named_poset("butterfly"),
                chain_poset(2), chain_poset(3), complete_multilevel([1, 2, 1]),
                complete_multilevel([2, 2])]


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
    # golden include-attempt counts of both phases: any change to the
    # walk order or the bounds moves them (the "chosen + remaining" walk took
    # 68,459 and 3,350; the suffix bounds alone 16,863 for P2, which Erdős's
    # bound now proves once the first path holds its C(5, 2) = 10 sets)
    res = la_exact(5, [chain_poset(2)])
    assert (res.optimum, res.nodes_explored, res.exhausted) == (10, 10, True)
    res = la_exact(4, [named_poset("butterfly")])
    assert (res.optimum, res.nodes_explored, res.exhausted) == (10, 911, True)


class CountedCopy(int):
    """A listed copy's bitset that stays one through ``^`` and ``&`` and
    counts its truth tests: the walk's test of a copy against the chosen
    positions. The first path tests plain ints (``best``'s complement ANDs
    the copy), so its tests are not counted."""

    tests = 0

    def __xor__(self, other):
        return CountedCopy(int(self) ^ other)

    def __and__(self, other):
        return CountedCopy(int(self) & other)

    def __bool__(self):
        CountedCopy.tests += 1
        return int(self) != 0


def test_attempts_test_the_lowest_copies_first(monkeypatch):
    # a golden count of the walk's copy tests (bitset tests of one copy
    # against the chosen positions): the walk keeps its earliest choices
    # longest, so a blocked attempt that reads its copies lowest position
    # first meets the blocking one early; read highest first, the same 911
    # attempts make 5,574 walk tests. The first path's 16 attempts add 12
    # tests, so counted over all 911 attempts it is 2,704 against 5,586
    listing = solver.find_embedding

    def counted_listing(*args, copies, **kwargs):
        res = listing(*args, copies=copies, **kwargs)
        listed = list(copies.items())
        copies.clear()
        copies.update((CountedCopy(copy), images) for copy, images in listed)
        return res

    monkeypatch.setattr(solver, "find_embedding", counted_listing)
    monkeypatch.setattr(CountedCopy, "tests", 0)
    res = la_exact(4, [named_poset("butterfly")])
    assert (res.optimum, res.nodes_explored, CountedCopy.tests) == (10, 911, 2692)


@pytest.mark.parametrize("posets, induced, optimum, attempts", [
    ([chain_poset(3)], False, 20, 20),
    ([named_poset("butterfly")], False, 20, 108797),
    ([complete_multilevel([2, 2])], True, 24, 40961),
])
def test_n5_optima_are_proven(posets, induced, optimum, attempts):
    # La(5, P3), La(5, butterfly) and La*(5, K[2,2]); the "chosen + remaining"
    # walk needed 1,886,616, 2,321,288 and 679,114 attempts, and the suffix
    # bounds alone 159,966 for P3, which Erdős's bound proves on the first
    # path, one attempt per member
    res = la_exact(5, posets, induced)
    assert (res.optimum, res.nodes_explored, res.exhausted) == (optimum, attempts, True)
    assert all(contains_subposet(res.witness, poset, induced).free for poset in posets)


def test_n6_induced_k33_is_proven():
    # La*(6, K[3,3]) = 55, as HiGHS gives; about 0.5 s of walk
    k33 = complete_multilevel([3, 3])
    res = la_exact(6, [k33], True)
    assert (res.optimum, res.nodes_explored, res.exhausted) == (55, 1220263, True)
    assert contains_subposet(res.witness, k33, True).free


def test_diamond_free_family_beats_two_middle_levels_at_n6():
    # La(6, diamond) >= 36 > sigma(6, 2) = 35: all 2-sets but {1,2}, the
    # 3-sets holding {1,2} or inside {3,4,5,6}, and all 4-sets but {3,4,5,6};
    # the paper's bounds are asymptotic, so this does not contradict them
    def mask(elements):
        return sum(1 << e - 1 for e in elements)

    sets = [set(c) for size in (2, 3, 4) for c in combinations(range(1, 7), size)]
    family = SetFamily.of(6, [mask(c) for c in sets if c not in ({1, 2}, {3, 4, 5, 6})
                              and (len(c) != 3 or {1, 2} <= c or c <= {3, 4, 5, 6})])
    diamond = complete_multilevel([1, 2, 1])
    assert family.size == 36 > sigma(6, 2)
    assert contains_subposet(family, diamond).free
    assert not brute_contains(family.members, diamond, False)


def test_chain_optima_match_middle_level_sums():
    # k middle levels are optimal while a (k+1)-chain fits at all (Erdős
    # 1945), plain and induced; beyond that the whole lattice is already
    # free. The middle-out first path reaches them, one attempt per member,
    # and Erdős's bound proves them there (k = 0: the empty family, at once)
    for n in range(1, 9):
        for k in range(4):
            for induced in (False, True):
                res = la_exact(n, [chain_poset(k + 1)], induced)
                want = sigma(n, k) if k <= n else 1 << n
                assert (res.optimum, res.nodes_explored, res.exhausted) == (want, want, True)
                assert contains_subposet(res.witness, chain_poset(k + 1), induced).free


@pytest.mark.parametrize("n", [10, 12])
def test_chain_solves_end_at_the_bound(n):
    # the first path's middle levels meet Erdős's bound as they are reached,
    # so La(n, P_k) is proven in one attempt per member, plain and induced
    for k in (2, 3, 4):
        for induced in (False, True):
            res = la_exact(n, [chain_poset(k)], induced)
            want = sigma(n, k - 1)
            assert (res.optimum, res.nodes_explored, res.exhausted) == (want, want, True)
            middle = sorted(range(n + 1), key=lambda size: (abs(2 * size - n), size))[:k - 1]
            assert {m.bit_count() for m in res.witness.members} == set(middle)


@pytest.mark.parametrize("n", range(11))
def test_symmetric_chains_decompose_the_lattice(n):
    chains = symmetric_chains(n)
    sets = [mask for chain in chains for mask in chain]
    assert sorted(sets) == list(range(1 << n))
    for chain in chains:
        assert all(lo | hi == hi and (hi ^ lo).bit_count() == 1
                   for lo, hi in zip(chain, chain[1:]))
        assert chain[0].bit_count() + chain[-1].bit_count() == n
    assert len(chains) == pascal(n, n // 2)
    for cap in range(n + 1):
        assert sum(min(len(chain), cap) for chain in chains) == sigma(n, cap)


def test_erdos_bound_skips_induced_non_chain_patterns():
    # an induced copy of a pattern with an incomparable pair fits in no chain,
    # so these walk both phases: a cap of |P| - 1 sets per chain would
    # bound La*(3, two incomparable sets) by C(3, 1) = 3 below its optimum, the
    # 4 sets of a full chain; with P3 also forbidden the bound takes its cap
    # from P3 and the first path is proven
    res = la_exact(3, [complete_multilevel([2])], induced=True)
    assert (res.optimum, res.nodes_explored, res.exhausted) == (4, 30, True)
    res = la_exact(2, [named_poset("vee")], induced=True)
    assert (res.optimum, res.nodes_explored, res.exhausted) == (3, 13, True)
    k22 = complete_multilevel([2, 2])
    res = la_exact(4, [k22], induced=True)
    assert (res.optimum, res.nodes_explored, res.exhausted) == (14, 220, True)
    res = la_exact(4, [chain_poset(3), k22], induced=True)
    assert (res.optimum, res.nodes_explored, res.exhausted) == (10, 10, True)


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
    return la_exact(n, [poset], induced=False), la_exact(n, [poset], induced=True)


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


POOL_PATTERN_SETS = sorted({(tuple(widths for _, widths in job["patterns"]), job["induced"])
                            for job in solve_pool().values()})


@pytest.mark.parametrize("n", [4, 5])
def test_capped_solves_never_lose_a_family(n):
    # a larger budget walks the same attempts and then more, and best only
    # grows, so the optimum never falls as the budget grows and never passes
    # the exhausted one (budget None, last); every witness is free
    for widths, induced in POOL_PATTERN_SETS:
        posets = [complete_multilevel(w) for w in widths]
        optima, checked = [], set()
        for budget in (0, 3, 30, 300, 3000, 30000, None):
            res = la_exact(n, posets, induced, budget)
            optima.append(res.optimum)
            if res.witness.members not in checked:
                checked.add(res.witness.members)
                assert not any(brute_contains(res.witness.members, p, induced) for p in posets)
        assert res.exhausted and optima == sorted(optima)


@pytest.mark.parametrize("induced, budget, optimum", [(False, 3000, 15), (True, 30000, 19)])
def test_capped_solve_returns_a_suffix_walks_larger_family(induced, budget, optimum):
    # K[1,3] at n = 5 (La 16, La* 19): a suffix walk meets a family larger
    # than the first path's (14 and 17 sets) before the budget runs out, and
    # the capped solve returns it, free
    k13 = complete_multilevel([1, 3])
    res = la_exact(5, [k13], induced, budget)
    assert (res.optimum, res.nodes_explored, res.exhausted) == (optimum, budget, False)
    assert not brute_contains(res.witness.members, k13, induced)


@pytest.mark.parametrize("job_id", sorted(solve_pool()))
def test_pool_solves_match_the_ilp_oracle(job_id):
    # every pool row is at n <= 5: an exhausted solve has the optimum of the
    # integer program, and an unexhausted one a family no larger
    job = solve_pool()[job_id]
    assert job["n"] <= 5
    posets = [complete_multilevel(widths) for _, widths in job["patterns"]]
    argv = job["argv"]
    budget = int(argv[argv.index("--budget") + 1]) if "--budget" in argv else None
    res = la_exact(job["n"], posets, job["induced"], budget)
    optimum = len(milp_la(job["n"], posets, job["induced"]))
    assert res.optimum == optimum if res.exhausted else res.optimum <= optimum


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("widths, induced", POOL_PATTERN_SETS)
def test_first_path_ignores_break_symmetry(widths, induced, n, capsys):
    # a budget of 2^n attempts stops the solve where its first path ends: the
    # two-phase oracle's first path, which solve prints with
    # --break-symmetry too, since that flag has no effect
    posets = [complete_multilevel(w) for w in widths]
    res = la_exact(n, posets, induced, budget=1 << n)
    got = (res.witness.members, res.nodes_explored)
    assert got == doll_walk_la(n, posets, induced, 1 << n)[1:3]
    argv = ["solve", str(n), "--budget", str(1 << n), "--break-symmetry"]
    argv += [arg for w in widths for arg in ("--poset", signature_str(w))]
    cli.main(argv + ["--induced"] * induced)
    assert json.loads(capsys.readouterr().out)["payload"] == res.payload()


def test_solver_guards():
    with pytest.raises(ValueError):
        la_exact(3, [])
    res = la_exact(5, [chain_poset(2)])
    assert res.optimum == 10  # middle binomial of 5
    # no soft cap on n here: the n <= 5 default is the command line's (solve --cap)
    res = la_exact(6, [chain_poset(2)])
    assert (res.optimum, res.nodes_explored, res.exhausted) == (20, 20, True)


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


def test_certified_lower_bound_over_patterns():
    vee, wedge = named_poset("vee"), named_poset("wedge")
    with pytest.raises(FreenessError) as err:
        certified_lower_bound(SetFamily.of(2, range(4)), [vee, wedge])
    assert err.value.poset_index == 0
    assert certified_lower_bound(level(4, 2), [vee, wedge]) == 6
    fam = SetFamily.of(2, [0, 1, 2])  # {}, {1}, {2}
    assert contains_subposet(fam, wedge).free
    assert certified_lower_bound(fam, [wedge]) == 3
    hit = contains_subposet(fam, vee)
    assert hit.found
    with pytest.raises(FreenessError) as err:
        certified_lower_bound(fam, [vee])
    assert err.value.poset_index == 0 and err.value.embedding == hit.embedding


def test_certified_lower_bound_reports_first_hit_and_budget():
    vee, wedge = named_poset("vee"), named_poset("wedge")
    fam = SetFamily.of(2, [0, 1, 2])  # {}, {1}, {2}
    with pytest.raises(FreenessError) as err:
        certified_lower_bound(fam, [wedge, vee, chain_poset(3)])
    assert err.value.poset_index == 1
    assert err.value.embedding == contains_subposet(fam, vee).embedding
    bottom, left, right = (fam.members[i] for i in err.value.embedding)
    assert bottom & left == bottom != left and bottom & right == bottom != right

    # a pattern cut off by the budget makes the verdict BUDGET unless a later
    # pattern is found, and each pattern gets the whole budget
    antichain, wide = level(4, 2), complete_multilevel([4])
    res = contains_subposet(antichain, wide, budget=1)
    assert res.status is SearchStatus.BUDGET and res.embedding is None and res.nodes == 1
    assert contains_subposet(antichain, chain_poset(2), budget=1).free
    with pytest.raises(BudgetExceededError):
        certified_lower_bound(antichain, [wide, chain_poset(2)], budget=1)
    res = contains_subposet(antichain, chain_poset(1), budget=1)
    assert res.found and res.nodes == 1
    with pytest.raises(FreenessError) as err:
        certified_lower_bound(antichain, [wide, chain_poset(1)], budget=1)
    assert err.value.poset_index == 1 and err.value.embedding == res.embedding


def test_random_instances_match_oracle():
    rng = Random(77)
    patterns = [chain_poset(2), chain_poset(3), named_poset("vee"), complete_multilevel([2, 2])]
    for _ in range(6):
        poset = patterns[rng.randrange(len(patterns))]
        induced = rng.random() < 0.5
        res = la_exact(3, [poset], induced=induced)
        assert res.exhausted
        assert res.optimum == brute_la(3, [poset], induced)
        assert contains_subposet(res.witness, poset, induced).free


WALK_CASES = [(n, [poset]) for n in (1, 2, 3) for poset in CLI_PATTERNS]
WALK_CASES += [(4, [poset]) for poset in CLI_PATTERNS if 2 <= poset.size <= 3]
WALK_CASES += [(3, CLI_PATTERNS[:2]), (3, [chain_poset(3), named_poset("butterfly")])]


@pytest.mark.parametrize("induced", [False, True])
@pytest.mark.parametrize("budget", [None, 0, 5, 50])
def test_walk_matches_per_attempt_oracle_walk(budget, induced):
    # the copy lists and the suffix bounds must walk as the recursive two
    # phases with a fresh brute-force search per include attempt: same
    # optimum, witness, attempts and exhausted; a finished walk also keeps the
    # optimum of the "chosen + remaining" walk, with a free witness of that
    # size (a suffix walk may meet another optimal family first)
    for n, posets in WALK_CASES:
        res = la_exact(n, posets, induced, budget=budget)
        got = (res.optimum, res.witness.members, res.nodes_explored, res.exhausted)
        assert got == doll_walk_la(n, posets, induced, budget)[:4]
        if budget is None:
            optimum, _, _, exhausted = walk_la(n, posets, induced)
            assert (got[0], got[3]) == (optimum, exhausted)
            assert res.witness.size == optimum
            assert not any(brute_contains(res.witness.members, p, induced) for p in posets)


def test_suffix_walk_finds_the_optimum_past_the_first_class():
    # the only optimum of induced P3 and "a 2-chain plus two free elements"
    # at n = 4 is levels 1 and 3, away from the first class (level 2, first
    # in the candidate order), so the first path misses it; the suffix walk
    # from level 1's first set finds it, and the walks from the six earlier
    # positions each prove that no 9 sets are free
    posets = [Poset(4, (0, 0, 2, 0)), chain_poset(3)]
    res = la_exact(4, posets, True)
    got = (res.optimum, res.witness.members, res.nodes_explored, res.exhausted)
    assert got == (8, (1, 2, 4, 8, 7, 11, 13, 14), 740, True)
    assert got == doll_walk_la(4, posets, True)[:4]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_suffix_optima_match_brute_force(n):
    # every suffix optimum R[q] phase 2 settles is the largest free family
    # inside candidates[q:], found by deciding every subfamily; phase 2 runs
    # here even where Erdős's bound ends the solve at its root, so the chain
    # patterns' R[q] are checked too
    candidates = sorted(range(1 << n), key=lambda m: (abs(2 * m.bit_count() - n), m.bit_count(), m))
    settled = 0
    for poset in CLI_PATTERNS:
        if n == 4 and not 2 <= poset.size <= 3:
            continue
        for induced in (False, True):
            want = brute_suffix_la(n, [poset], induced)
            if n <= 3:
                assert want == [brute_la(n, [poset], induced, candidates[q:])
                                for q in range(len(candidates) + 1)]
            optimum, _, _, _, suffix_optima = doll_walk_la(n, [poset], induced, root_test=False)
            assert optimum == want[0]
            assert suffix_optima == {q: want[q] for q in suffix_optima}
            settled += len(suffix_optima)
    assert settled >= {1: 2, 2: 30, 3: 82, 4: 116}[n]


PAIRS_OF_4 = (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100)


@pytest.mark.parametrize("k, optimum, attempts, witness", [
    (1, 0, 1, ()), (3, 2, 3, PAIRS_OF_4[:2]), (5, 4, 5, PAIRS_OF_4[:4]),
    (6, 5, 6, PAIRS_OF_4[:5])])
def test_copy_list_budget_ends_the_solve(monkeypatch, k, optimum, attempts, witness):
    # the k-th copy listing runs out of budget: the solve stops unexhausted
    # with the best family so far, and the attempt that asked counts; the
    # first path meets Erdős's bound after its sixth member, so only the
    # first six listings are ever asked for
    calls = []
    search = solver.find_embedding

    def budgeted(*args, **kwargs):
        calls.append(kwargs["require_member"])
        if len(calls) == k:
            return SearchResult(SearchStatus.BUDGET, None, 0)
        return search(*args, **kwargs)

    monkeypatch.setattr(solver, "find_embedding", budgeted)
    res = la_exact(4, [chain_poset(2)])
    assert (res.optimum, res.nodes_explored, res.exhausted) == (optimum, attempts, False)
    assert res.witness.members == witness
