"""Independent brute-force oracles shared across the test suite.

Everything here recomputes results from first principles (Pascal recurrence,
full subset enumeration, all injections, direct transitive closure) or with
a third-party implementation (networkx matching), so the library's
matching-, backtracking- and formula-based paths are checked against
genuinely different algorithms.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, permutations
from math import comb
from random import Random
from unittest import mock

import pytest

from subposet.chains import EMPTY_LABEL, check_chain_cap
from subposet import containment
from subposet.containment import (DEFAULT_BUDGET, BudgetExceededError, SearchStatus,
                                  contains_subposet, find_embedding)
from subposet.formulas import antichain_height, density_bounds
from subposet.lattice import (MAX_GROUND, FamilyParseError, SetFamily, bits,
                              consecutive_levels, largest_mod_classes, set_str)
from subposet.posets import Poset


def antichain_height_by_scan(s: int) -> int:
    """Smallest m >= 1 with C(m, ceil(m/2)) >= s, scanning m up from 1."""
    m = 1
    while comb(m, (m + 1) // 2) < s:
        m += 1
    return m


@lru_cache(maxsize=None)
def pascal(n: int, k: int) -> int:
    """Binomial coefficients by the Pascal-triangle recurrence."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return pascal(n - 1, k - 1) + pascal(n - 1, k)


class Relation(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def compare(a: int, b: int) -> Relation:
    """Inclusion order of two subset masks."""
    if a == b:
        return Relation.EQUAL
    inter = a & b
    if inter == a:
        return Relation.LESS
    if inter == b:
        return Relation.GREATER
    return Relation.INCOMPARABLE


def strictly_less(a: int, b: int) -> bool:
    return a != b and a & b == a


def comparable(a: int, b: int) -> bool:
    return strictly_less(a, b) or strictly_less(b, a)


def pair_relations(masks) -> tuple[list[int], list[int], list[int]]:
    """Member relation rows (sup, sub, inc) by comparing every pair."""
    m = len(masks)
    sup = [0] * m
    sub = [0] * m
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            mj = masks[j]
            inter = mi & mj
            if inter == mi:
                sup[i] |= 1 << j
                sub[j] |= 1 << i
            elif inter == mj:
                sub[i] |= 1 << j
                sup[j] |= 1 << i
    full = (1 << m) - 1
    inc = [full & ~(sup[i] | sub[i] | (1 << i)) for i in range(m)]
    return sup, sub, inc


def has_reference(masks) -> tuple[int, ...]:
    """Relations.has by the per-bit loop it replaced: bitset e holds bit e of
    every member, read as one string of binary digits, member 0 last."""
    rev = list(masks)[::-1]
    n = max(rev, default=0).bit_length()
    return tuple(int(bytes([48 + (x >> e & 1) for x in rev]), 2) for e in range(n))


def loop_above(rels, mask: int) -> int:
    """Relations.above by the per-element loop its chunk tables replaced: the
    AND of has[e] over the elements e of mask, nothing past the last has."""
    if mask >> len(rels.has):
        return 0
    up = rels.full
    for e, has in enumerate(rels.has):
        if mask >> e & 1:
            up &= has
    return up


def loop_below(rels, mask: int) -> int:
    """Relations.below by the per-element loop its chunk tables replaced: the
    complement of the OR of has[e] over the elements e outside mask."""
    out = 0
    for e, has in enumerate(rels.has):
        if not mask >> e & 1:
            out |= has
    return rels.full ^ out


def levels_reference(masks) -> tuple[int, ...]:
    """Relations.levels by the per-member loop it replaced: bitset k holds
    the positions of the k-sets, one OR per member."""
    levels = [0] * (max(masks, default=0).bit_length() + 1)
    for i, x in enumerate(masks):
        levels[x.bit_count()] |= 1 << i
    return tuple(levels)


def eager_rows(rels) -> tuple[list[int], list[int], list[int]]:
    """The whole-list rows (sup, sub, inc) Relations built before its rows
    were filled per member: every member's above/below without itself."""
    sup = [loop_above(rels, x) ^ 1 << i for i, x in enumerate(rels.masks)]
    sub = [loop_below(rels, x) ^ 1 << i for i, x in enumerate(rels.masks)]
    inc = [rels.full ^ up ^ down ^ 1 << i for i, (up, down) in enumerate(zip(sup, sub))]
    return sup, sub, inc


def read_rows(rels, kinds: int = 3) -> tuple[list[int], ...]:
    """Read every member's entry of the first ``kinds`` row kinds (sup, sub,
    inc) of ``rels``, by index, and return one list per kind."""
    members = range(len(rels.masks))
    return tuple([rows[i] for i in members] for rows in (rels.sup, rels.sub, rels.inc)[:kinds])


def brute_max_antichain(masks) -> int:
    """Maximum antichain by enumerating all 2^|F| subfamilies.

    Uses a per-member comparability bitmask so each subfamily test is a few
    AND operations.
    """
    masks = list(masks)
    m = len(masks)
    comp = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and comparable(masks[i], masks[j]):
                comp[i] |= 1 << j
    best = 0
    for sub in range(1 << m):
        if sub.bit_count() <= best:
            continue
        x = sub
        ok = True
        while x:
            low = x & -x
            if comp[low.bit_length() - 1] & sub:
                ok = False
                break
            x ^= low
        if ok:
            best = sub.bit_count()
    return best


def nx_max_antichain(masks) -> int:
    """Maximum antichain size by Dilworth's theorem, with the maximum matching
    of the strict-inclusion bipartite graph taken from networkx
    (Hopcroft-Karp). Skips the calling test when networkx is missing."""
    nx = pytest.importorskip("networkx")
    masks = list(masks)
    left = [("L", i) for i in range(len(masks))]
    graph = nx.Graph()
    graph.add_nodes_from(left)
    graph.add_edges_from(
        (("L", i), ("R", j))
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if strictly_less(a, b)
    )
    matching = nx.bipartite.maximum_matching(graph, top_nodes=left)
    return len(masks) - len(matching) // 2


def kuhn_max_antichain(masks) -> int:
    """Maximum antichain size by Dilworth's theorem: members minus a maximum
    matching of the strict-inclusion pairs, found by Kuhn's recursive
    augmenting paths over pair lists (no bitsets, no library code)."""
    masks = list(masks)
    succ = [[j for j, b in enumerate(masks) if strictly_less(a, b)] for a in masks]
    match: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                if v not in match or augment(match[v], seen):
                    match[v] = u
                    return True
        return False

    return len(masks) - sum(augment(u, set()) for u in range(len(masks)))


def copy_test(poset, induced: bool):
    """is_copy for one poset, its pairs listed once: those the poset orders
    i below j, and (induced) those i < j it orders neither way."""
    p = poset.size
    below = [(i, j) for i in range(p) for j in range(p) if poset.less(i, j)]
    apart = [(i, j) for i in range(p) for j in range(i + 1, p)
             if induced and not poset.less(i, j) and not poset.less(j, i)]

    def test(images) -> bool:
        for i, j in below:
            if not strictly_less(images[i], images[j]):
                return False
        for i, j in apart:
            if comparable(images[i], images[j]):
                return False
        return True

    return test


def is_copy(images, poset, induced: bool) -> bool:
    """Do the sets images[0..p-1] form a copy of the poset, element i on
    images[i]: strictly below where the poset orders a pair, and (induced)
    incomparable where it does not?"""
    return copy_test(poset, induced)(images)


def brute_contains(masks, poset, induced: bool, using: int | None = None) -> bool:
    """Containment by trying every ordering of every member set (brute_copies);
    with ``using`` (a mask) only copies that take that set count."""
    return any(True for _ in brute_copies(masks, poset, induced, using))


def brute_copies(family, poset, induced: bool, using: int | None = None):
    """Each member set of the family that some ordering makes a copy of the
    poset, once, as its ascending member indices, in the order of
    itertools.combinations; with ``using`` (a mask) only the sets holding
    it, and only those are generated: the index of ``using`` inserted into
    each combination of the other indices keeps that order. Tries every
    ordering of every such member set."""
    masks = list(family)
    if using is None:
        combos = combinations(range(len(masks)), poset.size)
    elif using in masks:
        u = masks.index(using)  # member masks are distinct
        others = [i for i in range(len(masks)) if i != u]
        combos = (tuple(sorted((u, *rest))) for rest in combinations(others, poset.size - 1))
    else:
        return
    test = copy_test(poset, induced)
    for combo in combos:
        if any(test(perm) for perm in permutations([masks[i] for i in combo])):
            yield combo


def _pinned_copy_exists(poset, induced: bool, h: int, pins: dict[int, int]) -> bool:
    """Is there a copy of the poset in B_h that puts each element of ``pins``
    on its set? Backtracking with forward checking: each other element keeps
    the sets of B_h that agree, pair by pair, with every placed one, and the
    element with the fewest goes next."""

    def agrees(x: int, s: int, y: int, t: int) -> bool:
        if poset.less(x, y):
            return strictly_less(s, t)
        if poset.less(y, x):
            return strictly_less(t, s)
        return s != t and not (induced and comparable(s, t))

    if not all(agrees(x, s, y, t) for x, s in pins.items() for y, t in pins.items() if x != y):
        return False

    def extend(domains: dict[int, list[int]]) -> bool:
        if not domains:
            return True
        x = min(domains, key=lambda y: len(domains[y]))
        for s in domains[x]:
            narrowed = {y: [t for t in d if agrees(x, s, y, t)]
                        for y, d in domains.items() if y != x}
            if all(narrowed.values()) and extend(narrowed):
                return True
        return False

    return extend({x: [s for s in range(1 << h) if all(agrees(x, s, y, t) for y, t in pins.items())]
                   for x in range(poset.size) if x not in pins})


def min_size_gaps(poset, induced: bool, h: int) -> dict[tuple[int, int], int | None]:
    """For each pair b < e of the poset, the least |img e| - |img b| over all
    copies in B_h (None when B_h holds no copy). S_h maps a pair X < Y of
    sets to any other pair of the same two sizes and copies to copies, so the
    copies putting b on [0, a) and e on [0, a + k), for every a and k, reach
    every size difference; k rises until one exists."""
    return {(b, e): next((k for k in range(1, h + 1) for a in range(h - k + 1)
                          if _pinned_copy_exists(poset, induced, h,
                                                 {b: (1 << a) - 1, e: (1 << a + k) - 1})),
                         None)
            for e in range(poset.size) for b in bits(poset.below[e])}


def gaps_by_definition(poset, induced: bool) -> tuple[dict[tuple[int, int], int], int]:
    """The size gap of each pair of twin classes c < d, taken literally from
    the ``containment`` docstring, and the bound, their maximum (0 with no
    pair): the heaviest chain of classes c = C_0 < C_1 < ... < C_m = d over
    all comparable pairs, not only covers. A chain weighs [|C_0| >= 2], plus
    for each 0 < l < m antichain_height(|C_l|) when |C_l| >= 2, else
    [|C_{l-1}| = 1], plus [|C_m| >= 2 or |C_{m-1}| = 1]. A plain copy counts
    every class as one element."""
    classes = poset.twin_classes
    size = [len(cls) if induced else 1 for cls in classes]

    def chains(path):
        yield path
        for d in range(len(classes)):
            if poset.less(classes[path[-1]][0], classes[d][0]):
                yield from chains(path + [d])

    def weight(path):
        *inner, last = [size[c] for c in path]
        middle = sum(antichain_height(s) if s >= 2 else int(below == 1)
                     for below, s in zip(inner, inner[1:]))
        return int(inner[0] >= 2) + middle + int(last >= 2 or inner[-1] == 1)

    gaps: dict[tuple[int, int], int] = {}
    for c in range(len(classes)):
        for path in chains([c]):
            if len(path) > 1:
                gaps[c, path[-1]] = max(gaps.get((c, path[-1]), 0), weight(path))
    return gaps, max(gaps.values(), default=0)


def interval_has_antichain(lower: int, upper: int, s: int) -> bool:
    """Whether the interval [lower, upper] holds an antichain of size s,
    by the height criterion |upper - lower| >= antichain_height(s).

    Follows the height formula literally; for s = 1 it requires height >= 1
    even though the degenerate interval [A, A] does contain the one-element
    antichain {A}. Callers needing s = 1 semantics should special-case it.
    """
    if lower & upper != lower:
        raise ValueError("lower must be a subset of upper")
    return (upper & ~lower).bit_count() >= antichain_height(s)


def walk_la(n: int, posets, induced: bool = False, budget: int | None = None):
    """(optimum, witness masks, include attempts, exhausted) of the solver's
    branch and bound, walked as its module docstring states it: candidates
    middle-out, include before exclude, the "chosen + remaining" bound, and
    freeness of each include attempt decided by brute_contains."""
    candidates = sorted(range(1 << n),
                        key=lambda m: (abs(2 * m.bit_count() - n), m.bit_count(), m))
    best = (0, ())
    nodes = 0

    def walk(pos: int, chosen: list[int]) -> bool:
        """False when the attempt budget ran out."""
        nonlocal best, nodes
        for pos in range(pos, len(candidates)):
            if len(chosen) + len(candidates) - pos <= best[0]:
                return True
            mask = candidates[pos]
            if budget is not None and nodes >= budget:
                return False
            nodes += 1
            family = chosen + [mask]
            if not any(brute_contains(family, poset, induced, mask) for poset in posets):
                if len(family) > best[0]:
                    best = (len(family), tuple(sorted(family, key=lambda m: (m.bit_count(), m))))
                if not walk(pos + 1, family):
                    return False
        return True

    exhausted = walk(0, [])
    return best[0], best[1], nodes, exhausted


def milp_la(n: int, posets, induced: bool = False) -> list[int]:
    """A largest family of subsets of [n] free of every pattern, as its
    masks, by integer programming with scipy's HiGHS: one 0/1 variable per
    set and one row sum(x_S for S in C) <= |C| - 1 per copy C that
    brute_copies lists in B_n. The witness is checked free with
    brute_contains; only its maximality rests on HiGHS's floating point.
    Skips the calling test when scipy is missing."""
    optimize = pytest.importorskip("scipy.optimize")
    size = 1 << n
    copies = [combo for poset in posets for combo in brute_copies(range(size), poset, induced)]
    rows = [[1 if mask in combo else 0 for mask in range(size)] for combo in copies]
    constraints = ([optimize.LinearConstraint(rows, ub=[len(combo) - 1 for combo in copies])]
                   if copies else [])
    res = optimize.milp([-1] * size, constraints=constraints, integrality=[1] * size,
                        bounds=optimize.Bounds(0, 1))
    assert res.success, res.message
    witness = [mask for mask, x in enumerate(res.x) if x > 0.5]
    assert len(witness) == round(-res.fun)
    assert not any(brute_contains(witness, poset, induced) for poset in posets)
    return witness


class _OutOfAttempts(Exception):
    pass


def doll_walk_la(n: int, posets, induced: bool = False, budget: int | None = None,
                 *, root_test: bool = True):
    """(optimum, witness masks, include attempts, exhausted, suffix optima) of
    the solver's two phases, walked recursively as its module docstring
    states them, with freeness of each include attempt decided by
    brute_contains. The suffix optima are {q: R[q]} for every q that phase 2
    walked: R[q] is the largest free family inside candidates[q:]. Without
    ``root_test`` phase 2 runs even when the first path meets chain_bound,
    so the suffix optima of chain patterns get walked too."""
    candidates = sorted(range(1 << n),
                        key=lambda m: (abs(2 * m.bit_count() - n), m.bit_count(), m))
    size = len(candidates)
    nodes = 0

    def free(chosen: list[int], mask: int) -> bool:
        nonlocal nodes
        if budget is not None and nodes >= budget:
            raise _OutOfAttempts
        nodes += 1
        family = chosen + [mask]
        return not any(brute_contains(family, poset, induced, mask) for poset in posets)

    greedy: list[int] = []  # phase 1: include every free candidate in turn
    best = greedy
    bound = [0] * (size + 1)
    solved: dict[int, int] = {}
    erdos = chain_bound(n, posets, induced)
    try:
        for mask in candidates:
            if root_test and len(greedy) >= erdos:
                break  # a first path that meets Erdős's bound is optimal
            if free(greedy, mask):
                greedy.append(mask)

        def walk(pos: int, chosen: list[int], goal: int) -> list[int]:
            """Phase 2: the first family of goal members in walk order, []
            when there is none."""
            for pos in range(pos, size):
                if len(chosen) + bound[pos] < goal:
                    return []
                mask = candidates[pos]
                if not free(chosen, mask):
                    continue
                family = chosen + [mask]
                found = family if len(family) == goal else walk(pos + 1, family, goal)
                if found:
                    return found
            return []

        exhausted = True
        if not root_test or len(greedy) < erdos:  # else the first path is proven
            for q in range(size - 1, -1, -1):
                bound[q] = bound[q + 1] + 1
                if q + bound[q] <= len(best):
                    break
                found = walk(q, [], bound[q])
                bound[q] = solved[q] = bound[q + 1] + bool(found)
                if len(found) > len(best):
                    best = found
    except _OutOfAttempts:
        exhausted = False
    witness = tuple(sorted(best, key=lambda m: (m.bit_count(), m)))
    return len(witness), witness, nodes, exhausted, solved


def symmetric_chains(n: int) -> list[list[int]]:
    """Symmetric chain decomposition of B_n by bracket matching (de Bruijn,
    Tengbergen and Kruyswijk 1951). Element i + 1 of a set reads ")" and its
    absence "(", for i = 0..n-1; the brackets left unmatched read ")..)(..(",
    and a chain runs from the set whose unmatched brackets are all "(" by
    turning them into ")" from the left. Each chain is listed bottom up."""
    chains = []
    for mask in range(1 << n):
        opens, closed = [], False
        for i in range(n):
            if not mask >> i & 1:
                opens.append(i)
            elif opens:
                opens.pop()
            else:
                closed = True  # an unmatched ")": not the bottom of its chain
        if closed:
            continue
        chain = [mask]
        for i in opens:
            chain.append(chain[-1] | 1 << i)
        chains.append(chain)
    return chains


def is_chain_pattern(poset: Poset) -> bool:
    """Every two elements comparable."""
    return all(poset.less(i, j) or poset.less(j, i)
               for i, j in combinations(range(poset.size), 2))


def chain_bound(n: int, posets, induced: bool) -> int:
    """Erdős's bound on a free family: each pattern the rule covers (every
    one, or with ``induced`` the chain patterns) has a copy in any chain of
    |P| sets, so a free family has at most cap = min(|P| - 1) sets on each
    chain of symmetric_chains(n); 2^n when no pattern is covered."""
    cap = min((p.size - 1 for p in posets if not induced or is_chain_pattern(p)),
              default=n + 1)
    return sum(min(len(chain), cap) for chain in symmetric_chains(n))


def search_reference(rels, plan, domains, budget, copies=None, *, poset, induced):
    """containment._search without its per-depth schedule and its count
    filter: the class of each element, the rows each placement narrows and
    each class's first unplaced element are worked out at every node from the
    poset, and every candidate is tried. Same arguments (plus the pattern and
    the mode) and the same (status, embedding, nodes) result."""
    if not all(domains):
        return SearchStatus.FREE, None, 0
    sup, sub, inc = rels.sup, rels.sub, rels.inc
    p = poset.size
    below = poset.below
    above = poset.above
    order = plan.order
    twin_prev = plan.twin_prev
    classes = plan.classes
    class_of = [0] * p
    for ci, cls in enumerate(classes):
        for e in cls:
            class_of[e] = ci
    img = [-1] * p
    placed_in_class = [0] * len(classes)
    used = 0
    nodes = 0
    stack = []
    depth = 0
    cand = domains
    e = order[0]
    c = cand[e]
    while True:
        if not c:
            if not stack:
                return SearchStatus.FREE, None, nodes
            e, c, cand = stack.pop()
            depth -= 1
            used ^= 1 << img[e]
            placed_in_class[class_of[e]] -= 1
            continue
        if nodes >= budget:
            return SearchStatus.BUDGET, None, nodes
        nodes += 1
        bit = c & -c
        c ^= bit
        i = bit.bit_length() - 1
        img[e] = i
        if depth + 1 == p:
            if copies is None:
                return SearchStatus.FOUND, tuple(img), nodes
            copies.setdefault(used | bit, tuple(img))
            continue
        used |= bit
        ce = class_of[e]
        placed_in_class[ce] += 1
        nxt = list(cand)
        for pos in range(depth + 1, p):
            e2 = order[pos]
            if below[e2] >> e & 1:
                nxt[e2] &= sup[i]
            elif above[e2] >> e & 1:
                nxt[e2] &= sub[i]
            elif induced:
                nxt[e2] &= inc[i]
        ok = True
        for ci, cls in enumerate(classes):
            unplaced = len(cls) - placed_in_class[ci]
            if unplaced:
                rep = cls[placed_in_class[ci]]
                if (nxt[rep] & ~used).bit_count() < unplaced:
                    ok = False
                    break
        if not ok:
            placed_in_class[ce] -= 1
            used ^= bit
            continue
        depth += 1
        stack.append((e, c, cand))
        cand = nxt
        e = order[depth]
        c = cand[e] & ~used
        tp = twin_prev[e]
        if tp >= 0:
            c &= ~((1 << (img[tp] + 1)) - 1)


@contextmanager
def reference_search(poset, induced):
    """Containment searches for ``poset`` (induced or not) run
    search_reference in place of containment._search inside the block."""
    with mock.patch.object(containment, "_search",
                           partial(search_reference, poset=poset, induced=induced)):
        yield


def compare_with_reference(rels, live, poset, induced, budget, require_member=None,
                           listing=False):
    """find_embedding against itself on search_reference: the same status,
    witness and copy list (in order) unless the reference ran out of budget,
    no more nodes, and BUDGET only where the reference has it. Returns both
    results, the library's first."""
    got, want = ({} if listing else None), ({} if listing else None)
    res = find_embedding(rels, live, poset, induced, budget, require_member, got)
    with reference_search(poset, induced):
        ref = find_embedding(rels, live, poset, induced, budget, require_member, want)
    assert res.nodes <= ref.nodes
    if ref.status is SearchStatus.BUDGET:
        assert res.nodes <= budget
    else:
        assert (res.status, res.embedding) == (ref.status, ref.embedding)
        assert got is None or list(got.items()) == list(want.items())
    return res, ref


def closure_relation_count(covers, size: int) -> int:
    """Strict-order pair count of the transitive closure of a cover list."""
    rel = set(covers)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    assert all(a != b for a, b in rel), "cycle in oracle input"
    return len(rel)


def random_family_masks(rng: Random, n: int, max_size: int) -> list[int]:
    size = rng.randint(0, min(max_size, 1 << n))
    return rng.sample(range(1 << n), size)


def random_strict_order(rng: Random, size: int, density: float = 0.4):
    """Random transitively-closed below-masks, consistent with index order."""
    below = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                below[j] |= 1 << i
    changed = True
    while changed:
        changed = False
        for x in range(size):
            acc = below[x]
            b = below[x]
            while b:
                low = b & -b
                acc |= below[low.bit_length() - 1]
                b ^= low
            if acc != below[x]:
                below[x] = acc
                changed = True
    return tuple(below)


def brute_s_minus(masks, bound: int) -> int:
    return brute_max_antichain([m for m in masks if m & bound == m])


def brute_s_plus(masks, bound: int) -> int:
    return brute_max_antichain([m for m in masks if m & bound == bound])


def brute_la(n: int, posets, induced: bool, universe=None) -> int:
    """Exact optimum by enumerating all 2^(2^n) subfamilies (n <= 3), or all
    subfamilies of ``universe``, a list of masks, when it is given."""
    universe = list(range(1 << n)) if universe is None else list(universe)
    best = 0
    for pick in range(1 << len(universe)):
        if pick.bit_count() <= best:
            continue
        masks = [universe[i] for i in range(len(universe)) if pick >> i & 1]
        if not any(brute_contains(masks, poset, induced) for poset in posets):
            best = len(masks)
    return best


def brute_suffix_la(n: int, posets, induced: bool) -> list[int]:
    """[q]: the largest free subfamily of candidates[q:] (the solver's
    middle-out order), for q = 0 .. 2^n, deciding every subfamily of B_n in
    turn. Freeness is hereditary, so a subfamily is free exactly when it is
    free without its last candidate and no copy uses that candidate."""
    candidates = sorted(range(1 << n),
                        key=lambda m: (abs(2 * m.bit_count() - n), m.bit_count(), m))
    size = len(candidates)
    free = bytearray(1 << size)
    free[0] = 1
    best = [0] * (size + 1)
    for pick in range(1, 1 << size):
        top = pick.bit_length() - 1
        if not free[pick ^ 1 << top]:
            continue
        masks = [candidates[i] for i in range(top + 1) if pick >> i & 1]
        if any(brute_contains(masks, poset, induced, candidates[top]) for poset in posets):
            continue
        free[pick] = 1
        low = (pick & -pick).bit_length() - 1
        best[low] = max(best[low], len(masks))
    for q in range(size - 1, -1, -1):
        best[q] = max(best[q], best[q + 1])
    return best


def antichain_subfamilies(masks, size: int):
    """All antichains of the given size (as tuples of masks)."""
    for combo in combinations(masks, size):
        if all(not comparable(a, b) for a, b in combinations(combo, 2)):
            yield combo


# the n! walk's own soft cap: 8! = 40,320 chains; the chain DP needs none
WALK_CHAIN_CAP = 8


def enumerate_chains(n: int, cap: int = WALK_CHAIN_CAP):
    """All n! maximal chains as permutations of [n], lexicographic order."""
    check_chain_cap(n, cap)
    return permutations(range(1, n + 1))


def chain_prefixes(order: tuple[int, ...]) -> list[int]:
    """The n+1 prefix masks of a chain, ascending from 0 to the full set."""
    masks = [0]
    m = 0
    for e in order:
        m |= 1 << (e - 1)
        masks.append(m)
    return masks


def walk_pairs(family) -> int:
    """(member, maximal chain) incidence pairs by walking every chain."""
    members = family.member_set
    return sum(sum(1 for pm in chain_prefixes(perm) if pm in members)
               for perm in permutations(range(1, family.n + 1)))


def walk_partition(family, mode: str, r: int = 1, t: int = 1):
    """Per-label (chain counts, pair counts) of a marker partition by walking
    all n! chains and placing the markers on each one as the chains module
    docstring states them; mode is "minmax", "minr" or "minrmaxt". The
    antichain widths come from kuhn_max_antichain on the members below
    (above) each chain set, not from the library."""
    members = family.member_set
    sm = lru_cache(maxsize=None)(
        lambda x: kuhn_max_antichain([m for m in family.members if m & x == m]))
    sp = lru_cache(maxsize=None)(
        lambda x: kuhn_max_antichain([m for m in family.members if m & x == x]))

    def label_of(prefixes):
        if mode == "minmax":
            on_chain = [pm for pm in prefixes if pm in members]
            if not on_chain:
                return EMPTY_LABEL
            return f"AB:{set_str(on_chain[0])}|{set_str(on_chain[-1])}"
        if mode == "minr":
            return f"A:{set_str(next(pm for pm in prefixes if sm(pm) >= r))}"
        if r == 1:
            a = next((pm for pm in prefixes if pm in members), None)
            if a is None:
                return EMPTY_LABEL
        else:
            a = next(pm for pm in prefixes if sm(pm) >= r)
        if sp(a) < t:
            return f"S:{set_str(a)}"
        if t == 1 and r == 1:
            b = next(pm for pm in reversed(prefixes) if pm in members)
        elif t == 1:
            b = next(pm for pm in reversed(prefixes) if sp(pm) >= 1)
        else:
            b = next(pm for pm in reversed(prefixes) if sp(pm) >= t)
        assert a & b == a, "markers out of order"
        return f"AB:{set_str(a)}|{set_str(b)}"

    chain_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    for perm in permutations(range(1, family.n + 1)):
        prefixes = chain_prefixes(perm)
        label = label_of(prefixes)
        chain_counts[label] += 1
        pair_counts[label] += sum(1 for pm in prefixes if pm in members)
    return dict(chain_counts), dict(pair_counts)


# Code that only the tests use: probes that reach the library's closed forms
# (free level counts, construction freeness, the size-height bound) by a
# second route, the longest chain size, the poset file writer, and the
# order-reversing duality (dual patterns, complemented families).


def empirical_free_levels(poset: Poset, induced: bool, n: int, k_max: int,
                          budget: int = DEFAULT_BUDGET) -> int:
    """Largest k <= k_max such that every run of k consecutive levels of the
    subset lattice of [n] avoids the pattern (probe at fixed n; an upper
    bound on the always-free level count).

    Raises BudgetExceededError if any underlying search is cut off.
    """
    if not 0 <= k_max <= n:
        raise ValueError(f"need 0 <= k_max <= n, got k_max={k_max}, n={n}")
    for k in range(1, k_max + 1):
        for j in range(0, n - k + 1):
            fam = consecutive_levels(n, j, k)
            res = contains_subposet(fam, poset, induced, budget)
            if res.status is SearchStatus.BUDGET:
                raise BudgetExceededError(
                    f"containment budget exhausted at n={n}, levels {j + 1}..{j + k}"
                )
            if res.found:
                return k - 1
    return k_max


def longest_chain_size(poset: Poset) -> int:
    """Number of elements on a longest chain."""
    return max(poset.heights) + 1


def size_height_bound(poset: Poset) -> Fraction:
    """General density upper bound (|P| + longest chain size) / 2 - 1."""
    return Fraction(poset.size + longest_chain_size(poset), 2) - 1


def k1s1_pair_coeff(s: int) -> Fraction:
    """Chain-pair coefficient for families with no (non-induced) diamond-like
    K[1,s,1]: the number of (member, maximal chain) incidences is at most
    this times n factorial.

    It is the upper density bound of K[1,s,1], so it follows the printed
    case intervals; in particular s=2 sits in the second interval and yields
    5/2, consistent with the classical bound for diamond-free families.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    return density_bounds(1, s, 1)[1]


def dual(poset: Poset) -> Poset:
    """Reverse the order."""
    return Poset(poset.size, poset.above)


def complement_family(family: SetFamily) -> SetFamily:
    """Complement every member; an involution on families."""
    full = (1 << family.n) - 1
    return SetFamily.of(family.n, (full ^ m for m in family.members))


def serialize_poset(poset: Poset) -> str:
    """Emit the poset file text, listing the full strict relation as covers."""
    lines = [f"elements={poset.size}"]
    for j in range(poset.size):
        for i in bits(poset.below[j]):
            lines.append(f"{i + 1}<{j + 1}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SpreadReport:
    """Result of checking the residue-class spread property."""

    passed: bool
    n: int
    k: int
    r: int
    family_size: int
    tuples_checked: int
    exhaustive: bool
    counterexample: tuple[int, ...] | None


def verify_mod_spread(n: int, k: int, r: int, exhaustive_limit: int = 200_000,
                      seed: int = 0, samples: int = 20_000) -> SpreadReport:
    """Check that any r+1 distinct sets from the union of the r largest
    residue classes of level k intersect in <= k-2 elements and union to
    >= k+2 elements.

    Checks every (r+1)-tuple when there are at most ``exhaustive_limit`` of
    them, otherwise a seeded random sample. Tuples are scanned in
    lexicographic member order, so a reported counterexample is the
    lexicographically first one.
    """
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k}, n={n}")
    fam = largest_mod_classes(n, k, r)
    size = r + 1
    total = comb(fam.size, size)
    exhaustive = total <= exhaustive_limit
    if exhaustive:
        tuples = combinations(fam.members, size)
    else:
        rng = Random(seed)

        def sampled():
            for _ in range(samples):
                idxs = sorted(rng.sample(range(fam.size), size))
                yield tuple(fam.members[i] for i in idxs)

        tuples = sampled()
    checked = 0
    for tup in tuples:
        checked += 1
        inter = tup[0]
        union = tup[0]
        for m in tup[1:]:
            inter &= m
            union |= m
        if inter.bit_count() > k - 2 or union.bit_count() < k + 2:
            return SpreadReport(False, n, k, r, fam.size, checked, exhaustive, tup)
    return SpreadReport(True, n, k, r, fam.size, checked, exhaustive, None)


# The family-file reader before its one-pass table version, kept verbatim as
# the reference the tests compare it with.

_HEADER_RE = re.compile(r"n=(\d+)")
_SET_RE = re.compile(r"\{(\d+(?:,\d+)*)\}")


def parse_family_reference(text: str) -> SetFamily:
    """Parse the family file format (v1).

    Lines starting with '#' and blank lines are skipped. The first
    significant line must be ``n=<int>``; each following line is one set,
    ``{}`` or ``{a,b,c}`` with strictly ascending elements of [1, n].
    Duplicate sets are rejected. The result is canonicalized.
    """
    n: int | None = None
    masks: list[int] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = _HEADER_RE.fullmatch(line)
            if not m:
                raise FamilyParseError(f"expected 'n=<int>' header, got {line!r}", lineno)
            n = int(m.group(1))
            if not 1 <= n <= MAX_GROUND:
                raise FamilyParseError(f"ground size {n} out of [1, {MAX_GROUND}]", lineno)
            continue
        if line == "{}":
            elems: tuple[int, ...] = ()
        else:
            m = _SET_RE.fullmatch(line)
            if not m:
                raise FamilyParseError(f"malformed set {line!r}", lineno)
            elems = tuple(int(x) for x in m.group(1).split(","))
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise FamilyParseError(f"elements must be strictly ascending in {line!r}", lineno)
        if elems and not (1 <= elems[0] and elems[-1] <= n):
            raise FamilyParseError(f"element out of range [1, {n}] in {line!r}", lineno)
        mask = sum(1 << (e - 1) for e in elems)
        if mask in seen:
            raise FamilyParseError(f"duplicate set {line!r}", lineno)
        seen.add(mask)
        masks.append(mask)
    if n is None:
        raise FamilyParseError("missing 'n=<int>' header", 1)
    return SetFamily.of(n, masks)


def parse_outcome(parse, text: str):
    """What a reader makes of a text: its family, or its error and line."""
    try:
        family = parse(text)
    except FamilyParseError as exc:
        return ("error", str(exc), exc.line)
    return ("family", family.n, family.members)


def check_members_reference(n: int, members) -> None:
    """SetFamily's member check before its one-sort version: each member in
    turn must lie in [1, n] and sort strictly after the one before it by
    (cardinality, value). Raises the first defect's ValueError."""
    full = (1 << n) - 1
    prev = None
    for m in members:
        if m < 0 or m & ~full:
            raise ValueError(f"mask {m} has bits outside [1, {n}]")
        key = (m.bit_count(), m)
        if prev is not None and key <= prev:
            raise ValueError("members not in canonical order (or duplicated)")
        prev = key
