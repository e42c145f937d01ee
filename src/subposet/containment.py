"""Subposet containment search, maximum antichains, and level-freeness probes.

The embedding search is exhaustive backtracking with forward checking. All
pairwise member relations are precomputed as member-index bitsets (for each
member: which members are proper supersets, proper subsets, incomparable),
so narrowing the candidate domain of a pattern element is one integer AND.
Three refinements keep exhaustive verdicts affordable without giving up
completeness:

* pattern elements are placed in a fixed constraint-first order (most
  comparabilities first, smaller interchangeability classes first, lower
  height first), so images get squeezed from both sides early;
* interchangeable pattern elements (equal strict down-set and up-set) must
  take ascending member indices, which quotients away their permutations;
* after every placement, each class of interchangeable unplaced elements
  must retain at least as many available candidates as it has unplaced
  members, and every element's image is pre-restricted to the cardinality
  window its chain height above and below allows.

A family is only reported free when the search tree was fully explored
within the node budget; exceeding the budget is a distinct outcome and is
never reported as freeness. Witnesses are deterministic: the returned
embedding is the lexicographically smallest under the fixed search order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

from .formulas import antichain_height
from .lattice import SetFamily, consecutive_levels
from .posets import Poset

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """A search ran out of its node budget before reaching a verdict."""


class SearchStatus(Enum):
    FOUND = "found"
    FREE = "free"
    BUDGET = "budget"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a containment search.

    ``embedding`` maps pattern element index to family member index when
    status is FOUND. ``poset_index`` identifies the hit pattern for list
    searches. FREE means the full tree was explored and no copy exists;
    BUDGET means the verdict is unknown.
    """

    status: SearchStatus
    embedding: tuple[int, ...] | None
    nodes: int
    poset_index: int | None = None

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND

    @property
    def free(self) -> bool:
        return self.status is SearchStatus.FREE


@dataclass(frozen=True)
class _Plan:
    """Static search data for one pattern poset."""

    order: tuple[int, ...]
    twin_prev: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]


@lru_cache(maxsize=None)
def _plan_for(poset: Poset) -> _Plan:
    p = poset.size
    groups: dict[tuple[int, int], list[int]] = {}
    for e in range(p):
        groups.setdefault((poset.below[e], poset.above[e]), []).append(e)
    classes = tuple(tuple(sorted(g)) for g in groups.values())
    class_of = [0] * p
    twin_prev = [-1] * p
    for ci, cls in enumerate(classes):
        for pos, e in enumerate(cls):
            class_of[e] = ci
            twin_prev[e] = cls[pos - 1] if pos else -1
    deg = [c.bit_count() for c in poset.comparable]
    order = tuple(
        sorted(range(p), key=lambda e: (-deg[e], len(classes[class_of[e]]), poset.heights[e], e))
    )
    return _Plan(order=order, twin_prev=tuple(twin_prev), classes=classes,
                 class_of=tuple(class_of))


def _member_relations(masks: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
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


def _initial_domains(masks, poset: Poset) -> list[int]:
    """Static cardinality windows: an element with chain height h below and
    d above needs an image whose size leaves room for both."""
    counts = [x.bit_count() for x in masks]
    lo_all = min(counts)
    hi_all = max(counts)
    window: dict[tuple[int, int], int] = {}
    domains = []
    for e in range(poset.size):
        lo = lo_all + poset.heights[e]
        hi = hi_all - poset.depths[e]
        key = (lo, hi)
        if key not in window:
            acc = 0
            for i, c in enumerate(counts):
                if lo <= c <= hi:
                    acc |= 1 << i
            window[key] = acc
        domains.append(window[key])
    return domains


def _search(rels, poset: Poset, plan: _Plan, domains: list[int], induced: bool,
            budget: int) -> tuple[SearchStatus, tuple[int, ...] | None, int]:
    """Depth-first search with an explicit stack: one frame (element, untried
    candidates, domains) per placed element, so the pattern size is not
    bounded by the interpreter's recursion limit."""
    if not all(domains):
        return SearchStatus.FREE, None, 0
    sup, sub, inc = rels
    p = poset.size
    below = poset.below
    above = poset.above
    order = plan.order
    twin_prev = plan.twin_prev
    classes = plan.classes
    class_of = plan.class_of
    img = [-1] * p
    placed_in_class = [0] * len(classes)
    used = 0
    nodes = 0
    stack: list[tuple[int, int, list[int]]] = []
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
        if depth == p:
            return SearchStatus.FOUND, tuple(img), nodes
        stack.append((e, c, cand))
        cand = nxt
        e = order[depth]
        c = cand[e] & ~used
        tp = twin_prev[e]
        if tp >= 0:
            c &= ~((1 << (img[tp] + 1)) - 1)


def find_embedding(members: Sequence[int], poset: Poset, induced: bool = False,
                   budget: int = DEFAULT_BUDGET, require_member: int | None = None) -> SearchResult:
    """Low-level search over a raw member list (order-sensitive).

    With ``require_member`` set, only embeddings whose image uses that member
    index are sought (the pattern element playing that role is tried in every
    position). Intended for incremental feasibility checks.
    """
    masks = tuple(members)
    if poset.size > len(masks):
        return SearchResult(SearchStatus.FREE, None, 0)
    rels = _member_relations(masks)
    plan = _plan_for(poset)
    domains = _initial_domains(masks, poset)
    if require_member is None:
        return SearchResult(*_search(rels, poset, plan, domains, induced, budget))
    total = 0
    for elt in range(poset.size):
        pinned = list(domains)
        pinned[elt] &= 1 << require_member
        status, emb, nodes = _search(rels, poset, plan, pinned, induced, budget - total)
        total += nodes
        if status is not SearchStatus.FREE:
            return SearchResult(status, emb, total)
    return SearchResult(SearchStatus.FREE, None, total)


def contains_subposet(family: SetFamily, poset: Poset, induced: bool = False,
                      budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Does the family contain a (induced) copy of the pattern poset?

    FOUND carries the deterministic witness embedding; FREE is only reported
    after full exhaustion; BUDGET is a distinct unknown outcome.
    """
    return find_embedding(family.members, poset, induced, budget)


def contains_any(family: SetFamily, posets: Sequence[Poset], induced: bool = False,
                 budget: int = DEFAULT_BUDGET) -> SearchResult:
    """First containment hit over a pattern list, in list order.

    FREE means the family avoids every pattern; if any per-pattern search ran
    out of budget and no pattern was found, the overall status is BUDGET.
    """
    total = 0
    budget_hit = False
    for idx, poset in enumerate(posets):
        res = contains_subposet(family, poset, induced, budget)
        total += res.nodes
        if res.found:
            return SearchResult(SearchStatus.FOUND, res.embedding, total, poset_index=idx)
        if res.status is SearchStatus.BUDGET:
            budget_hit = True
    return SearchResult(SearchStatus.BUDGET if budget_hit else SearchStatus.FREE, None, total)


class AntichainResult(NamedTuple):
    size: int
    witness: tuple[int, ...]


def _max_antichain_masks(masks: Sequence[int]) -> AntichainResult:
    """Maximum antichain of a mask list via minimum chain cover.

    The bipartite graph has an edge (i, j) whenever member i is a proper
    subset of member j, which is bit j of ``sup[i]`` from _member_relations.
    A maximum matching gives a minimum chain cover, and the complement of its
    minimum vertex cover (König) is a maximum antichain of size
    len(masks) - matching.

    Augmenting paths come from an iterative depth-first search that keeps the
    path explicitly and steps to a free right vertex first when the node has
    one. Right vertices seen by a failed search stay marked until the next
    augmentation: until the matching changes, no augmenting path can pass
    through them.
    """
    m = len(masks)
    sup = _member_relations(masks)[0]
    match_right = [-1] * m
    free = (1 << m) - 1
    seen = 0
    for root in range(m):
        u = root
        path: list[int] = []
        while True:
            nbrs = sup[u] & ~seen
            if not nbrs:
                if not path:
                    break
                path.pop()
                u = match_right[path[-1]] if path else root
                continue
            pick = nbrs & free or nbrs
            bit = pick & -pick
            seen |= bit
            v = bit.bit_length() - 1
            path.append(v)
            if bit & free:
                free ^= bit
                seen = 0
                prev = root
                for w in path:
                    match_right[w], prev = prev, match_right[w]
                break
            u = match_right[v]

    # König: left vertices reachable from unmatched ones by alternating paths
    # (zl) and the right vertices on those paths (zr).
    zl = (1 << m) - 1
    for u in match_right:
        if u >= 0:
            zl ^= 1 << u
    zr = 0
    frontier = zl
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = sup[low.bit_length() - 1] & ~zr
        zr |= new
        while new:
            bit = new & -new
            new ^= bit
            w = 1 << match_right[bit.bit_length() - 1]
            if not zl & w:
                zl |= w
                frontier |= w
    keep = zl & ~zr
    witness = tuple(u for u in range(m) if keep >> u & 1)
    size = free.bit_count()
    assert len(witness) == size, "vertex-cover extraction mismatch"
    return AntichainResult(size, witness)


def max_antichain(family: SetFamily) -> AntichainResult:
    """Exact maximum antichain size plus a deterministic witness (member indices)."""
    return _max_antichain_masks(family.members)


def s_minus(family: SetFamily, mask: int) -> int:
    """Maximum antichain size among members contained in ``mask``."""
    return _max_antichain_masks([x for x in family.members if x & mask == x]).size


def s_plus(family: SetFamily, mask: int) -> int:
    """Maximum antichain size among members containing ``mask``."""
    return _max_antichain_masks([x for x in family.members if x & mask == mask]).size


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
