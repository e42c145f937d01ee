"""Subposet containment search, maximum antichains, and level-freeness probes.

The embedding search is exhaustive backtracking with forward checking. All
pairwise member relations are precomputed as member-index bitsets (for each
member: which members are proper supersets, proper subsets, incomparable),
so narrowing the candidate domain of a pattern element is one integer AND.

The rows come from one bitset ``has[x]`` per ground element x, the members
containing x: a member's supersets are the AND of ``has[x]`` over its
elements, and its subsets the members outside the OR of ``has[x]`` over the
other elements. That is n big-int operations per member, n * m in all,
instead of m^2 / 2 interpreted pair tests (about 1 s for the 35,750 sets
of levels 7-9 of B_16 on one core of a 2-core VM). The three rows hold
3 * m^2 bits, about 3 * m^2 / 8 bytes (380 MB at that size), so families of
more than MAX_MEMBERS members are refused before any work. Only the rows a
caller reads are built: plain searches skip the incomparable rows, and
maximum antichains use the superset rows alone.

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

find_embedding follows the paper's constructions, a band of full levels plus
a few fringe sets, and runs the search once per pin (an element placed first
on one member, over a set of allowed members). A copy meeting the fringe has
a lowest fringe member f: the fringe phase pins each twin class's first
element to each f in index order, over the band and the fringe from f on.
S_N permutes a full level (all k-subsets of [N]) keeping (in)comparability,
so the band phase then pins the first element of the order to one set per
full level, over the band alone (a fixed orbit representative, McKay 1998).

A family is only reported free when every pinned search was fully explored
within the node budget they share; exceeding the budget is a distinct
outcome and is never reported as freeness. Witnesses are deterministic: the
first copy in pin order, not the lexicographically smallest embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import chain
from math import comb
from typing import NamedTuple, Sequence

from .formulas import antichain_height
from .lattice import SetFamily, consecutive_levels
from .posets import Poset, _bits

DEFAULT_BUDGET = 10**8
# Relation rows take about 3 * m^2 / 8 bytes: 0.94 GB at this many members.
MAX_MEMBERS = 50_000


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
def _plan_for(poset: Poset, first: int | None = None) -> _Plan:
    """Search plan; ``first`` (the first of its twin class) goes to the front,
    and its next twin may take any member, as the pinned one may be any class
    image. The class is still placed in class order, which the count check needs."""
    if first is not None:
        base = _plan_for(poset)
        return replace(base, order=(first, *(e for e in base.order if e != first)),
                       twin_prev=tuple(-1 if tp == first else tp for tp in base.twin_prev))
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


def _member_relations(masks: Sequence[int], sub: bool = True, inc: bool = True
                      ) -> tuple[list[int], list[int] | None, list[int] | None]:
    """Rows (sup, sub, inc) of member-index bitsets over distinct masks: the
    proper supersets, proper subsets and incomparable members of each member.
    The sub and inc rows are None unless asked for."""
    m = len(masks)
    if m > MAX_MEMBERS:
        raise ValueError(f"{m} members exceed the relation precompute cap of {MAX_MEMBERS}")
    n = max(masks, default=0).bit_length()
    rev = masks[::-1]  # has[e], the members containing e, read as one string of bits
    has = [int(bytes([48 + (x >> e & 1) for x in rev]), 2) for e in range(n)]
    full = (1 << m) - 1
    sups, subs, incs = [], [] if sub else None, [] if inc else None
    for i, x in enumerate(masks):
        up, out = full, 0  # members containing x; members not contained in x
        for e in range(n):
            if x >> e & 1:
                up &= has[e]
            elif sub or inc:
                out |= has[e]
        bit = 1 << i
        sups.append(up ^ bit)
        if sub:
            subs.append(full ^ out ^ bit)
        if inc:
            incs.append(out & ~up)
    return sups, subs, incs


def _levels(masks: Sequence[int]) -> list[int]:
    """Member-index bitset of each cardinality."""
    levels = [0] * (max(masks, default=0).bit_length() + 1)
    for i, x in enumerate(masks):
        levels[x.bit_count()] |= 1 << i
    return levels


def _initial_domains(levels: Sequence[int], poset: Poset) -> list[int]:
    """Static cardinality windows: an element with chain height h below and
    d above needs an image whose size leaves room for both."""
    sizes = [k for k, level in enumerate(levels) if level]
    domains = []
    for h, d in zip(poset.heights, poset.depths):
        lo = sizes[0] + h
        domains.append(sum(levels[lo:max(lo, sizes[-1] - d + 1)]))  # disjoint levels: sum is OR
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


def find_embedding(rels, levels: Sequence[int], poset: Poset, induced: bool = False,
                   budget: int = DEFAULT_BUDGET, require_member: int | None = None) -> SearchResult:
    """Search among the members in ``levels`` (the live members, as bitsets
    per cardinality), with ``rels`` from _member_relations over a member list
    that holds at least them. Members outside ``levels`` are never used, and
    images are member indices of that list.

    The search runs once per pin of the fringe and band phases (module
    docstring), all pins sharing the node budget; the first copy ends it.
    Without a full level there are no pins and one plain search runs.

    With ``require_member`` set, only embeddings whose image uses that member
    index are sought: one pin per twin class puts the class's first element,
    placed first, on that member, over all live members. Intended for
    incremental feasibility checks.
    """
    live = sum(levels)  # disjoint levels: sum is OR
    if poset.size > live.bit_count():
        return SearchResult(SearchStatus.FREE, None, 0)
    plan = _plan_for(poset)
    domains = _initial_domains(levels, poset)
    if require_member is not None:
        pins = [(cls[0], require_member, live) for cls in plan.classes]
    else:
        n = len(levels) - 1
        band = sum(level for k, level in enumerate(levels) if level.bit_count() == comb(n, k))
        if not band:
            return SearchResult(*_search(rels, poset, plan, domains, induced, budget))
        first, fringe = plan.order[0], live ^ band
        reps = [level & band & domains[first] for level in levels]  # any set represents its level
        pins = chain(((cls[0], f, band | fringe >> f << f) for f in _bits(fringe)
                      for cls in plan.classes),
                     ((first, (r & -r).bit_length() - 1, band) for r in reps if r))
    total = 0
    for e, member, allowed in pins:
        if not domains[e] >> member & 1:
            continue
        pinned = [d & allowed for d in domains]
        pinned[e] = 1 << member
        status, emb, nodes = _search(rels, poset, _plan_for(poset, e), pinned, induced,
                                     budget - total)
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
    return replace(contains_any(family, [poset], induced, budget), poset_index=None)


def contains_any(family: SetFamily, posets: Sequence[Poset], induced: bool = False,
                 budget: int = DEFAULT_BUDGET) -> SearchResult:
    """First containment hit over a pattern list, in list order, with the
    member relations built once for all patterns and ``budget`` nodes for each.

    FREE means the family avoids every pattern; if any per-pattern search ran
    out of budget and no pattern was found, the overall status is BUDGET.
    A negative budget is a ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    rels = _member_relations(family.members, inc=induced)
    levels = _levels(family.members)
    total = 0
    budget_hit = False
    for idx, poset in enumerate(posets):
        res = find_embedding(rels, levels, poset, induced, budget)
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
    sup = _member_relations(masks, sub=False, inc=False)[0]
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
