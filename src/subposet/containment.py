"""Subposet containment search and maximum antichains.

The search and the antichain matcher read one Relations record per member
list. Its ``has[e]`` is the bitset of the members containing element e, so
``above(S)`` (members containing S) is the AND of ``has[e]`` over e in S and
``below(S)`` (members inside S) the complement of the OR over e not in S,
one lookup per chunk of 8 elements in tables built on first use, like
``has`` itself: a check that empty domains decide, or a width that LYM
settles (``_matching``), builds neither. The rows are ``sup[i]`` and
``sub[i]``, ``above``/``below`` of member i without i, and ``inc[i]``, the
rest; a domain narrows by one AND with a row. Each kind maps member index to
row and builds an entry from ``has`` (``inc``'s from ``sup`` and ``sub``)
the first time it is read, so a search decided in a few nodes pays for a few
rows, not for all m. A search or matcher may still read every row, 3 * m^2
bits (480 MB for the 35,750 sets of levels 7-9 of B_16), so lists over
MAX_MEMBERS masks are refused first. Plain searches never read ``inc``, and
s_minus and s_plus, matching on ``below``/``above`` of a set, read ``sup``
alone (``_matching``).

Six refinements keep exhaustive verdicts affordable without giving up
completeness:

* pattern elements are placed in a fixed constraint-first order (most
  comparabilities first, smaller interchangeability classes first, lower
  height first), so images get squeezed from both sides early; a pinned
  search places the pin first and then the rest by height distance from it,
  ties in that order: the elements of its height (its twins among them)
  come next, then those of the nearest heights;
* interchangeable pattern elements (equal strict down-set and up-set) must
  take ascending member indices, which quotients away their permutations;
* after every placement, each class of interchangeable unplaced elements
  must retain at least as many available candidates as it has unplaced
  members, and every element's image is pre-restricted to the cardinality
  window its chain height above and below allows;
* before the next element's candidates are tried, those whose placement
  would fail that count check, size gaps included, go in bulk (``_search``);
* each placement narrows the later elements comparable to it to the sizes
  their size gaps allow (``posets.size_gaps``), off the record's ``windows``;
* the unplaced twins of a class share one domain: they get the same window,
  and every placement narrows them by the same row and gap, so one AND
  serves them; only the first element, maybe pinned, has a domain of its own.

The size gap of b < e is a lower bound on |img e| - |img b| in every copy.
Plain, it is the number of steps on a longest chain from b to e. Induced,
take a chain of twin classes C_0 < C_1 < ... < C_m, b in C_0 and e in C_m,
and U_l the union of the images of C_l. A class of s >= 2 elements maps to
an antichain of s sets, so |U_0| >= |img b| + [|C_0| >= 2]. For 0 < l < m
every image in C_l contains U_{l-1}. With |C_l| >= 2 the images less
U_{l-1} are an antichain of |C_l| sets in B(U_l - U_{l-1}), so by Sperner
(1928) |U_l| - |U_{l-1}| >= antichain_height(|C_l|). With |C_l| = 1 the
step is [|C_{l-1}| = 1]: a singleton class may map onto the union of the
class below it only when that class has two elements or more. Last, img e
contains U_{m-1}, strictly when |C_m| >= 2 (or every twin's image would
strictly contain img e) or |C_{m-1}| = 1. The gap is the largest sum of
these steps over such chains. Putting a class into a chain never lowers the
sum, so a longest path over the cover relation of the classes finds it.
Bottom to top: K[2,2,2] 1 + 2 + 1 = 4, K[2,3,2] 5, K[1,3,1] 3, butterfly 2.

``nodes`` counts the candidates tried, so a dropped one is no node.

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

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, chain, groupby
from math import comb
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .lattice import SetFamily, bits
from .posets import Poset, size_gaps

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
    status is FOUND. FREE means the full tree was explored and no copy
    exists; BUDGET means the verdict is unknown.
    """

    status: SearchStatus
    embedding: tuple[int, ...] | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND

    @property
    def free(self) -> bool:
        return self.status is SearchStatus.FREE


@dataclass(frozen=True)
class _Plan:
    """Static search data for one pattern poset, plain or induced. Depth d
    places ``order[d]``; the unplaced elements of a twin class share one
    domain, slot ``class_of[e]``, so the rest name classes with unplaced
    elements. ``checks[d]`` holds (class, need, kind, gap) for each of them,
    those ``order[d]`` narrows first: the unplaced count checked after the
    placement, the row kind towards ``order[d]`` (0 ``sup``, 1 ``sub``, 2
    ``inc``; None for an incomparable class, plain) and the size gap past 1
    (``size_gaps``, at most ``reach``), else 0, negative for ``sub``: images
    of the class in row i lie in ``windows[kind][|i| + gap]``. ``cuts[d]``
    holds the narrowed ones transposed, for the count filter of ``_search``."""

    order: tuple[int, ...]
    twin_prev: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    checks: tuple[tuple[tuple[int, int, int | None, int], ...], ...]
    cuts: tuple[tuple[tuple[int, int, int, int], ...], ...]
    reach: int


@lru_cache(maxsize=None)
def _plan_for(poset: Poset, induced: bool, first: int | None = None) -> _Plan:
    """Search plan; ``first`` (the first of its twin class) goes to the front,
    and its next twin may take any member, as the pinned one may be any class
    image. The rest follow by |height - height of first|, a stable sort of the
    base order: twins share a height and are in class order there, so every
    class is still placed in class order, which ``twin_prev`` needs. So a
    class's last element is unplaced while any is, and stands for them all:
    twins are alike towards every other element."""
    p, below, above = poset.size, poset.below, poset.above
    classes = poset.twin_classes
    class_of = tuple(ci for e in range(p) for ci, cls in enumerate(classes) if e in cls)
    gaps, reach = size_gaps(poset, induced)
    twin_prev = {e: cls[pos - 1] if pos and cls[pos - 1] != first else -1
                 for cls in classes for pos, e in enumerate(cls)}
    deg = [c.bit_count() for c in poset.comparable]
    order = sorted(range(p), key=lambda e: (-deg[e], len(classes[class_of[e]]),
                                            poset.heights[e], e))
    if first is not None:
        h = poset.heights[first]
        order = [first, *sorted((e for e in order if e != first),
                                key=lambda e: abs(poset.heights[e] - h))]
    rest = (1 << p) - 1
    placed = [0] * len(classes)
    checks, cuts = [], []
    for e in order:
        rest ^= 1 << e
        later = (above[e] & rest, below[e] & rest, rest & ~above[e] & ~below[e] if induced else 0)
        ce = class_of[e]
        placed[ce] += 1
        check = []
        for ci, (cls, done) in enumerate(zip(classes, placed)):
            if done < len(cls):
                kind = next((k for k, group in enumerate(later) if group >> cls[-1] & 1), None)
                g = gaps[ce][ci] if kind == 0 else -gaps[ci][ce] if kind == 1 else 0
                check.append((ci, len(cls) - done, kind, g if abs(g) > 1 else 0))
        checks.append(tuple(sorted(check, key=lambda step: step[2] is None)))
        cuts.append(tuple((ci, need, (1, 0, 2)[k], -g) for ci, need, k, g in check
                          if k is not None))
    return _Plan(tuple(order), tuple(twin_prev[e] for e in range(p)), classes, class_of,
                 tuple(checks), tuple(cuts), reach)


class _Rows(dict):
    """Member index to one kind of row, ``build(i)`` stored on first read."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, i: int) -> int:
        return self.setdefault(i, self.build(i))


class Relations:
    """Member data of distinct masks (module docstring): ``full`` holds all
    members, ``levels[k]`` the k-sets, and the row maps start empty. Two
    threads reading one missing row may both build it, to the same value."""

    def __init__(self, masks: Iterable[int]):
        self.masks = masks = tuple(masks)
        m = len(masks)
        if m > MAX_MEMBERS:
            raise ValueError(f"{m} members exceed the relation precompute cap of {MAX_MEMBERS}")
        self.full = (1 << m) - 1
        levels = [0] * (max(masks, default=0).bit_length() + 1)
        start = 0
        for k, run in groupby(masks, int.bit_count):  # one block per run of k-sets
            end = start + len(list(run))
            levels[k] |= (1 << end) - (1 << start)
            start = end
        self.levels = tuple(levels)
        self.sup = _Rows(lambda i: self.above(masks[i]) ^ 1 << i)
        self.sub = _Rows(lambda i: self.below(masks[i]) ^ 1 << i)
        self.inc = _Rows(lambda i: self.full ^ self.sup[i] ^ self.sub[i] ^ 1 << i)

    @cached_property
    def has(self) -> tuple[int, ...]:
        n, m = len(self.levels) - 1, len(self.masks)
        code, w = ("B", 8) if n <= 8 else ("H", 16) if n <= 16 else ("I", 32)
        # the masks in w-bit fields, member 0 lowest, under a leading 1: "0b1" and w
        # binary digits per member, member 0 last, so every w-th digit is one has[e]
        text = bin(int.from_bytes(struct.pack(f"<{m}{code}", *self.masks), "little") | 1 << w * m)
        return tuple(int(text[w + 2 - e::w], 2) for e in range(n))

    @cached_property
    def windows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Members of size >= k and <= k by k; k past n, or below 0 (wrapping), reads 0."""
        pad = (0,) * len(self.levels)
        return (tuple(accumulate(reversed(self.levels), or_))[::-1] + pad,
                tuple(accumulate(self.levels, or_)) + pad)

    @cached_property
    def _chunks(self) -> list[tuple[list[int], list[int]]]:
        """Per chunk of at most 8 elements, ``ands[s]`` and ``ors[s]``: the
        AND and the OR of ``has[e]`` over the elements e of the chunk in s."""
        chunks = []
        for lo in range(0, len(self.has), 8):
            ands, ors = [self.full], [0]
            for has in self.has[lo:lo + 8]:  # the entries holding this element
                ands += [x & has for x in ands]
                ors += [x | has for x in ors]
            chunks.append((ands, ors))
        return chunks

    def above(self, mask: int) -> int:
        """The members containing ``mask``."""
        if mask >> len(self.has):
            return 0
        up = self.full
        for ands, _ in self._chunks:
            up &= ands[mask & 255]
            mask >>= 8
        return up

    def below(self, mask: int) -> int:
        """The members contained in ``mask``."""
        out = 0
        mask = ~mask
        for _, ors in self._chunks:
            out |= ors[mask & len(ors) - 1]
            mask >>= 8
        return self.full ^ out


def _initial_domains(levels: Sequence[int], poset: Poset) -> list[int]:
    """Static cardinality windows: an element with chain height h below and
    d above needs an image whose size leaves room for both."""
    sizes = [k for k, level in enumerate(levels) if level]
    domains = []
    for h, d in zip(poset.heights, poset.depths):
        lo = sizes[0] + h
        domains.append(sum(levels[lo:max(lo, sizes[-1] - d + 1)]))  # disjoint levels: sum is OR
    return domains


def _search(rels: Relations, plan: _Plan, domains: list[int], budget: int,
            copies: dict[int, tuple[int, ...]] | None = None
            ) -> tuple[SearchStatus, tuple[int, ...] | None, int]:
    """Depth-first search with an explicit stack: one frame (element, untried
    candidates, domains) per placed element, so the pattern size is not
    bounded by the interpreter's recursion limit. Depth d follows the plan's
    schedule; ``nodes`` counts the candidates tried. A candidate narrows and
    counts the classes of ``plan.checks[d]`` one at a time and fails at the
    first one short of its need. On the way down to depth d, each cut (rep,
    need, kind, gap) of ``plan.cuts[d]`` drops every candidate that check
    would reject for rep: each member j of S, the available candidates of
    rep, counts for those in its row and in ``windows[kind][|j| + gap]``,
    tallied in thermometer bitsets that saturate at need. A cut runs when
    |S| * need < |c|, at two ANDs at most per member of S. ``free`` holds the
    members not in use: CPython ANDs a negative operand through a
    complemented copy. With ``copies`` each full embedding is kept under its
    member bitset and the search goes on."""
    if not all(domains):
        return SearchStatus.FREE, None, 0
    rows = rels.sup, rels.sub, rels.inc
    order, twin_prev, class_of = plan.order, plan.twin_prev, plan.class_of
    checks, cuts = plan.checks, plan.cuts
    masks = rels.masks
    windows = rels.windows
    if plan.reach > len(rels.levels):  # gaps past the padding
        windows = tuple(sizes + (0,) * plan.reach for sizes in windows)
    p = len(order)
    img = [-1] * p
    free = rels.full
    nodes = 0
    stack: list[tuple[int, int, list[int]]] = []
    depth = 0
    cand = [domains[cls[-1]] for cls in plan.classes]  # order[0], maybe pinned, reads its own
    e = order[0]
    c = domains[e]
    while True:
        if not c:
            if not stack:
                return SearchStatus.FREE, None, nodes
            e, c, cand = stack.pop()
            depth -= 1
            free |= 1 << img[e]
            continue
        if nodes >= budget:
            return SearchStatus.BUDGET, None, nodes
        nodes += 1
        bit = c & -c
        c ^= bit
        i = bit.bit_length() - 1
        img[e] = i
        if depth + 1 == p:  # the last element: nothing left to narrow or count
            if copies is None:
                return SearchStatus.FOUND, tuple(img), nodes
            copies.setdefault(rels.full ^ free | bit, tuple(img))
            continue
        avail = free ^ bit
        nxt = list(cand)
        for ci, need, k, g in checks[depth]:
            x = nxt[ci]
            if k is not None:
                x &= rows[k][i]
                if g:
                    x &= windows[k][masks[i].bit_count() + g]
                nxt[ci] = x
            if (x & avail).bit_count() < need:
                break
        else:
            free = avail
            depth += 1
            stack.append((e, c, cand))
            cand = nxt
            e = order[depth]
            c = cand[class_of[e]] & free
            tp = twin_prev[e]
            if tp >= 0:
                c = c >> (low := img[tp] + 1) << low
            for ci, need, k, g in cuts[depth]:
                s = cand[ci] & free
                if s.bit_count() * need < c.bit_count():
                    flip = rows[k]
                    tally = [0] * need  # tally[t]: candidates seen at least t + 1 times
                    while s:
                        j = s.bit_length() - 1
                        s ^= 1 << j
                        x = flip[j] & c
                        if g:
                            x &= windows[k][masks[j].bit_count() + g]
                        for t in range(need - 1, 0, -1):
                            tally[t] |= tally[t - 1] & x
                        tally[0] |= x
                    c &= tally[-1]


def find_embedding(rels: Relations, live: int, poset: Poset, induced: bool = False,
                   budget: int = DEFAULT_BUDGET, require_member: int | None = None,
                   copies: dict[int, tuple[int, ...]] | None = None) -> SearchResult:
    """Search among the members in ``live``, a bitset of member indices of
    ``rels``. Members outside ``live`` are never used, and images are member
    indices of ``rels``.

    The search runs once per pin of the fringe and band phases (module
    docstring), all pins sharing the node budget; the first copy ends it.
    Without a full level there are no pins and one plain search runs.

    With ``require_member`` set, only embeddings whose image uses that member
    index are sought: one pin per twin class puts the class's first element,
    placed first, on that member, over all live members. An empty dict as
    ``copies`` as well asks for all copies: the search goes on past each one
    and keeps every member bitset once, with the first embedding reaching it;
    FOUND carries the first copy. The solver lists its copies so.
    """
    if poset.size > live.bit_count():
        return SearchResult(SearchStatus.FREE, None, 0)
    levels = [level & live for level in rels.levels]
    plan = _plan_for(poset, induced)
    domains = _initial_domains(levels, poset)
    if require_member is not None:
        pins = [(cls[0], require_member, live) for cls in plan.classes]
    elif copies is not None:
        raise ValueError("copies are listed only with require_member")
    else:
        n = len(levels) - 1
        band = sum(level for k, level in enumerate(levels) if level.bit_count() == comb(n, k))
        if not band:
            return SearchResult(*_search(rels, plan, domains, budget))
        first, fringe = plan.order[0], live ^ band
        reps = [level & band & domains[first] for level in levels]  # any set represents its level
        pins = chain(((cls[0], f, band | fringe >> f << f) for f in bits(fringe)
                      for cls in plan.classes),
                     ((first, (r & -r).bit_length() - 1, band) for r in reps if r))
    total = 0
    for e, member, allowed in pins:
        if not domains[e] >> member & 1:
            continue
        pinned = [d & allowed for d in domains]
        pinned[e] = 1 << member
        status, emb, nodes = _search(rels, _plan_for(poset, induced, e), pinned,
                                     budget - total, copies)
        total += nodes
        if status is not SearchStatus.FREE:
            return SearchResult(status, emb, total)
    if copies:
        return SearchResult(SearchStatus.FOUND, next(iter(copies.values())), total)
    return SearchResult(SearchStatus.FREE, None, total)


def contains_subposet(family: SetFamily, poset: Poset, induced: bool = False,
                      budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Does the family contain a (induced) copy of the pattern poset?

    FOUND carries the deterministic witness embedding; FREE is only reported
    after full exhaustion; BUDGET is a distinct unknown outcome. A negative
    budget is a ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    rels = Relations(family.members)
    return find_embedding(rels, rels.full, poset, induced, budget)


class AntichainResult(NamedTuple):
    size: int
    witness: tuple[int, ...]


def _matching(rels: Relations, live: int, levels: Sequence[int],
              r: int | None = None) -> tuple[dict[int, int], int]:
    """Does the widest antichain of the members in ``live`` hold r sets? The
    matching found (right vertex to left partner), and a size that is >= r
    exactly when the width is; with no r, the width itself, |live| - a
    maximum matching (Dilworth). The live members lie in ``levels``, the
    d + 1 levels of an interval spanned by d elements of [n'], n' the largest
    member's bit length: [∅, [n']] for max_antichain, [∅, S ∩ [n']] for
    s_minus(S) and [S, [n']] for s_plus(S).

    Fewer than r live members say no before any level is read; a live level
    of r sets, an antichain, says yes. Otherwise roots are taken until
    |live| - matching, never below the width, is below r, or none is left.
    No r means r = the widest live level + 1: by Sperner every band of full
    levels stops there, a single level at once, and by LYM (Lubell 1966) so
    does a live level as wide as the interval's central rank, C(d, d // 2),
    before any root. The graph has an edge (u, v) whenever member u is a
    proper subset of member v, both live: bit v of ``sup[u] & live``. Roots
    go in index order, and a path from a root meets earlier roots only, so
    only the ``sup`` rows of the roots taken are read, and so built.

    Augmenting paths come from an iterative depth-first search that keeps the
    path explicitly and steps to a free right vertex first when the node has
    one. Right vertices seen by a failed search stay marked until the next
    augmentation: until the matching changes, no augmenting path can pass
    through them.
    """
    size = live.bit_count()
    if r is not None and size < r:
        return {}, size
    widest = max([(level & live).bit_count() for level in levels], default=0)
    if r is None:
        r = widest + 1
    elif widest >= r:
        return {}, widest
    d = len(levels) - 1
    size = widest if live and widest == comb(d, d // 2) else size
    sup = rels.sup
    match_right: dict[int, int] = {}
    free = live
    seen = 0
    for root in bits(live):
        if size < r:
            break
        u = root
        path: list[int] = []
        while True:
            nbrs = sup[u] & live & ~seen
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
                size -= 1
                seen = 0
                prev = root
                for w in path:
                    match_right[w], prev = prev, match_right.get(w)
                break
            u = match_right[v]
    return match_right, size


def max_antichain(family: SetFamily, rels: Relations | None = None) -> AntichainResult:
    """Exact maximum antichain size plus a deterministic witness (member
    indices); ``rels``, when given, is the family's own record, reused. The
    witness is the highest level of that size if one is (``_matching``),
    else the complement of a minimum vertex cover of the matching (König)."""
    if rels is None:
        rels = Relations(family.members)
    match_right, size = _matching(rels, rels.full, rels.levels)
    for level in reversed(rels.levels):
        if level.bit_count() == size:  # a level of the record is one block of indices
            return AntichainResult(size, tuple(range(lo := level.bit_length() - size, lo + size)))
    # König: left vertices reachable from unmatched ones by alternating paths
    # (zl) and the right vertices on those paths (zr).
    zl = rels.full
    for u in match_right.values():
        zl ^= 1 << u
    zr = 0
    frontier = zl
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rels.sup[low.bit_length() - 1] & ~zr
        zr |= new
        while new:
            bit = new & -new
            new ^= bit
            w = 1 << match_right[bit.bit_length() - 1]
            if not zl & w:
                zl |= w
                frontier |= w
    witness = tuple(bits(zl & ~zr))
    assert len(witness) == size, "vertex-cover extraction mismatch"
    return AntichainResult(size, witness)


def s_minus(rels: Relations, mask: int, r: int | None = None) -> int:
    """The widest antichain of the members inside ``mask`` (given r: >= r exactly when it is)."""
    d = (mask & (1 << len(rels.levels) - 1) - 1).bit_count()
    return _matching(rels, rels.below(mask), rels.levels[:d + 1], r)[1]


def s_plus(rels: Relations, mask: int, r: int | None = None) -> int:
    """The widest antichain of the members holding ``mask`` (given r: >= r exactly when it is)."""
    return _matching(rels, rels.above(mask), rels.levels[mask.bit_count():], r)[1]
