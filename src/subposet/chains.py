"""Maximal chains of the subset lattice: pair counting, the LYM sum, and
the marker partitions used by the chain-counting method.

A maximal chain is a sequence of n+1 sets from the empty set to [n], adding
one element per step (a permutation of [n]). A member F of a family meets
exactly |F|! (n-|F|)! chains, so the total number of (member, chain)
incidence pairs is sum |F|! (n-|F|)!, and dividing by n! gives the LYM sum.
The partitions place one or two marker sets on every chain:

* min-max: the smallest and largest family sets on the chain;
* min_r: the smallest chain set A whose down-set in the family holds an
  antichain of size r (s_minus(A) >= r);
* min_r-max_t: the min_r marker A, plus, when an antichain of size t exists
  above A (s_plus(A) >= t), the largest chain set B with s_plus(B) >= t.
  For r = 1 the A marker is the smallest family set on the chain (chains
  missing the family get the EMPTY part), and for t = 1 with r = 1 the B
  marker is the largest family set on the chain. For t = 1 with r >= 2 the
  B marker is the largest chain set with s_plus >= 1; a family-membership
  rule there can land below A and would leave some chains unlabeled.

Every marker is the first chain set in a set P or the last chain set in a
set Q, where P and Q are the family, the up-closed {s_minus >= r} or the
down-closed {s_plus >= t}. So chains are counted by dynamic programming over
the 2^n sets instead of walked one by one: g(S) counts the chains from the
empty set to S that meet P nowhere before S, h(S) the chains from S to [n]
that meet Q nowhere after S, each with its family hits. A part with markers
A and B then holds g(A) |B-A|! h(B) chains, and its pairs add up the hits
before A, from A to B (an upward DP from each A) and after B. The closed
sets share one containment.Relations record: a set that no neighbour puts
inside asks only whether s_minus(S) >= r (s_plus(S) >= t), which the
matcher settles as cheaply as it can (containment._matching). Cost:
O(2^n n) big-int operations for the DPs plus, per first marker A with two
markers, O(k) for each superset of A with k more elements and at most top
in all, top being the size of the largest B marker (at most the top fringe
level in the band families), instead of n! walked chains.

Every partition report re-checks totality: label counts must sum to n! and
per-label pair counts to the closed-form pair total.

_membership checks the one limit, HARD_CHAIN_CAP, before any relation row;
a lower limit is command-line policy (``chains --chain-cap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial
from typing import Callable, Sequence

# max_antichain stays importable here: perfbench/spans.py wraps it under this name
from .containment import Relations, max_antichain, s_minus, s_plus  # noqa: F401
from .lattice import SetFamily, set_str

HARD_CHAIN_CAP = 16

EMPTY_LABEL = "EMPTY"


class PartitionPreconditionError(ValueError):
    """The requested partition is undefined for this family."""


def check_chain_cap(n: int, cap: int) -> None:
    """Refuse chain counting over [n] when n exceeds min(cap, HARD_CHAIN_CAP)."""
    if n > min(cap, HARD_CHAIN_CAP):
        raise ValueError(
            f"chain enumeration capped at n <= {min(cap, HARD_CHAIN_CAP)}, got n={n}"
        )


def count_pairs_formula(family: SetFamily) -> int:
    """Closed form for the number of (member, maximal chain) incidence pairs."""
    n = family.n
    return sum(factorial(m.bit_count()) * factorial(n - m.bit_count()) for m in family.members)


def _membership(family: SetFamily) -> bytearray:
    """The member marks, the first 2^n array of every count: the hard cap is checked here."""
    check_chain_cap(family.n, HARD_CHAIN_CAP)
    member = bytearray(1 << family.n)
    for x in family.members:
        member[x] = 1
    return member


def _prefix_dp(n: int, member: Sequence[int], marked: Sequence[int]):
    """Per set S: the chains from the empty set to S that meet no marked set
    before S, and their family hits before S."""
    count = [0] * (1 << n)
    hits = [0] * (1 << n)
    count[0] = 1
    for s in range(1, 1 << n):
        c = h = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            p = s ^ low
            if not marked[p]:
                c += count[p]
                h += hits[p] + count[p] * member[p]
        count[s] = c
        hits[s] = h
    return count, hits


def _suffix_dp(n: int, member: Sequence[int], marked: Sequence[int]):
    """The mirror of _prefix_dp: chains from S to [n] meeting no marked set
    after S, and their family hits after S."""
    count, hits = _prefix_dp(n, member[::-1], marked[::-1])
    return count[::-1], hits[::-1]


def _up_closed(n: int, test: Callable[[int], bool]) -> bytearray:
    """Marks of the up-closed set {S : test(S)}: S is in it if some S - x is,
    and only otherwise does test(S) decide."""
    inside = bytearray(1 << n)
    for s in range(1 << n):
        rest = s
        while rest:
            low = rest & -rest
            if inside[s ^ low]:
                inside[s] = 1
                break
            rest ^= low
        else:
            inside[s] = test(s)
    return inside


def _s_minus_at_least(n: int, rels: Relations, r: int) -> bytearray:
    return _up_closed(n, lambda s: s_minus(rels, s, r) >= r)


def _s_plus_at_least(n: int, rels: Relations, t: int) -> bytearray:
    full = (1 << n) - 1  # {s_plus >= t} is down-closed: its complements are up-closed
    return _up_closed(n, lambda u: s_plus(rels, full ^ u, t) >= t)[::-1]


def count_pairs_enumerated(family: SetFamily) -> int:
    """The same pair count, summed over all maximal chains by the chain DP
    (independent of the closed form)."""
    n = family.n
    member = _membership(family)
    count, hits = _prefix_dp(n, member, bytes(1 << n))
    full = (1 << n) - 1
    return hits[full] + count[full] * member[full]


def lym_sum(family: SetFamily) -> Fraction:
    """Exact LYM sum, sum over members of 1 / C(n, |F|): the incidence pairs
    over n!, the mean number of members per maximal chain."""
    return Fraction(count_pairs_formula(family), factorial(family.n))


@dataclass
class PartitionReport:
    """Per-part chain and pair counts for one marker partition."""

    mode: str
    n: int
    params: dict[str, int]
    chain_counts: dict[str, int]
    pair_counts: dict[str, int]
    total_chains: int
    total_pairs: int

    def payload(self) -> dict:
        labels = {
            lbl: {"chains": str(self.chain_counts[lbl]), "pairs": str(self.pair_counts[lbl])}
            for lbl in sorted(self.chain_counts)
        }
        out: dict = {"mode": self.mode, "n": self.n}
        out.update({k: v for k, v in sorted(self.params.items())})
        out["labels"] = labels
        out["total_chains"] = str(self.total_chains)
        out["total_pairs"] = str(self.total_pairs)
        return out


def _build_report(family: SetFamily, member: Sequence[int], mode: str, params: dict[str, int],
                  first: Sequence[int], last: Sequence[int], single: str) -> PartitionReport:
    """Chain and pair counts per part. The A marker is the first chain set in
    ``first``; the B marker is the last chain set in ``last``, taken when A
    is in ``last`` (part AB:A|B). Otherwise the part is single:A. Chains that
    meet no ``first`` set form the EMPTY part. The suffix DP over ``last``
    runs only when ``last`` marks some set, the unmarked one only when some
    ``first`` set is not in ``last`` (never in minmax). Each A's interval DP
    climbs level by level only up to ``top``, the size of the largest B
    marker, and each label set is rendered once per report."""
    n = family.n
    full = (1 << n) - 1
    fact = [factorial(k) for k in range(n + 1)]
    g, g_hits = _prefix_dp(n, member, first)
    if any(map(int.__gt__, first, last)):  # otherwise no single part reads free
        free = _suffix_dp(n, member, bytes(1 << n))[1]
    if 1 in last:  # otherwise no A is in last, and h is never read (minr)
        h, h_hits = _suffix_dp(n, member, last)
        h = [c if q else 0 for c, q in zip(h, last)]  # h[b]: the chains whose B marker is b
        top = max(b.bit_count() for b in range(1 << n) if h[b])
    name = cache(set_str)
    chain_counts: dict[str, int] = {}
    pair_counts: dict[str, int] = {}
    if not first[full] and g[full]:
        chain_counts[EMPTY_LABEL], pair_counts[EMPTY_LABEL] = g[full], g_hits[full]
    mid = [0] * (1 << n)  # per A: family hits over the chains from A to B, both ends included
    for a in range(1 << n):
        ga = g[a]
        if not (first[a] and ga):
            continue
        if not last[a]:
            rest = fact[n - a.bit_count()]
            label = single + ":" + name(a)
            chain_counts[label] = ga * rest
            pair_counts[label] = (g_hits[a] + ga * member[a]) * rest + ga * free[a]
            continue
        ab = "AB:" + name(a) + "|"
        bits = [1 << i for i in range(n) if not a >> i & 1]
        for k in range(top - a.bit_count() + 1):  # a set above top feeds no part
            d = fact[k]
            gd, hits_d = ga * d, g_hits[a] * d
            for sub in combinations(bits, k):
                b = a | sum(sub)
                m = member[b] * d
                for low in sub:
                    m += mid[b ^ low]
                mid[b] = m
                if hb := h[b]:
                    label = ab + name(b)
                    chain_counts[label] = gd * hb
                    pair_counts[label] = (hits_d + ga * m) * hb + gd * h_hits[b]
    total_chains = sum(chain_counts.values())
    total_pairs = sum(pair_counts.values())
    assert total_chains == factorial(n), "partition is not total"
    assert total_pairs == count_pairs_formula(family), "pair accounting broken"
    return PartitionReport(mode, n, params, chain_counts, pair_counts, total_chains, total_pairs)


def min_max_partition(family: SetFamily) -> PartitionReport:
    """Label every chain by its smallest and largest family set (EMPTY if none)."""
    member = _membership(family)
    return _build_report(family, member, "minmax", {}, member, member, "AB")


def min_r_partition(family: SetFamily, r: int) -> PartitionReport:
    """Label every chain by its smallest set A with s_minus(A) >= r.

    Defined only when the family holds an antichain of size r (then the full
    set qualifies on every chain, so the marker always exists).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    member = _membership(family)  # the cap, before the costlier precondition
    rels = Relations(family.members)
    if s_minus(rels, (1 << family.n) - 1, r) < r:  # no witness needed
        raise PartitionPreconditionError(
            f"family has no antichain of size {r}; the partition is undefined"
        )
    first = _s_minus_at_least(family.n, rels, r)
    return _build_report(family, member, "minr", {"r": r}, first,
                         bytes(1 << family.n), "A")


def minr_maxt_partition(family: SetFamily, r: int, t: int) -> PartitionReport:
    """Two-marker partition: degenerate parts S:A where no t-antichain exists
    above A, regular parts AB:A|B otherwise (A ⊆ B always).

    For r >= 2 the family must hold an antichain of size max(r, t); for r = 1
    chains disjoint from the family fall into the EMPTY part.
    """
    if r < 1 or t < 1:
        raise ValueError(f"need r, t >= 1, got r={r}, t={t}")
    member = _membership(family)  # the cap, before the costlier precondition
    rels = Relations(family.members)
    wide = max(r, t)
    if r >= 2 and s_minus(rels, (1 << family.n) - 1, wide) < wide:
        raise PartitionPreconditionError(
            f"family has no antichain of size max(r, t) = {wide}; "
            "the partition is undefined"
        )
    n = family.n
    first = _s_minus_at_least(n, rels, r) if r >= 2 else member
    # for r = 1, A is a member, so s_plus(A) >= 1 always holds
    last = member if r == 1 and t == 1 else _s_plus_at_least(n, rels, t)
    return _build_report(family, member, "minrmaxt", {"r": r, "t": t}, first, last, "S")


def three_per_level_coeff(n: int) -> Fraction:
    """Exact pair-count coefficient for a family with at most three sets per
    proper level plus both extremes: 2 + 3 * sum over 0 < i < n of 1/C(n, i).

    Bounds the incidence pairs of any family whose antichains have size at
    most 3 by this coefficient times n factorial.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Fraction(2) + 3 * sum(
        (Fraction(1, comb(n, i)) for i in range(1, n)), Fraction(0)
    )


def capped_level_coeff(n: int, s: int) -> Fraction:
    """Exact pair-count coefficient for a family with fewer than s sets per
    level: sum over all levels j of min((s-1)/C(n, j), 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    return sum(
        (min(Fraction(s - 1, comb(n, j)), Fraction(1)) for j in range(n + 1)), Fraction(0)
    )

