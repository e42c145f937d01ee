"""Maximal chains of the subset lattice: pair counting, the LYM sum, and
the marker partitions used by the chain-counting method.

A maximal chain is encoded as a permutation of [n]; its sets are the n+1
prefixes of the permutation (including the empty set and [n]). A member F of
a family meets exactly |F|! (n-|F|)! chains, so the total number of
(member, chain) incidence pairs is sum |F|! (n-|F|)!, and dividing by n!
gives the LYM sum. The partitions place one or two marker sets on every
chain:

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

Every partition report re-checks totality: label counts must sum to n! and
per-label pair counts to the closed-form pair total.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from typing import Callable, Iterator

from .containment import max_antichain, s_minus, s_plus
from .lattice import SetFamily, set_str

DEFAULT_CHAIN_CAP = 8
HARD_CHAIN_CAP = 10

EMPTY_LABEL = "EMPTY"


class PartitionPreconditionError(ValueError):
    """The requested partition is undefined for this family."""


def enumerate_chains(n: int, cap: int = DEFAULT_CHAIN_CAP) -> Iterator[tuple[int, ...]]:
    """All n! maximal chains as permutations of [n], lexicographic order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > min(cap, HARD_CHAIN_CAP):
        raise ValueError(
            f"chain enumeration capped at n <= {min(cap, HARD_CHAIN_CAP)}, got n={n}"
        )
    return permutations(range(1, n + 1))


def chain_prefixes(order: tuple[int, ...]) -> list[int]:
    """The n+1 prefix masks of a chain, ascending from 0 to the full set."""
    masks = [0]
    m = 0
    for e in order:
        m |= 1 << (e - 1)
        masks.append(m)
    return masks


def count_pairs_formula(family: SetFamily) -> int:
    """Closed form for the number of (member, maximal chain) incidence pairs."""
    n = family.n
    return sum(factorial(m.bit_count()) * factorial(n - m.bit_count()) for m in family.members)


def count_pairs_enumerated(family: SetFamily, cap: int = DEFAULT_CHAIN_CAP) -> int:
    """The same pair count, by walking every maximal chain."""
    members = family.member_set
    total = 0
    for perm in enumerate_chains(family.n, cap):
        total += sum(1 for pm in chain_prefixes(perm) if pm in members)
    return total


def lym_sum(family: SetFamily) -> Fraction:
    """Exact LYM sum: sum over members of 1 / C(n, |F|)."""
    n = family.n
    return sum(
        (Fraction(1, comb(n, m.bit_count())) for m in family.members), Fraction(0)
    )


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


def _label_ab(a: int, b: int) -> tuple:
    return ("AB", a, b)


def _label_degenerate(a: int) -> tuple:
    return ("S", a)


def _label_min(a: int) -> tuple:
    return ("A", a)


def _render(label: tuple | str) -> str:
    """``EMPTY_LABEL`` as is; a tuple (kind, *sets) as "kind:{..}|{..}"."""
    if label == EMPTY_LABEL:
        return label
    kind, *sets = label
    return kind + ":" + "|".join(set_str(m) for m in sets)


def _build_report(family: SetFamily, mode: str, params: dict[str, int],
                  label_of: Callable[[list[int]], tuple | str], cap: int) -> PartitionReport:
    chain_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    members = family.member_set
    for perm in enumerate_chains(family.n, cap):
        prefixes = chain_prefixes(perm)
        label = label_of(prefixes)
        chain_counts[label] += 1
        pair_counts[label] += sum(1 for pm in prefixes if pm in members)
    total_chains = sum(chain_counts.values())
    total_pairs = sum(pair_counts.values())
    assert total_chains == factorial(family.n), "partition is not total"
    assert total_pairs == count_pairs_formula(family), "pair accounting broken"
    names = {label: _render(label) for label in chain_counts}
    return PartitionReport(mode, family.n, params,
                           {names[k]: v for k, v in chain_counts.items()},
                           {names[k]: v for k, v in pair_counts.items()},
                           total_chains, total_pairs)


def _marker_caches(family: SetFamily):
    sm_cache: dict[int, int] = {}
    sp_cache: dict[int, int] = {}

    def sm(mask: int) -> int:
        if mask not in sm_cache:
            sm_cache[mask] = s_minus(family, mask)
        return sm_cache[mask]

    def sp(mask: int) -> int:
        if mask not in sp_cache:
            sp_cache[mask] = s_plus(family, mask)
        return sp_cache[mask]

    return sm, sp


def min_max_partition(family: SetFamily, cap: int = DEFAULT_CHAIN_CAP) -> PartitionReport:
    """Label every chain by its smallest and largest family set (EMPTY if none)."""
    members = family.member_set

    def label_of(prefixes: list[int]) -> tuple | str:
        on_chain = [pm for pm in prefixes if pm in members]
        if not on_chain:
            return EMPTY_LABEL
        return _label_ab(on_chain[0], on_chain[-1])

    return _build_report(family, "minmax", {}, label_of, cap)


def min_r_partition(family: SetFamily, r: int, cap: int = DEFAULT_CHAIN_CAP) -> PartitionReport:
    """Label every chain by its smallest set A with s_minus(A) >= r.

    Defined only when the family holds an antichain of size r (then the full
    set qualifies on every chain, so the marker always exists).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    enumerate_chains(family.n, cap)  # rejects n over the cap before the costlier precondition
    if max_antichain(family).size < r:
        raise PartitionPreconditionError(
            f"family has no antichain of size {r}; the partition is undefined"
        )
    sm, _ = _marker_caches(family)

    def label_of(prefixes: list[int]) -> tuple | str:
        a = next(pm for pm in prefixes if sm(pm) >= r)
        return _label_min(a)

    return _build_report(family, "minr", {"r": r}, label_of, cap)


def minr_maxt_partition(family: SetFamily, r: int, t: int,
                        cap: int = DEFAULT_CHAIN_CAP) -> PartitionReport:
    """Two-marker partition: degenerate parts S:A where no t-antichain exists
    above A, regular parts AB:A|B otherwise (A ⊆ B always).

    For r >= 2 the family must hold an antichain of size max(r, t); for r = 1
    chains disjoint from the family fall into the EMPTY part.
    """
    if r < 1 or t < 1:
        raise ValueError(f"need r, t >= 1, got r={r}, t={t}")
    enumerate_chains(family.n, cap)  # rejects n over the cap before the costlier precondition
    if r >= 2 and max_antichain(family).size < max(r, t):
        raise PartitionPreconditionError(
            f"family has no antichain of size max(r, t) = {max(r, t)}; "
            "the partition is undefined"
        )
    members = family.member_set
    sm, sp = _marker_caches(family)

    def label_of(prefixes: list[int]) -> tuple | str:
        if r == 1:
            a = next((pm for pm in prefixes if pm in members), None)
            if a is None:
                return EMPTY_LABEL
        else:
            a = next(pm for pm in prefixes if sm(pm) >= r)
        if sp(a) < t:
            return _label_degenerate(a)
        if t == 1 and r == 1:
            b = next(pm for pm in reversed(prefixes) if pm in members)
        elif t == 1:
            b = next(pm for pm in reversed(prefixes) if sp(pm) >= 1)
        else:
            b = next(pm for pm in reversed(prefixes) if sp(pm) >= t)
        assert a & b == a, "markers out of order"
        return _label_ab(a, b)

    return _build_report(family, "minrmaxt", {"r": r, "t": t}, label_of, cap)


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


@dataclass(frozen=True)
class PairBoundCheck:
    """Both sides of a pair-count comparison against coeff * n!."""

    pairs: int
    allowance: Fraction
    coeff: Fraction
    passed: bool


def pair_bound_check(family: SetFamily, coeff) -> PairBoundCheck:
    """Exact check: incidence pairs of the family <= coeff * n!."""
    coeff = Fraction(coeff)
    allowance = coeff * factorial(family.n)
    pairs = count_pairs_formula(family)
    return PairBoundCheck(pairs, allowance, coeff, pairs <= allowance)
