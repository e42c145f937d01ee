"""Closed-form quantities for complete multilevel posets, in exact arithmetic.

The two height functions are central:

* ``middle_height(s, ends)`` = ceil(log2(s - ends + 2)) is the smallest
  number of consecutive lattice levels whose interior can host s sets that
  all sit strictly between a fixed bottom and top set (non-induced).
* ``antichain_height(s)`` is the smallest m with C(m, ceil(m/2)) >= s, the
  smallest interval height whose interior can host an antichain of size s.

``wide_ends(r, t)`` counts how many of the two extreme level widths exceed
one; it shifts every bound by the extra levels the wide ends consume.
All logs are evaluated by integer power comparisons, never floating point,
so boundary cases like s - ends + 2 = 2^m are exact.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb


def positive_part(z: int) -> int:
    return z if z > 0 else 0


def wide_ends(r: int, t: int) -> int:
    """How many of the bottom width r and top width t are at least 2 (0, 1, or 2)."""
    if r < 1 or t < 1:
        raise ValueError(f"widths must be positive, got r={r}, t={t}")
    return (r >= 2) + (t >= 2)


def middle_height(s: int, ends: int = 0) -> int:
    """ceil(log2(s - ends + 2)), computed exactly; ``ends`` is a wide_ends value."""
    if ends not in (0, 1, 2) or s < ends:
        raise ValueError(f"need ends in 0..2 and s >= ends, got s={s}, ends={ends}")
    return (s - ends + 1).bit_length()


def antichain_height(s: int) -> int:
    """Smallest m >= 1 with C(m, ceil(m/2)) >= s.

    The scan starts at the least m with 2^(m-1) >= s: C(m, ceil(m/2)) is at
    most 2^(m-1), so no smaller m qualifies.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    m = (s - 1).bit_length() + 1
    while comb(m, (m + 1) // 2) < s:
        m += 1
    return m


def reduce_signature(widths) -> tuple[int, tuple[int, ...]]:
    """Collapse width-1 middle levels of a signature.

    Returns (ones_collapsed, reduced_middles): ones_collapsed counts adjacent
    width pairs that are both 1 across the whole signature (ends included),
    and reduced_middles is the middle part with all 1 entries removed.
    """
    widths = tuple(widths)
    if len(widths) < 2:
        raise ValueError("signature needs a bottom and a top width")
    if any(w < 1 for w in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    ones = sum(1 for a, b in zip(widths, widths[1:]) if a == b == 1)
    reduced = tuple(w for w in widths[1:-1] if w > 1)
    return ones, reduced


def induced_free_levels(widths) -> int:
    """Largest k such that k consecutive lattice levels can never host an
    induced copy of the complete multilevel poset with these widths.

    Equals ones_collapsed + wide_ends(r, t) + sum of antichain heights of the
    surviving middle widths.
    """
    widths = tuple(widths)
    ones, reduced = reduce_signature(widths)
    return ones + wide_ends(widths[0], widths[-1]) + sum(antichain_height(s) for s in reduced)


class CaseLabel(Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"
    S_TWO_WIDE = "SEqualsTwoPositiveF"
    OUT_OF_SCOPE = "OutOfScope"


def case_intervals(m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two adjacent intervals of s - ends values for middle height m.

    Their union is [2^(m-1) - 1, 2^m - 2] with no gap or overlap.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    central = comb(m, (m + 1) // 2)
    hi1 = 2**m - central - 1
    return (2 ** (m - 1) - 1, hi1), (hi1 + 1, 2**m - 2)


def classify(r: int, s: int, t: int) -> CaseLabel:
    """Which bound regime a three-level width triple falls into.

    With ends = wide_ends(r, t) and d = s - ends: d >= 2 always lands in
    exactly one of CASE1/CASE2 (the two intervals for m = middle_height);
    d < 2 is only covered for s = 2 with a wide end.
    """
    if min(r, s, t) < 1:
        raise ValueError(f"widths must be positive, got ({r}, {s}, {t})")
    ends = wide_ends(r, t)
    d = s - ends
    if d >= 2:
        m = middle_height(s, ends)
        (_, hi1), _ = case_intervals(m)
        return CaseLabel.CASE1 if d <= hi1 else CaseLabel.CASE2
    if s == 2 and ends > 0:
        return CaseLabel.S_TWO_WIDE
    return CaseLabel.OUT_OF_SCOPE


def density_bounds(r: int, s: int, t: int) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds on the limiting density of the largest family
    avoiding the three-level poset with widths (r, s, t), non-induced.

    CASE1 pins the density exactly at middle_height + wide_ends; CASE2 leaves
    a fractional gap below one; the s=2 wide-end case is exactly 3.
    """
    label = classify(r, s, t)
    ends = wide_ends(r, t)
    if label is CaseLabel.CASE1:
        value = Fraction(middle_height(s, ends) + ends)
        return value, value
    if label is CaseLabel.CASE2:
        m = middle_height(s, ends)
        lower = Fraction(m + ends)
        upper = lower + 1 - Fraction(2**m - s + ends - 1, comb(m, (m + 1) // 2))
        return lower, upper
    if label is CaseLabel.S_TWO_WIDE:
        return Fraction(3), Fraction(3)
    raise ValueError(
        f"widths ({r}, {s}, {t}) are out of scope: s - wide_ends = {s - ends} < 2 "
        "and not the s=2 wide-end case"
    )


class Regime(Enum):
    """Which induced three-level bound applies; the size thresholds behind
    the two large regimes are existential, so the caller asserts them."""

    S4 = "s4"
    LARGE_BOUNDED = "large-bounded"
    LARGE_GENERAL = "large-general"


def density_bounds_induced(r: int, s: int, t: int, regime: Regime) -> tuple[Fraction, Fraction]:
    """Density bounds for the induced three-level problem, per regime.

    S4 (s must be 4) and LARGE_BOUNDED pin the density at
    induced_free_levels((r, s, t)); LARGE_GENERAL leaves an additive gap of 1.
    Every regime needs s >= 2.
    """
    height = Fraction(induced_free_levels((r, s, t)))
    if s < 2:
        raise ValueError(f"induced bounds need s >= 2, got s={s}")
    if regime is Regime.S4 and s != 4:
        raise ValueError(f"regime S4 requires s=4, got s={s}")
    return height, (height + 1 if regime is Regime.LARGE_GENERAL else height)
