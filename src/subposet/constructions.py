"""Extremal lower-bound families: full middle levels plus modular fringes.

All three builders follow the same shape: a band of consecutive full levels
centered in the lattice, with unions of the largest residue classes glued to
the level just below and just above the band. Distinct sets in a union of r
residue classes pigeonhole into a shared class, so any r+1 of them intersect
in at most k-2 elements and union to at least k+2; that spread is what keeps
the fringe sets from completing a forbidden configuration.
"""

from __future__ import annotations

from .formulas import antichain_height, middle_height, positive_part, wide_ends
from .lattice import SetFamily, consecutive_levels, largest_mod_classes


def _banded_family(n: int, band_height: int, bottom_classes: int, top_classes: int,
                   widths: str) -> SetFamily:
    """Band of ``band_height`` full levels with residue-class fringes.

    The band starts above level k = ceil((n - band_height)/2) - 1; the bottom
    fringe sits on level k and the top fringe on level k + band_height + 1.
    A level has n residue classes; errors name the builder's ``widths``.
    """
    if max(bottom_classes, top_classes) > n:
        raise ValueError(f"widths {widths} need {max(bottom_classes, top_classes)} residue "
                         f"classes on a fringe, more than the n={n} of a level")
    k = -(-(n - band_height) // 2) - 1
    top = k + band_height + 1
    if k < 0 or top > n:
        raise ValueError(
            f"n={n} is too small for a band of {band_height} levels with fringes"
        )
    masks = [*consecutive_levels(n, k, band_height)]
    if bottom_classes > 0:
        masks.extend(largest_mod_classes(n, k, bottom_classes).members)
    if top_classes > 0:
        masks.extend(largest_mod_classes(n, top, top_classes).members)
    return SetFamily.of(n, masks)


def construct_rt(n: int, r: int, t: int) -> SetFamily:
    """Family avoiding an induced two-level pattern with widths (r, t).

    Two full middle levels, r-1 residue classes on the level below and t-1
    classes on the level above. The fringes push the size past the plain
    two-middle-level count by a Theta(1/n) fraction of a level.
    """
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    if r < 2 or t < 2:
        raise ValueError(f"need r, t >= 2, got r={r}, t={t}")
    return _banded_family(n, 2, r - 1, t - 1, f"r={r}, t={t}")


def construct_rst(n: int, r: int, s: int, t: int) -> SetFamily:
    """Family avoiding a non-induced three-level pattern with widths (r, s, t).

    middle_height(s, ends) + ends full levels, with (r-2)+ and (t-2)+ residue
    classes as fringes. Also covers the s=2 wide-end case (band height
    1 + ends).
    """
    ends = wide_ends(r, t)
    if s - ends < 2 and not (s == 2 and ends > 0):
        raise ValueError(
            f"widths ({r}, {s}, {t}) unsupported: need s - wide_ends >= 2 or s=2 with a wide end"
        )
    band = middle_height(s, ends) + ends
    return _banded_family(n, band, positive_part(r - 2), positive_part(t - 2),
                          f"r={r}, s={s}, t={t}")


def construct_rst_induced(n: int, r: int, s: int, t: int) -> SetFamily:
    """Family avoiding an induced three-level pattern with widths (r, s, t).

    antichain_height(s) + ends full levels, with r-1 and t-1 residue classes
    as fringes. With r = t = 1 this is exactly the band of antichain_height(s)
    consecutive levels.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    if min(r, t) < 1:
        raise ValueError(f"widths must be positive, got r={r}, t={t}")
    band = antichain_height(s) + wide_ends(r, t)
    return _banded_family(n, band, r - 1, t - 1, f"r={r}, s={s}, t={t}")
