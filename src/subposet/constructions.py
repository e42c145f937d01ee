"""Extremal lower-bound families: full middle levels plus modular fringes.

Every builder is one band of consecutive full levels centered in the
lattice, with unions of the largest residue classes glued to the level just
below and just above the band. ``formulas`` decides each band height:
``induced_free_levels`` for the induced builders, the lower end of
``density_bounds`` for the non-induced one. Distinct sets in a union of r
residue classes pigeonhole into a shared class, so any r+1 of them intersect
in at most k-2 elements and union to at least k+2; that spread is what keeps
the fringe sets from completing a forbidden configuration.
"""

from __future__ import annotations

from .formulas import density_bounds, induced_free_levels, positive_part
from .lattice import SetFamily, consecutive_levels, largest_mod_classes
from .posets import signature_str


def _banded_family(n: int, band_height: int, bottom_classes: int, top_classes: int,
                   widths: tuple[int, ...]) -> SetFamily:
    """Band of ``band_height`` full levels with residue-class fringes.

    The band starts above level k = ceil((n - band_height)/2) - 1; the bottom
    fringe sits on level k and the top fringe on level k + band_height + 1.
    A level has n residue classes; errors name the builder's ``widths``.
    """
    if max(bottom_classes, top_classes) > n:
        raise ValueError(f"widths {signature_str(widths)} need "
                         f"{max(bottom_classes, top_classes)} residue classes on a fringe, "
                         f"more than the n={n} of a level")
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


def construct_induced(n: int, widths) -> SetFamily:
    """Family avoiding the induced complete multilevel poset with these widths.

    induced_free_levels(widths) full levels, with (bottom width - 1) residue
    classes on the level below and (top width - 1) on the level above. With
    both end widths 1 this is exactly the band.
    """
    widths = tuple(widths)
    return _banded_family(n, induced_free_levels(widths), widths[0] - 1, widths[-1] - 1,
                          widths)


def construct_rt(n: int, r: int, t: int) -> SetFamily:
    """``construct_induced(n, (r, t))`` for n >= 6 and r, t >= 2: two full
    middle levels with fringes, a Theta(1/n) fraction of a level past them."""
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    if r < 2 or t < 2:
        raise ValueError(f"need r, t >= 2, got r={r}, t={t}")
    return construct_induced(n, (r, t))


def construct_rst(n: int, r: int, s: int, t: int) -> SetFamily:
    """Family avoiding a non-induced three-level pattern with widths (r, s, t).

    The lower density bound's count of full levels (middle_height + wide_ends,
    or 3 for s = 2 with a wide end), with (r-2)+ and (t-2)+ residue classes as
    fringes. ``density_bounds`` refuses the widths outside the paper's cases.
    """
    band = int(density_bounds(r, s, t)[0])
    return _banded_family(n, band, positive_part(r - 2), positive_part(t - 2), (r, s, t))


def construct_rst_induced(n: int, r: int, s: int, t: int) -> SetFamily:
    """``construct_induced(n, (r, s, t))`` for s >= 2 and r, t >= 1."""
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    if min(r, t) < 1:
        raise ValueError(f"widths must be positive, got r={r}, t={t}")
    return construct_induced(n, (r, s, t))
