"""Finite strict partial orders and the complete multilevel family.

A poset on p elements (indexed 0..p-1 internally, 1-based in files) stores,
for each element, the bitmask of elements strictly below it. The relation is
validated to be irreflexive, antisymmetric and transitively closed on
construction, so every Poset value in the program is a genuine strict order.
Validation is cubic in a chain's length (P2000 builds in about 1.4 s), so a
pattern has at most MAX_ELEMENTS elements, checked before any per-element list
is built. ``size_gaps`` bounds how far apart in size two comparable elements
land in every copy, the table the containment search narrows domains by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import sub
import re

from .formulas import antichain_height
from .lattice import bits, number

MAX_ELEMENTS = 2_000


class PosetParseError(ValueError):
    """Malformed poset file; carries the offending 1-based line number (0 if global)."""

    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


def _longest_chains(rel: tuple[int, ...]) -> tuple[int, ...]:
    """Per element i, the number of elements on a longest chain inside
    ``rel[i]``, a transitively closed strict relation (below or above)."""
    length = [0] * len(rel)
    # each j in rel[i] has rel[j] inside rel[i], so fewer bits: it comes first
    for i in sorted(range(len(rel)), key=lambda i: rel[i].bit_count()):
        length[i] = max((length[j] + 1 for j in bits(rel[i])), default=0)
    return tuple(length)


@dataclass(frozen=True)
class Poset:
    """Strict order on ``size`` elements; ``below[i]`` masks the elements < i."""

    size: int
    below: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.size <= MAX_ELEMENTS:
            raise ValueError(f"poset needs 1 to {MAX_ELEMENTS} elements, got {self.size}")
        if len(self.below) != self.size:
            raise ValueError("below relation length does not match size")
        full = (1 << self.size) - 1
        for i, b in enumerate(self.below):
            if b < 0 or b & ~full:
                raise ValueError(f"below[{i}] references elements outside the poset")
            if b >> i & 1:
                raise ValueError(f"element {i + 1} is below itself")
            for j in bits(b):
                if self.below[j] >> i & 1:
                    raise ValueError(f"elements {i + 1} and {j + 1} are mutually below")
                if self.below[j] & ~b:
                    raise ValueError("below relation is not transitively closed")

    def less(self, i: int, j: int) -> bool:
        """True when element i is strictly below element j."""
        return bool(self.below[j] >> i & 1)

    @cached_property
    def above(self) -> tuple[int, ...]:
        up = [0] * self.size
        for i, b in enumerate(self.below):
            for j in bits(b):
                up[j] |= 1 << i
        return tuple(up)

    @cached_property
    def comparable(self) -> tuple[int, ...]:
        return tuple(b | a for b, a in zip(self.below, self.above))

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """For each element, the number of elements on a longest chain strictly below it."""
        return _longest_chains(self.below)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Dual of heights: longest chain strictly above each element."""
        return _longest_chains(self.above)

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """Interchangeable elements (equal strict down-set and up-set), each
        class in index order, the classes in order of their first element."""
        groups: dict[tuple[int, int], list[int]] = {}
        for e in range(self.size):
            groups.setdefault((self.below[e], self.above[e]), []).append(e)
        return tuple(tuple(g) for g in groups.values())


@lru_cache(maxsize=None)
def size_gaps(poset: Poset, induced: bool) -> tuple[tuple[list[int], ...], int]:
    """Lower bounds on |img e| - |img b| for b < e in every (induced) copy of
    the poset in a Boolean lattice, by twin class, and a bound on them; the
    proof is in the ``containment`` docstring. ``gaps[c][d]`` is the gap
    from class c up to class d, at most 1 where d is not above c. It is a
    longest path from c to d over the cover relation of the classes, less
    antichain_height(|d|) - 1 when |d| >= 2. The path starts at [|c| >= 2],
    and an edge into d weighs antichain_height(|d|) when |d| >= 2, otherwise
    [|c'| = 1] for the class c' it leaves. A plain copy counts every class
    as one element: the gaps are longest chains."""
    classes = poset.twin_classes
    above, heights = poset.above, poset.heights
    size = [len(cls) if induced else 1 for cls in classes]
    class_of = {e: ci for ci, cls in enumerate(classes) for e in cls}
    reps = sum(1 << cls[0] for cls in classes)
    step = [antichain_height(s) if s > 1 else 0 for s in size]
    trim = [max(w - 1, 0) for w in step]
    edges = []  # edges[c]: (class d covering c, weight into d)
    for c, cls in enumerate(classes):
        # c's covers lie above c and above no other element above c. Each
        # element met drops all above it, which then needs no walk: what
        # lies above a dropped element lies above the one met too
        covers = left = above[cls[0]]
        while left:
            z = (left & -left).bit_length() - 1
            covers &= ~above[z]
            left &= covers ^ 1 << z
        edges.append([(class_of[z], step[class_of[z]] or int(size[c] == 1))
                      for z in bits(covers & reps)])
    topo = sorted(range(len(classes)), key=lambda c: heights[classes[c][0]])
    gaps: list[list[int]] = [[]] * len(classes)
    for at, c in enumerate(topo):  # the classes above c come after it
        best = [-1] * len(classes)
        best[c] = int(size[c] > 1)
        for d in topo[at:]:
            if (b := best[d]) >= 0:
                for d2, w in edges[d]:
                    if b + w > best[d2]:
                        best[d2] = b + w
        gaps[c] = [*map(sub, best, trim)]
    return tuple(gaps), max(0, *map(max, gaps))


def complete_multilevel(widths) -> Poset:
    """Complete multilevel poset for a width vector (bottom to top).

    Level i has widths[i] pairwise incomparable elements, and every element
    of a lower level lies below every element of a higher level. Element
    indices run level by level, bottom first.
    """
    widths = tuple(widths)
    if not widths or any(w < 1 for w in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    if sum(widths) > MAX_ELEMENTS:
        # the sum itself is not shown: it may be past the digits str() writes
        raise ValueError(f"widths sum to more than the cap of {MAX_ELEMENTS} elements")
    below: list[int] = []
    lower = 0
    for w in widths:
        below.extend([lower] * w)
        start = len(below) - w
        lower |= ((1 << w) - 1) << start
    return Poset(len(below), tuple(below))


def chain_poset(k: int) -> Poset:
    """Total order on k elements."""
    if not 1 <= k <= MAX_ELEMENTS:
        raise ValueError(f"chain needs 1 to {MAX_ELEMENTS} elements, got {k}")
    return complete_multilevel([1] * k)


NAMED = {
    "vee": (1, 2),
    "wedge": (2, 1),
    "butterfly": (2, 2),
}


def named_poset(name: str) -> Poset:
    try:
        return complete_multilevel(NAMED[name])
    except KeyError:
        raise ValueError(f"unknown poset name {name!r}; known: {sorted(NAMED)}") from None


_SIGNATURE_RE = re.compile(r"K\[(\d+(?:,\d+)*)\]")


def parse_signature(text: str) -> tuple[int, ...]:
    """Parse a width vector written as ``K[r,s1,...,t]``, e.g. ``K[2,4,2]``."""
    m = _SIGNATURE_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed signature {text!r}; expected K[w1,...,wk]")
    digits = m.group(1).split(",")
    widths = tuple(map(number, digits))
    if None in widths:
        raise ValueError(f"width of {len(digits[widths.index(None)])} digits is too large")
    if any(w < 1 for w in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    return widths


def signature_str(widths) -> str:
    return "K[" + ",".join(str(w) for w in widths) + "]"


_ELEMENTS_RE = re.compile(r"elements=(\d+)")
_COVER_RE = re.compile(r"(\d+)<(\d+)")


def parse_poset(text: str) -> Poset:
    """Parse the poset file format (v1): ``elements=<p>`` then covers ``a<b``.

    The transitive closure of the covers is taken; cycles are rejected.
    Lines starting with '#' and blank lines are skipped.
    """
    size: int | None = None
    covers: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if size is None:
            m = _ELEMENTS_RE.fullmatch(line)
            if not m:
                raise PosetParseError(f"expected 'elements=<int>' header, got {line!r}", lineno)
            size = number(m.group(1))
            if size is None or not 1 <= size <= MAX_ELEMENTS:
                got = f"{len(m.group(1))} digits" if size is None else size
                raise PosetParseError(f"need 1 to {MAX_ELEMENTS} elements, got {got}", lineno)
            continue
        m = _COVER_RE.fullmatch(line)
        if not m:
            raise PosetParseError(f"malformed cover {line!r}; expected 'a<b'", lineno)
        a, b = ends = [number(digits) for digits in m.groups()]
        for x, digits in zip(ends, m.groups()):
            if x is None or not 1 <= x <= size:
                shown = f"of {len(digits)} digits" if x is None else x
                raise PosetParseError(f"element {shown} out of range [1, {size}]", lineno)
        if a == b:
            raise PosetParseError(f"self-relation {line!r}", lineno)
        covers.append((a - 1, b - 1))
    if size is None:
        raise PosetParseError("missing 'elements=<int>' header", 1)

    below = [0] * size
    for a, b in covers:
        below[b] |= 1 << a
    changed = True
    while changed:
        changed = False
        for i in range(size):
            acc = below[i]
            for j in bits(below[i]):
                acc |= below[j]
            if acc != below[i]:
                below[i] = acc
                changed = True
    for i in range(size):
        if below[i] >> i & 1:
            raise PosetParseError(f"cycle detected through element {i + 1}")
    return Poset(size, tuple(below))
