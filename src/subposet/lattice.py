"""Boolean lattice primitives: bitmask subsets, canonical set families,
levels, and modular residue classes.

The ground set [n] = {1, ..., n} is fixed per family. A subset of [n] is an
n-bit mask with element i stored at bit i-1, so inclusion tests, unions and
complements are single integer operations. A family keeps its members in
canonical order (ascending cardinality, ties broken by numeric mask value),
which makes serialization and every witness produced downstream
reproducible.

Everything here is immutable and pure, so all functions are safe to call
from concurrent contexts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

# Masks must fit comfortably in one machine word; all interesting instances
# live at n <= 10 anyway.
MAX_GROUND = 24


class FamilyParseError(ValueError):
    """Malformed family file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def check_ground(n: int) -> int:
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground size must be in [1, {MAX_GROUND}], got {n}")
    return n


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients of order n.

    This is the size of the union of the k middle levels of the subset
    lattice of [n]: levels floor((n-k)/2)+1 through floor((n-k)/2)+k.
    """
    if not 0 <= k <= n:
        raise ValueError(f"sigma requires 0 <= k <= n, got n={n}, k={k}")
    base = (n - k) // 2
    return sum(comb(n, base + i) for i in range(1, k + 1))


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def set_str(mask: int) -> str:
    """Render a mask in the family-file set syntax, e.g. "{}" or "{1,3}"."""
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def element_sum(mask: int) -> int:
    """Sum of the 1-based elements of a mask (used for residue classes)."""
    return sum(elements_of(mask))


@dataclass(frozen=True)
class SetFamily:
    """A canonical family of subsets of [n].

    Members are bitmasks in strictly increasing (cardinality, value) order;
    the constructor rejects anything else. Use :meth:`of` to build a family
    from arbitrary mask iterables.
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        check_ground(self.n)
        full = (1 << self.n) - 1
        prev = None
        for m in self.members:
            if m < 0 or m & ~full:
                raise ValueError(f"mask {m} has bits outside [1, {self.n}]")
            key = (m.bit_count(), m)
            if prev is not None and key <= prev:
                raise ValueError("members not in canonical order (or duplicated)")
            prev = key

    @classmethod
    def of(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        """Canonicalize: deduplicate and sort by (cardinality, mask value)."""
        unique = sorted(set(masks), key=lambda m: (m.bit_count(), m))
        return cls(n, tuple(unique))

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.member_set


def level(n: int, k: int) -> SetFamily:
    """All k-element subsets of [n]."""
    check_ground(n)
    if not 0 <= k <= n:
        raise ValueError(f"level requires 0 <= k <= n, got n={n}, k={k}")
    masks = [sum(1 << b for b in bits) for bits in combinations(range(n), k)]
    return SetFamily.of(n, masks)


def consecutive_levels(n: int, j: int, k: int) -> SetFamily:
    """Union of the k consecutive levels j+1, ..., j+k of the lattice."""
    check_ground(n)
    if k < 1 or j + 1 < 0 or j + k > n:
        raise ValueError(
            f"consecutive_levels requires 0 <= j+1 and j+k <= n, got n={n}, j={j}, k={k}"
        )
    masks: list[int] = []
    for lvl in range(j + 1, j + k + 1):
        masks.extend(level(n, lvl).members)
    return SetFamily.of(n, masks)


def modular_classes(n: int, k: int) -> list[SetFamily]:
    """Partition level k by element sum modulo n; class i holds sum = i (mod n)."""
    check_ground(n)
    buckets: list[list[int]] = [[] for _ in range(n)]
    for m in level(n, k):
        buckets[element_sum(m) % n].append(m)
    return [SetFamily.of(n, b) for b in buckets]


def largest_mod_classes(n: int, k: int, r: int) -> SetFamily:
    """Union of the r largest residue classes of level k.

    Ties between equal-sized classes go to the smaller residue index, so the
    output is deterministic. The union always has at least r/n * C(n, k)
    members.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    classes = modular_classes(n, k)
    order = sorted(range(n), key=lambda i: (-classes[i].size, i))
    masks: list[int] = []
    for i in order[:r]:
        masks.extend(classes[i].members)
    return SetFamily.of(n, masks)


def complement_family(family: SetFamily) -> SetFamily:
    """Complement every member; an involution on families."""
    full = (1 << family.n) - 1
    return SetFamily.of(family.n, (full ^ m for m in family.members))


_HEADER_RE = re.compile(r"n=(\d+)")
_SET_RE = re.compile(r"\{(\d+(?:,\d+)*)\}")


def parse_family(text: str) -> SetFamily:
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


def serialize_family(family: SetFamily) -> str:
    """Emit the canonical family file text (round-trips through parse_family)."""
    lines = [f"n={family.n}"]
    lines.extend(set_str(m) for m in family.members)
    return "\n".join(lines) + "\n"

