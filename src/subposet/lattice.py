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
import struct
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, count, groupby, repeat
from math import comb
from typing import Iterable, Iterator

# Masks fit in one machine word. Containment runs on families of B_n up to
# n = 16 and more; past that, containment.MAX_MEMBERS bounds the family size.
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


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients of order n.

    This is the size of the union of the k middle levels of the subset
    lattice of [n]: levels floor((n-k)/2)+1 through floor((n-k)/2)+k.
    """
    if not 0 <= k <= n:
        raise ValueError(f"sigma requires 0 <= k <= n, got n={n}, k={k}")
    base = (n - k) // 2
    return sum(comb(n, base + i) for i in range(1, k + 1))


def bits(mask: int) -> Iterator[int]:
    """The 0-based indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_str(mask: int) -> str:
    """Render a mask in the family-file set syntax, e.g. "{}" or "{1,3}"."""
    return "{" + ",".join([str(i + 1) for i in bits(mask)]) + "}"


def element_sum(mask: int) -> int:
    """Sum of the 1-based elements of a mask (used for residue classes)."""
    return sum(bits(mask)) + mask.bit_count()


def _canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """The masks sorted by cardinality, then by value."""
    out = sorted(masks)
    out.sort(key=int.bit_count)  # stable: ties stay in mask order
    return tuple(out)


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
        self._check_range()
        if _canonical(set(self.members)) != tuple(self.members):
            raise ValueError("members not in canonical order (or duplicated)")

    def _check_range(self) -> None:
        check_ground(self.n)
        members, n = self.members, self.n
        if members and (min(members) < 0 or max(members) >> n):
            m = next(m for m in members if m < 0 or m >> n)
            raise ValueError(f"mask {m} has bits outside [1, {n}]")

    @classmethod
    def of(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        """Canonicalize: deduplicate and sort by (cardinality, mask value)."""
        family = cls.__new__(cls)  # sorted here, so only the range is checked
        vars(family).update(n=n, members=_canonical(set(masks)))
        family._check_range()
        return family

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


def _level_masks(n: int, k: int) -> Iterator[int]:
    """The masks of the k-subsets of [n], in ``combinations`` order."""
    return map(sum, combinations([1 << b for b in range(n)], k))


def level(n: int, k: int) -> SetFamily:
    """All k-element subsets of [n]."""
    check_ground(n)
    if not 0 <= k <= n:
        raise ValueError(f"level requires 0 <= k <= n, got n={n}, k={k}")
    return SetFamily.of(n, _level_masks(n, k))


def consecutive_levels(n: int, j: int, k: int) -> SetFamily:
    """Union of the k consecutive levels j+1, ..., j+k of the lattice."""
    check_ground(n)
    if k < 1 or j + 1 < 0 or j + k > n:
        raise ValueError(
            f"consecutive_levels requires 0 <= j+1 and j+k <= n, got n={n}, j={j}, k={k}"
        )
    levels = map(_level_masks, repeat(n), range(j + 1, j + k + 1))
    return SetFamily.of(n, chain.from_iterable(levels))


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


_HEADER_RE = re.compile(r"n=(\d+)")
_SET_RE = re.compile(r"\{(\d+(?:,\d+)*)\}")


def number(digits: str) -> int | None:
    """The value of a run of decimal digits, or None past the digit limit of
    Python's int conversion (4,300 digits), which each reader of family and
    pattern text reports as out of its range."""
    try:
        return int(digits)
    except ValueError:
        return None


def _parse_set(line: str, n: int, lineno: int) -> int:
    """The mask of a set line no table accepted, or its error."""
    if line == "{}":
        return 0
    m = _SET_RE.fullmatch(line)
    if not m:
        raise FamilyParseError(f"malformed set {line!r}", lineno)
    # an overlong number is larger than any element: it sorts last, out of range
    elems = [n + 1 if e is None else e for e in map(number, m.group(1).split(","))]
    if any(b <= a for a, b in zip(elems, elems[1:])):
        raise FamilyParseError(f"elements must be strictly ascending in {line!r}", lineno)
    if not (1 <= elems[0] and elems[-1] <= n):
        raise FamilyParseError(f"element out of range [1, {n}] in {line!r}", lineno)
    return sum(1 << (e - 1) for e in elems)


def _level_text(n: int, k: int) -> tuple[str, int]:
    """The lines of the k-subsets of [n] in canonical order, joined by newlines, and their
    masks in 32-bit fields of one int, the first lowest. Colex recursion: the j-sets of [m]
    are those of [m-1], then the (j-1)-sets of [m-1] with m added, on the text by one
    ``replace("}", ",m}")`` per block and on the masks by one multiply and one shift."""
    ones = int.from_bytes(b"\1\0\0\0" * (size := comb(n, k)), "little")  # a 1 in each field
    texts, packed = [""] + ["{}\n"] * (n - k + 1), [0] * (n - k + 2)
    for j in range(1, k + 1):  # texts[i] and packed[i]: the C(j+i-1, j) j-sets of [j+i-1]
        for i, bit in enumerate(map((1).__lshift__, range(j - 1, n - k + j)), 1):
            texts[i] = texts[i - 1] + texts[i].replace("}", f",{i + j - 1}}}")
            added = packed[i] + bit * (ones >> 32 * (size - comb(i + j - 2, j - 1)))
            packed[i] = packed[i - 1] | added << 32 * comb(i + j - 2, j)
    return texts[-1][:-1].replace("{,", "{"), packed[-1]


def _read_lines(body: list[str], lineno: int, n: int, table: dict, seen: set) -> None:
    """Add to ``seen`` the masks of the stripped lines ``body``, numbered from ``lineno``."""
    bit = {str(e): 1 << (e - 1) for e in range(1, n + 1)}.__getitem__
    hits = map(table.get, body) if table else repeat(None)  # the lookup, chosen once
    for lineno, line, mask in zip(count(lineno), body, hits):
        if mask is None:  # a line no table holds
            if not line or line[0] == "#":
                continue
            try:
                bits = (line[0] == "{" and line[-1] == "}"
                        and list(map(bit, line[1:-1].split(","))))
            except KeyError:
                bits = None
            # sorted and distinct (the bits' sum has one bit per element) is ascending
            if not (bits and sorted(bits) == bits
                    and (mask := sum(bits)).bit_count() == len(bits)):
                mask = _parse_set(line, n, lineno)
        if mask in seen:
            raise FamilyParseError(f"duplicate set {line!r}", lineno)
        seen.add(mask)


def parse_family(text: str) -> SetFamily:
    """Parse the family file format (v1).

    Lines starting with '#' and blank lines are skipped. The first
    significant line must be ``n=<int>``; each following line is one set,
    ``{}`` or ``{a,b,c}`` with strictly ascending decimal elements of [1, n].
    Duplicate sets are rejected. The result is canonicalized.

    Every n-th line back from the last (the full set's place) is counted by its commas
    (k - 1 on a k-set line); a level whose sampled lines, n-fold, reach half its size is
    dense. If dense levels hold half the sample, each of them and ``{}`` is sought as a
    ``_level_text`` block: found, it gives its masks in canonical order, else a table of its
    lines. ``_read_lines`` reads the rest, the loose sets, the only ones sorted; if that fails,
    or one lies on a found block's level, it reads all lines, to raise at the first error.
    """
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        m = _HEADER_RE.fullmatch(line)
        if not m:
            raise FamilyParseError(f"expected 'n=<int>' header, got {line!r}", lineno)
        n = number(m.group(1))
        if n is None:
            raise FamilyParseError(f"ground size of {len(m.group(1))} digits out of "
                                   f"[1, {MAX_GROUND}]", lineno)
        if not 1 <= n <= MAX_GROUND:
            raise FamilyParseError(f"ground size {n} out of [1, {MAX_GROUND}]", lineno)
        break
    else:
        raise FamilyParseError("missing 'n=<int>' header", 1)
    body = list(map(str.strip, lines[lineno:]))
    counts = Counter(map(str.count, sample := body[::-n], repeat(",")))
    dense = [c for c, count in counts.items() if 2 * n * count >= comb(n, c + 1) > 0]
    table, blocks, loose, rest = {}, {}, set(), body
    if 2 * sum(map(counts.__getitem__, dense)) > len(sample):  # else lookups would cost more
        # body[end] is the line after the last block found, and joined[pos] the newline before it
        joined, rest, end, pos = "\n" + "\n".join(body) + "\n", [], 0, 0
        for k in sorted({0, *[c + 1 for c in dense]}):  # {} and the full set only at pos
            block, packed = _level_text(n, k)
            masks = struct.unpack(f"<{(size := comb(n, k))}I", packed.to_bytes(4 * size, "little"))
            first = "\n" + block[:block.index("}") + 1] + "\n"  # the block's first line
            at = joined.find(first, pos, None if 0 < k < n else pos + len(first))
            if at < 0 or not joined.startswith(block + "\n", at + 1):  # a table reads its lines
                table.update(zip(block.split("\n"), masks))
                continue
            start = end + joined.count("\n", pos, at)  # the block's first line in the body
            rest, end, pos = rest + body[end:start], start + size, at + len(block) + 1
            blocks[k] = masks
        rest += body[end:]
        if rest and len(got := set(map(table.get, rest))) == len(rest) and None not in got:
            loose, rest = got, []  # each a table hit, once
    try:
        _read_lines(rest, lineno + 1, n, table, loose)
        clash = blocks and not blocks.keys().isdisjoint(map(int.bit_count, loose))  # a repeat
    except FamilyParseError:
        clash = True
    if clash:  # reread in order, to raise at the first bad line or duplicate
        _read_lines(body, lineno + 1, n, table, set())
    del lines, body, sample, table, rest  # the lines and the table go before the members
    members = _canonical(loose)
    if blocks:  # each block goes between the loose sets of lower and of higher levels
        levels = {k: [*run] for k, run in groupby(members, int.bit_count)} | blocks
        members = tuple(chain.from_iterable(map(levels.get, sorted(levels))))
    family = SetFamily.__new__(SetFamily)  # in canonical order and in range, so unchecked
    vars(family).update(n=n, members=members)
    return family


def serialize_family(family: SetFamily) -> str:
    """Emit the canonical family file text, each whole level as its ``_level_text`` block."""
    n, parts = family.n, [f"n={family.n}"]
    for k, members in groupby(family.members, int.bit_count):
        whole = len(members := list(members)) == comb(n, k)
        parts.append(_level_text(n, k)[0] if whole else "\n".join(map(set_str, members)))
    return "\n".join(parts) + "\n"
