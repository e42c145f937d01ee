"""Lattice primitives: sigma, levels, residue classes, family I/O."""

import pytest
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

from subposet import lattice
from subposet.constructions import construct_rst_induced, construct_rt
from subposet.lattice import (
    FamilyParseError,
    SetFamily,
    consecutive_levels,
    largest_mod_classes,
    level,
    modular_classes,
    parse_family,
    serialize_family,
    set_str,
    sigma,
)

from oracles import (check_members_reference, complement_family, parse_family_reference,
                     parse_outcome, random_family_masks)


def test_sigma_values():
    assert sigma(4, 1) == 6
    assert sigma(4, 2) == 10
    assert sigma(8, 2) == 126
    with pytest.raises(ValueError):
        sigma(4, 5)
    with pytest.raises(ValueError):
        sigma(4, -1)


def test_sigma_is_sum_of_largest_level_sizes():
    for n in range(0, 31):
        sizes = sorted((comb(n, j) for j in range(n + 1)), reverse=True)
        for k in range(0, n + 1):
            assert sigma(n, k) == sum(sizes[:k])


def test_level_contents():
    assert level(3, 0).members == (0,)
    assert level(3, 1).members == (1, 2, 4)
    assert level(4, 2).size == 6
    got = set(level(4, 2))
    want = {sum(1 << b for b in bits) for bits in combinations(range(4), 2)}
    assert got == want
    with pytest.raises(ValueError):
        level(4, 5)


def test_consecutive_levels():
    assert consecutive_levels(4, 0, 1).members == level(4, 1).members
    assert consecutive_levels(4, 1, 2).size == 10
    assert consecutive_levels(5, 1, 2).size == 20
    with pytest.raises(ValueError):
        consecutive_levels(4, 3, 2)


def test_modular_classes_partition():
    classes = modular_classes(2, 1)
    assert classes[0].members == (2,)  # {2}: sum 2 = 0 mod 2
    assert classes[1].members == (1,)  # {1}: sum 1
    for n in range(1, 11):
        for k in range(n + 1):
            classes = modular_classes(n, k)
            assert sum(c.size for c in classes) == comb(n, k)
            union = set()
            for c in classes:
                assert union.isdisjoint(c.member_set)
                union |= c.member_set
            assert union == set(level(n, k))


def test_largest_mod_classes():
    assert largest_mod_classes(6, 3, 0).size == 0
    assert largest_mod_classes(6, 3, 6).member_set == level(6, 3).member_set
    assert largest_mod_classes(8, 2, 1).size == 4
    assert largest_mod_classes(6, 3, 1).size == 4
    for n in range(1, 11):
        for k in range(n + 1):
            for r in range(n + 1):
                got = largest_mod_classes(n, k, r)
                assert Fraction(got.size) >= Fraction(r, n) * comb(n, k)


def test_largest_mod_classes_tie_break():
    # level(8,2): residues 1,3,5,7 tie at size 4; smallest residue wins.
    classes = modular_classes(8, 2)
    sizes = [c.size for c in classes]
    assert sorted(sizes, reverse=True)[0] == 4
    assert largest_mod_classes(8, 2, 1).member_set == classes[1].member_set


def test_complement_family():
    assert complement_family(SetFamily.of(3, [0])).members == (7,)
    assert complement_family(level(5, 2)).member_set == level(5, 3).member_set
    fam = SetFamily.of(4, [0, 3, 5, 9, 15])
    assert complement_family(complement_family(fam)) == fam
    assert complement_family(fam).size == fam.size


def test_family_canonical_order():
    fam = SetFamily.of(3, [6, 1, 0, 5])
    assert fam.members == (0, 1, 5, 6)
    with pytest.raises(ValueError):
        SetFamily(3, (1, 1))
    with pytest.raises(ValueError):
        SetFamily(3, (2, 1))
    with pytest.raises(ValueError):
        SetFamily(2, (4,))
    with pytest.raises(ValueError):
        SetFamily(0, ())
    with pytest.raises(ValueError):
        SetFamily(lattice.MAX_GROUND + 1, ())


def member_check_outcome(check, n, members):
    try:
        check(n, members)
    except ValueError as exc:
        return str(exc)
    return None


def test_member_check_matches_reference_loop():
    # SetFamily's range test plus one sort must accept and reject the member
    # tuples the per-member loop does, with the same message; a tuple with
    # both defects may now get the range message first
    rng = Random(12)
    range_message = "mask {} has bits outside [1, {}]"
    for _ in range(3000):
        n = rng.randint(1, 7)
        members = list(SetFamily.of(n, random_family_masks(rng, n, 12)).members)
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(4)
            if kind == 0 and members:  # duplicate a member in place
                i = rng.randrange(len(members))
                members.insert(i, members[i])
            elif kind == 1 and len(members) > 1:  # swap neighbours
                i = rng.randrange(len(members) - 1)
                members[i], members[i + 1] = members[i + 1], members[i]
            elif kind == 2:  # a negative mask
                members.insert(rng.randint(0, len(members)), -rng.randint(1, 1 << n))
            elif kind == 3:  # a mask past n
                members.insert(rng.randint(0, len(members)), rng.randrange(1 << n, 4 << n))
        members = tuple(members)
        ref = member_check_outcome(check_members_reference, n, members)
        new = member_check_outcome(SetFamily, n, members)
        if ref is not None and ref.startswith("members not in"):
            outside = [m for m in members if m < 0 or m >> n]
            if outside:
                assert new == range_message.format(outside[0], n), (n, members)
                continue
        assert new == ref, (n, members)
    for n in (1, 5):
        assert member_check_outcome(SetFamily, n, ()) is None
        assert member_check_outcome(check_members_reference, n, ()) is None


def test_of_sorts_once_and_checks_the_range(monkeypatch):
    calls = []
    canonical = lattice._canonical
    monkeypatch.setattr(lattice, "_canonical", lambda masks: calls.append(1) or canonical(masks))
    fam = SetFamily.of(4, [9, 0, 3, 9, 6])
    assert calls == [1]  # no second sort to check the order it just made
    assert fam == SetFamily(4, (0, 3, 6, 9)) and fam.member_set == {0, 3, 6, 9}
    assert SetFamily.of(2, []) == SetFamily(2, ())
    with pytest.raises(ValueError, match=r"mask 8 has bits outside \[1, 3\]"):
        SetFamily.of(3, [1, 8])
    with pytest.raises(ValueError, match=r"mask -1 has bits outside \[1, 3\]"):
        SetFamily.of(3, [-1, 2])
    with pytest.raises(ValueError, match="ground size"):
        SetFamily.of(0, [])
    with pytest.raises(ValueError, match="canonical order"):
        SetFamily(4, (3, 0))


def test_parse_family():
    fam = parse_family("n=3\n{}\n{1,3}")
    assert fam.n == 3 and fam.members == (0, 5)
    fam = parse_family("# comment\n\nn=4\n{2}\n# mid\n{1,2,4}")
    assert fam.members == (2, 11)


def test_parse_family_errors():
    with pytest.raises(FamilyParseError) as err:
        parse_family("n=2\n{3}")
    assert err.value.line == 2
    with pytest.raises(FamilyParseError):
        parse_family("{1}\nn=2")
    with pytest.raises(FamilyParseError) as err:
        parse_family("n=3\n{2,1}")
    assert err.value.line == 2
    with pytest.raises(FamilyParseError) as err:
        parse_family("n=3\n{1}\n{1}")
    assert err.value.line == 3
    with pytest.raises(FamilyParseError):
        parse_family("")
    with pytest.raises(FamilyParseError):
        parse_family("n=3\n{1, 2}")


def test_serialize_round_trip():
    fam = SetFamily.of(4, [10, 0, 7, 3])
    text = serialize_family(fam)
    assert parse_family(text) == fam
    # serialization of a parse is the canonical form of the input
    raw = "n=3\n{1,3}\n{}\n{2}"
    assert serialize_family(parse_family(raw)) == "n=3\n{}\n{2}\n{1,3}\n"


@pytest.mark.parametrize("text, line, message", [
    ("n=3\n{1}\n{" + "9" * 5000 + "}", 3, "element out of range [1, 3]"),
    ("n=3\n{1," + "9" * 5000 + "}", 2, "element out of range [1, 3]"),
    ("# big\nn=" + "9" * 5000 + "\n{1}", 2, "ground size of 5000 digits out of [1, 24]"),
])
def test_parse_family_overlong_numbers(text, line, message):
    # past Python's 4,300-digit int conversion limit: still a parse error with its line
    with pytest.raises(FamilyParseError) as err:
        parse_family(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: {message}")


ODD_LINES = ["{}", "{01,3}", "{\u0661}", "{1, 2}", "{1,,2}", "{1,}", "{3,1}", "{1,1}", "{0}",
             "# note", "", "   ", "{1}}", "1,2", "{ }", "n=3"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def mangled_family_text(rng: Random) -> str:
    """A random family file at n <= 14 with up to three edits (``mangle``)."""
    n = rng.randint(1, 14)
    return mangle(rng, n, [f"n={n}"] + [set_str(m) for m in random_family_masks(rng, n, 40)])


def mangle(rng: Random, n: int, lines: list[str]) -> str:
    """The lines of a family file at ground size n with up to three edits that
    may or may not break it: odd lines, duplicates, padding, leading zeros,
    non-ASCII digits, a missing header or a set before it, and CRLF line ends."""
    for _ in range(rng.randint(0, 3)):
        kind = rng.choices(range(7), weights=[6, 3, 3, 3, 3, 1, 1])[0]
        at = rng.randrange(len(lines)) if lines else 0
        if kind == 0:
            lines.insert(at + 1, rng.choice(ODD_LINES + [f"{{{n}}}", f"{{{n + 1}}}"]))
        elif kind == 1 and lines:
            lines.insert(at + 1, rng.choice(lines))
        elif kind == 2 and lines:
            lines[at] = " " * rng.randint(1, 3) + lines[at] + rng.choice([" ", "\t", ""])
        elif kind == 3 and lines:
            lines[at] = lines[at].replace(",", ",0", 1).replace("{", "{0", 1)
        elif kind == 4 and lines:
            lines[at] = lines[at].translate(ARABIC_INDIC)
        elif kind == 5 and lines:
            lines.pop(0)
        elif kind == 6:
            lines.insert(0, set_str(rng.randrange(1 << n)))
    sep = rng.choice(["\n", "\r\n"])
    return sep.join(lines) + rng.choice(["", sep])


def test_parse_family_matches_reference_reader():
    rng = Random(11)
    outcomes = {"family": 0, "error": 0}
    for _ in range(1500):
        text = mangled_family_text(rng)
        got = parse_outcome(parse_family, text)
        assert got == parse_outcome(parse_family_reference, text), text
        outcomes[got[0]] += 1
    assert min(outcomes.values()) >= 300, outcomes


def relabelled(family: SetFamily, rng: Random) -> SetFamily:
    perm = rng.sample(range(family.n), family.n)
    return SetFamily.of(family.n, [sum(1 << perm[e] for e in range(family.n) if x >> e & 1)
                                   for x in family])


def dense_sources(rng: Random):
    """Families holding whole levels, each with whether it is only whole
    levels: single levels, bands, B_n with {} and the full set, and relabelled
    constructions whose fringes hold part of a level."""
    for n in range(1, 11):
        yield level(n, rng.randint(0, n)), True
        j = rng.randint(-1, n - 1)
        yield consecutive_levels(n, j, rng.randint(1, n - j)), True
        yield consecutive_levels(n, -1, n + 1), True
    for n in range(6, 11):
        yield relabelled(construct_rt(n, rng.randint(2, 3), rng.randint(2, 3)), rng), False
    for n in range(8, 11):
        yield relabelled(construct_rst_induced(n, 2, 2, 2), rng), False
    yield relabelled(construct_rst_induced(10, 2, 4, 2), rng), False


def test_dense_levels_are_read_through_line_tables(monkeypatch):
    """Whole-level files build the family from the level tables alone; files
    with fringes read their lines one by one with every whole level's lines
    in the table. Both, and edited copies of them (the random-file edits, a
    duplicate inside a level block, a comment holding commas), give the
    reference reader's family or its error and line number."""
    rng = Random(23)
    read_lines = lattice._read_lines
    tables = []

    def recording(body, lineno, n, table):
        tables.append(table)
        return read_lines(body, lineno, n, table)

    monkeypatch.setattr(lattice, "_read_lines", recording)
    outcomes = {"family": 0, "error": 0}
    for family, whole in dense_sources(rng):
        text, n = serialize_family(family), family.n
        tables.clear()
        assert parse_family(text) == family
        if whole:
            assert tables == []
        else:
            (table,) = tables
            full = [k for k in range(n + 1)
                    if sum(x.bit_count() == k for x in family) == comb(n, k)]
            assert full and all(table[set_str(x)] == x for x in family if x.bit_count() in full)
        for _ in range(12):
            lines = text.splitlines()
            at = rng.randrange(1, len(lines))
            if rng.random() < 0.5:
                lines.insert(at + 1, lines[at])
            if rng.random() < 0.5:
                lines.insert(rng.randrange(len(lines) + 1), "# " + ", ".join(lines[at:at + 3]))
            edited = mangle(rng, n, lines)
            got = parse_outcome(parse_family, edited)
            assert got == parse_outcome(parse_family_reference, edited), edited
            outcomes[got[0]] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_parse_family_reads_the_edge_cases_as_before():
    assert parse_family("n=4\n{01,3}\n{\u0661,\u0664}").members == (5, 9)
    assert parse_family("\r\n n=3 \r\n  {2,3}\t\r\n{}\r\n").members == (0, 6)
    for text in ["n=3\n{1, 2}", "n=3\n{1,,2}", "n=3\n{1,}", "n=3\n{3,1}", "n=3\n{1,1}",
                 "n=3\n{0}", "n=3\n{4}", "n=3\n{2}\n{02}", "{1}\nn=3", "# only\n"]:
        with pytest.raises(FamilyParseError):
            parse_family(text)
        assert parse_outcome(parse_family, text) == parse_outcome(parse_family_reference, text)


def test_family_of_sorts_by_cardinality_then_value():
    rng = Random(5)
    for _ in range(200):
        n = rng.randint(1, 14)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 300))]
        want = tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))
        assert SetFamily.of(n, masks).members == want
