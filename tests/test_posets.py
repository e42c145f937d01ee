"""Poset construction, parsing, and structural invariants."""

import pytest

from subposet.posets import (
    MAX_ELEMENTS,
    Poset,
    PosetParseError,
    chain_poset,
    complete_multilevel,
    named_poset,
    parse_poset,
    parse_signature,
    signature_str,
)

from oracles import closure_relation_count, dual, longest_chain_size, serialize_poset


def relation_count(poset):
    return sum(b.bit_count() for b in poset.below)


def relation_pairs(poset):
    return {(i, j) for j in range(poset.size) for i in range(poset.size) if poset.less(i, j)}


def assert_valid_strict_order(poset):
    rel = relation_pairs(poset)
    for i in range(poset.size):
        assert (i, i) not in rel
    for a, b in rel:
        assert (b, a) not in rel
    for a, b in rel:
        for c, d in rel:
            if b == c:
                assert (a, d) in rel


def test_complete_multilevel_shapes():
    p2 = complete_multilevel([1, 1])
    assert p2.size == 2 and relation_count(p2) == 1
    butterfly = complete_multilevel([2, 2])
    assert butterfly.size == 4 and relation_count(butterfly) == 4
    diamond = complete_multilevel([1, 2, 1])
    assert diamond.size == 4 and relation_count(diamond) == 5
    # independent transitive-closure count: covers of the diamond
    covers = [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert closure_relation_count(covers, 4) == relation_count(diamond)
    with pytest.raises(ValueError):
        complete_multilevel([])
    with pytest.raises(ValueError):
        complete_multilevel([1, 0, 1])


def test_chain_poset():
    assert chain_poset(1).size == 1
    assert relation_count(chain_poset(2)) == 1
    assert relation_count(chain_poset(4)) == 6
    assert longest_chain_size(chain_poset(4)) == 4
    with pytest.raises(ValueError):
        chain_poset(0)


def test_named_posets():
    vee = named_poset("vee")
    assert vee.size == 3
    assert vee.below == (0, 1, 1)  # one bottom below two tops
    wedge = named_poset("wedge")
    assert relation_pairs(wedge) == {(0, 2), (1, 2)}
    assert named_poset("butterfly") == complete_multilevel([2, 2])
    with pytest.raises(ValueError):
        named_poset("zigzag")


def test_dual():
    vee = named_poset("vee")
    assert relation_pairs(dual(vee)) == {(1, 0), (2, 0)}  # wedge up to labels
    diamond = complete_multilevel([1, 2, 1])
    assert dual(dual(diamond)) == diamond
    assert_valid_strict_order(dual(complete_multilevel([2, 1, 3])))


def test_parse_poset():
    p = parse_poset("elements=2\n1<2")
    assert p == chain_poset(2)
    single = parse_poset("elements=1")
    assert single.size == 1 and relation_count(single) == 0
    closed = parse_poset("elements=3\n1<2\n2<3")
    assert closed.less(0, 2)
    assert_valid_strict_order(closed)


def test_parse_poset_errors():
    with pytest.raises(PosetParseError):
        parse_poset("elements=2\n1<2\n2<1")
    with pytest.raises(PosetParseError) as err:
        parse_poset("elements=2\n1<3")
    assert err.value.line == 2
    with pytest.raises(PosetParseError):
        parse_poset("elements=2\n1<1")
    with pytest.raises(PosetParseError):
        parse_poset("1<2")
    with pytest.raises(PosetParseError):
        parse_poset("")


def test_parse_poset_output_always_valid():
    texts = [
        "elements=4\n1<2\n2<3\n3<4",
        "elements=4\n1<3\n2<3\n3<4",
        "elements=5\n1<2\n1<3\n2<4\n3<4\n4<5",
        "elements=3",
    ]
    for text in texts:
        assert_valid_strict_order(parse_poset(text))


def test_serialize_poset_round_trip():
    for poset in (chain_poset(3), named_poset("vee"), complete_multilevel([2, 1, 2])):
        assert parse_poset(serialize_poset(poset)) == poset


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset(2, (0, 0, 0))
    with pytest.raises(ValueError):
        Poset(1, (1,))  # below itself
    with pytest.raises(ValueError):
        Poset(2, (2, 1))  # mutually below
    with pytest.raises(ValueError):
        Poset(3, (0, 1, 2))  # 0<1, 1<2 but closure pair 0<2 missing


def test_heights_and_depths():
    diamond = complete_multilevel([1, 2, 1])
    assert diamond.heights == (0, 1, 1, 2)
    assert diamond.depths == (2, 1, 1, 0)
    assert longest_chain_size(complete_multilevel([1, 2, 2])) == 3


def test_signatures():
    assert parse_signature("K[2,4,2]") == (2, 4, 2)
    assert parse_signature("K[1]") == (1,)
    assert signature_str((2, 4, 2)) == "K[2,4,2]"
    with pytest.raises(ValueError):
        parse_signature("K[]")
    with pytest.raises(ValueError):
        parse_signature("K[2,0]")
    with pytest.raises(ValueError):
        parse_signature("2,4,2")


def test_element_cap():
    # validation is cubic in a chain's length, so the cap bounds it
    assert chain_poset(MAX_ELEMENTS).size == 2000
    for build in (lambda: chain_poset(MAX_ELEMENTS + 1),
                  lambda: complete_multilevel([1000, 1001]),
                  lambda: parse_poset(f"elements={MAX_ELEMENTS + 1}\n"),
                  lambda: Poset(MAX_ELEMENTS + 1, (0,) * (MAX_ELEMENTS + 1))):
        with pytest.raises(ValueError, match=str(MAX_ELEMENTS)):
            build()
