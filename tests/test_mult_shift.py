import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from brute import language, merged_multiplier_constraints
from multishift.errors import OutputGuardExceeded
from multishift.mult_shift import (
    Pattern,
    assemble,
    chain_positions,
    count_blocks,
    enumerate_blocks,
    format_pattern,
    inadmissible_classes,
    is_admissible,
    multiplier_constraints,
    parse_pattern,
)
from multishift.shift_core import blocks, partial_extendable, sft, spacing

GOLDEN = sft(2, ["11"])
FULL = sft(2, [])
THICK = spacing("thick", [3, 12, 102, 1002, 10002])


def test_fiber_pinned():
    u = Pattern.block("1110010000010000", 2, THICK)
    assert u.fibers().get(3, ()) == ((1, 1), (2, 1), (3, 1))  # positions 3, 6, 12
    assert u.fibers().get(1, ()) == ((1, 1), (2, 1), (3, 0), (4, 0), (5, 0))  # 1, 2, 4, 8, 16
    assert 4 not in u.fibers()  # a multiple of the base represents no chain
    single = Pattern.make({5: 0}, 2, GOLDEN)
    assert single.fibers().get(5, ()) == ((1, 0),)
    assert single.fibers().get(3, ()) == ()


def test_fiber_includes_exact_power_boundary():
    # position 16 sits on the chain of 1 inside a length-16 block
    u = Pattern.block("0" * 16, 2, GOLDEN)
    assert chain_positions(1, 16, 2) == [1, 2, 4, 8, 16]
    assert u.fibers().get(1, ()) == ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0))


def test_fiber_constraints_view():
    u = Pattern.make({1: 1, 3: 1, 6: 0}, 2, GOLDEN)
    cons = u.fibers()
    assert set(cons) == {1, 3}
    assert cons[1] == ((1, 1),)
    assert cons[3] == ((1, 1), (2, 0))
    assert u.base == 2


def test_is_admissible_pinned():
    assert is_admissible(Pattern.block("11", 2, GOLDEN)) is False
    assert is_admissible(Pattern.make({1: 1, 3: 1}, 2, GOLDEN)) is True
    # divergence from the source example: the chain {1, 4} reads "11",
    # which the base space forbids, so the block cannot be admissible
    ramp2 = sft(2, ["01", "11"])
    u = Pattern.block("111111", 4, ramp2)
    assert is_admissible(u) is False
    assert inadmissible_classes(u) == [1]


def test_fiber_independence_against_bruteforce():
    # admissibility of a block equals solvability of each chain read directly
    rng = random.Random(7)
    for spec in (GOLDEN, sft(2, ["00", "11"]), sft(2, ["000"])):
        lang_cache = {}
        for _ in range(40):
            n = rng.randint(1, 10)
            word = "".join(rng.choice("01") for _ in range(n))
            u = Pattern.block(word, 2, spec)
            expected = True
            for rep, cons in u.fibers().items():
                depth = max(d for d, _ in cons)
                if depth not in lang_cache:
                    lang_cache[depth] = None
                words = language(spec, depth)
                if not any(all(int(w[d - 1]) == s for d, s in cons) for w in words):
                    expected = False
                    break
            assert is_admissible(u) == expected, (spec, word)


def test_enumerate_blocks_pinned():
    assert enumerate_blocks(GOLDEN, 2, 2) == {"00", "01", "10"}
    assert len(enumerate_blocks(GOLDEN, 2, 3)) == 6
    assert len(enumerate_blocks(FULL, 2, 4)) == 16


def test_count_blocks_pinned():
    assert count_blocks(GOLDEN, 2, 4) == 10
    assert count_blocks(GOLDEN, 2, 2) == 3
    for n in range(1, 9):
        assert count_blocks(FULL, 2, n) == 2**n


def test_count_blocks_against_direct_filter():
    # every length-4 binary word, keeping those whose pairs (i, 2i) avoid 11
    ok = 0
    for tup in itertools.product("01", repeat=4):
        w = "".join(tup)
        if all(not (w[i - 1] == "1" and w[2 * i - 1] == "1") for i in (1, 2)):
            ok += 1
    assert ok == count_blocks(GOLDEN, 2, 4) == 10


def test_count_matches_enumerate():
    for spec in (GOLDEN, sft(2, ["00", "11"]), FULL):
        for l in (2, 3):
            for n in range(1, 11):
                assert count_blocks(spec, l, n) == len(enumerate_blocks(spec, l, n))


def test_count_blocks_product_structure():
    # lengths 2**t - 1 make every chain a full dyadic ladder
    from multishift.dimension import fib
    from multishift.lambda_arith import a_set
    from multishift.mult_shift import chain_length

    for t in (2, 3):
        n = 2**t - 1
        expected = 1
        for rep in a_set(2, n):
            expected *= fib(chain_length(rep, n, 2))
        assert count_blocks(GOLDEN, 2, n) == expected


def test_enumeration_guard():
    with pytest.raises(OutputGuardExceeded):
        enumerate_blocks(FULL, 2, 30)


def test_assemble_pinned():
    assert assemble({1: "010", 3: "10"}, 2, 4) == "0110"
    assert assemble({1: "000", 3: "00"}, 2, 4) == "0000"
    with pytest.raises(KeyError):
        assemble({1: "000"}, 2, 4)
    with pytest.raises(ValueError):
        assemble({1: "0", 3: "0"}, 2, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**12 - 1))
def test_assemble_roundtrips_fibers(n, bits):
    word = format(bits, "b").zfill(n)[:n]
    u = Pattern.block(word, 2, FULL)
    fibers = {}
    for rep, cons in u.fibers().items():
        fibers[rep] = "".join(str(s) for _, s in cons)
    assert assemble(fibers, 2, n) == word


def test_multiplier_constraints_grouping():
    u = Pattern.block("00", 2, GOLDEN)
    v = Pattern.block("1", 2, GOLDEN)
    mcs = multiplier_constraints(u, v, 8)
    assert dict(mcs.groups) == {1: ((1, 0), (2, 0), (4, 1))}
    assert mcs.satisfiable_form
    # coincident positions with equal symbols collapse; unequal conflict
    same = multiplier_constraints(Pattern.block("0", 2, GOLDEN), Pattern.block("0", 2, GOLDEN), 1)
    assert same.satisfiable_form and dict(same.groups) == {1: ((1, 0),)}
    clash = multiplier_constraints(Pattern.block("0", 2, GOLDEN), Pattern.block("1", 2, GOLDEN), 1)
    assert clash.conflicts == ((1, 0, 1),)


@pytest.mark.parametrize("l", [2, 3, 4, 6])
def test_multiplier_constraints_match_the_position_merge(l):
    # the fiber-built groups and conflicts, in order, against a merge of the scaled positions;
    # multipliers carry up to l**12 and small patterns on three symbols meet often, with clashes
    rng = random.Random(28 + l)
    omega = sft(3, [])
    clashes = 0
    for _ in range(400):
        pats = []
        for size in (rng.randint(1, 6), rng.randint(1, 4)):
            if rng.random() < 0.5:
                pats.append(Pattern.block("".join(rng.choice("012") for _ in range(size)), l, omega))
            else:
                support = rng.sample(range(1, 5 * l * l), size)
                pats.append(Pattern.make({p: rng.randrange(3) for p in support}, l, omega))
        u, v = pats
        multiplier = rng.choice([1, 2, 3, 5, 7]) * l ** rng.choice([0, 0, 1, 2, rng.randint(3, 12)])
        mcs = multiplier_constraints(u, v, multiplier)
        assert (mcs.groups, mcs.conflicts) == merged_multiplier_constraints(u, v, multiplier)
        clashes += not mcs.satisfiable_form
    assert clashes >= 10


def test_multiplier_groups_are_solvable_iff_extendable():
    u = Pattern.block("0110", 2, sft(2, ["00", "11"]))
    v = Pattern.block("1011", 2, sft(2, ["00", "11"]))
    mcs = multiplier_constraints(u, v, 4 * 1 * 2**2)
    for rep, cons in mcs.groups:
        assert isinstance(partial_extendable(u.omega, cons), bool)


def test_pattern_literals():
    u = parse_pattern("l=2;support=1,2,4;values=1,1,0", GOLDEN)
    assert u.entries == ((1, 1), (2, 1), (4, 0))
    assert format_pattern(u) == "l=2;support=1,2,4;values=1,1,0"
    b = parse_pattern("block:1100", GOLDEN, base=2)
    assert b.is_block and b.block_word() == "1100"
    assert format_pattern(b) == "block:1100"
    with pytest.raises(ValueError):
        parse_pattern("block:10", GOLDEN)  # base required
    with pytest.raises(ValueError):
        parse_pattern("l=2;support=1,2;values=1", GOLDEN)


def test_patterns_sort_their_entries():
    direct = Pattern(((3, 0), (1, 1)), 2, GOLDEN)
    assert direct == Pattern.make({1: 1, 3: 0}, 2, GOLDEN) == Pattern.make([(3, 0), (1, 1)], 2, GOLDEN)
    assert direct.entries == ((1, 1), (3, 0)) and direct.length == 3
    assert format_pattern(direct) == "l=2;support=1,3;values=1,0"


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern.make({0: 1}, 2, GOLDEN)
    with pytest.raises(ValueError):
        Pattern.make({1: 2}, 2, GOLDEN)
    with pytest.raises(ValueError):
        Pattern.make({}, 2, GOLDEN)
