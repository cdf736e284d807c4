import gc
import hashlib
import itertools
import random
import time

import pytest

from brute import brute_connector_gaps, brute_extendable, brute_graph_structure, language, normalize_forbidden
from multishift.errors import HorizonExceeded, PreconditionFailed, SpecError, UndecidableProperty
from multishift.oracle import binary_sft_family, random_sft_family
from multishift.shift_core import (
    PROPERTIES,
    SftSpec,
    SpacingSpec,
    blocks,
    build_graph,
    decide,
    graph_dot,
    least_word,
    mixing_gap_index,
    offset_table,
    partial_extendable,
    sft,
    spacing,
    spec_from_dict,
    spec_to_dict,
    word_admissible,
    word_pins,
)
from multishift import shift_core

GOLDEN = sft(2, ["11"])
RAMP = sft(2, ["01"])  # once a 0 appears, no later 1
ALT = sft(2, ["00", "11"])
FULL = sft(2, [])


def all_small_sfts(max_len=2):
    pool = [w for t in range(1, max_len + 1) for w in map("".join, itertools.product("01", repeat=t))]
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            yield sft(2, combo)


# --- graph construction -----------------------------------------------------


def test_graph_golden():
    g = build_graph(GOLDEN)
    assert g.vertices == ("0", "1")
    edges = {(u, s) for u in range(2) for s, _ in g.out[u]}
    assert edges == {(0, 0), (0, 1), (1, 0)}  # words 00, 01, 10


def test_graph_ramp():
    g = build_graph(RAMP)
    assert g.vertices == ("0", "1")
    # edges 00, 10, 11: nothing enters 1 from 0
    assert [s for s, _ in g.out[g.vertices.index("0")]] == [0]
    assert sorted(s for s, _ in g.out[g.vertices.index("1")]) == [0, 1]


def test_window_graph_matches_language():
    # the grown and pruned graph against strings: windows are the admissible words of the
    # window's length, labelled edges the admissible words one longer, pruned windows the
    # clean words of the window's length outside the language
    rng = random.Random(1919)
    longest = {1: 6, 2: 6, 3: 4, 4: 3}  # forbidden word lengths the brute language search affords
    specs = [sft(1, []), sft(1, ["000000"]), sft(2, ["0", "1"]), sft(3, ["1"]), sft(4, ["0", "2", "13"])]
    for _ in range(250):
        digits = "0123"[: rng.randint(1, 4)]
        words = ["".join(rng.choices(digits, k=rng.randint(1, longest[len(digits)]))) for _ in range(rng.randint(0, 6))]
        specs.append(sft(len(digits), words))
    seen = set()
    for spec in specs:
        g = build_graph(spec)
        window = max(spec.memory - 1, 1)
        words = set(map("".join, itertools.product("0123"[: spec.alphabet], repeat=window)))
        clean = {w for w in words if not any(f in w for f in spec.forbidden)}
        assert g.window == window
        assert g.vertices == tuple(sorted(language(spec, window))), spec
        assert g.pruned == tuple(sorted(clean - language(spec, window))), spec
        labelled = [(u, s, d) for u, edges in enumerate(g.out) for s, d in edges]
        assert sorted(g.vertices[u] + str(s) for u, s, _ in labelled) == sorted(language(spec, window + 1)), spec
        assert all(g.vertices[d] == (g.vertices[u] + str(s))[1:] for u, s, d in labelled), spec
        assert g.succ == [sum(1 << d for x, _, d in labelled if x == u) for u in range(len(g))], spec
        assert g.pred == [sum(1 << u for u, _, x in labelled if x == d) for d in range(len(g))], spec
        for u in range(len(g)):  # a step pinned to s follows exactly the edges labelled s
            for s in range(spec.alphabet):
                heads = sum(1 << d for x, t, d in labelled if (x, t) == (u, s))
                assert shift_core._walk(g, 1 << u, {1: s}, 1, 1) == heads, spec
        for p, masks in enumerate(g.at):
            at = {int(v[p]) for v in g.vertices}
            assert masks == {s: sum(1 << i for i, v in enumerate(g.vertices) if v[p] == str(s)) for s in at}, spec
        seen |= {f"alphabet {spec.alphabet}", f"memory {spec.memory}"}
        if any(len(w) == 1 for w in spec.forbidden):
            seen.add("single")
        if g.pruned:
            seen.add("pruned")
        if not g.vertices:
            seen.add("empty")
    assert seen >= {f"alphabet {a}" for a in range(1, 5)} | {f"memory {m}" for m in range(7)} | {"single", "pruned", "empty"}


def test_window_graph_build_and_decide_on_1000_windows():
    # every 4-word over ten symbols but 0000: growing the windows, reading the 9,999 edges,
    # the successor and predecessor masks and the primitivity exponent from successor rows
    # are each linear in the edges, so both take a few hundredths of a second of CPU;
    # a fresh n-long table per edge costs about 0.2 s, and an exponent that steps every set
    # bit of every row about 0.4 s
    spec = sft(10, ["0000"])
    shift_core._ctx.cache_clear()
    start = time.process_time()
    g = build_graph(spec)
    built = time.process_time() - start
    verdicts = {prop: decide(spec, prop) for prop in PROPERTIES}
    elapsed = time.process_time() - start
    assert len(g) == 1000 and g.pruned == ()
    assert all(v.value for v in verdicts.values())
    assert verdicts["mixing"].evidence == "strongly connected; cycle-length gcd 1; primitivity exponent 4"
    assert built < 0.1, f"building took {built:.2f} s of CPU"
    assert elapsed < 0.25, f"building and deciding took {elapsed:.2f} s of CPU"


def test_graph_everything_forbidden():
    g = build_graph(sft(2, ["0", "1"]))
    assert g.vertices == ()


def test_graph_dot_output():
    dot = graph_dot(GOLDEN)
    assert dot.startswith("digraph")
    assert '"1" -> "0" [label="0"];' in dot


def test_normalization():
    assert sft(2, ["11", "110"]).forbidden == ("11",)
    with pytest.raises(SpecError):
        sft(2, ["2"])
    with pytest.raises(SpecError):
        spacing("cofinite", [0])


def test_normalization_matches_the_reference_rule():
    # comparing a word only with shorter kept words drops the same words as comparing it with all
    rng = random.Random(35)
    for _ in range(3000):
        digits = "0123"[: rng.randint(1, 4)]
        words = ["".join(rng.choice(digits) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(0, 12))]
        assert shift_core._normalize_forbidden(words) == normalize_forbidden(words)
        assert sft(len(digits), words).forbidden == normalize_forbidden(words)


def test_specs_normalize_themselves():
    # a directly built spec is normalized, so it equals (and hashes as) the factory's
    direct = SftSpec(2, ("11", "1"))
    assert direct == sft(2, ["1"]) and direct.forbidden == ("1",) and hash(direct) == hash(sft(2, ["1"]))
    assert SftSpec(3, ["20", "1", "2", "12"]) == sft(3, ["1", "2"])
    assert SpacingSpec("thick", (12, 3, 3)) == spacing("thick", [3, 12])
    assert SpacingSpec("thick", [12, 3, 3]).complement == (3, 12)
    # normalizing comes before checking: "19" holds the forbidden "1", so it is dropped unread
    assert sft(2, ["1", "19"]) == SftSpec(2, ("1",))
    with pytest.raises(SpecError, match="symbol '9' out of range"):
        sft(2, ["19"])


def test_sft_normalizes_once(monkeypatch):
    normalize, calls = shift_core._normalize_forbidden, []
    monkeypatch.setattr(shift_core, "_normalize_forbidden", lambda words: calls.append(words) or normalize(words))
    assert sft(2, ["11", "1", "011"]).forbidden == ("1",)
    assert len(calls) == 1
    assert spec_from_dict({"kind": "sft", "alphabet": 2, "forbidden": ["00", "000"]}).forbidden == ("00",)
    assert len(calls) == 2


# --- blocks -----------------------------------------------------------------


def test_blocks_pinned():
    assert blocks(GOLDEN, 2) == frozenset({"00", "01", "10"})
    assert len(blocks(GOLDEN, 4)) == 8
    assert blocks(spacing("cofinite", [1, 2]), 3) == frozenset({"000", "001", "010", "100"})


def _blocks_families():
    rng = random.Random(25)
    gaps = [spacing("cofinite", rng.sample(range(1, 9), rng.randint(0, 4))) for _ in range(6)]
    gaps += [spacing("thick", rng.sample(range(1, 11), rng.randint(1, 5))) for _ in range(6)]
    return list(dict.fromkeys(binary_sft_family(3) + random_sft_family(5, seed=25, alphabet=3) + gaps))


def test_blocks_match_bruteforce_language():
    # every binary forbidden set with words up to length 3 (390 distinct specs, with dead-end
    # cases such as {00,01} where pure scanning overcounts), seeded three-symbol specs, and seeded
    # cofinite and thick gap sets with banned gaps up to 8 and 10, shorter and longer than some words
    for spec in _blocks_families():
        for n in range(1, 11):
            assert blocks(spec, n) == frozenset(language(spec, n)), (spec, n)


def test_blocks_spacing_horizon():
    with pytest.raises(HorizonExceeded):
        blocks(spacing("cofinite", [1], horizon=5), 6)


def test_window_graphs_match_their_pinned_digest():
    # vertices, labelled edges and pruned windows of every binary spec with words up to length 2
    # and 40 seeded ones with words up to length 3, in order
    digest = hashlib.sha256()
    for spec in binary_sft_family(2) + random_sft_family(40, seed=7):
        g = build_graph(spec)
        digest.update(repr((spec, g.window, g.vertices, g.out, g.pruned)).encode())
    assert digest.hexdigest() == "df69776c2341bb25131ef9e4e7bd48161a68b23921057673d29c5b1dd9019fbc"


# --- partial extendability ---------------------------------------------------


def test_partial_extendable_pinned():
    assert partial_extendable(GOLDEN, [(1, 1), (2, 1)]) is False
    assert partial_extendable(RAMP, [(2, 0), (5, 1)]) is False
    # 0101... satisfies a 0 at position 1 and a 1 at position 4
    assert partial_extendable(ALT, [(1, 0), (4, 1)]) is True
    assert partial_extendable(ALT, [(1, 0), (3, 1)]) is False


def test_partial_extendable_duplicate_positions():
    with pytest.raises(ValueError):
        partial_extendable(GOLDEN, [(3, 0), (3, 1)])
    assert partial_extendable(GOLDEN, [(3, 0), (3, 0)]) is True


def test_partial_extendable_matches_bruteforce():
    specs = [GOLDEN, RAMP, ALT, sft(2, ["00", "01"]), sft(2, ["000", "110"])]
    cases = [
        [(1, 0)],
        [(2, 1), (5, 1)],
        [(1, 1), (4, 1), (6, 0)],
        [(3, 0), (4, 0), (5, 0)],
        [(1, 1), (2, 0), (7, 1)],
    ]
    for spec in specs:
        for cons in cases:
            assert partial_extendable(spec, cons) == brute_extendable(spec, cons), (spec, cons)


def test_partial_extendable_agrees_with_blocks_membership():
    for spec in (GOLDEN, ALT, sft(2, ["00", "01"])):
        for n in (1, 2, 3, 4):
            admissible = blocks(spec, n)
            for tup in itertools.product("01", repeat=n):
                w = "".join(tup)
                cons = [(i + 1, int(c)) for i, c in enumerate(w)]
                assert partial_extendable(spec, cons) == (w in admissible)


def test_spacing_extendable():
    sp = spacing("cofinite", [1, 2])
    assert partial_extendable(sp, [(1, 1), (5, 1)]) is True
    assert partial_extendable(sp, [(1, 1), (3, 1)]) is False
    with pytest.raises(HorizonExceeded):
        partial_extendable(spacing("cofinite", [1], horizon=10), [(11, 1)])


# --- offset tables -------------------------------------------------------------


def _random_pins(rng, alphabet, count, top):
    return tuple(sorted((p, rng.randrange(alphabet)) for p in rng.sample(range(1, top + 1), count)))


def _random_table_spec(rng):
    alphabet = rng.randint(2, 4)
    symbols = "0123456789"[:alphabet]
    words = ["".join(rng.choices(symbols, k=3)) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:  # mostly one successor per symbol: periodic and transient window graphs
        for a in symbols:
            keep = rng.sample(symbols, rng.choice((1, 1, 2)))
            words += [a + b for b in symbols if b not in keep]
    else:
        words += ["".join(rng.choices(symbols, k=2)) for _ in range(rng.randint(1, alphabet))]
    return alphabet, sft(alphabet, words)


def test_offset_tables_match_direct_walk():
    # past the static pins a table ANDs the static orbit's set with its moving pins' pre-image;
    # every offset through two periods past the orbit list must agree with the direct decider
    rng = random.Random(16)
    checked = fast = clashes = periodic = 0
    for _ in range(80):
        alphabet, spec = _random_table_spec(rng)
        for _ in range(6):  # several tables per spec
            static = _random_pins(rng, alphabet, rng.randint(0, 3), 6)
            moving = _random_pins(rng, alphabet, rng.randint(1, 3), 5)
            orbit = shift_core._static_orbit(shift_core._ctx(spec), static)
            periodic += orbit.period > 1
            table = offset_table(spec, static, moving)
            pinned = dict(static)
            for r in range(orbit.origin + orbit.preperiod + 3 * orbit.period + 1):
                shifted = [(p + r, sym) for p, sym in moving]
                if any(pinned.get(p, sym) != sym for p, sym in shifted):
                    expected = False
                    clashes += 1
                else:
                    expected = partial_extendable(spec, static + tuple(shifted))
                assert table[r] == expected, (spec, static, moving, r)
                checked += 1
                fast += r + moving[0][0] > orbit.origin
    assert clashes and periodic and fast > checked // 2


def test_walk_back_matches_forward_walks():
    # item t - first + 1 of the backward walk holds exactly the windows ending at t whose forward walk
    # meets the pins from max(t, first) on; a table's pre-image is item 0, or 0 when its pins clash
    rng = random.Random(31)
    clashes = 0
    for _ in range(60):
        alphabet, spec = _random_table_spec(rng)
        g = build_graph(spec)
        for _ in range(4):
            moving = _random_pins(rng, alphabet, rng.randint(1, 3), 5)
            if rng.random() < 0.25:  # a second symbol at a pinned position
                pos, sym = rng.choice(moving)
                moving = tuple(sorted(moving + ((pos, (sym + 1) % alphabet),)))
            pins = dict(moving)
            clash = len(pins) < len(moving)
            clashes += clash
            first, last = moving[0][0], max(pins)
            table = offset_table(spec, (), moving)
            table[g.window]  # the first offset past the first window builds the pre-image
            sets = shift_core._walk_back(g, pins, first, last)
            for i, window in enumerate(g.vertices):
                fits = bool(shift_core._walk(g, 1 << i, pins, first, last))
                assert bool(table.fits >> i & 1) == (fits and not clash), (spec, moving, window)
                for t in range(first - 1, last + 1):
                    carries = t < first or pins.get(t, int(window[-1])) == int(window[-1])
                    expected = carries and bool(shift_core._walk(g, 1 << i, pins, t + 1, last))
                    assert bool(sets[t - first + 1] >> i & 1) == expected, (spec, pins, window, t)
    assert clashes


def test_offset_tables_read_in_any_order():
    # a miss past the orbit's stored sets reads the stored set its step wraps to, and the pre-image is
    # built on the first miss past the static pins, so no read order may change an answer.  Each table
    # is fresh and read in shuffled order, the far offsets 10**6 + r before the near ones r, through
    # three periods past periodicity()'s start.  Near
    # answers are held to the direct decider, which repeats there with that period; a far answer is held
    # to the direct answer at the near offset of its residue past the start
    rng, order = random.Random(16), random.Random(17)
    seen = set()
    for _ in range(80):
        alphabet, spec = _random_table_spec(rng)
        ctx = shift_core._Ctx(spec)  # tables no other read has filled
        for _ in range(6):
            static = _random_pins(rng, alphabet, rng.randint(0, 3), 6)
            moving = _random_pins(rng, alphabet, rng.randint(1, 3), 5)
            start, period = offset_table(spec, static, moving).periodicity()
            direct = [_direct_offset(spec, static, moving, r) for r in range(start + 3 * period)]
            assert all(direct[r] == direct[r - period] for r in range(start + period, len(direct)))
            near = list(range(len(direct)))
            far = [10**6 + r for r in near]
            order.shuffle(near)
            order.shuffle(far)
            table = ctx.offsets[static, moving]
            for r in far + near:
                expected = direct[r] if r < 10**6 else direct[start + (r - start) % period]
                assert table[r] == expected, (spec, static, moving, r)
            orbit = table.orbit
            seen.add("period > 1" if orbit.period > 1 else "period 1")
            seen.add("preperiod" if orbit.preperiod else "no preperiod")
            seen.add("mixed" if len(set(direct)) == 2 else "constant")
    assert seen == {"period > 1", "period 1", "preperiod", "no preperiod", "mixed", "constant"}


def test_offset_table_caches_do_not_grow_with_the_offset(monkeypatch):
    # 2 -> 0 and 0 <-> 1 only: from a 2 at position 1 the walk is 2, 0, 1, 0, 1, ...
    walk_back, built = shift_core._walk_back, []
    monkeypatch.setattr(shift_core, "_walk_back", lambda *args: built.append(args) or walk_back(*args))
    spec = sft(3, ["00", "02", "11", "12", "21", "22"])
    static, moving = ((1, 2),), ((1, 1), (2, 0))  # a 1 then a 0 at r + 1, r + 2: odd r + 1 >= 3
    table = offset_table(spec, static, moving)
    orbit = shift_core._static_orbit(shift_core._ctx(spec), static)
    assert (orbit.origin, orbit.preperiod, orbit.period) == (1, 1, 2)
    assert table[10**6] is True and table[2] is True  # both read orbit step 1 (10**6 by its residue)
    assert len(orbit.states) == orbit.preperiod + orbit.period
    # the moving pins' pre-image is one int, the windows at position 0 that a 1 then a 0 follow,
    # built once for both reads and kept by the table with the same moving pins and no static pins
    assert table.fits == 1 << build_graph(spec).vertices.index("0")
    free = offset_table(spec, (), moving)
    assert free.fits == table.fits and free[5] is True and len(built) == 1
    del table, free  # a table holds its spec's context
    # the caches live on the spec's context, so the 64-spec bound drops them with it
    assert shift_core._ctx(spec).orbits[static] is orbit
    for gap in range(1, shift_core._CACHED_SPECS + 1):
        shift_core._ctx(spacing("cofinite", [gap], horizon=10**6 + gap))
    assert shift_core._ctx.cache_info().currsize == shift_core._CACHED_SPECS
    gc.collect()
    assert [ref for ref in gc.get_referrers(orbit) if isinstance(ref, dict)] == []
    misses = shift_core._ctx.cache_info().misses
    fresh = shift_core._ctx(spec)  # evicted: the lookup misses and builds a new context
    assert shift_core._ctx.cache_info().misses == misses + 1
    assert fresh.orbits == {} and fresh.offsets == {}


def test_offset_tables_on_gap_sets_keep_the_direct_check():
    sp = spacing("cofinite", [1, 2], horizon=20)
    table = offset_table(sp, ((1, 1),), ((1, 1),))
    assert [table[r] for r in range(4)] == [True, False, False, True]
    with pytest.raises(HorizonExceeded):
        table[20]


def _direct_offset(spec, static, moving, r):
    shifted = [(p + r, sym) for p, sym in moving]
    pinned = dict(static)
    if any(pinned.get(p, sym) != sym for p, sym in shifted):
        return False
    return partial_extendable(spec, static + tuple(shifted))


def test_offset_table_bits_match_direct_walk():
    # bits(n) reads a head and one period of the static orbit, then repeats the period; every
    # width, through three periods past the head, must agree offset by offset with the direct
    # decider, a pin clash counting as False
    rng = random.Random(2020)
    seen = set()
    for _ in range(70):
        alphabet = rng.randint(2, 4)
        symbols = "0123456789"[:alphabet]
        words = ["".join(rng.choices(symbols, k=rng.randint(2, 3))) for _ in range(rng.randint(0, 2))]
        for a in symbols:  # mostly one or two successors per symbol: periodic and transient window graphs
            keep = rng.sample(symbols, rng.choice((1, 2, alphabet)))
            words += [a + b for b in symbols if b not in keep]
        spec = sft(alphabet, words)
        for _ in range(6):
            static = _random_pins(rng, alphabet, rng.randint(0, 3), 6)
            moving = _random_pins(rng, alphabet, rng.randint(1, 3), 8)
            orbit = shift_core._static_orbit(shift_core._ctx(spec), static)
            r0 = orbit.origin + 1 - moving[0][0]  # the first offset read off the orbit
            head = max(0, r0 + orbit.preperiod)
            n = head + 3 * orbit.period + rng.randint(1, 4)
            expected = sum(1 << r for r in range(n) if _direct_offset(spec, static, moving, r))
            table = offset_table(spec, static, moving)
            for width in (rng.randint(0, n), n, 0, head, 1):
                assert table.bits(width) == expected & ((1 << width) - 1), (spec, static, moving, width)
            seen.add("r0 < 0" if r0 < 0 else "r0 >= 0")
            seen.add("period > 1" if orbit.period > 1 else "period 1")
            seen.add("head" if head else "no head")
            if not orbit.states[0]:
                seen.add("static side unsatisfiable")
            elif 0 < expected < (1 << n) - 1:
                seen.add("mixed")
    assert seen == {
        "r0 < 0", "r0 >= 0", "period > 1", "period 1", "head", "no head", "static side unsatisfiable", "mixed",
    }


def test_offset_table_lookups_on_gap_sets():
    # gap-set table lookups agree with the direct walk offset by offset, and raise where it raises
    rng = random.Random(2121)
    raised = 0
    for _ in range(60):
        horizon = rng.choice([12, 20, 40, shift_core.DEFAULT_HORIZON])
        spec = spacing(rng.choice(["cofinite", "thick"]), rng.sample(range(1, 15), rng.randint(0, 5)), horizon)
        static = _random_pins(rng, 2, rng.randint(0, 3), 6)
        moving = _random_pins(rng, 2, rng.randint(1, 3), 8)
        table = offset_table(spec, static, moving)
        for r in range(30):
            try:
                expected = _direct_offset(spec, static, moving, r)
            except HorizonExceeded:
                with pytest.raises(HorizonExceeded):
                    table[r]
                raised += 1
                break
            assert table[r] == expected, (spec, static, moving, r)
    assert 5 < raised < 55


# --- deciders ----------------------------------------------------------------


def test_decide_pinned():
    assert decide(RAMP, "extensible").value is True
    assert decide(RAMP, "transitive").value is False
    assert decide(ALT, "transitive").value is True
    assert decide(ALT, "weakly_mixing").value is False
    assert decide(spacing("cofinite", [1, 2]), "mixing").value is True
    assert decide(spacing("thick", [3, 12, 102]), "weakly_mixing").value is True
    assert decide(spacing("thick", [3, 12, 102]), "mixing").value is False
    for prop in PROPERTIES:
        assert decide(GOLDEN, prop).value is True
        assert decide(sft(2, ["0", "1"]), prop).value is False


def test_decide_evidence_mentions_structure():
    assert "strongly connected" in decide(GOLDEN, "mixing").evidence
    assert "cycle" in decide(RAMP, "extensible").evidence


def test_decide_spacing_general_undecidable():
    sp = spacing("general", [5])
    assert decide(sp, "extensible").value is True
    assert decide(sp, "transitive").value is True
    for prop in ("totally_transitive", "weakly_mixing", "mixing"):
        with pytest.raises(UndecidableProperty):
            decide(sp, prop)


def test_implication_chain():
    chain = ["mixing", "weakly_mixing", "totally_transitive", "transitive", "extensible"]
    for spec in all_small_sfts(2):
        values = [decide(spec, p).value for p in chain]
        for earlier, later in zip(values, values[1:]):
            assert not earlier or later, spec


def test_one_sided_extensibility_dead_end():
    # with 01 and 11 both forbidden nothing may precede a 1
    spec = sft(2, ["01", "11"])
    assert word_admissible(spec, "1")
    assert decide(spec, "extensible").value is False


def _window_sets(g, masks):
    return {frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1) for mask in masks}


def test_window_graph_structure_matches_string_search():
    # components, cycle windows, period and dead windows are state-set closures over the
    # window graph; the reference searches strings of the language
    from multishift.oracle import _nonextensible_refutation
    from multishift.shift_core import _components, _cycle_vertices, _dead_windows, _period

    rng = random.Random(808)
    specs = list(all_small_sfts(2)) + [sft(3, ["00", "02", "10", "11", "21", "22"])]  # the cycle 0 -> 1 -> 2 -> 0
    for _ in range(300):
        alphabet = rng.choice([2, 3])
        pool = ["".join(rng.choice("012"[:alphabet]) for _ in range(rng.randint(1, 4))) for _ in range(8)]
        specs.append(sft(alphabet, rng.sample(pool, rng.randint(0, 5))))
    seen = set()
    for spec in specs:
        g = build_graph(spec)
        components, cyclic, dead, period = brute_graph_structure(spec)
        assert _window_sets(g, _components(g)) == components, spec
        assert _window_sets(g, [_cycle_vertices(g)]) == {frozenset(cyclic)}, spec
        assert _dead_windows(g) == dead, spec
        if period is not None:
            assert _period(g) == period, spec
            seen.add(f"period {min(period, 3)}")
        refutation = _nonextensible_refutation(spec, 2)
        if dead:
            assert refutation is not None and refutation[2] == dead[0], spec
            seen.add("refuted")
        else:
            assert refutation is None, spec
        seen.add(f"components {min(len(components), 3)}")
        seen.add(f"cycle windows {'all' if len(cyclic) == len(g) else 'some'}")
    assert seen == {
        "period 1", "period 2", "period 3", "refuted",
        "components 0", "components 1", "components 2", "components 3",
        "cycle windows all", "cycle windows some",
    }


def test_dead_window_offset_matches_the_offset_table():
    # the refutation's offset is the least m >= 1 at which its dead window no longer fits, read off
    # the word's offset table; countdowns a-1 -> ... -> 1 -> 0 -> 0 with random extra downward steps
    # and forbidden 3-words put the least dead window up to a - 1 positions deep
    from multishift.oracle import _nonextensible_refutation

    rng = random.Random(3232)
    specs = [sft(4, [f"{x}{y}" for x in "0123" for y in "0123" if f"{x}{y}" not in ("32", "21", "10", "00")])]
    for _ in range(120):
        alphabet = rng.randint(3, 5)
        digits = "01234"[:alphabet]
        steps = {"00"} | {f"{x}{int(x) - 1}" for x in digits[1:]}
        steps |= {f"{x}{y}" for x in digits for y in digits if y < x and rng.random() < 0.3}
        extra = ["".join(rng.choice(digits) for _ in range(3)) for _ in range(rng.randint(0, 3))]
        specs.append(sft(alphabet, [f"{x}{y}" for x in digits for y in digits if f"{x}{y}" not in steps] + extra))
    depths = set()
    for spec in specs:
        refutation = _nonextensible_refutation(spec, 2)
        if refutation is None:
            continue
        word, offset = refutation[2], refutation[3]
        g = build_graph(spec)
        placed = offset_table(spec, (), word_pins(word))
        assert offset == next(m for m in range(1, len(g) + 2) if not placed[m]), spec
        depths.add(offset)
    assert _nonextensible_refutation(specs[0], 2)[2:] == ("1", 3)
    assert max(depths) > 2 and len(depths) >= 3, depths


def test_window_graph_structure_on_715_windows():
    # nondecreasing points over ten symbols that never hold 0 five times running: the
    # windows are the 715 nondecreasing 4-words, each its own component; only the nine
    # constant windows 1111..9999 lie on a cycle, and no cycle reaches a window starting with 0
    from multishift.shift_core import _dead_windows

    spec = sft(10, [f"{b}{a}" for b in range(10) for a in range(b)] + ["00000"])
    g = build_graph(spec)
    start = time.process_time()
    verdicts = {prop: decide(spec, prop) for prop in PROPERTIES}
    elapsed = time.process_time() - start
    assert len(g) == 715
    assert not any(v.value for v in verdicts.values())
    assert "9 cycle vertices" in verdicts["extensible"].evidence
    assert verdicts["transitive"].evidence.endswith("has 715 strongly connected component(s)")
    dead = _dead_windows(g)
    assert dead == [v for v in g.vertices if v.startswith("0")] and len(dead) == 220
    assert elapsed < 0.5, f"five decide calls took {elapsed:.2f} s of CPU"


def test_components_in_time_linear_in_the_edges():
    # the same points, now never holding 0 seven times running: 5,005 windows, each its own
    # component; one walk over the edges takes a few milliseconds of CPU, where a forward and a
    # backward closure per component takes about half a second
    spec = sft(10, [f"{b}{a}" for b in range(10) for a in range(b)] + ["0" * 7])
    shift_core._ctx.cache_clear()
    g = build_graph(spec)
    start = time.process_time()
    verdict = decide(spec, "transitive")
    elapsed = time.process_time() - start
    assert len(g) == 5005
    assert verdict.evidence.endswith("has 5005 strongly connected component(s)")
    assert elapsed < 0.1, f"deciding took {elapsed:.2f} s of CPU"


# --- connectors ---------------------------------------------------------------


def _connector_gaps(spec, u, v, bound):
    """Gaps m <= bound at which v can follow u: v's pins at offset len(u) + m of one offset table."""
    table = offset_table(spec, word_pins(u), word_pins(v))
    return {m for m in range(1, bound + 1) if table[len(u) + m]}


def test_connector_gaps_pinned():
    assert _connector_gaps(GOLDEN, "1", "1", 4) == {1, 2, 3, 4}
    # alternating points: positions 1 and m+2 must have equal parity values
    assert _connector_gaps(ALT, "0", "0", 4) == {1, 3}
    assert _connector_gaps(RAMP, "0", "1", 6) == set()


def test_connector_gaps_match_bruteforce():
    for spec in (GOLDEN, ALT, RAMP, sft(2, ["000"])):
        for u, v in (("0", "1"), ("10", "01"), ("1", "10")):
            if not (word_admissible(spec, u) and word_admissible(spec, v)):
                continue
            assert _connector_gaps(spec, u, v, 6) == brute_connector_gaps(spec, u, v, 6)


def test_mixing_gap_index_pinned():
    assert mixing_gap_index(GOLDEN) == 2
    assert mixing_gap_index(spacing("cofinite", [1, 2])) == 3
    assert mixing_gap_index(FULL) == 1
    assert mixing_gap_index(sft(2, ["11", "101"])) == 4


def test_mixing_gap_index_requires_mixing():
    with pytest.raises(PreconditionFailed):
        mixing_gap_index(ALT)


def _gap_index_family():
    family = binary_sft_family(2) + random_sft_family(40, seed=7) + random_sft_family(6, seed=7, alphabet=3)
    family.append(sft(2, ["11", "101"]))  # "1" and "1" do not connect at gap 1: the index is past it
    family += [spacing("cofinite", c) for c in ((), (1,), (2,), (1, 2), (3,), (1, 4), (2, 3, 5))]
    return [spec for spec in family if decide(spec, "mixing").value]


def test_mixing_gap_index_connects_every_word_pair():
    # the index is proved, not checked at run time: every admissible word pair up to length 3
    # connects at every gap in [N, N + 10], by the validated decider that brute.py pins
    for spec in _gap_index_family():
        n = mixing_gap_index(spec)
        words = [w for t in (1, 2, 3) for w in blocks(spec, t)]
        for u in words:
            for v in words:
                for m in range(n, n + 11):
                    cons = [(i + 1, int(c)) for i, c in enumerate(u)]
                    cons += [(len(u) + m + 1 + i, int(c)) for i, c in enumerate(v)]
                    assert partial_extendable(spec, cons), (spec, u, v, m)


# --- least completions --------------------------------------------------------


def test_least_word():
    assert least_word(GOLDEN, 5) == "00000"
    assert least_word(ALT, 4) == "0101"
    assert least_word(GOLDEN, 4, [(2, 1)]) == "0100"
    assert least_word(GOLDEN, 2, [(1, 1), (2, 1)]) is None
    sp = spacing("cofinite", [1, 2])
    assert least_word(sp, 5, [(2, 1)]) == "01000"


def test_least_word_is_least():
    for spec in (GOLDEN, ALT, sft(2, ["000", "110"])):
        for n in range(1, 7):
            expected = min(sorted(blocks(spec, n)))
            assert least_word(spec, n) == expected


def test_least_word_constrained_is_least():
    for spec in (GOLDEN, ALT, sft(2, ["000", "110"])):
        for cons in ([(2, 1)], [(1, 0), (4, 0)], [(3, 1), (5, 0)]):
            for n in (5, 6):
                matching = sorted(
                    w for w in blocks(spec, n) if all(int(w[p - 1]) == s for p, s in cons)
                )
                expected = matching[0] if matching else None
                assert least_word(spec, n, cons) == expected, (spec, cons, n)


# --- serialization --------------------------------------------------------------


def test_spec_roundtrip():
    for spec in (GOLDEN, ALT, spacing("cofinite", [1, 2]), spacing("thick", [3, 12], horizon=500)):
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_errors():
    with pytest.raises(SpecError):
        spec_from_dict({"kind": "nope"})
    with pytest.raises(SpecError):
        spec_from_dict({"kind": "sft", "alphabet": 40, "forbidden": []})
