import random
import time

import pytest

from brute import extract_fiber_point
from multishift.errors import InadmissiblePattern, NoCoprimePrime, OutputGuardExceeded, PreconditionFailed
from multishift.lambda_arith import a_set
from multishift.mult_shift import (
    Pattern,
    assemble,
    chain_length,
    chain_positions,
    chain_words,
    is_admissible,
    least_block,
)
from multishift.oracle import exists_witness_exact, prefix_fault, verify_certificate, verify_certificates
from multishift.shift_core import alphabet_of, blocks, least_word, sft, spacing
from multishift.witness import (
    PREFIX_GUARD,
    certificate_from_dict,
    check_prefix_total,
    certificate_to_dict,
    witness_directional_coprime,
    witness_directional_power,
    witness_mixing,
    witness_transitive,
)

GOLDEN = sft(2, ["11"])
RAMP = sft(2, ["01"])
FULL = sft(2, [])
THICK = spacing("thick", [3, 12, 102, 1002, 10002])
COFINITE = spacing("cofinite", [1, 2])


def block(word, base, omega):
    return Pattern.block(word, base, omega)


# --- transitive construction --------------------------------------------------


def test_witness_transitive_ramp():
    u, v = block("00", 2, RAMP), block("1", 2, RAMP)
    cert = witness_transitive(RAMP, 2, u, v, 0)
    assert cert.alpha == 3
    assert cert.multiplier == 6
    # the scaled target sits on the chain of 3; its fill starts with ones
    assert cert.prefix[2] == "1" and cert.prefix[5] == "1"
    ok, reason = verify_certificate(RAMP, 2, cert)
    assert ok, reason


def test_witness_transitive_full_shift_picks_odd_prime():
    cert = witness_transitive(FULL, 2, block("1", 2, FULL), block("1", 2, FULL), 0)
    assert cert.alpha == 3


def test_witness_transitive_golden_depth_one():
    cert = witness_transitive(GOLDEN, 2, block("01", 2, GOLDEN), block("10", 2, GOLDEN), 1)
    assert cert.alpha == 3
    ok, reason = verify_certificate(GOLDEN, 2, cert)
    assert ok, reason


def test_witness_transitive_requires_extensible():
    dead = sft(2, ["01", "11"])
    with pytest.raises(PreconditionFailed):
        witness_transitive(dead, 2, block("0", 2, dead), block("0", 2, dead), 0)


def test_witness_transitive_rejects_inadmissible():
    with pytest.raises(InadmissiblePattern):
        witness_transitive(GOLDEN, 2, block("11", 2, GOLDEN), block("0", 2, GOLDEN), 0)


def test_witness_transitive_routes_targets_past_u():
    # the prime multiplier step must land every scaled position of v on a
    # chain whose representative exceeds the reach of u
    from multishift.lambda_arith import decompose, xi

    for omega, l in ((RAMP, 2), (GOLDEN, 3), (sft(2, ["00"]), 4)):
        for uw, vw in (("00", "1"), ("0", "10"), ("010", "00")):
            from multishift.shift_core import word_admissible

            if not (word_admissible(omega, uw) and word_admissible(omega, vw)):
                continue
            u, v = block(uw, l, omega), block(vw, l, omega)
            cert = witness_transitive(omega, l, u, v, 1)
            bound = xi(u.length, l)
            for pos in range(1, len(vw) + 1):
                rep = decompose(cert.multiplier * pos, l).alpha
                assert rep > bound, (omega, l, uw, vw, pos, rep)


def test_witness_transitive_family_soundness():
    # every extensible space in the small family, every admissible short
    # pair, every depth up to 3
    from multishift.mult_shift import enumerate_blocks
    from multishift.oracle import binary_sft_family, dedupe_by_language
    from multishift.shift_core import decide

    for spec in dedupe_by_language(binary_sft_family(2)):
        if not decide(spec, "extensible").value:
            continue
        pats = [block(w, 2, spec) for t in (1, 2, 3) for w in sorted(enumerate_blocks(spec, 2, t))]
        for u in pats:
            for v in pats:
                for k in range(4):
                    cert = witness_transitive(spec, 2, u, v, k)
                    ok, reason = verify_certificate(spec, 2, cert)
                    assert ok, (spec, u.entries, v.entries, reason)


# --- coprime-modulus construction ----------------------------------------------


def test_directional_coprime_ramp():
    u, v = block("00", 2, RAMP), block("1", 2, RAMP)
    k, build = witness_directional_coprime(RAMP, 2, 3, u, v)
    assert k == 1  # 3**1 > xi(00) = 1
    for alpha in (1, 2, 4, 5, 7):
        cert = build(alpha)
        assert cert.multiplier == 2 * alpha * 3
        ok, reason = verify_certificate(RAMP, 2, cert)
        assert ok, reason


def test_directional_coprime_modulus_six():
    k, build = witness_directional_coprime(GOLDEN, 2, 6, block("0", 2, GOLDEN), block("1", 2, GOLDEN))
    assert k == 1  # smallest coprime prime of 6 is 3 and 3 > xi(0) = 1
    ok, reason = verify_certificate(GOLDEN, 2, build(1))
    assert ok, reason


def test_directional_coprime_dispatch_error():
    with pytest.raises(NoCoprimePrime):
        witness_directional_coprime(GOLDEN, 2, 2, block("0", 2, GOLDEN), block("1", 2, GOLDEN))
    with pytest.raises(NoCoprimePrime):
        witness_directional_coprime(GOLDEN, 2, 4, block("0", 2, GOLDEN), block("1", 2, GOLDEN))


# --- power-modulus construction -------------------------------------------------


def test_directional_power_thick_two_fibers():
    u = block("1110010000010000", 2, THICK)
    v = block("111101", 2, THICK)
    dw = witness_directional_power(THICK, 2, 1, u, v, alpha_bound=1)
    cert = dw.certificates[0]
    # least valid common offset lands at multiplier 2**6; the text's 2**7 also works
    assert cert.multiplier == 16 * 2**dw.k
    ok, reason = verify_certificate(THICK, 2, cert)
    assert ok, reason
    assert exists_witness_exact(THICK, 2, u, v, 1, 3) is not None
    # both fiber pairs connected inside the one point
    lam1 = extract_fiber_point(cert.prefix, 1, 2)
    lam3 = extract_fiber_point(cert.prefix, 3, 2)
    assert lam1.startswith("11") and lam3.startswith("111")
    assert "1" in lam1[6:] and "1" in lam3[5:]


def test_directional_power_base_four_window():
    u = block("111111", 4, THICK)
    v = block("1111", 4, THICK)
    dw = witness_directional_power(THICK, 4, 1, u, v, alpha_bound=9)
    assert [c.alpha for c in dw.certificates] == [1, 2, 3, 5, 6, 7, 9]
    for cert in dw.certificates:
        ok, reason = verify_certificate(THICK, 4, cert)
        assert ok, reason
    # the run [k, k + pad + |u fiber| + |v fiber|] avoids every banned gap
    window = range(dw.k, dw.k + dw.cover.offset_bound + 2 + 2 + 1)
    assert all(g not in (3, 12, 102) for g in window)


def test_directional_power_golden_uniform_alpha():
    u, v = block("1", 2, GOLDEN), block("1", 2, GOLDEN)
    dw = witness_directional_power(GOLDEN, 2, 1, u, v, alpha_bound=16)
    for cert in dw.certificates:
        ok, reason = verify_certificate(GOLDEN, 2, cert)
        assert ok, reason


def test_directional_power_family_single_k_for_all_alpha():
    # every weakly mixing member of the small family: one depth step
    # serves every multiplier residue up to 16
    from multishift.mult_shift import enumerate_blocks
    from multishift.oracle import binary_sft_family, dedupe_by_language
    from multishift.shift_core import decide

    for spec in dedupe_by_language(binary_sft_family(2)):
        if not decide(spec, "weakly_mixing").value:
            continue
        pats = [block(w, 2, spec) for t in (1, 2) for w in sorted(enumerate_blocks(spec, 2, t))]
        for u in pats[:3]:
            for v in pats[:3]:
                dw = witness_directional_power(spec, 2, 1, u, v, alpha_bound=16)
                ks = {c.k for c in dw.certificates}
                assert ks == {dw.k}
                for cert in dw.certificates:
                    ok, reason = verify_certificate(spec, 2, cert)
                    assert ok, (spec, reason)


def test_directional_power_square_modulus():
    dw = witness_directional_power(GOLDEN, 2, 2, block("10", 2, GOLDEN), block("01", 2, GOLDEN), alpha_bound=9)
    assert dw.q == 4
    k1 = 1  # |u| = 2
    assert (dw.cover.common_offset - k1) % 2 == 0
    for cert in dw.certificates:
        assert cert.multiplier == 2 * cert.alpha * 4**dw.k
        ok, reason = verify_certificate(GOLDEN, 2, cert)
        assert ok, reason


def _golden_directional_witness():
    return witness_directional_power(GOLDEN, 2, 1, block("10", 2, GOLDEN), block("01", 2, GOLDEN), alpha_bound=9)


def _count_cover_checks(monkeypatch):
    from multishift import oracle

    checks, cover_fault = [], oracle._cover_fault
    monkeypatch.setattr(oracle, "_cover_fault", lambda *args: checks.append(args) or cover_fault(*args))
    return checks


def test_verify_certificates_checks_a_shared_cover_once(monkeypatch):
    dw = _golden_directional_witness()
    certs = list(dw.certificates)
    assert len(certs) > 1 and all(c.cover == dw.cover for c in certs)
    checks = _count_cover_checks(monkeypatch)
    answers = verify_certificates(GOLDEN, 2, certs)
    assert len(checks) == 1
    assert answers == [verify_certificate(GOLDEN, 2, c) for c in certs] == [(True, "ok")] * len(certs)
    assert len(checks) == 1 + len(certs)


def test_verify_certificates_fails_every_certificate_of_a_broken_shared_cover(monkeypatch):
    import dataclasses

    dw = _golden_directional_witness()
    broken = dataclasses.replace(dw.cover, common_offset=dw.cover.common_offset + 1)
    certs = [dataclasses.replace(c, cover=broken) for c in dw.certificates]  # equal covers, not one object
    checks = _count_cover_checks(monkeypatch)
    answers = verify_certificates(GOLDEN, 2, certs)
    assert len(checks) == 1
    reason = f"cover: common offset {broken.common_offset} is not k1 + 1*{dw.k}"
    assert answers == [(False, reason)] * len(certs)


def test_verify_certificates_fails_only_the_certificate_with_a_flipped_pin(monkeypatch):
    import dataclasses

    dw = _golden_directional_witness()
    first = dw.certificates[0]
    rep, cons = first.constraints[0]
    pos = rep * 2 ** (cons[0][0] - 1)
    flipped = first.prefix[: pos - 1] + ("1" if first.prefix[pos - 1] == "0" else "0") + first.prefix[pos:]
    certs = [dataclasses.replace(first, prefix=flipped), *dw.certificates[1:]]
    checks = _count_cover_checks(monkeypatch)
    answers = verify_certificates(GOLDEN, 2, certs)
    # the first certificate fails before its cover is read; the second one's cover check serves the rest
    assert answers == [(False, f"prefix violates the constraint at position {pos}")] + [(True, "ok")] * (len(certs) - 1)
    assert len(checks) == 1


def _repeated_claims():
    # q = 2 and q = 4 both name the multipliers 2, 6, 10, 14 and 18, and the transitive certificate
    # and the mixing picks land on 6 and 12 again: 15 certificates, 7 distinct claims
    u, v = block("10", 2, GOLDEN), block("01", 2, GOLDEN)
    mw = witness_mixing(GOLDEN, 2, u, v)
    certs = [c for n in (1, 2) for c in witness_directional_power(GOLDEN, 2, n, u, v, alpha_bound=9).certificates]
    return certs + [witness_transitive(GOLDEN, 2, u, v, k=0), mw.build(3, 1), mw.build(3, 1)]


def _count_prefix_checks(monkeypatch):
    from multishift import oracle

    checks, prefix_fault = [], oracle.prefix_fault
    monkeypatch.setattr(oracle, "prefix_fault", lambda *args: checks.append(args) or prefix_fault(*args))
    return checks


def test_verify_certificates_checks_each_distinct_claim_once(monkeypatch):
    import dataclasses

    certs = _repeated_claims()
    # the same claim as the first certificate, under a depth that gives another multiplier: the
    # per-certificate metadata check still rejects it
    certs.append(dataclasses.replace(certs[0], k=certs[0].k + 1))
    claims = {(c.u_literal, c.v_literal, c.multiplier, c.constraints, c.prefix) for c in certs}
    alone = [verify_certificate(GOLDEN, 2, c) for c in certs]
    assert alone[-1] == (False, "multiplier disagrees with (alpha, k, directional base)")
    assert alone[:-1] == [(True, "ok")] * (len(certs) - 1)
    checks = _count_prefix_checks(monkeypatch)
    assert verify_certificates(GOLDEN, 2, certs) == alone
    assert len(checks) == len(claims) == 7 < len(certs)
    assert verify_certificates(GOLDEN, 2, certs) == alone and len(checks) == 14  # no memo outlives its call


def test_verify_certificates_rejects_a_flipped_pin_beside_its_genuine_claim():
    import dataclasses

    genuine = _repeated_claims()[1]
    rep, cons = genuine.constraints[-1]
    pos = rep * 2 ** (cons[-1][0] - 1)
    flipped = "1" if genuine.prefix[pos - 1] == "0" else "0"
    forged = dataclasses.replace(genuine, prefix=genuine.prefix[: pos - 1] + flipped + genuine.prefix[pos:])
    reason = f"prefix violates the constraint at position {pos}"
    assert verify_certificate(GOLDEN, 2, forged) == (False, reason)
    assert verify_certificates(GOLDEN, 2, [genuine, forged, genuine]) == [(True, "ok"), (False, reason), (True, "ok")]
    assert verify_certificates(GOLDEN, 2, [forged, genuine]) == [(False, reason), (True, "ok")]


def test_directional_power_requires_weak_mixing():
    alt = sft(2, ["00", "11"])
    with pytest.raises(PreconditionFailed):
        witness_directional_power(alt, 2, 1, block("01", 2, alt), block("10", 2, alt), 4)


# --- mixing construction ----------------------------------------------------------


def test_witness_mixing_golden():
    mw = witness_mixing(GOLDEN, 2, block("0", 2, GOLDEN), block("1", 2, GOLDEN))
    assert mw.threshold <= 2
    cert = mw.build(1, 2)
    assert cert.prefix[0] == "0" and cert.prefix[3] == "1"
    ok, reason = verify_certificate(GOLDEN, 2, cert)
    assert ok, reason
    with pytest.raises(ValueError):
        mw.build(1, 0)


def test_witness_mixing_full_shift():
    mw = witness_mixing(FULL, 2, block("10", 2, FULL), block("01", 2, FULL))
    assert mw.threshold == 1


def test_witness_mixing_cofinite_gapset():
    # admissible all-ones block: length 5 keeps every chain singleton at base 6
    u = block("11111", 6, COFINITE)
    v = block("11111", 6, COFINITE)
    mw = witness_mixing(COFINITE, 6, u, v)
    assert mw.threshold == 3
    for alpha, k in ((243, 0), (216 + 1, 0), (997, 0), (7, 2), (1, 3), (4, 3)):
        if alpha % 6 == 0 or alpha * 6**k < 216:
            continue
        cert = mw.build(alpha, k)
        ok, reason = verify_certificate(COFINITE, 6, cert)
        assert ok, (alpha, k, reason)


def test_witness_mixing_threshold_window_family():
    # every multiplier in [2**N, 8 * 2**N] (residue up to 9) certifies
    from multishift.mult_shift import enumerate_blocks

    for forb in ([], ["11"], ["00"]):
        spec = sft(2, forb)
        pats = [block(w, 2, spec) for t in (1, 2) for w in sorted(enumerate_blocks(spec, 2, t))]
        for u in pats[:4]:
            for v in pats[:4]:
                mw = witness_mixing(spec, 2, u, v)
                lo, hi = 2**mw.threshold, 8 * 2**mw.threshold
                for alpha in a_set(2, 9):
                    k = 0
                    while alpha * 2**k < lo:
                        k += 1
                    while alpha * 2**k <= hi:
                        ok, reason = verify_certificate(spec, 2, mw.build(alpha, k))
                        assert ok, (forb, alpha, k, reason)
                        k += 1


def test_witness_mixing_requires_mixing():
    with pytest.raises(PreconditionFailed):
        witness_mixing(RAMP, 2, block("0", 2, RAMP), block("0", 2, RAMP))


def test_witness_mixing_refuses_inadmissible():
    u = block("1" * 8, 6, COFINITE)  # chain {1, 6} reads 11, needing the banned gap 1
    v = block("1" * 5, 6, COFINITE)
    with pytest.raises(InadmissiblePattern) as err:
        witness_mixing(COFINITE, 6, u, v)
    assert err.value.detail == 1


# --- fiber extraction ----------------------------------------------------------


def test_extraction_inverts_mixing_certificates():
    # a threshold certificate for single-chain patterns reproduces the
    # connected base-space word along that chain
    mw = witness_mixing(GOLDEN, 2, block("0", 2, GOLDEN), block("1", 2, GOLDEN))
    for k in (mw.threshold, mw.threshold + 1, mw.threshold + 3):
        cert = mw.build(1, k)
        word = extract_fiber_point(cert.prefix, 1, 2)
        assert word[0] == "0"
        assert word[k] == "1"  # gap between the pinned cells is exactly k - 1


def test_extraction_recovers_offset_placement():
    u = block("00", 2, RAMP)
    v = block("1", 2, RAMP)
    k, build = witness_directional_coprime(RAMP, 2, 3, u, v)
    cert = build(1)
    # scaled chain of 1 is the chain of 3; depth arithmetic: 6 = 3 * 2
    assert extract_fiber_point(cert.prefix, 3, 2)[:2] == "11"


# --- chain-by-chain prefix check -------------------------------------------------

PREFIX_SPECS = (GOLDEN, sft(2, ["000", "101"]), sft(3, ["01", "22"]), sft(3, ["12", "210", "00"]), COFINITE)


def _random_block(rng, omega, l, n):
    """A random admissible block on [1, n]: a random admissible word on every chain."""
    by_length = {t: sorted(blocks(omega, t)) for t in range(1, chain_length(1, n, l) + 1)}
    words = {rep: rng.choice(by_length[chain_length(rep, n, l)]) for rep in a_set(l, n)}
    return assemble(words, l, n)


def _level_boundaries(l, top=3000):
    """Lengths l**t - 1, l**t and l**t + 1 up to about ``top``: where chains gain a level."""
    return sorted({l**t + d for t in range(1, top.bit_length()) if l**t <= top for d in (-1, 0, 1)} - {0})


def _random_pins(rng, prefix):
    """One to four of the prefix's own positions pinned to the symbols it carries there."""
    return {p: int(prefix[p - 1]) for p in rng.sample(range(1, len(prefix) + 1), min(len(prefix), rng.randint(1, 4)))}


def test_prefix_fault_matches_whole_block_admissibility():
    # reference: the prefix as one Pattern, decomposed position by position
    rng = random.Random(20191030)
    seen = {"admissible": 0, "inadmissible": 0, "pin": 0}
    for omega in PREFIX_SPECS:
        m = alphabet_of(omega)
        for l in (2, 3, 4, 6):
            for n in [rng.randint(1, 200) for _ in range(30)] + _level_boundaries(l):
                prefix = list(_random_block(rng, omega, l, n))
                for p in rng.sample(range(n), rng.choice((0, 1, 2, 3)) if n > 3 else 0):
                    prefix[p] = str(rng.randrange(m))
                prefix = "".join(prefix)
                pins = _random_pins(rng, prefix)
                if rng.random() < 0.2:
                    p = rng.choice(sorted(pins))
                    pins[p] = (pins[p] + 1) % m
                groups = tuple(Pattern.make(pins, l, omega).fibers().items())
                violated = {p for p, sym in pins.items() if int(prefix[p - 1]) != sym}
                fault = prefix_fault(omega, l, groups, prefix)
                if violated:
                    seen["pin"] += 1
                    assert fault is not None and int(fault.rsplit(" ", 1)[1]) in violated, (omega, l, prefix, fault)
                elif is_admissible(Pattern.block(prefix, l, omega)):
                    seen["admissible"] += 1
                    assert fault is None, (omega, l, prefix, fault)
                else:
                    seen["inadmissible"] += 1
                    assert fault == "prefix is not an admissible block", (omega, l, prefix, fault)
    assert min(seen.values()) >= 50, seen


def test_least_block_meets_its_pins_and_is_admissible():
    rng = random.Random(7)
    for omega in PREFIX_SPECS:
        for l in (2, 3, 4, 6):
            for _ in range(10):
                n = rng.randint(1, 200)
                prefix = _random_block(rng, omega, l, n)
                pins = _random_pins(rng, prefix)
                least = least_block(omega, l, n, Pattern.make(pins, l, omega).fibers())
                assert least is not None and len(least) == n
                assert all(int(least[p - 1]) == sym for p, sym in pins.items())
                assert is_admissible(Pattern.block(least, l, omega))
                assert least <= prefix  # least on every chain, so least as a block
    assert least_block(GOLDEN, 2, 4, {1: ((1, 1), (2, 1))}) is None  # chain 1 would start with 11
    assert least_block(GOLDEN, 2, 4) == "0000"


def test_chain_words_match_per_chain_extraction():
    rng = random.Random(18)
    for omega in (GOLDEN, sft(3, ["12", "210", "00"])):
        for l in (2, 3, 4, 6):
            for n in _level_boundaries(l):
                prefix = _random_block(rng, omega, l, n)
                least = least_block(omega, l, n, Pattern.make(_random_pins(rng, prefix), l, omega).fibers())
                for y in (prefix, least):
                    assert chain_words(y, l) == {extract_fiber_point(y, rep, l) for rep in a_set(l, n)}, (l, y)


def _least_block_reference(omega, l, n, groups):
    """Per-chain least words under each chain's pins, assembled; None when any chain has none."""
    pins = dict(groups)
    words = {rep: least_word(omega, chain_length(rep, n, l), pins.get(rep, ())) for rep in a_set(l, n)}
    return None if None in words.values() else assemble(words, l, n)


def test_least_block_matches_per_chain_reference():
    rng = random.Random(1995)
    found = {"block": 0, "none": 0}
    for omega in PREFIX_SPECS:
        m = alphabet_of(omega)
        for l in (2, 3, 4, 6):
            for n in [rng.randint(1, 300) for _ in range(20)] + _level_boundaries(l, 1000):
                # random symbols at one to four random positions and the first three of one chain's:
                # some chains get pins no word meets
                pins = {p: rng.randrange(m) for p in rng.sample(range(1, n + 1), min(n, rng.randint(1, 4)))}
                pins.update((p, rng.randrange(m)) for p in chain_positions(rng.choice(a_set(l, n)), n, l)[:3])
                groups = Pattern.make(pins, l, omega).fibers()
                least = least_block(omega, l, n, groups)
                assert least == _least_block_reference(omega, l, n, groups), (omega, l, n, pins)
                found["none" if least is None else "block"] += 1
    assert min(found.values()) >= 50, found
    infeasible = {1: ((1, 1), (2, 1))}  # chain 1 would start with 11
    assert least_block(GOLDEN, 2, 4, infeasible) is None and _least_block_reference(GOLDEN, 2, 4, infeasible) is None


def test_exact_certificate_at_the_prefix_cap():
    import dataclasses

    u = block("0", 2, GOLDEN)
    cert = exists_witness_exact(GOLDEN, 2, u, u, 1, 20)  # builds the 2**20-symbol prefix
    assert len(cert.prefix) == PREFIX_GUARD
    assert verify_certificate(GOLDEN, 2, cert) == (True, "ok")
    # every golden-mean fill symbol is 0, so one flip breaks a pin: position 2**20 is depth 21 of chain 1
    flipped = cert.prefix[:-1] + "1"
    assert verify_certificate(GOLDEN, 2, dataclasses.replace(cert, prefix=flipped)) == (
        False,
        f"prefix violates the constraint at position {PREFIX_GUARD}",
    )
    # and two flips on chain 3, at depths 10 and 11, make its word read 11
    chars = list(cert.prefix)
    chars[3 * 2**9 - 1] = chars[3 * 2**10 - 1] = "1"
    assert verify_certificate(GOLDEN, 2, dataclasses.replace(cert, prefix="".join(chars))) == (
        False,
        "prefix is not an admissible block",
    )


def test_prefix_total_is_checked_before_any_prefix_is_built():
    u = block("0", 2, GOLDEN)
    check_prefix_total(u, u, [2**19, 2**19])  # at the cap
    with pytest.raises(OutputGuardExceeded) as exc:
        check_prefix_total(u, u, [2**19, 2**19, 1])
    assert str(exc.value) == f"3 prefixes of {2**20 + 1} symbols exceed the prefix cap {PREFIX_GUARD}"
    with pytest.raises(OutputGuardExceeded) as exc:  # one prefix past the cap keeps its own message
        check_prefix_total(u, u, [1, 2**20 + 1])
    assert str(exc.value) == f"a prefix of {2**20 + 1} symbols exceeds the prefix cap {PREFIX_GUARD}"
    # a million multipliers: the check stops at the first prefix past the total, before building any
    start = time.process_time()
    with pytest.raises(OutputGuardExceeded, match="^1025 prefixes of 1050625 symbols exceed"):
        witness_directional_power(GOLDEN, 2, 1, u, u, 10**6)
    assert time.process_time() - start < 1
    dw = witness_directional_power(GOLDEN, 2, 1, u, u, 9)  # small totals build as before
    assert [c.alpha for c in dw.certificates] == [1, 3, 5, 7, 9]


# --- serialization ---------------------------------------------------------------


def test_certificate_serialization_roundtrip():
    cert = witness_transitive(RAMP, 2, block("00", 2, RAMP), block("1", 2, RAMP), 0)
    data = certificate_to_dict(cert)
    back = certificate_from_dict(data)
    assert back == cert
    dw = witness_directional_power(GOLDEN, 2, 1, block("1", 2, GOLDEN), block("1", 2, GOLDEN), 3)
    data = certificate_to_dict(dw.certificates[0])
    back = certificate_from_dict(data)
    assert back == dw.certificates[0]
    ok, reason = verify_certificate(GOLDEN, 2, back)
    assert ok, reason


def test_verify_rejects_every_kind_of_tampering():
    import dataclasses

    cert = witness_transitive(RAMP, 2, block("00", 2, RAMP), block("1", 2, RAMP), 0)
    flipped = "1" + cert.prefix[1:] if cert.prefix[0] == "0" else "0" + cert.prefix[1:]
    tampered = [
        dataclasses.replace(cert, prefix=flipped),
        dataclasses.replace(cert, prefix=cert.prefix[:2]),
        dataclasses.replace(cert, multiplier=cert.multiplier * 2),
        dataclasses.replace(cert, alpha=cert.alpha + 2),
        dataclasses.replace(cert, constraints=cert.constraints[:-1] or cert.constraints),
        dataclasses.replace(cert, v_literal="block:0"),
    ]
    for bad in tampered:
        ok, reason = verify_certificate(RAMP, 2, bad)
        assert not ok, reason
