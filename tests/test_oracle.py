import math
import random
import time

import pytest

from brute import naive_exists_witness
from multishift.lambda_arith import decompose
from multishift.mult_shift import Pattern, enumerate_blocks, is_admissible, multiplier_constraints
from multishift.oracle import (
    SearchBudget,
    binary_sft_family,
    budget_from_env,
    campaign,
    dedupe_by_language,
    exists_witness_exact,
    probe_directional_q,
    probe_transitive_X,
    random_sft_family,
    verify_certificate,
)
from multishift import oracle, shift_core, verify, witness
from multishift.errors import ConnectorNotFound, OutputGuardExceeded
from multishift.shift_core import SpacingSpec, blocks, partial_extendable, sft, spacing

GOLDEN = sft(2, ["11"])
RAMP = sft(2, ["01"])
ALT = sft(2, ["00", "11"])


def block(word, base, omega):
    return Pattern.block(word, base, omega)


# --- exact witness decision ----------------------------------------------------


def test_exists_witness_pinned_negative():
    # alternating base space: depth parity needed by the two chains conflicts
    assert exists_witness_exact(ALT, 2, block("0110", 2, ALT), block("1011", 2, ALT), 1, 2) is None
    assert exists_witness_exact(RAMP, 2, block("00", 2, RAMP), block("1", 2, RAMP), 1, 3) is None


def test_exists_witness_negative_at_depth_is_decided_without_a_prefix():
    # the pair engine answers; listing the chains of a 60-level prefix would not fit in memory
    t0 = time.perf_counter()
    assert exists_witness_exact(ALT, 2, block("0110", 2, ALT), block("1011", 2, ALT), 1, 60) is None
    assert time.perf_counter() - t0 < 0.5


def test_exists_witness_pinned_positive():
    cert = exists_witness_exact(GOLDEN, 2, block("0", 2, GOLDEN), block("0", 2, GOLDEN), 1, 0)
    assert cert is not None and cert.prefix == "0"
    ok, reason = verify_certificate(GOLDEN, 2, cert)
    assert ok, reason


def test_exists_witness_validates_inputs():
    with pytest.raises(ValueError):
        exists_witness_exact(GOLDEN, 2, block("0", 2, GOLDEN), block("0", 2, GOLDEN), 2, 0)


def test_exists_witness_self_checks():
    cert = exists_witness_exact(ALT, 2, block("01", 2, ALT), block("01", 2, ALT), 1, 1)
    if cert is not None:
        ok, reason = verify_certificate(ALT, 2, cert)
        assert ok, reason


def _random_pattern(rng, spec, base, max_positions, depth_cap=8):
    positions = rng.sample(range(1, 40), rng.randint(1, max_positions))
    entries = {}
    for pos in positions:
        p, depth = pos, 1
        while p % base == 0:
            p //= base
            depth += 1
        if depth > depth_cap:
            continue
        entries[pos] = rng.randint(0, 1)
    if not entries:
        entries[1] = 0
    return Pattern.make(entries, base, spec)


def test_exact_oracle_agrees_with_naive_enumeration():
    rng = random.Random(2027)
    specs = [GOLDEN, RAMP, ALT, sft(2, []), sft(2, ["000", "11"]), spacing("cofinite", [1, 2])]
    agreements = 0
    while agreements < 120:
        spec = rng.choice(specs)
        l = rng.choice([2, 3])
        u = _random_pattern(rng, spec, l, 4)
        v = _random_pattern(rng, spec, l, 3)
        from multishift.mult_shift import is_admissible

        if not (is_admissible(u) and is_admissible(v)):
            continue
        alpha = rng.choice([1, 3, 5, 7]) if l == 2 else rng.choice([1, 2, 4, 5])
        k = rng.randint(0, 2)
        try:
            expected = naive_exists_witness(spec, l, u, v, alpha, k)
        except ValueError:
            continue
        got = exists_witness_exact(spec, l, u, v, alpha, k)
        assert (got is not None) == expected, (spec, l, u.entries, v.entries, alpha, k)
        agreements += 1


# --- probes ---------------------------------------------------------------------


def test_probe_transitive_pinned():
    budget = SearchBudget(alpha_bound=5, k_bound=4, pair_length_bound=2)
    assert probe_transitive_X(RAMP, 2, budget).status == "witnessed"
    assert probe_transitive_X(sft(2, ["0"]), 2, budget).status == "witnessed"
    assert probe_transitive_X(ALT, 2, budget).status == "witnessed"
    empty = probe_transitive_X(sft(2, ["0", "1"]), 2, budget)  # no block, so no pair to connect
    assert (empty.status, empty.pairs_checked, empty.witnessed) == ("witnessed", 0, 0)


def test_probe_transitive_proves_obstruction():
    dead = sft(2, ["01", "11"])  # not extensible: nothing precedes a 1
    verdict = probe_transitive_X(dead, 2, SearchBudget(alpha_bound=5, k_bound=4, pair_length_bound=2))
    assert verdict.status == "proved_negative"
    assert verdict.proofs


def test_probe_directional_negative_with_parity_proof():
    budget = budget_from_env()
    verdict = probe_directional_q(ALT, 2, 2, block("0110", 2, ALT), block("1011", 2, ALT), budget)
    assert verdict.status == "proved_negative"
    assert verdict.k is None
    assert all(k in dict(verdict.per_k_failures) for k in range(budget.k_bound + 1))
    proof = verdict.proof
    assert proof["period"] == 2
    residues = proof["per_chain_feasible_residues"]
    assert set(residues[1]) & set(residues[3]) == set()


def test_probe_directional_ramp_alpha_one_blocks():
    verdict = probe_directional_q(RAMP, 2, 2, block("00", 2, RAMP), block("1", 2, RAMP), budget_from_env())
    assert verdict.status == "proved_negative"
    assert verdict.proof["alpha"] == 1


def test_probe_directional_witnessed():
    verdict = probe_directional_q(GOLDEN, 2, 2, block("1", 2, GOLDEN), block("1", 2, GOLDEN), budget_from_env())
    assert verdict.status == "witnessed"
    assert verdict.k is not None and verdict.k <= 4


def test_proved_negatives_hold_far_beyond_their_horizon():
    # the periodicity proof promises no depth at all; sweep well past it
    from multishift.oracle import _PairProbe

    cases = [
        (ALT, block("0110", 2, ALT), block("1011", 2, ALT)),
        (RAMP, block("00", 2, RAMP), block("1", 2, RAMP)),
        (ALT, block("01", 2, ALT), block("10", 2, ALT)),
    ]
    for spec, u, v in cases:
        verdict = probe_directional_q(spec, 2, 2, u, v, budget_from_env())
        if verdict.status != "proved_negative":
            continue
        alpha = verdict.proof["alpha"]
        horizon = verdict.proof["horizon"]
        probe = _PairProbe(spec, 2, u, v)
        for k in range(horizon + 25):
            assert not probe.decide(alpha, k), (spec, alpha, k)


def test_probe_directional_non_power_moduli_against_naive():
    # moduli with a factor coprime to the base: v's chains move by alpha * a_q**k, not by depth alone
    rng = random.Random(606)
    dead = sft(2, ["01", "11"])  # not extensible: a 1 sits only at depth 1, so some alpha always fails
    specs = [GOLDEN, RAMP, ALT, sft(2, []), sft(2, ["000", "11"]), dead]
    budget = SearchBudget(alpha_bound=5, k_bound=3, pair_length_bound=2)
    seen = set()
    checked = 0
    while checked < 60:
        spec = rng.choice(specs)
        l, q = rng.choice([(2, 3), (2, 6), (3, 6)])
        u = _random_pattern(rng, spec, l, 3, depth_cap=3)
        v = _random_pattern(rng, spec, l, 2, depth_cap=3)
        if not (is_admissible(u) and is_admissible(v)):
            continue
        verdict = probe_directional_q(spec, l, q, u, v, budget)
        assert verdict.proof is None  # all-k proofs are for power moduli only

        def fits(alpha, k):
            # the multiplier |u| * alpha * q**k, as alpha' = alpha * q**k at depth step 0
            return naive_exists_witness(spec, l, u, v, alpha * q**k, 0)

        for k, alpha in verdict.per_k_failures:
            assert not fits(alpha, k), (spec, l, q, u.entries, v.entries, alpha, k)
        if verdict.status == "witnessed":
            assert [k for k, _ in verdict.per_k_failures] == list(range(verdict.k))
            assert all(fits(alpha, verdict.k) for alpha in range(1, budget.alpha_bound + 1) if alpha % q)
        else:
            assert verdict.status == "inconclusive_negative"
            assert [k for k, _ in verdict.per_k_failures] == list(range(budget.k_bound + 1))
        seen.add((l, q, verdict.status))
        checked += 1
    assert {(l, q) for l, q, _ in seen} == {(2, 3), (2, 6), (3, 6)}
    assert {status for _, _, status in seen} == {"witnessed", "inconclusive_negative"}


def test_probe_directional_square_modulus_against_naive():
    # q = l**2: one depth step k moves v's fibers two levels, so the multiplier is |u| * alpha * l**(2k)
    rng = random.Random(616)
    specs = [GOLDEN, RAMP, ALT, sft(2, []), sft(2, ["000", "11"])]
    budget = SearchBudget(alpha_bound=5, k_bound=2, pair_length_bound=2)
    seen = set()
    checked = 0
    while checked < 40:
        spec = rng.choice(specs)
        l = rng.choice([2, 3])
        u = _random_pattern(rng, spec, l, 3, depth_cap=2)
        v = _random_pattern(rng, spec, l, 2, depth_cap=2)
        if not (is_admissible(u) and is_admissible(v)):
            continue
        verdict = probe_directional_q(spec, l, l * l, u, v, budget)

        def fits(alpha, k):
            return naive_exists_witness(spec, l, u, v, alpha, 2 * k, depth_cap=12)

        for k, alpha in verdict.per_k_failures:
            assert not fits(alpha, k), (spec, l, u.entries, v.entries, alpha, k)
        if verdict.status == "witnessed":
            assert all(fits(alpha, verdict.k) for alpha in range(1, budget.alpha_bound + 1) if alpha % (l * l))
        seen.add(verdict.status)
        checked += 1
    assert {"witnessed", "proved_negative"} <= seen


def _random_sft(rng, alphabet):
    digits = "0123456789"[:alphabet]
    pool = ["".join(rng.choice(digits) for _ in range(rng.randint(1, 3))) for _ in range(6)]
    return sft(alphabet, rng.sample(pool, rng.randint(0, 3)))


def _expected_chains(spec, l, u, v, multiplier):
    # the reference merges every pin afresh
    mcs = multiplier_constraints(u, v, multiplier)
    clashing = {decompose(p, l).alpha for p, _, _ in mcs.conflicts}
    return {rep: rep not in clashing and partial_extendable(spec, cons) for rep, cons in mcs.groups}


def test_pair_probe_matches_merged_constraints():
    # decide/class_feasible read per-spec offset tables for the multiplier |u| * m * l**e;
    # a modulus q = a_q * l**n asks (alpha * a_q**k, n * k), and m may be divisible by l
    from multishift.oracle import _PairProbe

    rng = random.Random(707)
    checked, divisible = set(), set()
    for _ in range(300):
        spec = _random_sft(rng, rng.choice([2, 3]))
        l = rng.choice([2, 3, 4, 6])
        q = rng.choice(sorted({l, l * l, 6}))
        d = decompose(q, l)  # q = a_q * l**n
        m = spec.alphabet
        u = Pattern.make({p: rng.randrange(m) for p in rng.sample(range(1, 13), rng.randint(1, 4))}, l, spec)
        v = Pattern.make({p: rng.randrange(m) for p in rng.sample(range(1, 9), rng.randint(1, 3))}, l, spec)
        probe = _PairProbe(spec, l, u, v)
        where = (spec, l, q, u.entries, v.entries)
        for alpha in (a for a in range(1, 10) if a % q):
            for k in range(4):
                expected = _expected_chains(spec, l, u, v, u.length * alpha * q**k)
                assert probe.class_feasible(alpha * d.alpha**k, d.k * k) == expected, (*where, alpha, k)
                assert probe.decide(alpha * d.alpha**k, d.k * k) == all(expected.values()), (*where, alpha, k)
                checked.add((spec.alphabet, l, q, all(expected.values())))
        for mult in (l, 2 * l):
            for e in range(3):
                expected = _expected_chains(spec, l, u, v, u.length * mult * l**e)
                assert probe.class_feasible(mult, e) == expected, (*where, mult, e)
                assert probe.decide(mult, e) == all(expected.values()), (*where, mult, e)
                divisible.add(all(expected.values()))
    assert {(a, l) for a, l, _, _ in checked} == {(a, l) for a in (2, 3) for l in (2, 3, 4, 6)}
    assert {ok for *_, ok in checked} == {True, False}
    assert divisible == {True, False}


def test_pair_grid_matches_pair_probes():
    # depths(m)[e] holds pair i * N + j = (pats[i], pats[j]) iff the lazy engine accepts it at
    # (m, e), for every e below the grid's width; the masks are filled once per m and kept. The
    # patterns include u's with an inadmissible chain and a v on chain 29, which no u's target
    # chain ever carries. On gap-set specs the grid reads no table (a lookup past the horizon
    # raises): every pair is unsure and goes to the lazy engine
    from multishift.mult_shift import inadmissible_classes
    from multishift.oracle import _PairGrid, _PairProbe

    rng = random.Random(2222)
    seen = set()
    for trial in range(48):
        l = (2, 3, 4, 6)[trial % 4]
        if trial % 3 == 2:
            spec = spacing(rng.choice(["cofinite", "thick"]), rng.sample(range(1, 10), rng.randint(1, 4)))
        else:
            spec = _random_sft(rng, rng.choice([2, 3]))
        if not blocks(spec, 1):
            continue
        a = spec.alphabet
        pats, bad = [], []
        for _ in range(200):
            p = Pattern.make({q: rng.randrange(a) for q in rng.sample(range(1, 13), rng.randint(1, 4))}, l, spec)
            if inadmissible_classes(p):
                bad = bad or [p]
            elif len(pats) < 6:
                pats.append(p)
            if bad and len(pats) == 6:
                break
        pats += bad + [Pattern.make({29: rng.randrange(a)}, l, spec)]
        rng.shuffle(pats)
        width = rng.randint(1, 20)
        grid = _PairGrid(spec, l, pats, width)
        probes = [_PairProbe(spec, l, u, v) for u in pats for v in pats]
        seen.add(type(spec).__name__)
        if isinstance(spec, SpacingSpec):
            assert grid.unsure == grid.full
            assert grid.depths(1) == [0] * width
            assert [(p.u, p.v) for p in grid.left_out(grid.full)] == [(p.u, p.v) for p in probes]
            continue
        for m in range(1, 13):
            depths = grid.depths(m)
            assert len(depths) == width and grid.depths(m) is depths  # a second read is the kept fill
            for e in range(width):
                expected = sum(1 << i for i, probe in enumerate(probes) if probe.decide(m, e))
                assert depths[e] == expected, (spec, l, m, e)
                seen.add("some" if 0 < expected < grid.full else "all or none")
        assert grid.unsure == 0
        assert not list(grid.left_out(grid.full))
        seen.add(f"l = {l}")
        if bad:
            seen.add("inadmissible u")
    assert seen == {"some", "all or none", "SftSpec", "SpacingSpec", "inadmissible u", "l = 2", "l = 3", "l = 4", "l = 6"}


def test_offset_tables_are_kept_per_spec():
    # same fibers, different forbidden sets: a 1 at depths 1 (u) and 2 (v) of chain 1
    from multishift.oracle import _PairProbe

    golden, full = sft(2, ["11"]), sft(2, [])

    def decide(spec):
        return _PairProbe(spec, 2, block("1", 2, spec), block("1", 2, spec)).decide(1, 1)

    assert decide(golden) is False
    assert decide(full) is True
    assert decide(golden) is False


@pytest.mark.parametrize("l", [2, 3, 4, 6])
def test_target_chains_are_injective(l):
    # one multiplier never sends two base-free chain representatives to one chain
    rng = random.Random(l)
    reps = [j for j in range(1, 200) if j % l]
    for _ in range(300):
        multiplier = rng.randint(1, 10**6)
        targets = [decompose(multiplier * j, l).alpha for j in reps]
        assert len(set(targets)) == len(targets), multiplier


def test_campaign_row_probes_match_public_probes():
    # a campaign row decides every pattern pair at once on a pair grid; the references decide
    # one pair at a time on lazy engines (transitive: _PairProbe.decide over _alpha_k_order,
    # directional: the public probe), so the two paths must aggregate alike
    from multishift.oracle import _alpha_k_order, _campaign_row, _never_witnessable_proof, _PairProbe, x_block_patterns

    def aggregate(statuses):
        if all(s == "witnessed" for s in statuses):
            return "witnessed"
        return "proved_negative" if "proved_negative" in statuses else "inconclusive_negative"

    def transitive_status(spec, l, u, v, budget):
        probe = _PairProbe(spec, l, u, v)
        if any(probe.decide(alpha, k) for alpha, k in _alpha_k_order(l, budget)):
            return "witnessed"
        return "inconclusive_negative" if _never_witnessable_proof(spec, l, u, v) is None else "proved_negative"

    rng = random.Random(909)
    specs = [s for s in dedupe_by_language(binary_sft_family(2)) if blocks(s, 1)][:14]
    while len(specs) < 22:
        spec = _random_sft(rng, 2)
        if blocks(spec, 1):
            specs.append(spec)
    budget = SearchBudget(alpha_bound=5, k_bound=4, pair_length_bound=2)
    seen = set()
    for i, spec in enumerate(specs):
        l = (2, 3)[i % 2]
        row = _campaign_row(spec, l, budget)
        pats = x_block_patterns(spec, l, budget.pair_length_bound)
        expected = {"transitive": aggregate([transitive_status(spec, l, u, v, budget) for u in pats for v in pats])}
        for label, q in (("directional_l", l), ("directional_l2", l * l)):
            statuses = [probe_directional_q(spec, l, q, u, v, budget).status for u in pats for v in pats]
            expected[label] = aggregate(statuses)
        assert {label: row.x_probes[label] for label in expected} == expected, (spec, l)
        seen.update(expected.values())
        seen.add(l)
    assert seen >= {2, 3, "witnessed", "proved_negative"}


def test_campaign_directional_sweep_stops_at_first_proof(monkeypatch):
    # sft(2, ["01"]) at l = 2 has 19 patterns (361 pairs); pair 1 is already a proved
    # negative at q = 2 and at q = 4, so a row runs a handful of all-k proof searches per
    # modulus and builds a handful of lazy engines, where a sweep past the first proof runs
    # one per failing pair
    from multishift import oracle

    spec, budget = RAMP, SearchBudget()
    proof, calls = oracle._forall_k_proof, []
    engine, built = oracle._PairProbe, []

    def counted_proof(probe, alpha, n):
        calls.append(n)
        return proof(probe, alpha, n)

    def counted_engine(*args):
        built.append(args)
        return engine(*args)

    monkeypatch.setattr(oracle, "_forall_k_proof", counted_proof)
    monkeypatch.setattr(oracle, "_PairProbe", counted_engine)
    row = oracle._campaign_row(spec, 2, budget)
    monkeypatch.undo()
    pats = oracle.x_block_patterns(spec, 2, budget.pair_length_bound)
    assert len(pats) ** 2 == 361
    assert 0 < calls.count(1) <= 5 and 0 < calls.count(2) <= 5 and len(calls) <= 10
    assert 0 < len(built) <= 10
    for label, q in (("directional_l", 2), ("directional_l2", 4)):
        statuses = [probe_directional_q(spec, 2, q, u, v, budget).status for u in pats for v in pats]
        assert statuses.index("proved_negative") == 1
        assert row.x_probes[label] == "proved_negative"


def _orbit_periodicity(probe, alpha, n):
    """(periodic_from_k, period) of an all-k proof, worked out from each chain's static orbit."""
    ctx = shift_core._ctx(probe.omega)
    k_star, periods = 0, []
    for target, base, cons, _ in probe._target_layout(alpha):
        orbit = shift_core._static_orbit(ctx, probe.u_groups.get(target, ()))
        need = orbit.origin + orbit.preperiod + 1  # the dynamic block past the static part, the orbit settled
        k_star = max(k_star, -((base + min(d for d, _ in cons) - need) // n))
        periods.append(orbit.period // math.gcd(n, orbit.period))
    return k_star, math.lcm(*periods)


def test_directional_proof_is_first_provable_alpha():
    # _directional walks alpha in a_set order and stops at the first all-k proof; the
    # reference lists every alpha that fails at each k <= k_bound first, then searches it.
    # Each proof's start and period, read off the offset tables, match the static orbits.
    from multishift.lambda_arith import a_set
    from multishift.oracle import _directional, _forall_k_proof, _PairProbe, x_block_patterns

    rng = random.Random(1717)
    budget = SearchBudget(alpha_bound=9, k_bound=1, pair_length_bound=2)  # k_bound 1 leaves some inconclusive
    proved = inconclusive = late = halved = 0  # late: a start past depth 0; halved: the gcd shortens a period
    for _ in range(150):
        spec = _random_sft(rng, rng.choice([2, 3]))
        if not blocks(spec, 1):
            continue
        l = rng.choice([2, 3])
        pats = x_block_patterns(spec, l, budget.pair_length_bound)
        for u in rng.sample(pats, min(4, len(pats))):
            for v in rng.sample(pats, min(4, len(pats))):
                for n in (1, 2):
                    probe = _PairProbe(spec, l, u, v)
                    status, _, _, proof = _directional(probe, l**n, budget)
                    if status == "witnessed":
                        continue
                    alphas = a_set(l**n, budget.alpha_bound)
                    always_failing = [
                        a for a in alphas if all(not probe.decide(a, n * k) for k in range(budget.k_bound + 1))
                    ]
                    proofs = (_forall_k_proof(probe, a, n) for a in always_failing)
                    expected = next((p for p in proofs if p is not None), None)
                    assert proof == expected, (spec, l, n, u.entries, v.entries)
                    if proof is not None:
                        periodicity = proof["periodic_from_k"], proof["period"]
                        assert periodicity == _orbit_periodicity(probe, proof["alpha"], n), (spec, l, n)
                        late += periodicity[0] > 0
                        halved += periodicity[1] < _orbit_periodicity(probe, proof["alpha"], 1)[1]
                    proved += proof is not None
                    inconclusive += proof is None
    assert proved > 100 and inconclusive > 0 and late and halved


def _directional_redeciding(probe, q, budget):
    """``_directional`` as it was: the proof search re-decides every depth k for each alpha."""
    from multishift.lambda_arith import a_set

    d = decompose(q, probe.l)
    a_q, n = d.alpha, d.k
    alphas = a_set(q, budget.alpha_bound)
    failures = []
    for k in range(budget.k_bound + 1):
        bad = next((alpha for alpha in alphas if not probe.decide(alpha * a_q**k, n * k)), None)
        if bad is None:
            return "witnessed", k, tuple(failures), None
        failures.append((k, bad))
    proof = None
    if a_q == 1:
        for alpha in alphas:
            if all(not probe.decide(alpha, n * k) for k in range(budget.k_bound + 1)):
                proof = oracle._forall_k_proof(probe, alpha, n)
                if proof is not None:
                    break
    status = "proved_negative" if proof is not None else "inconclusive_negative"
    return status, None, tuple(failures), proof


def test_directional_proof_search_reuses_the_depth_loop(monkeypatch):
    # after the budget loop, failures[k] names the first alpha failing at depth k: the alphas before it
    # pass there and it fails.  The proof search decides only the (alpha, k) pairs this leaves open, and
    # must return what re-deciding every k per alpha returned, with no more decide calls
    from multishift.oracle import _directional, _PairProbe, x_block_patterns

    decide, calls = _PairProbe.decide, [0]

    def counted(self, m, e):
        calls[0] += 1
        return decide(self, m, e)

    monkeypatch.setattr(_PairProbe, "decide", counted)
    rng = random.Random(3030)
    seen, saved = set(), 0
    for _ in range(60):
        spec = _random_sft(rng, rng.choice([2, 3]))
        if not blocks(spec, 1):
            continue
        l = rng.choice([2, 3])
        budget = SearchBudget(alpha_bound=rng.choice([5, 9]), k_bound=rng.choice([1, 2, 4]), pair_length_bound=2)
        pats = x_block_patterns(spec, l, budget.pair_length_bound)
        for u in rng.sample(pats, min(3, len(pats))):
            for v in rng.sample(pats, min(3, len(pats))):
                for q in (l, l * l):
                    calls[0] = 0
                    expected = _directional_redeciding(_PairProbe(spec, l, u, v), q, budget)
                    before, calls[0] = calls[0], 0
                    got = _directional(_PairProbe(spec, l, u, v), q, budget)
                    assert got == expected, (spec, l, q, u.entries, v.entries)
                    assert calls[0] <= before
                    saved += before - calls[0]
                    status, _, failures, proof = got
                    seen.add(status)
                    if proof is not None and proof["alpha"] != 1:
                        seen.add("proof past the first alpha")
    assert seen == {"witnessed", "proved_negative", "inconclusive_negative", "proof past the first alpha"}
    assert saved > 0

    # a proved negative whose first alpha fails at every k: the k loop decides once per k and the
    # search none, so the all-k proof starts after exactly k_bound + 1 calls (the old search made twice that)
    proof, entered = oracle._forall_k_proof, []

    def counted_proof(probe, alpha, n):
        entered.append(calls[0])
        return proof(probe, alpha, n)

    monkeypatch.setattr(oracle, "_forall_k_proof", counted_proof)
    budget = SearchBudget(alpha_bound=9, k_bound=4, pair_length_bound=2)
    u, v = block("0110", 2, ALT), block("1011", 2, ALT)
    calls[0] = 0
    status, _, failures, found = _directional(_PairProbe(ALT, 2, u, v), 2, budget)
    assert status == "proved_negative" and found["alpha"] == 1
    assert [bad for _, bad in failures] == [1] * (budget.k_bound + 1)
    assert entered == [budget.k_bound + 1]


def test_probe_budget_monotone():
    small = SearchBudget(alpha_bound=3, k_bound=2, pair_length_bound=2)
    large = SearchBudget(alpha_bound=9, k_bound=6, pair_length_bound=2)
    for spec in (GOLDEN, ALT, RAMP):
        pats = [block(w, 2, spec) for w in sorted(enumerate_blocks(spec, 2, 2))]
        for u in pats[:3]:
            for v in pats[:3]:
                a = probe_directional_q(spec, 2, 2, u, v, small)
                b = probe_directional_q(spec, 2, 2, u, v, large)
                if a.status == "witnessed":
                    assert b.status == "witnessed"


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("MULTISHIFT_BUDGET", "alpha=5,k=3,len=2")
    assert budget_from_env() == SearchBudget(5, 3, 2)
    monkeypatch.setenv("MULTISHIFT_BUDGET", "bogus=1")
    with pytest.raises(ValueError):
        budget_from_env()


# --- families and campaign -------------------------------------------------------


def test_binary_family_size_and_dedupe():
    fam = binary_sft_family(2)
    assert len(fam) == 64
    dedup = dedupe_by_language(fam)
    assert len(dedup) < len(fam)
    keys = set()
    for spec in dedup:
        key = tuple(blocks(spec, t) for t in range(1, 5))
        assert key not in keys
        keys.add(key)


def test_random_family_is_seeded():
    assert random_sft_family(10, seed=5) == random_sft_family(10, seed=5)
    assert random_sft_family(10, seed=5) != random_sft_family(10, seed=6)


def test_campaign_paper_anchored_rows():
    report = campaign([RAMP, ALT, GOLDEN], [2], SearchBudget(alpha_bound=9, k_bound=8, pair_length_bound=4))
    assert not report.hard_contradictions
    assert report.certificate_failures == 0
    by_spec = {row.spec: row for row in report.rows}
    ramp_row = by_spec[RAMP]
    assert ramp_row.omega_verdicts["extensible"] is True
    assert ramp_row.omega_verdicts["transitive"] is False
    assert ramp_row.x_probes["transitive"] == "witnessed"
    assert ramp_row.x_probes["directional_l"] == "proved_negative"
    alt_row = by_spec[ALT]
    assert alt_row.omega_verdicts["transitive"] is True
    assert alt_row.omega_verdicts["weakly_mixing"] is False
    assert alt_row.x_probes["directional_l"] == "proved_negative"
    assert alt_row.x_probes["mixing"] == "proved_negative"
    golden_row = by_spec[GOLDEN]
    assert all(golden_row.omega_verdicts[p] for p in golden_row.omega_verdicts)
    assert golden_row.x_probes == {
        "transitive": "witnessed",
        "directional_l": "witnessed",
        "directional_l2": "witnessed",
        "mixing": "witnessed",
    }


def test_gap_index_check_agrees_with_the_primitivity_exponent():
    # the verifier's own route (repeated squaring of successor sets) against the decider's
    # exponent: N passes exactly from the least gap index on, and no N passes on a space that is
    # not mixing
    specs = dedupe_by_language(binary_sft_family(2) + random_sft_family(60, seed=33, max_word_len=4))
    specs += [sft(3, ["00", "12", "211"]), sft(2, ["11", "1001"])]
    mixing = 0
    for spec in specs:
        if shift_core.decide(spec, "mixing").value:
            mixing += 1
            n = shift_core.mixing_gap_index(spec)
            assert [verify._gap_index_fault(spec, t) is None for t in range(n + 40)] == [False] * n + [True] * 40
        elif shift_core.build_graph(spec).vertices:  # on an empty language every N holds vacuously
            assert all(verify._gap_index_fault(spec, t) for t in [*range(40), 10**40])
    assert 10 < mixing < len(specs)
    for complement in ([], [1], [2, 5], [1, 2, 3, 9]):
        top = max(complement, default=0)
        answers = [verify._gap_index_fault(spacing("cofinite", complement), t) is None for t in range(top + 5)]
        assert answers == [False] * (top + 1) + [True] * 4


def test_a_campaign_row_checks_each_certificate_once(monkeypatch):
    # the builders check nothing: the row hands every certificate it builds to one verifier call,
    # which runs one prefix check per distinct claim, one cover check per distinct cover and one
    # gap-index check per threshold; the directional and mixing claims carry no prefix
    checks, covers, gaps, calls = [], [], [], []
    prefix_fault, cover_fault, gap_fault = verify.prefix_fault, verify._cover_fault, verify._gap_index_fault
    verify_all = oracle.verify_certificates
    monkeypatch.setattr(verify, "prefix_fault", lambda *args: checks.append(args) or prefix_fault(*args))
    monkeypatch.setattr(verify, "_cover_fault", lambda *args: covers.append(args[4]) or cover_fault(*args))
    monkeypatch.setattr(verify, "_gap_index_fault", lambda *args: gaps.append(args[1]) or gap_fault(*args))
    monkeypatch.setattr(oracle, "verify_certificates", lambda *args: calls.append(args[2]) or verify_all(*args))
    row = oracle._campaign_row(GOLDEN, 2, SearchBudget())
    assert len(calls) == 1
    built = calls[0]
    kinds = ["transitive_prime_alpha"] * 6 + ["directional_all_alpha"] * 12 + ["mixing_past_threshold"] * 6
    assert [cert.construction for cert in built] == kinds
    claims = {(c.u_literal, c.v_literal, c.multiplier, c.constraints, c.prefix) for c in built[:6]}
    assert len(checks) == len(claims) == 6
    distinct = {(c.u_literal, c.v_literal, c.directional_base, c.k, c.cover) for c in built[6:18]}
    assert len(covers) == len(distinct) == 12
    assert gaps == [2] == [shift_core.mixing_gap_index(GOLDEN)]
    assert (row.certificates_checked, row.certificate_failures, row.hard) == (24, 0, [])


def test_a_campaign_row_records_a_certificate_the_verifier_rejects(flip_one_pin, wrong_claims):
    row = oracle._campaign_row(GOLDEN, 2, SearchBudget())
    assert row.certificate_failures == row.certificates_checked == len(flip_one_pin) + len(wrong_claims) == 24
    assert {entry["kind"] for entry in row.hard} == {"certificate_failed_verification"}
    assert row.hard[0]["reason"] == f"prefix violates the constraint at position {flip_one_pin[0]}"
    bound = wrong_claims[0].cover.offset_bound
    assert row.hard[6]["reason"] == f"cover: offset bound {bound} is not the product offset bound plus 0"
    assert row.hard[-1]["reason"] == "not every window reaches every window in 1 steps: 1 is no gap index"


def test_a_campaign_row_lists_certificate_failures_after_its_other_hard_entries(
    monkeypatch, flip_one_pin, wrong_claims
):
    # the directional check fails on its first pair, after the transitive certificates are built
    # and before the mixing claims; the verifier runs after the last check, so its failures come last,
    # in build order
    def no_connector(*args):
        raise ConnectorNotFound("no connector")

    monkeypatch.setattr(witness, "witness_directional_all_alpha", no_connector)
    row = oracle._campaign_row(GOLDEN, 2, SearchBudget())
    assert row.hard[0] == {
        "check": "directional", "kind": "cover_connector_missing", "n": 1, "pair": ("block:0", "block:0")
    }
    assert {e["kind"] for e in row.hard[1:]} == {"certificate_failed_verification"}
    assert [e["check"] for e in row.hard[1:]] == ["transitivity"] * 6 + ["mixing"] * 6
    reasons = [f"prefix violates the constraint at position {pos}" for pos in flip_one_pin]
    reasons += ["not every window reaches every window in 1 steps: 1 is no gap index"] * len(wrong_claims)
    assert [e["reason"] for e in row.hard[1:]] == reasons
    assert row.certificate_failures == row.certificates_checked == 12


def test_a_campaign_row_verifies_the_certificates_built_past_the_budget(monkeypatch, request):
    # at k_bound = 1 a pair of the q = l list of sft(2, ["00"]) at l = 3 has no uniform depth within
    # the budget; the row's first directional witness finds one deeper, as one claim for every alpha
    # (no per-alpha prefixes), which is verified with the row's other 24 certificates
    spec, budget = sft(2, ["00"]), SearchBudget(alpha_bound=9, k_bound=1, pair_length_bound=3)
    built, build = [], witness.witness_directional_all_alpha
    monkeypatch.setattr(witness, "witness_directional_all_alpha", lambda *args: built.append(build(*args)) or built[-1])
    row = oracle._campaign_row(spec, 3, budget)
    assert len(built) == 13 and built[0].k > budget.k_bound
    assert "directional_l: a pair needed a depth step beyond the budget" in row.notes
    assert (row.certificates_checked, row.certificate_failures, row.hard) == (25, 0, [])
    flipped = request.getfixturevalue("flip_one_pin")
    claims = request.getfixturevalue("wrong_claims")
    row = oracle._campaign_row(spec, 3, budget)
    assert row.certificate_failures == row.certificates_checked == len(flipped) + len(claims) == 25
    assert [e["check"] for e in row.hard] == ["transitivity"] * 6 + ["directional"] * 13 + ["mixing"] * 6


def test_a_campaign_row_cut_short_keeps_what_it_reached(monkeypatch):
    # a bounded-search error ends only its row: the row keeps its finished checks and their verified
    # certificates, its open checks become inconclusive and it records the error; any other exception
    # is a bug and propagates
    def raises(error):
        def check(*args):
            raise error

        return check

    monkeypatch.setattr(oracle, "_check_mixing", raises(OutputGuardExceeded("a prefix of 9 symbols exceeds the cap")))
    row = oracle._campaign_row(GOLDEN, 2, SearchBudget())
    assert row.to_dict()["error"] == "OutputGuardExceeded: a prefix of 9 symbols exceeds the cap"
    assert row.checks == {"transitivity": "pass", "directional": "pass", "mixing": "inconclusive"}
    assert (row.certificates_checked, row.certificate_failures, row.hard) == (18, 0, [])
    monkeypatch.setattr(oracle, "_check_mixing", raises(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        oracle._campaign_row(GOLDEN, 2, SearchBudget())


def test_campaign_jsonl_and_table():
    report = campaign([GOLDEN], [2, 3], SearchBudget(alpha_bound=5, k_bound=4, pair_length_bound=2))
    lines = [ln for ln in report.to_jsonl().splitlines() if ln]
    assert len(lines) == 2
    import json

    row = json.loads(lines[0])
    assert row["spec"] == {"kind": "sft", "alphabet": 2, "forbidden": ["11"]}
    table = report.render_table()
    assert "sft[2]{11}" in table
    assert "hard=0" in table


def test_campaign_parallel_matches_serial():
    fam = binary_sft_family(2)[:10]
    budget = SearchBudget(alpha_bound=5, k_bound=4, pair_length_bound=2)
    serial = campaign(fam, [2], budget)
    parallel = campaign(fam, [2], budget, jobs=2)
    assert [r.to_dict() for r in serial.rows] == [r.to_dict() for r in parallel.rows]


def test_campaign_workers_are_bounded_by_rows_and_cpus(monkeypatch):
    # a forked pool starts all of its workers on the first submit, so --jobs is cut to the rows and
    # the usable CPUs; the fake pool records its size and maps in this process, starting none
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    fam = binary_sft_family(2)[:5]
    budget = SearchBudget(alpha_bound=3, k_bound=2, pair_length_bound=1)
    serial = [r.to_dict() for r in campaign(fam, [2], budget).rows]
    assert len(serial) == 5 and sizes == []
    for specs, jobs, size in ((5, 10**6, 3), (5, 2, 2), (2, 10**6, 2)):  # cut by the CPUs, --jobs, the rows
        assert [r.to_dict() for r in campaign(fam[:specs], [2], budget, jobs=jobs).rows] == serial[:specs]
        assert sizes.pop() == size
    assert [r.to_dict() for r in campaign(fam[:1], [2], budget, jobs=10**6).rows] == serial[:1]
    assert sizes == []  # one row runs serially


def test_acceptance_campaign_jsonl_is_pinned(monkeypatch):
    # Parity pin for the acceptance campaign (`multishift campaign --random 200 --l 2,3`).  Its
    # JSONL does not depend on PYTHONHASHSEED or on --jobs.  A change that alters any answer
    # updates this digest and lists the rows that changed, with the reason, in CHANGES.md.
    import hashlib

    monkeypatch.delenv("MULTISHIFT_BUDGET", raising=False)
    report = campaign(binary_sft_family(2) + random_sft_family(200, seed=20191030), [2, 3])
    assert (len(report.rows), report.certificates_checked, len(report.hard_contradictions)) == (82, 982, 0)
    digest = hashlib.sha256(report.to_jsonl().encode()).hexdigest()
    assert digest == "fc7716498465498a054829785c1f8cf3797977bde1ecae150c84fb16820ec46a"


@pytest.mark.parametrize(
    "l_values, rows, digest",
    [
        ([2, 3], 82, "e6317ddd731f075b2a63dad4c102652b96fcad60d8e5b716e311f7aaebf01a49"),
        ([4, 5, 6], 123, "5a64266e12f0efe1d1a83a1a6076f69bac941904c15962ce069d8e8ba9d1d8a2"),
    ],
)
def test_acceptance_campaign_answers_are_pinned_apart_from_the_certificate_count(monkeypatch, l_values, rows, digest):
    # The acceptance family's JSONL with `certificates_checked` dropped from every row: a change to
    # how positives are certified moves only that count, and cannot hide an answer change behind
    # the re-pinned digest above.
    import hashlib
    import json

    monkeypatch.delenv("MULTISHIFT_BUDGET", raising=False)
    report = campaign(binary_sft_family(2) + random_sft_family(200, seed=20191030), l_values)
    answers = [{k: v for k, v in row.to_dict().items() if k != "certificates_checked"} for row in report.rows]
    text = "".join(json.dumps(answer, sort_keys=True) + "\n" for answer in answers)
    assert (len(report.rows), report.certificate_failures, len(report.hard_contradictions)) == (rows, 0, 0)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
