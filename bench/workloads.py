"""The three workloads: seeded inputs, the timed operations, and the output checks.

``INPUTS[w](seed)`` runs in the parent process and uses only ``reference``
(and, for ``campaign``, the program's own spec-family constructors, which
build spec values and touch no cache).  ``PREPARE[w]`` runs in each round's
fresh interpreter and turns the inputs into program objects; ``CHECK[w]``
runs after the timed section and compares the outputs with ``reference``.

An op is one campaign row, one directional probe, or one witness -> verify
round trip through ``multishift.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import asdict

import reference as R

WORKLOADS = ("campaign", "probe-deep", "certify")

# campaign: the acceptance family of criterion 2, one spec from each CAMPAIGN_STRIDE neighbours of a stratum
CAMPAIGN_FAMILY_SEED = 20191030
CAMPAIGN_STRIDE = 2
# probe-deep: specs per period class (1 = mixing)
PROBE_CLASSES = {1: 30, 2: 110, 3: 110}
PROBE_LENGTHS = ((2, 3), (3, 4), (4, 5), (6, 6))  # (|u|, |v|) of the pattern pairs per spec
PROBE_K_BOUND = 40
PROBE_ALPHA_BOUND = 9
PROBE_CHECK_SAMPLE = 120


class Op:
    """One timed operation: ``run()`` returns (output text, failure reason or None, seconds timed)."""

    def __init__(self, name, run, spec=None):
        self.name = name
        self.run = run
        self.spec = spec


# ---------------------------------------------------------------------------
# campaign


def _x_blocks(ref, l, max_len):
    """Number of blocks of the multiplicative subshift up to max_len: a product over chains."""
    total = 0
    for n in range(1, max_len + 1):
        count = 1
        for rep in range(1, n + 1):
            if rep % l:
                depth = sum(1 for j in range(n) if rep * l**j <= n)
                count *= sum(ref.admissible("".join(w)) for w in itertools.product(ref.symbols, repeat=depth))
        total += count
    return total


def campaign_inputs(seed):
    from multishift import oracle

    family = oracle.binary_sft_family(2) + oracle.random_sft_family(200, seed=CAMPAIGN_FAMILY_SEED, max_word_len=3)
    # deduplicate by language (words up to memory + 2), keeping the first spec, as the campaign does
    depth = max(s.memory for s in family) + 2
    seen = {}
    for s in family:
        ref = R.RefSft(s.alphabet, s.forbidden)
        key = tuple(
            frozenset(w for w in map("".join, itertools.product(ref.symbols, repeat=t)) if ref.admissible(w))
            for t in range(1, depth + 1)
        )
        seen.setdefault(key, ref)
    specs = list(seen.values())
    # strata by the decided class; within one, order by the pattern-pair count the rows
    # iterate over, then draw one spec from each run of CAMPAIGN_STRIDE neighbours
    strata = {}
    for ref in specs:
        p = R.properties(ref)
        cls = "empty" if not ref.windows else "mixing" if p["mixing"] else "extensible" if p["extensible"] else "other"
        strata.setdefault(cls, []).append(ref)
    rng = random.Random(seed)
    chosen = []
    for cls in sorted(strata):
        group = sorted(strata[cls], key=lambda r: (sum(_x_blocks(r, l, 4) ** 2 for l in (2, 3)), r.forbidden))
        for i in range(0, len(group), CAMPAIGN_STRIDE):
            chosen.append(rng.choice(group[i : i + CAMPAIGN_STRIDE]))
    order = {id(r): i for i, r in enumerate(specs)}
    chosen.sort(key=lambda r: order[id(r)])  # the campaign's own row order
    return {"specs": [r.to_dict() for r in chosen], "l_values": [2, 3]}


def campaign_prepare(inputs, run_dir):
    from multishift import oracle, shift_core

    budget = oracle.SearchBudget()
    ops = []
    for d in inputs["specs"]:
        spec = shift_core.sft(d["alphabet"], d["forbidden"])
        for l in inputs["l_values"]:
            def run(spec=spec, l=l):
                t0 = time.perf_counter()
                report = oracle.campaign([spec], [l], budget)
                spent = time.perf_counter() - t0
                return report.to_jsonl(), None, spent

            ops.append(Op(f"row {d['forbidden']} l={l}", run, spec))
    return ops


PROPERTY_OF_PROBE = {"transitive": "extensible", "directional_l": "weakly_mixing",
                     "directional_l2": "weakly_mixing", "mixing": "mixing"}
PROPERTY_OF_CHECK = {"transitivity": "extensible", "directional": "weakly_mixing", "mixing": "mixing"}


def campaign_check(inputs, outputs):
    errors = []
    refs = {}
    for d in inputs["specs"]:
        refs[tuple(R.normalize(d["forbidden"]))] = R.RefSft(d["alphabet"], d["forbidden"])
    for name, text in outputs:
        if text is None:
            continue
        row = json.loads(text)
        ref = refs[tuple(row["spec"]["forbidden"])]
        props = R.properties(ref)
        if row["omega"] != props:
            errors.append(f"{name}: omega verdicts {row['omega']} != reference {props}")
        if row["hard"] or row["certificate_failures"]:
            errors.append(f"{name}: hard contradictions {row['hard']}")
        for probe, prop in PROPERTY_OF_PROBE.items():
            if row["x_probes"].get(probe) == "proved_negative" and props[prop]:
                errors.append(f"{name}: {probe} proved negative although Omega is {prop}")
        for chk, prop in PROPERTY_OF_CHECK.items():
            status = row["checks"].get(chk)
            # a mixing row may stay inconclusive when the threshold window lies past the k budget
            budget_out = chk == "mixing" and status == "inconclusive" and row["x_probes"]["mixing"] == "inconclusive_negative"
            if props[prop] and status != "pass" and not budget_out:
                errors.append(f"{name}: check {chk} is {status} although Omega is {prop}")
    return errors


# ---------------------------------------------------------------------------
# probe-deep


def _periodic_spec(rng, period):
    """A transitive finite-type spec over 3-4 symbols, memory 3-4, 8-27 windows and the given period.

    For period p > 1 each pair of symbols gets a phase mod p and a step
    xy -> yz is allowed only into the next phase, which forbids words of
    length 3; period 1 forbids random words of length 3.  Up to two words of
    the resulting language, of length 3 or 4, are forbidden on top.
    """
    for _ in range(100_000):
        a = rng.choice((3, 4))
        syms = R.DIGITS[:a]
        if period > 1:
            phase = {x + y: rng.randrange(period) for x in syms for y in syms}
            forbidden = [x + y + z for x in syms for y in syms for z in syms
                         if phase[y + z] != (phase[x + y] + 1) % period]
        else:
            forbidden = ["".join(rng.choice(syms) for _ in range(3)) for _ in range(rng.randint(2, 8))]
        base = R.RefSft(a, forbidden)
        if not base.windows:
            continue
        for _ in range(rng.randint(0, 2)):
            forbidden.append(base.random_word(rng, rng.choice((3, 4))))
        ref = R.RefSft(a, forbidden)
        if ref.memory not in (3, 4) or not 8 <= len(ref.windows) <= 27:
            continue
        if R.properties(ref)["transitive"] and R.period(ref) == period:
            return ref
    raise RuntimeError(f"no spec of period {period} found")


def probe_inputs(seed):
    rng = random.Random(seed)
    specs, probes = [], []
    # every class gets both bases equally often, and every spec the same pattern lengths
    slots = [(p, 2 + i % 2) for p, n in sorted(PROBE_CLASSES.items()) for i in range(n)]
    rng.shuffle(slots)
    seen = set()
    for period, l in slots:
        ref = _periodic_spec(rng, period)
        while tuple(ref.forbidden) in seen:  # every spec is new to the process
            ref = _periodic_spec(rng, period)
        seen.add(tuple(ref.forbidden))
        specs.append(ref.to_dict())
        for ulen, vlen in PROBE_LENGTHS:
            u = R.random_block(ref, rng, l, ulen)
            v = R.random_block(ref, rng, l, vlen)
            for q in (l, l * l):
                probes.append({"spec": len(specs) - 1, "l": l, "q": q, "u": u, "v": v})
    sample = sorted(rng.sample(range(len(probes)), min(PROBE_CHECK_SAMPLE, len(probes))))
    return {"k_bound": PROBE_K_BOUND, "alpha_bound": PROBE_ALPHA_BOUND, "specs": specs,
            "probes": probes, "check_sample": sample}


def probe_prepare(inputs, run_dir):
    from multishift import oracle, shift_core
    from multishift.mult_shift import Pattern

    budget = oracle.SearchBudget(alpha_bound=inputs["alpha_bound"], k_bound=inputs["k_bound"])
    specs = [shift_core.sft(d["alphabet"], d["forbidden"]) for d in inputs["specs"]]
    ops = []
    for i, p in enumerate(inputs["probes"]):
        spec = specs[p["spec"]]
        u = Pattern.block(p["u"], p["l"], spec)
        v = Pattern.block(p["v"], p["l"], spec)

        def run(spec=spec, p=p, u=u, v=v):
            t0 = time.perf_counter()
            verdict = oracle.probe_directional_q(spec, p["l"], p["q"], u, v, budget)
            spent = time.perf_counter() - t0
            return json.dumps(asdict(verdict), sort_keys=True, default=str), None, spent

        ops.append(Op(f"probe {i}", run, spec))
    return ops


def _alphas(q, bound):
    return [a for a in range(1, bound + 1) if a % q]


def probe_check(inputs, outputs):
    errors = []
    refs = [R.from_dict(d) for d in inputs["specs"]]
    for i in inputs["check_sample"]:
        p = inputs["probes"][i]
        name, text = outputs[i]
        if text is None:
            continue
        verdict = json.loads(text)
        ref, l, q = refs[p["spec"]], p["l"], p["q"]
        u, v = R.parse_literal("block:" + p["u"], l), R.parse_literal("block:" + p["v"], l)
        ulen = len(p["u"])
        alphas = _alphas(q, inputs["alpha_bound"])

        def feasible(alpha, k):
            return R.pair_feasible(ref, l, u, v, ulen * alpha * q**k)

        status = verdict["status"]
        for k, alpha in verdict["per_k_failures"]:
            if feasible(alpha, k):
                errors.append(f"{name}: alpha {alpha} listed as failing at k={k} but fits")
        if status == "witnessed":
            k = verdict["k"]
            if k is None or k > inputs["k_bound"] or [kk for kk, _ in verdict["per_k_failures"]] != list(range(k)):
                errors.append(f"{name}: witnessed at k={k} with failures {verdict['per_k_failures']}")
            elif not all(feasible(a, k) for a in alphas):
                errors.append(f"{name}: witnessed k={k} fails for some alpha")
        elif status == "proved_negative":
            proof = verdict["proof"]
            if R.properties(ref)["weakly_mixing"]:
                errors.append(f"{name}: proved negative on a weakly mixing base space")
            elif any(feasible(proof["alpha"], k) for k in range(proof["horizon"] + 2 * proof["period"] + 1)):
                errors.append(f"{name}: proof for alpha {proof['alpha']} refuted by a feasible k")
        elif status == "inconclusive_negative":
            uniform = [k for k in range(inputs["k_bound"] + 1) if all(feasible(a, k) for a in alphas)]
            if uniform:
                errors.append(f"{name}: inconclusive although k={uniform[0]} works for every alpha")
        else:
            errors.append(f"{name}: unknown status {status}")
    return errors


# ---------------------------------------------------------------------------
# certify

# Every slot fixes the mode, base and kind of base space, so each seed draws alike work;
# the seed picks the spec within its kind and the patterns.
# large certificates: (mode, l, target prefix symbols, kind)
CERT_LARGE = [
    ("transitive", 2, 8_000, "sft2"), ("transitive", 3, 16_000, "sft2"),
    ("transitive", 2, 32_000, "sft3"), ("transitive", 3, 48_000, "sft2"),
    ("mixing", 2, 24_000, "cofinite"), ("mixing", 3, 12_000, "sft3"),
    ("mixing", 4, 6_000, "sft2"), ("mixing", 6, 4_000, "sft2"),
    ("exact", 6, 3_000, "sft3"), ("exact", 4, 8_000, "sft2"),
    ("exact", 3, 16_000, "cofinite"), ("exact", 2, 32_000, "sft2"),
]
# directional-power certificates: (l, n, kind)
CERT_DIRECTIONAL = [
    (2, 1, "sft2"), (3, 1, "sft3"), (4, 1, "sft2"), (2, 2, "cofinite"), (3, 2, "sft2"), (2, 1, "thick"),
    (3, 1, "cofinite"), (4, 1, "sft3"), (2, 2, "sft2"), (3, 2, "sft3"), (2, 1, "cofinite"), (2, 2, "thick"),
]
# small exact certificates whose last constrained prefix symbol is flipped before verify: (l, kind)
CERT_TAMPERED = [(2, "sft2"), (3, "sft3"), (4, "sft2"), (6, "cofinite"), (2, "sft3"),
                 (3, "sft2"), (4, "sft3"), (2, "cofinite"), (6, "sft2"), (3, "cofinite")]
GAP_HORIZON = 100_000


def _cert_pool(rng):
    """Seeded base spaces by kind: finite-type over 2 or 3 symbols, cofinite and thick gap sets."""
    pool = {"sft2": [], "sft3": []}
    for kind, a in (("sft2", 2), ("sft3", 3)):
        while len(pool[kind]) < 12:
            words = ["".join(rng.choice(R.DIGITS[:a]) for _ in range(rng.choice((2, 3))))
                     for _ in range(rng.randint(1, 3))]
            ref = R.RefSft(a, words)
            if ref.windows and ref.memory >= 2 and R.properties(ref)["extensible"]:
                pool[kind].append(ref)
    pool["cofinite"] = [R.RefGap("cofinite", rng.sample(range(1, 4), rng.randint(1, 2)), GAP_HORIZON)
                        for _ in range(6)]
    step = rng.choice((40, 50, 60))
    pool["thick"] = [R.RefGap("thick", list(range(step, GAP_HORIZON + 1, step)), GAP_HORIZON)]
    return pool


def _least_prime_above(n, avoid):
    p = n + 1
    while any(p % d == 0 for d in range(2, int(p**0.5) + 1)) or any(p % a == 0 for a in avoid):
        p += 1
    return p


def _primes_of(l):
    return [p for p in range(2, l + 1) if l % p == 0 and all(p % d for d in range(2, p))]


def _pick(rng, pool, want):
    return rng.choice([r for r in pool if want(r, R.properties(r))])


def _small_threshold(ref, l, limit):
    """Whether the mixing threshold keeps l**threshold within the limit."""
    thr = R.mixing_threshold(ref)
    return thr is not None and l**thr <= limit


def _sized(rng, ref, l, target, multiplier_of, lengths=((1, 3), (1, 3))):
    """Random blocks u, v and the parameters whose prefix |v| * multiplier is nearest the target."""
    best = None
    for _ in range(80):
        u = R.random_block(ref, rng, l, rng.randint(*lengths[0]))
        v = R.random_block(ref, rng, l, rng.randint(*lengths[1]))
        for params in multiplier_of(u, v):
            m = params[0]
            if m is None:
                continue
            size = m * len(v)
            score = abs(size / target - 1)
            if best is None or score < best[0]:
                best = (score, u, v, params)
        if best and best[0] < 0.03:
            break
    return best


def certify_inputs(seed):
    rng = random.Random(seed)
    pool = _cert_pool(rng)
    specs, ops = [], []

    def spec_index(ref):
        d = ref.to_dict()
        if d not in specs:
            specs.append(d)
        return specs.index(d)

    def add(name, ref, l, mode, u, v, args, base, tamper=None):
        ops.append({"name": name, "spec": spec_index(ref), "l": l, "mode": mode, "u": "block:" + u,
                    "v": "block:" + v, "args": args, "base": base, "tamper": tamper})

    for i, (mode, l, target, kind) in enumerate(CERT_LARGE):
        if mode == "transitive":
            ref = _pick(rng, pool[kind], lambda r, p: p["extensible"])

            def params(u, v, l=l):
                xi = len(u) if len(u) % l else len(u) - 1
                alpha = _least_prime_above(xi, _primes_of(l))
                return [(len(u) * alpha * l**k, k) for k in range(1, 24)]

            _, u, v, (m, k) = _sized(rng, ref, l, target, params, ((1, 4), (1, 3)))
            add(f"transitive {i}", ref, l, mode, u, v, ["--k", str(k)], l)
        elif mode == "mixing":
            ref = _pick(rng, pool[kind], lambda r, p, l=l, t=target: p["mixing"] and _small_threshold(r, l, t // 2))
            thr = R.mixing_threshold(ref)

            def params(u, v, l=l, thr=thr, target=target):
                out = []
                for k in (thr, thr + 1):
                    alpha = max(1, round(target / (len(u) * len(v) * l**k)))
                    alpha += alpha % l == 0
                    out.append((len(u) * alpha * l**k, alpha, k))
                return out

            _, u, v, (m, alpha, k) = _sized(rng, ref, l, target, params)
            add(f"mixing {i}", ref, l, mode, u, v, ["--alpha", str(alpha), "--k", str(k)], l)
        else:
            ref = _pick(rng, pool[kind], lambda r, p: p["extensible"])
            _, u, v, (m, alpha, k) = _sized(rng, ref, l, target,
                                            lambda u, v, l=l, ref=ref: [_exact_params(ref, l, u, v, target)])
            add(f"exact {i}", ref, l, mode, u, v, ["--alpha", str(alpha), "--k", str(k)], l)
    for i, (l, n, kind) in enumerate(CERT_DIRECTIONAL):
        # the cover's offset grows with the threshold; thick gap sets connect at small offsets
        ref = _pick(rng, pool[kind], lambda r, p, l=l: p["weakly_mixing"] and (
            kind == "thick" or _small_threshold(r, l, 64)))
        u = R.random_block(ref, rng, l, rng.randint(1, 2))
        v = R.random_block(ref, rng, l, rng.randint(1, 2))
        add(f"directional {i}", ref, l, "directional-power", u, v, ["--power", str(n), "--alpha-bound", "9"], l**n)
    for i, (l, kind) in enumerate(CERT_TAMPERED):
        ref = _pick(rng, pool[kind], lambda r, p: p["extensible"])
        _, u, v, (m, alpha, k) = _sized(rng, ref, l, 600, lambda u, v, l=l, ref=ref: [_exact_params(ref, l, u, v, 600)])
        add(f"tampered {i}", ref, l, "exact", u, v, ["--alpha", str(alpha), "--k", str(k)], l, tamper="flip")
    # the known verifier faults, on fixed inputs
    golden = R.RefSft(2, ["11"])
    add("F1 cover ignored", golden, 2, "directional-power", "01", "10", ["--power", "1", "--alpha-bound", "9"], 2,
        tamper="cover")
    add("F2 alpha/k unchecked", golden, 2, "exact", "00", "1", ["--alpha", "3", "--k", "2"], 2, tamper="alpha_k")
    add("F3 constraints not a list", golden, 2, "exact", "00", "1", ["--alpha", "3", "--k", "2"], 2,
        tamper="constraints")
    return {"specs": specs, "ops": ops}


def _exact_params(ref, l, u, v, target):
    """(multiplier, alpha, k) near the target size at which u and v connect, by the reference."""
    uu, vv = R.parse_literal("block:" + u, l), R.parse_literal("block:" + v, l)
    k = 1
    alpha = max(1, round(target / (len(u) * len(v) * l**k)))
    for a in range(alpha, alpha + 60):
        if a % l and R.pair_feasible(ref, l, uu, vv, len(u) * a * l**k):
            return len(u) * a * l**k, a, k
    return None, None, None


def _cli(argv):
    from multishift import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _tamper(text, how):
    data = json.loads(text)
    cert = data["certificate"]
    certs = cert if isinstance(cert, list) else [cert]
    for c in certs:
        if how == "flip":
            rep, cons = c["constraints"][-1]
            depth, sym = cons[-1]
            pos = rep * data["l"] ** (depth - 1)
            alphabet = data["spec"].get("alphabet", 2)
            c["prefix"] = c["prefix"][: pos - 1] + str((sym + 1) % alphabet) + c["prefix"][pos:]
        elif how == "cover":
            c["cover"]["common_offset"] = 999
            c["cover"]["pairs"] = [[p[0], "x", p[2], p[3], p[4], "y"] for p in c["cover"]["pairs"]]
        elif how == "alpha_k":
            c.pop("directional_base")
            c["alpha"], c["k"] = 999, 77
        elif how == "constraints":
            c["constraints"] = 5
    return json.dumps(data)


def certify_prepare(inputs, run_dir):
    from multishift import shift_core

    paths = []
    for i, d in enumerate(inputs["specs"]):
        path = os.path.join(run_dir, f"spec-{i}.json")
        with open(path, "w") as fh:
            json.dump(d, fh)
        paths.append(path)
    cert_path = os.path.join(run_dir, "cert.json")
    ops = []
    for item in inputs["ops"]:
        argv = ["witness", "--spec", paths[item["spec"]], "--l", str(item["l"]), "--u", item["u"],
                "--v", item["v"], "--mode", item["mode"], *item["args"]]
        spec = shift_core.spec_from_dict(inputs["specs"][item["spec"]])

        def run(argv=argv, item=item):
            t0 = time.perf_counter()
            code, out, err = _cli(argv)
            with open(cert_path, "w") as fh:
                fh.write(out)
            spent = time.perf_counter() - t0
            if code != 0:
                return out, f"witness exited {code}: {err.strip()[-200:]}", spent
            if item["tamper"]:
                with open(cert_path, "w") as fh:
                    fh.write(_tamper(out, item["tamper"]))
            t0 = time.perf_counter()
            try:
                vcode, vout, verr = _cli(["verify", "--cert", cert_path])
            except Exception as exc:  # a traceback out of the CLI is the failure being counted
                return out, f"verify raised {type(exc).__name__}: {exc}", spent + time.perf_counter() - t0
            spent += time.perf_counter() - t0
            if item["tamper"]:
                if vcode not in (1, 2) or not (vout.strip() or verr.strip()):
                    return out, f"tampered certificate ({item['tamper']}) accepted: exit {vcode}", spent
            elif vcode != 0 or not json.loads(vout)["verified"]:
                return out, f"genuine certificate rejected: exit {vcode} {vout.strip()[:200]}", spent
            return out, None, spent

        ops.append(Op(item["name"], run, spec))
    return ops


def certify_check(inputs, outputs):
    errors = []
    for item, (name, text) in zip(inputs["ops"], outputs):
        if item["tamper"] or text is None:
            continue
        data = json.loads(text)
        ref = R.from_dict(inputs["specs"][item["spec"]])
        l = item["l"]
        if data["l"] != l or data["spec"] != ref.to_dict():
            errors.append(f"{name}: output names another spec or base")
            continue
        certs = data["certificate"] if isinstance(data["certificate"], list) else [data["certificate"]]
        args = dict(zip(item["args"][::2], item["args"][1::2]))
        if item["mode"] == "directional-power":
            q = item["base"]
            if sorted(c["alpha"] for c in certs) != _alphas(q, int(args["--alpha-bound"])):
                errors.append(f"{name}: certificates do not cover every alpha")
            if len({c["k"] for c in certs}) != 1:
                errors.append(f"{name}: depth step is not uniform in alpha")
        elif item["mode"] == "transitive":
            if certs[0]["k"] != int(args["--k"]):
                errors.append(f"{name}: certificate for another k")
        elif (certs[0]["alpha"], certs[0]["k"]) != (int(args["--alpha"]), int(args["--k"])):
            errors.append(f"{name}: certificate for another (alpha, k)")
        for c in certs:
            why = R.check_certificate(ref, l, c, item["u"], item["v"], base=item["base"])
            if why:
                errors.append(f"{name} alpha={c['alpha']}: {why}")
    return errors


PREPARE = {"campaign": campaign_prepare, "probe-deep": probe_prepare, "certify": certify_prepare}
INPUTS = {"campaign": campaign_inputs, "probe-deep": probe_inputs, "certify": certify_inputs}
CHECK = {"campaign": campaign_check, "probe-deep": probe_check, "certify": certify_check}
