"""Command-line front end.

Subcommands: props, blocks, admissible, witness, verify, probe, campaign,
dim, graph, decompose, offset-bound.  Specs are JSON files; patterns use
the literal forms "block:1100" and "l=2;support=1,2,4;values=1,1,0".
Exit codes: 0 success, 1 property or verification failure, 2 usage error,
an output past its cap or a gap-set position past its horizon.  A campaign
row cut short by one of the last two is kept, with an "error" field, and
the campaign exits 2 unless a hard contradiction or a certificate failure
makes it exit 1.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import dimension, mult_shift, oracle, shift_core, verify, witness as witness_mod
from .errors import (
    CertificateFailed,
    HorizonExceeded,
    MultishiftError,
    OutputGuardExceeded,
    SpecError,
    UndecidableProperty,
)
from .lambda_arith import a_set, decompose, offset_bound
from .shift_core import PROPERTIES, sft, spec_from_dict, spec_to_dict


# the 40-digit partial sum stops changing after about 140 terms; 1000 terms take under 0.1 s
DIM_TERMS_CAP = 1000


def _load_json(path: str):
    """The JSON value in a file; an unreadable file or malformed JSON raises SpecError naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # a number past the interpreter's digit limit for int conversion
        raise SpecError(f"{path}: {exc}") from exc


def parse_spec(path: str):
    """Load and normalize a shift-spec file, warning when normalization changed it."""
    data = _load_json(path)
    spec = spec_from_dict(data)
    if data.get("kind") == "sft":
        given = [str(w) for w in data.get("forbidden", [])]
        if sorted(set(given)) != sorted(spec.forbidden):
            print(
                f"warning: forbidden set normalized from {sorted(set(given))} to {list(spec.forbidden)}",
                file=sys.stderr,
            )
    return spec


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, default=str))


def _pattern(arg: str, spec, l: int):
    return mult_shift.parse_pattern(arg, spec, base=l)


def cmd_props(args) -> int:
    spec = parse_spec(args.spec)
    out = {}
    undecidable = []
    for prop in PROPERTIES:
        try:
            out[prop] = shift_core.decide(spec, prop).value
        except UndecidableProperty:
            out[prop] = None
            undecidable.append(prop)
    if undecidable:
        out["undecidable"] = undecidable
    if args.evidence:
        out["evidence"] = {
            prop: shift_core.decide(spec, prop).evidence for prop in PROPERTIES if out.get(prop) is not None
        }
    _emit(out)
    return 0


def cmd_blocks(args) -> int:
    spec = parse_spec(args.spec)
    if args.l is None:
        words = sorted(shift_core.blocks(spec, args.n))
    else:
        words = sorted(mult_shift.enumerate_blocks(spec, args.l, args.n))
    _emit({"n": args.n, "count": len(words), "blocks": words})
    return 0


def cmd_admissible(args) -> int:
    spec = parse_spec(args.spec)
    pattern = _pattern(args.pattern, spec, args.l)
    bad = mult_shift.inadmissible_classes(pattern)
    _emit({"admissible": not bad, "violating_chains": bad})
    return 0 if not bad else 1


def cmd_witness(args) -> int:
    spec = parse_spec(args.spec)
    u = _pattern(args.u, spec, args.l)
    v = _pattern(args.v, spec, args.l)
    if args.mode == "transitive":
        cert = witness_mod.witness_transitive(spec, args.l, u, v, k=args.k)
        certs = [cert]
    elif args.mode == "directional-coprime":
        if args.modulus is None:
            raise SpecError("--modulus is required for directional-coprime")
        if args.alpha_bound < 1:
            raise ValueError("alpha_bound must be >= 1")
        k, build = witness_mod.witness_directional_coprime(spec, args.l, args.modulus, u, v)
        alphas = a_set(args.modulus, args.alpha_bound)
        witness_mod.check_prefix_total(u, v, (u.length * a * args.modulus**k for a in alphas))
        certs = [build(a) for a in alphas]
    elif args.mode == "directional-power":
        dw = witness_mod.witness_directional_power(spec, args.l, args.power, u, v, args.alpha_bound)
        certs = list(dw.certificates)
    elif args.mode == "mixing":
        mw = witness_mod.witness_mixing(spec, args.l, u, v)
        if args.alpha is None or args.k is None:
            _emit({"threshold": mw.threshold})
            return 0
        certs = [mw.build(args.alpha, args.k)]
    else:  # exact oracle search at a pinned (alpha, k)
        alpha = 1 if args.alpha is None else args.alpha
        cert = oracle.exists_witness_exact(spec, args.l, u, v, alpha, args.k)
        if cert is None:
            _emit({"witness": None})
            return 1
        certs = [cert]
    # the builders check nothing: every certificate passes the verifier before any prints
    failed = [reason for ok, reason in verify.verify_certificates(spec, args.l, certs) if not ok]
    if failed:
        raise CertificateFailed(failed[0])
    payload = [witness_mod.certificate_to_dict(c) for c in certs]
    payload = payload[0] if len(payload) == 1 else payload
    _emit({"spec": spec_to_dict(spec), "l": args.l, "certificate": payload})
    return 0


def cmd_verify(args) -> int:
    data = _load_json(args.cert)
    missing = [name for name in ("spec", "l", "certificate") if not isinstance(data, dict) or name not in data]
    if missing:
        raise SpecError(f"{args.cert}: certificate file is missing {missing}")
    spec = spec_from_dict(data["spec"])
    l = data["l"]
    if not isinstance(l, int) or isinstance(l, bool) or l < 2:
        raise SpecError(f"{args.cert}: chain base 'l' must be an integer >= 2, got {l!r}")
    raw = data["certificate"]
    raw_list = raw if isinstance(raw, list) else [raw]
    if not raw_list:
        raise SpecError(f"{args.cert}: the certificate list is empty")
    certs = [witness_mod.certificate_from_dict(item) for item in raw_list]
    answers = verify.verify_certificates(spec, l, certs)
    ok_all = all(ok for ok, _ in answers)
    # a claim over every multiplier past a bound names its construction in place of one multiplier
    named = [
        {"multiplier": c.multiplier} if isinstance(c, witness_mod.WitnessCertificate) else {"claim": c.construction}
        for c in certs
    ]
    results = [{"ok": ok, "reason": reason, **name} for name, (ok, reason) in zip(named, answers)]
    _emit({"verified": ok_all, "results": results})
    return 0 if ok_all else 1


def cmd_probe(args) -> int:
    spec = parse_spec(args.spec)
    budget = oracle.budget_from_env()
    if args.mode == "transitive":
        verdict = oracle.probe_transitive_X(spec, args.l, budget)
        _emit(
            {
                "status": verdict.status,
                "pairs_checked": verdict.pairs_checked,
                "witnessed": verdict.witnessed,
                "failing": [list(p) for p in verdict.failing[:10]],
                "inconclusive": verdict.status == "inconclusive_negative",
                "budget": vars(budget),
            }
        )
        return 0
    missing = [f"--{name}" for name in ("u", "v", "q") if getattr(args, name) is None]
    if missing:
        raise SpecError(f"--mode directional needs {', '.join(missing)}")
    u = _pattern(args.u, spec, args.l)
    v = _pattern(args.v, spec, args.l)
    verdict = oracle.probe_directional_q(spec, args.l, args.q, u, v, budget)
    _emit(
        {
            "status": verdict.status,
            "q": verdict.q,
            "k": verdict.k,
            "per_k_failures": [list(p) for p in verdict.per_k_failures],
            "proof": verdict.proof,
            "inconclusive": verdict.status == "inconclusive_negative",
            "budget": vars(budget),
        }
    )
    return 0


def cmd_campaign(args) -> int:
    if args.spec:
        family = [parse_spec(p) for p in args.spec]
    else:
        family = oracle.binary_sft_family(max_word_len=2)
        if args.random:
            family += oracle.random_sft_family(args.random, seed=args.seed)
    l_values = [int(x) for x in args.l.split(",") if x]
    budget = oracle.budget_from_env()
    report = oracle.campaign(family, l_values, budget, jobs=args.jobs)
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(report.to_jsonl())
    else:
        sys.stdout.write(report.to_jsonl())
    sys.stdout.write(report.render_table())
    errors = report.errors
    if errors:
        print(f"error: {len(errors)} of {len(report.rows)} rows cut short; first: {errors[0].error}", file=sys.stderr)
    print(f"elapsed: {report.elapsed:.1f}s", file=sys.stderr)
    if report.hard_contradictions or report.certificate_failures:
        return 1
    return 2 if errors else 0


def cmd_dim(args) -> int:
    if args.terms > DIM_TERMS_CAP:
        raise ValueError(f"--terms {args.terms} exceeds the cap {DIM_TERMS_CAP}")
    result = dimension.dimB_goldenmean(args.terms)
    _emit(
        {
            "value": str(result.partial_sum),
            "terms": result.terms_used,
            "tail_bound": str(result.tail_bound),
        }
    )
    return 0


def cmd_graph(args) -> int:
    spec = parse_spec(args.spec)
    if not isinstance(spec, shift_core.SftSpec):
        raise SpecError("graph export only applies to finite-type specs")
    sys.stdout.write(shift_core.graph_dot(spec))
    return 0


def cmd_decompose(args) -> int:
    d = decompose(args.n, args.l)
    _emit({"alpha": d.alpha, "k": d.k, "base": d.base})
    return 0


def cmd_offset_bound(args) -> int:
    b = offset_bound(args.l, args.n)
    _emit({"M": b.M, "base": b.base, "N": b.N})
    return 0


@functools.cache  # parsing does not change the parser, so one build serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multishift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("props", help="decide the mixing hierarchy of a base space")
    p.add_argument("--spec", required=True)
    p.add_argument("--evidence", action="store_true")
    p.set_defaults(fn=cmd_props)

    p = sub.add_parser("blocks", help="admissible words (base space) or blocks (with --l)")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int)
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("admissible", help="check a pattern against the subshift")
    p.add_argument("--spec", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("witness", help="build a connection certificate")
    p.add_argument("--spec", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument(
        "--mode",
        choices=["transitive", "directional-coprime", "directional-power", "mixing", "exact"],
        default="transitive",
    )
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--alpha", type=int)
    p.add_argument("--modulus", type=int)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--alpha-bound", type=int, default=9)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="re-check a certificate file with the exact oracle")
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("probe", help="budgeted connection probes")
    p.add_argument("--spec", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--mode", choices=["transitive", "directional"], default="transitive")
    p.add_argument("--q", type=int)
    p.add_argument("--u")
    p.add_argument("--v")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("campaign", help="exhaustive cross-validation campaign")
    p.add_argument("--spec", nargs="*", help="spec files; default is the exhaustive binary family")
    p.add_argument("--l", default="2,3")
    p.add_argument("--random", type=int, default=0, help="add seeded random specs")
    p.add_argument("--seed", type=int, default=20191030)
    p.add_argument("--jsonl", help="write rows as JSON lines to this file")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("dim", help="box-dimension series of the multiplicative golden mean shift")
    p.add_argument("--terms", type=int, default=60)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("graph", help="DOT export of the window graph")
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("decompose", help="base-free decomposition n = alpha * l**k")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("offset-bound", help="product offset bound for a base and range")
    p.add_argument("l", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_offset_bound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, OutputGuardExceeded, HorizonExceeded, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MultishiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
