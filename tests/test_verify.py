"""The verifier decides every base-space fact itself: it names none of the search's tables, and
answers the same when every entry the search stored in them is wrong."""

import ast
import dataclasses
import pathlib

from multishift import oracle, shift_core, verify
from multishift.lambda_arith import decompose
from multishift.oracle import SearchBudget
from multishift.shift_core import sft
from multishift.witness import DirectionalAllAlpha, WitnessCertificate

# the search's memos and builders, which the verifier must not read
SEARCH_NAMES = {
    "offset_table", "offset_tables", "_OffsetTable", "_static_orbit", "_walk_back",
    "_PairProbe", "_PairGrid", "least_word", "least_block", "word_admissible",
}


def test_the_verifier_names_none_of_the_search_memos():
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            assert node.name != "*"  # a star import would hide what the module reads
            named.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):  # getattr(module, "name")
            named.add(node.value)
    assert named & SEARCH_NAMES == set()
    assert {"partial_extendable", "chain_words", "multiplier_constraints"} <= named  # the walk reads the module


def _forgeries(spec, l, certs):
    """Certificates that may fail on a base-space fact: a prefix with one unpinned symbol set to 1 that
    makes a chain word inadmissible, pad words of ones, and a claim one depth step short."""
    fits = verify._fits(spec)
    out = []
    for cert in certs:
        if isinstance(cert, WitnessCertificate):
            pinned = {rep * l ** (d - 1) for rep, cons in cert.constraints for d, _ in cons}
            for pos in sorted(set(range(1, len(cert.prefix) + 1)) - pinned):
                prefix = cert.prefix[: pos - 1] + "1" + cert.prefix[pos:]
                if verify.prefix_fault(spec, l, cert.constraints, prefix, fits):
                    out.append(dataclasses.replace(cert, prefix=prefix))
                    break
        elif isinstance(cert, DirectionalAllAlpha) and cert.k > 0:
            n = decompose(cert.directional_base, l).k
            cover = dataclasses.replace(cert.cover, common_offset=cert.cover.common_offset - n)
            out.append(cert._replace(k=cert.k - 1, cover=cover))
            pairs = tuple(p[:4] + ("1" * p[2], p[5]) for p in cert.cover.pairs)
            out.append(cert._replace(cover=dataclasses.replace(cert.cover, pairs=pairs)))
    return out


def test_the_verifier_answers_the_same_over_poisoned_offset_tables(monkeypatch):
    # a campaign row fills the spec's offset tables; every entry and pre-image stored there is then
    # negated, and the row's certificates and their forgeries must get the answers they got before
    spec, l = sft(2, ["11"]), 2
    shift_core._ctx.cache_clear()
    try:
        calls, verify_all = [], oracle.verify_certificates
        monkeypatch.setattr(oracle, "verify_certificates", lambda *args: calls.append(args[2]) or verify_all(*args))
        row = oracle._campaign_row(spec, l, SearchBudget())
        certs = list(calls[0])
        certs += _forgeries(spec, l, certs)
        before = verify.verify_certificates(spec, l, certs)
        assert row.certificates_checked == 24 and before[:24] == [(True, "ok")] * 24
        rejected = [reason for ok, reason in before[24:] if not ok]
        assert len(rejected) >= 10 and {reason.split(" ")[0] for reason in rejected} == {"prefix", "cover:"}
        ctx = shift_core._ctx(spec)
        tables = list(ctx.offsets.values())
        assert sum(len(table) for table in tables) > 100 and any(table.fits for table in tables)
        for table in tables:
            for offset in list(table):
                table[offset] = not table[offset]
            if table.fits is not None:
                table.fits ^= ctx.graph.full
        assert verify.verify_certificates(spec, l, certs) == before
    finally:
        shift_core._ctx.cache_clear()  # no poisoned table outlives the test
