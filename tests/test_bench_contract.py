"""The benchmark's view of the program: every function it traces must exist,
a plain seed-1 round of each workload runs clean and gives its pinned output,
and the seed-1 campaign checks each connector cover once and builds and
checks each distinct certificate claim once per row.

``bench/tracer.py`` wraps the functions listed in its ``TARGETS`` when a
traced round starts; a renamed or deleted one would kill that round
outside any op.  Here each (module, attribute path) is resolved without
installing the tracer, so such a rename fails the test suite instead.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, path", _targets())
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(f"multishift.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# sha256 of every op's output in a seed-1 round; a change that alters an answer updates these
# and lists the outputs it changed
SEED_1_DIGESTS = {
    "campaign": "366db98dce27b870e0ae9b71e08c6ab34647d224983fd95140459316f37011d2",
    "probe-deep": "d1b8128c4a882c2deba9b5931c752eea3d6ea410453a00f97155f68e93ddc1e0",
    "certify": "d55a7acc61cb66e217c09f1ea888d7e7554bb872894d3a1923b9d75e7e2d6c89",
}


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_seed_1_round_runs_clean(tmp_path, monkeypatch, workload):
    # one plain round through bench/round.py, in a fresh interpreter and environment as
    # bench/run.py spawns it, with the reference check that reads every output
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    (tmp_path / "inputs.json").write_text(json.dumps(workloads.INPUTS[workload](1)))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("MULTISHIFT_BUDGET", None)
    cmd = [sys.executable, str(ROOT / "bench" / "round.py"), "--root", str(ROOT), "--run-dir", str(tmp_path),
           "--workload", workload, "--check", "1"]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads((tmp_path / "round.json").read_text())
    assert (report["failures"], report["check_errors"]) == ([], [])
    assert report["digest"] == SEED_1_DIGESTS[workload]


def _seed_1_campaign_checks(monkeypatch):
    """The seed-1 bench campaign's prefix-check and cover-check arguments, its certificate count, and the
    certificates built with a prefix, each with its row's number."""
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    from multishift import oracle, shift_core, verify, witness

    prefixes, covers, builds = [], [], []
    prefix_fault, cover_fault, build = verify.prefix_fault, verify._cover_fault, witness.try_certificate
    monkeypatch.setattr(verify, "prefix_fault", lambda *args: prefixes.append(args) or prefix_fault(*args))
    monkeypatch.setattr(verify, "_cover_fault", lambda *args: covers.append(args) or cover_fault(*args))

    def counted(*args, **kwargs):
        builds.append((row, build(*args, **kwargs)))
        return builds[-1][1]

    monkeypatch.setattr(witness, "try_certificate", counted)
    inputs = workloads.campaign_inputs(1)
    certificates = row = 0
    for d in inputs["specs"]:
        for l in inputs["l_values"]:
            row += 1
            report = oracle.campaign([shift_core.sft(d["alphabet"], d["forbidden"])], [l], oracle.SearchBudget())
            certificates += report.certificates_checked
    return prefixes, covers, certificates, builds


def test_seed_1_campaign_checks_each_cover_once(monkeypatch):
    # each directional claim carries one cover: the verifier checks each of the 208 distinct covers once
    _, checks, _, _ = _seed_1_campaign_checks(monkeypatch)
    covers = {(omega, l, c.u_literal, c.v_literal, c.directional_base, c.k, c.cover) for omega, l, _, _, c, _ in checks}
    assert len(checks) == len(covers) == 208


def test_seed_1_campaign_checks_each_claim_once_per_row(monkeypatch):
    # each (u, v, n) directional claim and each mixing pair is one certificate with no prefix, so only
    # the transitive certificates carry prefixes: 518 certificates, of which 212 are built with a
    # prefix, once per distinct (u, v, multiplier) claim of a row, and prefix-checked once each
    prefixes, covers, certificates, builds = _seed_1_campaign_checks(monkeypatch)
    claims = {(row, c.u_literal, c.v_literal, c.multiplier) for row, c in builds}
    assert (len(prefixes), certificates, len(covers)) == (212, 518, 208)
    assert len(builds) == len(claims) == len(prefixes)
