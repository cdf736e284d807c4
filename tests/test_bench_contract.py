"""The benchmark's view of the program: every function it traces must exist,
a plain seed-1 round of each workload runs clean and gives its pinned output,
and the seed-1 campaign checks each connector cover once and each distinct
certificate claim once per row.

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
    "campaign": "17057e5a4dc9da38570b380f7b56de507dcf707048aa24b2397db7e70d48e7ad",
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
    """The seed-1 bench campaign's prefix-check and cover-check arguments, and its certificate count."""
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    from multishift import oracle, shift_core

    prefixes, covers = [], []
    prefix_fault, cover_fault = oracle.prefix_fault, oracle._cover_fault
    monkeypatch.setattr(oracle, "prefix_fault", lambda *args: prefixes.append(args) or prefix_fault(*args))
    monkeypatch.setattr(oracle, "_cover_fault", lambda *args: covers.append(args) or cover_fault(*args))
    inputs = workloads.campaign_inputs(1)
    certificates = 0
    for d in inputs["specs"]:
        for l in inputs["l_values"]:
            report = oracle.campaign([shift_core.sft(d["alphabet"], d["forbidden"])], [l], oracle.SearchBudget())
            certificates += report.certificates_checked
    return prefixes, covers, certificates


def test_seed_1_campaign_checks_each_cover_once(monkeypatch):
    # every certificate of one directional witness carries the same cover: 1,352 covered
    # certificates in this round, and the verifier checks each of the 208 distinct covers once
    _, checks, _ = _seed_1_campaign_checks(monkeypatch)
    covers = {(omega, l, c.u_literal, c.v_literal, c.directional_base, c.k, c.cover) for omega, l, _, _, c in checks}
    assert len(checks) == len(covers) == 208


def test_seed_1_campaign_checks_each_claim_once_per_row(monkeypatch):
    # the q = l and q = l**2 lists, the mixing picks and the transitive certificates of a row land
    # on the same multipliers: 1,858 certificates hold 1,465 distinct (u, v, multiplier) claims per
    # row, and each is prefix-checked once
    prefixes, covers, certificates = _seed_1_campaign_checks(monkeypatch)
    assert (len(prefixes), certificates, len(covers)) == (1465, 1858, 208)
