import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from multishift import witness
from multishift.cli import main, parse_spec
from multishift.shift_core import sft, spacing


@pytest.fixture
def golden_spec(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": 2, "forbidden": ["11"]}))
    return str(path)


@pytest.fixture
def ramp_spec(tmp_path):
    path = tmp_path / "f01.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": 2, "forbidden": ["01"]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_props(capsys, golden_spec):
    code, out, _ = run(capsys, "props", "--spec", golden_spec)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "extensible": True,
        "transitive": True,
        "totally_transitive": True,
        "weakly_mixing": True,
        "mixing": True,
    }


def test_props_undecidable_fields(capsys, tmp_path):
    path = tmp_path / "general.json"
    path.write_text(json.dumps({"kind": "spacing", "class": "general", "complement": [5]}))
    code, out, _ = run(capsys, "props", "--spec", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["extensible"] is True
    assert data["mixing"] is None
    assert set(data["undecidable"]) == {"totally_transitive", "weakly_mixing", "mixing"}


def test_props_deterministic(capsys, golden_spec):
    _, first, _ = run(capsys, "props", "--spec", golden_spec)
    _, second, _ = run(capsys, "props", "--spec", golden_spec)
    assert first == second


def test_blocks_base_and_subshift(capsys, golden_spec):
    code, out, _ = run(capsys, "blocks", "--spec", golden_spec, "--n", "2")
    assert code == 0 and json.loads(out)["blocks"] == ["00", "01", "10"]
    code, out, _ = run(capsys, "blocks", "--spec", golden_spec, "--n", "4", "--l", "2")
    assert code == 0 and json.loads(out)["count"] == 10


def test_admissible(capsys, golden_spec):
    code, out, _ = run(capsys, "admissible", "--spec", golden_spec, "--l", "2", "--pattern", "block:11")
    assert code == 1
    assert json.loads(out)["violating_chains"] == [1]
    code, out, _ = run(
        capsys, "admissible", "--spec", golden_spec, "--l", "2", "--pattern", "l=2;support=1,3;values=1,1"
    )
    assert code == 0


def test_witness_and_verify_roundtrip(capsys, ramp_spec, tmp_path):
    code, out, _ = run(
        capsys, "witness", "--spec", ramp_spec, "--l", "2",
        "--u", "block:00", "--v", "block:1", "--mode", "transitive", "--k", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["alpha"] == 3
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_rejects_tampering(capsys, ramp_spec, tmp_path):
    code, out, _ = run(
        capsys, "witness", "--spec", ramp_spec, "--l", "2",
        "--u", "block:00", "--v", "block:1", "--mode", "transitive",
    )
    payload = json.loads(out)
    payload["certificate"]["prefix"] = "0" * len(payload["certificate"]["prefix"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "--cert", str(bad))
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_witness_mixing_threshold_only(capsys, golden_spec):
    code, out, _ = run(
        capsys, "witness", "--spec", golden_spec, "--l", "2",
        "--u", "block:0", "--v", "block:1", "--mode", "mixing",
    )
    assert code == 0
    assert json.loads(out)["threshold"] <= 2


def test_witness_exact_negative_at_depth(capsys, tmp_path):
    path = tmp_path / "alt.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": 2, "forbidden": ["00", "11"]}))
    code, out, _ = run(
        capsys, "witness", "--spec", str(path), "--l", "2",
        "--u", "block:0110", "--v", "block:1011", "--mode", "exact", "--alpha", "1", "--k", "60",
    )
    assert code == 1
    assert json.loads(out) == {"witness": None}


@pytest.mark.parametrize("alpha", ["0", "-3"])
def test_witness_exact_rejects_a_nonpositive_alpha(capsys, golden_spec, alpha):
    code, out, err = run(
        capsys, "witness", "--spec", golden_spec, "--l", "2",
        "--u", "block:0", "--v", "block:0", "--mode", "exact", "--alpha", alpha, "--k", "1",
    )
    assert (code, out) == (2, "")
    assert f"expected a positive integer, got {alpha}" in err


def test_witness_mixing_rejects_a_negative_k(capsys, tmp_path):
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": 2, "forbidden": []}))
    code, out, err = run(
        capsys, "witness", "--spec", str(path), "--l", "3",
        "--u", "block:0", "--v", "block:1", "--mode", "mixing", "--alpha", "10", "--k", "-1",
    )
    assert (code, out, err) == (2, "", "error: k must be nonnegative\n")


@pytest.mark.parametrize("mode", ["directional-coprime", "directional-power"])
def test_witness_directional_rejects_an_alpha_bound_below_one(capsys, golden_spec, mode):
    # an empty certificate list is one that verify refuses, so neither mode may print one
    code, out, err = run(
        capsys, "witness", "--spec", golden_spec, "--l", "2", "--u", "block:0", "--v", "block:0",
        "--mode", mode, "--modulus", "3", "--power", "1", "--alpha-bound", "0",
    )
    assert (code, out, err) == (2, "", "error: alpha_bound must be >= 1\n")


def test_witness_exact_alpha_defaults_to_one(capsys, golden_spec):
    code, out, _ = run(
        capsys, "witness", "--spec", golden_spec, "--l", "2",
        "--u", "block:0", "--v", "block:0", "--mode", "exact", "--k", "1",
    )
    assert code == 0 and json.loads(out)["certificate"]["alpha"] == 1


def _cli_env():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "multishift", "--help"], capture_output=True, text=True, env=_cli_env())
    assert done.returncode == 0 and done.stdout.startswith("usage: multishift")


def _cap_address_space(limit=1 << 30):
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_witness_exact_prefix_past_the_cap_exits_2(golden_spec):
    # a yes at depth 40 needs a prefix of 2**40 symbols; the child runs under a 1 GiB
    # address-space cap, so building it would end in MemoryError rather than this message
    argv = ["witness", "--spec", golden_spec, "--l", "2", "--u", "block:0", "--v", "block:0",
            "--mode", "exact", "--alpha", "1", "--k", "40"]
    done = subprocess.run(
        [sys.executable, "-m", "multishift", *argv],
        capture_output=True, text=True, env=_cli_env(), preexec_fn=_cap_address_space, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: a prefix of {2**40} symbols exceeds the prefix cap {2**20}\n"


@pytest.mark.parametrize(
    "word, code, stderr",
    [
        ("00000", 0, ""),  # 10**4 windows answer under the cap
        ("000000", 2, f"error: 100000 clean words of length 5 exceed the window cap {2**14}\n"),
    ],
)
def test_props_past_the_window_cap_exits_2(tmp_path, word, code, stderr):
    # the child runs under a 1 GiB address-space cap, so building the graph of 10**5 windows
    # would end in MemoryError rather than this message
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": 10, "forbidden": [word]}))
    done = subprocess.run(
        [sys.executable, "-m", "multishift", "props", "--spec", str(path)],
        capture_output=True, text=True, env=_cli_env(), preexec_fn=_cap_address_space, timeout=120,
    )
    assert (done.returncode, done.stderr) == (code, stderr)
    if code == 0:
        assert all(json.loads(done.stdout).values())


@pytest.mark.parametrize(
    "alphabet, word, limit_mb",
    [
        # 10**4 windows; a successor and a predecessor table per symbol as well peaked at 164 MB
        (10, "00000", 120),
        # 2**14 windows; the pre-pruning masks kept during the build and a fresh int per full
        # row in the primitivity exponent peaked at 154 MB
        (4, "0" * 8, 145),
    ],
)
def test_deciding_every_property_of_a_wide_window_graph_stays_under_its_peak(alphabet, word, limit_mb):
    # one successor and one predecessor mask per window, nothing else of the build kept
    probe = (
        "import resource; from multishift.shift_core import PROPERTIES, decide, sft; "
        f"spec = sft({alphabet}, [{word!r}]); assert all(decide(spec, p).value for p in PROPERTIES); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < limit_mb * 1024, f"peak RSS {int(done.stdout) / 1024:.0f} MB"


def test_import_leaves_the_process_pool_unloaded():
    # campaign(jobs > 1) imports concurrent.futures itself; the jobs=2 tests cover that path
    probe = "import sys, multishift, multishift.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_cli_env())
    assert (done.returncode, done.stdout) == (0, "False\n")


@pytest.mark.parametrize("mode", ["transitive", "exact", "mixing"])
def test_witness_deep_k_hits_the_prefix_cap_first(capsys, golden_spec, mode):
    # the multiplier has about 10**5 bits: the cap is checked before any position is decomposed,
    # and the message names the length by its bit length, which has no decimal conversion limit
    argv = ["witness", "--spec", golden_spec, "--l", "2", "--u", "block:0", "--v", "block:0",
            "--mode", mode, "--k", "100000"]
    code, out, err = run(capsys, *argv, *([] if mode == "transitive" else ["--alpha", "1"]))
    assert (code, out) == (2, "")
    assert err.startswith("error: a prefix of at least 2**1000") and err.endswith(f"the prefix cap {2**20}\n")


def test_blocks_past_the_enumeration_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": 2, "forbidden": []}))
    code, out, err = run(capsys, "blocks", "--spec", str(path), "--n", "30", "--l", "2")
    assert (code, out) == (2, "")
    assert err == f"error: {2**30} blocks exceed the enumeration cap {2**20}\n"


_EXTREME_SPECS = {
    "golden": {"kind": "sft", "alphabet": 2, "forbidden": ["11"]},
    "full2": {"kind": "sft", "alphabet": 2, "forbidden": []},
    "full10": {"kind": "sft", "alphabet": 10, "forbidden": []},
    "dense": {"kind": "spacing", "class": "cofinite", "complement": list(range(1, 1500))},
    "free": {"kind": "spacing", "class": "cofinite", "complement": []},
    "short": {"kind": "spacing", "class": "cofinite", "complement": [1, 2], "horizon": 5},
    "thick20": {"kind": "spacing", "class": "thick", "complement": [2, 5, 11, 17], "horizon": 20},
}

_PAIR = "--l 2 --u block:0 --v block:0"


def _too_many(count, length, cap):
    return f"error: {count} admissible words of length {length} exceed the enumeration cap {cap}\n"


# (call, address-space cap of its child in MiB or 0 to run in process, exit code, stderr); a
# child under 1 GiB runs a call that would allocate past it if its cap were missing or late
_EXTREME_CALLS = [
    # past 20 symbols a word, the cap is 20 * 2**20 symbols: 2**20 * 20 // 60 = 349525 words at n = 60
    ("blocks --spec golden --n 60", 1024, 2, _too_many(514229, 27, 349525)),
    ("blocks --spec full2 --n 40", 1024, 2, _too_many(2**20, 20, 2**19)),
    # a refusal stores at most cap + 1 of the 10**7 words of length 7: about 160 MB
    ("blocks --spec full10 --n 8", 384, 2, _too_many(10**7, 7, 2**20)),
    ("blocks --spec dense --n 1200", 1024, 0, ""),
    ("blocks --spec dense --n 2100", 1024, 2, _too_many(10015, 1629, 9986)),  # 1-2 ones a word
    ("blocks --spec full2 --n 23 --l 2", 1024, 2, f"error: {2**23} blocks exceed the enumeration cap {2**20}\n"),
    (
        f"witness --spec golden {_PAIR} --mode directional-coprime --modulus 3 --alpha-bound 100000", 1024, 2,
        f"error: 683 prefixes of 1049601 symbols exceed the prefix cap {2**20}\n",
    ),
    (
        f"witness --spec golden {_PAIR} --mode directional-power --alpha-bound 100000", 1024, 2,
        f"error: 1025 prefixes of 1050625 symbols exceed the prefix cap {2**20}\n",
    ),
    ("admissible --spec short --l 2 --pattern l=2;support=1,64;values=1,1", 0, 2,
     "error: position 7 exceeds horizon 5\n"),
    ("campaign --spec thick20", 0, 2,
     "error: 1 of 2 rows cut short; first: HorizonExceeded: position 21 exceeds horizon 20\n"),
    ("offset-bound 6 10000000", 0, 0, ""),
    ("blocks --spec golden --n -1", 0, 2, "error: word length must be >= 1\n"),
    ("offset-bound 2 0", 0, 2, "error: expected n >= 1, got 0\n"),
    ("dim --terms 0", 0, 2, "error: need at least one term\n"),
    ("dim --terms 1000", 0, 0, ""),
    ("dim --terms 100000", 0, 2, "error: --terms 100000 exceeds the cap 1000\n"),
    (f"probe --spec golden {_PAIR} --mode directional --q 0", 0, 2, "error: modulus must be >= 2\n"),
    (f"witness --spec golden {_PAIR} --mode exact --k -1", 0, 2, "error: k must be nonnegative\n"),
    (f"witness --spec golden {_PAIR} --mode directional-power --power 0", 0, 2, "error: power must be >= 1\n"),
]


def _extreme_argv(call, tmp_path):
    argv = call.split()
    for i, arg in enumerate(argv):
        if argv[i - 1] == "--spec":
            argv[i] = str(tmp_path / f"{arg}.json")
            pathlib.Path(argv[i]).write_text(json.dumps(_EXTREME_SPECS[arg]))
    return argv


def _run_capped(argv, timeout=60, mib=1024):
    return subprocess.run(
        [sys.executable, "-m", "multishift", *argv], capture_output=True, text=True, env=_cli_env(),
        preexec_fn=lambda: _cap_address_space(mib << 20), timeout=timeout,
    )


@pytest.mark.parametrize(
    "call, mib, code, stderr", _EXTREME_CALLS,
    ids=[call if mib in (0, 1024) else f"{call} under {mib} MiB" for call, mib, _, _ in _EXTREME_CALLS],
)
def test_extreme_arguments_exit_with_a_message(capsys, tmp_path, call, mib, code, stderr):
    # an extreme argument gets an answer or a message: exit 0, 1 or 2, no traceback, and a
    # message with every exit 2; the calls that would allocate run under an address-space cap
    argv = _extreme_argv(call, tmp_path)
    start = time.monotonic()
    if mib:
        done = _run_capped(argv, mib=mib)
        got_code, err = done.returncode, done.stderr
    else:
        got_code, _, err = run(capsys, *argv)
    elapsed = time.monotonic() - start
    err = "".join(ln for ln in err.splitlines(keepends=True) if not ln.startswith("elapsed: "))  # campaign timing
    assert got_code in (0, 1, 2) and got_code == code, err
    assert not any(word in err for word in ("Traceback", "MemoryError", "RecursionError")), err
    assert err == stderr and (code != 2 or err.startswith("error:"))
    assert code != 0 or elapsed < 5, f"{call} took {elapsed:.1f} s"  # a refusal is bounded by its cap


@pytest.mark.parametrize("spec, n, code", [("full2", 20, 0), ("free", 20, 0), ("free", 21, 2)])
def test_blocks_print_a_list_at_the_enumeration_cap(tmp_path, spec, n, code):
    # 2**20 words of length 20, in both modes, print under a 1 GiB address space; one symbol
    # longer is past the cap, and so are the 2**20 words of length 20 that are 21 * 2**20 symbols
    # one symbol on (the finite-type case is `blocks --spec full2 --n 40` above)
    done = _run_capped(_extreme_argv(f"blocks --spec {spec} --n {n}", tmp_path))
    assert done.returncode == code, done.stderr[-500:]
    if code == 0:
        assert json.loads(done.stdout)["count"] == 2**20
    else:
        assert (done.stdout, done.stderr) == ("", _too_many(2**20, 20, 2**20 * 20 // 21))


def test_parser_is_built_once_and_reused(capsys, golden_spec):
    from multishift.cli import _build_parser

    assert _build_parser() is _build_parser()
    first = run(capsys, "props", "--spec", golden_spec, "--evidence")
    second = run(capsys, "props", "--spec", golden_spec, "--evidence")
    assert first == second and first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["props"])  # --spec missing
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: multishift props") and "--spec" in err


def test_witness_inadmissible_exit_code(capsys, golden_spec):
    code, _, err = run(
        capsys, "witness", "--spec", golden_spec, "--l", "2",
        "--u", "block:11", "--v", "block:0", "--mode", "transitive",
    )
    assert code == 1
    assert "inadmissible" in err


@pytest.mark.parametrize(
    "mode",
    ["transitive", "directional-coprime --modulus 3", "directional-power", "mixing --alpha 1 --k 3", "exact --k 3"],
)
def test_witness_prints_no_certificate_the_verifier_rejects(capsys, golden_spec, flip_one_pin, mode):
    # a builder whose prefix breaks a pin: every mode verifies its certificates before it prints one
    argv = ["witness", "--spec", golden_spec, "--l", "2", "--u", "block:0", "--v", "block:01", "--mode", *mode.split()]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: prefix violates the constraint at position {flip_one_pin[0]}\n"


def test_campaign_fails_on_a_certificate_the_verifier_rejects(capsys, golden_spec, flip_one_pin):
    code, out, _ = run(capsys, "campaign", "--spec", golden_spec, "--l", "2")
    assert code == 1 and '"certificate_failed_verification"' in out


def test_witness_reports_a_prefix_the_builder_cannot_build(capsys, golden_spec, monkeypatch):
    monkeypatch.setattr(witness, "least_block", lambda *args: None)
    code, out, err = run(capsys, "witness", "--spec", golden_spec, "--l", "2", "--u", "block:0", "--v", "block:01")
    assert (code, out) == (1, "")
    assert err == "error: transitive_prime_alpha construction failed at alpha=3, k=0\n"


def test_probe_commands(capsys, ramp_spec):
    code, out, _ = run(capsys, "probe", "--spec", ramp_spec, "--l", "2", "--mode", "transitive")
    assert code == 0
    assert json.loads(out)["status"] == "witnessed"
    code, out, _ = run(
        capsys, "probe", "--spec", ramp_spec, "--l", "2", "--mode", "directional",
        "--q", "2", "--u", "block:00", "--v", "block:1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "proved_negative"
    assert data["proof"]["alpha"] == 1


@pytest.mark.parametrize("l", [1, 0, -2])
@pytest.mark.parametrize("command", ["blocks", "probe", "campaign"])
def test_chain_base_below_two_exits_2(capsys, golden_spec, command, l):
    # a base below 2 has no chains: blocks printed "???" for l = 1 and divided by zero for l = 0
    extra = ["--n", "3"] if command == "blocks" else []
    code, out, err = run(capsys, command, "--spec", golden_spec, "--l", str(l), *extra)
    assert (code, out, err) == (2, "", f"error: chain base must be >= 2, got {l}\n")


def test_campaign_smoke(capsys, tmp_path, golden_spec, ramp_spec):
    out_path = tmp_path / "rows.jsonl"
    code, out, _ = run(
        capsys, "campaign", "--spec", golden_spec, ramp_spec, "--l", "2", "--jsonl", str(out_path),
    )
    assert code == 0
    rows = [json.loads(ln) for ln in out_path.read_text().splitlines() if ln]
    assert len(rows) == 2
    assert "hard=0" in out


@pytest.mark.parametrize("horizon", [20, 30, None])
def test_campaign_gap_set_rows_match_the_lazy_path_near_the_horizon(capsys, tmp_path, monkeypatch, horizon):
    # a row's pair grid reads offsets the lazy engine may never read, and a gap-set lookup past
    # the horizon raises; on a gap-set spec the grid reads no table and hands every pair to the
    # lazy engine, so rows, table, exit code and error match a run that marks every pair unsure
    from multishift import oracle

    monkeypatch.delenv("MULTISHIFT_BUDGET", raising=False)
    grid_init = oracle._PairGrid.__init__

    def all_unsure(self, *args):
        grid_init(self, *args)
        self.unsure = self.full

    def outcome(path):
        code, out, err = run(capsys, "campaign", "--spec", str(path))
        return code, out, [ln for ln in err.splitlines() if not ln.startswith("elapsed:")]

    codes, outs = {}, {}
    for cls, comp in (("cofinite", [1, 2]), ("cofinite", [3]), ("thick", [1, 4, 9, 16, 25]), ("thick", [2, 5, 11, 17])):
        path = tmp_path / f"{cls}-{comp[0]}.json"
        data = {"kind": "spacing", "class": cls, "complement": comp}
        path.write_text(json.dumps(data if horizon is None else {**data, "horizon": horizon}))
        fast = outcome(path)
        with monkeypatch.context() as patch:
            patch.setattr(oracle._PairGrid, "__init__", all_unsure)
            assert fast == outcome(path), (cls, comp, horizon)
        codes[cls, comp[0]] = fast[0], fast[2]
        outs[cls, comp[0]] = fast[1]
    # the thick spec with banned gap 2 runs past horizon 20 at l = 2 on both paths, a bounded-search
    # error: that row is kept with the error and its open checks inconclusive, and the campaign exits 2.
    # With more room, its pair not witnessed within the budget gets the claim for every alpha, which
    # holds no prefix, and the directional check passes
    error = "HorizonExceeded: position 21 exceeds horizon 20"
    failure = (2, [f"error: 1 of 2 rows cut short; first: {error}"]) if horizon == 20 else (0, [])
    assert codes == {("cofinite", 1): (0, []), ("cofinite", 3): (0, []), ("thick", 1): (0, []), ("thick", 2): failure}
    row = json.loads(outs["thick", 2].splitlines()[0])
    if horizon == 20:
        assert row["error"] == error and row["checks"] == {
            "transitivity": "pass", "directional": "inconclusive", "mixing": "inconclusive"
        }
        assert (row["certificates_checked"], row["certificate_failures"], row["hard"]) == (6, 0, [])
    else:
        assert row["checks"]["directional"] == "pass" and "error" not in row
        assert (row["certificates_checked"], row["certificate_failures"], row["hard"]) == (19, 0, [])
        assert "directional_l2: a pair needed a depth step beyond the budget" in row["notes"]


@pytest.mark.parametrize("flip", [False, True])
def test_campaign_keeps_every_row_past_a_row_cut_short(capsys, tmp_path, request, flip):
    # one row's bounded-search error used to end the campaign with no row printed; now the row is kept
    # with its error, the other rows are those of a run without it, and the exit code is 2, or 1 when a
    # certificate fails verification
    paths = []
    for name in ("golden", "thick20"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(_EXTREME_SPECS[name]))
    _, alone, _ = run(capsys, "campaign", "--spec", str(paths[0]), "--l", "2")
    if flip:
        request.getfixturevalue("flip_one_pin")
    code, out, err = run(capsys, "campaign", "--spec", *map(str, paths), "--l", "2")
    golden, thick = (json.loads(line) for line in out.splitlines()[:2])
    error = "HorizonExceeded: position 21 exceeds horizon 20"
    assert err.splitlines()[0] == f"error: 1 of 2 rows cut short; first: {error}"
    failures = 12 if flip else 0  # the flipped pins break the 6 transitive prefixes of each row
    assert out.splitlines()[-1] == f"rows=2 certificates=30 cert_failures={failures} hard={failures} errors=1"
    assert thick["error"] == error
    assert thick["checks"] == {"transitivity": "pass", "directional": "inconclusive", "mixing": "inconclusive"}
    if flip:
        assert code == 1 and thick["certificate_failures"] == 6
    else:
        assert code == 2 and alone.splitlines()[0] == json.dumps(golden, sort_keys=True)
        assert "errors=" not in alone and "error" not in golden


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--terms", "40")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == 40
    assert data["value"].startswith("0.8")


def test_graph_dot(capsys, golden_spec):
    code, out, _ = run(capsys, "graph", "--spec", golden_spec)
    assert code == 0
    assert out.startswith("digraph")


def test_arithmetic_subcommands(capsys):
    code, out, _ = run(capsys, "decompose", "96", "2")
    assert code == 0 and json.loads(out) == {"alpha": 3, "base": 2, "k": 5}
    code, out, _ = run(capsys, "offset-bound", "6", "10")
    assert code == 0 and json.loads(out)["M"] == 4


def test_parse_spec_normalizes_with_warning(capsys, tmp_path):
    path = tmp_path / "messy.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": 2, "forbidden": ["11", "110"]}))
    spec = parse_spec(str(path))
    assert spec == sft(2, ["11"])
    assert "normalized" in capsys.readouterr().err


def test_parse_spec_spacing_defaults():
    import json as _json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        _json.dump({"kind": "spacing", "class": "cofinite", "complement": [1, 2]}, fh)
        name = fh.name
    spec = parse_spec(name)
    assert spec == spacing("cofinite", [1, 2])
    assert spec.horizon == 100_000


def test_malformed_spec_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "props", "--spec", str(path))
    assert code == 2
    assert err == f"error: {path}:1:2: Expecting property name enclosed in double quotes\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", ":1:1: Expecting value"),
        ('{"l": ' + "9" * 5000 + "}", ": Exceeds the limit"),
    ],
    ids=["not_json", "long_number"],
)
def test_malformed_certificate_file_names_the_file(capsys, tmp_path, text, message):
    # certificate files go through the spec files' loader, whose message names the file
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}{message}")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "sft", "alphabet": 2.7, "forbidden": ["11"]},
        {"kind": "sft", "alphabet": True, "forbidden": []},
        {"kind": "sft", "alphabet": 2, "forbidden": [11]},
        {"kind": "spacing", "class": "cofinite", "complement": [1.9, 2]},
        {"kind": "spacing", "class": "cofinite", "complement": [1, 2], "horizon": 100.5},
    ],
    ids=["float_alphabet", "bool_alphabet", "int_forbidden_word", "float_gap", "float_horizon"],
)
def test_spec_fields_are_not_coerced(capsys, tmp_path, spec):
    # each of these once went through int()/str() and printed verdicts for a different spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "props", "--spec", str(path))
    assert code == 2 and out == ""
    assert "malformed" in err


def _directional_cert(capsys, spec_path):
    code, out, _ = run(
        capsys, "witness", "--spec", spec_path, "--l", "2", "--u", "block:01", "--v", "block:10",
        "--mode", "directional-power", "--power", "1", "--alpha-bound", "9",
    )
    assert code == 0
    return json.loads(out)


def _verify_payload(capsys, tmp_path, payload):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload))
    return run(capsys, "verify", "--cert", str(path))


def _tamper_cover(cover, how):
    if how == "offset_and_words":  # common offset moved and every pair word replaced
        cover["common_offset"] = 999
        cover["pairs"] = [[p[0], "x", p[2], p[3], p[4], "y"] for p in cover["pairs"]]
    elif how == "common_offset":
        cover["common_offset"] += 1
    elif how == "offset_bound":
        cover["offset_bound"] -= 1
        cover["pairs"] = [p for p in cover["pairs"] if p[2] <= cover["offset_bound"]]
    elif how == "pair_dropped":
        cover["pairs"] = cover["pairs"][1:]
    elif how == "pad_length":
        cover["pairs"][-1][4] += "0"
    elif how == "pad_symbol":  # right length, but the pad runs into v's word "10" as a forbidden "11"
        pair = next(p for p in cover["pairs"] if p[2] >= 1)
        pair[4] = "1" * pair[2]
    elif how == "v_word":  # first symbol flipped, so the word no longer carries v's fiber
        word = cover["pairs"][0][5]
        cover["pairs"][0][5] = ("1" if word[0] == "0" else "0") + word[1:]


@pytest.mark.parametrize(
    "how",
    ["offset_and_words", "common_offset", "offset_bound", "pair_dropped", "pad_length", "pad_symbol", "v_word"],
)
def test_verify_rejects_tampered_cover(capsys, golden_spec, tmp_path, how):
    payload = _directional_cert(capsys, golden_spec)
    for cert in payload["certificate"]:
        _tamper_cover(cert["cover"], how)
    code, out, err = _verify_payload(capsys, tmp_path, payload)
    assert code in (1, 2)
    if code == 1:
        assert json.loads(out)["verified"] is False
        assert all("cover" in r["reason"] for r in json.loads(out)["results"])
    else:
        assert "error" in err
    assert "Traceback" not in err


def test_verify_checks_cover_connection(capsys, golden_spec, tmp_path):
    import dataclasses

    from multishift import oracle, witness

    golden = sft(2, ["11"])
    payload = _directional_cert(capsys, golden_spec)
    cert = witness.certificate_from_dict(payload["certificate"][0])
    assert oracle.verify_certificate(golden, 2, cert) == (True, "ok")
    # same triples and offsets, and u's word still carries u's fiber, but it ends in the forbidden "11"
    pairs = tuple((p[0], p[1] + "11", p[2], p[3], p[4], p[5]) for p in cert.cover.pairs)
    bad = dataclasses.replace(cert, cover=dataclasses.replace(cert.cover, pairs=pairs))
    ok, reason = oracle.verify_certificate(golden, 2, bad)
    assert not ok and reason.startswith("cover:") and "do not connect" in reason


@pytest.mark.parametrize("how", ["missing_base", "not_a_list", "string_alpha", "bool_k", "bad_prefix", "cover_shape"])
def test_verify_malformed_certificate_exits_2(capsys, golden_spec, tmp_path, how):
    code, out, _ = run(
        capsys, "witness", "--spec", golden_spec, "--l", "2", "--u", "block:00", "--v", "block:1",
        "--mode", "exact", "--alpha", "3", "--k", "2",
    )
    assert code == 0
    payload = json.loads(out)
    cert = payload["certificate"]
    if how == "missing_base":  # without the base the multiplier check cannot run
        cert.pop("directional_base")
        cert["alpha"], cert["k"] = 999, 77
    elif how == "not_a_list":
        cert["constraints"] = 5
    elif how == "string_alpha":
        cert["alpha"] = "3"
    elif how == "bool_k":
        cert["k"] = True
    elif how == "bad_prefix":
        cert["prefix"] = cert["prefix"][:-1] + "z"
    elif how == "cover_shape":
        cert["cover"] = {"offset_bound": 1, "common_offset": 0, "pairs": [[1, "0", 0]]}
    code, out, err = _verify_payload(capsys, tmp_path, payload)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed certificate")


def test_verify_rejects_inconsistent_multiplier(capsys, golden_spec, tmp_path):
    code, out, _ = run(
        capsys, "witness", "--spec", golden_spec, "--l", "2", "--u", "block:00", "--v", "block:1",
        "--mode", "exact", "--alpha", "3", "--k", "2",
    )
    payload = json.loads(out)
    payload["certificate"]["alpha"], payload["certificate"]["k"] = 999, 77
    code, out, _ = _verify_payload(capsys, tmp_path, payload)
    assert code == 1
    assert "multiplier disagrees" in json.loads(out)["results"][0]["reason"]


def test_verify_rejects_a_huge_directional_power_before_taking_it(tmp_path):
    # (10**4000)**14000 has 56 million digits; its bit length alone shows it exceeds the multiplier
    cert = {"alpha": 1, "k": 14000, "multiplier": 3 * 10**4289 + 7, "constraints": [[1, [[1, 0]]]], "prefix": "0",
            "construction": "oracle_search", "u": "block:0", "v": "block:0", "directional_base": 10**4000}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"spec": {"kind": "sft", "alphabet": 2, "forbidden": ["11"]}, "l": 2, "certificate": cert}))
    start = time.monotonic()
    done = _run_capped(["verify", "--cert", str(path)], timeout=10)
    assert time.monotonic() - start < 1
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout)["results"][0]["reason"] == "multiplier disagrees with (alpha, k, directional base)"


@pytest.mark.parametrize("drop", ["spec", "l", "certificate"])
def test_verify_cert_file_missing_field(capsys, ramp_spec, tmp_path, drop):
    code, out, _ = run(
        capsys, "witness", "--spec", ramp_spec, "--l", "2", "--u", "block:00", "--v", "block:1",
    )
    payload = json.loads(out)
    payload.pop(drop)
    code, out, err = _verify_payload(capsys, tmp_path, payload)
    assert code == 2
    assert f"missing ['{drop}']" in err


def test_verify_rejects_empty_certificate_list(capsys, ramp_spec, tmp_path):
    code, out, _ = run(
        capsys, "witness", "--spec", ramp_spec, "--l", "2", "--u", "block:00", "--v", "block:1",
    )
    payload = json.loads(out)
    payload["certificate"] = []
    code, out, err = _verify_payload(capsys, tmp_path, payload)
    assert code == 2
    assert out == ""
    assert "empty" in err


@pytest.mark.parametrize(
    "extra, missing",
    [([], "--u, --v, --q"), (["--u", "block:0", "--v", "block:1"], "--q"), (["--q", "2", "--u", "block:0"], "--v")],
)
def test_probe_directional_requires_patterns_and_modulus(capsys, golden_spec, extra, missing):
    code, out, err = run(capsys, "probe", "--spec", golden_spec, "--l", "2", "--mode", "directional", *extra)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: --mode directional needs {missing}"


def test_verify_out_of_alphabet_prefix_symbol_is_rejected_not_an_error(capsys, golden_spec, tmp_path):
    # position 4 sits on chain 1 at depth 3, which no constraint pins: the symbol is
    # checked as part of chain 1's word, so the certificate is refused (exit 1), not malformed
    from multishift import oracle, witness

    code, out, _ = run(
        capsys, "witness", "--spec", golden_spec, "--l", "2", "--u", "block:00", "--v", "block:1",
        "--mode", "exact", "--alpha", "3", "--k", "2",
    )
    assert code == 0
    payload = json.loads(out)
    prefix = payload["certificate"]["prefix"]
    payload["certificate"]["prefix"] = prefix[:3] + "7" + prefix[4:]
    cert = witness.certificate_from_dict(payload["certificate"])
    assert all(4 not in (rep * 2 ** (d - 1) for d, _ in cons) for rep, cons in cert.constraints)
    assert oracle.verify_certificate(sft(2, ["11"]), 2, cert) == (False, "prefix is not an admissible block")
    code, out, err = _verify_payload(capsys, tmp_path, payload)
    assert code == 1
    assert json.loads(out)["results"][0]["reason"] == "prefix is not an admissible block"
    assert err == ""


# --- claims over every multiplier, through `multishift verify` ---------------------------------


def _claim_payload(spec, l, claim):
    from multishift.shift_core import spec_to_dict

    return {"spec": spec_to_dict(spec), "l": l, "certificate": witness.certificate_to_dict(claim)}


def _directional_claim(spec=sft(2, ["11"]), l=2, n=1, u="01", v="10"):
    from multishift.mult_shift import Pattern

    return witness.witness_directional_all_alpha(spec, l, n, Pattern.block(u, l, spec), Pattern.block(v, l, spec))


def _mixing_claim(spec, l=2, u="01", v="10"):
    from multishift.mult_shift import Pattern

    return witness.witness_mixing(spec, l, Pattern.block(u, l, spec), Pattern.block(v, l, spec)).claim


def test_verify_accepts_genuine_claims(capsys, tmp_path):
    golden = sft(2, ["11"])
    for n in (1, 2):
        payload = _claim_payload(golden, 2, _directional_claim(n=n))
        code, out, _ = _verify_payload(capsys, tmp_path, payload)
        assert (code, json.loads(out)) == (0, {"verified": True, "results": [
            {"ok": True, "reason": "ok", "claim": "directional_all_alpha"}
        ]})
    for spec, l in ((golden, 2), (sft(2, ["11", "1001"]), 3), (spacing("cofinite", [2, 5]), 2)):
        payload = _claim_payload(spec, l, _mixing_claim(spec, l, "0", "1"))
        code, out, _ = _verify_payload(capsys, tmp_path, payload)
        assert code == 0 and json.loads(out)["results"][0]["claim"] == "mixing_past_threshold"


def test_verify_rejects_a_cover_whose_words_pin_one_position_twice(capsys, tmp_path):
    # on the full 2-shift, u = block:0 and v = block:1 first connect at k = 1; at k = 0 and pad 0
    # v's word lands on u's word, two symbols at one position: that fits no point (exit 1), and is
    # not a malformed input (exit 2)
    full = sft(2, [])
    claim = _directional_claim(full, u="0", v="1")
    assert claim.k == 1
    cover = dataclasses.replace(claim.cover, common_offset=claim.cover.common_offset - 1)
    payload = _claim_payload(full, 2, claim._replace(k=0, cover=cover))
    code, out, err = _verify_payload(capsys, tmp_path, payload)
    reason = "cover: u's word '0' and v's word '1' do not connect at pad 0"
    assert (code, json.loads(out)["results"][0]["reason"], err) == (1, reason, "")


@pytest.mark.parametrize(
    "how, reason",
    [
        ("pair_dropped", "cover: pairs do not list every (u fiber, v fiber, pad) triple exactly once"),
        ("pad_length", "cover: pad '00' does not have length 1"),
        ("pad_symbol", "cover: pad '1' followed by v's word '10' is not admissible"),
        ("offset_bound", "cover: offset bound 0 is not the product offset bound plus 0"),
        ("k", "cover: common offset 3 is not k1 + 1*3"),
        ("modulus", "directional base 6 is not 2**n with n >= 1"),
    ],
)
def test_verify_rejects_a_tampered_directional_claim(capsys, tmp_path, how, reason):
    payload = _claim_payload(sft(2, ["11"]), 2, _directional_claim())
    cert = payload["certificate"]
    assert (cert["k"], cert["cover"]["offset_bound"], cert["cover"]["common_offset"]) == (2, 1, 3)
    if how == "k":
        cert["k"] += 1
    elif how == "modulus":
        cert["directional_base"] = 6
    else:  # the cover tampers of `test_verify_rejects_tampered_cover`
        _tamper_cover(cert["cover"], how)
    code, out, err = _verify_payload(capsys, tmp_path, payload)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"verified": False, "results": [
        {"ok": False, "reason": reason, "claim": "directional_all_alpha"}
    ]}


@pytest.mark.parametrize(
    "forbidden, exponent", [(["11"], 2), (["11", "101"], 4), (["000", "11"], 5), (["11", "1001"], 6)]
)
def test_verify_rejects_a_mixing_claim_one_below_the_primitivity_exponent(capsys, tmp_path, forbidden, exponent):
    spec = sft(2, forbidden)
    payload = _claim_payload(spec, 2, _mixing_claim(spec))
    assert payload["certificate"]["threshold"] == exponent
    payload["certificate"]["threshold"] -= 1
    code, out, _ = _verify_payload(capsys, tmp_path, payload)
    reason = f"not every window reaches every window in {exponent - 1} steps: {exponent - 1} is no gap index"
    assert (code, json.loads(out)["results"][0]["reason"]) == (1, reason)


@pytest.mark.parametrize(
    "spec, reason",
    [
        (sft(2, ["00", "11"]), "is no gap index"),  # period 2
        (sft(2, ["01"]), "is no gap index"),  # two components
        (spacing("thick", [2, 5, 11, 17]), "a thick gap set has no gap index"),
        (spacing("general", [5]), "a general gap set has no gap index"),
        (spacing("cofinite", [1, 4]), "gap 4 is banned"),
    ],
)
@pytest.mark.parametrize("threshold", [1, 2, 4, 100, 10**30])
def test_verify_rejects_any_threshold_on_a_space_it_is_no_gap_index_of(capsys, tmp_path, spec, reason, threshold):
    from multishift.witness import MixingPastThreshold

    if "gap 4" in reason and threshold > 4:
        threshold = 4  # a cofinite gap set is mixing: only thresholds up to its largest banned gap fail
    payload = _claim_payload(spec, 2, MixingPastThreshold("block:1", "block:0", threshold))
    code, out, _ = _verify_payload(capsys, tmp_path, payload)
    assert code == 1 and reason in json.loads(out)["results"][0]["reason"]


@pytest.mark.parametrize(
    "kind, how",
    [
        ("mixing", "missing_threshold"), ("mixing", "string_threshold"), ("mixing", "bool_threshold"),
        ("mixing", "negative_threshold"), ("directional", "missing_cover"), ("directional", "cover_shape"),
        ("directional", "missing_base"), ("directional", "base_one"), ("directional", "construction_list"),
    ],
)
def test_verify_exits_2_on_a_malformed_claim(capsys, tmp_path, kind, how):
    golden = sft(2, ["11"])
    claim = _mixing_claim(golden) if kind == "mixing" else _directional_claim()
    payload = _claim_payload(golden, 2, claim)
    cert = payload["certificate"]
    if how == "missing_threshold":
        cert.pop("threshold")
    elif how == "string_threshold":
        cert["threshold"] = "2"
    elif how == "bool_threshold":
        cert["threshold"] = True
    elif how == "negative_threshold":
        cert["threshold"] = -1
    elif how == "missing_cover":
        cert.pop("cover")
    elif how == "cover_shape":
        cert["cover"]["pairs"] = [[1, "0", 0]]
    elif how == "missing_base":
        cert.pop("directional_base")
    elif how == "base_one":
        cert["directional_base"] = 1
    elif how == "construction_list":
        cert["construction"] = ["directional_all_alpha"]
    code, out, err = _verify_payload(capsys, tmp_path, payload)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed certificate")


@pytest.mark.parametrize("forbidden, l_values", [(["0110", "1001", "1111"], "5"), (["0000", "1001", "1011"], "4,5,6")])
def test_campaign_rows_past_the_old_mixing_prefix_cap_complete(capsys, tmp_path, forbidden, l_values):
    # the mixing check built three sampled prefixes per pair, and on these rows one passed the prefix
    # cap: the campaign exited 2 with "a prefix of 2343750 symbols exceeds the prefix cap 1048576"
    # (1179648 at l = 4) and printed no row.  The claim for every multiplier past the threshold has no
    # prefix, so each row completes with every check passed.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": 2, "forbidden": forbidden}))
    code, out, err = run(capsys, "campaign", "--spec", str(path), "--l", l_values)
    assert code == 0 and "error" not in err
    rows = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert [row["l"] for row in rows] == [int(l) for l in l_values.split(",")]
    for row in rows:
        assert row["checks"] == {"transitivity": "pass", "directional": "pass", "mixing": "pass"}
        assert set(row["x_probes"].values()) == {"witnessed"}
        assert (row["certificates_checked"], row["certificate_failures"], row["hard"]) == (24, 0, [])
