"""The benchmark's view of the program: every function it traces must exist,
and a certify round runs without a failed op or a check error.

``bench/tracer.py`` wraps the functions listed in its ``TARGETS`` when a
traced round starts; a renamed or deleted one would kill that round
outside any op.  Here each (module, attribute path) is resolved without
installing the tracer, so such a rename fails the test suite instead.
"""

import importlib
import importlib.util
import json
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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


def test_certify_round_runs_clean(tmp_path, monkeypatch):
    # a seed-1 certify round in process, as bench/round.py runs it: inputs through JSON, every op,
    # then the reference check that reads each witness output
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    inputs = json.loads(json.dumps(workloads.INPUTS["certify"](1)))
    outputs, failures = [], []
    for op in workloads.PREPARE["certify"](inputs, str(tmp_path)):
        text, failure, _ = op.run()
        outputs.append((op.name, None if failure else text))
        if failure:
            failures.append(f"{op.name}: {failure}")
    assert failures == []
    assert workloads.CHECK["certify"](inputs, outputs) == []
