"""The benchmark's view of the program: every function it traces must exist.

``bench/tracer.py`` wraps the functions listed in its ``TARGETS`` when a
traced round starts; a renamed or deleted one would kill that round
outside any op.  Here each (module, attribute path) is resolved without
installing the tracer, so such a rename fails the test suite instead.
"""

import importlib
import importlib.util
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
