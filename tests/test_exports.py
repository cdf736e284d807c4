import importlib
import pkgutil

import multishift


def test_every_export_resolves():
    # a name deleted from a module but left in its __all__ only fails on a star import
    checked = 0
    for info in pkgutil.iter_modules(multishift.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"multishift.{info.name}")
        names = getattr(module, "__all__", ())
        assert [name for name in names if not hasattr(module, name)] == [], info.name
        checked += bool(names)
    assert checked >= 6
    namespace = {}
    exec("from multishift import *", namespace)
    assert "campaign" in namespace and "decompose" in namespace
