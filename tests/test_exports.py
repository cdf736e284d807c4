import importlib
import inspect
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


def test_every_functools_cache_is_bounded():
    # a cache with no maxsize grows with every distinct argument; only a cache of a function
    # that takes no arguments (one entry) may go without
    found = []
    for info in pkgutil.iter_modules(multishift.__path__):
        module = importlib.import_module(f"multishift.{info.name}")
        owners = [module] + [obj for obj in vars(module).values() if inspect.isclass(obj)]
        for owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                    found.append(f"{info.name}.{name}")
                    bounded = obj.cache_parameters()["maxsize"] is not None
                    assert bounded or not inspect.signature(obj.__wrapped__).parameters, found[-1]
    assert {"lambda_arith.decompose", "shift_core._ctx", "cli._build_parser"} <= set(found)
