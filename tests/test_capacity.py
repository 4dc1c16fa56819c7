import importlib
import inspect
import pkgutil

import comsoc


def public_callables():
    for info in pkgutil.iter_modules(comsoc.__path__):
        module = importlib.import_module(f"comsoc.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, method in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(method):
                        yield f"{module.__name__}.{name}.{attr}", method


def test_capacity_limits_are_module_constants():
    found = {
        qualname: [p for p in inspect.signature(fn).parameters if p.startswith("max_")]
        for qualname, fn in public_callables()
    }
    assert {qualname: params for qualname, params in found.items() if params} == {}
