import importlib
import pkgutil

import xxqst


def test_public_names_resolve():
    # a deleted function left in an __all__ would only fail at `import *`
    modules = [xxqst] + [
        importlib.import_module(f"xxqst.{info.name}")
        for info in pkgutil.iter_modules(xxqst.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert len(xxqst.__all__) == 50
