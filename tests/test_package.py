import importlib
import pkgutil

import appowers


def test_every_export_resolves():
    """Every name in the package's and each submodule's __all__ exists."""
    modules = [appowers] + [importlib.import_module(f"appowers.{m.name}")
                            for m in pkgutil.iter_modules(appowers.__path__)]
    for mod in modules:
        names = getattr(mod, "__all__", ())
        assert len(set(names)) == len(names), mod.__name__
        for name in names:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
