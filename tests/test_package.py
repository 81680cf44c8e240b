import importlib
import pkgutil
from pathlib import Path

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


def test_benchmark_tracer_sites_resolve(monkeypatch):
    """Every layer the benchmark's tracer wraps still finds one of its
    (module, attribute) sites, and every cache it reads has cache_info: a
    renamed entry point would otherwise drop a per-layer metric silently."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for layer, sites in tracer.LAYERS.items():
        assert any(tracer._resolve(*site) for site in sites), layer
    for name, site in tracer.CACHES.items():
        found = tracer._resolve(*site)
        assert found and hasattr(found[1], "cache_info"), name
