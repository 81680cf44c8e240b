import ast
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


def test_benchmark_worker_names_resolve():
    """Every name perfbench/worker.py imports from appowers, and every
    attribute it reads off one, exists, and the sweep and the search take
    the keywords it passes, threads=1 among them: a deletion that no other
    test sees would otherwise fail every benchmark run."""
    worker = Path(__file__).parents[1] / "perfbench" / "worker.py"
    tree = ast.parse(worker.read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "appowers":
                    importlib.import_module(alias.name)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "appowers"):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = getattr(mod, alias.name)
    assert {"counting", "search", "theorem", "Poly",
            "WindowCapError"} <= set(names)
    reads = [(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in names]
    assert ("search", "extremal_search") in reads
    for name, attr in reads:
        assert hasattr(names[name], attr), f"{name}.{attr}"
    rep = names["theorem"].verify_bound_sweep(
        [2], 3, [10], a_mode="window", threads=1, collect_rows=True)
    assert rep.cells == len(rep.rows) > 0
    rec = names["search"].extremal_search(2, 100, 5, a_window=0, threads=1,
                                          cell_budget=1000)
    assert rec.cells_evaluated > 0
