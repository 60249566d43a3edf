"""perfbench/tracing.py rebinds scc functions by (module, attribute) name, and
perfbench/measure.py patches scc.engine.sweep_and_cluster directly. Each name
must keep resolving, or the benchmark fails only inside its own subprocess.

This is also why scc.engine imports pairwise_weights and spectral_cluster
(the two ``# noqa`` imports) although it calls neither: the tracer wraps
them as engine attributes.

Every name a module exports in ``__all__`` must resolve too, so a removal
that leaves its ``__all__`` entry behind fails here and not in a user's
``from scc import *``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import scc

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_targets_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, attr) for module, attr, _ in tracing.TARGETS]
    targets.append(("scc.engine", "sweep_and_cluster"))
    unresolved = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not unresolved


def test_every_exported_name_resolves():
    names = ["scc"] + [f"scc.{info.name}" for info in pkgutil.iter_modules(scc.__path__)]
    modules = {name: importlib.import_module(name) for name in names}
    exporting = {name: module for name, module in modules.items() if hasattr(module, "__all__")}
    assert {"scc", "scc.curvature", "scc.geometry", "scc.spectral"} <= exporting.keys()
    unresolved = [
        f"{name}.{attr}"
        for name, module in exporting.items()
        for attr in module.__all__
        if not hasattr(module, attr)
    ]
    assert not unresolved
