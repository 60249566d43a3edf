"""perfbench/tracing.py rebinds scc functions by (module, attribute) name, and
perfbench/measure.py patches scc.engine.sweep_and_cluster directly. Each name
must keep resolving, or the benchmark fails only inside its own subprocess.

This is also why scc.engine imports pairwise_weights and spectral_cluster
(the two ``# noqa`` imports) although it calls neither: the tracer wraps
them as engine attributes.
"""

import importlib
import importlib.util
from pathlib import Path

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
