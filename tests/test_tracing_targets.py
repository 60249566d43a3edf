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
from collections import Counter
from pathlib import Path

import numpy as np

import scc
from scc import engine
from scc.dataio import SynthSpec, synth_subspace_mixture

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_resolve_to_callables():
    tracing = _tracing()
    targets = [(module, attr) for module, attr, _ in tracing.TARGETS]
    targets.append(("scc.engine", "sweep_and_cluster"))
    unresolved = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not unresolved


def test_traced_sweep_records_each_affinity_inside_its_spectral_call():
    # the tracer rebinds the engine's attributes, so a sweep that reached
    # affinity_from_curvatures any other way would leave perfbench's
    # curvature.affinity spans empty, and spectral.eig_s would absorb their time
    tracing = _tracing()
    data, _ = synth_subspace_mixture(SynthSpec(2, 30, subspace_dim=1, ambient_dim=3, noise_sigma=0.05, seed=3))
    config = scc.SccConfig(subspace_dim=1, n_clusters=2, n_sample_sets=40, seed=3)
    sets = scc.sample_initial(data.shape[1], 1, 40, np.random.default_rng(3))
    tracer = tracing.Tracer()
    with tracer.installed():
        engine.sweep_and_cluster(data, sets, config)
    names = Counter(span["name"] for span in tracer.spans)
    assert names["engine.sweep"] == 1 and names["curvature.matrix"] == 1
    assert names["spectral.factored"] == 1 and names["spectral.kmeans"] == 1
    assert names["curvature.affinity"] == config.subspace_dim + 1
    [factored] = [span for span in tracer.spans if span["name"] == "spectral.factored"]
    assert all(span["parent"] == factored["id"] for span in tracer.spans if span["name"] == "curvature.affinity")


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
