"""The traced benchmark's wrappers still find what they wrap.

``benchmarks/e2e/layers.py`` times the program from outside: it replaces
named functions with timing wrappers, and ``CRSimulation.run``'s wrapper
attaches a ``repro.obs.profiler.KernelProfiler`` to split a replication
into kernel dispatch and model callbacks.  A renamed target or kernel
attribute does not fail the traced run; its metrics read ``None``.
These tests fail instead, in the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"

#: The per-layer metrics the ``KernelProfiler`` hook feeds.
KERNEL_SPLIT = ("des.events", "des.dispatch.self_s",
                "des.dispatch.us_per_event", "models.callbacks.self_s")


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("which", ["CAMPAIGN_TARGETS", "SERVICE_TARGETS"])
def test_every_target_resolves(layers, which):
    for module, path, name in getattr(layers, which):
        owner, attr = layers._resolve(module, path)
        assert callable(getattr(owner, attr)), (module, path, name)


@pytest.fixture(params=["CAMPAIGN_TARGETS", "SERVICE_TARGETS"])
def installed(request, layers, monkeypatch):
    """A tracer with every target of one list wrapped; the originals are
    put back when the test ends."""
    targets = getattr(layers, request.param)
    for module, path, _ in targets:
        owner, attr = layers._resolve(module, path)
        # Record the original (the class's own entry, not a bound
        # lookup) so monkeypatch restores it over the wrapper.
        monkeypatch.setattr(owner, attr, vars(owner).get(attr, getattr(owner, attr)))
    tracer = layers.Tracer()
    missing = layers.install(tracer, targets)
    return tracer, missing


def _one_replication():
    import numpy as np

    from repro.failures.weibull import TITAN_WEIBULL
    from repro.models.base import CRSimulation
    from repro.models.registry import get_model
    from repro.workloads.applications import APPLICATIONS

    child = np.random.SeedSequence(2022).spawn(1)[0]
    sim = CRSimulation(
        APPLICATIONS["VULCAN"], get_model("P2"),
        weibull=TITAN_WEIBULL, rng=np.random.default_rng(child),
    )
    return sim, sim.run()


def test_install_misses_nothing_and_splits_a_replication(layers, installed):
    tracer, missing = installed
    assert missing == []

    sim, _ = _one_replication()
    assert sim.env.profiler is None  # the wrapper detached it

    spans = tracer.records()
    (run,) = [s for s in spans if s["name"] == "models.run"]
    attrs = run["attrs"]
    for key in ("events", "loop_wall", "callback_wall"):
        assert isinstance(attrs[key], (int, float)), (key, attrs)
    assert attrs["events"] == sim.env.events_processed > 0
    assert 0.0 <= attrs["callback_wall"] <= attrs["loop_wall"]

    values = layers.layer_metrics(spans, [], missing)
    for name in KERNEL_SPLIT:
        assert isinstance(values[name], (int, float)), (name, values[name])
    assert values["des.events"] == sim.env.events_processed
