"""Cells that differ only in their C/R model share one failure stream.

A campaign runs each replication of a stream group (cells with the same
seed, failure distribution, node count, lead-time model, predictor and
replication count) on one :class:`~repro.failures.injector.SharedStream`.
Every per-cell result must stay bit-identical to the per-cell reference
``run_replications(workers=1)``, and a traced simulation that reads a
shared stream must record what it records on a private injector,
provenance ids included.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (CampaignExecutionError, CampaignPlan,
                            CampaignProgress, ResultStore, result_to_dict,
                            run_campaign)
from repro.campaign import scheduler as scheduler_mod
from repro.campaign.plan import stream_key
from repro.des.monitor import Trace
from repro.experiments.runner import run_replications, shared_stream
from repro.failures import weibull
from repro.failures.leadtime import PAPER_LEAD_TIME_MODEL
from repro.failures.predictor import DEFAULT_PREDICTOR
from repro.models.base import CRSimulation
from repro.models.registry import get_model
from repro.spec import build_cells, spec_from_dict
from repro.workloads.applications import APPLICATIONS

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
#: A model that predicts draws first, so its false alarms interleave
#: with the failures in the log's drawing order.
MODELS = ["P2", "P1", "M2", "M1", "B"]


def fn_rate_sweep(replications: int) -> dict:
    """CHIMERA x B/M1/P1 over two FN rates, without false alarms."""
    return {
        "schema_version": 1, "name": "chimera-fn", "apps": ["CHIMERA"],
        "models": ["B", "M1", "P1"], "include_base": False,
        "failures": "lanl-system18",
        "predictor": {"false_positive_rate": 0.0},
        "sweep": {"axis": "fn-rate", "values": [0.1, 0.35]},
        "replications": replications, "seed": 4243,
    }


def obs9(replications: int) -> dict:
    """The committed obs9 spec (default predictor: false alarms)."""
    doc = json.loads((SPEC_DIR / "obs9-fn-rate-xgc.json").read_text())
    doc["replications"] = replications
    return doc


def two_apps(replications: int) -> dict:
    """CHIMERA/POP x B/M1/M2/P1/P2 under lanl-system18."""
    return {
        "schema_version": 1, "name": "two-apps", "apps": ["CHIMERA", "POP"],
        "models": ["M1", "M2", "P1", "P2"], "include_base": True,
        "failures": "lanl-system18", "replications": replications,
        "seed": 11,
    }


def reference(cell):
    """The per-cell oracle: the serial loop drawing its own streams."""
    return run_replications(cell.app, cell.model, cell.replications,
                            platform=cell.platform, weibull=cell.weibull,
                            lead_model=cell.lead_model,
                            predictor=cell.predictor, seed=cell.seed,
                            workers=1)


def assert_grouped_equals_reference(cells, results):
    for cell in cells:
        assert result_to_dict(results[cell.key]) == \
            result_to_dict(reference(cell)), cell.key


def shared_units(cells, workers):
    return [u for u in CampaignPlan(cells).shards(range(len(cells)), workers)
            if u.sharing]


class TestGroupedCampaigns:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("document", [
        pytest.param(fn_rate_sweep(8), id="chimera-fn-rate"),
        pytest.param(obs9(4), id="obs9-fn-rate-xgc"),
        pytest.param(two_apps(4), id="chimera-pop-5-models"),
    ])
    def test_per_cell_results_equal_run_replications(self, document,
                                                     workers):
        cells = build_cells(spec_from_dict(document))
        # The campaign really shares streams at this size.
        assert shared_units(cells, workers)
        assert_grouped_equals_reference(
            cells, run_campaign(cells, workers=workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cell_served_from_the_store_leaves_its_group(self, tmp_path,
                                                         workers):
        cells = build_cells(spec_from_dict(fn_rate_sweep(8)))
        store = ResultStore(tmp_path / "store")
        # B at the first FN rate computed (and stored) on its own.
        run_campaign(cells[:1], store=store, workers=1)
        progress = CampaignProgress()
        results = run_campaign(cells, store=store, workers=workers,
                               progress=progress)
        assert progress.metrics.counter("campaign.cells.cached").value == 1
        assert_grouped_equals_reference(cells, results)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_leaves_its_group(self, tmp_path, monkeypatch,
                                           workers):
        """A cell failing on every replication costs its group-mates
        nothing: they finish and are stored, then the campaign raises."""
        cells = build_cells(spec_from_dict(fn_rate_sweep(8)))
        real = scheduler_mod._run_once

        def m1_fails(app, config, *args, **kwargs):
            if config.name == "M1":
                raise OSError("lost")
            return real(app, config, *args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "_run_once", m1_fails)
        store = ResultStore(tmp_path / "store")
        plan = CampaignPlan(cells)
        with pytest.raises(CampaignExecutionError, match=r"'M1'.*replication"):
            run_campaign(cells, store=store, workers=workers)
        stored = {cell.key for cell, key in zip(cells, plan.keys)
                  if store.get(key) is not None}
        assert stored == {cell.key for cell in cells
                          if cell.model.name != "M1"}

    def test_group_key_names_every_stream_input(self):
        cells = build_cells(spec_from_dict(fn_rate_sweep(2)))
        keys = [stream_key(cell) for cell in cells]
        # One key per FN rate: the predictor is part of it, the model not.
        assert len(set(keys)) == 2
        assert keys[0] == keys[1] == keys[2]
        other = dataclasses.replace(cells[0], seed=1)
        assert stream_key(other) != keys[0]


def child():
    """A fresh replication seed (spawning advances a SeedSequence)."""
    return np.random.SeedSequence(entropy=2022, spawn_key=(0,))


def traced_records(app, model, dist, injector=None):
    trace = Trace(env=None)
    CRSimulation(APPLICATIONS[app], get_model(model), weibull=dist,
                 rng=None if injector else np.random.default_rng(child()),
                 trace=trace, injector=injector).run()
    return [(r.time.hex(), r.source, r.kind, r.sid, repr(r.detail))
            for r in trace.records]


class TestTracedSharedRun:
    @pytest.mark.parametrize("app, dist", [
        ("XGC", weibull.TITAN_WEIBULL),
        ("CHIMERA", weibull.LANL_SYSTEM18_WEIBULL),
        ("POP", weibull.LANL_SYSTEM18_WEIBULL),
    ])
    def test_records_equal_a_private_injector(self, app, dist):
        stream = shared_stream(APPLICATIONS[app], dist,
                               PAPER_LEAD_TIME_MODEL, DEFAULT_PREDICTOR,
                               child())
        for model in MODELS:
            shared = traced_records(app, model, dist,
                                    injector=stream.view())
            private = traced_records(app, model, dist)
            assert shared == private, model
        # False alarms interleaved with the failures in the drawing
        # order, so the views' ids are their own, not the log's.
        assert stream.alarms
        assert any(ev.provenance != i for i, ev in enumerate(stream.failures))
