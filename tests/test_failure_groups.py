"""Predictor settings share one failure draw; a predictor-blind cell runs once.

The injector draws failure gaps and nodes from a child stream of their
own, so every predictor setting of one seed sees the same failures.  A
model that acts on no prediction and sets its interval without σ
(``ModelConfig.predictor_blind``) then runs alike under every setting,
except for how many of its failures were predicted.  A campaign runs
such a cell once per failure group and replication, and every cell of
the same configuration takes the run as an alias with that count
recounted on its own stream.  Each cell must still equal the per-cell
reference ``run_replications(workers=1)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.campaign import (CampaignPlan, CampaignProgress, ResultStore,
                            result_to_dict, run_campaign)
from repro.campaign.plan import blind_key, failure_key, stream_key
from repro.experiments.runner import _run_once, run_replications, \
    shared_stream
from repro.failures.injector import FailureInjector, FailureLog
from repro.failures.leadtime import PAPER_LEAD_TIME_MODEL
from repro.failures.predictor import DEFAULT_PREDICTOR
from repro.failures.weibull import LANL_SYSTEM18_WEIBULL
from repro.models.registry import PAPER_MODELS, get_model
from repro.platform.system import SUMMIT
from repro.spec import build_cells, spec_from_dict
from repro.workloads.applications import APPLICATIONS

CHIMERA = APPLICATIONS["CHIMERA"]

#: Every kind of predictor change a sweep makes, at both false-positive
#: rates: the FN rate, the lead change, and both at once.
PREDICTORS = [
    dataclasses.replace(predictor, false_positive_rate=fp)
    for fp in (0.0, 0.18)
    for predictor in (
        DEFAULT_PREDICTOR,
        DEFAULT_PREDICTOR.with_false_negative_rate(0.40),
        DEFAULT_PREDICTOR.with_lead_change(-50),
        DEFAULT_PREDICTOR.with_false_negative_rate(0.05)
        .with_lead_change(50),
    )
]


def child(index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=11, spawn_key=(index,))


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


def aliased(cells, workers):
    """Units of the campaign's plan in which some cell takes another's run."""
    return [u for u in CampaignPlan(cells).shards(range(len(cells)), workers)
            if any(j != r for j, r in enumerate(u.runs))]


class TestWhatTheSharingRestsOn:
    """ROADMAP item 14 keeps this test."""

    def test_blind_rule_reads_the_config(self):
        blind = {name for name, cfg in PAPER_MODELS.items()
                 if cfg.predictor_blind}
        assert blind == {"B"}
        assert get_model("B-online").predictor_blind
        assert not get_model("P2-fn").predictor_blind

    @pytest.mark.parametrize("index", [0, 1])
    def test_failures_are_the_same_for_every_predictor(self, index):
        draws = []
        for predictor in PREDICTORS:
            injector = FailureInjector(
                LANL_SYSTEM18_WEIBULL, CHIMERA.nodes, PAPER_LEAD_TIME_MODEL,
                predictor, rng=np.random.default_rng(child(index)),
                log=FailureLog())
            events = [injector.next_failure() for _ in range(200)]
            draws.append([(ev.time, ev.node) for ev in events])
            # A caught failure's lead never reaches past its gap, which
            # the log keeps for that cap.
            assert all(ev.lead <= gap
                       for ev, (gap, _) in zip(events, injector.log.draws))
        assert all(d == draws[0] for d in draws)

    @pytest.mark.parametrize("index", [0, 1])
    def test_blind_run_differs_only_in_predicted(self, index):
        outputs = [
            _run_once(CHIMERA, get_model("B"), SUMMIT, LANL_SYSTEM18_WEIBULL,
                      PAPER_LEAD_TIME_MODEL, predictor, child(index),
                      collect_metrics=True)
            for predictor in PREDICTORS
        ]
        first = dataclasses.replace(outputs[0].ft, predicted=0)
        predicted = set()
        for predictor, out in zip(PREDICTORS, outputs):
            assert out.metrics is not None
            assert dataclasses.replace(out, ft=first) == \
                dataclasses.replace(outputs[0], ft=first)
            assert dataclasses.replace(out.ft, predicted=0) == first
            # The count is the one the setting's own stream gives.
            stream = shared_stream(CHIMERA, LANL_SYSTEM18_WEIBULL,
                                   PAPER_LEAD_TIME_MODEL, predictor,
                                   child(index))
            assert out.ft.predicted == stream.predicted(out.ft.failures)
            predicted.add(out.ft.predicted)
        # The count does move with the predictor: an alias must recount.
        assert len(predicted) > 1

    def test_predictor_streams_can_share_one_gap_log(self):
        log = FailureLog()
        for predictor in PREDICTORS:
            shared = shared_stream(CHIMERA, LANL_SYSTEM18_WEIBULL,
                                   PAPER_LEAD_TIME_MODEL, predictor, child(),
                                   log=log)
            private = FailureInjector(
                LANL_SYSTEM18_WEIBULL, CHIMERA.nodes, PAPER_LEAD_TIME_MODEL,
                predictor, rng=np.random.default_rng(child()))
            view = shared.view()
            for _ in range(150):
                assert view.next_failure() == private.next_failure()
                assert view.next_false_alarm() == \
                    private.next_false_alarm()
        # Drawn once: every stream read the first one's 150 gaps.
        assert len(log.draws) == 150


def fn_rate_sweep(rates, replications: int = 6) -> dict:
    """CHIMERA x B/M1/P1 over FN rates, with false alarms."""
    return {
        "schema_version": 1, "name": "chimera-fn", "apps": ["CHIMERA"],
        "models": ["B", "M1", "P1"], "include_base": False,
        "failures": "lanl-system18",
        "sweep": {"axis": "fn-rate", "values": list(rates)},
        "replications": replications, "seed": 4243,
    }


def lead_sweep(replications: int = 4) -> dict:
    """Fig 7's shape: B, P1 and P2 over five lead changes."""
    return {
        "schema_version": 1, "name": "xgc-lead", "apps": ["XGC"],
        "models": ["P1", "P2"], "include_base": True, "failures": "titan",
        "sweep": {"axis": "lead-change-percent",
                  "values": [50, 10, 0, -10, -50]},
        "replications": replications, "seed": 2022,
    }


class TestFailureGroups:
    def test_keys(self):
        cells = build_cells(spec_from_dict(fn_rate_sweep([0.1, 0.35], 2)))
        # One failure group; one stream group per FN rate.
        assert len({failure_key(c) for c in cells}) == 1
        assert len({stream_key(c) for c in cells}) == 2
        b = [c for c in cells if c.model.name == "B"]
        assert blind_key(b[0]) == blind_key(b[1])
        other = dataclasses.replace(b[0], seed=1)
        assert blind_key(other) != blind_key(b[0])
        assert failure_key(other) != failure_key(b[0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lead_change_sweep_equals_run_replications(self, workers):
        cells = build_cells(spec_from_dict(lead_sweep()))
        # B is one run per replication, aliased at the other points.
        assert aliased(cells, workers)
        assert_grouped_equals_reference(
            cells, run_campaign(cells, workers=workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blind_cell_served_from_the_store(self, tmp_path, workers):
        """B at one FN rate comes from the store; B at the others does
        not, and one of them aliases the other's run."""
        cells = build_cells(spec_from_dict(
            fn_rate_sweep([0.1, 0.25, 0.4])))
        store = ResultStore(tmp_path / "store")
        run_campaign(cells[:1], store=store, workers=1)
        progress = CampaignProgress()
        pending = list(range(1, len(cells)))
        plan = CampaignPlan(cells)
        assert any(any(j != r for j, r in enumerate(u.runs))
                   for u in plan.shards(pending, workers))
        results = run_campaign(cells, store=store, workers=workers,
                               progress=progress)
        assert progress.metrics.counter("campaign.cells.cached").value == 1
        assert_grouped_equals_reference(cells, results)
