"""Unit tests for the adaptive OCI controller."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.young import sigma_adjusted_oci, young_oci
from repro.cr.oci import OCIController
from repro.des import MetricsRegistry
from repro.failures.injector import FailureInjector
from repro.failures.leadtime import PAPER_LEAD_TIME_MODEL, LeadTimeModel
from repro.failures.predictor import DEFAULT_PREDICTOR
from repro.failures.weibull import TITAN_WEIBULL
from repro.models.base import CRSimulation
from repro.models.registry import get_model
from repro.workloads.applications import APPLICATIONS


def make_injector(nodes=1515, predictor=DEFAULT_PREDICTOR, seed=0):
    return FailureInjector(
        TITAN_WEIBULL, nodes, PAPER_LEAD_TIME_MODEL, predictor,
        rng=np.random.default_rng(seed),
    )


class TestOracleRate:
    def test_matches_weibull(self):
        inj = make_injector(nodes=1000)
        ctl = OCIController(t_ckpt_bb=60.0, injector=inj, nodes=1000)
        expected = 1.0 / (inj.weibull_app.mtbf_hours * 3600.0 * 1000)
        assert ctl.per_node_rate() == pytest.approx(expected)

    def test_interval_equals_young(self):
        inj = make_injector(nodes=1000)
        ctl = OCIController(t_ckpt_bb=60.0, injector=inj, nodes=1000)
        assert ctl.interval() == pytest.approx(
            young_oci(60.0, ctl.per_node_rate(), 1000)
        )


class TestSigma:
    def test_no_sigma_without_flag(self):
        ctl = OCIController(t_ckpt_bb=60.0, injector=make_injector(), nodes=10)
        assert ctl.sigma() == 0.0

    def test_sigma_uses_assumed_recall(self):
        inj = make_injector()
        ctl = OCIController(
            t_ckpt_bb=60.0, injector=inj, nodes=10, use_sigma=True,
            lm_threshold=41.0,
        )
        survival = float(PAPER_LEAD_TIME_MODEL.survival(41.0))
        assert ctl.sigma() == pytest.approx(0.85 * survival)

    def test_sigma_ignores_actual_recall_by_default(self):
        """The Observation 9 overestimation: sweeping FN does not move σ."""
        bad_pred = DEFAULT_PREDICTOR.with_false_negative_rate(0.40)
        ctl = OCIController(
            t_ckpt_bb=60.0, injector=make_injector(predictor=bad_pred),
            nodes=10, use_sigma=True, lm_threshold=41.0,
        )
        good = OCIController(
            t_ckpt_bb=60.0, injector=make_injector(), nodes=10,
            use_sigma=True, lm_threshold=41.0,
        )
        assert ctl.sigma() == pytest.approx(good.sigma())

    def test_future_work_fix_uses_actual_recall(self):
        bad_pred = DEFAULT_PREDICTOR.with_false_negative_rate(0.40)
        ctl = OCIController(
            t_ckpt_bb=60.0, injector=make_injector(predictor=bad_pred),
            nodes=10, use_sigma=True, lm_threshold=41.0,
            sigma_includes_recall=True,
        )
        survival = float(PAPER_LEAD_TIME_MODEL.survival(41.0))
        assert ctl.sigma() == pytest.approx(0.60 * survival)

    def test_sigma_respects_lead_scale(self):
        up = DEFAULT_PREDICTOR.with_lead_change(100)
        ctl_up = OCIController(
            t_ckpt_bb=60.0, injector=make_injector(predictor=up), nodes=10,
            use_sigma=True, lm_threshold=41.0,
        )
        ctl = OCIController(
            t_ckpt_bb=60.0, injector=make_injector(), nodes=10,
            use_sigma=True, lm_threshold=41.0,
        )
        assert ctl_up.sigma() > ctl.sigma()

    def test_sigma_lengthens_interval(self):
        inj = make_injector()
        plain = OCIController(t_ckpt_bb=60.0, injector=inj, nodes=10)
        sig = OCIController(
            t_ckpt_bb=60.0, injector=inj, nodes=10, use_sigma=True,
            lm_threshold=0.2,
        )
        # Tiny threshold -> sigma near recall -> interval x ~2.5.
        assert sig.interval() == pytest.approx(
            plain.interval() / math.sqrt(1 - sig.sigma()), rel=1e-6
        )
        assert sig.interval() > 1.5 * plain.interval()


class TestOnlineEstimation:
    def test_blends_toward_empirical(self):
        inj = make_injector(nodes=100)
        ctl = OCIController(
            t_ckpt_bb=60.0, injector=inj, nodes=100, online_estimation=True
        )
        oracle = ctl.per_node_rate()
        # Observe a much hotter reality: 50 failures in 10 hours.
        for _ in range(50):
            ctl.record_failure()
        ctl.record_time(10 * 3600.0)
        assert ctl.per_node_rate() > oracle * 5

    def test_no_observations_returns_oracle(self):
        inj = make_injector(nodes=100)
        ctl = OCIController(
            t_ckpt_bb=60.0, injector=inj, nodes=100, online_estimation=True
        )
        assert ctl.per_node_rate() == OCIController(
            t_ckpt_bb=60.0, injector=inj, nodes=100
        ).per_node_rate()


class TestValidation:
    def test_bad_params(self):
        inj = make_injector()
        with pytest.raises(ValueError):
            OCIController(t_ckpt_bb=0.0, injector=inj, nodes=10)
        with pytest.raises(ValueError):
            OCIController(t_ckpt_bb=1.0, injector=inj, nodes=0)
        with pytest.raises(ValueError):
            OCIController(t_ckpt_bb=1.0, injector=inj, nodes=1, use_sigma=True)

    def test_min_interval_floor(self):
        inj = make_injector()
        ctl = OCIController(
            t_ckpt_bb=1e-9, injector=inj, nodes=10, min_interval=5.0
        )
        assert ctl.interval() >= 5.0


class CountingLeadModel(LeadTimeModel):
    """The paper mixture, recording every survival() argument."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def survival(self, t):
        self.calls.append(t)
        return super().survival(t)


class TestSigmaComputedOnce:
    """σ is a constant of the run: one survival() call per simulation."""

    def test_one_survival_call_per_simulation(self):
        app = APPLICATIONS["VULCAN"]
        lead_model = CountingLeadModel()
        sim = CRSimulation(app, get_model("P2"), lead_model=lead_model,
                           rng=np.random.default_rng(0),
                           metrics=MetricsRegistry())
        out = sim.run()

        assert len(lead_model.calls) == 1
        # One interval read per segment: the batches meter the fixed
        # interval they read once.
        assert out.metrics["counters"]["oci.recomputes"] > 1000
        # The Eq. (2) interval, from σ evaluated the way the model does it.
        sigma = min(0.85 * PAPER_LEAD_TIME_MODEL.survival(
            sim.lm_seconds / DEFAULT_PREDICTOR.lead_scale), 0.999)
        expected = sigma_adjusted_oci(
            sim.t_ckpt_bb, sim.oci.per_node_rate(), app.nodes, sigma)
        assert out.oci_initial == expected
        assert out.oci_final == expected
        # Pinned from the per-interval σ computation this replaced.
        assert out.oci_initial.hex() == "0x1.847fccc69e13dp+10"

    def test_sigma_is_stored_at_construction(self):
        lead_model = CountingLeadModel()
        inj = FailureInjector(TITAN_WEIBULL, 1515, lead_model,
                              DEFAULT_PREDICTOR, rng=np.random.default_rng(0))
        ctl = OCIController(t_ckpt_bb=60.0, injector=inj, nodes=10,
                            use_sigma=True, lm_threshold=41.0)
        first = ctl.interval()
        assert [ctl.interval() for _ in range(5)] == [first] * 5
        assert lead_model.calls == [41.0]
        plain = OCIController(t_ckpt_bb=60.0, injector=inj, nodes=10)
        plain.interval()
        assert lead_model.calls == [41.0]
