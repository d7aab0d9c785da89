"""Unit tests for the predictor statistics and the failure injector."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.failures.injector import FailureEvent, FailureInjector, FalseAlarmEvent
from repro.failures.leadtime import PAPER_LEAD_TIME_MODEL
from repro.failures.predictor import DEFAULT_PREDICTOR, PredictorSpec
from repro.failures.weibull import TITAN_WEIBULL, WeibullParams


class TestPredictorSpec:
    def test_defaults_match_paper(self):
        assert DEFAULT_PREDICTOR.recall == pytest.approx(0.85)
        assert DEFAULT_PREDICTOR.false_positive_rate == pytest.approx(0.18)
        assert DEFAULT_PREDICTOR.lead_scale == 1.0

    def test_with_lead_change(self):
        up = DEFAULT_PREDICTOR.with_lead_change(50)
        down = DEFAULT_PREDICTOR.with_lead_change(-50)
        assert up.lead_scale == pytest.approx(1.5)
        assert down.lead_scale == pytest.approx(0.5)
        with pytest.raises(ValueError):
            DEFAULT_PREDICTOR.with_lead_change(-100)

    def test_with_false_negative_rate(self):
        p = DEFAULT_PREDICTOR.with_false_negative_rate(0.40)
        assert p.recall == pytest.approx(0.60)
        assert p.false_positive_rate == DEFAULT_PREDICTOR.false_positive_rate
        assert p.false_negative_rate == pytest.approx(0.40)

    def test_effective_lead(self):
        p = PredictorSpec(lead_scale=1.5, detection_latency=0.5)
        assert p.effective_lead(10.0) == pytest.approx(14.5)
        assert p.effective_lead(0.1) == pytest.approx(0.0, abs=1e-9)  # clamped

    def test_false_alarm_rate_algebra(self):
        p = PredictorSpec(false_positive_rate=0.18)
        tp = 1.0 / 3600.0
        fa = p.false_alarm_rate(tp)
        assert fa / (fa + tp) == pytest.approx(0.18)
        assert PredictorSpec(false_positive_rate=0.0).false_alarm_rate(tp) == 0.0

    def test_predicts_rate(self, rng):
        hits = sum(DEFAULT_PREDICTOR.predicts(rng) for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(0.85, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictorSpec(recall=1.2)
        with pytest.raises(ValueError):
            PredictorSpec(false_positive_rate=1.0)
        with pytest.raises(ValueError):
            PredictorSpec(lead_scale=0.0)
        with pytest.raises(ValueError):
            PredictorSpec(detection_latency=-1)
        with pytest.raises(ValueError):
            DEFAULT_PREDICTOR.false_alarm_rate(-1.0)


class TestFailureInjector:
    def _injector(self, seed=0, nodes=1515, predictor=DEFAULT_PREDICTOR):
        return FailureInjector(
            TITAN_WEIBULL,
            nodes,
            PAPER_LEAD_TIME_MODEL,
            predictor,
            rng=np.random.default_rng(seed),
        )

    def test_failures_strictly_increasing(self):
        inj = self._injector()
        times = [inj.next_failure().time for _ in range(200)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_nodes_in_range(self):
        inj = self._injector(nodes=100)
        for _ in range(200):
            ev = inj.next_failure()
            assert 0 <= ev.node < 100

    def test_lead_clamped_to_gap(self):
        inj = self._injector()
        prev = 0.0
        for _ in range(500):
            ev = inj.next_failure()
            if ev.predicted:
                assert ev.prediction_time >= prev - 1e-9
            prev = ev.time

    def test_prediction_rate(self):
        inj = self._injector(seed=3)
        events = [inj.next_failure() for _ in range(5000)]
        frac = sum(e.predicted for e in events) / len(events)
        assert frac == pytest.approx(0.85, abs=0.02)

    def test_unpredicted_have_no_lead(self):
        inj = self._injector()
        for _ in range(300):
            ev = inj.next_failure()
            if not ev.predicted:
                assert ev.lead == 0.0
                assert ev.sequence_id is None

    def test_common_random_failures_across_consumption(self):
        """Failure times must not depend on false-alarm consumption."""
        a = self._injector(seed=9)
        b = self._injector(seed=9)
        for _ in range(10):
            b.next_false_alarm()  # extra stream consumption
        ta = [a.next_failure().time for _ in range(50)]
        tb = [b.next_failure().time for _ in range(50)]
        assert ta == tb

    def test_false_alarm_rate(self):
        inj = self._injector(seed=5)
        expected = inj.false_alarm_rate
        alarms = [inj.next_false_alarm() for _ in range(2000)]
        gaps = np.diff([0.0] + [a.prediction_time for a in alarms])
        assert 1.0 / gaps.mean() == pytest.approx(expected, rel=0.1)

    def test_no_false_alarms_when_fp_zero(self):
        inj = self._injector(predictor=PredictorSpec(false_positive_rate=0.0))
        assert inj.next_false_alarm() is None

    def test_mean_rate_matches_mtbf(self):
        inj = self._injector(seed=11, nodes=2272)
        n = 3000
        last = 0.0
        for _ in range(n):
            last = inj.next_failure().time
        mtbf_emp_hours = last / n / 3600.0
        assert mtbf_emp_hours == pytest.approx(
            inj.weibull_app.mtbf_hours, rel=0.08
        )

    def test_predictable_fraction(self):
        inj = self._injector()
        assert inj.predictable_fraction(0.0) == pytest.approx(0.85)
        sigma_41 = inj.predictable_fraction(41.0)
        assert sigma_41 == pytest.approx(0.85 * 0.55, abs=0.03)
        with pytest.raises(ValueError):
            inj.predictable_fraction(-1.0)

    def test_predictable_fraction_respects_lead_scale(self):
        up = self._injector(predictor=DEFAULT_PREDICTOR.with_lead_change(100))
        base = self._injector()
        assert up.predictable_fraction(41.0) > base.predictable_fraction(41.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureInjector(TITAN_WEIBULL, 0)


class TestDrawStream:
    """Which generator calls each draw makes, and in which order.

    The first 500 failures and 100 false alarms of the default predictor,
    as sha256 over every field (floats by ``float.hex``).  1515 is not a
    power of two, so ``integers`` may take extra words per node draw
    there.  Any reorder of the calls (the node drawn before the gap, the
    prediction decided before the node) moves the digest.
    """

    DIGESTS = {
        (0, 1024): "50d4781fa76fb875460beb2cacfafe5552865be6ecb01ddbd22e21a11fb56d16",
        (0, 1515): "5d3b1991c00de56abc0ee1cdce71911632aa295799b690fa887fb6a5353b4fd3",
        (2022, 1024): "3db2328604a49d69279314239949cd5e120ffc6aa40db4afc1df41107de55222",
        (2022, 1515): "2b97f1f366510440bf5c83bcdb47d70b4baf24a67fb6a1a20764d3b3376dd5c4",
    }

    @pytest.mark.parametrize("seed,nodes", sorted(DIGESTS))
    def test_stream_pinned(self, seed, nodes):
        inj = FailureInjector(TITAN_WEIBULL, nodes, PAPER_LEAD_TIME_MODEL,
                              DEFAULT_PREDICTOR, rng=np.random.default_rng(seed))
        h = hashlib.sha256()
        for _ in range(500):
            ev = inj.next_failure()
            h.update(f"{ev.time.hex()} {ev.node} {ev.sequence_id} "
                     f"{ev.predicted} {ev.lead.hex()} {ev.provenance}\n"
                     .encode())
        for _ in range(100):
            a = inj.next_false_alarm()
            h.update(f"{a.prediction_time.hex()} {a.node} "
                     f"{a.claimed_lead.hex()} {a.provenance}\n".encode())
        assert h.hexdigest() == self.DIGESTS[(seed, nodes)]


class TestEventRecords:
    """Events are immutable values: the simulation keys records by them."""

    def test_failure_event_immutable_and_value_keyed(self):
        ev = FailureEvent(10.0, 3, 6, True, 2.5, 7)
        with pytest.raises(AttributeError):
            ev.time = 11.0
        twin = FailureEvent(time=10.0, node=3, sequence_id=6, predicted=True,
                            lead=2.5, provenance=7)
        assert twin == ev and hash(twin) == hash(ev)
        assert {ev: "rec"}[twin] == "rec"
        assert ev != twin._replace(provenance=8)
        assert ev.prediction_time == 7.5
        assert repr(ev) == ("FailureEvent(time=10.0, node=3, sequence_id=6, "
                            "predicted=True, lead=2.5, provenance=7)")
        assert FailureEvent(1.0, 0, None, False, 0.0).provenance == -1

    def test_false_alarm_immutable_and_value_keyed(self):
        alarm = FalseAlarmEvent(5.0, 2, 30.0, 4)
        with pytest.raises(AttributeError):
            alarm.node = 1
        twin = FalseAlarmEvent(prediction_time=5.0, node=2, claimed_lead=30.0,
                               provenance=4)
        assert twin == alarm and hash(twin) == hash(alarm)
        assert repr(alarm) == ("FalseAlarmEvent(prediction_time=5.0, node=2, "
                               "claimed_lead=30.0, provenance=4)")
        assert FalseAlarmEvent(0.0, 0, 1.0).provenance == -1
