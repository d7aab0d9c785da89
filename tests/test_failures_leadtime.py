"""Unit tests for the lead-time mixture model (Fig 2a calibration)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures.leadtime import (
    PAPER_LEAD_TIME_MODEL,
    PAPER_SEQUENCES,
    FailureSequenceSpec,
    LeadTimeModel,
)


class TestSequenceSpec:
    def test_ten_paper_sequences(self):
        assert len(PAPER_SEQUENCES) == 10
        assert [s.sequence_id for s in PAPER_SEQUENCES] == list(range(1, 11))

    def test_sample_statistics(self, rng):
        seq = PAPER_SEQUENCES[5]  # the dominant ~43 s sequence
        samples = seq.sample(rng, 20_000)
        assert samples.mean() == pytest.approx(seq.mean_lead, rel=0.02)
        assert samples.std() == pytest.approx(seq.sd_lead, rel=0.10)

    def test_survival_at_mean_near_half(self):
        seq = PAPER_SEQUENCES[5]
        assert 0.3 < seq.survival(seq.mean_lead) < 0.7

    def test_quantiles_ordered(self):
        for seq in PAPER_SEQUENCES:
            q1, med, q3 = (seq.quantile(q) for q in (0.25, 0.5, 0.75))
            assert q1 < med < q3

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureSequenceSpec(1, 0, 10.0, 1.0)
        with pytest.raises(ValueError):
            FailureSequenceSpec(1, 5, -1.0, 1.0)
        with pytest.raises(ValueError):
            FailureSequenceSpec(1, 5, 10.0, 0.0)


class TestMixture:
    def test_weights_normalized(self):
        assert PAPER_LEAD_TIME_MODEL.weights.sum() == pytest.approx(1.0)

    def test_dominant_sequence_holds_half_the_mass(self):
        model = PAPER_LEAD_TIME_MODEL
        w6 = model.weights[[s.sequence_id for s in model.sequences].index(6)]
        assert 0.45 <= w6 <= 0.55

    def test_survival_monotone_decreasing(self):
        xs = np.linspace(0.1, 2000, 200)
        s = PAPER_LEAD_TIME_MODEL.survival(xs)
        assert np.all(np.diff(s) <= 1e-12)

    def test_survival_calibration_constraints(self):
        """The CDF anchors reverse-engineered from Tables II/IV."""
        model = PAPER_LEAD_TIME_MODEL
        assert model.survival(16.0) == pytest.approx(0.98, abs=0.02)
        assert model.survival(23.7) == pytest.approx(0.78, abs=0.03)
        assert model.survival(41.0) == pytest.approx(0.55, abs=0.03)
        assert model.survival(45.5) == pytest.approx(0.05, abs=0.02)
        assert model.survival(150.0) == pytest.approx(0.05, abs=0.02)
        assert model.survival(538.0) == pytest.approx(0.008, abs=0.006)

    def test_plateau_between_28_and_37_seconds(self):
        """The mass gap that makes M2's CHIMERA FT ratio plateau."""
        model = PAPER_LEAD_TIME_MODEL
        drop = model.survival(28.0) - model.survival(37.0)
        assert drop < 0.01

    def test_sampling_matches_survival(self, rng):
        model = PAPER_LEAD_TIME_MODEL
        _, leads = model.sample_many(rng, 50_000)
        for x in (20.0, 41.0, 100.0):
            empirical = float((leads >= x).mean())
            assert empirical == pytest.approx(float(model.survival(x)), abs=0.01)

    def test_sample_ids_weighted(self, rng):
        model = PAPER_LEAD_TIME_MODEL
        ids, _ = model.sample_many(rng, 30_000)
        frac6 = float((ids == 6).mean())
        assert frac6 == pytest.approx(0.5, abs=0.02)

    def test_single_sample(self, rng):
        sid, lead = PAPER_LEAD_TIME_MODEL.sample(rng)
        assert sid in range(1, 11)
        assert lead > 0

    def test_mean_lead(self):
        # Dominated by the 43 s sequence plus long-lead tails.
        assert 30 < PAPER_LEAD_TIME_MODEL.mean_lead() < 80

    def test_boxplot_stats_structure(self):
        stats = PAPER_LEAD_TIME_MODEL.boxplot_stats()
        assert set(stats) == set(range(1, 11))
        for s in stats.values():
            assert s["lo_whisker"] <= s["q1"] <= s["median"] <= s["q3"] <= s["hi_whisker"]

    def test_sequence_lookup(self):
        assert PAPER_LEAD_TIME_MODEL.sequence(6).mean_lead == pytest.approx(43.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            LeadTimeModel([])
        dup = [PAPER_SEQUENCES[0], PAPER_SEQUENCES[0]]
        with pytest.raises(ValueError):
            LeadTimeModel(dup)


@given(x=st.floats(min_value=0.001, max_value=5000.0))
@settings(max_examples=200, deadline=None)
def test_survival_is_probability(x):
    s = float(PAPER_LEAD_TIME_MODEL.survival(x))
    assert 0.0 <= s <= 1.0


# The closed forms in FailureSequenceSpec must reproduce scipy.stats.lognorm
# bit for bit: sigma (Eq. 2) and every golden downstream of it depend on it.
def _hex(values) -> list:
    return [float(v).hex() for v in np.atleast_1d(values)]


_T_GRID = np.concatenate([
    [-1.0, 0.0, 1e-300, 5e-324, 1e-12, 1e-3, 0.5, 1.0, 1e6, 1e300, np.inf],
    np.logspace(-2, 4, 2_000),                              # both tails
    np.linspace(0.0, 100.0, 2_001),                         # the body
    [s.mean_lead for s in PAPER_SEQUENCES],
])
_Q_GRID = np.concatenate([
    [0.0, 1e-300, 1e-12, 0.25, 0.5, 0.75, 1 - 1e-12, 1.0],
    np.linspace(0.0, 1.0, 2_001),
])


class TestDrawParity:
    """sample() makes numpy's own weighted draw, bit for bit."""

    def test_matches_generator_choice(self):
        model = PAPER_LEAD_TIME_MODEL
        weights = model.weights
        for seed in range(200):
            ours = np.random.default_rng(seed)
            numpys = np.random.default_rng(seed)
            for _ in range(25):
                seq = model.sequences[
                    numpys.choice(len(model.sequences), p=weights)
                ]
                expected = (seq.sequence_id, float(seq.sample(numpys)))
                sequence_id, lead = model.sample(ours)
                assert (sequence_id, lead.hex()) == (
                    expected[0], expected[1].hex()
                ), seed
            assert ours.bit_generator.state == numpys.bit_generator.state

    def test_uneven_weights_match_generator_choice(self):
        model = LeadTimeModel([
            FailureSequenceSpec(i, occ, mean_lead=10.0 * i, sd_lead=1.0)
            for i, occ in enumerate((1, 3, 7, 1, 50, 2, 9), start=1)
        ])
        for seed in range(200):
            ours = np.random.default_rng(seed)
            numpys = np.random.default_rng(seed)
            for _ in range(25):
                idx = numpys.choice(len(model.sequences), p=model.weights)
                numpys.lognormal(model.sequences[idx]._mu,
                                 model.sequences[idx]._sigma)
                assert model.sample(ours)[0] == model.sequences[idx].sequence_id
            assert ours.bit_generator.state == numpys.bit_generator.state


class TestScipyParity:
    @pytest.mark.parametrize("seq", PAPER_SEQUENCES,
                             ids=lambda s: f"seq{s.sequence_id}")
    def test_survival_matches_lognorm_sf(self, seq):
        from scipy.stats import lognorm

        dist = lognorm(s=seq._sigma, scale=math.exp(seq._mu))
        expected = dist.sf(np.maximum(_T_GRID, 1e-300))
        assert _hex(seq.survival(_T_GRID)) == _hex(expected)
        for t in (0.0, 1e-300, 0.2, seq.mean_lead, 41.0, 1e4):
            got = seq.survival(t)
            assert isinstance(got, float)
            assert got.hex() == float(dist.sf(max(t, 1e-300))).hex()

    @pytest.mark.parametrize("seq", PAPER_SEQUENCES,
                             ids=lambda s: f"seq{s.sequence_id}")
    def test_quantile_matches_lognorm_ppf(self, seq):
        from scipy.stats import lognorm

        dist = lognorm(s=seq._sigma, scale=math.exp(seq._mu))
        assert _hex(seq.quantile(_Q_GRID)) == _hex(dist.ppf(_Q_GRID))
        for q in (0.25, 0.5, 0.75):
            assert float(seq.quantile(q)).hex() == float(dist.ppf(q)).hex()

    def test_mixture_matches_lognorm_sum(self):
        from scipy.stats import lognorm

        expected = np.zeros_like(_T_GRID)
        for w, seq in zip(PAPER_LEAD_TIME_MODEL.weights, PAPER_SEQUENCES):
            expected = expected + w * lognorm.sf(
                np.maximum(_T_GRID, 1e-300), s=seq._sigma,
                scale=math.exp(seq._mu))
        got = PAPER_LEAD_TIME_MODEL.survival(_T_GRID)
        assert _hex(got) == _hex(expected)


class TestCachedLognormalParameters:
    """μ and σ are computed once per sequence, exactly, off the fields."""

    @pytest.mark.parametrize("seq", PAPER_SEQUENCES,
                             ids=lambda s: f"seq{s.sequence_id}")
    def test_cached_values_equal_the_closed_forms(self, seq):
        sigma = math.sqrt(math.log(1.0 + (seq.sd_lead / seq.mean_lead) ** 2))
        mu = math.log(seq.mean_lead) - 0.5 * sigma**2
        assert (seq._mu.hex(), seq._sigma.hex()) == (mu.hex(), sigma.hex())
        replaced = dataclasses.replace(seq, sd_lead=2.0 * seq.sd_lead)
        assert replaced._sigma != seq._sigma

    def test_fields_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(FailureSequenceSpec)] == [
            "sequence_id", "occurrences", "mean_lead", "sd_lead"]

    def test_campaign_cell_keys_are_unchanged(self):
        """The campaign-dense cells hash as before the parameters were cached."""
        from repro.spec import cell_keys, spec_from_dict

        spec = spec_from_dict({
            "schema_version": 1, "name": "e2e-campaign-dense-full",
            "apps": ["CHIMERA"], "models": ["B", "M1", "P1"],
            "include_base": False, "failures": "lanl-system18",
            "predictor": {"false_positive_rate": 0.0}, "replications": 32,
            "seed": 2022,
            "sweep": {"axis": "fn-rate",
                      "values": [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35,
                                 0.40]},
        })
        keys = cell_keys(spec)
        assert len(keys) == 24
        assert keys[0] == (
            "546b2f5405ebaf091852acb940d12336f984bb9c5adc0c5ed65e4b4939d39bb7")
        assert keys[-1] == (
            "339a863479553eb9aa75873bdb29db89f760f01ef414dd643985102a33a9bac5")
