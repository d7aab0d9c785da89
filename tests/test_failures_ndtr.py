"""The pure-Python Cephes ``ndtr`` port and the σ values it feeds.

The port must equal ``scipy.special.ndtr`` by bits everywhere, and every σ
of the σ-OCI models (M2, P2 and their α variants) must keep the bits it
had when σ was computed with scipy.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr

from repro.cr.oci import SIGMA_MAX
from repro.experiments.fig6c import DEFAULT_ALPHAS
from repro.experiments.leadvar import DEFAULT_CHANGES
from repro.failures._ndtr import ndtr
from repro.failures.leadtime import PAPER_LEAD_TIME_MODEL
from repro.failures.predictor import DEFAULT_PREDICTOR
from repro.platform.system import SUMMIT
from repro.workloads.applications import APPLICATIONS


def _assert_matches_scipy(xs) -> None:
    xs = np.asarray(xs, dtype=float)
    expected = [v.hex() for v in scipy_ndtr(xs).tolist()]
    got = [ndtr(x).hex() for x in xs.tolist()]
    mismatched = [(x.hex(), g, e) for x, g, e in zip(xs.tolist(), got, expected)
                  if g != e]
    assert not mismatched, mismatched[:5]


def _ulps_around(x: float, n: int) -> list:
    """*x* and the *n* floats on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestPortMatchesScipy:
    def test_seeded_dense_grid(self):
        rng = np.random.default_rng(20220823)
        _assert_matches_scipy(np.concatenate([
            rng.normal(0.0, 3.0, 40_000),
            rng.uniform(-40.0, 40.0, 40_000),
            np.linspace(-10.0, 10.0, 20_001),
            np.linspace(-40.0, 40.0, 8_001),
            -np.logspace(-300, 2, 2_000),                 # lower tail
            np.logspace(-300, 2, 2_000),                  # upper tail
        ]))

    # a·√½ at √½ (the erf / erfc switch in ndtr), 1 (erfc's own 1 − erf
    # branch) and 8 (the P/Q to R/S switch), on both sides of zero.
    @pytest.mark.parametrize("edge", [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_branch_edges(self, edge, sign):
        xs = _ulps_around(sign * edge, 64)
        # The edge as the port computes it, a·√½ landing exactly on it.
        x_edge = edge * math.sqrt(0.5)
        xs += [sign * v / math.sqrt(0.5) for v in _ulps_around(x_edge, 8)]
        _assert_matches_scipy(xs)

    def test_underflow_edge(self):
        # erfc(z) takes its underflow exit once z² > MAXLOG (a ≈ −37.7),
        # and the result reaches the subnormals and then 0 near −38.5.
        maxlog_edge = -math.sqrt(2.0 * 7.09782712893383996843e2)
        _assert_matches_scipy(
            _ulps_around(maxlog_edge, 64)
            + _ulps_around(-38.5, 64)
            + np.linspace(-39.5, -37.0, 5_001).tolist())
        assert ndtr(-40.0) == 0.0

    def test_signed_zeros_and_infinities(self):
        _assert_matches_scipy([0.0, -0.0, math.inf, -math.inf])
        assert ndtr(math.inf) == 1.0 and ndtr(-math.inf) == 0.0

    def test_nan_in_nan_out(self):
        assert math.isnan(ndtr(math.nan))


def _theta(app, alpha: float, change: float) -> float:
    """The survival argument OCIController uses: θ / lead_scale."""
    predictor = DEFAULT_PREDICTOR.with_lead_change(change)
    theta = SUMMIT.lm_transfer_time(app.checkpoint_bytes_per_node, alpha)
    return theta / predictor.lead_scale


#: Survival and σ = min(0.85 · survival, SIGMA_MAX) at the default M2/P2
#: threshold (α = 3, no lead-time change), recorded with scipy's ndtr.
_DEFAULT_SIGMA_HEX = {
    "CHIMERA": ("0x1.17b66a97c8fb1p-1", "0x1.db82e8686f446p-2"),
    "GYRO": ("0x1.0000000000000p+0", "0x1.b333333333333p-1"),
    "POP": ("0x1.0000000000000p+0", "0x1.b333333333333p-1"),
    "S3D": ("0x1.f96fd03a5065bp-1", "0x1.ad9f0a97f789ap-1"),
    "VULCAN": ("0x1.0000000000000p+0", "0x1.b333333333333p-1"),
    "XGC": ("0x1.8ebab361b6b9ep-1", "0x1.52eb7edfdb513p-1"),
}

#: sha256 of the space-joined survival hexes over every app × Fig 6c α ×
#: Table II/IV lead-time change (150 values), recorded with scipy's ndtr.
_GRID_SHA256 = "1d6a1d431814d7aa57e6126faa6fc77b5550779430c2b6a8fbf0fb3d5758bc96"


class TestSigmaBitsPinned:
    def test_default_threshold_sigma(self):
        got = {}
        for name, app in sorted(APPLICATIONS.items()):
            s = PAPER_LEAD_TIME_MODEL.survival(_theta(app, 3.0, 0.0))
            got[name] = (s.hex(), min(0.85 * s, SIGMA_MAX).hex())
        assert got == _DEFAULT_SIGMA_HEX

    def test_threshold_grid_scalar_and_array(self):
        thetas = [_theta(app, alpha, change)
                  for _, app in sorted(APPLICATIONS.items())
                  for alpha in DEFAULT_ALPHAS for change in DEFAULT_CHANGES]
        assert len(thetas) == 150
        scalar = [PAPER_LEAD_TIME_MODEL.survival(t).hex() for t in thetas]
        array = [v.hex() for v in PAPER_LEAD_TIME_MODEL.survival(
            np.array(thetas)).tolist()]
        assert array == scalar
        digest = hashlib.sha256(" ".join(scalar).encode()).hexdigest()
        assert digest == _GRID_SHA256
