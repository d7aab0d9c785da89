"""Unit tests for the PFS performance-model backends."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iomodel.bandwidth import GiB, MiB
from repro.iomodel.calibration import run_weak_scaling_sweep
from repro.iomodel.matrix import AnalyticPFSModel, MatrixPFSModel, PFSModel


class TestAnalyticPFSModel:
    def test_is_pfs_model(self):
        assert isinstance(AnalyticPFSModel(), PFSModel)

    def test_zero_bytes_zero_time(self):
        assert AnalyticPFSModel().write_time(100, 0.0) == 0.0

    def test_write_time_scaling(self):
        m = AnalyticPFSModel()
        t1 = m.write_time(1, 64 * GiB)
        t2 = m.write_time(1, 128 * GiB)
        # Large transfers: time roughly doubles with size (same bandwidth).
        assert 1.8 < t2 / t1 < 2.2

    def test_read_equals_write(self):
        m = AnalyticPFSModel()
        assert m.read_time(16, 4 * GiB) == m.write_time(16, 4 * GiB)

    def test_invalid_inputs(self):
        m = AnalyticPFSModel()
        with pytest.raises(ValueError):
            m.write_bandwidth(0, 1 * GiB)
        with pytest.raises(ValueError):
            m.write_bandwidth(1, -1.0)

    def test_aggregate_slower_per_node_at_scale(self):
        """Per-node effective bandwidth drops at scale (saturation)."""
        m = AnalyticPFSModel()
        t_one = m.write_time(1, 64 * GiB)
        t_many = m.write_time(2048, 64 * GiB)
        assert t_many > t_one * 10


class TestMatrixPFSModel:
    def test_matches_analytic_on_grid(self):
        m_an = AnalyticPFSModel()
        m_mx = MatrixPFSModel()  # noiseless default grid
        for nodes in (1, 8, 128, 1024):
            for size in (1 * GiB, 16 * GiB, 256 * GiB):
                t_a = m_an.write_time(nodes, size)
                t_m = m_mx.write_time(nodes, size)
                assert t_m == pytest.approx(t_a, rel=0.02)

    def test_interpolates_off_grid(self):
        m_an = AnalyticPFSModel()
        m_mx = MatrixPFSModel()
        t_a = m_an.write_time(100, 10 * GiB)
        t_m = m_mx.write_time(100, 10 * GiB)
        assert t_m == pytest.approx(t_a, rel=0.15)

    def test_clamps_beyond_grid(self):
        m = MatrixPFSModel()
        big = m.write_bandwidth(100_000, 300 * GiB)
        edge = m.write_bandwidth(4096, 256 * GiB)
        assert big == pytest.approx(edge, rel=0.05)

    def test_noisy_matrix_still_reasonable(self):
        sweep = run_weak_scaling_sweep(np.random.default_rng(3))
        m_mx = MatrixPFSModel(sweep)
        m_an = AnalyticPFSModel()
        t_m = m_mx.write_time(512, 64 * GiB)
        t_a = m_an.write_time(512, 64 * GiB)
        assert t_m == pytest.approx(t_a, rel=0.3)

    def test_zero_bytes_zero_time(self):
        assert MatrixPFSModel().write_time(4, 0.0) == 0.0

    def test_invalid_queries(self):
        m = MatrixPFSModel()
        with pytest.raises(ValueError):
            m.write_bandwidth(0, 1 * GiB)
        with pytest.raises(ValueError):
            m.write_bandwidth(4, 0.0)


#: ``(nnodes, bytes_per_node, write_bandwidth.hex(), write_time.hex())`` of
#: the noiseless default matrix.  The grid spans 1..4096 nodes and
#: 1 MiB..256 GiB, so the 0.5 MiB, 1 TiB and 100 000-node rows are clamped.
_MATRIX_GOLDEN = (
    (1, 0.5 * MiB, "0x1.a94a3a30f63e1p+27", "0x1.3431c71c71c6ap-9"),
    (1, 1 * MiB, "0x1.a94a3a30f63e1p+27", "0x1.3431c71c71c6ap-8"),
    (1, 10 * GiB, "0x1.a8840e2a4fc13p+33", "0x1.81f20f98b69d0p-1"),
    (1, 256 * GiB, "0x1.abb7f893073d4p+33", "0x1.3271c71c71c74p+4"),
    (1, 1024 * GiB, "0x1.abb7f893073d4p+33", "0x1.3271c71c71c74p+6"),
    (3, 0.5 * MiB, "0x1.3edd103e74d02p+29", "0x1.344b7e9a62184p-9"),
    (3, 1 * MiB, "0x1.3edd103e74d02p+29", "0x1.344b7e9a62184p-8"),
    (3, 10 * GiB, "0x1.37e7ceb3e2bdap+35", "0x1.89f729e04d7f0p-1"),
    (3, 256 * GiB, "0x1.3a35ebe5e6f3fp+35", "0x1.38dc35e751d95p+4"),
    (3, 1024 * GiB, "0x1.3a35ebe5e6f3fp+35", "0x1.38dc35e751d95p+6"),
    (100, 0.5 * MiB, "0x1.4723e6485d485p+34", "0x1.3903ff20229c6p-9"),
    (100, 1 * MiB, "0x1.4723e6485d485p+34", "0x1.3903ff20229c6p-8"),
    (100, 10 * GiB, "0x1.4f87930ee76a6p+39", "0x1.7d7c89b1091adp+0"),
    (100, 256 * GiB, "0x1.50d293ca2a703p+39", "0x1.300483a595cd2p+5"),
    (100, 1024 * GiB, "0x1.50d293ca2a703p+39", "0x1.300483a595cd2p+7"),
    (4096, 0.5 * MiB, "0x1.075075075074ep+39", "0x1.f1c71c71c71ccp-9"),
    (4096, 1 * MiB, "0x1.075075075074ep+39", "0x1.f1c71c71c71ccp-8"),
    (4096, 10 * GiB, "0x1.511b1f8d6bd94p+40", "0x1.e604f13ea560fp+4"),
    (4096, 256 * GiB, "0x1.512b317ec0fadp+40", "0x1.84be38e38e384p+9"),
    (4096, 1024 * GiB, "0x1.512b317ec0fadp+40", "0x1.84be38e38e384p+11"),
    (100_000, 0.5 * MiB, "0x1.075075075074ep+39", "0x1.7bc638e38e392p-4"),
    (100_000, 1 * MiB, "0x1.075075075074ep+39", "0x1.7bc638e38e392p-3"),
    (100_000, 10 * GiB, "0x1.511b1f8d6bd94p+40", "0x1.72cda54e1b8c8p+9"),
    (100_000, 256 * GiB, "0x1.512b317ec0fadp+40", "0x1.289660c71c714p+14"),
    (100_000, 1024 * GiB, "0x1.512b317ec0fadp+40", "0x1.289660c71c714p+16"),
)


class TestMatrixBackendPinned:
    def test_values_bit_identical(self):
        m = MatrixPFSModel()
        for nodes, size, bw_hex, t_hex in _MATRIX_GOLDEN:
            assert m.write_bandwidth(nodes, size).hex() == bw_hex, (nodes, size)
            assert m.write_time(nodes, size).hex() == t_hex, (nodes, size)

    def test_scipy_interpolate_loads_only_when_built(self, run_python):
        """The default analytic backend never pays for scipy.interpolate."""
        proc = run_python(
            "import sys\n"
            "import repro.iomodel\n"
            "print('scipy.interpolate' in sys.modules)\n"
            "repro.iomodel.MatrixPFSModel()\n"
            "print('scipy.interpolate' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


@given(
    nodes=st.integers(min_value=1, max_value=8192),
    size=st.floats(min_value=1 * MiB, max_value=512 * GiB),
)
@settings(max_examples=200, deadline=None)
def test_write_time_positive_and_finite(nodes, size):
    """Both backends must return positive finite times everywhere."""
    for model in (AnalyticPFSModel(), _SHARED_MATRIX):
        t = model.write_time(nodes, size)
        assert np.isfinite(t)
        assert t > 0.0


@given(
    nodes=st.integers(min_value=1, max_value=4096),
    size=st.floats(min_value=64 * MiB, max_value=128 * GiB),
    factor=st.floats(min_value=1.1, max_value=8.0),
)
@settings(max_examples=100, deadline=None)
def test_write_time_monotone_in_bytes(nodes, size, factor):
    """More data never takes less time."""
    m = AnalyticPFSModel()
    assert m.write_time(nodes, size * factor) > m.write_time(nodes, size)


#: Module-level to avoid rebuilding the interpolator per hypothesis example.
_SHARED_MATRIX = MatrixPFSModel()
