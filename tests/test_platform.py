"""Unit tests for the platform models (node, BB, interconnect, PFS, system)."""

from __future__ import annotations

import pytest

from repro.iomodel.bandwidth import GiB, TiB
from repro.platform import (
    SUMMIT,
    BurstBufferSpec,
    InterconnectSpec,
    NodeSpec,
    PFSSpec,
    PlatformSpec,
)


class TestBurstBuffer:
    def test_summit_defaults(self):
        bb = BurstBufferSpec()
        assert bb.capacity_bytes == pytest.approx(1.6 * TiB)
        assert bb.write_bw == pytest.approx(2.1 * GiB)
        assert bb.read_bw == pytest.approx(5.5 * GiB)

    def test_write_read_times(self):
        bb = BurstBufferSpec()
        assert bb.write_time(2.1 * GiB) == pytest.approx(1.0)
        assert bb.read_time(5.5 * GiB) == pytest.approx(1.0)
        assert bb.read_time(0) == 0.0

    def test_fits(self):
        bb = BurstBufferSpec()
        assert bb.fits(0.5 * TiB, copies=2)
        assert not bb.fits(1.0 * TiB, copies=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstBufferSpec(capacity_bytes=0)
        with pytest.raises(ValueError):
            BurstBufferSpec(write_bw=-1)
        with pytest.raises(ValueError):
            BurstBufferSpec().write_time(-5)


class TestInterconnect:
    def test_transfer_time(self):
        ic = InterconnectSpec()
        assert ic.transfer_time(12.5 * GiB) == pytest.approx(1.0, rel=1e-3)
        assert ic.transfer_time(0) == 0.0

    def test_barrier_scales_logarithmically(self):
        ic = InterconnectSpec()
        t2048 = ic.barrier_time(2048)
        t4096 = ic.barrier_time(4096)
        assert t4096 > t2048
        # ~8 microseconds at 2048 nodes, per the paper's measurement.
        assert 1e-6 < t2048 < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            InterconnectSpec(node_bw=0)
        with pytest.raises(ValueError):
            InterconnectSpec().transfer_time(-1)
        with pytest.raises(ValueError):
            InterconnectSpec().barrier_time(0)


class TestNode:
    def test_defaults(self):
        node = NodeSpec()
        assert node.dram_bytes == pytest.approx(512 * GiB)
        assert node.cores == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(dram_bytes=0)
        with pytest.raises(ValueError):
            NodeSpec(cores=0)


class TestPFSSpec:
    def test_drain_concurrency(self):
        pfs = PFSSpec()
        assert pfs.drain_concurrency(4) == 4          # capped at job size
        assert pfs.drain_concurrency(50) == 8         # floor
        assert pfs.drain_concurrency(2272) == 227     # 10%

    def test_drain_time_waves(self):
        pfs = PFSSpec(drain_fraction=0.5, drain_min_nodes=1)
        # 4 nodes, concurrency 2: two waves of 2.
        t_wave = pfs.model.write_time(2, 8 * GiB)
        assert pfs.drain_time(4, 8 * GiB) == pytest.approx(2 * t_wave)

    def test_drain_time_remainder_wave(self):
        pfs = PFSSpec(drain_fraction=0.5, drain_min_nodes=1)
        # 5 nodes, concurrency 2: 2+2+1.
        t = pfs.drain_time(5, 8 * GiB)
        expected = 2 * pfs.model.write_time(2, 8 * GiB) + pfs.model.write_time(1, 8 * GiB)
        assert t == pytest.approx(expected)

    def test_priority_write_is_single_node(self):
        pfs = PFSSpec()
        assert pfs.priority_write_time(64 * GiB) == pytest.approx(
            pfs.model.write_time(1, 64 * GiB)
        )

    def test_zero_paths(self):
        pfs = PFSSpec()
        assert pfs.proactive_write_time(0, 1 * GiB) == 0.0
        assert pfs.proactive_write_time(8, 0.0) == 0.0
        assert pfs.replacement_read_time(0.0) == 0.0
        assert pfs.full_restore_read_time(0, 1 * GiB) == 0.0
        assert pfs.drain_time(0, 1 * GiB) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PFSSpec(drain_fraction=0.0)
        with pytest.raises(ValueError):
            PFSSpec(drain_min_nodes=0)
        with pytest.raises(ValueError):
            PFSSpec().drain_concurrency(0)


class TestPlatformSpec:
    def test_summit_constants(self):
        assert SUMMIT.total_nodes == 4608
        assert SUMMIT.restart_delay == 60.0
        assert 0.0 <= SUMMIT.lm_slowdown < 0.05

    def test_lm_transfer_alpha_scaling(self):
        t1 = SUMMIT.lm_transfer_time(10 * GiB, alpha=1.0)
        t3 = SUMMIT.lm_transfer_time(10 * GiB, alpha=3.0)
        assert t3 == pytest.approx(3 * t1, rel=1e-3)

    def test_lm_transfer_dram_bound(self):
        """CHIMERA's 3x284 GiB image is capped at the 512 GiB DRAM."""
        bytes_moved = SUMMIT.lm_transfer_bytes(284.5 * GiB, alpha=3.0)
        assert bytes_moved == pytest.approx(512 * GiB)
        # ~41 seconds at 12.5 GiB/s — the Table II M2 cliff position.
        t = SUMMIT.lm_transfer_time(284.5 * GiB)
        assert 40.0 < t < 42.0

    def test_with_pfs_returns_copy(self):
        pfs = PFSSpec(drain_fraction=0.2)
        p2 = SUMMIT.with_pfs(pfs)
        assert p2.pfs.drain_fraction == 0.2
        assert SUMMIT.pfs.drain_fraction == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            PlatformSpec(total_nodes=0)
        with pytest.raises(ValueError):
            PlatformSpec(lm_slowdown=1.5)
        with pytest.raises(ValueError):
            SUMMIT.lm_transfer_bytes(-1.0)
        with pytest.raises(ValueError):
            SUMMIT.lm_transfer_bytes(1.0, alpha=0.0)
