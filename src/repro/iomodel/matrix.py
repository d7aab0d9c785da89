"""PFS performance models consumed by the C/R simulation.

Two interchangeable backends implement the :class:`PFSModel` protocol:

* :class:`AnalyticPFSModel` — evaluates the closed-form laws of
  :mod:`repro.iomodel.bandwidth` directly.  Deterministic and fast; the
  default for the C/R simulations.
* :class:`MatrixPFSModel` — the paper's actual mechanism: a measured
  (here: synthetically measured) performance matrix over a
  (node count × transfer size) grid, interpolated bilinearly in log-log
  space.  "In our simulation, this performance matrix is used to
  calculate the time required to store checkpoint data in the PFS."

Both expose write/read *time* for an aggregate operation; per the paper we
assume the read matrix equals the write matrix (fsync-purged caches), and
recovery reads involve a single node so they never hit aggregate limits.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .bandwidth import aggregate_bandwidth, single_node_bandwidth
from .calibration import WeakScalingSweep, run_weak_scaling_sweep

__all__ = ["PFSModel", "AnalyticPFSModel", "MatrixPFSModel"]


@runtime_checkable
class PFSModel(Protocol):
    """Interface the C/R models require from a PFS performance model."""

    def write_bandwidth(self, nnodes: int, bytes_per_node: float) -> float:
        """Aggregate write bandwidth (bytes/s) for the given operation."""

    def write_time(self, nnodes: int, bytes_per_node: float) -> float:
        """Seconds for *nnodes* nodes to each write *bytes_per_node*."""

    def read_time(self, nnodes: int, bytes_per_node: float) -> float:
        """Seconds for *nnodes* nodes to each read *bytes_per_node*."""


class AnalyticPFSModel:
    """Closed-form PFS performance model (default backend).

    Parameters
    ----------
    ntasks:
        Writer tasks per node; the C/R model uses the measured optimum (8).
    """

    def __init__(self, ntasks: int = 8) -> None:
        self.ntasks = int(ntasks)
        # A simulation queries the same handful of (nodes, size) cells over
        # and over (fixed app geometry), so results are memoized.  The
        # cache is unbounded but in practice holds a few entries per run.
        self._bw_cache: dict = {}

    def write_bandwidth(self, nnodes: int, bytes_per_node: float) -> float:
        key = (nnodes, bytes_per_node)
        cached = self._bw_cache.get(key)
        if cached is not None:
            return cached
        if nnodes < 1:
            raise ValueError("nnodes must be >= 1")
        if bytes_per_node < 0:
            raise ValueError("bytes_per_node must be non-negative")
        if nnodes == 1:
            bw = float(single_node_bandwidth(bytes_per_node, self.ntasks))
        else:
            bw = float(aggregate_bandwidth(nnodes, bytes_per_node, self.ntasks))
        self._bw_cache[key] = bw
        return bw

    def write_time(self, nnodes: int, bytes_per_node: float) -> float:
        if bytes_per_node == 0:
            return 0.0
        total = nnodes * bytes_per_node
        return total / self.write_bandwidth(nnodes, bytes_per_node)

    # Per Sec. IV the same matrix is assumed for reads.
    def read_time(self, nnodes: int, bytes_per_node: float) -> float:
        return self.write_time(nnodes, bytes_per_node)

    def __repr__(self) -> str:
        return f"AnalyticPFSModel(ntasks={self.ntasks})"


class MatrixPFSModel:
    """Interpolated performance-matrix backend (the paper's mechanism).

    Parameters
    ----------
    sweep:
        A :class:`~repro.iomodel.calibration.WeakScalingSweep`; if omitted a
        noiseless sweep over the default grid is generated.

    Notes
    -----
    Interpolation is bilinear in (log2 nodes, log2 size) over log
    bandwidth, which is smooth and positive by construction.  Queries
    outside the grid are clamped to the grid edge (bandwidth saturates at
    scale, so clamping is the physically sensible extrapolation).
    """

    def __init__(self, sweep: WeakScalingSweep | None = None) -> None:
        # Imported here, its only use: scipy.interpolate drags in
        # scipy.optimize, linalg, sparse, fft and spatial (about 290 modules
        # and 25 MB), which every process on the default analytic backend
        # would otherwise load at start-up.
        from scipy.interpolate import RegularGridInterpolator

        if sweep is None:
            sweep = run_weak_scaling_sweep(rng=None)
        self.sweep = sweep
        nodes = np.asarray(sweep.node_counts, dtype=float)
        sizes = np.asarray(sweep.transfer_sizes, dtype=float)
        if np.any(sweep.bandwidth <= 0):
            raise ValueError("performance matrix must be strictly positive")
        self._log_nodes = np.log2(nodes)
        self._log_sizes = np.log2(sizes)
        self._interp = RegularGridInterpolator(
            (self._log_nodes, self._log_sizes),
            np.log(sweep.bandwidth),
            method="linear",
            bounds_error=False,
            fill_value=None,  # linear extrapolation, then clamped below
        )
        self._node_range = (float(nodes.min()), float(nodes.max()))
        self._size_range = (float(sizes.min()), float(sizes.max()))
        # Memoized per (nnodes, bytes_per_node) query — the interpolator
        # call costs microseconds of numpy machinery per lookup, and a
        # simulation asks for the same few grid cells thousands of times.
        self._bw_cache: dict = {}

    def write_bandwidth(self, nnodes: int, bytes_per_node: float) -> float:
        key = (nnodes, bytes_per_node)
        cached = self._bw_cache.get(key)
        if cached is not None:
            return cached
        if nnodes < 1:
            raise ValueError("nnodes must be >= 1")
        if bytes_per_node <= 0:
            raise ValueError("bytes_per_node must be positive for a bandwidth query")
        n = float(np.clip(nnodes, *self._node_range))
        s = float(np.clip(bytes_per_node, *self._size_range))
        log_bw = self._interp([[np.log2(n), np.log2(s)]])[0]
        bw = float(np.exp(log_bw))
        self._bw_cache[key] = bw
        return bw

    def write_time(self, nnodes: int, bytes_per_node: float) -> float:
        if bytes_per_node == 0:
            return 0.0
        total = nnodes * bytes_per_node
        return total / self.write_bandwidth(nnodes, bytes_per_node)

    def read_time(self, nnodes: int, bytes_per_node: float) -> float:
        return self.write_time(nnodes, bytes_per_node)

    def __repr__(self) -> str:
        return (
            f"MatrixPFSModel(grid={len(self.sweep.node_counts)}x"
            f"{len(self.sweep.transfer_sizes)})"
        )
