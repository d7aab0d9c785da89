"""Callback wall time of the DES kernel's run loop.

Attach a :class:`KernelProfiler` with ``Environment.attach_profiler``
and :meth:`~repro.des.core.Environment.run` adds the perf-counter
seconds its event callbacks take to :attr:`KernelProfiler.wall`.
``Environment.wall_seconds`` minus that is the loop's own dispatch time.
``Environment.step`` does not time anything.

The traced end-to-end benchmark (``benchmarks/e2e/layers.py``) is the
only reader: it splits ``CRSimulation.run`` into kernel dispatch and
model callbacks with it.  ROADMAP item 7, where ``layers.py`` reads the
program's own records, retires this hook.
"""

from __future__ import annotations

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Accumulates the wall seconds spent inside event callbacks."""

    __slots__ = ("wall",)

    def __init__(self) -> None:
        self.wall: float = 0.0

    def total_wall_seconds(self) -> float:
        """Callback wall seconds so far (≤ ``Environment.wall_seconds``)."""
        return self.wall
