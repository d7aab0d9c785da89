"""Live campaign progress: metrics counters, status lines, telemetry.

The campaign layer reports through the same observability substrate the
simulations use (``docs/OBSERVABILITY.md``):

* a :class:`~repro.des.metrics.MetricsRegistry` holds scheduler counters
  (``campaign.cells.*``, ``campaign.replications.*``,
  ``campaign.shards.*``) — the cache-hit acceptance check reads
  ``campaign.replications.executed`` off this registry;
* an optional :class:`~repro.obs.telemetry.CampaignTelemetry` sink
  receives one streaming snapshot (cells/shards completed, cache hit
  rate, worker utilization, ETA) per scheduler event — the live feed
  behind ``pckpt top`` and ``pckpt campaign status``.

Counter vocabulary
------------------
``campaign.cells.total``         cells in the plan
``campaign.cells.cached``        cells served from the result store
``campaign.cells.executed``      cells computed this run
``campaign.replications.cached``    replications covered by cache hits
``campaign.replications.executed``  replications actually simulated
``campaign.shards.completed``    work units finished
``campaign.shards.retried``      work units re-run serially after a
                                 worker crash
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional, Sequence, Tuple

from ..des.metrics import MetricsRegistry
from ..obs.telemetry import CampaignTelemetry

__all__ = ["CampaignProgress"]


class CampaignProgress:
    """Observer the scheduler notifies as a campaign advances.

    Parameters
    ----------
    metrics:
        Registry receiving the campaign counters (created if omitted, so
        callers can always read ``progress.metrics`` afterwards).
    stream:
        Text stream for one status line per completed/cached cell
        (``None`` = silent; ``pckpt run`` passes stderr).
    telemetry:
        Optional :class:`~repro.obs.telemetry.CampaignTelemetry` sink; a
        schema-versioned snapshot is appended after every scheduler
        event.  ``run_campaign`` attaches one automatically (writing to
        ``<store>/telemetry.jsonl``) when the campaign has a store and
        no sink was supplied — that file is what ``pckpt top`` tails.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 stream: Optional[IO[str]] = None,
                 telemetry: Optional[CampaignTelemetry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stream = stream
        self.telemetry = telemetry
        self._t0 = time.perf_counter()
        self._total_cells = 0
        self._done_cells = 0
        self._total_replications = 0
        self._workers = 0
        self._shards_total = 0
        #: The plan's content keys in cell order, set by
        #: :meth:`campaign_begin` (the store entry behind each result).
        self.keys: Tuple[str, ...] = ()

    # -- campaign lifecycle --------------------------------------------------
    def campaign_begin(self, n_cells: int, n_replications: int,
                       keys: Sequence[str] = ()) -> None:
        self.keys = tuple(keys)
        self._total_cells = n_cells
        self._total_replications = n_replications
        self.metrics.counter("campaign.cells.total").inc(n_cells)
        self._say(f"campaign: {n_cells} cells / {n_replications} replications")
        self._flush_telemetry("running")

    def pool_sized(self, workers: int, n_shards: int) -> None:
        """Scheduler callback: pool width and shard count are known."""
        self._workers = int(workers)
        self._shards_total = int(n_shards)
        self._flush_telemetry("running")

    def campaign_end(self) -> None:
        executed = self.metrics.counter("campaign.replications.executed").value
        cached = self.metrics.counter("campaign.cells.cached").value
        self._say(
            f"campaign: done ({cached:g} cells cached, "
            f"{executed:g} replications executed)"
        )
        self._flush_telemetry("done")
        if self.telemetry is not None:
            self.telemetry.close()

    # -- per-cell ------------------------------------------------------------
    def cell_cached(self, cell) -> None:
        self.metrics.counter("campaign.cells.cached").inc()
        self.metrics.counter("campaign.replications.cached").inc(
            cell.replications
        )
        self._done_cells += 1
        self._say(self._cell_line(cell, "cached"))
        self._flush_telemetry("running")

    def cell_done(self, cell) -> None:
        self.metrics.counter("campaign.cells.executed").inc()
        self._done_cells += 1
        self._say(self._cell_line(cell, "computed"))
        self._flush_telemetry("running")

    # -- per-shard -----------------------------------------------------------
    def shard_done(self, unit, retried: bool = False) -> None:
        self.metrics.counter("campaign.shards.completed").inc()
        self.metrics.counter("campaign.replications.executed").inc(
            unit.replications
        )
        if retried:
            self.metrics.counter("campaign.shards.retried").inc()
        self._flush_telemetry("running")

    def shard_crashed(self, unit, error: BaseException) -> None:
        self._say(
            f"campaign: shard [{unit.rep_start}, {unit.rep_stop}) of cell "
            f"{unit.cell_index} crashed ({error!r}); retrying serially"
        )

    # -- telemetry -----------------------------------------------------------
    def telemetry_snapshot(self, state: str = "running") -> dict:
        """Current scheduler state as a telemetry snapshot dict.

        Counts come straight off the ``campaign.*`` counters; the derived
        operator fields are estimates: ``cache_hit_rate`` is cached
        replications over total, ``eta_seconds`` extrapolates the
        executed-replication rate over what remains (``None`` until the
        first executed replication lands), and ``worker_utilization`` is
        the fraction of pool slots with a shard still available to run.
        """
        m = self.metrics
        cells_cached = int(m.counter("campaign.cells.cached").value)
        cells_executed = int(m.counter("campaign.cells.executed").value)
        reps_cached = int(m.counter("campaign.replications.cached").value)
        reps_executed = int(m.counter("campaign.replications.executed").value)
        shards_completed = int(m.counter("campaign.shards.completed").value)
        shards_retried = int(m.counter("campaign.shards.retried").value)
        elapsed = self._elapsed()
        total_reps = self._total_replications
        remaining = max(total_reps - reps_cached - reps_executed, 0)
        rate = reps_executed / elapsed if elapsed > 0.0 else 0.0
        if state == "done":
            eta: Optional[float] = 0.0
        elif rate > 0.0:
            eta = remaining / rate
        else:
            eta = None
        shards_remaining = max(self._shards_total - shards_completed, 0)
        utilization = (
            min(shards_remaining, self._workers) / self._workers
            if self._workers > 0 and state != "done"
            else 0.0
        )
        return {
            "state": state,
            "elapsed_seconds": elapsed,
            "cells_total": self._total_cells,
            "cells_cached": cells_cached,
            "cells_executed": cells_executed,
            "cells_done": self._done_cells,
            "replications_total": total_reps,
            "replications_cached": reps_cached,
            "replications_executed": reps_executed,
            "shards_total": self._shards_total,
            "shards_completed": shards_completed,
            "shards_retried": shards_retried,
            "workers": self._workers,
            "worker_utilization": utilization,
            "cache_hit_rate": (
                reps_cached / total_reps if total_reps > 0 else 0.0
            ),
            "eta_seconds": eta,
        }

    def _flush_telemetry(self, state: str) -> None:
        if self.telemetry is not None:
            self.telemetry.write(self.telemetry_snapshot(state))

    # -- helpers -------------------------------------------------------------
    def _cell_line(self, cell, how: str) -> str:
        return (
            f"campaign: [{self._done_cells}/{self._total_cells}] "
            f"{cell.key!r} {how} "
            f"({cell.replications} reps, {self._elapsed():.1f}s elapsed)"
        )

    def _elapsed(self) -> float:
        """Wall-clock seconds since this observer was created."""
        return time.perf_counter() - self._t0

    def _say(self, line: str) -> None:
        if self.stream is not None:
            print(line, file=self.stream)
            if self.stream is sys.stderr:  # keep live lines visible
                self.stream.flush()
