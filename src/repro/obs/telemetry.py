"""Live campaign telemetry: streaming JSONL snapshots + OpenMetrics text.

While a campaign runs, :class:`~repro.campaign.progress.CampaignProgress`
pushes a snapshot of the scheduler's state to a :class:`CampaignTelemetry`
sink after every observable event (cell cached/done, shard done/retried,
pool sized, campaign end).  The sink appends one JSON object per line to
``<store>/telemetry.jsonl`` and flushes each line, so a concurrent
``pckpt top`` (or any ``tail -f``) sees progress live.

Snapshot schema (``schema_version`` = :data:`OBS_SCHEMA_VERSION`,
validated by ``tools/check_schemas.py --telemetry``)::

    kind                    "pckpt-telemetry"
    schema_version          2
    seq                     monotonic per-run snapshot counter
    trace_id                request trace id (null when untraced)
    state                   "running" | "done"
    elapsed_seconds         wall seconds since campaign start
    cells_total/_cached/_executed/_done
    replications_total/_cached/_executed
    shards_total/_completed/_retried
    workers                 pool width (0 until the pool is sized)
    worker_utilization      fraction of pool slots with work available
    cache_hit_rate          cached replications / total replications
    eta_seconds             remaining/rate estimate (null before any
                            executed replication lands)

Derived fields are estimates for operators, not accounting: the
deterministic source of truth stays the ``campaign.*`` metrics counters
(``docs/OBSERVABILITY.md``).  :func:`render_openmetrics` turns any
snapshot into an OpenMetrics text exposition for scrape-style ingestion.
"""

from __future__ import annotations

import json
import os
from typing import IO, Callable, Dict, List, Optional, Union

__all__ = [
    "OBS_SCHEMA_VERSION",
    "TELEMETRY_KIND",
    "TELEMETRY_FILENAME",
    "OPENMETRICS_CONTENT_TYPE",
    "CampaignTelemetry",
    "read_telemetry",
    "latest_snapshot",
    "render_openmetrics",
    "format_top",
]

#: Schema version of the telemetry JSONL records (bump on layout change).
#: Version 2 added the nullable ``trace_id`` request-correlation field.
OBS_SCHEMA_VERSION: int = 2

#: Record discriminator, mirroring the bench harness convention.
TELEMETRY_KIND: str = "pckpt-telemetry"

#: File name inside a campaign store's root directory.
TELEMETRY_FILENAME: str = "telemetry.jsonl"

#: The OpenMetrics media type (spec §"ABNF"): expositions MUST be
#: served with the version parameter, and MUST end with ``# EOF``.
OPENMETRICS_CONTENT_TYPE: str = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Snapshot fields, their types, and whether null is allowed — the
#: single source of truth shared with ``tools/check_schemas.py``.
SNAPSHOT_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "seq": (int, False),
    "trace_id": (str, True),
    "state": (str, False),
    "elapsed_seconds": (float, False),
    "cells_total": (int, False),
    "cells_cached": (int, False),
    "cells_executed": (int, False),
    "cells_done": (int, False),
    "replications_total": (int, False),
    "replications_cached": (int, False),
    "replications_executed": (int, False),
    "shards_total": (int, False),
    "shards_completed": (int, False),
    "shards_retried": (int, False),
    "workers": (int, False),
    "worker_utilization": (float, False),
    "cache_hit_rate": (float, False),
    "eta_seconds": (float, True),
}


class CampaignTelemetry:
    """Append-only JSONL snapshot writer (one campaign run = one file).

    Parameters
    ----------
    path_or_fp:
        Target file path (truncated at construction — a telemetry file
        describes exactly one run), an open text stream, or a callable
        that :meth:`write` hands each stamped snapshot to.
    trace_id:
        Request trace id stamped on every snapshot (``None`` for
        untraced local runs); see :mod:`repro.obs.context`.
    """

    def __init__(self,
                 path_or_fp: Union[str, "os.PathLike[str]", IO[str],
                                   Callable[[Dict[str, object]], object]],
                 trace_id: Optional[str] = None) -> None:
        if callable(path_or_fp) or hasattr(path_or_fp, "write"):
            self._fp: IO[str] = path_or_fp  # type: ignore[assignment]
            self._owns_fp = False
            self.path: Optional[str] = None
        else:
            self.path = os.fspath(path_or_fp)
            self._fp = open(self.path, "w", encoding="utf-8")
            self._owns_fp = True
        self.trace_id = trace_id
        self._seq = 0

    def write(self, snapshot: Dict[str, object]) -> Dict[str, object]:
        """Stamp *snapshot* with kind/schema/seq/trace, append it, flush."""
        record = dict(snapshot)
        record["kind"] = TELEMETRY_KIND
        record["schema_version"] = OBS_SCHEMA_VERSION
        record["seq"] = self._seq
        record["trace_id"] = self.trace_id
        self._seq += 1
        if callable(self._fp):
            self._fp(record)
            return record
        self._fp.write(json.dumps(record, separators=(",", ":"),
                                  sort_keys=True))
        self._fp.write("\n")
        self._fp.flush()
        return record

    def close(self) -> None:
        """Close the underlying file (no-op for caller-owned streams)."""
        if self._owns_fp:
            self._fp.close()


def read_telemetry(
    path_or_fp: Union[str, IO[str]]
) -> List[Dict[str, object]]:
    """All snapshots in a telemetry file, oldest first.

    Tolerates a torn final line (the writer may be mid-append).
    """
    def _read(fp: IO[str]) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail: writer still appending
        return out

    if isinstance(path_or_fp, (str, os.PathLike)):
        with open(path_or_fp, "r", encoding="utf-8") as fp:
            return _read(fp)
    return _read(path_or_fp)


def latest_snapshot(path: str) -> Optional[Dict[str, object]]:
    """The most recent snapshot in *path*, or ``None`` (missing/empty)."""
    if not os.path.exists(path):
        return None
    snapshots = read_telemetry(path)
    return snapshots[-1] if snapshots else None


def render_openmetrics(snapshot: Dict[str, object]) -> str:
    """OpenMetrics text exposition of one snapshot.

    Numeric fields become ``pckpt_campaign_<field>`` gauges; the run
    state rides as a label on ``pckpt_campaign_info``.  Ends with the
    mandatory ``# EOF`` terminator.
    """
    lines: List[str] = [
        "# TYPE pckpt_campaign_info gauge",
        f'pckpt_campaign_info{{state="{snapshot.get("state", "unknown")}",'
        f'schema_version="{snapshot.get("schema_version", "?")}"}} 1',
    ]
    for field in sorted(SNAPSHOT_FIELDS):
        if field in ("kind", "state", "schema_version"):
            continue
        value = snapshot.get(field)
        if value is None or isinstance(value, str):
            continue
        name = f"pckpt_campaign_{field}"
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {float(value):g}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = max(float(seconds), 0.0)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def format_top(snapshot: Optional[Dict[str, object]],
               path: Optional[str] = None) -> str:
    """Terminal dashboard for one snapshot (the ``pckpt top`` view)."""
    if snapshot is None:
        where = f" at {path}" if path else ""
        return f"pckpt top: no telemetry{where} (is a campaign running?)"
    cells_total = int(snapshot.get("cells_total", 0) or 0)
    cells_done = int(snapshot.get("cells_done", 0) or 0)
    frac = cells_done / cells_total if cells_total else 0.0
    bar_width = 30
    filled = int(round(frac * bar_width))
    bar = "#" * filled + "-" * (bar_width - filled)
    lines = [
        f"pckpt campaign [{snapshot.get('state', '?')}] "
        f"elapsed {float(snapshot.get('elapsed_seconds', 0.0)):.1f}s "
        f"eta {_fmt_eta(snapshot.get('eta_seconds'))}",  # type: ignore[arg-type]
        f"  cells  [{bar}] {cells_done}/{cells_total} "
        f"({snapshot.get('cells_cached', 0)} cached, "
        f"{snapshot.get('cells_executed', 0)} computed)",
        f"  reps   {snapshot.get('replications_executed', 0)} executed / "
        f"{snapshot.get('replications_cached', 0)} cached / "
        f"{snapshot.get('replications_total', 0)} total "
        f"(cache hit {100.0 * float(snapshot.get('cache_hit_rate', 0.0)):.1f}%)",
        f"  shards {snapshot.get('shards_completed', 0)}/"
        f"{snapshot.get('shards_total', 0)} done, "
        f"{snapshot.get('shards_retried', 0)} retried",
        f"  pool   {snapshot.get('workers', 0)} workers, "
        f"utilization {100.0 * float(snapshot.get('worker_utilization', 0.0)):.0f}%",
    ]
    return "\n".join(lines)
