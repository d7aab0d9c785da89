"""Per-tenant SLOs computed from service job records.

The service (PR 7) admits jobs for many tenants; this module turns its
job records into per-tenant service-level indicators over a rolling
window — job latency p50/p99 (submit → finish), queue wait p50/p99
(submit → start), error rate, and mean cache-hit rate — and grades
them against configurable objectives with a **burn rate** per
objective (observed / budget; ≥ 1.0 means the objective is being
violated right now).  Status is the worst objective's grade:

    ok       every burn rate < 0.5
    warn     some burn rate in [0.5, 1.0)
    breach   some burn rate ≥ 1.0

Inputs are plain :data:`~repro.service.jobs.JOB_FIELDS`-shaped dicts,
so the same code serves both the **live** path (the service's
``/metrics`` exposition renders labeled ``pckpt_tenant_*`` series via
:func:`render_slo_metrics` from its live jobs and the fields it keeps of
the jobs it finished inside the window) and the **offline**
path (``pckpt obs slo <store>`` loads the job records the service
appends to its journal, ``<store>/service/journal/``).

Rows follow the declarative-table convention (:data:`SLO_FIELDS`,
``SLO_SCHEMA_VERSION``) shared with ``docs/OBSERVABILITY.md`` and
``tools/check_schemas.py``.  Everything here is stdlib-only.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .journal import read_journal

__all__ = [
    "SLO_SCHEMA_VERSION",
    "SLO_KIND",
    "SLO_FIELDS",
    "SLO_STATUSES",
    "DEFAULT_WINDOW_SECONDS",
    "SLOObjectives",
    "compute_slo",
    "load_job_records",
    "render_slo_metrics",
    "format_slo",
]

#: Schema version stamped on every SLO row (bump on layout change).
SLO_SCHEMA_VERSION: int = 1

#: Record discriminator for SLO rows.
SLO_KIND: str = "pckpt-slo"

#: Default rolling window over job records.
DEFAULT_WINDOW_SECONDS: float = 3600.0

#: Worst-objective grades, in increasing severity.
SLO_STATUSES = ("ok", "warn", "breach")

#: SLO-row fields: ``{name: (type, nullable)}`` — the single source of
#: truth shared with ``tools/check_schemas.py`` and the docs.
#: Quantile indicators are null until at least one job reaches the
#: needed lifecycle point inside the window; burn rates are null when
#: the matching objective is unset.
SLO_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "tenant": (str, False),
    "window_seconds": (float, False),
    "jobs_total": (int, False),
    "jobs_done": (int, False),
    "jobs_failed": (int, False),
    "latency_p50_seconds": (float, True),
    "latency_p99_seconds": (float, True),
    "queue_wait_p50_seconds": (float, True),
    "queue_wait_p99_seconds": (float, True),
    "error_rate": (float, False),
    "cache_hit_rate": (float, True),
    "objective_latency_p99_seconds": (float, True),
    "objective_error_rate": (float, True),
    "latency_burn_rate": (float, True),
    "error_burn_rate": (float, True),
    "status": (str, False),
}


class SLOObjectives:
    """Per-tenant objectives (one set applies to every tenant).

    ``latency_p99_seconds``: p99 job latency must stay below this.
    ``error_rate``: the error budget — fraction of terminal jobs
    allowed to fail.  Either may be ``None`` (unset: the matching burn
    rate is null and cannot breach).
    """

    __slots__ = ("latency_p99_seconds", "error_rate")

    def __init__(self, latency_p99_seconds: Optional[float] = None,
                 error_rate: Optional[float] = None) -> None:
        for label, value in (("latency_p99_seconds", latency_p99_seconds),
                             ("error_rate", error_rate)):
            if value is not None and float(value) <= 0.0:
                raise ValueError(f"{label} objective must be > 0, "
                                 f"got {value!r}")
        self.latency_p99_seconds = latency_p99_seconds
        self.error_rate = error_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SLOObjectives(latency_p99_seconds="
                f"{self.latency_p99_seconds!r}, "
                f"error_rate={self.error_rate!r})")


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample (0 ≤ q ≤ 1)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def _burn(observed: Optional[float],
          objective: Optional[float]) -> Optional[float]:
    if observed is None or objective is None:
        return None
    return float(observed) / float(objective)


def compute_slo(records: Sequence[Dict[str, object]],
                window_seconds: float = DEFAULT_WINDOW_SECONDS,
                objectives: Optional[SLOObjectives] = None,
                now: Optional[float] = None) -> List[Dict[str, object]]:
    """One :data:`SLO_FIELDS` row per tenant seen inside the window.

    *records* are job records (``JOB_FIELDS`` shape).  A job is in the
    window when its reference time — ``finished_at`` for terminal
    jobs, ``submitted_at`` otherwise — is within *window_seconds* of
    *now* (default: the newest reference time across *records*, so
    offline analysis of old artifacts sees its own "now").  Rows are
    sorted by tenant.
    """
    objectives = objectives or SLOObjectives()
    refs = [
        float(rec.get("finished_at") or rec.get("submitted_at") or 0.0)
        for rec in records
    ]
    if now is None:
        now = max(refs) if refs else time.time()
    cutoff = now - float(window_seconds)

    by_tenant: Dict[str, List[Dict[str, object]]] = {}
    for rec, ref in zip(records, refs):
        if ref < cutoff:
            continue
        by_tenant.setdefault(str(rec.get("tenant", "anonymous")),
                             []).append(rec)

    rows: List[Dict[str, object]] = []
    for tenant in sorted(by_tenant):
        jobs = by_tenant[tenant]
        done = [j for j in jobs if j.get("state") == "done"]
        failed = [j for j in jobs if j.get("state") == "failed"]
        latencies = [
            float(j["finished_at"]) - float(j["submitted_at"])
            for j in done + failed
            if j.get("finished_at") is not None
            and j.get("submitted_at") is not None
        ]
        waits = [
            float(j["started_at"]) - float(j["submitted_at"])
            for j in jobs
            if j.get("started_at") is not None
            and j.get("submitted_at") is not None
        ]
        hits = [
            float(j["cache_hit_rate"]) for j in done
            if j.get("cache_hit_rate") is not None
        ]
        terminal = len(done) + len(failed)
        error_rate = (len(failed) / terminal) if terminal else 0.0
        latency_p99 = _percentile(latencies, 0.99) if latencies else None
        latency_burn = _burn(latency_p99, objectives.latency_p99_seconds)
        error_burn = _burn(error_rate if terminal else None,
                           objectives.error_rate)
        burns = [b for b in (latency_burn, error_burn) if b is not None]
        if any(b >= 1.0 for b in burns):
            status = "breach"
        elif any(b >= 0.5 for b in burns):
            status = "warn"
        else:
            status = "ok"
        rows.append({
            "kind": SLO_KIND,
            "schema_version": SLO_SCHEMA_VERSION,
            "tenant": tenant,
            "window_seconds": float(window_seconds),
            "jobs_total": len(jobs),
            "jobs_done": len(done),
            "jobs_failed": len(failed),
            "latency_p50_seconds":
                _percentile(latencies, 0.50) if latencies else None,
            "latency_p99_seconds": latency_p99,
            "queue_wait_p50_seconds":
                _percentile(waits, 0.50) if waits else None,
            "queue_wait_p99_seconds":
                _percentile(waits, 0.99) if waits else None,
            "error_rate": error_rate,
            "cache_hit_rate":
                (sum(hits) / len(hits)) if hits else None,
            "objective_latency_p99_seconds":
                objectives.latency_p99_seconds,
            "objective_error_rate": objectives.error_rate,
            "latency_burn_rate": latency_burn,
            "error_burn_rate": error_burn,
            "status": status,
        })
    return rows


def load_job_records(store_root: Union[str, Path]
                     ) -> List[Dict[str, object]]:
    """Each job's newest record in the store's service journal.

    Sorted by ``submitted_at`` (undecodable lines are skipped — a
    service may be appending concurrently).
    """
    newest: Dict[object, Dict[str, object]] = {}
    for record in read_journal(store_root):
        if record.get("kind") == "pckpt-job":
            newest[record.get("id")] = record
    return sorted(newest.values(),
                  key=lambda rec: rec.get("submitted_at") or 0.0)


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def render_slo_metrics(rows: Sequence[Dict[str, object]]) -> List[str]:
    """OpenMetrics lines for the labeled per-tenant series.

    Returns lines **without** the ``# EOF`` terminator — the caller
    (the service's ``/metrics`` renderer, or ``pckpt obs slo
    --openmetrics``) owns exposition framing.
    """
    lines: List[str] = []

    def family(name: str, metric_type: str = "gauge") -> None:
        lines.append(f"# TYPE {name} {metric_type}")

    family("pckpt_tenant_jobs")
    for row in rows:
        tenant = _escape(str(row["tenant"]))
        for state, count in (("done", row["jobs_done"]),
                             ("failed", row["jobs_failed"]),
                             ("active",
                              int(row["jobs_total"]) - int(row["jobs_done"])
                              - int(row["jobs_failed"]))):
            lines.append(
                f'pckpt_tenant_jobs{{tenant="{tenant}",state="{state}"}} '
                f"{int(count)}"
            )
    for metric, p50_key, p99_key in (
        ("pckpt_tenant_job_latency_seconds",
         "latency_p50_seconds", "latency_p99_seconds"),
        ("pckpt_tenant_queue_wait_seconds",
         "queue_wait_p50_seconds", "queue_wait_p99_seconds"),
    ):
        family(metric)
        for row in rows:
            tenant = _escape(str(row["tenant"]))
            for quantile, key in (("0.5", p50_key), ("0.99", p99_key)):
                value = row[key]
                if value is None:
                    continue
                lines.append(
                    f'{metric}{{tenant="{tenant}",quantile="{quantile}"}} '
                    f"{float(value):g}"
                )
    family("pckpt_tenant_error_rate")
    for row in rows:
        lines.append(
            f'pckpt_tenant_error_rate{{tenant="{_escape(str(row["tenant"]))}"}} '
            f"{float(row['error_rate']):g}"
        )
    family("pckpt_tenant_cache_hit_rate")
    for row in rows:
        if row["cache_hit_rate"] is None:
            continue
        lines.append(
            f'pckpt_tenant_cache_hit_rate{{tenant="{_escape(str(row["tenant"]))}"}} '
            f"{float(row['cache_hit_rate']):g}"
        )
    family("pckpt_tenant_slo_burn_rate")
    for row in rows:
        tenant = _escape(str(row["tenant"]))
        for objective, key in (("latency_p99", "latency_burn_rate"),
                               ("error_rate", "error_burn_rate")):
            value = row[key]
            if value is None:
                continue
            lines.append(
                f'pckpt_tenant_slo_burn_rate{{tenant="{tenant}",'
                f'objective="{objective}"}} {float(value):g}'
            )
    family("pckpt_tenant_slo_status")
    for row in rows:
        tenant = _escape(str(row["tenant"]))
        for status in SLO_STATUSES:
            flag = 1 if row["status"] == status else 0
            lines.append(
                f'pckpt_tenant_slo_status{{tenant="{tenant}",'
                f'status="{status}"}} {flag}'
            )
    return lines


def _fmt(value: Optional[float], suffix: str = "s") -> str:
    return "--" if value is None else f"{float(value):.2f}{suffix}"


def format_slo(rows: Sequence[Dict[str, object]]) -> str:
    """Terminal table for ``pckpt obs slo`` (one line per tenant)."""
    if not rows:
        return "pckpt obs slo: no job records (has the service run?)"
    header = (f"{'TENANT':<16} {'JOBS':>5} {'DONE':>5} {'FAIL':>5} "
              f"{'LAT p50':>9} {'LAT p99':>9} {'WAIT p99':>9} "
              f"{'ERR':>6} {'HIT':>6} {'BURN':>6} STATUS")
    out = [header]
    for row in rows:
        burns = [b for b in (row["latency_burn_rate"],
                             row["error_burn_rate"]) if b is not None]
        burn = f"{max(burns):.2f}" if burns else "--"
        hit = row["cache_hit_rate"]
        out.append(
            f"{str(row['tenant']):<16} {row['jobs_total']:>5} "
            f"{row['jobs_done']:>5} {row['jobs_failed']:>5} "
            f"{_fmt(row['latency_p50_seconds']):>9} "
            f"{_fmt(row['latency_p99_seconds']):>9} "
            f"{_fmt(row['queue_wait_p99_seconds']):>9} "
            f"{float(row['error_rate']):>6.2f} "
            f"{('--' if hit is None else f'{float(hit):.2f}'):>6} "
            f"{burn:>6} {row['status']}"
        )
    return "\n".join(out)
