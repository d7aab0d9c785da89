"""Unit tests for per-tenant SLO grading (repro.obs.slo)."""

from __future__ import annotations

import json

import pytest

from repro.obs.journal import journal_dir
from repro.obs.slo import (
    SLO_FIELDS,
    SLO_KIND,
    SLO_SCHEMA_VERSION,
    SLO_STATUSES,
    SLOObjectives,
    compute_slo,
    format_slo,
    load_job_records,
    render_slo_metrics,
)


def job(tenant="acme", state="done", submitted=0.0, started=1.0,
        finished=11.0, hit=None):
    """A minimal job record (JOB_FIELDS shape, fields the SLO layer reads)."""
    return {
        "tenant": tenant,
        "state": state,
        "submitted_at": submitted,
        "started_at": started if state != "queued" else None,
        "finished_at": finished if state in ("done", "failed") else None,
        "cache_hit_rate": hit,
    }


class TestComputeSlo:
    def test_row_shape_matches_declared_fields(self):
        rows = compute_slo([job()], window_seconds=100.0)
        assert len(rows) == 1
        row = rows[0]
        assert set(row) == set(SLO_FIELDS)
        assert row["kind"] == SLO_KIND
        assert row["schema_version"] == SLO_SCHEMA_VERSION
        assert row["tenant"] == "acme"
        assert row["latency_p50_seconds"] == pytest.approx(11.0)
        assert row["queue_wait_p99_seconds"] == pytest.approx(1.0)
        assert row["status"] in SLO_STATUSES

    def test_rows_sorted_by_tenant(self):
        rows = compute_slo([job(tenant="zeta"), job(tenant="acme")],
                           window_seconds=100.0)
        assert [r["tenant"] for r in rows] == ["acme", "zeta"]

    def test_window_excludes_old_jobs(self):
        old = job(submitted=0.0, finished=10.0)
        new = job(submitted=1000.0, started=1001.0, finished=1010.0)
        rows = compute_slo([old, new], window_seconds=50.0)
        assert rows[0]["jobs_total"] == 1  # only the new one

    def test_window_reference_defaults_to_newest(self):
        # offline analysis of an old artifact sees its own "now"
        rows = compute_slo([job(submitted=0.0, finished=10.0)],
                           window_seconds=5.0)
        assert rows and rows[0]["jobs_total"] == 1

    def test_active_jobs_counted_without_latency(self):
        rows = compute_slo([job(state="running", finished=None)],
                           window_seconds=100.0)
        row = rows[0]
        assert row["jobs_total"] == 1
        assert row["jobs_done"] == row["jobs_failed"] == 0
        assert row["latency_p99_seconds"] is None
        assert row["error_rate"] == 0.0

    def test_error_rate_over_terminal_jobs(self):
        rows = compute_slo(
            [job(), job(state="failed"), job(state="running",
                                             finished=None)],
            window_seconds=100.0,
        )
        assert rows[0]["error_rate"] == pytest.approx(0.5)

    def test_cache_hit_rate_mean_over_done(self):
        rows = compute_slo([job(hit=1.0), job(hit=0.5),
                            job(state="failed", hit=0.0)],
                           window_seconds=100.0)
        assert rows[0]["cache_hit_rate"] == pytest.approx(0.75)

    def test_burn_rates_and_status_grading(self):
        objectives = SLOObjectives(latency_p99_seconds=20.0)
        # latency 11s vs objective 20s -> burn 0.55 -> warn
        rows = compute_slo([job()], window_seconds=100.0,
                           objectives=objectives)
        assert rows[0]["latency_burn_rate"] == pytest.approx(0.55)
        assert rows[0]["status"] == "warn"
        # latency 11s vs objective 10s -> burn 1.1 -> breach
        rows = compute_slo([job()], window_seconds=100.0,
                           objectives=SLOObjectives(latency_p99_seconds=10.0))
        assert rows[0]["status"] == "breach"
        # no objectives -> no burns -> ok
        rows = compute_slo([job(state="failed")], window_seconds=100.0)
        assert rows[0]["latency_burn_rate"] is None
        assert rows[0]["status"] == "ok"

    def test_error_burn(self):
        rows = compute_slo([job(), job(state="failed")],
                           window_seconds=100.0,
                           objectives=SLOObjectives(error_rate=0.25))
        assert rows[0]["error_burn_rate"] == pytest.approx(2.0)
        assert rows[0]["status"] == "breach"

    def test_empty_records(self):
        assert compute_slo([], window_seconds=100.0) == []

    def test_objectives_validate(self):
        with pytest.raises(ValueError):
            SLOObjectives(latency_p99_seconds=0.0)
        with pytest.raises(ValueError):
            SLOObjectives(error_rate=-1.0)


class TestLoadJobRecords:
    @staticmethod
    def _journal(store, *lines):
        segment = journal_dir(store) / f"{0:020d}.ndjson"
        segment.parent.mkdir(parents=True)
        segment.write_bytes(b"".join(lines))

    def test_loads_and_sorts_persisted_records(self, tmp_path):
        """Each job's newest journaled record, by submit time."""
        records = [dict(job(submitted=submitted, finished=finished),
                        kind="pckpt-job", id=f"j{i}")
                   for i, submitted, finished in ((0, 5.0, None),
                                                  (1, 1.0, 11.0),
                                                  (0, 5.0, 15.0))]
        self._journal(tmp_path, *(json.dumps(r).encode() + b"\n"
                                  for r in records))
        loaded = load_job_records(tmp_path)
        assert [r["submitted_at"] for r in loaded] == [1.0, 5.0]
        assert loaded[1]["finished_at"] == 15.0

    def test_skips_unreadable_files(self, tmp_path):
        self._journal(tmp_path, b"{ torn\n", b'{"kind": "pckpt-job", "id"')
        assert load_job_records(tmp_path) == []

    def test_missing_store_is_empty(self, tmp_path):
        assert load_job_records(tmp_path / "nope") == []


class TestRendering:
    def test_openmetrics_series_labeled_by_tenant(self):
        rows = compute_slo([job(), job(tenant="zeta", state="failed")],
                           window_seconds=100.0,
                           objectives=SLOObjectives(error_rate=0.5))
        lines = render_slo_metrics(rows)
        text = "\n".join(lines)
        assert "# EOF" not in text  # framing is the caller's job
        assert '# TYPE pckpt_tenant_jobs gauge' in text
        assert 'pckpt_tenant_jobs{tenant="acme",state="done"} 1' in text
        assert ('pckpt_tenant_job_latency_seconds{tenant="acme",'
                'quantile="0.99"}') in text
        assert 'pckpt_tenant_error_rate{tenant="zeta"} 1' in text
        assert ('pckpt_tenant_slo_burn_rate{tenant="zeta",'
                'objective="error_rate"} 2') in text
        # one-hot status per tenant
        assert 'pckpt_tenant_slo_status{tenant="zeta",status="breach"} 1' \
            in text
        assert 'pckpt_tenant_slo_status{tenant="zeta",status="ok"} 0' in text

    def test_openmetrics_escapes_label_values(self):
        rows = compute_slo([job(tenant='we"ird\\ten\nant')],
                           window_seconds=100.0)
        text = "\n".join(render_slo_metrics(rows))
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_format_slo_table(self):
        rows = compute_slo([job()], window_seconds=100.0)
        text = format_slo(rows)
        assert "acme" in text and "TENANT" in text and "ok" in text

    def test_format_slo_empty(self):
        assert "no job records" in format_slo([])
