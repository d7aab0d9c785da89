"""Campaign telemetry tests (repro.obs.telemetry + progress integration)."""

from __future__ import annotations

import dataclasses
import io
import json
from types import SimpleNamespace

import pytest

from repro.campaign import CellSpec, ResultStore, run_campaign
from repro.campaign.progress import CampaignProgress
from repro.failures.leadtime import PAPER_LEAD_TIME_MODEL
from repro.failures.predictor import DEFAULT_PREDICTOR
from repro.models.registry import get_model
from repro.obs.records import check_record
from repro.obs.telemetry import (
    OBS_SCHEMA_VERSION,
    SNAPSHOT_FIELDS,
    TELEMETRY_FILENAME,
    TELEMETRY_KIND,
    CampaignTelemetry,
    format_top,
    latest_snapshot,
    read_telemetry,
    render_openmetrics,
)
from repro.platform.system import SUMMIT


def _stub_cell(replications=3):
    return SimpleNamespace(key=("B", "TINY"), replications=replications)


def _progress(**kw):
    return CampaignProgress(stream=None, **kw)


# ---------------------------------------------------------------------------
# snapshot schema
# ---------------------------------------------------------------------------
class TestSnapshotSchema:
    def test_written_record_matches_declared_fields_exactly(self):
        buf = io.StringIO()
        sink = CampaignTelemetry(buf)
        progress = _progress(telemetry=sink)
        progress.campaign_begin(2, 12)
        record = json.loads(buf.getvalue().splitlines()[0])
        assert check_record(record, SNAPSHOT_FIELDS, "snapshot") == []

    def test_stamped_envelope(self):
        sink = CampaignTelemetry(io.StringIO())
        record = sink.write(_progress().telemetry_snapshot())
        assert record["kind"] == TELEMETRY_KIND
        assert record["schema_version"] == OBS_SCHEMA_VERSION
        assert record["seq"] == 0

    def test_seq_is_strictly_increasing(self):
        buf = io.StringIO()
        sink = CampaignTelemetry(buf)
        progress = _progress(telemetry=sink)
        progress.campaign_begin(1, 3)
        progress.pool_sized(2, 1)
        progress.cell_cached(_stub_cell())
        progress.campaign_end()
        seqs = [rec["seq"] for rec in read_telemetry(io.StringIO(buf.getvalue()))]
        assert seqs == list(range(len(seqs)))
        assert len(seqs) >= 4


# ---------------------------------------------------------------------------
# writer / reader mechanics
# ---------------------------------------------------------------------------
class TestWriterReader:
    def test_path_round_trip(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        sink = CampaignTelemetry(path)
        sink.write({"state": "running"})
        sink.write({"state": "done"})
        sink.close()
        snaps = read_telemetry(path)
        assert [s["state"] for s in snaps] == ["running", "done"]
        assert latest_snapshot(str(path))["state"] == "done"

    def test_truncates_previous_run_on_construct(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        path.write_text('{"state":"stale","seq":99}\n', encoding="utf-8")
        sink = CampaignTelemetry(path)
        sink.write({"state": "running"})
        sink.close()
        snaps = read_telemetry(path)
        assert len(snaps) == 1
        assert snaps[0]["seq"] == 0

    def test_each_line_is_flushed(self, tmp_path):
        # A concurrent reader (pckpt top) must see a snapshot as soon as
        # write() returns, while the writer still holds the file open.
        path = tmp_path / TELEMETRY_FILENAME
        sink = CampaignTelemetry(path)
        sink.write({"state": "running"})
        assert len(read_telemetry(path)) == 1
        sink.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        sink = CampaignTelemetry(path)
        sink.write({"state": "running"})
        sink.write({"state": "running"})
        sink.close()
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"state":"runn')  # writer mid-append
        snaps = read_telemetry(path)
        assert len(snaps) == 2
        assert latest_snapshot(str(path))["seq"] == 1

    def test_latest_snapshot_missing_or_empty(self, tmp_path):
        assert latest_snapshot(str(tmp_path / "absent.jsonl")) is None
        empty = tmp_path / TELEMETRY_FILENAME
        empty.write_text("", encoding="utf-8")
        assert latest_snapshot(str(empty)) is None


# ---------------------------------------------------------------------------
# derived operator fields
# ---------------------------------------------------------------------------
class TestDerivedFields:
    def test_eta_is_null_until_an_executed_replication_lands(self):
        progress = _progress()
        progress.campaign_begin(2, 12)
        assert progress.telemetry_snapshot("running")["eta_seconds"] is None

    def test_eta_extrapolates_once_work_lands_and_zeroes_when_done(self):
        progress = _progress()
        progress.campaign_begin(2, 12)
        progress.shard_done(SimpleNamespace(replications=6, cell_index=0,
                                            rep_start=0, rep_stop=6))
        running = progress.telemetry_snapshot("running")
        assert running["eta_seconds"] is not None
        assert running["eta_seconds"] >= 0.0
        assert progress.telemetry_snapshot("done")["eta_seconds"] == 0.0

    def test_cache_hit_rate_is_cached_over_total(self):
        progress = _progress()
        progress.campaign_begin(2, 12)
        progress.cell_cached(_stub_cell(replications=6))
        snap = progress.telemetry_snapshot("running")
        assert snap["cache_hit_rate"] == pytest.approx(0.5)
        assert snap["replications_cached"] == 6
        assert snap["cells_done"] == 1

    def test_cache_hit_rate_zero_when_plan_is_empty(self):
        assert _progress().telemetry_snapshot()["cache_hit_rate"] == 0.0

    def test_worker_utilization_tracks_remaining_shards(self):
        progress = _progress()
        progress.campaign_begin(3, 18)
        progress.pool_sized(workers=4, n_shards=6)
        assert progress.telemetry_snapshot("running")[
            "worker_utilization"] == pytest.approx(1.0)
        for _ in range(4):  # 2 shards left < 4 workers -> half idle
            progress.shard_done(SimpleNamespace(replications=3, cell_index=0,
                                                rep_start=0, rep_stop=3))
        assert progress.telemetry_snapshot("running")[
            "worker_utilization"] == pytest.approx(0.5)
        assert progress.telemetry_snapshot("done")["worker_utilization"] == 0.0

    def test_worker_utilization_zero_before_pool_is_sized(self):
        progress = _progress()
        progress.campaign_begin(1, 6)
        assert progress.telemetry_snapshot("running")["worker_utilization"] == 0.0


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------
class TestCampaignIntegration:
    @pytest.fixture
    def cell(self, tiny_app, hot_weibull):
        return CellSpec(
            key=("B", "TINY"), app=tiny_app, model=get_model("B"),
            platform=SUMMIT, weibull=hot_weibull,
            lead_model=PAPER_LEAD_TIME_MODEL, predictor=DEFAULT_PREDICTOR,
            seed=5, replications=4,
        )

    def test_store_campaign_streams_telemetry(self, cell, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign([cell], store=store, workers=1)
        path = store.telemetry_path()
        snaps = read_telemetry(path)
        assert snaps, "campaign with a store must stream telemetry"
        assert [s["seq"] for s in snaps] == list(range(len(snaps)))
        assert all(s["kind"] == TELEMETRY_KIND for s in snaps)
        assert all(s["schema_version"] == OBS_SCHEMA_VERSION for s in snaps)
        final = snaps[-1]
        assert final["state"] == "done"
        assert final["cells_done"] == 1
        assert final["replications_executed"] == 4
        assert final["eta_seconds"] == 0.0

    def test_warm_rerun_reports_full_cache_hit(self, cell, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign([cell], store=store, workers=1)
        run_campaign([cell], store=store, workers=1)
        final = latest_snapshot(str(store.telemetry_path()))
        assert final["state"] == "done"
        assert final["replications_executed"] == 0
        assert final["replications_cached"] == 4
        assert final["cache_hit_rate"] == pytest.approx(1.0)

    def test_traced_campaign_writes_span_fragments(self, cell, tmp_path):
        from repro.obs.context import (activate, mint_context, read_spans,
                                       trace_fragment_dir)

        store = ResultStore(tmp_path / "store")
        ctx = mint_context()
        with activate(ctx):
            run_campaign([cell], store=store, workers=1)
        frag_dir = trace_fragment_dir(store.root, ctx.trace_id)
        assert frag_dir.is_dir()
        spans = []
        for path in sorted(frag_dir.glob("*.jsonl")):
            spans.extend(read_spans(path))
        names = [s["name"] for s in spans]
        assert "campaign.run" in names
        assert names.count("kernel.run") == 4  # one per replication
        assert all(s["trace_id"] == ctx.trace_id for s in spans)
        # every kernel span parents to the campaign.run span
        campaign = next(s for s in spans if s["name"] == "campaign.run")
        kernels = [s for s in spans if s["name"] == "kernel.run"]
        assert {k["parent_id"] for k in kernels} == {campaign["span_id"]}
        # ...and the telemetry stream carries the same trace id
        snaps = read_telemetry(store.telemetry_path())
        assert all(s["trace_id"] == ctx.trace_id for s in snaps)

    def test_untraced_campaign_writes_no_fragments(self, cell, tmp_path):
        """Zero overhead when disabled: no context, no obs/ artifacts."""
        store = ResultStore(tmp_path / "store")
        run_campaign([cell], store=store, workers=1)
        assert not (store.root / "obs").exists()
        final = latest_snapshot(str(store.telemetry_path()))
        assert final["trace_id"] is None

    def test_telemetry_file_validates_against_schema_tool(self, cell,
                                                          tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        store = ResultStore(tmp_path / "store")
        run_campaign([cell], store=store, workers=1)
        repo = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(repo / "tools" / "check_schemas.py"),
             "--telemetry", store.telemetry_path()],
            capture_output=True, text=True, cwd=repo,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
class TestRendering:
    def _snapshot(self, **overrides):
        progress = _progress()
        progress.campaign_begin(2, 12)
        progress.pool_sized(2, 4)
        snap = CampaignTelemetry(io.StringIO()).write(
            progress.telemetry_snapshot("running")
        )
        snap.update(overrides)
        return snap

    def test_openmetrics_exposes_numeric_gauges(self):
        text = render_openmetrics(self._snapshot())
        assert text.endswith("# EOF\n")
        assert 'pckpt_campaign_info{state="running",schema_version="2"} 1' in text
        assert "pckpt_campaign_cells_total 2" in text
        assert "pckpt_campaign_replications_total 12" in text
        assert "# TYPE pckpt_campaign_workers gauge" in text

    def test_openmetrics_skips_null_eta(self):
        text = render_openmetrics(self._snapshot())
        assert "eta_seconds" not in text  # null before any executed rep
        text = render_openmetrics(self._snapshot(eta_seconds=42.0))
        assert "pckpt_campaign_eta_seconds 42" in text

    def test_format_top_dashboard(self):
        snap = self._snapshot(cells_done=1, cells_cached=1,
                              replications_cached=6,
                              cache_hit_rate=0.5, eta_seconds=90.0)
        text = format_top(snap)
        assert "pckpt campaign [running]" in text
        assert "1/2" in text
        assert "cache hit 50.0%" in text
        assert "eta 1.5m" in text

    def test_format_top_without_telemetry(self):
        text = format_top(None, path="/tmp/store/telemetry.jsonl")
        assert "no telemetry" in text
        assert "/tmp/store/telemetry.jsonl" in text
