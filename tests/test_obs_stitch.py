"""Unit tests for multi-process trace stitching (repro.obs.stitch)."""

from __future__ import annotations

import io
import json

from repro.obs.context import SpanWriter, trace_fragment_dir
from repro.obs.journal import Journal, journal_dir
from repro.obs.stitch import (
    collect_trace,
    list_traces,
    resolve_job_trace,
    stitch_chrome,
)

TRACE = "feedc0de11223344"


def append(store, *records):
    """Append *records* to the store's service journal, one line each."""
    journal = Journal(journal_dir(store))
    journal.open()
    try:
        for record in records:
            journal.append(json.dumps(record).encode() + b"\n")
    finally:
        journal.close()


def write_fragments(store, trace_id=TRACE):
    """A plausible three-process span set for one traced request: the
    serve's own spans in its journal, a pool worker's in a fragment."""
    journal = Journal(journal_dir(store))
    journal.open()
    w = SpanWriter(None, trace_id, "service", sink=journal.append)
    w.span("request", 100.0, 110.0, span_id="aaaa0001",
           args={"job_id": "j0"})
    w.span("queue.wait", 100.0, 101.0, parent_id="aaaa0001")
    w.span("execute", 101.0, 110.0, parent_id="aaaa0001",
           span_id="aaaa0002")
    w = SpanWriter(None, trace_id, "campaign/123", sink=journal.append)
    w.span("campaign.run", 101.5, 109.5, parent_id="aaaa0002")
    journal.close()
    frag = trace_fragment_dir(store, trace_id)
    with SpanWriter(frag / "worker-124.jsonl", trace_id, "worker/124") as w:
        w.span("kernel.run", 102.0, 105.0, parent_id="aaaa0002")


def write_job(store, job_id="j0", trace_id=TRACE, with_telemetry=False):
    event = {"kind": "pckpt-job-event", "job_id": job_id,
             "trace_id": trace_id}
    events = [
        dict(event, event="queued", ts=100.0, state="queued", seq=0),
        dict(event, event="done", ts=110.0, state="done", seq=1),
    ]
    if with_telemetry:
        events.insert(1, dict(
            event, event="telemetry", ts=105.0, state="running", seq=5,
            data={"cells_done": 1, "replications_executed": 2,
                  "replications_cached": 0}))
    append(store, *events, {"kind": "pckpt-job", "id": job_id,
                            "trace_id": trace_id, "state": "done"})


class TestDiscovery:
    def test_list_traces_finds_fragment_dirs(self, tmp_path):
        assert list_traces(tmp_path) == []
        write_fragments(tmp_path)
        write_fragments(tmp_path, trace_id="0badc0de0badc0de")
        (tmp_path / "obs" / "trace" / "empty-dir").mkdir()
        assert list_traces(tmp_path) == ["0badc0de0badc0de", TRACE]

    def test_resolve_job_trace(self, tmp_path):
        write_job(tmp_path)
        assert resolve_job_trace(tmp_path, "j0") == TRACE
        assert resolve_job_trace(tmp_path, "missing") is None

    def test_resolve_job_without_trace(self, tmp_path):
        append(tmp_path, {"kind": "pckpt-job", "id": "j1", "trace_id": None})
        assert resolve_job_trace(tmp_path, "j1") is None


class TestCollect:
    def test_collects_spans_events_and_filters_by_trace(self, tmp_path):
        write_fragments(tmp_path)
        write_job(tmp_path)
        write_job(tmp_path, job_id="other",
                  trace_id="0badc0de0badc0de")  # different trace
        coll = collect_trace(tmp_path, TRACE)
        assert coll["trace_id"] == TRACE
        assert [s["name"] for s in coll["spans"]] == [
            "request", "queue.wait", "execute", "campaign.run", "kernel.run",
        ]  # merged across fragments, ordered by t0
        assert {e["job_id"] for e in coll["events"]} == {"j0"}

    def test_collect_picks_up_job_telemetry(self, tmp_path):
        """A job's snapshots are the data of its telemetry events."""
        write_fragments(tmp_path)
        write_job(tmp_path, with_telemetry=True)
        coll = collect_trace(tmp_path, TRACE)
        assert coll["telemetry"] == [{"cells_done": 1,
                                      "replications_executed": 2,
                                      "replications_cached": 0}]

    def test_collect_empty_store(self, tmp_path):
        coll = collect_trace(tmp_path, TRACE)
        assert coll["spans"] == [] and coll["events"] == []


class TestStitchChrome:
    def _stitch(self, tmp_path, **job_kw):
        write_fragments(tmp_path)
        write_job(tmp_path, **job_kw)
        coll = collect_trace(tmp_path, TRACE)
        buf = io.StringIO()
        n = stitch_chrome(coll, buf)
        payload = json.loads(buf.getvalue())
        assert n == len(payload["traceEvents"])
        return payload

    def test_request_source_gets_pid_one(self, tmp_path):
        payload = self._stitch(tmp_path)
        procs = {
            e["args"]["name"]: e["pid"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs["service"] == 1  # the root request's source first
        assert {"campaign/123", "worker/124", "service/j0"} <= set(procs)

    def test_spans_become_duration_events_rebased(self, tmp_path):
        payload = self._stitch(tmp_path)
        spans = [e for e in payload["traceEvents"]
                 if e.get("cat") == "span" and e["ph"] == "X"]
        request = next(e for e in spans if e["name"] == "request")
        # earliest stamp (100.0) is the zero point; scale is 1e6 (us)
        assert request["ts"] == 0.0
        assert request["dur"] == 10.0 * 1e6
        assert request["args"]["trace_id"] == TRACE
        kernel = next(e for e in spans if e["name"] == "kernel.run")
        assert kernel["ts"] == 2.0 * 1e6
        assert payload["otherData"]["base_epoch_seconds"] == 100.0

    def test_job_events_become_instants(self, tmp_path):
        payload = self._stitch(tmp_path)
        instants = {e["name"] for e in payload["traceEvents"]
                    if e.get("cat") == "service"}
        assert instants == {"job.queued", "job.done"}

    def test_telemetry_becomes_counters(self, tmp_path):
        payload = self._stitch(tmp_path, with_telemetry=True)
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "campaign.progress"
        assert counters[0]["args"]["replications_executed"] == 2
        # the raw telemetry event is not also rendered as an instant
        names = {e["name"] for e in payload["traceEvents"]}
        assert "job.telemetry" not in names

    def test_stitch_to_file_path(self, tmp_path):
        write_fragments(tmp_path)
        coll = collect_trace(tmp_path, TRACE)
        out = tmp_path / "stitched.json"
        n = stitch_chrome(coll, out)
        assert n > 0
        assert "traceEvents" in json.loads(out.read_text())
