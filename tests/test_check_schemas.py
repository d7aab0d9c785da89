"""Tests for ``tools/check_schemas.py`` — the one schema check.

Three claims: (1) the tree passes, run from any directory with no
``PYTHONPATH``; (2) a clean artifact of every kind passes; (3) each
planted problem makes the tool exit 1 and names the problem.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.store import SCHEMA_VERSION
from repro.obs.context import SPAN_FIELDS, SPAN_KIND, SPAN_SCHEMA_VERSION
from repro.obs.gantt import (GANTT_FIELDS, GANTT_KIND, GANTT_ROW_FIELDS,
                             GANTT_SCHEMA_VERSION)
from repro.obs.slo import SLO_FIELDS, SLO_KIND, SLO_SCHEMA_VERSION
from repro.obs.telemetry import (OBS_SCHEMA_VERSION, SNAPSHOT_FIELDS,
                                 TELEMETRY_KIND)
from repro.service.jobs import (EVENT_FIELDS, JOB_EVENT_KIND,
                                SERVICE_SCHEMA_VERSION)

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_schemas.py"
BASELINE = next((REPO_ROOT / "benchmarks" / "sched").glob("SCHED_*.json"))
QUICKSTART = REPO_ROOT / "examples" / "specs" / "quickstart.json"
TRACE = "feedc0de11223344"
#: A record cut off mid-write.
TORN = '{"kind": "pckpt-job-event", "seq": 2, "ev'

spec = importlib.util.spec_from_file_location("check_schemas", TOOL)
check_schemas = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_schemas)

#: Flags whose artifacts are JSONL files (one record per line).
JSONL = ("--telemetry", "--events", "--spans")


def _record(fields, **values):
    """A record holding a value of the declared type in every field."""
    sample = {str: "x", int: 1, float: 1.0, dict: {}, list: []}
    record = {name: sample[ftype] for name, (ftype, _) in fields.items()}
    record.update(values)
    return record


def _clean(flag):
    """A clean artifact for *flag*: JSONL records or one JSON document."""
    if flag == "--telemetry":
        return [_record(SNAPSHOT_FIELDS, kind=TELEMETRY_KIND,
                        schema_version=OBS_SCHEMA_VERSION, seq=seq)
                for seq in range(2)]
    if flag == "--events":
        return [_record(EVENT_FIELDS, kind=JOB_EVENT_KIND,
                        schema_version=SERVICE_SCHEMA_VERSION,
                        job_id="j00001", seq=seq, event=state, state=state)
                for seq, state in enumerate(("queued", "running"))]
    if flag == "--spans":
        return [_record(SPAN_FIELDS, kind=SPAN_KIND,
                        schema_version=SPAN_SCHEMA_VERSION, trace_id=TRACE)
                for _ in range(2)]
    if flag == "--slo":
        return [_record(SLO_FIELDS, kind=SLO_KIND,
                        schema_version=SLO_SCHEMA_VERSION)]
    if flag == "--gantt":
        return _record(GANTT_FIELDS, kind=GANTT_KIND,
                       schema_version=GANTT_SCHEMA_VERSION,
                       rows=[_record(GANTT_ROW_FIELDS)])
    if flag == "--stitched":
        return {"traceEvents": [
            {"name": name, "ph": "X", "args": {"trace_id": TRACE}}
            for name in ("request", "kernel.run")
        ]}
    if flag == "--store":
        return {"schema_version": SCHEMA_VERSION}
    if flag == "--sched":
        return json.loads(BASELINE.read_text(encoding="utf-8"))
    if flag == "--spec":
        return json.loads(QUICKSTART.read_text(encoding="utf-8"))
    raise AssertionError(flag)


def _write(tmp_path, flag, artifact):
    """Write *artifact* where *flag* expects it; returns the path."""
    if flag == "--store":
        path = tmp_path / "store"
        path.mkdir()
        (path / "schema.json").write_text(json.dumps(artifact))
        return path
    # A sched payload lives under the name its clean git_sha derives.
    path = tmp_path / (BASELINE.name if flag == "--sched" else "artifact")
    if flag in JSONL:
        # A str line is written as is: a torn, undecodable record.
        path.write_text("".join(
            (r if isinstance(r, str) else json.dumps(r)) + "\n"
            for r in artifact))
    else:
        path.write_text(json.dumps(artifact))
    return path


def _run(capsys, *argv):
    code = check_schemas.main([str(a) for a in argv])
    return code, capsys.readouterr().err


def _set(**values):
    return lambda a: a.update(values)


def _set_first(**values):
    return lambda a: a[0].update(values)


#: (flag, planted problem, what the tool must say).
PLANTED = {
    "telemetry-wrong-type": (
        "--telemetry", _set_first(workers="two"),
        "workers must be int, got 'two'"),
    "telemetry-seq-not-increasing": (
        "--telemetry", _set_first(seq=5), "seq 1 not increasing (last 5)"),
    "event-unknown-state": (
        "--events", _set_first(state="paused"), "unknown state 'paused'"),
    "event-seq-not-increasing-in-job": (
        "--events", _set_first(seq=7), "seq 1 not increasing (last 7)"),
    "event-torn-final-line": (
        "--events", lambda a: a.append(TORN), ":3: invalid JSON"),
    "span-fragment-mixes-trace-ids": (
        "--spans", _set_first(trace_id="0123abcd"), "fragment mixes trace ids"),
    "slo-null-non-nullable": (
        "--slo", _set_first(tenant=None), "tenant is null but not nullable"),
    "gantt-undeclared-field": (
        "--gantt", _set(colour="red"), "undeclared field 'colour'"),
    "gantt-bool-in-int-row-field": (
        "--gantt", lambda a: a["rows"][0].update(nodes=True),
        "rows[0]: nodes must be int, got True"),
    "stitched-kernel-wrong-trace-id": (
        "--stitched", lambda a: a["traceEvents"][1]["args"].update(
            trace_id="0123abcd"),
        "span 'kernel.run' carries trace_id '0123abcd'"),
    "store-stale-schema": (
        "--store", _set(schema_version=SCHEMA_VERSION + 1),
        f"schema_version is {SCHEMA_VERSION + 1}"),
    "sched-per-job-wrong-type": (
        "--sched", lambda a: a["per_job"][0].update(nodes="4"),
        "per_job[0]: nodes must be int, got '4'"),
    "sched-undeclared-field": (
        "--sched", _set(colour="red"), "payload: undeclared field 'colour'"),
    "sched-name-not-git-sha": (
        "--sched", _set(git_sha="deadbee"),
        "file name does not match git_sha 'deadbee'"),
    "spec-unknown-field": (
        "--spec", _set(colour="red"), "unknown field 'colour'"),
}


def test_tree_passes_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "schemas OK" in proc.stdout


@pytest.mark.parametrize("flag", sorted({flag for flag, _, _ in
                                         PLANTED.values()}))
def test_clean_artifact_passes(flag, tmp_path, capsys):
    code, err = _run(capsys, flag, _write(tmp_path, flag, _clean(flag)),
                     *(["--trace-id", TRACE] if flag == "--stitched" else []))
    assert code == 0, err


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_planted_problem_is_named(case, tmp_path, capsys):
    flag, plant, expected = PLANTED[case]
    artifact = _clean(flag)
    plant(artifact)
    code, err = _run(capsys, flag, _write(tmp_path, flag, artifact),
                     *(["--trace-id", TRACE] if flag == "--stitched" else []))
    assert code == 1
    assert expected in err, err


def test_field_removed_from_doc_backticks_is_named(tmp_path, capsys,
                                                   monkeypatch):
    docs = tmp_path / "docs"
    shutil.copytree(REPO_ROOT / "docs", docs)
    page = docs / "OBSERVABILITY.md"
    page.write_text(page.read_text(encoding="utf-8")
                    .replace("`eta_seconds`", "eta_seconds"))
    monkeypatch.setattr(check_schemas, "DOCS_DIR", docs)
    code, err = _run(capsys)
    assert code == 1
    assert ("OBSERVABILITY.md does not document the telemetry field "
            "`eta_seconds`") in err, err


def test_wrong_version_statement_is_named(tmp_path, capsys, monkeypatch):
    docs = tmp_path / "docs"
    shutil.copytree(REPO_ROOT / "docs", docs)
    page = docs / "CAMPAIGN.md"
    page.write_text(page.read_text(encoding="utf-8").replace(
        f"`SCHEMA_VERSION = {SCHEMA_VERSION}`",
        f"`SCHEMA_VERSION = {SCHEMA_VERSION + 1}`"))
    monkeypatch.setattr(check_schemas, "DOCS_DIR", docs)
    code, err = _run(capsys)
    assert code == 1
    assert (f"CAMPAIGN.md states SCHEMA_VERSION = {SCHEMA_VERSION + 1}, "
            f"code declares {SCHEMA_VERSION}") in err, err


def test_version_statement_of_undeclared_constant_is_named(
        tmp_path, capsys, monkeypatch):
    docs = tmp_path / "docs"
    shutil.copytree(REPO_ROOT / "docs", docs)
    page = docs / "OBSERVABILITY.md"
    page.write_text(page.read_text(encoding="utf-8")
                    + "\nRetired: `PROFILE_SCHEMA_VERSION = 1`.\n")
    monkeypatch.setattr(check_schemas, "DOCS_DIR", docs)
    code, err = _run(capsys)
    assert code == 1
    assert ("OBSERVABILITY.md states PROFILE_SCHEMA_VERSION = 1, "
            "code declares no PROFILE_SCHEMA_VERSION") in err, err


@pytest.mark.parametrize("flag", ["--telemetry", "--spans"])
def test_appended_stream_may_end_in_a_torn_line(flag, tmp_path, capsys):
    artifact = _clean(flag) + [TORN]
    code, err = _run(capsys, flag, _write(tmp_path, flag, artifact))
    assert code == 0, err


@pytest.mark.parametrize("emitted, expected", [
    (set(), "found no emit/span call sites"),
])
def test_trace_kind_scan_that_stops_matching_is_named(
        emitted, expected, capsys, monkeypatch):
    monkeypatch.setattr(check_schemas, "EMITTED", emitted)
    code, err = _run(capsys)
    assert code == 1
    assert expected in err, err


def _journal_store(tmp_path, *lines):
    """A clean store whose service journal holds *lines* (str: as is)."""
    from repro.obs.journal import journal_dir

    store = _write(tmp_path, "--store", _clean("--store"))
    segment = journal_dir(store) / f"{0:020d}.ndjson"
    segment.parent.mkdir(parents=True)
    segment.write_text("".join(
        line if isinstance(line, str) else json.dumps(line) + "\n"
        for line in lines))
    return store


def _journal_lines():
    """One clean line of each kind a serve journals."""
    from repro.service.jobs import (JOB_CELLS_FIELDS, JOB_CELLS_KIND,
                                    JOB_ENTRY_FIELDS, JOB_ENTRY_KIND,
                                    JOB_FIELDS, JOB_KIND)

    version = {"schema_version": SERVICE_SCHEMA_VERSION}
    return [
        *_clean("--events"),
        _record(JOB_FIELDS, kind=JOB_KIND, state="done", **version),
        _record(JOB_CELLS_FIELDS, kind=JOB_CELLS_KIND, **version),
        *_clean("--spans"),
        _record(JOB_ENTRY_FIELDS, kind=JOB_ENTRY_KIND, **version),
    ]


def test_store_journal_lines_pass_their_tables(tmp_path, capsys):
    code, err = _run(capsys, "--store",
                     _journal_store(tmp_path, *_journal_lines()))
    assert code == 0, err


def test_store_journal_bad_line_is_named(tmp_path, capsys):
    lines = _journal_lines()
    lines[2]["events"] = "three"
    store = _journal_store(tmp_path, *lines)
    offset = sum(len(json.dumps(line)) + 1 for line in lines[:2])
    code, err = _run(capsys, "--store", store)
    assert code == 1
    assert f"@{offset}: events must be int, got 'three'" in err, err


def test_store_journal_bad_entry_line_is_named(tmp_path, capsys):
    lines = _journal_lines()
    del lines[-1]["spec"]
    lines[-1]["trace"] = None
    store = _journal_store(tmp_path, *lines)
    offset = sum(len(json.dumps(line)) + 1 for line in lines[:-1])
    code, err = _run(capsys, "--store", store)
    assert code == 1
    assert f"@{offset}: missing field 'spec'" in err, err
    assert f"@{offset}: trace is null but not nullable" in err, err


def test_store_journal_cells_must_name_store_entries(tmp_path, capsys):
    lines = _journal_lines()
    lines[3]["cells"] = [{"key": ["XGC", "P2"], "store_key": "ab" * 32}]
    code, err = _run(capsys, "--store", _journal_store(tmp_path, *lines))
    assert code == 1
    assert f"names {'ab' * 32!r}, which the store does not hold" in err, err


def test_store_journal_torn_tail_is_torn_not_bad(tmp_path, capsys):
    store = _journal_store(tmp_path, *_journal_lines(), TORN)
    code = check_schemas.main(["--store", str(store)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert f"torn final line ({len(TORN)} bytes" in out, out
