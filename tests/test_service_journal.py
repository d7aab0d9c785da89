"""Tests for the service journal (``repro.obs.journal``) and its readers.

A serve appends every per-job record to one journal of bounded
segments.  These tests pin what that must not cost:

* a segment boundary inside a job changes none of its answers;
* appends from the loop and from job threads never interleave a line;
* a journal cut at any byte of its last line restarts into a serve that
  neither loses a finished job nor answers for one whose terminal
  record is torn, and keeps counting job ids;
* the waiting queue restores from the journal: a job restored by two
  serves runs once under its id, a job dispatched in a later segment
  than its admission is not re-run, and an admission cut at any byte
  restores its job once or not at all;
* a job's timestamp-stripped event stream hashes the same while it is
  live, after it is retired and after a restart;
* a job leaves no file behind but its store entries; the service
  directory holds the journal only.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import threading

import pytest

from repro.obs.journal import Journal, journal_dir
from repro.service import ServiceBusy, ServiceClient, ServiceThread
from repro.service.jobs import JOB_ENTRY_KIND, JOB_KIND
from repro.service.server import PckptService

from test_service import (body, hold_dispatch, journal_lines, tiny_spec,
                          wait_running)


def event_stream_hash(data: bytes) -> str:
    """sha256 of an NDJSON event stream with every ``ts`` dropped.

    Each event is re-serialized with sorted keys, so the hash names what
    the stream says, not when it said it.
    """
    events = [json.loads(line) for line in data.splitlines()]
    for event in events:
        del event["ts"]
    return hashlib.sha256(
        json.dumps(events, sort_keys=True).encode("utf-8")).hexdigest()


def follow(port: int, job_id: str, attached: threading.Barrier,
           out: dict) -> None:
    """Read *job_id*'s event stream from while it is live to its end."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        first = response.readline()
        attached.wait(60)
        out[job_id] = first + response.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# the journal itself
# ---------------------------------------------------------------------------
class TestJournal:
    def test_reads_span_segments_and_appends_never_straddle(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.segment_bytes = 50
        journal.open()
        lines = [b'{"n": %d, "pad": "%s"}\n' % (n, b"x" * (n % 7))
                 for n in range(40)]
        offsets = [journal.append(line) for line in lines]
        assert len(journal.starts) > 5
        assert journal.read(0, journal.end) == b"".join(lines)
        for offset, line in zip(offsets, lines):
            assert journal.read(offset, offset + len(line)) == line
        journal.close()
        replay = list(Journal(tmp_path / "j").lines())
        assert replay == list(zip(offsets, lines))
        # Each segment holds whole lines and is named by its offset.
        for start in journal.starts:
            data = journal.segment_path(start).read_bytes()
            assert not data or data.endswith(b"\n")

    def test_open_cuts_a_torn_tail_and_appends_after_it(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.open()
        journal.append(b'{"n": 1}\n')
        journal.close()
        segment = journal.segment_path(0)
        segment.write_bytes(segment.read_bytes() + b'{"n": 2, "to')
        again = Journal(tmp_path / "j")
        assert [line for _, line in again.lines()] == [b'{"n": 1}\n']
        again.open()
        assert again.append(b'{"n": 3}\n') == 9
        again.close()
        assert segment.read_bytes() == b'{"n": 1}\n{"n": 3}\n'

    def test_concurrent_appends_keep_every_line_whole(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.segment_bytes = 4096
        journal.open()
        start = threading.Barrier(3)

        def writer(name):
            start.wait(30)
            for n in range(300):
                journal.append(json.dumps(
                    {"by": name, "n": n, "pad": "y" * (n % 50)}).encode()
                    + b"\n")

        threads = [threading.Thread(target=writer, args=(name,))
                   for name in ("job-1", "job-2")]
        for thread in threads:
            thread.start()
        writer("loop")
        for thread in threads:
            thread.join(60)
        journal.close()
        records = [json.loads(line)
                   for _, line in Journal(tmp_path / "j").lines()]
        assert len(records) == 900
        for name in ("job-1", "job-2", "loop"):
            assert [r["n"] for r in records if r["by"] == name] == \
                list(range(300))


# ---------------------------------------------------------------------------
# the journal under a serve
# ---------------------------------------------------------------------------
class TestServeJournal:
    def test_rotation_inside_a_job_changes_no_answer(self, tmp_path):
        """Tiny segments put boundaries inside every job.  A finished
        job answers with its live bytes, and /result with the bytes of
        the same job on a serve whose journal never rotated."""
        answers = {}
        for name, segment_bytes in (("rotated", 700), ("whole", 1 << 24)):
            svc = ServiceThread(tmp_path / name, jobs=1)
            svc.service.journal.segment_bytes = segment_bytes
            with svc:
                service = svc.service
                client = ServiceClient(port=svc.port, token="alice")
                gate = hold_dispatch(service)
                job_id = client.submit(tiny_spec(seed=700))["job"]["id"]
                wait_running(client, job_id)
                live = service.jobs[job_id]
                streams, attached = {}, threading.Barrier(2)
                reader = threading.Thread(
                    target=follow, args=(svc.port, job_id, attached, streams))
                reader.start()
                attached.wait(60)
                gate.set()
                reader.join(120)
                assert client.wait(job_id)["state"] == "done"
                assert service.jobs == {}
                assert body(client, f"/v1/jobs/{job_id}") == (200, (
                    json.dumps(live.to_record(), sort_keys=True)
                    + "\n").encode())
                assert body(client, f"/v1/jobs/{job_id}/events") == \
                    (200, streams[job_id]) == (200, b"".join(live.lines))
                answers[name] = body(client, f"/v1/jobs/{job_id}/result")
                slot = service._index.find(job_id)
                starts = service.journal.starts
                if name == "rotated":
                    first, end = service._index.first[slot], \
                        service._index.end[slot]
                    inside = [s for s in starts if first < s < end]
                    assert len(inside) >= 2, (first, end, starts)
                else:
                    assert starts == [0]
        assert answers["rotated"][0] == 200
        assert answers["rotated"] == answers["whole"]

    def test_loop_and_two_job_threads_append_whole_lines(self, tmp_path):
        """Two jobs run at once, each appending its spans and result
        index from its own thread while the loop appends events and
        records: every journal line parses."""
        store = tmp_path / "store"
        with ServiceThread(store, jobs=2) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            ids = [client.submit(tiny_spec(seed=710 + n, replications=2),
                                 trace=f"feedc0de0000{n:04x}")["job"]["id"]
                   for n in range(4)]
            for job_id in ids:
                assert client.wait(job_id, timeout=120.0)["state"] == "done"
        journal = Journal(journal_dir(store))
        lines = [line for _, line in journal.lines()]
        assert b"".join(lines) == b"".join(
            journal.segment_path(start).read_bytes()
            for start in journal.starts)
        records = [json.loads(line) for line in lines]
        kinds = {r["kind"] for r in records}
        assert kinds == {"pckpt-job-entry", "pckpt-job", "pckpt-job-event",
                         "pckpt-job-cells", "pckpt-span"}
        spans = [r for r in records if r["kind"] == "pckpt-span"]
        assert sum(s["name"] == "kernel.run" for s in spans) == 8

    @pytest.fixture()
    def finished_store(self, tmp_path):
        """A store whose journal ends in a job's terminal record."""
        store = tmp_path / "store"
        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            ids = [client.submit(tiny_spec(seed=720 + n))["job"]["id"]
                   for n in range(2)]
            for job_id in ids:
                client.wait(job_id, timeout=120.0)
            before = {job_id: [body(client, f"/v1/jobs/{job_id}{view}")
                               for view in ("", "/events", "/result")]
                      for job_id in ids}
        journal = Journal(journal_dir(store))
        assert len(journal.starts) == 1
        segment = journal.segment_path(0)
        data = segment.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        assert json.loads(data[last:]) == json.loads(before[ids[1]][0][1])
        return store, ids, before, segment, data, last

    def test_torn_terminal_record_at_every_offset(self, finished_store):
        """Restart (replay and open) at every cut of the last line."""
        store, (kept, cut), _, segment, data, last = finished_store
        for k in range(last, len(data) + 1):
            segment.write_bytes(data[:k])
            service = PckptService(store, jobs=1)
            assert service._replay_journal() == []      # nothing waits
            service.journal.open()
            try:
                index = service._index
                whole = k == len(data)
                assert index.record[index.find(kept)] >= 0
                assert (index.record[index.find(cut)] >= 0) is whole, k
                assert service.journal.end == (k if whole else last)
                assert service._next_seq == 3
            finally:
                service.journal.close()
            assert segment.read_bytes() == data[:k if whole else last]

    @pytest.mark.parametrize("cut", [0, 1, -2, -1, None])
    def test_restarted_serve_over_a_torn_terminal_record(
            self, finished_store, cut):
        """Over HTTP: the whole job answers as before, the torn one is
        404 and unlisted, and ids continue; appends go after the cut."""
        store, (kept, torn), before, segment, data, last = finished_store
        end = len(data) if cut is None else (last + cut if cut >= 0
                                             else len(data) + cut)
        segment.write_bytes(data[:end])
        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            assert [body(client, f"/v1/jobs/{kept}{view}")
                    for view in ("", "/events", "/result")] == before[kept]
            if cut is None:
                assert body(client, f"/v1/jobs/{torn}") == before[torn][0]
                listed = [kept, torn]
            else:
                assert body(client, f"/v1/jobs/{torn}")[0] == 404
                listed = [kept]
            assert [j["id"] for j in client.jobs()] == listed
            fresh = client.submit(tiny_spec(seed=729))["job"]["id"]
            assert fresh.startswith("j00003-")
            client.wait(fresh, timeout=120.0)
            assert [j["id"] for j in client.jobs()] == listed + [fresh]
        for _, line in Journal(journal_dir(store)).lines():
            json.loads(line)


    def test_a_reused_job_id_answers_for_its_new_job(self, tmp_path):
        """An admission torn by a crash gives its sequence number to the
        next job, whose id differs in its spec-hash part; once done, the
        new job answers, and the torn one never does."""
        store, copy = tmp_path / "store", tmp_path / "copy"
        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            gate = hold_dispatch(svc.service)
            held = client.submit(tiny_spec(seed=750))["job"]["id"]
            wait_running(client, held)
            torn = client.submit(tiny_spec(seed=751))["job"]["id"]
            shutil.copytree(store, copy)
            gate.set()
        segment = Journal(journal_dir(copy)).segment_path(0)
        data = segment.read_bytes()
        entry, queued = data.splitlines(keepends=True)[-2:]
        assert json.loads(entry)["id"] == torn
        # Mid-way into the admission's entry line.
        segment.write_bytes(data[:len(data) - len(queued) - len(entry) + 20])
        with ServiceThread(copy, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            fresh = client.submit(tiny_spec(seed=752))["job"]["id"]
            assert fresh.split("-")[0] == torn.split("-")[0] and fresh != torn
            client.wait(fresh, timeout=120.0)
            assert body(client, f"/v1/jobs/{fresh}")[0] == 200
            assert body(client, f"/v1/jobs/{torn}")[0] == 404
            assert [j["id"] for j in client.jobs()] == [fresh]


# ---------------------------------------------------------------------------
# the waiting queue, restored from the journal
# ---------------------------------------------------------------------------
def copy_while_held(tmp_path, seeds, segment_bytes=None):
    """Hold one job on a single worker, admit *seeds*, copy the store:
    what a SIGKILL leaves.  Returns the copy, the held id and the
    waiting ids."""
    store, copy = tmp_path / "store", tmp_path / "copy"
    svc = ServiceThread(store, jobs=1)
    if segment_bytes is not None:
        svc.service.journal.segment_bytes = segment_bytes
    with svc:
        client = ServiceClient(port=svc.port, token="alice")
        gate = hold_dispatch(svc.service)
        held = client.submit(tiny_spec(seed=seeds[0]))["job"]["id"]
        wait_running(client, held)
        waiting = [client.submit(tiny_spec(seed=seed))["job"]["id"]
                   for seed in seeds[1:]]
        shutil.copytree(store, copy)
        gate.set()
    return copy, held, waiting


def journaled(store, job_id, kind):
    """The records of *kind* that name *job_id*, oldest first."""
    return [json.loads(line)
            for line in journal_lines(store, job_id, kind).splitlines()]


async def no_worker():
    """A worker task that dispatches nothing."""


class TestQueueRestore:
    def test_a_job_restored_twice_runs_once_under_its_id(self, tmp_path):
        """Two restarts in a row, the first dispatching nothing: the
        waiting job is restored by each, once, and runs once."""
        copy, held, (waiting,) = copy_while_held(tmp_path, (760, 761))
        idle = ServiceThread(copy, jobs=1)
        idle.service._worker = no_worker
        with idle:
            client = ServiceClient(port=idle.port, token="alice")
            assert [j["id"] for j in client.jobs()] == [waiting]
            assert client.job(waiting)["state"] == "queued"
            assert len(idle.service.queue) == 1
        with ServiceThread(copy, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            assert client.wait(waiting, timeout=120.0)["state"] == "done"
            assert [j["id"] for j in client.jobs()] == [waiting]
            assert body(client, f"/v1/jobs/{held}")[0] == 404
        # Admitted by three serves, dispatched by one.
        assert len(journaled(copy, waiting, JOB_ENTRY_KIND)) == 3
        assert [r["state"] for r in journaled(copy, waiting, JOB_KIND)] == \
            ["running", "done"]
        assert [r["state"] for r in journaled(copy, held, JOB_KIND)] == \
            ["running"]

    def test_a_restart_under_a_smaller_limit_runs_every_waiting_job(
            self, tmp_path):
        """Three jobs wait; the serve restarts with ``queue_limit=2``.

        The restore queues all three past the limit, admission answers
        429 while the queue is not under it, and every job runs.
        """
        copy, _, waiting = copy_while_held(tmp_path, (790, 791, 792, 793))
        assert len(waiting) == 3
        idle = ServiceThread(copy, jobs=1, queue_limit=2)
        idle.service._worker = no_worker
        with idle:
            client = ServiceClient(port=idle.port, token="alice")
            assert len(idle.service.queue) == 3
            assert [j["id"] for j in client.jobs()] == waiting
            with pytest.raises(ServiceBusy):
                client.submit(tiny_spec(seed=794))
        with ServiceThread(copy, jobs=1, queue_limit=2) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            for job_id in waiting:
                assert client.wait(job_id, timeout=120.0)["state"] == "done"
            fresh = client.submit(tiny_spec(seed=794))["job"]["id"]
            assert client.wait(fresh, timeout=120.0)["state"] == "done"

    def test_a_dispatch_in_a_later_segment_is_not_rerun(self, tmp_path):
        """Tiny segments: each admission fills one, so a job's entry and
        its running record lie in different segments.  The dispatched
        job is not re-enqueued; the waiting one is, once."""
        copy, held, waiting = copy_while_held(tmp_path, (770, 771, 772),
                                              segment_bytes=700)
        journal = Journal(journal_dir(copy))
        segment_of = {}
        for offset, line in journal.lines():
            record = json.loads(line)
            if record["kind"] in (JOB_ENTRY_KIND, JOB_KIND):
                segment_of[record["kind"], record["id"]] = \
                    max(s for s in journal.starts if s <= offset)
        assert segment_of[JOB_ENTRY_KIND, held] < segment_of[JOB_KIND, held]
        with ServiceThread(copy, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            assert [j["id"] for j in client.jobs()] == waiting
            for job_id in waiting:
                assert client.wait(job_id, timeout=120.0)["state"] == "done"
        assert len(journaled(copy, held, JOB_ENTRY_KIND)) == 1
        assert [r["state"] for r in journaled(copy, held, JOB_KIND)] == \
            ["running"]
        for job_id in waiting:
            assert len(journaled(copy, job_id, JOB_ENTRY_KIND)) == 2

    def test_an_admission_cut_at_every_byte(self, tmp_path):
        """Cut the journal inside the last admission (entry, then queued
        event) at every byte and restart: the job is restored once under
        its id, or it is unknown and the next job takes its sequence
        number.  It is never known but left unrun."""
        copy, _, (cut,) = copy_while_held(tmp_path, (780, 781))
        segment = Journal(journal_dir(copy)).segment_path(0)
        data = segment.read_bytes()
        entry, queued = data.splitlines(keepends=True)[-2:]
        assert json.loads(entry)["id"] == cut
        start = len(data) - len(entry) - len(queued)
        for k in range(start, len(data) + 1):
            segment.write_bytes(data[:k])
            service = PckptService(copy, jobs=1)
            waiting = service._replay_journal()
            service.journal.open()
            try:
                for line in waiting:
                    service._restore(json.loads(line))
                whole = k == len(data)
                assert list(service.jobs) == ([cut] if whole else []), k
                assert len(service.queue) == whole
                assert (service._index.find(cut) is not None) is whole, k
                assert service._next_seq == (3 if whole else 2), k
            finally:
                service.journal.close()
        # Over HTTP, at the cuts that end a line and at the last byte.
        for k in (start, start + len(entry), len(data) - 1, len(data)):
            segment.write_bytes(data[:k])
            with ServiceThread(copy, jobs=1) as svc:
                client = ServiceClient(port=svc.port, token="alice")
                if k == len(data):
                    assert client.wait(cut, timeout=120.0)["state"] == "done"
                    assert [j["id"] for j in client.jobs()] == [cut]
                else:
                    assert body(client, f"/v1/jobs/{cut}")[0] == 404
                    fresh = client.submit(tiny_spec(seed=782 + k))
                    fresh = fresh["job"]["id"]
                    assert fresh.startswith("j00002-") and fresh != cut
                    client.wait(fresh, timeout=120.0)
                    assert [j["id"] for j in client.jobs()] == [fresh]


# ---------------------------------------------------------------------------
# the event-stream oracle: one hash per job event stream
# ---------------------------------------------------------------------------
class TestEventStreamOracle:
    def test_hash_holds_live_retired_and_after_restart(self, tmp_path):
        store = tmp_path / "store"
        with ServiceThread(store, jobs=1) as svc:
            service = svc.service
            client = ServiceClient(port=svc.port, token="alice")
            gate = hold_dispatch(service)
            ids = [client.submit(tiny_spec(seed=730))["job"]["id"]]
            wait_running(client, ids[0])
            ids.append(client.submit(tiny_spec(seed=730, replications=2))
                       ["job"]["id"])
            live = {job_id: service.jobs[job_id] for job_id in ids}
            streams, attached = {}, threading.Barrier(len(ids) + 1)
            readers = [threading.Thread(target=follow, args=(
                svc.port, job_id, attached, streams)) for job_id in ids]
            for reader in readers:
                reader.start()
            attached.wait(60)
            gate.set()
            for reader in readers:
                reader.join(120)
            hashes = {job_id: event_stream_hash(streams[job_id])
                      for job_id in ids}
            for job_id in ids:
                client.wait(job_id, timeout=120.0)
                assert event_stream_hash(b"".join(live[job_id].lines)) \
                    == hashes[job_id]
                status, data = body(client, f"/v1/jobs/{job_id}/events")
                assert status == 200
                assert event_stream_hash(data) == hashes[job_id]
        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            for job_id in ids:
                status, data = body(client, f"/v1/jobs/{job_id}/events")
                assert event_stream_hash(data) == hashes[job_id]
        assert hashes[ids[0]] != hashes[ids[1]]


# ---------------------------------------------------------------------------
# what a job leaves on disk
# ---------------------------------------------------------------------------
def test_jobs_create_no_file_but_their_store_entries(tmp_path):
    """N cold and N warm jobs, traced and untraced: the store holds its
    entries, their fan-out directories, schema.json and the journal
    segments, and nothing per job."""
    store = tmp_path / "store"
    cold = 3
    with ServiceThread(store, jobs=2) as svc:
        client = ServiceClient(port=svc.port, token="alice")
        for round_ in ("cold", "warm"):
            ids = [client.submit(tiny_spec(seed=740 + n),
                                 trace=f"feedc0de{n:08x}" if n else None)
                   ["job"]["id"] for n in range(cold)]
            for job_id in ids:
                record = client.wait(job_id, timeout=120.0)
                assert (record["replications_executed"] == 0) is \
                    (round_ == "warm")
    found = set()
    for root, dirs, files in os.walk(store):
        rel = os.path.relpath(root, store)
        found.update(os.path.normpath(os.path.join(rel, name))
                     for name in dirs + files)
    entries = {name for name in found
               if len(name) > 3 and name[2] == os.sep and name[:2].isalnum()
               and name.endswith(".json")}
    fanout = {name for name in found if len(name) == 2}
    assert len(entries) == cold
    segments = {os.path.join("service", "journal", f"{s:020d}.ndjson")
                for s in Journal(journal_dir(store)).starts}
    assert found - entries - fanout - segments == {
        "schema.json", "service", os.path.join("service", "journal")}
