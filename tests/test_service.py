"""Tests for ``repro.service`` — the multi-tenant campaign service.

Covers the full promise stack, bottom-up:

* the fair-share queue's weighted-round-robin dispatch and bounded
  admission (pure unit tests, no sockets);
* the job state machine and its schema-versioned records/events;
* full service lifecycle against an in-process server: the five
  committed ``examples/specs/*.json`` submitted concurrently by
  different tenants, fair-share ordering, the 429 backpressure path,
  duplicate-submit coalescing, warm re-submits executing **zero**
  replications, and bit-identical parity with a local
  ``run_spec`` of the same document;
* the waiting queue across a service restart and across a crash (a copy
  of the store taken while the service runs), restored from the
  admission entries in the service journal;
* the per-job persistence cost: no atomic rewrite under the service
  directory, one open journal segment whatever the queue holds, one
  serialization per event shared by the journal and the stream;
* finished jobs leave memory: the job table holds live jobs only, and a
  finished job's record, events and result are read back from the
  journal as the bytes it sent while live, also by a restarted service;
  status, SLO rows and the paged listing agree with the journaled
  records;
* jobs run on the event loop, a replication per step: a job held
  between two replications delays no request and no other job, and two
  interleaved jobs each keep their own trace id;
* the HTTP surface: validation errors, auth modes, status, metrics.

Specs are capped at 1 replication (the same client-side cap
``pckpt submit --quick`` applies) so the whole module stays test-suite
fast while still executing real simulations end to end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.store import ResultStore, result_to_dict
from repro.obs.journal import Journal, journal_dir, read_journal
from repro.obs.records import check_record
from repro.obs.stitch import collect_trace
from repro.service import server as server_module
from repro.service.jobs import JOB_ENTRY_FIELDS, JOB_ENTRY_KIND
from repro.service import (
    EVENT_FIELDS,
    EVENT_KINDS,
    JOB_EVENT_KIND,
    JOB_FIELDS,
    JOB_KIND,
    JOB_RESULT_KIND,
    JOB_STATES,
    JOB_TRANSITIONS,
    SERVICE_SCHEMA_VERSION,
    SERVICE_STATUS_KIND,
    TERMINAL_STATES,
    FairShareQueue,
    Job,
    QueueFull,
    ServiceBusy,
    ServiceClient,
    ServiceThread,
    SpecRejected,
)
from repro.spec import load_spec, run_spec, spec_from_dict, spec_to_dict

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"


def example_documents():
    """The committed example specs, capped to 1 replication."""
    documents = {}
    for path in sorted(SPEC_DIR.glob("*.json")):
        spec = dataclasses.replace(load_spec(path), replications=1)
        documents[path.stem] = spec_to_dict(spec)
    return documents


def tiny_spec(seed: int, replications: int = 1) -> dict:
    """The smallest useful document: one XGC x P2 cell, seed-varied."""
    return {
        "schema_version": 1,
        "name": f"tiny-{seed}",
        "apps": ["XGC"],
        "models": ["P2"],
        "include_base": False,
        "replications": replications,
        "seed": seed,
    }


def hold_dispatch(service) -> threading.Event:
    """Make every job a worker task starts wait until the event is set.

    The job is dispatched (``running``, ``started_at`` stamped) and then
    held, so a test can submit more work while the worker is provably
    busy instead of hoping the first job is still running.  The held
    job awaits the gate: the loop keeps serving requests.
    """
    gate = threading.Event()
    execute = service._execute

    async def held(job):
        deadline = time.monotonic() + 120.0
        while not gate.is_set():
            if time.monotonic() > deadline:
                raise TimeoutError("dispatch gate never released")
            await asyncio.sleep(0.005)
        return await execute(job)

    service._execute = held
    return gate


def hold_steps(monkeypatch, after: int, campaigns: int):
    """Hold the next *campaigns* job campaigns a serve steps, each after
    its first *after* steps, until the returned gate is set.

    Returns ``(gate, holding)``; *holding* is set once every held
    campaign waits.  A held campaign takes steps that run nothing, so
    the loop serves everything else while it waits.
    """
    real = server_module.campaign_steps
    gate, holding = threading.Event(), threading.Event()
    started, waiting = itertools.count(1), itertools.count(1)

    def stepped(*args, **kwargs):
        steps = real(*args, **kwargs)
        if next(started) <= campaigns:
            for _ in range(after):
                yield next(steps)
            if next(waiting) == campaigns:
                holding.set()
            deadline = time.monotonic() + 120.0
            while not gate.is_set():
                if time.monotonic() > deadline:
                    raise TimeoutError("step gate never released")
                time.sleep(0.001)    # spare the CPU; the loop runs between
                yield
        return (yield from steps)

    monkeypatch.setattr(server_module, "campaign_steps", stepped)
    return gate, holding


def journal_lines(store, job_id: str, kind: str) -> bytes:
    """The journal lines of *kind* that name *job_id*, joined."""
    out = []
    for _, line in Journal(journal_dir(store)).lines():
        record = json.loads(line)
        if record["kind"] == kind and \
                record.get("job_id", record.get("id")) == job_id:
            out.append(line)
    return b"".join(out)


def wait_running(client, job_id: str, timeout: float = 30.0) -> None:
    """Block until *job_id* has been dispatched to a worker."""
    deadline = time.monotonic() + timeout
    while client.job(job_id)["state"] != "running":
        assert time.monotonic() < deadline, f"{job_id} never started"
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# fair-share queue (unit)
# ---------------------------------------------------------------------------
def _job(tenant: str, name: str) -> Job:
    spec = spec_from_dict(tiny_spec(hash(name) % 10_000))
    return Job(name, tenant, spec, spec_hash=name.ljust(8, "0"), cells=1)


def _pop_all(queue: FairShareQueue):
    out = []
    while len(queue):
        out.append(asyncio.run(queue.pop()).id)
    return out


class TestFairShareQueue:
    def test_wrr_not_fifo(self):
        """The docstring example: A floods, B arrives late, B isn't last."""
        queue = FairShareQueue(limit=16)
        for name in ("a1", "a2", "a3"):
            queue.push(_job("alice", name))
        queue.push(_job("bob", "b1"))
        assert _pop_all(queue) == ["a1", "b1", "a2", "a3"]

    def test_weights_grant_consecutive_slots(self):
        queue = FairShareQueue(limit=16)
        queue.set_weight("alice", 2)
        for name in ("a1", "a2", "a3"):
            queue.push(_job("alice", name))
        for name in ("b1", "b2"):
            queue.push(_job("bob", name))
        assert _pop_all(queue) == ["a1", "a2", "b1", "a3", "b2"]

    def test_three_tenants_round_robin(self):
        queue = FairShareQueue(limit=16)
        for tenant, name in (("a", "a1"), ("a", "a2"), ("b", "b1"),
                             ("c", "c1"), ("c", "c2")):
            queue.push(_job(tenant, name))
        assert _pop_all(queue) == ["a1", "b1", "c1", "a2", "c2"]

    def test_bounded_admission(self):
        """Admission checks the bound; a held job is queued past it."""
        queue = FairShareQueue(limit=2, retry_after=3.5)
        queue.push(_job("a", "a1"))
        queue.push(_job("b", "b1"))
        with pytest.raises(QueueFull) as excinfo:
            queue.check_room()
        assert excinfo.value.limit == 2
        assert excinfo.value.retry_after == 3.5
        assert len(queue) == 2
        queue.push(_job("c", "c1"))
        assert len(queue) == 3

    def test_close_stops_admission_and_unblocks_pop(self):
        queue = FairShareQueue(limit=4)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.push(_job("a", "a1"))
        assert asyncio.run(queue.pop()) is None

    def test_check_room_refuses_without_admitting(self):
        queue = FairShareQueue(limit=1, retry_after=3.5)
        queue.check_room()
        queue.push(_job("a", "a1"))
        with pytest.raises(QueueFull):
            queue.check_room()
        assert len(queue) == 1
        queue.close()
        with pytest.raises(RuntimeError):
            queue.check_room()

    def test_drain_empties_every_lane(self):
        queue = FairShareQueue(limit=8)
        for tenant, name in (("a", "a1"), ("b", "b1"), ("a", "a2")):
            queue.push(_job(tenant, name))
        queue.drain()
        assert len(queue) == 0
        assert queue.depth_by_tenant() == {}
        queue.close()
        assert asyncio.run(queue.pop()) is None


# ---------------------------------------------------------------------------
# job model (unit)
# ---------------------------------------------------------------------------
class TestJobModel:
    def test_state_machine_happy_path(self):
        job = _job("t", "j1")
        assert job.state == "queued"
        job.transition("running")
        assert job.started_at is not None
        job.transition("done", {"cells": 1})
        assert job.terminal
        assert job.finished_at is not None

    def test_illegal_transitions_rejected(self):
        job = _job("t", "j1")
        with pytest.raises(ValueError):
            job.transition("done")  # queued -> done skips running
        job.transition("running")
        job.transition("failed", {"error": "boom"})
        with pytest.raises(ValueError):
            job.transition("running")  # terminal states are final

    def test_declared_state_machine_is_coherent(self):
        for state in TERMINAL_STATES:
            assert state in JOB_STATES
            assert not JOB_TRANSITIONS.get(state)
        for source, targets in JOB_TRANSITIONS.items():
            assert {source, *targets} <= set(JOB_STATES)
        assert set(JOB_STATES) <= set(EVENT_KINDS)
        kinds = (JOB_KIND, JOB_EVENT_KIND, JOB_RESULT_KIND,
                 SERVICE_STATUS_KIND)
        assert len(set(kinds)) == len(kinds)

    def test_record_matches_field_table(self):
        job = _job("t", "j1")
        record = job.to_record()
        assert check_record(record, JOB_FIELDS, "job", kind="pckpt-job",
                            version=SERVICE_SCHEMA_VERSION) == []
        assert record["state"] in JOB_STATES

    def test_events_sequenced_and_typed(self):
        job = _job("t", "j1")
        job.transition("running")
        job.record_event("telemetry", {"state": "running"})
        job.transition("done")
        seqs = [event["seq"] for event in job.events]
        assert seqs == list(range(len(job.events)))
        for event in job.events:
            assert set(event) == set(EVENT_FIELDS)
            assert event["event"] in EVENT_KINDS
            assert event["kind"] == "pckpt-job-event"
        with pytest.raises(ValueError):
            job.record_event("nonsense")


# ---------------------------------------------------------------------------
# full lifecycle (in-process server)
# ---------------------------------------------------------------------------
class TestServiceLifecycle:
    def test_five_example_specs_from_five_tenants(self, tmp_path):
        """The committed example specs, concurrently, one tenant each.

        Asserts every job completes, per-tenant accounting is right,
        and the quickstart result set is **bit-identical** to a local
        ``run_spec`` of the same capped document.
        """
        documents = example_documents()
        assert len(documents) == 5, "expected the five committed specs"
        results = {}
        errors = []

        with ServiceThread(tmp_path / "store", jobs=4) as svc:
            def tenant_run(name, document):
                try:
                    client = ServiceClient(port=svc.port, token=name)
                    envelope = client.submit(document)
                    record = client.wait(envelope["job"]["id"],
                                         timeout=300.0)
                    results[name] = (record, client.result(record["id"]))
                except BaseException as exc:  # pragma: no cover
                    errors.append((name, exc))

            threads = [
                threading.Thread(target=tenant_run, args=(name, doc))
                for name, doc in documents.items()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
            assert not errors, errors
            assert len(results) == 5

            for name, (record, payload) in results.items():
                assert record["state"] == "done", name
                assert record["tenant"] == name
                executed = record["replications_executed"]
                total = record["replications"]
                # Specs overlap (e.g. fig6a and fig7 share an XGC
                # cell), so a job may legitimately ride another
                # tenant's freshly-stored cells — but the accounting
                # must balance exactly.
                assert 0 <= executed <= total, name
                cached = total - executed
                assert record["cache_hit_rate"] == pytest.approx(
                    cached / total
                ), name
                assert len(payload["cells"]) == record["cells"]

            # Every distinct cell in the shared store was executed by
            # at least one job — cached replications were never
            # computed twice by the same job.
            store_cells = len(ResultStore(tmp_path / "store"))
            total_executed = sum(
                record["replications_executed"]
                for record, _ in results.values()
            )
            assert total_executed >= store_cells

            status = svc.service.status()
            assert status["jobs"]["done"] == 5
            assert set(status["tenants"]) == set(documents)

        # Bit-identical parity: the same capped document through the
        # local path, fresh store, serial workers.
        local = run_spec(
            spec_from_dict(documents["quickstart"]),
            store=ResultStore(tmp_path / "local-store"), workers=1,
        )
        local_cells = [
            {"key": list(key), "result": result_to_dict(result)}
            for key, result in local.items()
        ]
        _, service_payload = results["quickstart"]
        service_cells = [
            {"key": cell["key"], "result": cell["result"]}
            for cell in service_payload["cells"]
        ]
        assert service_cells == local_cells

    def test_cold_job_builds_its_cells_once(self, tmp_path, monkeypatch):
        calls = []
        real = server_module.build_cells

        def counting(spec):
            calls.append(spec.name)
            return real(spec)

        monkeypatch.setattr(server_module, "build_cells", counting)
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            job = client.wait(client.submit(tiny_spec(seed=412))["job"]["id"])
        assert job["state"] == "done" and job["replications_executed"] == 1
        assert calls == ["tiny-412"]

    def test_warm_resubmit_executes_zero_replications(self, tmp_path):
        document = tiny_spec(seed=411)
        with ServiceThread(tmp_path / "store", jobs=2) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            cold = client.wait(client.submit(document)["job"]["id"])
            assert cold["replications_executed"] == 1
            # Terminal job: a re-submit is a NEW job (no job-level
            # dedup against completed work)...
            warm_envelope = client.submit(document)
            assert warm_envelope["deduped"] is False
            warm = client.wait(warm_envelope["job"]["id"])
            assert warm["id"] != cold["id"]
            # ...but the store dedupes the computation: zero executed.
            assert warm["replications_executed"] == 0
            assert warm["cache_hit_rate"] == 1.0
            # And the warm result is byte-equal to the cold one.
            assert client.result(warm["id"])["cells"] == \
                client.result(cold["id"])["cells"]

    def test_admission_does_not_wait_on_busy_workers(self, tmp_path):
        """Eight tenants submit at once while every worker is held: all
        eight are admitted before any job may run to completion."""
        with ServiceThread(tmp_path / "store", jobs=4) as svc:
            gate = hold_dispatch(svc.service)
            envelopes, errors = {}, []

            def tenant_submit(n):
                try:
                    client = ServiceClient(port=svc.port, token=f"tenant-{n}")
                    envelopes[n] = client.submit(tiny_spec(seed=500 + n))
                except BaseException as exc:  # pragma: no cover
                    errors.append((n, exc))

            threads = [threading.Thread(target=tenant_submit, args=(n,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            assert not gate.is_set()
            assert svc.service.status()["jobs"].get("done", 0) == 0
            assert sorted(envelopes) == list(range(8))
            assert all(e["deduped"] is False for e in envelopes.values())

            gate.set()
            client = ServiceClient(port=svc.port, token="tenant-0")
            for envelope in envelopes.values():
                record = client.wait(envelope["job"]["id"], timeout=120.0)
                assert record["state"] == "done"
                assert record["replications_executed"] == 1
            assert svc.service.status()["jobs"]["done"] == 8

    def test_inflight_duplicate_submissions_coalesce(self, tmp_path):
        document = tiny_spec(seed=412, replications=3)
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            alice = ServiceClient(port=svc.port, token="alice")
            bob = ServiceClient(port=svc.port, token="bob")
            gate = hold_dispatch(svc.service)
            first = alice.submit(document)
            assert first["deduped"] is False
            wait_running(alice, first["job"]["id"])
            # Same spec hash while queued/running coalesces — across
            # tenants, onto the original job.
            second = bob.submit(document)
            assert second["deduped"] is True
            assert second["job"]["id"] == first["job"]["id"]
            assert second["job"]["tenant"] == "alice"
            gate.set()
            final = alice.wait(first["job"]["id"])
            assert final["state"] == "done"
            assert svc.service.metrics.counter(
                "service.jobs.deduped"
            ).value == 1

    def test_fair_share_start_order(self, tmp_path):
        """One worker, tenant A floods, tenant B arrives late: the
        dispatch order is a1, b1, a2, a3 — not FIFO."""
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            alice = ServiceClient(port=svc.port, token="alice")
            bob = ServiceClient(port=svc.port, token="bob")
            # a1 holds the worker so a2/a3/b1 are all queued while it runs.
            gate = hold_dispatch(svc.service)
            a1 = alice.submit(tiny_spec(seed=1, replications=3))
            wait_running(alice, a1["job"]["id"])
            a2 = alice.submit(tiny_spec(seed=2))
            a3 = alice.submit(tiny_spec(seed=3))
            b1 = bob.submit(tiny_spec(seed=4))
            gate.set()
            ids = {
                "a1": a1["job"]["id"], "a2": a2["job"]["id"],
                "a3": a3["job"]["id"], "b1": b1["job"]["id"],
            }
            for job_id in ids.values():
                alice.wait(job_id, timeout=120.0)
            started = {
                name: alice.job(job_id)["started_at"]
                for name, job_id in ids.items()
            }
            order = sorted(started, key=started.get)
            assert order == ["a1", "b1", "a2", "a3"]

    def test_backpressure_429_with_retry_after(self, tmp_path):
        with ServiceThread(tmp_path / "store", jobs=1, queue_limit=2,
                           retry_after=7.0) as svc:
            client = ServiceClient(port=svc.port, token="flood")
            # Occupy the worker, then fill the queue to its limit.
            gate = hold_dispatch(svc.service)
            running = client.submit(tiny_spec(seed=20, replications=3))
            wait_running(client, running["job"]["id"])
            queued = [client.submit(tiny_spec(seed=21 + i))
                      for i in range(2)]
            with pytest.raises(ServiceBusy) as excinfo:
                client.submit(tiny_spec(seed=99))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 7.0
            # A rejected submission leaves no job behind: no record, no
            # journal line, no id.
            rejected_hashes = {r["job"]["spec_hash"]
                               for r in [running] + queued}
            assert len(client.jobs()) == 3
            assert {j["spec_hash"] for j in client.jobs()} \
                == rejected_hashes
            admitted = sorted(r["job"]["id"] for r in [running] + queued)
            assert sorted({r["job_id"] for r in read_journal(
                tmp_path / "store") if r["kind"] == JOB_EVENT_KIND}) \
                == admitted
            # Once the queue drains, the same submission is admitted
            # under the next id.
            gate.set()
            client.wait(running["job"]["id"], timeout=120.0)
            for envelope in queued:
                client.wait(envelope["job"]["id"], timeout=120.0)
            retried = client.submit(tiny_spec(seed=99))
            assert retried["job"]["id"].startswith("j00004-")
            assert client.wait(retried["job"]["id"])["state"] == "done"

    def test_event_stream_replays_and_follows_live(self, tmp_path):
        document = tiny_spec(seed=430)
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            job_id = client.submit(document)["job"]["id"]
            # Attach immediately: the stream must replay whatever has
            # happened and then follow live until the terminal event.
            events = list(client.events(job_id))
            assert [e["event"] for e in events][:2] == ["queued", "running"]
            assert events[-1]["event"] == "done"
            assert [e["seq"] for e in events] == list(range(len(events)))
            for event in events:
                assert set(event) == set(EVENT_FIELDS)
                assert event["schema_version"] == SERVICE_SCHEMA_VERSION
            # Telemetry events bridge real campaign snapshots.
            telemetry = [e for e in events if e["event"] == "telemetry"]
            assert telemetry, "expected bridged telemetry events"
            assert telemetry[-1]["data"]["kind"] == "pckpt-telemetry"
            # Replay after the fact returns the identical history.
            assert list(client.events(job_id)) == events

    def test_per_job_telemetry_on_disk(self, tmp_path):
        """Each job's telemetry snapshots are its telemetry events in the
        service journal — what `pckpt top --store` shows."""
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            record = client.wait(
                client.submit(tiny_spec(seed=440))["job"]["id"]
            )
        lines = [json.loads(line)["data"] for line in journal_lines(
            tmp_path / "store", record["id"], JOB_EVENT_KIND).splitlines()
            if b'"event": "telemetry"' in line]
        assert lines[-1]["kind"] == "pckpt-telemetry"
        assert lines[-1]["state"] == "done"
        # The store-level feed does NOT exist on a service-managed
        # store (jobs stream per-job, not per-store).
        assert not (tmp_path / "store" / "telemetry.jsonl").exists()


# ---------------------------------------------------------------------------
# persistence across restart
# ---------------------------------------------------------------------------
class TestQueuePersistence:
    def test_shutdown_persists_pending_and_restart_resumes(self, tmp_path):
        store = tmp_path / "store"
        pending_ids = []
        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            # Worker busy with the first; two more wait in the queue.  The
            # first is released once shutdown has taken the queue away.
            gate = hold_dispatch(svc.service)
            queue = svc.service.queue
            close = queue.close

            def close_then_release():
                close()
                gate.set()

            queue.close = close_then_release
            first = client.submit(tiny_spec(seed=50, replications=3))
            first_id = first["job"]["id"]
            wait_running(client, first_id)
            for seed in (51, 52):
                pending_ids.append(
                    client.submit(tiny_spec(seed=seed))["job"]["id"]
                )
        # Graceful shutdown (context exit): running job drained, waiting
        # jobs left in the journal as their admissions wrote them.
        assert os.listdir(store / "service") == ["journal"]
        records = list(read_journal(store))
        entries = [r for r in records if r["kind"] == JOB_ENTRY_KIND]
        assert [e["id"] for e in entries] == [first_id] + pending_ids
        assert {r["id"] for r in records if r["kind"] == JOB_KIND} == \
            {first_id}
        for entry in entries:
            assert check_record(entry, JOB_ENTRY_FIELDS, entry["id"],
                                JOB_ENTRY_KIND, SERVICE_SCHEMA_VERSION) == []

        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            # The restored jobs keep their ids and run to completion.
            for job_id in pending_ids:
                final = client.wait(job_id, timeout=120.0)
                assert final["state"] == "done"
                assert final["replications_executed"] == 1
            # Ids keep counting where the first service stopped.
            fresh = client.submit(tiny_spec(seed=53))
            assert fresh["job"]["id"].startswith("j00004-")


class TestQueueJournal:
    """A copy of the store taken while the service runs is what a SIGKILL
    leaves behind: every admission and dispatch is flushed to the service
    journal before the response goes out or the job starts."""

    def _copy_while_held(self, tmp_path, seeds):
        """Hold one job on the single worker, queue *seeds*, copy the store.

        Returns the copy and the queued job ids.
        """
        store, copy = tmp_path / "store", tmp_path / "copy"
        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            gate = hold_dispatch(svc.service)
            held = client.submit(tiny_spec(seed=150, replications=3))
            wait_running(client, held["job"]["id"])
            queued = [client.submit(tiny_spec(seed=seed))["job"]["id"]
                      for seed in seeds]
            shutil.copytree(store, copy)
            gate.set()
        assert held["job"]["id"].startswith("j00001-")
        return copy, queued

    def _assert_restores(self, copy, restored, next_id):
        with ServiceThread(copy, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            # The held job was dispatched before the copy: not re-enqueued.
            assert [j["id"] for j in client.jobs()] == restored
            # Each restored job was admitted anew, in admission order.
            entries = [r["id"] for r in read_journal(copy)
                       if r["kind"] == JOB_ENTRY_KIND]
            assert entries[len(entries) - len(restored):] == restored
            assert svc.service._next_seq == int(next_id[1:6])
            for job_id in restored:
                final = client.wait(job_id, timeout=120.0)
                assert final["state"] == "done"
                assert final["replications_executed"] == 1
            fresh = client.submit(tiny_spec(seed=159))
            assert fresh["job"]["id"].startswith(next_id)

    def test_killed_service_restores_queued_jobs(self, tmp_path):
        copy, queued = self._copy_while_held(tmp_path, (151, 152))
        assert os.listdir(copy / "service") == ["journal"]
        self._assert_restores(copy, queued, "j00004-")

    def test_torn_final_journal_line_is_ignored(self, tmp_path):
        copy, queued = self._copy_while_held(tmp_path, (151, 152, 153))
        segment = Journal(journal_dir(copy)).segment_path(0)
        data = segment.read_bytes()
        # The last append is the last admission: an entry, then its
        # queued event.
        entry, queued_line = data.splitlines(keepends=True)[-2:]
        assert json.loads(entry)["id"] == queued[2]
        last = len(data) - len(queued_line) - len(entry)
        segment.write_bytes(data[:last + 20])       # mid-way into the entry
        # Everything before the torn admission restores; its id is
        # reused, since the job it would have named is unknown.
        self._assert_restores(copy, queued[:2], "j00004-")


class TestServiceCostModel:
    """Per-job persistence is O(1) appends to one journal: nothing under
    the service directory is ever rewritten."""

    def test_submit_and_dispatch_replace_no_file(self, tmp_path,
                                                 monkeypatch):
        store = os.path.realpath(tmp_path / "store")
        replaced = []       # every replaced file, relative to the store
        real_replace = os.replace

        def counting_replace(src, dst, **kwargs):
            replaced.append(os.path.relpath(os.path.realpath(dst), store))
            return real_replace(src, dst, **kwargs)

        def service_state():
            return [p for p in replaced if p.split(os.sep)[0] == "service"]

        monkeypatch.setattr(os, "replace", counting_replace)
        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            gate = hold_dispatch(svc.service)
            first = client.submit(tiny_spec(seed=160))["job"]["id"]
            wait_running(client, first)
            client.submit(tiny_spec(seed=161))
            assert service_state() == []
            gate.set()
            client.wait(first, timeout=120.0)
            # Terminal job records are journal lines, not replaces; the
            # store's entries are (the hook sees them).
            assert service_state() == []
            assert any(len(p.split(os.sep)[0]) == 2 for p in replaced)
        assert service_state() == []

    def test_event_log_handles_bounded_by_workers(self, tmp_path):
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("no /proc/self/fd on this platform")
        store = (tmp_path / "store").resolve()

        def open_into_store():
            out = []
            for fd in os.listdir(fd_dir):
                try:
                    target = os.readlink(fd_dir / fd)
                except OSError:
                    continue                        # closed meanwhile
                if target.startswith(str(store) + os.sep):
                    out.append(os.path.relpath(target, store))
            return sorted(out)

        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            gate = hold_dispatch(svc.service)
            ids = [client.submit(tiny_spec(seed=170))["job"]["id"]]
            wait_running(client, ids[0])
            ids += [client.submit(tiny_spec(seed=171 + n))["job"]["id"]
                    for n in range(19)]
            # Twenty jobs admitted, one running: one journal segment is
            # open, nothing per job.
            held = [os.path.join("service", "journal", f"{0:020d}.ndjson")]
            assert open_into_store() == held
            gate.set()
            for job_id in ids:
                assert client.wait(job_id, timeout=120.0)["state"] == "done"
            assert open_into_store() == held
        assert open_into_store() == []

    def test_event_log_is_the_stream_byte_for_byte(self, tmp_path):
        with ServiceThread(tmp_path / "store", jobs=2) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            ids = [client.submit(tiny_spec(seed=180 + n))["job"]["id"]
                   for n in range(3)]
            for job_id in ids:
                client.wait(job_id, timeout=120.0)
            store = tmp_path / "store"
            for job_id in ids:
                status, _, body = client._request(
                    "GET", f"/v1/jobs/{job_id}/events")
                assert status == 200
                assert journal_lines(store, job_id, JOB_EVENT_KIND) == body
                assert b'"event": "telemetry"' in body
                # The last journaled record is the one the API serves.
                status, _, body = client._request("GET", f"/v1/jobs/{job_id}")
                assert journal_lines(store, job_id, JOB_KIND) \
                    .splitlines(keepends=True)[-1] == body


def fail_spec_named(service, name: str) -> None:
    """Make every job whose spec is called *name* fail when it runs."""
    execute = service._execute

    async def failing(job):
        if job.spec.name == name:
            raise RuntimeError("injected failure")
        return await execute(job)

    service._execute = failing


def body(client, path: str) -> tuple:
    """``(status, body bytes)`` of one GET."""
    status, _, data = client._request("GET", path)
    return status, data


def as_json(payload) -> bytes:
    """The bytes the service sends for a JSON *payload*."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class TestFinishedJobsOnDisk:
    """Memory holds the live jobs only.  A job leaves the table at its
    terminal transition, and its record, events and result are read back
    from its journal lines and the store entries its result index
    names, as the bytes the live job would have sent."""

    def test_job_table_holds_only_live_jobs(self, tmp_path):
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            gate = hold_dispatch(svc.service)
            ids = [client.submit(tiny_spec(seed=600))["job"]["id"]]
            wait_running(client, ids[0])
            ids += [client.submit(tiny_spec(seed=601 + n))["job"]["id"]
                    for n in range(4)]
            table = svc.service.jobs
            assert sorted(table) == sorted(ids)
            assert sorted(job.state for job in table.values()) == \
                ["queued"] * 4 + ["running"]
            gate.set()
            for job_id in ids:
                assert client.wait(job_id, timeout=120.0)["state"] == "done"
            assert svc.service.jobs == {}
            assert svc.service._inflight == {}
            assert svc.service.status()["jobs"] == {
                "queued": 0, "running": 0, "done": 5, "failed": 0,
                "total": 5}

    def test_finished_job_answers_as_it_did_live(self, tmp_path):
        """A done job with a deduped submission on it, and a failed job:
        record, events and result after eviction against the live job's
        bytes, a live stream reader's bytes and a local ``run_spec``."""
        import http.client

        document = tiny_spec(seed=610)
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            service = svc.service
            client = ServiceClient(port=svc.port, token="alice")
            gate = hold_dispatch(service)
            fail_spec_named(service, "doomed")
            done_id = client.submit(document)["job"]["id"]
            wait_running(client, done_id)
            coalesced = ServiceClient(port=svc.port, token="bob").submit(
                document)
            assert coalesced["deduped"] is True
            assert coalesced["job"]["id"] == done_id
            failed_id = client.submit(
                dict(tiny_spec(seed=611), name="doomed"))["job"]["id"]
            live = {job_id: service.jobs[job_id]
                    for job_id in (done_id, failed_id)}

            streams, attached = {}, threading.Barrier(3)

            def follow(job_id):
                conn = http.client.HTTPConnection("127.0.0.1", svc.port,
                                                  timeout=120)
                try:
                    conn.request("GET", f"/v1/jobs/{job_id}/events")
                    response = conn.getresponse()
                    first = response.readline()      # served while live
                    attached.wait(60)
                    streams[job_id] = first + response.read()
                finally:
                    conn.close()

            readers = [threading.Thread(target=follow, args=(job_id,))
                       for job_id in live]
            for reader in readers:
                reader.start()
            attached.wait(60)
            gate.set()
            for reader in readers:
                reader.join(120)
                assert not reader.is_alive()
            assert client.wait(done_id)["state"] == "done"
            assert client.wait(failed_id)["state"] == "failed"
            assert service.jobs == {}

            for job_id, job in live.items():
                assert body(client, f"/v1/jobs/{job_id}") == \
                    (200, as_json(job.to_record()))
                assert body(client, f"/v1/jobs/{job_id}/events") == \
                    (200, streams[job_id])
                assert streams[job_id] == b"".join(job.lines) == \
                    journal_lines(tmp_path / "store", job_id, JOB_EVENT_KIND)
            assert body(client, f"/v1/jobs/{failed_id}/result") == (409, as_json(
                {"error": "job failed: RuntimeError: injected failure",
                 "state": "failed"}))
            status, result = body(client, f"/v1/jobs/{done_id}/result")
            assert journal_lines(tmp_path / "store", failed_id,
                                 "pckpt-job-cells") == b""

        local_store = ResultStore(tmp_path / "local-store")
        local = run_spec(spec_from_dict(document), store=local_store,
                         workers=1)
        store_keys = [cell["store_key"] for cell in json.loads(result)["cells"]]
        assert sorted(store_keys) == sorted(local_store.keys())
        assert (status, result) == (200, as_json({
            "kind": JOB_RESULT_KIND,
            "schema_version": SERVICE_SCHEMA_VERSION,
            "job_id": done_id,
            "spec_hash": live[done_id].spec_hash,
            "cells": [{"key": list(key), "store_key": store_key,
                       "result": result_to_dict(cell_result)}
                      for (key, cell_result), store_key
                      in zip(local.items(), store_keys)],
        }))

    def test_restarted_serve_answers_for_earlier_jobs(self, tmp_path):
        store = tmp_path / "store"
        paths = []
        with ServiceThread(store, jobs=1) as svc:
            fail_spec_named(svc.service, "doomed")
            client = ServiceClient(port=svc.port, token="alice")
            ids = [client.submit(tiny_spec(seed=620))["job"]["id"],
                   client.submit(dict(tiny_spec(seed=621),
                                      name="doomed"))["job"]["id"]]
            for job_id in ids:
                client.wait(job_id, timeout=120.0)
            paths = [f"/v1/jobs/{job_id}{view}" for job_id in ids
                     for view in ("", "/events", "/result")]
            before = [body(client, path) for path in paths]
            listed = client.jobs()
        assert [status for status, _ in before] == [200, 200, 200,
                                                    200, 200, 409]

        with ServiceThread(store, jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            assert [body(client, path) for path in paths] == before
            assert client.jobs() == listed
            fresh = client.submit(tiny_spec(seed=622))["job"]["id"]
            assert fresh.startswith("j00003-")
            client.wait(fresh, timeout=120.0)
            assert [j["id"] for j in client.jobs()] == ids + [fresh]
            # Status counts this serve's jobs.
            assert client.status()["jobs"]["total"] == 1

    def test_status_and_slo_rows_equal_the_records_on_disk(self, tmp_path):
        from collections import Counter

        from repro.obs.slo import (compute_slo, load_job_records,
                                   render_slo_metrics)

        store = tmp_path / "store"
        with ServiceThread(store, jobs=1) as svc:
            fail_spec_named(svc.service, "doomed")
            gate = hold_dispatch(svc.service)
            alice = ServiceClient(port=svc.port, token="alice")
            bob = ServiceClient(port=svc.port, token="bob")
            ids = [alice.submit(tiny_spec(seed=630))["job"]["id"]]
            wait_running(alice, ids[0])
            assert bob.submit(tiny_spec(seed=630))["deduped"] is True
            ids += [bob.submit(tiny_spec(seed=631))["job"]["id"],
                    bob.submit(dict(tiny_spec(seed=632),
                                    name="doomed"))["job"]["id"],
                    alice.submit(tiny_spec(seed=631, replications=2))
                    ["job"]["id"]]
            gate.set()
            for job_id in ids:
                alice.wait(job_id, timeout=120.0)
            status = alice.status()
            text = alice.metrics_text()
            service = svc.service
            window, objectives = service.slo_window, service.slo

        records = load_job_records(store)
        assert [r["id"] for r in records] == ids
        states = Counter(r["state"] for r in records)
        assert states == {"done": 3, "failed": 1}
        assert status["jobs"] == {"queued": 0, "running": 0,
                                  "done": states["done"],
                                  "failed": states["failed"],
                                  "total": len(records)}
        assert status["tenants"] == {
            tenant: {"jobs": n}
            for tenant, n in Counter(r["tenant"] for r in records).items()}
        rows = render_slo_metrics(compute_slo(
            records, window_seconds=window, objectives=objectives))
        assert text.splitlines()[-len(rows) - 1:] == rows + ["# EOF"]

    def test_result_of_a_cleared_store_is_gone(self, tmp_path):
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            job_id = client.submit(tiny_spec(seed=650))["job"]["id"]
            client.wait(job_id, timeout=120.0)
            assert body(client, f"/v1/jobs/{job_id}/result")[0] == 200
            assert svc.service.store.clear() == 1
            status, data = body(client, f"/v1/jobs/{job_id}/result")
            assert status == 410
            assert json.loads(data)["state"] == "done"
            # The record and events do not depend on the store.
            assert body(client, f"/v1/jobs/{job_id}")[0] == 200
            assert body(client, f"/v1/jobs/{job_id}/events")[0] == 200

    def test_finished_list_keeps_the_slo_window(self):
        from types import SimpleNamespace

        from repro.service.server import _FinishedJobs

        finished = _FinishedJobs()
        jobs = [SimpleNamespace(tenant=f"t{n % 2}", submitted_at=n + 0.5,
                                started_at=n + 0.75, finished_at=n + 1.0,
                                state="failed" if n == 2 else "done",
                                cache_hit_rate=None if n == 2 else n / 4)
                for n in range(4)]
        for job in jobs:
            finished.append(job)
        expected = [{name: getattr(job, name) for name in (
            "tenant", "state", "submitted_at", "started_at", "finished_at",
            "cache_hit_rate")} for job in jobs]
        assert list(finished.records()) == expected
        finished.trim(1.5)              # one of four out: skipped, kept
        assert list(finished.records()) == expected[1:]
        assert len(finished.tenants) == 4
        finished.trim(2.5)              # half out: deleted
        assert list(finished.records()) == expected[2:]
        assert len(finished.tenants) == 2
        assert len(finished.numbers) == 2 * len(finished.NUMBERS)

    def test_listing_pages_in_job_sequence_order(self, tmp_path):
        """Ids are ``j{seq:05d}-…``: ``j100000`` sorts before ``j99999``
        as a string, so the listing orders by the number."""
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            svc.service._next_seq = 99998
            client = ServiceClient(port=svc.port, token="alice")
            ids = [client.submit(tiny_spec(seed=640 + n))["job"]["id"]
                   for n in range(3)]
            assert [job_id.split("-")[0] for job_id in ids] == \
                ["j99998", "j99999", "j100000"]
            for job_id in ids:
                client.wait(job_id, timeout=120.0)
            assert [j["id"] for j in client.jobs()] == ids

            first = client._json("GET", "/v1/jobs?limit=2")
            assert [j["id"] for j in first["jobs"]] == ids[:2]
            assert first["next"] == ids[1]
            last = client._json("GET", f"/v1/jobs?after={ids[1]}&limit=2")
            assert [j["id"] for j in last["jobs"]] == ids[2:]
            assert last["next"] is None
            for query in ("limit=0", "limit=x", "after=nope",
                          f"limit={10 ** 6}"):
                assert body(client, f"/v1/jobs?{query}")[0] == 400, query


# ---------------------------------------------------------------------------
# HTTP surface details
# ---------------------------------------------------------------------------
class TestHTTPSurface:
    @pytest.fixture()
    def svc(self, tmp_path):
        with ServiceThread(tmp_path / "store", jobs=1) as service:
            yield service

    def test_invalid_spec_rejected_with_collected_problems(self, svc):
        client = ServiceClient(port=svc.port, token="alice")
        bad = {"schema_version": 1, "models": ["NOPE"],
               "replications": -3}
        with pytest.raises(SpecRejected) as excinfo:
            client.submit(bad)
        # Identical problems to the local loader: validate-all-then-
        # apply reports everything at once, not just the first.
        from repro.spec import SpecError

        with pytest.raises(SpecError) as local:
            spec_from_dict(bad)
        assert excinfo.value.problems == local.value.problems
        assert len(excinfo.value.problems) >= 2
        assert client.jobs() == []

    def test_malformed_body_is_400(self, svc):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10)
        try:
            conn.request("POST", "/v1/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert b"not JSON" in response.read()
        finally:
            conn.close()

    def test_unknown_job_and_path_are_404(self, svc):
        client = ServiceClient(port=svc.port)
        for path in ("/v1/jobs/nope", "/v1/jobs/nope/events", "/v2/jobs"):
            status, _, _ = client._request("GET", path)
            assert status == 404, path

    def test_result_of_unfinished_job_is_409(self, svc):
        client = ServiceClient(port=svc.port, token="alice")
        # The gate holds the job unfinished until the GET has been answered.
        gate = hold_dispatch(svc.service)
        job_id = client.submit(tiny_spec(seed=60, replications=3))["job"]["id"]
        status, _, body = client._request("GET", f"/v1/jobs/{job_id}/result")
        assert status == 409
        assert json.loads(body)["state"] in ("queued", "running")
        gate.set()
        assert client.wait(job_id, timeout=120.0)["state"] == "done"

    def test_status_and_metrics_endpoints(self, svc):
        client = ServiceClient(port=svc.port, token="alice")
        client.wait(client.submit(tiny_spec(seed=61))["job"]["id"])
        status = client.status()
        assert status["kind"] == "pckpt-service-status"
        assert status["schema_version"] == SERVICE_SCHEMA_VERSION
        assert status["jobs"]["done"] == 1
        assert status["queue"]["limit"] == 64
        # The embedded store block is campaign `status_payload` verbatim.
        from repro.campaign import status_payload

        assert status["store"] == status_payload(svc.service.store)["store"]
        text = client.metrics_text()
        assert "pckpt_service_jobs_submitted_total 1" in text
        assert 'pckpt_service_jobs{state="done"} 1' in text
        assert text.rstrip().endswith("# EOF")

    def test_anonymous_tenant_in_open_mode(self, svc):
        client = ServiceClient(port=svc.port)  # no token
        record = client.submit(tiny_spec(seed=62))["job"]
        assert record["tenant"] == "anonymous"
        client.wait(record["id"])


class TestTracePropagation:
    @pytest.fixture()
    def svc(self, tmp_path):
        with ServiceThread(tmp_path / "store", jobs=1) as service:
            yield service

    def test_header_propagates_to_record_events_and_fragments(self, svc):
        from repro.obs.context import trace_fragment_dir

        client = ServiceClient(port=svc.port, token="acme")
        record = client.submit(
            tiny_spec(seed=90),
            trace="feedc0de11223344-aabbccdd00112233",
        )["job"]
        assert record["trace_id"] == "feedc0de11223344"
        final = client.wait(record["id"], timeout=120.0)
        assert final["state"] == "done"

        # journaled job record + events carry the trace id
        store = svc.service.store.root
        persisted = json.loads(journal_lines(
            store, record["id"], JOB_KIND).splitlines()[-1])
        assert persisted["trace_id"] == "feedc0de11223344"
        events = [json.loads(line) for line in journal_lines(
            store, record["id"], JOB_EVENT_KIND).splitlines()]
        assert events
        assert all(e["trace_id"] == "feedc0de11223344" for e in events)

        # spans, journaled: the service's request span adopts the trace
        # and parents to the caller's span; the campaign ran under it
        spans = [r for r in read_journal(store) if r["kind"] == "pckpt-span"]
        assert not trace_fragment_dir(store, "feedc0de11223344").exists()
        names = {s["name"] for s in spans}
        assert {"request", "queue.wait", "execute",
                "campaign.run", "kernel.run"} <= names
        request = next(s for s in spans if s["name"] == "request")
        assert request["parent_id"] == "aabbccdd00112233"
        assert all(s["trace_id"] == "feedc0de11223344" for s in spans)

    def test_untraced_submit_mints_a_context(self, svc):
        client = ServiceClient(port=svc.port, token="acme")
        record = client.submit(tiny_spec(seed=91))["job"]
        assert isinstance(record["trace_id"], str)
        int(record["trace_id"], 16)
        client.wait(record["id"], timeout=120.0)

    def test_malformed_trace_header_is_400(self, svc):
        client = ServiceClient(port=svc.port, token="acme")
        status, _, body = client._request(
            "POST", "/v1/jobs", {"spec": tiny_spec(seed=92)},
            extra_headers={"X-Pckpt-Trace": "NOT-HEX"},
        )
        assert status == 400
        assert b"trace" in body.lower()
        assert client.jobs() == []  # rejected before admission

    def test_metrics_exposes_tenant_slo_series(self, svc):
        import http.client

        client = ServiceClient(port=svc.port, token="acme")
        client.wait(client.submit(tiny_spec(seed=93))["job"]["id"],
                    timeout=120.0)
        text = client.metrics_text()
        assert 'pckpt_tenant_jobs{tenant="acme",state="done"} 1' in text
        assert 'pckpt_tenant_job_latency_seconds{tenant="acme"' in text
        assert 'pckpt_tenant_error_rate{tenant="acme"} 0' in text
        assert 'pckpt_tenant_slo_status{tenant="acme",status="ok"} 1' in text
        # counter families declare TYPE without _total; samples keep it
        assert "# TYPE pckpt_service_jobs_submitted counter" in text
        assert "pckpt_service_jobs_submitted_total 1" in text
        assert text.rstrip().endswith("# EOF")

        # the exposition advertises the OpenMetrics content type
        from repro.obs.telemetry import OPENMETRICS_CONTENT_TYPE

        conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Content-Type") == \
                OPENMETRICS_CONTENT_TYPE
        finally:
            conn.close()

    def test_slo_objectives_grade_on_metrics(self, tmp_path):
        from repro.obs.slo import SLOObjectives

        with ServiceThread(tmp_path / "store", jobs=1,
                           slo=SLOObjectives(latency_p99_seconds=1e-6)
                           ) as svc:
            client = ServiceClient(port=svc.port, token="acme")
            client.wait(client.submit(tiny_spec(seed=94))["job"]["id"],
                        timeout=120.0)
            text = client.metrics_text()
            # any real job blows a 1us latency objective
            assert ('pckpt_tenant_slo_status{tenant="acme",'
                    'status="breach"} 1') in text
            assert ('pckpt_tenant_slo_burn_rate{tenant="acme",'
                    'objective="latency_p99"}') in text


class TestJobsOnTheLoop:
    """Jobs run on the event loop, a replication per step, interleaved."""

    def test_requests_and_jobs_run_while_a_job_is_held(self, tmp_path,
                                                       monkeypatch):
        """A job held between its first and second replication delays
        no request and no other job."""
        gate, holding = hold_steps(monkeypatch, after=1, campaigns=1)
        threads_before = set(threading.enumerate())
        with ServiceThread(tmp_path / "store", jobs=2) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            held_id = client.submit(tiny_spec(seed=120, replications=2)
                                    )["job"]["id"]
            assert holding.wait(60), "the job never reached the gate"
            telemetry = [e["data"] for e in svc.service.jobs[held_id].events
                         if e["event"] == "telemetry"]
            assert telemetry[-1]["replications_executed"] == 1
            # No thread but the serve's own.
            assert set(threading.enumerate()) - threads_before == \
                {svc._thread}

            status = client.status()
            assert status["kind"] == SERVICE_STATUS_KIND
            assert status["jobs"]["running"] == 1
            assert client.job(held_id)["state"] == "running"
            other = client.submit(tiny_spec(seed=121))["job"]["id"]
            assert client.wait(other, timeout=120.0)["state"] == "done"
            assert client.job(held_id)["state"] == "running"

            gate.set()
            final = client.wait(held_id, timeout=120.0)
            assert final["state"] == "done"
            assert final["replications_executed"] == 2

    @pytest.mark.parametrize("held_for", [0.05, 0.8])
    def test_wait_makes_two_requests_however_long_the_job(
            self, tmp_path, monkeypatch, held_for):
        """``wait`` follows the event stream, then reads the record once.

        The job is held running for *held_for* seconds after ``wait``
        starts.  Polling the record every 0.2 s made one request per
        poll, so its count grew with the hold.
        """
        import http.client

        gate, holding = hold_steps(monkeypatch, after=1, campaigns=1)
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            job_id = client.submit(tiny_spec(seed=125, replications=2)
                                   )["job"]["id"]
            assert holding.wait(60), "the job never reached the gate"
            requests = []
            request = http.client.HTTPConnection.request

            def counted(conn, method, url, *args, **kwargs):
                requests.append((method, url))
                return request(conn, method, url, *args, **kwargs)

            monkeypatch.setattr(http.client.HTTPConnection, "request",
                                counted)
            release = threading.Timer(held_for, gate.set)
            release.start()
            try:
                final = client.wait(job_id, timeout=120.0)
            finally:
                release.join()
            made = list(requests)
        assert final["state"] == "done"
        assert final["replications_executed"] == 2
        assert made == [("GET", f"/v1/jobs/{job_id}/events"),
                        ("GET", f"/v1/jobs/{job_id}")]

    def test_wait_times_out_on_a_held_job(self, tmp_path, monkeypatch):
        """A job held running past ``wait``'s timeout raises TimeoutError."""
        gate, holding = hold_steps(monkeypatch, after=1, campaigns=1)
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            job_id = client.submit(tiny_spec(seed=126, replications=2)
                                   )["job"]["id"]
            assert holding.wait(60), "the job never reached the gate"
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.wait(job_id, timeout=0.3)
            assert time.monotonic() - started < 10.0
            gate.set()
            assert client.wait(job_id, timeout=120.0)["state"] == "done"

    def test_interleaved_jobs_keep_their_own_traces(self, tmp_path,
                                                    monkeypatch):
        """Two jobs stepping in turn on one loop: each trace id stitches
        to its own job's campaign and kernel spans only."""
        gate, holding = hold_steps(monkeypatch, after=0, campaigns=2)
        traces = {"a1a1a1a1a1a1a1a1": 130, "b2b2b2b2b2b2b2b2": 131}
        with ServiceThread(tmp_path / "store", jobs=2) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            jobs = {trace_id: client.submit(
                        tiny_spec(seed=seed, replications=2),
                        trace=trace_id)["job"]["id"]
                    for trace_id, seed in traces.items()}
            # Both campaigns have started under their own activation
            # before either takes a step.
            assert holding.wait(60), "the jobs never reached the gate"
            gate.set()
            for job_id in jobs.values():
                assert client.wait(job_id, timeout=120.0)["state"] == "done"
            store = svc.service.store.root

        runs = {}
        for trace_id, job_id in jobs.items():
            spans = collect_trace(store, trace_id)["spans"]
            assert {s["trace_id"] for s in spans} == {trace_id}
            campaign = [s for s in spans if s["name"] == "campaign.run"]
            kernel = [s for s in spans if s["name"] == "kernel.run"]
            assert len(campaign) == 1
            assert sorted(s["args"]["replication"] for s in kernel) == [0, 1]
            assert {s["parent_id"] for s in kernel} == \
                {campaign[0]["span_id"]}
            request = next(s for s in spans if s["name"] == "request")
            assert request["args"]["job_id"] == job_id
            runs[trace_id] = (campaign[0], {s["args"]["seed"]
                                            for s in kernel})
        (run_a, seeds_a), (run_b, seeds_b) = runs.values()
        assert len(seeds_a) == len(seeds_b) == 1 and seeds_a != seeds_b
        # The two campaigns overlapped in time: they interleaved.
        assert run_a["t0"] < run_b["t1"] and run_b["t0"] < run_a["t1"]


class TestClosedAuthMode:
    def test_tokens_file_gates_and_maps_tenants(self, tmp_path):
        from repro.service.server import load_tokens

        tokens_file = tmp_path / "tokens.json"
        tokens_file.write_text(json.dumps({
            "tok-a": "alice",
            "tok-batch": {"tenant": "batch", "weight": 3},
        }))
        tokens = load_tokens(tokens_file)
        assert tokens == {"tok-a": ("alice", 1), "tok-batch": ("batch", 3)}

        with ServiceThread(tmp_path / "store", jobs=1,
                           tokens=tokens) as svc:
            good = ServiceClient(port=svc.port, token="tok-a")
            record = good.submit(tiny_spec(seed=70))["job"]
            assert record["tenant"] == "alice"
            good.wait(record["id"])
            for bad_token in (None, "wrong"):
                bad = ServiceClient(port=svc.port, token=bad_token)
                with pytest.raises(Exception) as excinfo:
                    bad.submit(tiny_spec(seed=71))
                assert getattr(excinfo.value, "status", None) == 401

    def test_bad_tokens_files_rejected(self, tmp_path):
        from repro.service.server import load_tokens

        for bad in (["not", "a", "dict"], {"tok": 42},
                    {"tok": {"tenant": "x", "weight": 0}}):
            path = tmp_path / "tokens.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError):
                load_tokens(path)


class TestServiceShutdownSemantics:
    def test_submit_after_shutdown_is_503(self, tmp_path):
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            gate = hold_dispatch(svc.service)
            running = client.submit(tiny_spec(seed=80, replications=2))
            wait_running(client, running["job"]["id"])
            assert client.shutdown() == {"state": "draining"}
            # New admissions refused while the drain waits on the held
            # job...
            status = None
            try:
                client.submit(tiny_spec(seed=81))
            except Exception as exc:
                status = getattr(exc, "status", None)
            gate.set()
            assert status == 503
            # ...and the running job still drains to completion before
            # the socket closes (ServiceThread.__exit__ joins it).
            job_id = running["job"]["id"]
        # After full shutdown the job's cells are in the store.
        assert len(ResultStore(tmp_path / "store")) == 1
        assert job_id.startswith("j00001-")
