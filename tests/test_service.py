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
* queue persistence across a service restart;
* the HTTP surface: validation errors, auth modes, status, metrics.

Specs are capped at 1 replication (the same client-side cap
``pckpt submit --quick`` applies) so the whole module stays test-suite
fast while still executing real simulations end to end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.store import ResultStore, result_to_dict
from repro.service import (
    EVENT_FIELDS,
    EVENT_KINDS,
    JOB_FIELDS,
    JOB_STATES,
    SERVICE_SCHEMA_VERSION,
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
    """Make every job the worker pool starts wait until the event is set.

    The job is dispatched (``running``, ``started_at`` stamped) and then
    held, so a test can submit more work while the worker is provably
    busy instead of hoping the first job is still running.
    """
    gate = threading.Event()
    execute = service._execute

    def held(job):
        if not gate.wait(120.0):
            raise TimeoutError("dispatch gate never released")
        return execute(job)

    service._execute = held
    return gate


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
        queue = FairShareQueue(limit=2, retry_after=3.5)
        queue.push(_job("a", "a1"))
        queue.push(_job("b", "b1"))
        with pytest.raises(QueueFull) as excinfo:
            queue.push(_job("c", "c1"))
        assert excinfo.value.limit == 2
        assert excinfo.value.retry_after == 3.5
        assert len(queue) == 2

    def test_close_stops_admission_and_unblocks_pop(self):
        queue = FairShareQueue(limit=4)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.push(_job("a", "a1"))
        assert asyncio.run(queue.pop()) is None

    def test_drain_empties_every_lane(self):
        queue = FairShareQueue(limit=8)
        for tenant, name in (("a", "a1"), ("b", "b1"), ("a", "a2")):
            queue.push(_job(tenant, name))
        drained = queue.drain()
        assert sorted(j.id for j in drained) == ["a1", "a2", "b1"]
        assert len(queue) == 0
        assert queue.depth_by_tenant() == {}


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

    def test_record_matches_field_table(self):
        job = _job("t", "j1")
        record = job.to_record()
        assert set(record) == set(JOB_FIELDS)
        for name, (typ, nullable) in JOB_FIELDS.items():
            value = record[name]
            if value is None:
                assert nullable, f"{name} is null but not nullable"
            else:
                assert isinstance(value, typ) or (
                    typ is float and isinstance(value, int)
                ), f"{name}: {value!r} is not {typ}"
        assert record["kind"] == "pckpt-job"
        assert record["schema_version"] == SERVICE_SCHEMA_VERSION
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

    def test_inflight_duplicate_submissions_coalesce(self, tmp_path):
        document = tiny_spec(seed=412, replications=3)
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            alice = ServiceClient(port=svc.port, token="alice")
            bob = ServiceClient(port=svc.port, token="bob")
            first = alice.submit(document)
            assert first["deduped"] is False
            # Same spec hash while queued/running coalesces — across
            # tenants, onto the original job.
            second = bob.submit(document)
            assert second["deduped"] is True
            assert second["job"]["id"] == first["job"]["id"]
            assert second["job"]["tenant"] == "alice"
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
            # A rejected submission leaves no job behind.
            rejected_hashes = {r["job"]["spec_hash"]
                               for r in [running] + queued}
            assert len(client.jobs()) == 3
            assert {j["spec_hash"] for j in client.jobs()} \
                == rejected_hashes
            # Once the queue drains, the same submission is admitted.
            gate.set()
            client.wait(running["job"]["id"], timeout=120.0)
            for envelope in queued:
                client.wait(envelope["job"]["id"], timeout=120.0)
            retried = client.submit(tiny_spec(seed=99))
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
        """Each job streams its own telemetry.jsonl under the service
        root — the feed `pckpt top --store` falls back to."""
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            client = ServiceClient(port=svc.port, token="alice")
            record = client.wait(
                client.submit(tiny_spec(seed=440))["job"]["id"]
            )
        feed = (tmp_path / "store" / "service" / "jobs" / record["id"]
                / "telemetry.jsonl")
        assert feed.exists()
        lines = [json.loads(line)
                 for line in feed.read_text().splitlines()]
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
            wait_running(client, first["job"]["id"])
            for seed in (51, 52):
                pending_ids.append(
                    client.submit(tiny_spec(seed=seed))["job"]["id"]
                )
        # Graceful shutdown (context exit): running job drained,
        # waiting jobs persisted.
        state = json.loads(
            (store / "service" / "queue.json").read_text()
        )
        assert state["kind"] == "pckpt-service-queue"
        assert [e["id"] for e in state["pending"]] == pending_ids
        assert state["next_seq"] == 4

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
        from repro.obs.context import read_spans, trace_fragment_dir

        client = ServiceClient(port=svc.port, token="acme")
        record = client.submit(
            tiny_spec(seed=90),
            trace="feedc0de11223344-aabbccdd00112233",
        )["job"]
        assert record["trace_id"] == "feedc0de11223344"
        final = client.wait(record["id"], timeout=120.0)
        assert final["state"] == "done"

        # persisted job record + events carry the trace id
        job_dir = Path(svc.service.store.root) / "service" / "jobs" \
            / record["id"]
        persisted = json.loads((job_dir / "job.json").read_text())
        assert persisted["trace_id"] == "feedc0de11223344"
        events = [json.loads(line) for line in
                  (job_dir / "events.ndjson").read_text().splitlines()]
        assert events
        assert all(e["trace_id"] == "feedc0de11223344" for e in events)

        # span fragments: the service's request span adopts the trace
        # and parents to the caller's span; the campaign ran under it
        frag_dir = trace_fragment_dir(svc.service.store.root,
                                      "feedc0de11223344")
        spans = []
        for path in sorted(frag_dir.glob("*.jsonl")):
            spans.extend(read_spans(path))
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
            running = client.submit(tiny_spec(seed=80, replications=2))
            assert client.shutdown() == {"state": "draining"}
            # New admissions refused while draining...
            deadline = time.monotonic() + 30
            status = None
            while time.monotonic() < deadline:
                try:
                    client.submit(tiny_spec(seed=81))
                except Exception as exc:
                    status = getattr(exc, "status", None)
                    break
                time.sleep(0.05)
            assert status == 503
            # ...and the running job still drains to completion before
            # the socket closes (ServiceThread.__exit__ joins it).
            job_id = running["job"]["id"]
        # After full shutdown the job's cells are in the store.
        assert len(ResultStore(tmp_path / "store")) == 1
        assert job_id.startswith("j00001-")
