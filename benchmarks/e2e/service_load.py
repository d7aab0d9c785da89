"""Service side of the benchmark: server lifecycle and the closed-loop clients.

Only the ``pckpt serve`` command line and raw HTTP (``http.client``) are
used, so the load is independent of ``repro.service.client``.  Each
client thread is its own tenant (its bearer token names it) and keeps
exactly one job in flight: POST the spec, then read the job's NDJSON
event stream until the terminal event.  A closed loop keeps the number
of connections at the number of clients, which is the core count here.
"""

from __future__ import annotations

import http.client
import json
import socket
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HOST = "127.0.0.1"
TERMINAL = ("done", "failed")


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def request(port: int, method: str, path: str, body: Optional[bytes] = None,
            headers: Optional[Dict[str, str]] = None,
            timeout: float = 60.0) -> tuple:
    """One HTTP exchange; returns ``(status, body bytes)``."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def launch(cmd: Sequence[str], port: int, log_path: Path, env: Dict[str, str],
           cwd: Path, timeout: float = 60.0) -> tuple:
    """Start a server; returns ``(process, seconds until /v1/status answered)``.

    The server leads its own process group, which the host-reference
    sampling pauses and resumes as a whole.
    """
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env, cwd=str(cwd),
                                start_new_session=True)
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode}; see {log_path}")
        try:
            status, _ = request(port, "GET", "/v1/status", timeout=2.0)
            if status == 200:
                return proc, time.perf_counter() - t0
        except OSError:
            pass
        if time.perf_counter() - t0 > timeout:
            stop(proc, port)
            raise RuntimeError(f"server did not answer within {timeout:.0f}s")
        time.sleep(0.005)


def stop(proc: subprocess.Popen, port: int) -> None:
    """Graceful shutdown, then wait; terminate and kill as fallbacks."""
    if proc.poll() is None:
        try:
            request(port, "POST", "/v1/shutdown", timeout=5.0)
        except OSError:
            proc.terminate()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_job(port: int, tenant: str, job: Dict) -> Dict:
    """Submit one job and follow it to its terminal event."""
    record = {"kind": job["kind"], "job": None, "trace": None, "ok": False,
              "refused": False, "error": None, "executed": None,
              "replications": None}
    body = json.dumps({"spec": job["doc"]}).encode("utf-8")
    headers = {"Content-Type": "application/json",
               "Authorization": f"Bearer {tenant}"}
    t0 = time.perf_counter()
    try:
        status, payload = request(port, "POST", "/v1/jobs", body, headers)
        t_post = time.perf_counter()
        if status not in (200, 201):
            record.update(refused=True, error=f"POST {status}")
            return record
        job_record = json.loads(payload)["job"]
        record["job"] = job_record["id"]
        record["trace"] = job_record.get("trace_id")
        record["replications"] = job_record.get("replications")
        conn = http.client.HTTPConnection(HOST, port, timeout=120)
        try:
            conn.request("GET", f"/v1/jobs/{record['job']}/events")
            response = conn.getresponse()
            terminal = None
            for line in iter(response.readline, b""):
                event = json.loads(line)
                if event.get("event") in TERMINAL:
                    terminal = event
                    break
        finally:
            conn.close()
        t_end = time.perf_counter()
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update(start=t0, post_end=t_post, end=t_end, post_s=t_post - t0,
                  latency_s=t_end - t0)
    if terminal is None:
        record["error"] = "event stream ended before a terminal event"
    elif terminal["event"] != "done":
        record["error"] = f"job {terminal['event']}: {terminal.get('data')}"
    else:
        record["ok"] = True
        record["executed"] = (terminal.get("data") or {}).get("replications_executed")
    return record


def closed_loop(port: int, plans: List[List[Dict]]) -> tuple:
    """Run one client thread per plan until it sent its whole plan.

    Returns ``(records per client, start, end)`` in ``perf_counter``
    seconds.
    """
    records: List[List[Dict]] = [[] for _ in plans]
    t0 = time.perf_counter()

    def client(index: int) -> None:
        for n, job in enumerate(plans[index]):
            record = run_job(port, f"client{index}", job)
            record.update(client=index, index=n)
            records[index].append(record)

    threads = [threading.Thread(target=client, args=(i,), name=f"client{i}")
               for i in range(len(plans))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, t0, time.perf_counter()


def fetch_result(port: int, job_id: str) -> Dict:
    status, payload = request(port, "GET", f"/v1/jobs/{job_id}/result")
    if status != 200:
        raise RuntimeError(f"GET result of {job_id}: HTTP {status}")
    return json.loads(payload)
