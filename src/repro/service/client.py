"""Stdlib HTTP client for the campaign service.

Thin, dependency-free wrapper over :mod:`http.client` used by the
``pckpt submit`` / ``pckpt jobs`` / ``pckpt watch`` subcommands, the
service tests, and the load generator.  One request per connection
(the server speaks ``Connection: close``), JSON in / JSON out, NDJSON
event streaming via a generator.

Error mapping:

* ``429`` → :class:`ServiceBusy` (carries ``retry_after``; callers may
  pass ``retries=`` to :meth:`ServiceClient.submit` to back off and
  retry instead);
* ``400`` with spec problems → :class:`SpecRejected` (``problems`` is
  the same collected list a local ``pckpt run --spec`` prints);
* any other non-2xx → :class:`ServiceError` with the decoded body.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ServiceError",
    "ServiceBusy",
    "SpecRejected",
    "ServiceClient",
]


class ServiceError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, payload: Any) -> None:
        self.status = status
        self.payload = payload
        detail = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"service returned {status}: {detail}")


class ServiceBusy(ServiceError):
    """429: the admission queue is full — back off ``retry_after`` s."""

    def __init__(self, status: int, payload: Any,
                 retry_after: float) -> None:
        super().__init__(status, payload)
        self.retry_after = retry_after


class SpecRejected(ServiceError):
    """400: the submitted spec failed validation.

    ``problems`` holds every collected
    :class:`~repro.spec.loader.SpecError` problem, exactly as the local
    loader would report them.
    """

    def __init__(self, status: int, payload: Any,
                 problems: List[str]) -> None:
        super().__init__(status, payload)
        self.problems = problems


class ServiceClient:
    """Client for one ``pckpt serve`` endpoint.

    Parameters
    ----------
    host, port:
        Where the service listens.
    token:
        Optional bearer token.  In the server's open mode the token
        *is* the tenant name; in closed mode it must appear in the
        server's tokens file.
    timeout:
        Per-request socket timeout in seconds (streaming requests use
        a longer read timeout internally).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 token: Optional[str] = None, timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.token = token
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------------
    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None,
                 extra_headers: Optional[Dict[str, str]] = None
                 ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            payload = None
            headers = self._headers()
            if extra_headers:
                headers.update(extra_headers)
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            resp_headers = {k.lower(): v for k, v in response.getheaders()}
            return response.status, resp_headers, data
        finally:
            conn.close()

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              extra_headers: Optional[Dict[str, str]] = None) -> Any:
        status, headers, data = self._request(method, path, body,
                                              extra_headers=extra_headers)
        try:
            payload = json.loads(data.decode("utf-8")) if data else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = data.decode("utf-8", "replace")
        if 200 <= status < 300:
            return payload
        if status == 429:
            retry_after = float(
                (payload or {}).get("retry_after")
                or headers.get("retry-after") or 1.0
            )
            raise ServiceBusy(status, payload, retry_after)
        if status == 400 and isinstance(payload, dict) \
                and "problems" in payload:
            raise SpecRejected(status, payload, payload["problems"])
        raise ServiceError(status, payload)

    # -- API -----------------------------------------------------------------
    def submit(self, spec: Dict[str, Any], retries: int = 0,
               trace: Optional[str] = None) -> Dict[str, Any]:
        """``POST /v1/jobs`` — submit a spec document (a plain dict).

        Returns the response envelope ``{"job": record, "deduped":
        bool}``.  With ``retries > 0``, a 429 sleeps the advertised
        ``Retry-After`` and resubmits (up to *retries* times) before
        letting :class:`ServiceBusy` propagate.  *trace* (an
        ``X-Pckpt-Trace`` value: ``<trace_id>[-<span_id>]``, lowercase
        hex) propagates the caller's trace context; the job record's
        ``trace_id`` reports the context the service adopted.
        """
        extra = {"X-Pckpt-Trace": trace} if trace else None
        attempt = 0
        while True:
            try:
                return self._json("POST", "/v1/jobs", {"spec": spec},
                                  extra_headers=extra)
            except ServiceBusy as busy:
                if attempt >= retries:
                    raise
                attempt += 1
                time.sleep(busy.retry_after)

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>`` — one job record."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        """``GET /v1/jobs``, every page — all job records the store holds.

        Job-sequence order, oldest first.  The service answers one page
        per request; this follows each page's ``next`` to the end.
        """
        records: List[Dict[str, Any]] = []
        path = "/v1/jobs"
        while True:
            page = self._json("GET", path)
            records.extend(page["jobs"])
            if page["next"] is None:
                return records
            path = f"/v1/jobs?after={page['next']}"

    def result(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/result`` — per-cell results (done jobs)."""
        return self._json("GET", f"/v1/jobs/{job_id}/result")

    def status(self) -> Dict[str, Any]:
        """``GET /v1/status`` — service + campaign-store status."""
        return self._json("GET", "/v1/status")

    def metrics_text(self) -> str:
        """``GET /metrics`` — raw OpenMetrics exposition."""
        status, _, data = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, data.decode("utf-8", "replace"))
        return data.decode("utf-8")

    def shutdown(self) -> Dict[str, Any]:
        """``POST /v1/shutdown`` — ask the service to drain and exit."""
        return self._json("POST", "/v1/shutdown")

    def events(self, job_id: str,
               timeout: float = 600.0) -> Iterator[Dict[str, Any]]:
        """``GET /v1/jobs/<id>/events`` — yield NDJSON events as dicts.

        Streams live: the generator blocks on the socket while the job
        runs and finishes after the terminal event.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events",
                         headers=self._headers())
            response = conn.getresponse()
            if response.status != 200:
                data = response.read()
                try:
                    payload = json.loads(data.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    payload = data.decode("utf-8", "replace")
                raise ServiceError(response.status, payload)
            buffer = b""
            while True:
                chunk = response.read1(65536) if hasattr(response, "read1") \
                    else response.read(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
            if buffer.strip():
                yield json.loads(buffer.decode("utf-8"))
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 600.0,
             interval: float = 0.2) -> Dict[str, Any]:
        """Poll ``GET /v1/jobs/<id>`` until terminal; returns the record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} "
                    f"after {timeout:g}s"
                )
            time.sleep(interval)
