"""``repro.service`` — campaign-as-a-service over the spec + campaign engines.

The declarative :mod:`repro.spec` documents and the content-addressed
:mod:`repro.campaign` store already make every experiment nameable and
every result reusable; this package adds the missing operational layer:
a long-running, multi-tenant **job service** (``pckpt serve``) that many
clients share instead of each running their own campaigns.

* :mod:`repro.service.server` — the asyncio HTTP server: admission
  (validation, auth-lite tenancy, in-flight dedup by spec hash, bounded
  queue with 429 backpressure), fair-share scheduling onto worker
  tasks that step their jobs on the event loop, live NDJSON event
  streaming, OpenMetrics, graceful drain + queue restore;
* :mod:`repro.service.queue` — the bounded weighted-round-robin
  fair-share queue;
* :mod:`repro.service.jobs` — the job state machine and the
  schema-versioned record/event tables (``tools/check_schemas.py``
  keeps ``docs/SERVICE.md`` and captured event streams in sync with them);
* :mod:`repro.service.client` — the stdlib HTTP client behind
  ``pckpt submit`` / ``pckpt jobs`` / ``pckpt watch``.

The service's load benchmark is the ``service-mixed`` workload of
``benchmarks/e2e`` (closed-loop HTTP clients against ``pckpt serve``).

Everything is stdlib-only, and every job executes through the exact
local code path (``run_spec`` with in-process workers), so a result
fetched from the service is bit-identical to ``pckpt run --spec`` of
the same document.  User-facing reference: ``docs/SERVICE.md``.
"""

from .jobs import (
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
    Job,
)
from .queue import FairShareQueue, QueueFull
from .server import DEFAULT_PORT, PckptService, ServiceThread, load_tokens, serve

__all__ = [
    "SERVICE_SCHEMA_VERSION",
    "JOB_KIND",
    "JOB_EVENT_KIND",
    "JOB_RESULT_KIND",
    "SERVICE_STATUS_KIND",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JOB_TRANSITIONS",
    "EVENT_KINDS",
    "JOB_FIELDS",
    "EVENT_FIELDS",
    "Job",
    "FairShareQueue",
    "QueueFull",
    "DEFAULT_PORT",
    "PckptService",
    "ServiceThread",
    "load_tokens",
    "serve",
    "ServiceClient",
    "ServiceError",
    "ServiceBusy",
    "SpecRejected",
]

#: The client's names load :mod:`http.client` on first use, so a server
#: (``pckpt serve``) never imports it (PEP 562, as in :mod:`repro`).
_LAZY = ("ServiceClient", "ServiceBusy", "ServiceError", "SpecRejected")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import client

    value = getattr(client, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
