"""A from-scratch discrete-event simulation kernel.

The paper evaluates p-ckpt with SimPy; this package keeps SimPy's
process-based semantics for exactly the primitives the C/R models,
scheduler and campaigns use, so they read like the paper's description:

* :class:`Environment` — event loop with a deterministic
  ``(time, priority, sequence)``-ordered heap, plus
  :meth:`~Environment.cancel` for a scheduled event nothing waits on;
* generator-based :class:`Process` objects that ``yield`` events;
* :class:`Timeout`, bare :class:`Event`, and process
  :meth:`~Process.interrupt` (:class:`Interrupt`);
* :class:`Resource` / :class:`PriorityResource` for contended slots
  (PFS drain lanes, prioritized PFS access);
* :class:`Trace` and the :class:`MetricsRegistry` for observability.

The kernel guarantees a deterministic total event order (the
"Determinism contract" in ``docs/ARCHITECTURE.md``); the end-to-end
benchmark (``benchmarks/e2e``) times its dispatch where users wait for
it (``docs/PERFORMANCE.md``).

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> def worker(env, results):
...     yield env.timeout(3.0)
...     results.append(env.now)
>>> out = []
>>> _ = env.process(worker(env, out))
>>> env.run()
>>> out
[3.0]
"""

from .core import Environment, Infinity
from .events import Event, Timeout
from .exceptions import EmptySchedule, Interrupt, SimulationError, StopProcess
from .metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .monitor import BEGIN, END, INSTANT, Trace, TraceRecord, load_jsonl
from .process import Process, ProcessGenerator
from .resources import PriorityRequest, PriorityResource, Release, Request, Resource

__all__ = [
    "Environment",
    "Infinity",
    "Event",
    "Timeout",
    "Process",
    "ProcessGenerator",
    "Interrupt",
    "StopProcess",
    "SimulationError",
    "EmptySchedule",
    "Resource",
    "PriorityResource",
    "Request",
    "PriorityRequest",
    "Release",
    "Trace",
    "TraceRecord",
    "load_jsonl",
    "INSTANT",
    "BEGIN",
    "END",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_SECONDS_BUCKETS",
]
