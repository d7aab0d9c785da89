"""Outside-in layer tracing for the traced run (stdlib only at import).

The traced run times calls into each layer's public functions from
outside the program: :func:`install` replaces the attribute where the
caller resolves the name (a class method, or a module global such as
``repro.service.server.run_campaign``) with a wrapper that records a
span.  Nothing under ``src/`` changes.

* Spans live in memory and are written once per process:
  :meth:`Tracer.flush` at the end of the harness's own processes, and a
  ``multiprocessing.util.Finalize`` hook in forked pool workers, which
  exit through ``os._exit`` and so never run ``atexit``.
* Root spans are per call; below them, repeated calls merge into one
  span per (parent, name, context) with a call count.
* Each span carries its direct children's total duration, so self time
  is ``dur - child``.
* Spans of one service job share its job and trace id; spans of one
  replication share the pid and a per-process sequence number.
* ``CRSimulation.run`` additionally attaches a ``KernelProfiler``; the
  kernel's loop time minus the profiler's callback time is the dispatch
  self time of the *profiled* loop.
* A wrapper whose target is gone (renamed or removed) is skipped, and
  every metric that needs it reads ``None`` (printed ``n/a``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, span name) for every process that runs
#: replications.
COMMON_TARGETS = (
    ("repro.failures.leadtime", "LeadTimeModel.survival", "failures.survival"),
    ("repro.failures.injector", "FailureInjector.next_failure", "failures.draw"),
    ("repro.failures.injector", "FailureInjector.next_false_alarm",
     "failures.draw"),
    ("repro.cr.oci", "OCIController.interval", "cr.oci_interval"),
    ("repro.models.base", "CRSimulation.__init__", "models.init"),
    ("repro.models.base", "CRSimulation.run", "models.run"),
    ("repro.campaign.scheduler", "_run_shard", "campaign.shard"),
    ("repro.campaign.scheduler", "_run_one", "campaign.replication"),
    ("repro.campaign.scheduler", "_rerun_serially", "campaign.retry"),
    ("repro.campaign.store", "ResultStore.get", "campaign.store.get"),
    ("repro.campaign.store", "ResultStore.put", "campaign.store.put"),
    # run_resolved looks build_cells up in its own module.
    ("repro.spec.build", "build_cells", "spec.build_cells"),
    # The program's own span fragments, written per replication whenever
    # a trace context is active (every service job).
    ("repro.obs.context", "SpanWriter.__init__", "obs.span_writer"),
    ("repro.obs.context", "SpanWriter.span", "obs.span_writer"),
    ("repro.obs.context", "SpanWriter.close", "obs.span_writer"),
)

#: The campaign harness calls these through the ``repro.spec`` package.
CAMPAIGN_TARGETS = COMMON_TARGETS + (
    ("repro.spec", "spec_from_dict", "spec.load"),
    ("repro.spec", "run_spec", "campaign.run"),
)

#: The server imported these names into its own module.
SERVICE_TARGETS = COMMON_TARGETS + (
    ("repro.service.server", "spec_from_dict", "spec.load"),
    ("repro.service.server", "build_cells", "spec.build_cells"),
    ("repro.service.server", "spec_hash", "spec.hash"),
    ("repro.service.server", "run_campaign", "campaign.run"),
    ("repro.service.server", "PckptService.submit", "service.admit"),
    ("repro.service.server", "PckptService._execute", "service.execute"),
)

#: Pseudo-target: the kernel profiler behind the des.* split.
PROFILER = "des.profiler"

#: Spans whose self time belongs to no layer: the glue around a
#: replication inside a pool shard.
CONTAINERS = ("campaign.shard", "campaign.replication")

_LAYER_OF_PREFIX = {"failures": "failures", "cr": "models", "models": "models",
                    "campaign": "campaign", "spec": "spec",
                    "service": "service", "client": "client", "obs": "obs"}


def layer_of(name: str) -> str:
    return _LAYER_OF_PREFIX.get(name.split(".", 1)[0], "other")


def _merge_attrs(total: Optional[dict], attrs: Optional[dict]) -> Optional[dict]:
    """Numbers add up across merged calls; anything else keeps its first value."""
    if total is None or attrs is None:
        return total if attrs is None else dict(attrs)
    for key, value in attrs.items():
        if key not in total:
            total[key] = value
        elif isinstance(value, (int, float)) and isinstance(total[key], (int, float)):
            total[key] += value
    return total


class Tracer:
    """In-memory span recorder shared by every wrapper of one process.

    A root span (no enclosing span in its thread) is recorded per call.
    Below a root, calls of the same name and context under the same
    parent merge into one record with a call count, so a replication's
    thousands of ``survival`` calls cost one record, not one each.
    """

    def __init__(self, out_dir: Optional[Path] = None) -> None:
        self.out_dir = out_dir
        self.spans: List[list] = []
        self._merged: Dict[tuple, list] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._seq = itertools.count(0)

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.ctx = (None, None, None)  # (job id, trace id, replication)
            return local.stack

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """*fn* timed as span *name*.

        ``before(tracer, args, kwargs)`` runs ahead of the timer and returns
        a state; ``after(state, result)`` returns the span's attributes.
        """
        tracer = self  # attributes are re-read per call: a fork replaces them
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            local = tracer._local
            saved_ctx = local.ctx
            state = before(tracer, args, kwargs) if before is not None else None
            ctx = local.ctx
            if stack:
                key = (stack[-1][0][1], name, ctx)
                record = tracer._merged.get(key)
                if record is None:
                    record = tracer._new_record(name, stack[-1][0][1], ctx)
                    tracer._merged[key] = record
            else:
                record = tracer._new_record(name, 0, ctx)
            frame = [record, 0.0]
            stack.append(frame)
            t0 = perf()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                if record[7] == 0:
                    record[3] = t0
                record[4] = t1
                record[5] += t1 - t0
                record[6] += frame[1]
                record[7] += 1
                if ok and after is not None:
                    record[10] = _merge_attrs(record[10], after(state, result))
                local.ctx = saved_ctx
            return result

        return wrapper

    def _new_record(self, name: str, parent: int, ctx: tuple) -> list:
        # name, id, parent, first start, last end, total duration, children's
        # duration, calls, context, thread, attributes
        record = [name, next(self._ids), parent, 0.0, 0.0, 0.0, 0.0, 0,
                  ctx, threading.get_ident(), None]
        self.spans.append(record)
        return record

    def set_context(self, job=None, trace=None, seq=None) -> None:
        self._stack()
        job0, trace0, seq0 = self._local.ctx
        self._local.ctx = (job if job is not None else job0,
                           trace if trace is not None else trace0,
                           seq if seq is not None else seq0)

    def next_replication(self) -> int:
        return next(self._seq)

    # -- output ------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Spans as dicts; ``start``/``end`` span the first to last call."""
        pid = os.getpid()
        return [
            {"name": name, "layer": layer_of(name), "pid": pid, "tid": tid,
             "id": sid, "parent": parent, "start": t0, "end": t1, "dur": dur,
             "self": dur - child, "calls": calls, "job": ctx[0],
             "trace": ctx[1], "seq": ctx[2], "attrs": attrs}
            for name, sid, parent, t0, t1, dur, child, calls, ctx, tid, attrs
            in self.spans if calls
        ]

    def flush(self) -> None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.jsonl``."""
        if self.out_dir is None:
            return
        path = Path(self.out_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            for record in self.records():
                fp.write(json.dumps(record, sort_keys=True) + "\n")

    def _after_fork(self) -> None:
        from multiprocessing.util import Finalize

        self.spans = []
        self._merged = {}
        self._local = threading.local()
        self._seq = itertools.count(0)
        Finalize(self, self.flush, exitpriority=10)


# -- hooks -----------------------------------------------------------------
_KernelProfiler = None


def _replication_before(tracer: Tracer, args, kwargs):
    tracer.set_context(seq=tracer.next_replication())


def _campaign_run_before(tracer: Tracer, args, kwargs):
    return kwargs.get("workers")


def _campaign_run_after(workers, result):
    return {"workers": workers}


def _execute_before(tracer: Tracer, args, kwargs):
    job = args[1] if len(args) > 1 else kwargs.get("job")
    tracer.set_context(job=getattr(job, "id", None),
                       trace=getattr(job, "trace_id", None))


def _admit_after(state, result):
    job = result[0] if isinstance(result, tuple) and result else result
    return {"job": getattr(job, "id", None),
            "trace": getattr(job, "trace_id", None)}


def _store_get_after(state, result):
    return {"hit": result is not None}


def _run_before(tracer: Tracer, args, kwargs):
    sim = args[0]
    profiler = None
    env = getattr(sim, "env", None)
    if _KernelProfiler is not None and hasattr(env, "attach_profiler"):
        profiler = _KernelProfiler()
        env.attach_profiler(profiler)
    return sim, profiler


def _run_after(state, result):
    sim, profiler = state
    attrs = {"proactive_runs": getattr(result, "proactive_runs", None),
             "periodic_checkpoints": getattr(result, "periodic_checkpoints", None)}
    if profiler is not None:
        env = sim.env
        try:
            attrs.update(events=env.events_processed, loop_wall=env.wall_seconds,
                         callback_wall=profiler.total_wall_seconds())
        except AttributeError:
            pass  # the kernel's accounting moved: des.* read n/a
        if hasattr(env, "detach_profiler"):
            env.detach_profiler()
    return attrs


_HOOKS = {
    "campaign.replication": (_replication_before, None),
    "campaign.run": (_campaign_run_before, _campaign_run_after),
    "service.execute": (_execute_before, None),
    "service.admit": (None, _admit_after),
    "campaign.store.get": (None, _store_get_after),
    "models.run": (_run_before, _run_after),
}


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    getattr(owner, attr)  # AttributeError when the target is gone
    return owner, attr


def install(tracer: Tracer, targets: Iterable[Tuple[str, str, str]],
            fork_flush: bool = False) -> List[str]:
    """Wrap every target; returns the span names whose target is missing.

    With *fork_flush*, forked pool workers start with an empty span list
    and write their spans when they exit.
    """
    global _KernelProfiler
    missing: List[str] = []
    try:
        from repro.obs.profiler import KernelProfiler
        _KernelProfiler = KernelProfiler
    except ImportError:
        _KernelProfiler = None
        missing.append(PROFILER)
    for module, path, name in targets:
        try:
            owner, attr = _resolve(module, path)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        before, after = _HOOKS.get(name, (None, None))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                         before, after))
    if fork_flush:
        import multiprocessing
        from multiprocessing.util import register_after_fork

        method = multiprocessing.get_start_method()
        if method != "fork":
            raise RuntimeError(
                f"traced run needs the 'fork' start method, found {method!r}")
        register_after_fork(tracer, Tracer._after_fork)
    return missing


def read_spans(directory: Path) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fp:
            spans.extend(json.loads(line) for line in fp if line.strip())
    return spans


# -- analysis --------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (0 for no samples; inf stays inf)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if pos == lo or ordered[hi] == float("inf"):
        return ordered[lo] if pos == lo else ordered[hi]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Per-layer metric -> (unit, span names it needs).
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "failures.survival.calls": ("count", ("failures.survival",)),
    "failures.survival.self_s": ("s", ("failures.survival",)),
    "failures.draw.calls": ("count", ("failures.draw",)),
    "failures.draw.self_s": ("s", ("failures.draw",)),
    "models.replications": ("count", ("models.run",)),
    "models.replication_s.p50": ("s", ("campaign.replication",)),
    "models.replication_s.p90": ("s", ("campaign.replication",)),
    "models.init.self_s": ("s", ("models.init",)),
    "models.callbacks.self_s": ("s", ("models.run", PROFILER)),
    "models.proactive_runs": ("count", ("models.run",)),
    "models.periodic_checkpoints": ("count", ("models.run",)),
    "cr.oci_interval.calls": ("count", ("cr.oci_interval",)),
    "cr.oci_interval.self_s": ("s", ("cr.oci_interval",)),
    "des.events": ("count", ("models.run", PROFILER)),
    "des.dispatch.self_s": ("s", ("models.run", PROFILER)),
    "des.dispatch.us_per_event": ("us", ("models.run", PROFILER)),
    "campaign.run_s": ("s", ("campaign.run",)),
    "campaign.worker_busy_s": ("s", ("campaign.shard",)),
    "campaign.worker_utilization": ("ratio", ("campaign.run", "campaign.shard")),
    "campaign.pool_overhead_s": ("s", ("campaign.run", "campaign.shard")),
    "campaign.shards": ("count", ("campaign.shard",)),
    "campaign.shard_retries": ("count", ("campaign.retry",)),
    "campaign.store.get.calls": ("count", ("campaign.store.get",)),
    "campaign.store.get.self_s": ("s", ("campaign.store.get",)),
    "campaign.store.put.calls": ("count", ("campaign.store.put",)),
    "campaign.store.put.self_s": ("s", ("campaign.store.put",)),
    "campaign.store.hit_ratio": ("ratio", ("campaign.store.get",)),
    "spec.load.self_s": ("s", ("spec.load",)),
    "spec.build_cells.calls": ("count", ("spec.build_cells",)),
    "spec.build_cells.self_s": ("s", ("spec.build_cells",)),
    "spec.hash.self_s": ("s", ("spec.hash",)),
    "service.post.s_p50": ("s", ()),
    "service.post.s_p90": ("s", ()),
    "service.admit.self_s": ("s", ("service.admit",)),
    "service.queue_wait.s_p50": ("s", ("service.admit", "service.execute")),
    "service.queue_wait.s_p90": ("s", ("service.admit", "service.execute")),
    "service.execute.s_p50": ("s", ("service.execute",)),
    "service.execute.s_p90": ("s", ("service.execute",)),
    "service.self.s_p50": ("s", ("service.admit", "service.execute")),
    "service.result.s_p50": ("s", ()),
    "service.result.s_p90": ("s", ()),
    "service.cold_result.s_p90": ("s", ()),
    "service.warm_result.s_p90": ("s", ()),
    "service.warm_share": ("ratio", ()),
    "service.rejected": ("count", ()),
    "obs.trace_overhead_pct": ("%", ()),
    "obs.unattributed_pct": ("%", CONTAINERS),
}


def layer_metrics(spans: List[Dict[str, Any]], jobs: List[Dict[str, Any]],
                  missing: Iterable[str]) -> Dict[str, Optional[float]]:
    """Every per-layer metric except ``obs.trace_overhead_pct``.

    *jobs* are the client's records of a traced service load (empty for
    campaigns): ``kind``, ``job``, ``post_s``, ``latency_s``, ``ok``.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name: str) -> int:
        return sum(s["calls"] for s in by_name.get(name, ()))

    def self_s(name: str) -> float:
        return sum(s["self"] for s in by_name.get(name, ()))

    def durs(name: str) -> List[float]:
        """Per-call durations of a span that is never merged."""
        return [s["dur"] for s in by_name.get(name, ())]

    def attr_total(name: str, key: str) -> float:
        return sum((s["attrs"] or {}).get(key) or 0 for s in by_name.get(name, ()))

    runs = by_name.get("models.run", [])
    profiled = [r for r in runs if r["attrs"] and r["attrs"].get("loop_wall") is not None]
    events = sum(r["attrs"]["events"] for r in profiled)
    dispatch = sum(r["attrs"]["loop_wall"] - r["attrs"]["callback_wall"]
                   for r in profiled)
    callbacks = sum(r["attrs"]["callback_wall"] - (r["dur"] - r["self"])
                    for r in profiled)

    run_s = sum(durs("campaign.run"))
    capacity = sum(s["dur"] * ((s["attrs"] or {}).get("workers") or 1)
                   for s in by_name.get("campaign.run", ()))
    busy = sum(durs("campaign.shard"))
    gets = calls("campaign.store.get")
    containers = sum(self_s(name) for name in CONTAINERS)

    # Service: join the client's view of each job with the server's spans.
    admit_end = {s["attrs"]["job"]: s["end"] for s in by_name.get("service.admit", [])
                 if s["attrs"] and s["attrs"].get("job")}
    execute = {s["job"]: s for s in by_name.get("service.execute", []) if s["job"]}
    done = [j for j in jobs if j["ok"]]
    queue_wait, execute_s, service_self = [], [], []
    for j in done:
        span = execute.get(j["job"])
        if span is None or j["job"] not in admit_end:
            continue
        wait = span["start"] - admit_end[j["job"]]
        run = span["dur"]
        queue_wait.append(wait)
        execute_s.append(run)
        service_self.append(j["latency_s"] - wait - run)

    values: Dict[str, Optional[float]] = {
        "failures.survival.calls": calls("failures.survival"),
        "failures.survival.self_s": self_s("failures.survival"),
        "failures.draw.calls": calls("failures.draw"),
        "failures.draw.self_s": self_s("failures.draw"),
        "models.replications": calls("models.run"),
        "models.replication_s.p50": percentile(durs("campaign.replication"), 0.5),
        "models.replication_s.p90": percentile(durs("campaign.replication"), 0.9),
        "models.init.self_s": self_s("models.init"),
        "models.callbacks.self_s": callbacks,
        "models.proactive_runs": attr_total("models.run", "proactive_runs"),
        "models.periodic_checkpoints": attr_total("models.run",
                                                  "periodic_checkpoints"),
        "cr.oci_interval.calls": calls("cr.oci_interval"),
        "cr.oci_interval.self_s": self_s("cr.oci_interval"),
        "des.events": events,
        "des.dispatch.self_s": dispatch,
        "des.dispatch.us_per_event": 1e6 * dispatch / events if events else 0.0,
        "campaign.run_s": run_s,
        "campaign.worker_busy_s": busy,
        "campaign.worker_utilization": busy / capacity if capacity else 0.0,
        "campaign.pool_overhead_s": capacity - busy,
        "campaign.shards": calls("campaign.shard"),
        "campaign.shard_retries": calls("campaign.retry"),
        "campaign.store.get.calls": gets,
        "campaign.store.get.self_s": self_s("campaign.store.get"),
        "campaign.store.put.calls": calls("campaign.store.put"),
        "campaign.store.put.self_s": self_s("campaign.store.put"),
        "campaign.store.hit_ratio": (attr_total("campaign.store.get", "hit") / gets
                                     if gets else 0.0),
        "spec.load.self_s": self_s("spec.load"),
        "spec.build_cells.calls": calls("spec.build_cells"),
        "spec.build_cells.self_s": self_s("spec.build_cells"),
        "spec.hash.self_s": self_s("spec.hash"),
        "service.post.s_p50": percentile([j["post_s"] for j in done], 0.5),
        "service.post.s_p90": percentile([j["post_s"] for j in done], 0.9),
        "service.admit.self_s": self_s("service.admit"),
        "service.queue_wait.s_p50": percentile(queue_wait, 0.5),
        "service.queue_wait.s_p90": percentile(queue_wait, 0.9),
        "service.execute.s_p50": percentile(execute_s, 0.5),
        "service.execute.s_p90": percentile(execute_s, 0.9),
        "service.self.s_p50": percentile(service_self, 0.5),
        "service.result.s_p50": percentile([j["latency_s"] for j in done], 0.5),
        "service.result.s_p90": percentile([j["latency_s"] for j in done], 0.9),
        "service.cold_result.s_p90": percentile(
            [j["latency_s"] for j in done if j["kind"] == "cold"], 0.9),
        "service.warm_result.s_p90": percentile(
            [j["latency_s"] for j in done if j["kind"] == "warm"], 0.9),
        "service.warm_share": (sum(1 for j in jobs if j["kind"] == "warm") / len(jobs)
                               if jobs else 0.0),
        "service.rejected": sum(1 for j in jobs if j.get("refused")),
        "obs.unattributed_pct": 100.0 * containers / busy if busy else 0.0,
    }
    gone = set(missing)
    if runs and not profiled:
        gone.add(PROFILER)
    for name, (_, needs) in PER_LAYER.items():
        if name in values and gone.intersection(needs):
            values[name] = None
    return values


def layer_table(spans: List[Dict[str, Any]]) -> List[Tuple[str, float]]:
    """Self seconds per layer, summed over processes and threads.

    ``models.run`` self time is split into ``des`` (profiled-loop
    dispatch) and ``models`` (callbacks and the rest); container glue is
    ``unattributed``.  Time spent waiting on another process is kept in
    rows of its own: ``campaign-wait`` (a pool's parent, pool overhead
    included) and ``client-wait`` (the HTTP clients).
    """
    totals: Dict[str, float] = {}
    for span in spans:
        attrs = span["attrs"] or {}
        layer = span["layer"]
        if span["name"] in CONTAINERS:
            layer = "unattributed"
        elif span["name"] == "campaign.run" and (attrs.get("workers") or 1) > 1:
            layer = "campaign-wait"
        elif layer == "client":
            layer = "client-wait"
        own = span["self"]
        if span["name"] == "models.run" and attrs.get("loop_wall") is not None:
            dispatch = attrs["loop_wall"] - attrs["callback_wall"]
            totals["des"] = totals.get("des", 0.0) + dispatch
            own -= dispatch
        totals[layer] = totals.get(layer, 0.0) + own
    return sorted(totals.items(), key=lambda kv: -kv[1])
