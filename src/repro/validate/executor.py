"""Differential executor: interpret a scenario on a backend and compare.

The interpreter turns a declarative :class:`~.scenarios.Scenario` into
live processes against a :class:`~.backends.Backend`'s classes, runs it,
and captures an :class:`ExecutionRecord` — every observable the
determinism contract covers:

* the **trace**: one entry per completed op, ``(pid, op_index, opname,
  time, payload)``, in completion order;
* **service logs** per resource, captured by event callbacks, i.e. in
  kernel processing order;
* the **final clock**;
* the **propagated exception** (type, normalized message, sim time) when
  the run died;
* **kernel self-stats** (events processed, heap high-water).

:func:`compare_records` diffs two records field by field; any difference
between the ``fast`` and ``step`` backends is a kernel bug.  Object
addresses in exception messages are normalized away.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..des import Interrupt
from .backends import Backend
from .scenarios import ProcSpec, Scenario

__all__ = ["ExecutionRecord", "execute", "compare_records"]

_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def _normalize_message(text: str) -> str:
    """Strip run-specific object addresses from an exception message."""
    return _HEX_ADDR.sub("0x_", text)


@dataclass
class ExecutionRecord:
    """Everything observable about one scenario execution."""

    backend: str
    trace: List[Tuple] = field(default_factory=list)
    resource_log: Dict[str, List[Tuple]] = field(default_factory=dict)
    final_now: float = 0.0
    error: Optional[Tuple[str, str, float]] = None
    kernel_stats: Dict[str, float] = field(default_factory=dict)


class _Interpreter:
    """Drives one scenario against one backend's classes."""

    def __init__(self, scenario: Scenario, backend: Backend) -> None:
        self.scenario = scenario
        self.backend = backend
        self.classes = backend.classes
        self.env = backend.env_factory()
        self.record = ExecutionRecord(backend=backend.name)
        self.procs: Dict[str, Any] = {}
        self.resources: Dict[str, Any] = {}
        self._req_seq: Dict[str, int] = {}

        for spec in scenario.resources:
            cls = self.classes[
                "PriorityResource" if spec.kind == "priority" else "Resource"
            ]
            self.resources[spec.id] = cls(self.env, capacity=spec.capacity)
            self.record.resource_log[spec.id] = []
            self._req_seq[spec.id] = 0

    # -- process bodies ----------------------------------------------------
    def _start(self, spec: ProcSpec) -> Any:
        proc = self.env.process(self._body(spec))
        self.procs[spec.pid] = proc
        return proc

    def _body(self, spec: ProcSpec):
        env = self.env
        trace = self.record.trace
        pid = spec.pid
        if spec.start_delay > 0:
            yield env.timeout(spec.start_delay)
        for idx, op in enumerate(spec.ops):
            kind = op[0]
            if kind == "timeout":
                yield env.timeout(op[1])
                trace.append((pid, idx, "timeout", env.now))
            elif kind == "sleep_catch":
                try:
                    yield env.timeout(op[1])
                    trace.append((pid, idx, "slept", env.now))
                except Interrupt as intr:
                    trace.append((pid, idx, "interrupted", env.now, str(intr.cause)))
            elif kind == "acquire":
                rid, prio, hold = op[1], op[2], op[3]
                res = self.resources[rid]
                seq = self._req_seq[rid]
                self._req_seq[rid] = seq + 1
                req = res.request() if prio is None else res.request(priority=prio)
                log = self.record.resource_log[rid]
                log.append(("req", env.now, seq, prio))
                req.callbacks.append(
                    lambda e, log=log, s=seq: log.append(("grant", e.env.now, s))
                )
                try:
                    yield req
                    trace.append((pid, idx, "acquired", env.now))
                    if hold > 0:
                        yield env.timeout(hold)
                finally:
                    if req.triggered:
                        res.release(req)
                        log.append(("release", env.now, seq))
                    else:
                        req.cancel()
                        log.append(("cancel", env.now, seq))
                trace.append((pid, idx, "released", env.now))
            elif kind == "spawn":
                child = op[1]
                self._start(child)
                trace.append((pid, idx, "spawned", env.now, child.pid))
            elif kind == "join":
                target = self.procs.get(op[1])
                if target is None:
                    trace.append((pid, idx, "join_missing", env.now, op[1]))
                    continue
                value = yield target
                trace.append((pid, idx, "joined", env.now, value))
            elif kind == "guard_join":
                target = self.procs.get(op[1])
                if target is None:
                    trace.append((pid, idx, "join_missing", env.now, op[1]))
                    continue
                try:
                    value = yield target
                    trace.append((pid, idx, "joined", env.now, value))
                except Exception as exc:
                    trace.append(
                        (
                            pid,
                            idx,
                            "join_failed",
                            env.now,
                            type(exc).__name__,
                            _normalize_message(str(exc)),
                        )
                    )
            elif kind == "interrupt":
                target = self.procs.get(op[1])
                if (
                    target is not None
                    and target.is_alive
                    and target is not env.active_process
                ):
                    target.interrupt(f"int-from-{pid}")
                    trace.append((pid, idx, "interrupt", env.now, op[1]))
                else:
                    trace.append((pid, idx, "interrupt_skipped", env.now, op[1]))
            elif kind == "raise":
                trace.append((pid, idx, "raise", env.now, op[1]))
                raise RuntimeError(op[1])
            else:  # pragma: no cover - fuzzer never emits unknown ops
                raise ValueError(f"unknown op {kind!r}")

    # -- running -----------------------------------------------------------
    def run(self) -> ExecutionRecord:
        scenario = self.scenario
        first_proc = None
        for spec in scenario.processes:
            proc = self._start(spec)
            if first_proc is None:
                first_proc = proc

        if scenario.run_mode == "horizon":
            until: Any = scenario.until
        elif scenario.run_mode == "proc":
            until = first_proc
        else:
            until = None

        record = self.record
        try:
            self.backend.drive(self.env, until)
        except BaseException as exc:  # noqa: BLE001 - recorded, compared
            record.error = (
                type(exc).__name__,
                _normalize_message(str(exc)),
                float(self.env.now),
            )
        record.final_now = float(self.env.now)

        record.kernel_stats = {
            "events_processed": float(self.env.events_processed),
            "queue_high_water": float(self.env.queue_high_water),
        }
        # Detach the record from the interpreter's live lists.  Processes
        # left suspended at run end are plain generators whose ``finally``
        # blocks (resource release bookkeeping) execute whenever the
        # cyclic GC finalizes them — a nondeterministic instant that must
        # not be able to mutate an already-returned record.
        record.trace = list(record.trace)
        record.resource_log = {
            k: list(v) for k, v in record.resource_log.items()
        }
        return record


def execute(scenario: Scenario, backend: Backend) -> ExecutionRecord:
    """Interpret *scenario* on *backend* and return its execution record."""
    return _Interpreter(scenario, backend).run()


def compare_records(a: ExecutionRecord, b: ExecutionRecord) -> List[str]:
    """Describe every observable difference between two executions.

    An empty list means the executions are equivalent.
    """
    diffs: List[str] = []
    pair = f"{a.backend} vs {b.backend}"

    def check(label: str, x: Any, y: Any) -> None:
        if x != y:
            diffs.append(f"{pair}: {label} differ: {x!r} != {y!r}")

    if len(a.trace) != len(b.trace):
        diffs.append(
            f"{pair}: trace lengths differ: {len(a.trace)} != {len(b.trace)}"
        )
    for i, (ea, eb) in enumerate(zip(a.trace, b.trace)):
        if tuple(ea) != tuple(eb):
            diffs.append(f"{pair}: trace[{i}] differs: {ea!r} != {eb!r}")
            break
    check("final clock", a.final_now, b.final_now)
    check("resource logs", a.resource_log, b.resource_log)
    check("error", a.error, b.error)
    check("kernel stats", a.kernel_stats, b.kernel_stats)
    return diffs
