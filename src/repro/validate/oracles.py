"""Invariant oracles for the validation subsystem.

Two families of checks, both returning a list of human-readable
violation strings (empty = all invariants hold):

**Scenario oracles** (:func:`check_record`) inspect one
:class:`~.executor.ExecutionRecord` against its scenario — properties
that must hold on *every* backend regardless of what the random program
did: a monotonic clock and resource grant legality (capacity bounds,
FIFO / priority-ordered grants).

**Model oracles** cross-check the C/R layers against their closed
forms: :func:`check_bandwidth_monotonicity` (the ``iomodel`` laws are
monotone and saturate), :func:`check_analysis_consistency` (Eq. 1/Eq. 2
algebra and the :func:`~repro.analysis.expected.expected_base_overheads`
accounting identity), and :func:`check_statemachine_table` (structural
sanity of the Fig 5 transition table).  :mod:`repro.validate.crdiff`
adds the runtime SnapshotLedger / state-machine checks that need a live
simulation.

Replay oracles work on the service logs, which record events in kernel
*processing* order.  Requests created in the lag between an event being
serviced and being processed would look like bypassed waiters, so the
resource-priority oracle only flags a bypassed waiter from a strictly
earlier timestep — same-timestep inversions are instead caught by the
cross-backend differential comparison.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .executor import ExecutionRecord
from .scenarios import Scenario

__all__ = [
    "check_record",
    "check_monotonic_clock",
    "check_resource_invariants",
    "check_bandwidth_monotonicity",
    "check_analysis_consistency",
    "check_statemachine_table",
]

_TOL = 1e-9


# ---------------------------------------------------------------------------
# scenario oracles
# ---------------------------------------------------------------------------

def check_monotonic_clock(record: ExecutionRecord) -> List[str]:
    """The clock never moves backwards across the trace or resource logs."""
    out: List[str] = []
    last = -math.inf
    for entry in record.trace:
        t = entry[3]
        if t < last:
            out.append(f"clock moved backwards in trace at {entry!r}")
        last = t
    for rid, log in record.resource_log.items():
        last = -math.inf
        for entry in log:
            t = entry[1]
            if t < last:
                out.append(
                    f"clock moved backwards in resource {rid} log at {entry!r}"
                )
            last = t
    if record.trace and record.final_now < max(e[3] for e in record.trace) - _TOL:
        out.append("final clock precedes the last trace entry")
    return out


def check_resource_invariants(
    record: ExecutionRecord, scenario: Scenario
) -> List[str]:
    """Grant legality per resource: capacity bound and queue discipline."""
    out: List[str] = []
    specs = {r.id: r for r in scenario.resources}
    for rid, log in record.resource_log.items():
        spec = specs[rid]
        waiting: Dict[int, tuple] = {}  # seq -> (prio, request_time)
        granted: set = set()
        # Grants are logged at event *processing*; releases synchronously.
        # A request granted and immediately interrupted in the same
        # timestep therefore logs its release first — track those seqs so
        # the late grant entry nets out instead of flagging.
        pre_released: set = set()
        in_use = 0
        for entry in log:
            kind, t, seq = entry[0], entry[1], entry[2]
            if kind == "req":
                waiting[seq] = (entry[3], t)
            elif kind == "cancel":
                waiting.pop(seq, None)
            elif kind == "release":
                if seq in granted:
                    granted.discard(seq)
                    in_use -= 1
                elif seq in waiting:
                    pre_released.add(seq)
                    waiting.pop(seq)
                else:
                    out.append(f"resource {rid}: release without grant at {entry!r}")
            elif kind == "grant":
                if seq in pre_released:
                    pre_released.discard(seq)
                    continue
                if seq not in waiting:
                    out.append(f"resource {rid}: grant without request at {entry!r}")
                    continue
                granted.add(seq)
                prio, req_t = waiting.pop(seq)
                in_use += 1
                if in_use > spec.capacity:
                    out.append(
                        f"resource {rid}: capacity {spec.capacity} exceeded "
                        f"at {entry!r}"
                    )
                granted_key = (
                    (prio, req_t, seq) if spec.kind == "priority" else (seq,)
                )
                for w_seq, (w_prio, w_t) in waiting.items():
                    if w_t >= t:
                        continue  # same-timestep arrival: processing lag
                    w_key = (
                        (w_prio, w_t, w_seq)
                        if spec.kind == "priority"
                        else (w_seq,)
                    )
                    if w_key < granted_key:
                        out.append(
                            f"resource {rid}: waiter {w_seq} (prio {w_prio}, "
                            f"t={w_t}) bypassed by grant {entry!r}"
                        )
    return out


def check_record(record: ExecutionRecord, scenario: Scenario) -> List[str]:
    """Run every scenario oracle over one execution record."""
    out = check_monotonic_clock(record)
    out += check_resource_invariants(record, scenario)
    return [f"[{record.backend}] {v}" for v in out]


# ---------------------------------------------------------------------------
# model oracles (closed-form cross-checks)
# ---------------------------------------------------------------------------

def check_bandwidth_monotonicity() -> List[str]:
    """The ``iomodel`` bandwidth laws are monotone and saturate.

    Realized bandwidth must never *decrease* with a larger transfer, and
    aggregate bandwidth must never decrease with more nodes while staying
    below the application-realized ceiling — the monotonicity the C/R
    timing model relies on when it sizes checkpoint writes.
    """
    from ..iomodel.bandwidth import (
        AGGREGATE_SATURATION_BW,
        GiB,
        MiB,
        OPTIMAL_TASKS_PER_NODE,
        aggregate_bandwidth,
        single_node_bandwidth,
        size_efficiency,
        task_efficiency,
    )

    out: List[str] = []
    sizes = [64.0 * 1024, 1.0 * MiB, 64.0 * MiB, 1.0 * GiB, 64.0 * GiB]
    for prev, cur in zip(sizes, sizes[1:]):
        if size_efficiency(cur) < size_efficiency(prev) - _TOL:
            out.append(f"size_efficiency not monotone between {prev} and {cur}")
        if single_node_bandwidth(cur) < single_node_bandwidth(prev) - _TOL:
            out.append(
                f"single_node_bandwidth not monotone between {prev} and {cur}"
            )
    nodes = [1, 4, 16, 128, 1024, 4096]
    for prev, cur in zip(nodes, nodes[1:]):
        a_prev = aggregate_bandwidth(prev, 8.0 * GiB)
        a_cur = aggregate_bandwidth(cur, 8.0 * GiB)
        if a_cur < a_prev - _TOL:
            out.append(f"aggregate_bandwidth not monotone between {prev} and {cur}")
        if a_cur > AGGREGATE_SATURATION_BW:
            out.append(f"aggregate_bandwidth exceeds saturation at {cur} nodes")
    peak = task_efficiency(OPTIMAL_TASKS_PER_NODE)
    for n in (1, 2, 4, 16, 42):
        if task_efficiency(n) > peak + _TOL:
            out.append(f"task_efficiency({n}) exceeds the optimum-task peak")
    return out


def check_analysis_consistency() -> List[str]:
    """Eq. 1 / Eq. 2 algebra and the expected-overhead accounting identity.

    * ``sigma_adjusted_oci == young_oci / sqrt(1 - sigma)`` (Eq. 2 is
      Eq. 1 with the discounted rate);
    * ``oci_elongation_percent`` matches that ratio;
    * :func:`~repro.analysis.expected.expected_base_overheads` satisfies
      ``makespan = compute + checkpoint + recomputation + recovery`` and
      its OCI equals Young's formula for the same inputs.
    """
    from ..analysis.expected import expected_base_overheads
    from ..analysis.young import (
        oci_elongation_percent,
        sigma_adjusted_oci,
        young_oci,
    )
    from ..failures.weibull import WeibullParams
    from ..platform.system import SUMMIT
    from ..workloads.applications import ApplicationSpec

    out: List[str] = []
    for t_bb, rate, nodes, sigma in (
        (30.0, 1e-6, 128, 0.3),
        (120.0, 5e-7, 2048, 0.8),
    ):
        base = young_oci(t_bb, rate, nodes)
        adjusted = sigma_adjusted_oci(t_bb, rate, nodes, sigma)
        expect = base / math.sqrt(1.0 - sigma)
        if abs(adjusted - expect) > 1e-6 * expect:
            out.append(f"sigma_adjusted_oci inconsistent with Eq. 1 at sigma={sigma}")
        elong = oci_elongation_percent(sigma)
        if abs(elong - (adjusted / base - 1.0) * 100.0) > 1e-6:
            out.append(f"oci_elongation_percent inconsistent at sigma={sigma}")

    from ..iomodel.bandwidth import GiB

    app = ApplicationSpec("oracle", 64, 64 * 4.0 * GiB, 8.0)
    weibull = WeibullParams("oracle", shape=0.7, scale_hours=8.0, system_nodes=64)
    exp = expected_base_overheads(app, SUMMIT, weibull)
    identity = app.compute_seconds + exp.total
    if abs(exp.makespan - identity) > 1e-6 * exp.makespan:
        out.append(
            f"expected makespan {exp.makespan} != compute+overheads {identity}"
        )
    bb = SUMMIT.node.burst_buffer
    oci = young_oci(
        bb.write_time(app.checkpoint_bytes_per_node),
        weibull.per_node_rate(),
        app.nodes,
    )
    if abs(exp.oci - oci) > 1e-9 * oci:
        out.append("expected_base_overheads OCI disagrees with young_oci")
    return out


def check_statemachine_table() -> List[str]:
    """Structural sanity of the Fig 5 transition table.

    Every health state appears as a source, no state transitions to
    itself, a FAILED node can only be replaced (→ NORMAL), and
    ``transition()`` enforces exactly the table.
    """
    from ..core.statemachine import (
        ALLOWED_TRANSITIONS,
        IllegalTransition,
        can_transition,
        transition,
    )
    from ..platform.node import NodeHealth

    out: List[str] = []
    for state in NodeHealth:
        if state not in ALLOWED_TRANSITIONS:
            out.append(f"state {state} missing from the transition table")
    for src, dsts in ALLOWED_TRANSITIONS.items():
        if src in dsts:
            out.append(f"self-transition allowed for {src}")
    if ALLOWED_TRANSITIONS[NodeHealth.FAILED] != frozenset({NodeHealth.NORMAL}):
        out.append("FAILED must transition only to NORMAL (replacement)")
    for src in NodeHealth:
        for dst in NodeHealth:
            legal = can_transition(src, dst)
            try:
                transition(src, dst)
                enforced = True
            except IllegalTransition:
                enforced = False
            if legal != enforced:
                out.append(f"transition({src}, {dst}) disagrees with the table")
    return out
