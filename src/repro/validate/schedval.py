"""Scheduler-level validation: fuzzed schedules checked against oracles.

The scenario fuzzer proves the kernel; :mod:`~.crdiff` proves one job's
C/R loop; this module proves the *batch queue* built on both.  Each case
is a randomized small machine plus a randomized trace workload, executed
by :class:`~repro.sched.engine.SchedSimulation` and held to the
scheduling invariants no policy is allowed to break:

* **liveness** — every admitted job starts and finishes (EASY backfill
  must not starve wide jobs behind a stream of narrow ones);
* **conservation** — node-seconds of executed work never exceed
  ``total_nodes × makespan``, and utilization stays in ``[0, 1]``;
* **placement** — a job's node intervals cover exactly its request,
  stay on the machine, and never overlap another job running at the
  same time;
* **causality** — no job starts before it is submitted, and under FCFS
  no job starts before an earlier-submitted one;
* **accounting** — per-job ``FTStats`` pass their own consistency
  check.

Failures shrink to a minimal reproducer by greedy job deletion, the
same contract the scenario shrinker follows.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "SchedCase",
    "generate_sched_case",
    "run_sched_case",
    "check_sched_output",
    "check_sched_case",
    "shrink_sched_case",
    "sched_case_size",
]

#: Applications the fuzzer draws from — the narrow end of Table I, so a
#: 16..64-node fuzz machine sees realistic contention without CHIMERA's
#: quarter-terabyte checkpoints stretching a case into minutes.
_FUZZ_APPS = ("GYRO", "POP", "VULCAN")
_FUZZ_MODELS = ("B", "M1", "M2", "P1", "P2")


@dataclass(frozen=True)
class SchedCase:
    """One randomized batch-queue configuration (fully deterministic)."""

    seed: int
    policy: str
    total_nodes: int
    drain_lanes: int
    background_load: float
    hours_scale: float
    weibull_shape: float
    weibull_scale_hours: float
    sim_seed: int
    entries: Tuple[Dict[str, Any], ...]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def generate_sched_case(seed: int) -> SchedCase:
    """Deterministic random batch-queue case for *seed*.

    Machines are small (16–64 nodes) and compute hours heavily scaled
    down, so a case runs in tens of milliseconds while still producing
    queueing, backfill decisions, checkpoint drains, and failures.
    """
    rng = random.Random(f"pckpt-schedval-{seed}")
    from ..sched.jobs import POLICY_NAMES

    total_nodes = rng.choice((16, 32, 64))
    n_jobs = rng.randint(3, 10)
    entries: List[Dict[str, Any]] = []
    at = 0.0
    for i in range(n_jobs):
        at += rng.uniform(0.0, 600.0)
        entries.append({
            "app": rng.choice(_FUZZ_APPS),
            "at": round(at, 3),
            "model": rng.choice(_FUZZ_MODELS),
            "user": f"u{rng.randint(0, 2)}",
            # Mix narrow and wide requests: wide jobs are what EASY
            # backfill can starve, narrow ones are what starves them.
            "nodes": (rng.randint(1, max(1, total_nodes // 4))
                      if rng.random() < 0.6
                      else rng.randint(total_nodes // 2, total_nodes)),
        })
    return SchedCase(
        seed=seed,
        policy=rng.choice(POLICY_NAMES),
        total_nodes=total_nodes,
        drain_lanes=rng.choice((1, 2, 4)),
        background_load=rng.choice((0.0, 0.25, 0.5)),
        hours_scale=rng.choice((0.002, 0.005, 0.01)),
        weibull_shape=rng.choice((0.6, 0.7, 0.9)),
        weibull_scale_hours=rng.choice((0.25, 0.5, 1.0)),
        sim_seed=rng.randint(0, 2**31 - 1),
        entries=tuple(entries),
    )


def _case_with_entries(case: SchedCase,
                       entries: Tuple[Dict[str, Any], ...]) -> SchedCase:
    return dataclasses.replace(case, entries=entries)


def run_sched_case(case: SchedCase, policy: Optional[object] = None):
    """Execute one case; returns a :class:`~repro.sched.engine.SchedRunOutput`.

    *policy* accepts a :class:`~repro.sched.policy.SchedulingPolicy`
    instance to substitute for the case's named policy — the hook the
    mutation tests use to run a deliberately broken scheduler through
    the same oracles.
    """
    import numpy as np

    from ..failures.leadtime import PAPER_LEAD_TIME_MODEL
    from ..failures.predictor import DEFAULT_PREDICTOR
    from ..failures.weibull import WeibullParams
    from ..platform.system import SUMMIT
    from ..sched.engine import SchedSimulation
    from ..sched.workload import trace_workload

    workload = trace_workload(
        case.entries, _FUZZ_MODELS,
        hours_scale=case.hours_scale, max_nodes=case.total_nodes,
    )
    platform = dataclasses.replace(SUMMIT, total_nodes=case.total_nodes)
    weibull = WeibullParams(
        f"schedval-{case.seed}",
        shape=case.weibull_shape,
        scale_hours=case.weibull_scale_hours,
        system_nodes=case.total_nodes,
    )
    sim = SchedSimulation(
        workload,
        policy=case.policy if policy is None else policy,
        platform=platform,
        weibull=weibull,
        lead_model=PAPER_LEAD_TIME_MODEL,
        predictor=DEFAULT_PREDICTOR,
        seed_seq=np.random.SeedSequence(case.sim_seed),
        drain_lanes=case.drain_lanes,
        background_load=case.background_load,
    )
    return sim.run()


def check_sched_output(output, case: SchedCase,
                       policy_name: Optional[str] = None) -> List[str]:
    """Scheduling-invariant violations for one executed case (empty = clean)."""
    problems: List[str] = []
    policy_name = policy_name if policy_name is not None else case.policy
    records = output.records

    # Liveness: every admitted job starts and finishes.
    for r in records:
        if r.start is None:
            problems.append(f"starvation: {r.job.name} never started")
        elif r.end is None:
            problems.append(f"liveness: {r.job.name} started but never ended")

    placed = [r for r in records if r.start is not None and r.end is not None]

    # Causality: starts respect submissions; FCFS admits in order.
    for r in placed:
        if r.start < r.job.arrival - 1e-9:
            problems.append(
                f"causality: {r.job.name} started at {r.start} before its "
                f"submission at {r.job.arrival}"
            )
    if policy_name == "fcfs":
        ordered = sorted(placed, key=lambda r: (r.job.arrival, r.job.id))
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.start - 1e-9:
                problems.append(
                    f"fcfs: {later.job.name} (submitted later) started at "
                    f"{later.start} before {earlier.job.name} at "
                    f"{earlier.start}"
                )

    # Placement: intervals cover the request, fit the machine, and
    # time-concurrent jobs never share a node.
    for r in placed:
        width = sum(hi - lo for lo, hi in r.intervals)
        if width != r.job.nodes:
            problems.append(
                f"placement: {r.job.name} holds {width} nodes, "
                f"requested {r.job.nodes}"
            )
        for lo, hi in r.intervals:
            if lo < 0 or hi > case.total_nodes or lo >= hi:
                problems.append(
                    f"placement: {r.job.name} interval [{lo}, {hi}) is off "
                    f"the {case.total_nodes}-node machine"
                )
    for i, a in enumerate(placed):
        for b in placed[i + 1:]:
            if a.start < b.end - 1e-9 and b.start < a.end - 1e-9:
                for lo_a, hi_a in a.intervals:
                    for lo_b, hi_b in b.intervals:
                        if lo_a < hi_b and lo_b < hi_a:
                            problems.append(
                                f"overlap: {a.job.name} [{lo_a},{hi_a}) and "
                                f"{b.job.name} [{lo_b},{hi_b}) share nodes "
                                f"while both running"
                            )

    # Conservation: executed node-seconds fit the machine-time envelope.
    busy = sum(r.job.nodes * r.run_seconds for r in placed)
    envelope = case.total_nodes * output.makespan_seconds
    if busy > envelope * (1 + 1e-9) + 1e-6:
        problems.append(
            f"conservation: {busy:.3f} node-seconds executed inside a "
            f"{envelope:.3f} node-second envelope"
        )
    if not 0.0 <= output.utilization <= 1.0 + 1e-9:
        problems.append(
            f"conservation: utilization {output.utilization} outside [0, 1]"
        )

    # Accounting: per-job FT counters stay internally consistent.
    for r in records:
        if r.ft is None:
            continue
        try:
            r.ft.validate()
        except ValueError as exc:
            problems.append(f"ftstats: {r.job.name}: {exc}")
        if r.run_seconds < 0:
            problems.append(f"accounting: {r.job.name} negative run time")
        if r.start is not None and r.wait_seconds < -1e-9:
            problems.append(f"accounting: {r.job.name} negative wait time")
    return problems


def check_sched_case(case: SchedCase,
                     policy: Optional[object] = None) -> List[str]:
    """All violations for one case: the scheduling-invariant oracles.

    *policy* substitutes a policy instance (a mutant) for the case's
    named one; the FCFS-only causality oracle then does not apply.
    """
    try:
        output = run_sched_case(case, policy=policy)
    except Exception as exc:  # noqa: BLE001 - reported, not fatal
        return [f"simulation raised {type(exc).__name__}: {exc}"]
    return check_sched_output(
        output, case,
        policy_name=None if policy is None else type(policy).__name__,
    )


def sched_case_size(case: SchedCase) -> int:
    """Shrinker size metric: number of jobs in the workload."""
    return len(case.entries)


def shrink_sched_case(
    case: SchedCase, still_fails: Callable[[SchedCase], bool]
) -> SchedCase:
    """Greedy minimization: drop jobs while the case still fails.

    Repeatedly tries removing each job (ids re-densify positionally via
    ``trace_workload``); keeps any deletion that preserves the failure,
    to a fixed point.  Same contract as ``shrink_scenario``: the result
    fails *still_fails* whenever the input did.
    """
    current = case
    shrunk = True
    while shrunk and len(current.entries) > 1:
        shrunk = False
        for i in range(len(current.entries)):
            candidate = _case_with_entries(
                current, current.entries[:i] + current.entries[i + 1:]
            )
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current
