"""Deterministic scenario fuzzer for the DES kernel.

A :class:`Scenario` is a *declarative* random DES program over the
kernel primitives the simulations use: resource declarations plus a
tree of process specs (timeouts, spawns, joins, interrupts, resource
holds) whose ops are plain JSON-serializable lists.  Being declarative
is what makes the whole validation pipeline work:

* the same scenario can be interpreted on every backend (the inlined
  fast-path ``run()`` loop and the ``step()`` reference) and the
  executions compared event for event;
* a failing scenario can be *shrunk* by structural edits (drop a
  process, drop an op, zero a delay) and re-run;
* a minimal reproducer can be committed to ``tests/corpus/`` as JSON and
  replayed forever by the test suite.

:func:`generate_scenario` derives everything from a single integer seed
via :class:`random.Random` — no global state, no wall clock — so case
*N* of a fuzz run is the same program on every machine.

Delays are drawn from a coarse grid (multiples of 0.25) on purpose:
same-time event collisions are where tie-break and ordering bugs live,
and a fuzzer drawing continuous delays would almost never produce one.
A minority of scenarios (:data:`OFF_GRID_SCENARIO_RATE`) additionally
jitter some delays *off* the grid by a non-dyadic offset, so their event
times carry rounding error and land near, but not exactly on, other
events: the heap then orders times that differ in their last bits, not
only exact ties.  The draws are part of the fuzz stream — adding or
removing one renumbers every case — so ``tests/test_validate.py`` pins
the stream's hash, and a deliberate grammar change re-pins it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "ResourceSpec",
    "ProcSpec",
    "Scenario",
    "generate_scenario",
]

#: Delay grid: multiples of this many simulated seconds.
DELAY_QUANTUM = 0.25
#: Largest generated delay (seconds).
MAX_DELAY = 3.0
#: Fraction of scenarios that draw *some* delays off the grid (the rest
#: stay pure-grid, where same-time collisions are densest).
OFF_GRID_SCENARIO_RATE = 0.25
#: Per-delay probability of leaving the grid within an off-grid scenario.
OFF_GRID_DELAY_RATE = 0.2
#: Off-grid offset: DELAY_QUANTUM/3 is not a dyadic fraction, so it is
#: never a grid multiple and sums of jittered delays round.
OFF_GRID_JITTER = DELAY_QUANTUM / 3.0
#: Priorities are drawn from this small set so that ties are common.
PRIORITY_CHOICES = (0.0, 1.0, 2.0)

@dataclass(frozen=True)
class ResourceSpec:
    """One resource declaration (``kind`` is ``"fifo"`` or ``"priority"``)."""

    id: str
    kind: str = "fifo"
    capacity: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "kind": self.kind, "capacity": self.capacity}


@dataclass(frozen=True)
class ProcSpec:
    """One process: a pid, a start delay, and a list of ops.

    Ops are plain lists (JSON-ready).  The vocabulary, with arguments:

    ``["timeout", delay]``
        Sleep for *delay* simulated seconds.
    ``["acquire", resource, priority_or_null, hold]``
        Request a slot (with *priority* on priority resources), hold it
        for *hold* seconds, release.
    ``["spawn", procspec_dict]``
        Start a child process (process trees).
    ``["join", pid]`` / ``["guard_join", pid]``
        Wait for a process; the guarded form records a raised exception
        instead of dying with it.
    ``["interrupt", pid]``
        Interrupt another process (skipped when the target is dead or
        self — keeps the op total and deterministic).
    ``["sleep_catch", delay]``
        Sleep, catching and recording an :class:`Interrupt`.
    ``["raise", message]``
        Raise ``RuntimeError(message)`` (failure injection).
    """

    pid: str
    start_delay: float = 0.0
    ops: Tuple = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "start_delay": self.start_delay,
            "ops": _ops_to_jsonable(self.ops),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ProcSpec":
        return ProcSpec(
            pid=data["pid"],
            start_delay=float(data["start_delay"]),
            ops=_ops_from_jsonable(data["ops"]),
        )


def _ops_to_jsonable(ops) -> List:
    out = []
    for op in ops:
        if op[0] == "spawn":
            out.append(["spawn", op[1].to_dict()])
        else:
            out.append(list(op))
    return out


def _ops_from_jsonable(ops) -> Tuple:
    out = []
    for op in ops:
        if op[0] == "spawn":
            out.append(("spawn", ProcSpec.from_dict(op[1])))
        else:
            out.append(tuple(op))
    return tuple(out)


@dataclass(frozen=True)
class Scenario:
    """A complete randomized DES program plus its run mode.

    ``run_mode`` selects which ``Environment.run`` loop variant the case
    exercises: ``"drain"`` (``until=None``), ``"horizon"``
    (``until=<float>``), or ``"proc"`` (``until=<first process>``) — one
    scenario per inlined fast-path loop in ``des/core.py``.
    """

    seed: int
    run_mode: str = "drain"
    until: Optional[float] = None
    resources: Tuple[ResourceSpec, ...] = ()
    processes: Tuple[ProcSpec, ...] = ()

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "run_mode": self.run_mode,
            "until": self.until,
            "resources": [r.to_dict() for r in self.resources],
            "processes": [p.to_dict() for p in self.processes],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Scenario":
        return Scenario(
            seed=int(data["seed"]),
            run_mode=data["run_mode"],
            until=None if data["until"] is None else float(data["until"]),
            resources=tuple(
                ResourceSpec(r["id"], r["kind"], int(r["capacity"]))
                for r in data["resources"]
            ),
            processes=tuple(ProcSpec.from_dict(p) for p in data["processes"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        return Scenario.from_dict(json.loads(text))


class _Gen:
    """Stateful helper threading the RNG and fresh-name counters."""

    def __init__(self, rng: random.Random, scenario_depth: int, max_ops: int,
                 off_grid_rate: float = 0.0) -> None:
        self.rng = rng
        self.max_depth = scenario_depth
        self.max_ops = max_ops
        #: Per-delay probability of adding :data:`OFF_GRID_JITTER` (0 in
        #: pure-grid scenarios).
        self.off_grid_rate = off_grid_rate
        self.next_pid = 0
        #: pids generated so far — interrupt/join targets.
        self.known_pids: List[str] = []

    def delay(self) -> float:
        d = self.rng.randint(0, int(MAX_DELAY / DELAY_QUANTUM)) * DELAY_QUANTUM
        if self.off_grid_rate and self.rng.random() < self.off_grid_rate:
            d += OFF_GRID_JITTER
        return d

    def pid(self) -> str:
        self.next_pid += 1
        name = f"p{self.next_pid}"
        self.known_pids.append(name)
        return name


def _gen_ops(
    g: _Gen,
    self_pid: str,
    resources: Tuple[ResourceSpec, ...],
    depth: int,
) -> Tuple:
    """Generate one process body (recursing for spawned children)."""
    rng = g.rng
    ops: List[Tuple] = []
    n_ops = rng.randint(1, g.max_ops)
    for _ in range(n_ops):
        choices: List[str] = ["timeout", "timeout", "sleep_catch"]
        if resources:
            choices += ["acquire", "acquire"]
        if depth < g.max_depth:
            choices += ["spawn", "spawn_guarded"]
        if g.known_pids:
            choices += ["interrupt", "join"]
        kind = rng.choice(choices)

        if kind == "timeout":
            ops.append(("timeout", g.delay()))
        elif kind == "sleep_catch":
            ops.append(("sleep_catch", g.delay()))
        elif kind == "acquire":
            res = rng.choice(resources)
            prio = rng.choice(PRIORITY_CHOICES) if res.kind == "priority" else None
            ops.append(("acquire", res.id, prio, g.delay()))
        elif kind in ("spawn", "spawn_guarded"):
            child_pid = g.pid()
            child_ops = _gen_ops(g, child_pid, resources, depth + 1)
            if kind == "spawn_guarded" and rng.random() < 0.5:
                # Failure injection: the child dies, the parent records it.
                child_ops = child_ops + (("raise", f"boom-{child_pid}"),)
            ops.append(("spawn", ProcSpec(child_pid, g.delay(), child_ops)))
            if kind == "spawn_guarded":
                ops.append(("guard_join", child_pid))
            elif rng.random() < 0.4:
                ops.append(("join", child_pid))
        elif kind == "interrupt":
            target = rng.choice(g.known_pids)
            if target != self_pid:
                ops.append(("interrupt", target))
        elif kind == "join":
            target = rng.choice(g.known_pids)
            if target != self_pid:
                ops.append(("guard_join", target))
    return tuple(ops)


def generate_scenario(
    seed: int,
    max_procs: int = 5,
    max_ops: int = 7,
    max_depth: int = 2,
    unguarded_raise_rate: float = 0.03,
) -> Scenario:
    """Generate the deterministic random scenario for *seed*.

    Parameters
    ----------
    seed:
        Sole source of randomness; equal seeds give equal scenarios.
    max_procs / max_ops / max_depth:
        Size bounds: top-level processes, ops per process, spawn depth.
    unguarded_raise_rate:
        Probability that the scenario ends one process with an uncaught
        ``raise`` — exercising exception propagation out of ``run()``.
    """
    rng = random.Random(f"pckpt-validate-{seed}")
    off_grid_rate = (
        OFF_GRID_DELAY_RATE if rng.random() < OFF_GRID_SCENARIO_RATE else 0.0
    )
    g = _Gen(rng, max_depth, max_ops, off_grid_rate)

    resources: List[ResourceSpec] = []
    for i in range(rng.randint(0, 2)):
        kind = rng.choice(("fifo", "priority"))
        resources.append(ResourceSpec(f"r{i}", kind, rng.randint(1, 2)))

    processes: List[ProcSpec] = []
    for _ in range(rng.randint(2, max_procs)):
        pid = g.pid()
        ops = _gen_ops(g, pid, tuple(resources), 0)
        if rng.random() < unguarded_raise_rate:
            ops = ops + (("raise", f"unguarded-{pid}"),)
        processes.append(ProcSpec(pid, g.delay(), ops))

    run_mode = rng.choices(("drain", "horizon", "proc"), weights=(5, 3, 2))[0]
    until = None
    if run_mode == "horizon":
        until = rng.randint(2, 24) * DELAY_QUANTUM

    return Scenario(
        seed=seed,
        run_mode=run_mode,
        until=until,
        resources=tuple(resources),
        processes=tuple(processes),
    )
