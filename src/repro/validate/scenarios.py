"""Deterministic scenario fuzzer for the DES kernel.

A :class:`Scenario` is a *declarative* random DES program: store /
container / resource declarations plus a tree of process specs whose ops
are plain JSON-serializable lists.  Being declarative is what makes the
whole validation pipeline work:

* the same scenario can be interpreted on every backend (the inlined
  fast-path ``run()`` loops, the ``step()`` reference, real SimPy when
  installed) and the executions compared event for event;
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
only exact ties.  The draws are part of the fuzz stream — removing one
would renumber every case — so case *N* stays the same program and the
corpus reproducers and CI case numbers keep their meaning
(``tests/test_validate.py`` pins the stream's hash).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "StoreSpec",
    "ContainerSpec",
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

#: Ops that real SimPy cannot replay (kernel extensions).
_KERNEL_ONLY_OPS = frozenset({"cancel_get"})


@dataclass(frozen=True)
class StoreSpec:
    """One store declaration (``kind`` is ``"fifo"`` or ``"priority"``)."""

    id: str
    kind: str = "fifo"
    capacity: Optional[int] = None  # None = unbounded

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "kind": self.kind, "capacity": self.capacity}


@dataclass(frozen=True)
class ContainerSpec:
    """One container declaration."""

    id: str
    capacity: float = 10.0
    init: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "capacity": self.capacity, "init": self.init}


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
    ``["put", store, token]`` / ``["get", store]``
        FIFO store traffic; tokens are ints.
    ``["pput", store, priority, token]``
        Priority-store put of ``PriorityItem(priority, token)``.
    ``["cancel_get", store, wait]``
        Issue a get, sleep *wait*, withdraw the get if still pending
        (kernel extension; not replayable on SimPy).
    ``["cput", container, amount]`` / ``["cget", container, amount]``
        Container deposit / withdrawal.
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
    ``["allof", [delays]]`` / ``["anyof", [delays]]``
        Wait on a condition over fresh timeouts.
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
    stores: Tuple[StoreSpec, ...] = ()
    containers: Tuple[ContainerSpec, ...] = ()
    resources: Tuple[ResourceSpec, ...] = ()
    processes: Tuple[ProcSpec, ...] = ()

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "run_mode": self.run_mode,
            "until": self.until,
            "stores": [s.to_dict() for s in self.stores],
            "containers": [c.to_dict() for c in self.containers],
            "resources": [r.to_dict() for r in self.resources],
            "processes": [p.to_dict() for p in self.processes],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Scenario":
        return Scenario(
            seed=int(data["seed"]),
            run_mode=data["run_mode"],
            until=None if data["until"] is None else float(data["until"]),
            stores=tuple(
                StoreSpec(s["id"], s["kind"], s["capacity"]) for s in data["stores"]
            ),
            containers=tuple(
                ContainerSpec(c["id"], float(c["capacity"]), float(c["init"]))
                for c in data["containers"]
            ),
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

    # -- classification ----------------------------------------------------
    def simpy_compatible(self) -> bool:
        """Whether real SimPy can replay this scenario faithfully.

        Kernel extensions (get cancellation) and equal-priority
        priority-store traffic (our kernel guarantees FIFO tie-breaking;
        SimPy orders by payload) are excluded.
        """
        prio_puts: Dict[str, List[float]] = {}

        def scan(ops) -> bool:
            for op in ops:
                if op[0] in _KERNEL_ONLY_OPS:
                    return False
                if op[0] == "pput":
                    prio_puts.setdefault(op[1], []).append(op[2])
                if op[0] == "spawn" and not scan(op[1].ops):
                    return False
            return True

        for proc in self.processes:
            if not scan(proc.ops):
                return False
        return all(len(set(ps)) == len(ps) for ps in prio_puts.values())


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
        self.next_token = 0
        self.next_pid = 0
        #: pids generated so far — interrupt/join targets.
        self.known_pids: List[str] = []

    def delay(self) -> float:
        d = self.rng.randint(0, int(MAX_DELAY / DELAY_QUANTUM)) * DELAY_QUANTUM
        if self.off_grid_rate and self.rng.random() < self.off_grid_rate:
            d += OFF_GRID_JITTER
        return d

    def token(self) -> int:
        self.next_token += 1
        return self.next_token

    def pid(self) -> str:
        self.next_pid += 1
        name = f"p{self.next_pid}"
        self.known_pids.append(name)
        return name


def _gen_ops(
    g: _Gen,
    self_pid: str,
    stores: Tuple[StoreSpec, ...],
    containers: Tuple[ContainerSpec, ...],
    resources: Tuple[ResourceSpec, ...],
    depth: int,
) -> Tuple:
    """Generate one process body (recursing for spawned children)."""
    rng = g.rng
    ops: List[Tuple] = []
    n_ops = rng.randint(1, g.max_ops)
    for _ in range(n_ops):
        choices: List[str] = ["timeout", "timeout", "sleep_catch"]
        if stores:
            choices += ["put", "get", "put", "get", "cancel_get"]
        if containers:
            choices += ["cput", "cget"]
        if resources:
            choices += ["acquire", "acquire"]
        if depth < g.max_depth:
            choices += ["spawn", "spawn_guarded"]
        if g.known_pids:
            choices += ["interrupt", "join"]
        choices += ["allof", "anyof"]
        kind = rng.choice(choices)

        if kind == "timeout":
            ops.append(("timeout", g.delay()))
        elif kind == "sleep_catch":
            ops.append(("sleep_catch", g.delay()))
        elif kind == "put":
            store = rng.choice(stores)
            if store.kind == "priority":
                ops.append(
                    ("pput", store.id, rng.choice(PRIORITY_CHOICES), g.token())
                )
            else:
                ops.append(("put", store.id, g.token()))
        elif kind == "get":
            ops.append(("get", rng.choice(stores).id))
        elif kind == "cancel_get":
            ops.append(("cancel_get", rng.choice(stores).id, g.delay()))
        elif kind == "cput":
            c = rng.choice(containers)
            ops.append(("cput", c.id, float(rng.randint(1, 4))))
        elif kind == "cget":
            c = rng.choice(containers)
            ops.append(("cget", c.id, float(rng.randint(1, 4))))
        elif kind == "acquire":
            res = rng.choice(resources)
            prio = rng.choice(PRIORITY_CHOICES) if res.kind == "priority" else None
            ops.append(("acquire", res.id, prio, g.delay()))
        elif kind in ("spawn", "spawn_guarded"):
            child_pid = g.pid()
            child_ops = _gen_ops(
                g, child_pid, stores, containers, resources, depth + 1
            )
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
        elif kind == "allof":
            ops.append(("allof", [g.delay(), g.delay()]))
        elif kind == "anyof":
            ops.append(("anyof", [g.delay(), g.delay()]))
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

    stores: List[StoreSpec] = []
    for i in range(rng.randint(0, 2)):
        kind = rng.choice(("fifo", "priority"))
        capacity = rng.choice((None, None, rng.randint(1, 3)))
        stores.append(StoreSpec(f"s{i}", kind, capacity))
    containers: List[ContainerSpec] = []
    if rng.random() < 0.5:
        cap = float(rng.randint(5, 20))
        containers.append(ContainerSpec("c0", cap, float(rng.randint(0, int(cap)))))
    resources: List[ResourceSpec] = []
    for i in range(rng.randint(0, 2)):
        kind = rng.choice(("fifo", "priority"))
        resources.append(ResourceSpec(f"r{i}", kind, rng.randint(1, 2)))

    processes: List[ProcSpec] = []
    for _ in range(rng.randint(2, max_procs)):
        pid = g.pid()
        ops = _gen_ops(g, pid, tuple(stores), tuple(containers), tuple(resources), 0)
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
        stores=tuple(stores),
        containers=tuple(containers),
        resources=tuple(resources),
        processes=tuple(processes),
    )
