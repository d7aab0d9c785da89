"""Kernel benchmark harness: the repo's tracked perf trajectory.

The DES event loop in :mod:`repro.des` is the substrate every result in
this reproduction rests on, so its speed is *measured and recorded*, not
assumed.  Its numbers are a diagnostic: what users wait for — campaigns
and service jobs — is timed, split by layer and gated in CI by
``benchmarks/e2e``.  This module defines

* a fixed set of **kernel microbenchmarks** — pure :mod:`repro.des`
  workloads (timeout chains, event ping-pong, resource contention, store
  traffic, condition fan-in) that isolate the hot paths one at a time;
* a **schema-versioned result writer** producing ``BENCH_<git-sha>.json``
  files that successive PRs compare against each other (see
  ``docs/PERFORMANCE.md`` for the workflow and
  ``tools/check_bench_schema.py`` for the sync check).

Wall-clock numbers are measurements of the host, not of the simulation:
they never enter the deterministic metrics registry and two machines will
disagree.  Comparisons are only meaningful between files produced on the
same machine — which is exactly the regression-checking workflow: run
``pckpt bench`` before and after a change, then ``pckpt bench --baseline
BENCH_<old-sha>.json`` to print the speedups.

Every benchmark is deterministic in its *event schedule* (fixed seeds,
fixed iteration counts), so ``events_processed`` acts as a cross-check
that two compared runs executed the same workload.
"""

from __future__ import annotations

import json
import platform as _platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .des import Environment, PriorityItem, PriorityStore, Resource, Store

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchResult",
    "KERNEL_BENCHMARKS",
    "run_benchmark",
    "profile_benchmark",
    "run_suite",
    "build_payload",
    "validate_payload",
    "write_payload",
    "bench_filename",
    "compare_payloads",
    "kernel_geomean",
    "format_payload",
    "format_comparison",
    "git_sha",
]

#: Version of the ``BENCH_*.json`` schema.  Bump when the payload shape
#: changes; ``tools/check_bench_schema.py`` keeps code, docs, and any
#: committed files agreeing on this number.
BENCH_SCHEMA_VERSION = 1

#: Marker distinguishing bench payloads from other JSON artifacts.
PAYLOAD_KIND = "pckpt-bench"

#: Keys every per-benchmark entry must carry (enforced by
#: :func:`validate_payload` and the schema tool).
ENTRY_KEYS = (
    "events",
    "wall_seconds",
    "events_per_sec",
    "sim_seconds",
    "wall_per_sim_second",
)


# ---------------------------------------------------------------------------
# kernel microbenchmark workloads
# ---------------------------------------------------------------------------
# Each builder returns a ready-to-run Environment; the harness times
# env.run() to exhaustion and reads the kernel self-profile.  Iteration
# counts are scaled by the harness (full vs --quick), so builders take a
# single size parameter n.


def _timeout_chain(n: int) -> Environment:
    """One process yielding *n* sequential timeouts.

    The purest hot-path probe: every event is a Timeout created, scheduled,
    popped, and dispatched straight back into the same generator.
    """
    env = Environment()

    def proc(env: Environment):
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(proc(env))
    return env


def _parallel_timers(n: int) -> Environment:
    """100 interleaved processes sharing the heap (deep-queue dispatch)."""
    env = Environment()
    procs = 100
    each = max(n // procs, 1)

    def proc(env: Environment, offset: float):
        for _ in range(each):
            yield env.timeout(1.0 + offset)

    for i in range(procs):
        env.process(proc(env, i / procs))
    return env


def _ping_pong(n: int) -> Environment:
    """Two processes signalling each other through bare events.

    Exercises Event.succeed, callback subscription, and the processed-event
    fast path in Process._resume (no heap time advance).  The workload is
    one long same-time cascade: every event is scheduled at t=0.
    """
    env = Environment()
    box: List[Any] = [env.event(), env.event()]

    def player(env: Environment, me: int):
        for _ in range(n // 2):
            yield box[me]
            box[me] = env.event()
            box[1 - me].succeed()

    env.process(player(env, 0))
    env.process(player(env, 1))
    box[0].succeed()
    return env


def _resource_cycle(n: int) -> Environment:
    """Ten processes contending for a two-slot Resource.

    Exercises request/grant/release bookkeeping and the FIFO wait queue.
    """
    env = Environment()
    res = Resource(env, capacity=2)
    procs = 10
    each = max(n // procs, 1)

    def worker(env: Environment):
        for _ in range(each):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

    for _ in range(procs):
        env.process(worker(env))
    return env


def _store_traffic(n: int) -> Environment:
    """A producer/consumer pair through a priority store.

    Exercises the put/get dispatcher and the priority-ordered retrieval
    path (the node-local queue primitive of the p-ckpt protocol).  All
    traffic happens at t=0.
    """
    env = Environment()
    store = PriorityStore(env)

    def producer(env: Environment):
        for i in range(n // 2):
            yield store.put(PriorityItem(float(i % 17), i))

    def consumer(env: Environment):
        for _ in range(n // 2):
            yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    return env


def _condition_fanin(n: int) -> Environment:
    """Repeated AllOf/AnyOf over fresh timeout fan-ins.

    Exercises condition subscription, eager callback pruning, and
    ConditionValue assembly.
    """
    env = Environment()
    rounds = max(n // 12, 1)

    def proc(env: Environment):
        for i in range(rounds):
            ts = [env.timeout(1.0 + j * 0.25) for j in range(5)]
            if i % 2:
                yield env.all_of(ts)
            else:
                yield env.any_of(ts)
                yield env.all_of(ts)  # drain the stragglers deterministically

    env.process(proc(env))
    return env


def _store_backlog(n: int) -> Environment:
    """Deep-occupancy priority store: fill-then-drain cycles.

    The node-local priority queue under sustained load — hundreds of
    prioritized entries resident while puts and gets keep arriving.
    Exercises ordered retrieval at depth, where maintaining the
    retrieval order costs O(log n) per operation in the current kernel
    (an earlier revision rebuilt the sorted view on every put/get,
    which makes exactly this workload quadratic).  Same-time cascade
    workload, like ping_pong.
    """
    env = Environment()
    store = PriorityStore(env)
    backlog = 512
    cycles = max(n // (2 * backlog), 1)

    def proc(env: Environment):
        for c in range(cycles):
            for i in range(backlog):
                yield store.put(PriorityItem(float((i * 7919) % backlog), i))
            for _ in range(backlog):
                yield store.get()

    env.process(proc(env))
    return env


def _fifo_store(n: int) -> Environment:
    """Bounded FIFO store with backpressure (put blocks at capacity)."""
    env = Environment()
    store = Store(env, capacity=8)

    def producer(env: Environment):
        for i in range(n // 2):
            yield store.put(i)

    def consumer(env: Environment):
        for _ in range(n // 2):
            yield store.get()
            yield env.timeout(0.5)

    env.process(producer(env))
    env.process(consumer(env))
    return env


@dataclass(frozen=True)
class _KernelBench:
    """One kernel microbenchmark: a builder plus its workload size."""

    name: str
    build: Callable[[int], Environment]
    size: int
    quick_size: int


#: The fixed kernel microbenchmark set, in reporting order.  Sizes are
#: chosen so each full run takes a fraction of a second on a laptop.
KERNEL_BENCHMARKS: Tuple[_KernelBench, ...] = (
    _KernelBench("kernel.timeout_chain", _timeout_chain, 200_000, 20_000),
    _KernelBench("kernel.parallel_timers", _parallel_timers, 200_000, 20_000),
    _KernelBench("kernel.ping_pong", _ping_pong, 200_000, 20_000),
    _KernelBench("kernel.resource_cycle", _resource_cycle, 100_000, 10_000),
    _KernelBench("kernel.store_traffic", _store_traffic, 100_000, 10_000),
    _KernelBench("kernel.fifo_store", _fifo_store, 100_000, 10_000),
    _KernelBench("kernel.store_backlog", _store_backlog, 60_000, 6_000),
    _KernelBench("kernel.condition_fanin", _condition_fanin, 60_000, 6_000),
)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
@dataclass
class BenchResult:
    """Measured outcome of one benchmark (best of *repeats* runs).

    ``events`` and ``sim_seconds`` are deterministic workload facts;
    ``wall_seconds`` (and the derived rates) are host measurements.
    """

    name: str
    events: int
    wall_seconds: float
    sim_seconds: float
    repeats: int

    @property
    def events_per_sec(self) -> float:
        """Dispatched events per wall second — the kernel figure of merit."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def wall_per_sim_second(self) -> float:
        """Wall seconds per simulated second (lower is better)."""
        return (
            self.wall_seconds / self.sim_seconds if self.sim_seconds > 0 else 0.0
        )

    def entry(self) -> Dict[str, Any]:
        """The payload dict stored under ``benchmarks[name]``."""
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "sim_seconds": self.sim_seconds,
            "wall_per_sim_second": self.wall_per_sim_second,
            "repeats": self.repeats,
        }


def _run_kernel_bench(bench: _KernelBench, size: int, repeats: int) -> BenchResult:
    best: Optional[Environment] = None
    best_wall = float("inf")
    for _ in range(repeats):
        env = bench.build(size)
        start = time.perf_counter()
        env.run()
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
            best = env
    assert best is not None
    stats = best.kernel_stats()
    return BenchResult(
        name=bench.name,
        events=int(stats["events_processed"]),
        wall_seconds=best_wall,
        sim_seconds=stats["sim_seconds"],
        repeats=repeats,
    )


def run_benchmark(name: str, quick: bool = False,
                  repeats: int = 3) -> BenchResult:
    """Run a single kernel microbenchmark by name."""
    for bench in KERNEL_BENCHMARKS:
        if bench.name == name:
            return _run_kernel_bench(
                bench, bench.quick_size if quick else bench.size, repeats
            )
    raise KeyError(f"unknown benchmark {name!r}")


def profile_benchmark(name: str, quick: bool = False):
    """Run one kernel microbenchmark with the attribution profiler on.

    Returns ``(BenchResult, KernelProfiler)`` for the single profiled
    run.  This is the instrumented counterpart of :func:`run_benchmark`
    over the same deterministic workload, so callers can check the
    profiler's accounting identities against the benchmark's kernel
    counters (``profiler.total_count() == result.events``) or A/B the
    wall cost of enabling attribution.  Simulations are profiled through
    ``pckpt profile`` instead.
    """
    from .obs.profiler import KernelProfiler

    for bench in KERNEL_BENCHMARKS:
        if bench.name == name:
            env = bench.build(bench.quick_size if quick else bench.size)
            profiler = KernelProfiler()
            env.attach_profiler(profiler)
            start = time.perf_counter()
            env.run()
            wall = time.perf_counter() - start
            stats = env.kernel_stats()
            result = BenchResult(
                name=bench.name,
                events=int(stats["events_processed"]),
                wall_seconds=wall,
                sim_seconds=stats["sim_seconds"],
                repeats=1,
            )
            return result, profiler
    raise KeyError(f"unknown kernel benchmark {name!r}")


def run_suite(quick: bool = False, repeats: int = 3,
              progress: Optional[Callable[[str], None]] = None
              ) -> List[BenchResult]:
    """Run the kernel microbenchmark set, in reporting order.

    Parameters
    ----------
    quick:
        Use the reduced workload sizes (CI smoke scale).
    repeats:
        Timed runs per benchmark; the best (minimum wall) is kept, the
        standard guard against scheduler noise.
    progress:
        Optional callable invoked with each benchmark name before it runs.
    """
    results: List[BenchResult] = []
    for bench in KERNEL_BENCHMARKS:
        if progress is not None:
            progress(bench.name)
        results.append(
            _run_kernel_bench(
                bench, bench.quick_size if quick else bench.size, repeats
            )
        )
    return results


# ---------------------------------------------------------------------------
# payload (BENCH_<sha>.json)
# ---------------------------------------------------------------------------
def git_sha(root: Optional[Path] = None) -> Tuple[str, bool]:
    """``(short-sha, dirty)`` of the repo at *root* (defaults to the cwd).

    Falls back to ``("unknown", False)`` outside a git checkout so the
    harness stays usable from an sdist.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip())
        return sha, dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def build_payload(results: Sequence[BenchResult], sha: str, dirty: bool,
                  quick: bool) -> Dict[str, Any]:
    """Assemble the schema-versioned payload for a suite run."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": PAYLOAD_KIND,
        "git_sha": sha,
        "dirty": dirty,
        "quick": quick,
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "benchmarks": {r.name: r.entry() for r in results},
    }


def validate_payload(payload: Dict[str, Any]) -> List[str]:
    """Return every schema violation in *payload* (empty = valid).

    Mirrored (dependency-free) by ``tools/check_bench_schema.py`` so CI
    can validate committed files without importing this package.
    """
    problems: List[str] = []
    if payload.get("kind") != PAYLOAD_KIND:
        problems.append(f"kind is {payload.get('kind')!r}, not {PAYLOAD_KIND!r}")
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {payload.get('schema_version')!r}, "
            f"code declares {BENCH_SCHEMA_VERSION}"
        )
    for key in ("git_sha", "python", "benchmarks"):
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        problems.append("benchmarks must be a non-empty object")
        return problems
    for name, entry in benchmarks.items():
        if not isinstance(entry, dict):
            problems.append(f"{name}: entry is not an object")
            continue
        for key in ENTRY_KEYS:
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{name}: {key} must be a non-negative number")
    return problems


def bench_filename(sha: str) -> str:
    """Canonical result-file name for a given (short) git sha."""
    return f"BENCH_{sha}.json"


def write_payload(payload: Dict[str, Any], directory: Path) -> Path:
    """Write the payload as ``BENCH_<sha>.json`` under *directory*."""
    problems = validate_payload(payload)
    if problems:
        raise ValueError("refusing to write invalid payload: "
                         + "; ".join(problems))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / bench_filename(payload["git_sha"])
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# comparison & reporting
# ---------------------------------------------------------------------------
def compare_payloads(old: Dict[str, Any],
                     new: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-benchmark speedups of *new* over *old* (shared names only).

    ``speedup`` is new events/sec over old (higher is better);
    ``wall_ratio`` is old wall over new wall for the same workload.  A
    mismatched event count is flagged (the workloads differ, so the
    numbers are not comparable).
    """
    out: Dict[str, Dict[str, float]] = {}
    old_benchmarks = old.get("benchmarks", {})
    for name, entry in new.get("benchmarks", {}).items():
        base = old_benchmarks.get(name)
        if base is None:
            continue
        comparable = (base.get("events") == entry.get("events"))
        speedup = (
            entry["events_per_sec"] / base["events_per_sec"]
            if base.get("events_per_sec") else 0.0
        )
        out[name] = {
            "old_events_per_sec": base.get("events_per_sec", 0.0),
            "new_events_per_sec": entry.get("events_per_sec", 0.0),
            "speedup": speedup,
            "comparable": float(comparable),
        }
    return out


def format_payload(payload: Dict[str, Any]) -> str:
    """Render a payload as the aligned table ``pckpt bench`` prints."""
    lines = [
        f"bench @ {payload['git_sha']}"
        + ("+dirty" if payload.get("dirty") else "")
        + (" (quick)" if payload.get("quick") else "")
        + f" py{payload.get('python')}",
        f"{'benchmark':<26s} {'events':>10s} {'wall s':>9s} "
        f"{'events/s':>12s} {'wall/sim-s':>11s}",
    ]
    for name, e in payload["benchmarks"].items():
        lines.append(
            f"{name:<26s} {e['events']:>10d} {e['wall_seconds']:>9.4f} "
            f"{e['events_per_sec']:>12.0f} {e['wall_per_sim_second']:>11.3e}"
        )
    return "\n".join(lines)


def kernel_geomean(cmp: Dict[str, Dict[str, float]]) -> Optional[float]:
    """Geometric-mean kernel speedup of a :func:`compare_payloads` result.

    Only ``kernel.*`` rows with matching workloads participate; returns
    ``None`` when the comparison has no such row (e.g. disjoint suites).
    """
    kernel = [r["speedup"] for n, r in cmp.items()
              if n.startswith("kernel.") and r["comparable"]]
    if not kernel:
        return None
    geo = 1.0
    for s in kernel:
        geo *= s
    return geo ** (1.0 / len(kernel))


def format_comparison(cmp: Dict[str, Dict[str, float]]) -> str:
    """Render :func:`compare_payloads` output as an aligned table."""
    lines = [
        f"{'benchmark':<26s} {'old ev/s':>12s} {'new ev/s':>12s} "
        f"{'speedup':>8s}",
    ]
    for name, row in cmp.items():
        flag = "" if row["comparable"] else "  [workload changed]"
        lines.append(
            f"{name:<26s} {row['old_events_per_sec']:>12.0f} "
            f"{row['new_events_per_sec']:>12.0f} {row['speedup']:>7.2f}x{flag}"
        )
    geo = kernel_geomean(cmp)
    if geo is not None:
        lines.append(f"{'kernel geomean':<26s} {'':>12s} {'':>12s} "
                     f"{geo:>7.2f}x")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Standalone entry point (``python -m repro.bench``)."""
    from .cli import main as cli_main

    return cli_main(["bench", *(argv or sys.argv[1:])])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
