#!/usr/bin/env python3
"""End-to-end regression gate: a change against its parent commit.

    python tools/e2e_gate.py --base <parent-commit>

Checks the parent out in a ``git worktree`` and copies the change's
benchmark code (the ``paths`` of ``BENCHMARK.json``) and
``BENCHMARK.json`` itself into it.  Both sides then run identical
benchmark code, each against its own ``src/``.  Everything else comes
from ``BENCHMARK.json``: the command, the workloads, ``run_seconds`` and
the end-to-end metrics with their bounds.

For every workload it runs ``PAIRS`` pairs, alternating which side goes
first: the parent runs first in pairs 0 and 2.  Both sides of pair *k*
use seed ``SEED_BASE + k``.  The gate fails (exit 1) when, on any
workload:

* a run's last JSON line says ``correct: false``, or no such line came;
* the change's ``failed / attempted`` is higher than the parent's;
* the change's median of a gated end-to-end metric is worse than the
  parent's median by more than that metric's bound.

Before the runs, both sides' ``src/`` and benchmark paths are
byte-compiled (``compile_tree``), so neither side recompiles stale or
missing ``.pyc`` files in every process it starts.

``setup_s`` is printed but not gated: its run-to-run IQR is 13-27% of
its median (``benchmarks/e2e/SPREAD_2f05216.json``), close to its 0.25
bound, and three pairs cannot resolve a change of that size.

The gate compares with the parent on the same machine, never with a
committed reference: a reference is measured on another machine, and
it goes stale after every change that makes the program faster.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DECLARATION = "BENCHMARK.json"
SIDES = ("parent", "change")
PAIRS = 3
#: Pair 0 runs the seed ``benchmarks/e2e/golden.json`` pins.
SEED_BASE = 2022
#: End-to-end metrics printed but not gated, with the reason.
UNGATED = {"setup_s": "spread too wide for the pairs run"}


class GateError(RuntimeError):
    """A run or checkout that produced no result to judge."""


def run_order(pairs: int) -> List[Tuple[int, str]]:
    """``(pair, side)`` in the order they run: alternating first side."""
    order = []
    for pair in range(pairs):
        sides = SIDES if pair % 2 == 0 else SIDES[::-1]
        order.extend((pair, side) for side in sides)
    return order


def run_once(command: List[str], cwd: Path, workload: str, seed: int,
             seconds: float) -> Dict:
    """One benchmark run in *cwd*; returns its last JSON line."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}"]
    proc = subprocess.run(argv, cwd=str(cwd), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise GateError(f"{workload} in {cwd}: exit {proc.returncode}, no "
                        f"result line\n{proc.stderr[-2000:]}") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise GateError(f"{workload} in {cwd}: last line is not a result")
    return result


def _value(run: Dict, name: str) -> Optional[float]:
    return run["metrics"].get(name, {}).get("value")


def _median(runs: List[Dict], name: str) -> Optional[float]:
    values = [v for v in (_value(r, name) for r in runs) if v is not None]
    return statistics.median(values) if values else None


def _failed_share(runs: List[Dict]) -> Tuple[int, int]:
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def _log(line: str) -> None:
    print(line, flush=True)


def judge(workload: str, runs: Dict[str, List[Dict]],
          metrics: List[Dict]) -> Tuple[List[str], List[str]]:
    """``(report lines, failures)`` for one workload's runs by side."""
    lines, failures = [], []
    for side in SIDES:
        for n, run in enumerate(runs[side]):
            if run.get("correct") is not True:
                failures.append(f"{workload}: {side} run {n} is not correct")
    (p_failed, p_attempted), (c_failed, c_attempted) = (
        _failed_share(runs[side]) for side in SIDES)
    lines.append(f"  {'failed/attempted':<16} {f'{p_failed}/{p_attempted}':<14} "
                 f"{c_failed}/{c_attempted}")
    # Cross-multiplied so a side that attempted nothing never divides.
    if c_failed * max(p_attempted, 1) > p_failed * max(c_attempted, 1):
        failures.append(f"{workload}: change failed {c_failed}/{c_attempted}, "
                        f"parent {p_failed}/{p_attempted}")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        parent, change = (_median(runs[side], name) for side in SIDES)
        if parent is None:
            lines.append(f"  {name:<16} not measured by the parent")
            continue
        if change is None:
            failures.append(f"{workload}: change did not measure {name}")
            continue
        shift = change / parent - 1.0 if parent else 0.0
        worse = shift if metric["better"] == "lower" else -shift
        if name in UNGATED:
            verdict = f"not gated ({UNGATED[name]})"
        elif worse > bound:
            verdict = "FAIL"
            failures.append(f"{workload}: {name} median {change:.4g} is "
                            f"{100 * worse:.1f}% worse than the parent's "
                            f"{parent:.4g} (bound {100 * bound:.0f}%)")
        else:
            verdict = "ok"
        lines.append(f"  {name:<16} {parent:<14.5g} {change:<14.5g} "
                     f"{100 * shift:+7.2f}%  bound {100 * bound:.0f}%  {verdict}")
    return lines, failures


def gate(declared: Dict, roots: Dict[str, Path], pairs: int, seed_base: int,
         log: Callable[[str], None] = _log) -> List[str]:
    """Run every declared workload on both sides; return the failures."""
    failures: List[str] = []
    seconds = declared["run_seconds"]
    for workload in (w["name"] for w in declared["workloads"]):
        runs: Dict[str, List[Dict]] = {side: [] for side in SIDES}
        for pair, side in run_order(pairs):
            seed = seed_base + pair
            t0 = time.perf_counter()
            try:
                run = run_once(declared["command"], roots[side], workload,
                               seed, seconds)
            except GateError as exc:
                failures.append(str(exc))
                log(f"{workload} pair {pair} {side} seed {seed}: {exc}")
                continue
            runs[side].append(run)
            log(f"{workload} pair {pair} {side:<6} seed {seed}: " + " ".join(
                f"{name} {_value(run, name):.4g}" for name in run["metrics"]
                if _value(run, name) is not None)
                + f" correct {run.get('correct')} ({time.perf_counter() - t0:.1f} s)")
        if not all(runs.values()):
            failures.append(f"{workload}: a side has no completed run")
            continue
        log(f"{workload}: medians over {pairs} pairs")
        log(f"  {'metric':<16} {'parent':<14} {'change':<14} {'shift':>8}")
        lines, found = judge(workload, runs, declared["end_to_end"])
        for line in lines:
            log(line)
        failures.extend(found)
    return failures


def _git(repo: Path, *args: str) -> None:
    proc = subprocess.run(["git", *args], cwd=str(repo), capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise GateError(f"git {' '.join(args)}: {proc.stderr.strip()}")


def prepare_parent(repo: Path, base: str, dest: Path, declared: Dict) -> None:
    """Check *base* out at *dest*, with *repo*'s benchmark code copied in."""
    _git(repo, "worktree", "add", "--detach", str(dest), base)
    for rel in [*declared["paths"], DECLARATION]:
        source, target = repo / rel, dest / rel
        if source.is_dir():
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(source, target,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def compile_tree(root: Path, declared: Dict) -> None:
    """Byte-compile *root*'s ``src/`` and benchmark paths in place.

    A new worktree has no ``__pycache__``, and a tree whose ``.pyc``
    files are stale stays stale where ``PYTHONDONTWRITEBYTECODE`` is
    set: that side then compiles every module in every process it
    starts, which shows in ``setup_s`` and ``peak_rss_mb``.  The
    variable is dropped for this one step, and the benchmark command's
    own interpreter compiles, so the cache tag is the one its runs read.
    """
    targets = [str(root / rel) for rel in ["src", *declared["paths"]]]
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([declared["command"][0], "-m", "compileall", "-q",
                           *targets], cwd=str(root), env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise GateError(f"compileall in {root}: exit {proc.returncode}\n"
                        f"{(proc.stdout + proc.stderr)[-2000:]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="the parent commit to compare against")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the parent worktree goes (default: a "
                             "temporary directory)")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / DECLARATION).read_text(encoding="utf-8"))
    workdir = Path(tempfile.mkdtemp(prefix="e2e-gate-", dir=args.workdir))
    parent = workdir / "parent"
    try:
        prepare_parent(ROOT, args.base, parent, declared)
        for root in (parent, ROOT):
            compile_tree(root, declared)
        failures = gate(declared, {"parent": parent, "change": ROOT},
                        PAIRS, SEED_BASE)
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent)],
                       cwd=str(ROOT), capture_output=True)
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print("e2e gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"e2e gate OK: {len(declared['workloads'])} workloads, "
          f"{PAIRS} pairs each, within the BENCHMARK.json bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
