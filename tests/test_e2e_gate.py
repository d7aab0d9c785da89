"""Tests for ``tools/e2e_gate.py`` — the end-to-end CI regression gate.

The benchmark itself is never run here.  Each side of the comparison is
a directory holding ``canned.json``, the result lines a stub command
prints in place of ``benchmarks/e2e/run.py``; the stub also logs every
call, so the run order can be checked.  The bounds are the real ones
from the repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "e2e_gate.py"

spec = importlib.util.spec_from_file_location("e2e_gate", TOOL)
e2e_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(e2e_gate)

STUB = """\
import argparse, json, pathlib
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds", type=float)
args = parser.parse_args()
here = pathlib.Path.cwd()
with open(here.parent / "calls.log", "a") as log:
    log.write(f"{here.name} {args.workload} {args.seed} {args.seconds:g}\\n")
canned = json.loads((here / "canned.json").read_text())
print("workload", args.workload)
if args.workload in canned:
    print(json.dumps(canned[args.workload]))
"""


def result(wall_s=1.0, setup_s=0.5, peak_rss_mb=100.0, correct=True,
           failed=0, attempted=10):
    """One canned ``run.py`` result line."""
    values = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
              "peak_rss_mb": (peak_rss_mb, "MB")}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()}}


@pytest.fixture
def bench(tmp_path):
    """A temporary BENCHMARK.json, side directories and a gate runner."""
    real = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    declared = {"command": [sys.executable, str(stub)],
                "paths": ["benchmarks/e2e"], "run_seconds": 3,
                "workloads": [{"name": "w1", "why": "test"}],
                "end_to_end": real["end_to_end"]}
    roots = {side: tmp_path / side for side in e2e_gate.SIDES}
    for root in roots.values():
        root.mkdir()

    class Bench:
        path = tmp_path / "BENCHMARK.json"

        def run(self, parent, change, pairs=3):
            """Gate *change* against *parent*: ``{workload: result}`` each."""
            for side, canned in (("parent", parent), ("change", change)):
                (roots[side] / "canned.json").write_text(json.dumps(canned))
            self.path.write_text(json.dumps(declared))
            return e2e_gate.gate(json.loads(self.path.read_text()), roots,
                                 pairs, seed_base=7, log=lambda line: None)

        def calls(self):
            log = tmp_path / "calls.log"
            return [line.split() for line in log.read_text().splitlines()]

    Bench.declared = declared
    return Bench()


class TestRunOrder:
    def test_run_order_alternates(self, bench):
        assert bench.run({"w1": result()}, {"w1": result()}) == []
        calls = bench.calls()
        assert [(side, int(seed)) for side, _, seed, _ in calls] == [
            ("parent", 7), ("change", 7),
            ("change", 8), ("parent", 8),
            ("parent", 9), ("change", 9),
        ]
        # run_seconds comes from the declaration, not from the gate.
        assert {seconds for *_, seconds in calls} == {"3"}

    def test_added_workload_is_run(self, bench):
        bench.declared["workloads"].append({"name": "w2", "why": "added"})
        canned = {"w1": result(), "w2": result()}
        assert bench.run(canned, canned, pairs=1) == []
        assert [(side, workload) for side, workload, *_ in bench.calls()] == [
            ("parent", "w1"), ("change", "w1"),
            ("parent", "w2"), ("change", "w2"),
        ]


class TestVerdicts:
    def test_change_within_bounds_passes(self, bench):
        change = result(wall_s=1.2, peak_rss_mb=104.0, setup_s=0.9)
        assert bench.run({"w1": result()}, {"w1": change}) == []

    def test_wall_over_bound_fails(self, bench):
        failures = bench.run({"w1": result()}, {"w1": result(wall_s=1.3)})
        assert len(failures) == 1 and "wall_s" in failures[0]

    def test_peak_rss_over_bound_fails(self, bench):
        failures = bench.run({"w1": result()},
                             {"w1": result(peak_rss_mb=106.0)})
        assert len(failures) == 1 and "peak_rss_mb" in failures[0]

    def test_setup_is_not_gated(self, bench):
        assert bench.run({"w1": result()}, {"w1": result(setup_s=5.0)}) == []

    def test_incorrect_run_fails(self, bench):
        failures = bench.run({"w1": result()}, {"w1": result(correct=False)})
        assert failures and all("not correct" in f for f in failures)

    def test_higher_failed_share_fails(self, bench):
        failures = bench.run({"w1": result(failed=1, attempted=20)},
                             {"w1": result(failed=1, attempted=10)})
        assert len(failures) == 1 and "failed 3/30" in failures[0]

    def test_run_without_result_line_fails(self, bench):
        failures = bench.run({"w1": result()}, {})
        assert any("no result line" in f for f in failures)
        assert any("no completed run" in f for f in failures)


def test_prepare_parent_copies_the_change_benchmark(tmp_path):
    """The parent worktree keeps its own program, runs the change's harness."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "benchmarks" / "e2e").mkdir(parents=True)
    declared = {"paths": ["benchmarks/e2e"]}

    def commit(program: str, harness: str) -> None:
        (repo / "src" / "program.py").write_text(program)
        (repo / "benchmarks" / "e2e" / "run.py").write_text(harness)
        (repo / "BENCHMARK.json").write_text(json.dumps(dict(declared, v=harness)))
        for args in (["add", "-A"], ["commit", "-q", "-m", harness]):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                            *args], cwd=repo, check=True)

    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    commit("parent program", "old harness")
    commit("changed program", "new harness")
    dest = tmp_path / "parent"
    e2e_gate.prepare_parent(repo, "HEAD~1", dest, declared)
    try:
        assert (dest / "src" / "program.py").read_text() == "parent program"
        assert (dest / "benchmarks" / "e2e" / "run.py").read_text() == "new harness"
        assert json.loads((dest / "BENCHMARK.json").read_text())["v"] == "new harness"
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(dest)],
                       cwd=repo, check=True)


def test_compile_tree_writes_fresh_bytecode(tmp_path, monkeypatch):
    """Every source gets a ``.pyc`` whose header matches it, stale or not."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    root = tmp_path / "tree"
    sources = [root / "src" / "pkg" / "__init__.py",
               root / "src" / "pkg" / "mod.py",
               root / "benchmarks" / "e2e" / "run.py"]
    declared = {"command": [sys.executable], "paths": ["benchmarks/e2e"]}
    for path in sources:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("X = 1\n")
    e2e_gate.compile_tree(root, declared)
    # Make the first module's bytecode stale: new size, later mtime.
    sources[1].write_text("X = 12345\n")
    later = sources[1].stat().st_mtime + 10
    os.utime(sources[1], (later, later))
    e2e_gate.compile_tree(root, declared)
    for path in sources:
        data = Path(importlib.util.cache_from_source(str(path))).read_bytes()
        assert data[:4] == importlib.util.MAGIC_NUMBER
        flags, mtime, size = struct.unpack("<III", data[4:16])
        stat = path.stat()
        assert (flags, mtime, size) == (
            0, int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF)
