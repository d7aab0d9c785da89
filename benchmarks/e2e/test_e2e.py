"""Smoke test of the end-to-end benchmark at its ``--quick`` size.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

It asserts no timing and no per-layer share, only that the benchmark
works: every metric ``BENCHMARK.json`` declares is printed with its unit,
a wrong golden digest fails the run, traced and untraced runs compute
bit-identical results, and a wrapper whose target is gone reads n/a.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--quick", *argv],
                          cwd=str(ROOT), capture_output=True, text=True, timeout=120)


def parse(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    fingerprint = next(line.split()[1] for line in lines
                       if line.startswith("fingerprint "))
    return {"json": json.loads(lines[-1]), "printed": printed,
            "fingerprint": fingerprint}


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    untraced = bench("--workload", request.param, "--trace", "0")
    traced = bench("--workload", request.param, "--trace", "1", "--trace-dir",
                   str(tmp_path_factory.mktemp(request.param)))
    for proc in (untraced, traced):
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return parse(untraced), parse(traced)


def test_every_declared_metric_is_printed_with_its_unit(runs):
    untraced, traced = runs
    for declared, run in (("end_to_end", untraced), ("per_layer", traced)):
        metrics = run["json"]["metrics"]
        assert set(metrics) == {m["name"] for m in DECLARED[declared]}
        for m in DECLARED[declared]:
            assert run["printed"][m["name"]] == m["unit"]
            assert metrics[m["name"]]["unit"] == m["unit"]
        assert run["json"]["correct"] is True
        assert run["json"]["attempted"] >= 1 and run["json"]["failed"] == 0


def test_traced_and_untraced_runs_agree(runs):
    untraced, traced = runs
    assert untraced["fingerprint"] == traced["fingerprint"]


def test_a_renamed_target_reads_not_available():
    sys.path.insert(0, str(HERE))
    import layers

    missing = layers.install(layers.Tracer(), [
        ("repro.failures.leadtime", "LeadTimeModel.renamed_survival",
         "failures.survival"),
        ("repro.no_such_module", "run", "campaign.run"),
    ])
    assert set(missing) == {"failures.survival", "campaign.run"}
    values = layers.layer_metrics([], [], missing)
    assert values["failures.survival.calls"] is None
    assert values["campaign.worker_utilization"] is None
    assert values["failures.draw.calls"] == 0


def test_mutated_golden_fails_the_run(tmp_path):
    table = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    key = "campaign-sigma/quick/2022"
    digest = table[key]
    table[key] = ("0" if digest[0] != "0" else "1") + digest[1:]
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(table), encoding="utf-8")
    proc = bench("--workload", "campaign-sigma", "--seed", "2022",
                 "--golden", str(golden))
    assert proc.returncode != 0
    assert "FAIL golden digest" in proc.stdout
