"""Observability integration: spans vs accounting, deterministic merges.

The contract under test (docs/OBSERVABILITY.md):

* completed-span totals reconcile with the engine's own
  ``OverheadBreakdown`` to within 1e-6, for every model;
* metrics aggregated by ``run_replications`` are bit-identical
  regardless of worker count;
* the DES kernel's self-profile is populated;
* the simulate CLI exports a loadable Chrome trace / JSONL file;
* docs/OBSERVABILITY.md lists every trace kind the code emits.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.metrics import trace_summary
from repro.cli import main
from repro.des import MetricsRegistry, Trace, load_jsonl
from repro.experiments.runner import run_replications
from repro.models.base import CRSimulation
from repro.models.registry import get_model
from repro.workloads.applications import APPLICATIONS


def _traced_run(app, model, weibull, seed=3):
    trace = Trace(env=None)
    metrics = MetricsRegistry()
    sim = CRSimulation(
        app,
        get_model(model),
        weibull=weibull,
        rng=np.random.default_rng(np.random.SeedSequence(seed)),
        trace=trace,
        metrics=metrics,
    )
    out = sim.run()
    return sim, out, trace, metrics


@pytest.mark.parametrize("model", ["B", "M1", "M2", "P1", "P2", "P2-sync"])
class TestSpanAccountingIdentity:
    def test_span_totals_match_overhead(self, model, tiny_app, hot_weibull):
        _, out, trace, _ = _traced_run(tiny_app, model, hot_weibull)
        summary = trace_summary(trace)
        ov = summary["overhead"]
        assert ov["checkpoint"] == pytest.approx(
            out.overhead.checkpoint, abs=1e-6
        )
        assert ov["recovery"] == pytest.approx(
            out.overhead.recovery, abs=1e-6
        )
        assert ov["recomputation"] == pytest.approx(
            out.overhead.recomputation, abs=1e-6
        )

    def test_no_spans_left_open(self, model, tiny_app, hot_weibull):
        _, _, trace, _ = _traced_run(tiny_app, model, hot_weibull)
        assert trace.open_spans() == ()


class TestMetricsConsistency:
    def test_metrics_mirror_overhead_accounting(self, tiny_app, hot_weibull):
        _, out, _, metrics = _traced_run(tiny_app, "P2", hot_weibull)
        snap = metrics.snapshot()["counters"]
        assert snap["overhead.checkpoint_seconds"] == pytest.approx(
            out.overhead.checkpoint
        )
        assert snap["sim.makespan_seconds"] == pytest.approx(out.makespan)
        assert snap["failures.injected"] == out.ft.failures

    def test_kernel_stats_populated(self, tiny_app, hot_weibull):
        sim, out, _, metrics = _traced_run(tiny_app, "P1", hot_weibull)
        env = sim.env
        assert env.events_processed > 0
        assert env.queue_high_water >= 1
        assert env.now == pytest.approx(out.makespan)  # the clock starts at 0
        assert env.wall_seconds > 0
        # deterministic kernel figures also land in the registry
        counters = metrics.snapshot()["counters"]
        assert counters["des.events_processed"] == env.events_processed

    def test_wall_clock_never_enters_registry(self, tiny_app, hot_weibull):
        _, _, _, metrics = _traced_run(tiny_app, "P2", hot_weibull)
        assert not any("wall" in name for name in metrics.names())


class TestAggregationDeterminism:
    def test_merge_identical_for_any_worker_count(self, tiny_app, hot_weibull):
        kwargs = dict(
            replications=8,
            weibull=hot_weibull,
            seed=11,
            collect_metrics=True,
        )
        serial = run_replications(tiny_app, "P2", workers=1, **kwargs)
        parallel = run_replications(tiny_app, "P2", workers=2, **kwargs)
        assert serial.metrics is not None
        assert serial.metrics.snapshot() == parallel.metrics.snapshot()
        assert (
            serial.metrics.counter("sim.replications").value == 8
        )

    def test_metrics_off_by_default(self, tiny_app, warm_weibull):
        result = run_replications(
            tiny_app, "B", replications=2, weibull=warm_weibull, seed=1
        )
        assert result.metrics is None


class TestCLITraceExport:
    def test_trace_flag_writes_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main([
            "--replications", "2", "run", "vulcan", "P1",
            "--trace", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert any(e["ph"] == "M" for e in events)
        assert {e["ph"] for e in events} <= {"M", "i", "B", "E"}
        assert "span totals" in capsys.readouterr().out

    def test_trace_flag_writes_jsonl(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = main([
            "--replications", "2", "run", "vulcan", "P1",
            "--trace", str(out),
        ])
        assert code == 0
        records = load_jsonl(str(out))
        assert records
        assert any(r.kind == "ckpt_bb_write" for r in records)

    def test_metrics_flag_prints_registry(self, capsys):
        code = main([
            "--replications", "2", "run", "vulcan", "P1", "--metrics",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "metrics of P1 VULCAN (merged over 2 replications)" in text
        assert "ckpt.periodic_completed" in text


class TestDocsInSync:
    def test_every_emitted_kind_is_documented(self, capsys):
        tool = (
            Path(__file__).resolve().parent.parent
            / "tools" / "check_schemas.py"
        )
        spec = importlib.util.spec_from_file_location("check_schemas", tool)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.main([]) == 0, capsys.readouterr().err
