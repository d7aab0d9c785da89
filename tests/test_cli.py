"""Unit tests for the pckpt command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLE_SPECS = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "specs")
    .glob("*.json")
)


def _table_rows(out: str) -> list:
    """The body rows of the first table in *out* (dashes to blank line)."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line and set(line) <= {"-", " "}) + 1
    end = next((i for i in range(start, len(lines)) if not lines[i]),
               len(lines))
    return lines[start:end]


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["run", "POP", "P2"],
            ["experiment", "fig2a"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--replications", "7", "--seed", "3", "list"]
        )
        assert args.replications == 7
        assert args.seed == 3

    @pytest.mark.parametrize("argv, seed, replications", [
        (["--seed", "5", "--replications", "9", "sched", "run"], 5, 9),
        (["sched", "run", "--seed", "5"], 5, 3),
        (["--seed", "5", "sched", "run", "--replications", "4"], 5, 4),
        (["sched", "run"], 0, 3),
        (["--seed", "5", "sched", "gantt"], 5, None),
        (["sched", "gantt"], 0, None),
        (["--seed", "5", "validate"], 5, None),
        (["validate"], 0, None),
    ])
    def test_global_scale_reaches_commands_with_their_own(
            self, monkeypatch, argv, seed, replications):
        """A global ``--seed``/``--replications`` is not overwritten by a
        command's own default; absent both, the command's default holds."""
        import repro.cli as cli

        seen = []
        monkeypatch.setattr(cli, "_cmd_sched", seen.append)
        monkeypatch.setattr(cli, "_cmd_validate", seen.append)
        main(argv)
        assert seen[0].seed == seed
        if replications is not None:
            assert seen[0].replications == replications

    def test_closed_pipe_prints_no_traceback(self):
        """``pckpt ... | head`` whose reader is gone: exit 1, no traceback."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                        env.get("PYTHONPATH")) if p)
        read, write = os.pipe()
        os.close(read)  # the reader closes before the first line
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "timeline", "XGC", "P2",
                 "--distribution", "lanl-system18"],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                timeout=300)
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == 1


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CHIMERA" in out
        assert "P2" in out
        assert "titan" in out

    def test_simulate_small(self, capsys):
        code = main(["--replications", "2", "run", "vulcan", "P1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VULCAN" in out
        # Every figure of the cell: overhead split, pooled failures and
        # mitigations, initial OCI.
        for column in ("total_overhead_h", "checkpoint_h", "recomputation_h",
                       "recovery_h", "makespan_h", "ft_ratio", "failures",
                       "by_lm", "by_pckpt", "by_safeguard", "oci_s"):
            assert column in out, column
        assert len(_table_rows(out)) == 1

    def test_simulate_unknown_app(self, capsys):
        assert main(["run", "NOPE", "P1"]) == 2

    def test_experiment_fig2b(self, capsys):
        assert main(["experiment", "fig2b"]) == 0
        assert "optimal writer tasks" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "figZZ"]) == 2

    def test_experiment_eq_analysis_free(self, capsys):
        # fig2a/2b/2c run without any simulation and stay fast.
        assert main(["experiment", "fig2a"]) == 0
        out = capsys.readouterr().out
        assert "lead-time distribution" in out

    def test_experiment_export_flags(self, capsys, tmp_path):
        import json

        jpath = tmp_path / "fig2b.json"
        cpath = tmp_path / "fig2b.csv"
        assert main(["experiment", "fig2b", "--json", str(jpath),
                     "--csv", str(cpath)]) == 0
        rows = json.loads(jpath.read_text())
        assert len(rows) == 80  # 8 task counts x 10 sizes
        assert "bandwidth_bps" in rows[0]
        assert cpath.read_text().startswith("tasks,")


class TestObservabilityCommands:
    def test_timeline_with_jsonl_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "timelines.jsonl"
        code = main(["timeline", "XGC", "P2", "--limit", "2",
                     "--jsonl", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "prov" in out
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines
        assert json.loads(lines[0])["kind"] == "pckpt-timeline"

    def test_top_without_telemetry(self, capsys, tmp_path):
        assert main(["top", "--store", str(tmp_path), "--once"]) == 0
        assert "no telemetry" in capsys.readouterr().out
        # openmetrics has nothing to scrape -> error exit
        assert main(["top", "--store", str(tmp_path),
                     "--openmetrics"]) == 2

    def test_top_reads_latest_snapshot(self, capsys, tmp_path):
        from repro.campaign import CampaignProgress, ResultStore
        from repro.obs.telemetry import CampaignTelemetry

        store = ResultStore(tmp_path / "store")
        progress = CampaignProgress(
            stream=None,
            telemetry=CampaignTelemetry(store.telemetry_path()),
        )
        progress.campaign_begin(1, 4)
        progress.campaign_end()

        assert main(["top", "--store", str(store.root), "--once"]) == 0
        out = capsys.readouterr().out
        assert "pckpt campaign [done]" in out
        assert main(["top", "--store", str(store.root),
                     "--openmetrics"]) == 0
        out = capsys.readouterr().out
        assert "pckpt_campaign_cells_total 1" in out
        assert out.endswith("# EOF\n")

    def test_campaign_status_shows_telemetry_block(self, capsys, tmp_path):
        from repro.campaign import CampaignProgress, ResultStore
        from repro.obs.telemetry import CampaignTelemetry

        store = ResultStore(tmp_path / "store")
        progress = CampaignProgress(
            stream=None,
            telemetry=CampaignTelemetry(store.telemetry_path()),
        )
        progress.campaign_begin(2, 12)
        progress.campaign_end()

        assert main(["campaign", "status", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "latest telemetry" in out
        assert "cache hit rate" in out
        assert "eta (s)" in out
        assert "state" in out

    @pytest.mark.parametrize("action", ["status", "clear"])
    def test_campaign_status_on_missing_store(self, capsys, tmp_path,
                                              action):
        missing = tmp_path / "typo"
        assert main(["campaign", action, "--store", str(missing)]) == 2
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists()

    def test_timeline_input_names_jsonl_format(self, capsys, tmp_path):
        chrome = tmp_path / "trace.json"
        assert main(["--replications", "1", "run", "XGC", "P2",
                     "--trace", str(chrome)]) == 0
        capsys.readouterr()
        assert main(["timeline", "--input", str(chrome)]) == 2
        err = capsys.readouterr().err
        assert "--input takes the .jsonl export" in err

    def test_timeline_input_matches_fresh_replication(self, capsys,
                                                      tmp_path):
        trace = tmp_path / "trace.jsonl"
        common = ["--distribution", "lanl-system18"]
        assert main(["--replications", "2", "--seed", "5", "run", "XGC",
                     "P2", "--trace", str(trace), *common]) == 0
        read, fresh = tmp_path / "read.jsonl", tmp_path / "fresh.jsonl"
        assert main(["timeline", "--input", str(trace),
                     "--jsonl", str(read)]) == 0
        assert main(["--seed", "5", "timeline", "XGC", "P2", *common,
                     "--jsonl", str(fresh)]) == 0
        assert read.read_text() == fresh.read_text()
        assert read.read_text()  # some chains, not two empty files

    def test_campaign_status_without_telemetry_still_works(self, capsys,
                                                           tmp_path):
        from repro.campaign import ResultStore

        store = ResultStore(tmp_path / "store")
        assert main(["campaign", "status", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "campaign store" in out
        assert "latest telemetry" not in out


class TestRunCommand:
    """``pckpt run``: the one command that runs an experiment."""

    @pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda p: p.name)
    def test_every_example_spec_runs_quick(self, capsys, path):
        from repro.spec import build_cells, load_spec

        assert main(["run", "--spec", str(path), "--quick",
                     "--jobs", "1"]) == 0
        rows = _table_rows(capsys.readouterr().out)
        assert len(rows) == len(build_cells(load_spec(str(path))))

    def test_example_specs_are_found(self):
        assert len(EXAMPLE_SPECS) >= 5

    @pytest.mark.parametrize("flag", [["--metrics"], ["--trace", "x.json"]])
    def test_app_model_flags_refused_with_spec(self, capsys, flag):
        spec = str(EXAMPLE_SPECS[0])
        assert main(["run", "--spec", spec, *flag]) == 2
        assert "go with APP MODEL" in capsys.readouterr().err

    def test_metrics_sets_collect_metrics(self, capsys):
        assert main(["run", "XGC", "P2", "--metrics", "--dump-spec"]) == 0
        assert json.loads(capsys.readouterr().out)["collect_metrics"] is True


class TestServiceParser:
    def test_service_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["serve", "--store", "s"],
            ["submit", "--spec", "spec.json"],
            ["jobs"],
            ["watch", "j00001-abcd1234"],
            ["shutdown"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--store", "s", "--jobs", "4", "--port", "9999",
             "--queue-limit", "8", "--retry-after", "1.5",
             "--tokens", "tok.json"]
        )
        assert args.jobs == 4
        assert args.port == 9999
        assert args.queue_limit == 8
        assert args.retry_after == 1.5
        assert args.tokens == "tok.json"

    def test_submit_flags(self):
        args = build_parser().parse_args(
            ["submit", "--spec", "s.json", "--token", "alice",
             "--quick", "--wait", "--retries", "3", "--json"]
        )
        assert args.token == "alice"
        assert args.quick and args.wait and args.json
        assert args.retries == 3
        assert args.port == 8787  # shared client default

    def test_campaign_status_json_flag(self):
        args = build_parser().parse_args(
            ["campaign", "status", "--store", "s", "--json"]
        )
        assert args.json is True

    def test_top_job_flag(self):
        args = build_parser().parse_args(
            ["top", "--store", "s", "--job", "j00001-abcd1234"]
        )
        assert args.job == "j00001-abcd1234"


class TestCampaignStatusJSON:
    def test_json_output_is_status_payload(self, capsys, tmp_path):
        import json

        from repro.campaign import ResultStore, status_payload

        store = ResultStore(tmp_path / "store")
        assert main(["campaign", "status", "--store", str(store.root),
                     "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        # Exactly the shared shape the service's /v1/status embeds.
        assert payload == status_payload(store)
        assert payload["store"]["cells"] == 0
        assert payload["telemetry"] is None


class TestTelemetryPathResolution:
    """Which telemetry ``pckpt top --store`` shows (``_latest_telemetry``)."""

    @staticmethod
    def _journal_telemetry(store, *jobs):
        """One telemetry event per job id in *jobs*, journaled in order."""
        segment = store / "service" / "journal" / f"{0:020d}.ndjson"
        segment.parent.mkdir(parents=True)
        segment.write_text("".join(json.dumps({
            "kind": "pckpt-job-event", "job_id": job, "event": "telemetry",
            "data": {"kind": "pckpt-telemetry", "seq": n}}) + "\n"
            for n, job in enumerate(jobs)))
        return str(segment.parent)

    def test_local_store_uses_direct_feed(self, tmp_path):
        from repro.cli import _latest_telemetry

        direct = tmp_path / "telemetry.jsonl"
        direct.write_text('{"seq": 3}\n')
        assert _latest_telemetry(str(tmp_path)) == ({"seq": 3}, str(direct))

    def test_service_store_falls_back_to_newest_job_feed(self, tmp_path):
        from repro.cli import _latest_telemetry

        where = self._journal_telemetry(tmp_path, "j00001-aaaaaaaa",
                                        "j00002-bbbbbbbb")
        snapshot, path = _latest_telemetry(str(tmp_path))
        assert (snapshot["seq"], path) == (1, where)

    def test_explicit_job_wins(self, tmp_path):
        from repro.cli import _latest_telemetry

        self._journal_telemetry(tmp_path, "j00009-ffffffff",
                                "j00010-aaaaaaaa")
        snapshot, _ = _latest_telemetry(str(tmp_path), job="j00009-ffffffff")
        assert snapshot["seq"] == 0

    def test_empty_store_returns_direct_path(self, tmp_path):
        from repro.cli import _latest_telemetry

        assert _latest_telemetry(str(tmp_path)) == (
            None, str(tmp_path / "telemetry.jsonl"))


class TestServiceCommands:
    """End-to-end CLI loop against an in-process service."""

    def test_submit_wait_jobs_watch_shutdown(self, capsys, tmp_path):
        import json

        from repro.service import ServiceThread

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "schema_version": 1,
            "name": "cli-service-test",
            "apps": ["XGC"],
            "models": ["P2"],
            "include_base": False,
            "replications": 1,
            "seed": 7001,
        }))
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            port = str(svc.port)
            assert main(["submit", "--spec", str(spec_file),
                         "--port", port, "--token", "alice",
                         "--wait", "--json"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["state"] == "done"
            assert record["replications_executed"] == 1

            # Warm re-submit through the CLI executes nothing.
            assert main(["submit", "--spec", str(spec_file),
                         "--port", port, "--wait", "--json"]) == 0
            warm = json.loads(capsys.readouterr().out)
            assert warm["replications_executed"] == 0

            assert main(["jobs", "--port", port]) == 0
            out = capsys.readouterr().out
            assert record["id"] in out and warm["id"] in out

            assert main(["watch", record["id"], "--port", port]) == 0
            events = [json.loads(line)
                      for line in capsys.readouterr().out.splitlines()]
            assert events[0]["event"] == "queued"
            assert events[-1]["event"] == "done"

            assert main(["shutdown", "--port", port]) == 0
            assert "draining" in capsys.readouterr().out

    def test_submit_invalid_spec_prints_problems(self, capsys, tmp_path):
        import json

        from repro.service import ServiceThread

        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps({
            "schema_version": 1, "models": ["NOPE"], "replications": -1,
        }))
        with ServiceThread(tmp_path / "store", jobs=1) as svc:
            assert main(["submit", "--spec", str(bad_file),
                         "--port", str(svc.port)]) == 2
        err = capsys.readouterr().err
        # The CLI reuses the local loader, so rejection happens client-
        # side with the same collected problems `pckpt run --spec`
        # would print (the server-side 400 path is covered in
        # tests/test_service.py).
        assert "invalid experiment spec" in err
        assert "NOPE" in err
        assert "replications" in err

    def test_submit_without_server_fails_cleanly(self, capsys, tmp_path):
        import json

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "schema_version": 1, "apps": ["XGC"], "models": ["P2"],
        }))
        # Port 1 is never listening.
        assert main(["submit", "--spec", str(spec_file),
                     "--port", "1"]) == 2
        err = capsys.readouterr().err
        assert "pckpt serve" in err


class TestSchedCli:
    def test_sched_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["sched", "run", "--quick"],
            ["sched", "run", "--policy", "fair", "--njobs", "4"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_sched_run_quick_json_is_valid_payload(self, capsys):
        import json

        from repro.sched.bench import validate_sched_payload

        assert main(["sched", "run", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_sched_payload(payload) == []
        assert payload["quick"] is True
        assert payload["replications"] == 1

    def test_sched_run_spec_with_store_caches(self, capsys, tmp_path):
        import json

        spec_file = tmp_path / "sched.json"
        spec_file.write_text(json.dumps({
            "schema_version": 1,
            "apps": ["GYRO", "VULCAN"],
            "models": ["B", "P2"],
            "platform": {"base": "summit", "total_nodes": 192},
            "replications": 2,
            "seed": 5,
            "sched": {"policy": "easy", "jobs": 4, "hours_scale": 0.02},
        }))
        store = tmp_path / "store"
        assert main(["run", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        cold = capsys.readouterr().out
        assert "easy" in cold
        # Warm re-run is served entirely from the store.
        assert main(["run", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert "1 cells cached, 0 replications executed" in captured.err
        assert main(["campaign", "status", "--store", str(store)]) == 0
        status = capsys.readouterr().out
        assert "cells" in status


class TestObsCli:
    def test_new_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["sched", "gantt", "--quick"],
            ["obs", "stitch", "--store", "s", "--trace-id", "feedc0de"],
            ["obs", "slo", "--store", "s"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_new_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sched", "gantt", "--policy", "fair", "--njobs", "4",
             "--seed", "7", "--chrome", "out.json", "--json"]
        )
        assert (args.policy, args.njobs, args.seed) == ("fair", 4, 7)
        assert args.chrome == "out.json" and args.json
        args = parser.parse_args(
            ["obs", "slo", "--store", "s", "--window", "60",
             "--latency-p99", "300", "--error-rate", "0.01",
             "--openmetrics"]
        )
        assert args.window == 60.0
        assert args.latency_p99 == 300.0 and args.error_rate == 0.01
        args = parser.parse_args(["top", "--store", "s", "--timeout", "2"])
        assert args.timeout == 2.0
        args = parser.parse_args(
            ["serve", "--store", "s", "--slo-latency-p99", "300",
             "--slo-error-rate", "0.01", "--slo-window", "120"]
        )
        assert args.slo_latency_p99 == 300.0
        assert args.slo_window == 120.0
        args = parser.parse_args(
            ["submit", "--spec", "s.json", "--trace-id", "feedc0de"]
        )
        assert args.trace_id == "feedc0de"

    def test_top_timeout_gives_friendly_error(self, capsys, tmp_path):
        assert main(["top", "--store", str(tmp_path / "nope"),
                     "--timeout", "0.3", "--interval", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "no telemetry" in err
        assert "0.3s" in err

    def test_sched_gantt_json_and_chrome(self, capsys, tmp_path):
        import json

        assert main(["sched", "gantt", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "pckpt-gantt"
        assert payload["jobs"] == 8  # --quick caps the workload
        chrome = tmp_path / "gantt-trace.json"
        assert main(["sched", "gantt", "--quick",
                     "--chrome", str(chrome)]) == 0
        assert "traceEvents" in json.loads(chrome.read_text())

    def test_obs_slo_from_store(self, capsys, tmp_path):
        import json

        d = tmp_path / "service" / "journal"
        d.mkdir(parents=True)
        d.joinpath(f"{0:020d}.ndjson").write_text(json.dumps({
            "kind": "pckpt-job", "id": "j00001-aaaaaaaa",
            "tenant": "acme", "state": "done", "submitted_at": 100.0,
            "started_at": 101.0, "finished_at": 111.0,
            "cache_hit_rate": 1.0,
        }) + "\n")
        assert main(["obs", "slo", "--store", str(tmp_path)]) == 0
        assert "acme" in capsys.readouterr().out
        assert main(["obs", "slo", "--store", str(tmp_path),
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["tenant"] == "acme"
        assert main(["obs", "slo", "--store", str(tmp_path),
                     "--openmetrics"]) == 0
        text = capsys.readouterr().out
        assert 'pckpt_tenant_jobs{tenant="acme",state="done"} 1' in text
        assert text.rstrip().endswith("# EOF")

    def test_obs_slo_empty_store(self, capsys, tmp_path):
        assert main(["obs", "slo", "--store", str(tmp_path)]) == 0
        assert "no job records" in capsys.readouterr().out

    def test_obs_stitch_roundtrip(self, capsys, tmp_path):
        import json

        from repro.obs.context import SpanWriter, trace_fragment_dir

        trace_id = "feedc0de11223344"
        frag = trace_fragment_dir(tmp_path, trace_id)
        with SpanWriter(frag / "svc.jsonl", trace_id, "service") as w:
            w.span("request", 100.0, 110.0)
        out = tmp_path / "stitched.json"
        assert main(["obs", "stitch", "--store", str(tmp_path),
                     "--trace-id", trace_id, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["otherData"]["trace_id"] == trace_id
        names = [e.get("name") for e in payload["traceEvents"]]
        assert "request" in names
        # without --trace-id the newest trace is picked up
        out2 = tmp_path / "stitched2.json"
        assert main(["obs", "stitch", "--store", str(tmp_path),
                     "--out", str(out2)]) == 0
        assert out2.exists()

    def test_obs_stitch_errors(self, capsys, tmp_path):
        assert main(["obs", "stitch", "--store", str(tmp_path)]) == 2
        assert main(["obs", "stitch", "--store", str(tmp_path),
                     "--job", "j-missing"]) == 2
