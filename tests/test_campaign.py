"""Unit and integration tests for the campaign subsystem.

Covers the ISSUE acceptance properties:

* cache-key stability (same config → same key, in-process and across
  process boundaries) and sensitivity (any field change → new key);
* store round-trips are bit-identical;
* campaign results are bit-identical to ``run_replications`` for
  workers ∈ {1, 2, 4};
* a warm re-run serves every cell from the cache (0 replications
  executed, read off the metrics registry);
* an interrupted campaign keeps its completed cells and resumes from
  the store;
* a crashed shard is retried serially without changing the numbers.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    SCHEMA_VERSION,
    CampaignExecutionError,
    CampaignPlan,
    CampaignProgress,
    CellSpec,
    ResultStore,
    StoreSchemaError,
    content_key,
    result_from_dict,
    result_to_dict,
    run_campaign,
)
from repro.campaign import scheduler as scheduler_mod
from repro.campaign.plan import SchedCellSpec
from repro.des.metrics import MetricsRegistry
from repro.experiments.runner import _run_once, run_replications
from repro.failures.leadtime import PAPER_LEAD_TIME_MODEL
from repro.failures.predictor import DEFAULT_PREDICTOR
from repro.failures.weibull import WeibullParams
from repro.models.registry import get_model
from repro.platform.system import SUMMIT
from repro.sched import aggregate_sched, run_sched_once, trace_workload


@pytest.fixture
def make_cell(tiny_app, hot_weibull):
    """Factory for TINY-app cells with overridable fields."""

    def factory(model="P1", seed=5, replications=6, key=None, **overrides):
        cell = CellSpec(
            key=key or (model, "TINY"),
            app=tiny_app,
            model=get_model(model),
            platform=SUMMIT,
            weibull=hot_weibull,
            lead_model=PAPER_LEAD_TIME_MODEL,
            predictor=DEFAULT_PREDICTOR,
            seed=seed,
            replications=replications,
        )
        return dataclasses.replace(cell, **overrides) if overrides else cell

    return factory


def _key_in_subprocess(cell: CellSpec) -> str:
    """Worker for the cross-process stability test (top level to pickle)."""
    return content_key(cell)


class TestContentKey:
    def test_same_config_same_key(self, make_cell):
        assert content_key(make_cell()) == content_key(make_cell())

    def test_key_ignores_presentation_slot(self, make_cell):
        # The grid key names where the result goes, not what is computed.
        assert content_key(make_cell(key=("P1", "TINY"))) == content_key(
            make_cell(key=("something", "else"))
        )

    def test_stable_across_processes(self, make_cell):
        cell = make_cell()
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            remote = pool.apply(_key_in_subprocess, (cell,))
        assert remote == content_key(cell)

    def test_any_field_change_changes_key(self, make_cell, tiny_app):
        base = content_key(make_cell())
        variants = [
            make_cell(seed=6),
            make_cell(replications=7),
            make_cell(model="P2"),
            make_cell(model="M2-2.5"),
            make_cell(predictor=DEFAULT_PREDICTOR.with_lead_change(-50)),
            make_cell(predictor=DEFAULT_PREDICTOR.with_false_negative_rate(0.4)),
            make_cell(
                weibull=WeibullParams("w", shape=0.7, scale_hours=0.36,
                                      system_nodes=16)
            ),
            make_cell(app=dataclasses.replace(tiny_app, nodes=17)),
            make_cell(platform=dataclasses.replace(SUMMIT, restart_delay=61.0)),
            make_cell(collect_metrics=True),
        ]
        keys = [content_key(v) for v in variants]
        assert len(set(keys + [base])) == len(variants) + 1

    def test_last_ulp_float_change_changes_key(self, make_cell):
        pred = dataclasses.replace(
            DEFAULT_PREDICTOR,
            lead_scale=np.nextafter(DEFAULT_PREDICTOR.lead_scale, 2.0),
        )
        assert content_key(make_cell()) != content_key(
            make_cell(predictor=pred)
        )

    def test_duplicate_configs_rejected(self, make_cell):
        with pytest.raises(ValueError, match="duplicate cell configuration"):
            CampaignPlan([make_cell(), make_cell(key=("other", "slot"))])


class TestPlanShards:
    def test_shards_cover_cells_exactly(self, make_cell):
        plan = CampaignPlan([make_cell(replications=10),
                             make_cell(replications=3, seed=6)])
        units = plan.shards([0, 1], workers=4)
        for i, cell in enumerate(plan.cells):
            mine = sorted(
                (u.rep_start, u.rep_stop) for u in units if u.cell_index == i
            )
            covered = []
            for start, stop in mine:
                assert stop > start
                covered.extend(range(start, stop))
            assert covered == list(range(cell.replications))

    def test_max_shard_cap(self, make_cell):
        plan = CampaignPlan([make_cell(replications=10)])
        units = plan.shards([0], workers=1, max_shard=2)
        assert all(u.replications <= 2 for u in units)


def dense_cells(separate_streams: bool = False):
    """campaign-dense's 24 cells: CHIMERA x B/M1/P1 over 8 FN rates.

    With *separate_streams* every cell gets its own seed, so no two
    share a stream and the plan slices them cell by cell.
    """
    from repro.spec import build_cells, spec_from_dict

    cells = build_cells(spec_from_dict({
        "schema_version": 1, "name": "dense", "apps": ["CHIMERA"],
        "models": ["B", "M1", "P1"], "include_base": False,
        "failures": "lanl-system18",
        "predictor": {"false_positive_rate": 0.0},
        "sweep": {"axis": "fn-rate",
                  "values": [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40]},
        "replications": 32, "seed": 2022,
    }))
    if separate_streams:
        cells = [dataclasses.replace(c, seed=c.seed + i)
                 for i, c in enumerate(cells)]
    return cells


class TestStreamGroupShards:
    def covered(self, plan, units):
        seen = {i: [] for i in range(len(plan.cells))}
        for u in units:
            for i in u.cell_indices:
                seen[i].extend(range(u.rep_start, u.rep_stop))
        return {i: sorted(reps) for i, reps in seen.items()}

    def test_groups_keep_unit_count_and_size(self):
        per_cell_plan = CampaignPlan(dense_cells(separate_streams=True))
        per_cell = per_cell_plan.shards(range(24), workers=2)
        plan = CampaignPlan(dense_cells())
        units = plan.shards(range(24), workers=2)
        assert all(not u.sharing for u in per_cell)
        assert len(per_cell) == 24
        # One failure group: each unit runs all 24 cells, the eight B
        # cells (one per FN rate) as one run.
        assert all(len(u.cell_indices) == 24 for u in units)
        assert all(sum(j == r for j, r in enumerate(u.runs)) == 17
                   for u in units)
        assert len(units) >= len(per_cell)
        assert max(u.replications for u in units) <= \
            max(u.replications for u in per_cell)
        assert self.covered(plan, units) == {
            i: list(range(32)) for i in range(24)}

    @pytest.mark.parametrize("max_shard", [1, 2, 5, 7])
    def test_max_shard_bounds_a_shared_unit(self, max_shard):
        plan = CampaignPlan(dense_cells())
        units = plan.shards(range(24), workers=2, max_shard=max_shard)
        assert all(u.replications <= max_shard for u in units)
        assert self.covered(plan, units) == {
            i: list(range(32)) for i in range(24)}

    def test_group_of_one_is_sliced_as_before(self, make_cell):
        plan = CampaignPlan([make_cell("P1", replications=10),
                             make_cell("P1", replications=3, seed=6)])
        units = plan.shards([0, 1], workers=1)
        assert [(u.cell_index, u.rep_start, u.rep_stop, u.sharing)
                for u in units] == [(0, 0, 4, ()), (0, 4, 8, ()),
                                    (0, 8, 10, ()), (1, 0, 3, ())]


class TestStore:
    def test_roundtrip_bit_identical(self, tmp_path, tiny_app, hot_weibull):
        result = run_replications(tiny_app, "P1", replications=4,
                                  weibull=hot_weibull, seed=3, workers=1,
                                  collect_metrics=True)
        store = ResultStore(tmp_path / "store")
        store.put("ab" + "0" * 62, result)
        back = store.get("ab" + "0" * 62)
        assert back.overhead == result.overhead
        assert back.overhead_std == result.overhead_std
        assert back.makespan_seconds == result.makespan_seconds
        assert back.ft == result.ft
        assert back.oci_initial == result.oci_initial
        assert back.oci_final == result.oci_final
        assert back.metrics.snapshot() == result.metrics.snapshot()
        # And through the plain-dict layer too.
        assert result_to_dict(result_from_dict(result_to_dict(result))) == \
            result_to_dict(result)

    def test_entry_text_is_one_sorted_dumps(self, tmp_path, tiny_app,
                                           hot_weibull):
        result = run_replications(tiny_app, "B", replications=2,
                                  weibull=hot_weibull, seed=1, workers=1)
        key, meta = "cd" + "1" * 62, {"cell": ["B", "tiny"], "seed": 1}
        path = ResultStore(tmp_path / "store").put(key, result, meta=meta)
        assert path.read_text(encoding="utf-8") == json.dumps({
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "meta": meta,
            "result": result_to_dict(result),
        }, sort_keys=True)

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("ff" + "0" * 62) is None
        assert ("ff" + "0" * 62) not in store

    def test_schema_mismatch_rejected(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)
        (root / "schema.json").write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1})
        )
        with pytest.raises(StoreSchemaError):
            ResultStore(root)

    def test_wipe_recovers_stale_schema_store(self, tmp_path, tiny_app,
                                              hot_weibull):
        # wipe is the recovery path the StoreSchemaError message points
        # at, so it must work where ResultStore() refuses to open.
        root = tmp_path / "store"
        result = run_replications(tiny_app, "B", replications=2,
                                  weibull=hot_weibull, seed=1, workers=1)
        ResultStore(root).put("ef" + "2" * 62, result)
        (root / "schema.json").write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1})
        )
        assert ResultStore.wipe(root) == 1
        store = ResultStore(root)  # opens cleanly again
        assert len(store) == 0

    def test_clear_and_stats(self, tmp_path, tiny_app, hot_weibull):
        result = run_replications(tiny_app, "B", replications=2,
                                  weibull=hot_weibull, seed=1, workers=1)
        store = ResultStore(tmp_path / "store")
        store.put("cd" + "1" * 62, result)
        stats = store.stats()
        assert stats["cells"] == 1
        assert stats["replications"] == 2
        assert stats["schema_version"] == SCHEMA_VERSION
        assert store.clear() == 1
        assert len(store) == 0


class TestCampaignParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_run_replications(self, make_cell, tiny_app,
                                               hot_weibull, workers):
        # A batch-queue cell rides in the same plan as the simulation
        # cells: both families share one pool and keep their results.
        sched = SchedCellSpec(
            key=("sched", "easy"),
            workload=trace_workload([{"app": "GYRO", "at": 0.0, "nodes": 16},
                                     {"app": "POP", "at": 0.0, "nodes": 16}],
                                    ("P2",), hours_scale=0.05),
            policy="easy", platform=dataclasses.replace(SUMMIT,
                                                        total_nodes=16),
            weibull=hot_weibull, lead_model=PAPER_LEAD_TIME_MODEL,
            predictor=DEFAULT_PREDICTOR, seed=5, replications=3,
        )
        cells = [make_cell("B"), make_cell("P1"), sched]
        results = run_campaign(cells, workers=workers)
        assert results[sched.key] == aggregate_sched("easy", [
            run_sched_once(sched.workload, "easy", sched.platform,
                           hot_weibull, PAPER_LEAD_TIME_MODEL,
                           DEFAULT_PREDICTOR, child)
            for child in np.random.SeedSequence(5).spawn(3)
        ])
        for model in ("B", "P1"):
            direct = run_replications(tiny_app, model, replications=6,
                                      weibull=hot_weibull, seed=5, workers=1)
            got = results[(model, "TINY")]
            assert got.overhead == direct.overhead
            assert got.overhead_std == direct.overhead_std
            assert got.makespan_seconds == direct.makespan_seconds
            assert got.ft == direct.ft
            assert got.oci_initial == direct.oci_initial
            assert got.oci_final == direct.oci_final
        # Replication k of a cell is child k of SeedSequence(seed), and
        # two replications of one cell differ.
        cell = cells[1]
        shard = scheduler_mod._run_shard(cell, 0, 2)
        for k, got in enumerate(shard):
            ref = _run_once(cell.app, cell.model, cell.platform, cell.weibull,
                            cell.lead_model, cell.predictor,
                            np.random.SeedSequence(entropy=5, spawn_key=(k,)))
            assert (got.makespan, got.overhead, got.ft) == (
                ref.makespan, ref.overhead, ref.ft)
        assert shard[0].makespan != shard[1].makespan


class TestCampaignCache:
    def test_warm_run_executes_nothing(self, make_cell, tmp_path):
        cells = [make_cell("B"), make_cell("P1")]
        store = ResultStore(tmp_path / "store")
        cold = CampaignProgress()
        first = run_campaign(cells, store=store, workers=1, progress=cold)
        assert cold.metrics.counter("campaign.replications.executed").value == 12
        warm = CampaignProgress()
        second = run_campaign(cells, store=store, workers=1, progress=warm)
        assert warm.metrics.counter("campaign.replications.executed").value == 0
        assert warm.metrics.counter("campaign.cells.cached").value == 2
        for key in first:
            assert second[key].overhead == first[key].overhead
            assert second[key].overhead_std == first[key].overhead_std

    def test_campaign_never_scans_the_store(self, make_cell, tmp_path,
                                            monkeypatch):
        """Cache lookups are per key; nothing globs every store entry.

        A truthiness test on the store calls ``ResultStore.__len__``,
        which scans the whole store, once per cell.
        """
        store = ResultStore(tmp_path / "store")
        run_campaign([make_cell("B")], store=store, workers=1)
        scans = []
        real_scan = ResultStore._scan

        def counting_scan(root, pattern):
            scans.append(pattern)
            return real_scan(root, pattern)

        monkeypatch.setattr(ResultStore, "_scan", staticmethod(counting_scan))
        warm = CampaignProgress()
        run_campaign([make_cell("B"), make_cell("P1")], store=store,
                     workers=1, progress=warm)
        assert warm.metrics.counter("campaign.cells.cached").value == 1
        assert warm.metrics.counter(
            "campaign.replications.executed"
        ).value == 6
        assert scans == []

    def test_no_resume_recomputes(self, make_cell, tmp_path):
        cells = [make_cell("B")]
        store = ResultStore(tmp_path / "store")
        run_campaign(cells, store=store, workers=1)
        fresh = CampaignProgress()
        run_campaign(cells, store=store, workers=1, resume=False,
                     progress=fresh)
        assert fresh.metrics.counter(
            "campaign.replications.executed"
        ).value == 6


class TestResumeAfterInterrupt:
    def test_completed_cells_survive_a_crash(self, make_cell, tmp_path,
                                             monkeypatch, tiny_app,
                                             hot_weibull):
        cells = [make_cell("B"), make_cell("P1"), make_cell("M1")]
        store = ResultStore(tmp_path / "store")

        real_run_once = scheduler_mod._run_once

        def dies_on_p1(app, config, *args, **kwargs):
            if config.name == "P1":
                raise OSError("worker lost")
            return real_run_once(app, config, *args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "_run_once", dies_on_p1)
        with pytest.raises(CampaignExecutionError, match=r"replication \d+"):
            run_campaign(cells, store=store, workers=1)
        # The cell that completed before the crash is persisted.
        assert len(store) >= 1
        monkeypatch.setattr(scheduler_mod, "_run_once", real_run_once)

        resumed = CampaignProgress()
        results = run_campaign(cells, store=store, workers=1,
                               progress=resumed)
        executed = resumed.metrics.counter(
            "campaign.replications.executed"
        ).value
        cached = resumed.metrics.counter("campaign.replications.cached").value
        assert executed + cached == 18
        assert executed < 18  # resumed, not recomputed from scratch
        # And the resumed campaign is still bit-identical end to end.
        for model in ("B", "P1", "M1"):
            direct = run_replications(tiny_app, model, replications=6,
                                      weibull=hot_weibull, seed=5, workers=1)
            assert results[(model, "TINY")].overhead == direct.overhead


class TestShardRetry:
    def test_transient_crash_retried_serially(self, make_cell, monkeypatch,
                                              tiny_app, hot_weibull):
        real_run_once = scheduler_mod._run_once
        failed = []

        def fails_once(app, config, platform, weibull, lead_model, predictor,
                       seed_seq, collect_metrics=False):
            if config.name == "P1" and not failed:
                failed.append(seed_seq.spawn_key)
                raise OSError("transient worker death")
            return real_run_once(app, config, platform, weibull, lead_model,
                                 predictor, seed_seq, collect_metrics)

        monkeypatch.setattr(scheduler_mod, "_run_once", fails_once)
        progress = CampaignProgress()
        results = run_campaign([make_cell("P1")], workers=1,
                               progress=progress)
        assert failed, "the injected fault never fired"
        assert progress.metrics.counter("campaign.shards.retried").value == 1
        direct = run_replications(tiny_app, "P1", replications=6,
                                  weibull=hot_weibull, seed=5, workers=1)
        got = results[("P1", "TINY")]
        assert got.overhead == direct.overhead
        assert got.ft == direct.ft

    def test_pool_worker_crash_retried_serially(self, make_cell, monkeypatch,
                                                tiny_app, hot_weibull):
        """A shard that dies inside a *pool worker* is retried serially in
        the parent and the campaign result stays bit-identical."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork so pool workers inherit the patch")
        real_run_once = scheduler_mod._run_once
        parent_pid = os.getpid()

        def dies_in_workers(app, config, platform, weibull, lead_model,
                            predictor, seed_seq, collect_metrics=False):
            # Forked pool workers inherit this patched module global; only
            # the parent (serial-retry path) may actually run replications.
            if os.getpid() != parent_pid:
                raise OSError("simulated worker death")
            return real_run_once(app, config, platform, weibull, lead_model,
                                 predictor, seed_seq, collect_metrics)

        monkeypatch.setattr(scheduler_mod, "_run_once", dies_in_workers)
        progress = CampaignProgress()
        results = run_campaign([make_cell("P1")], workers=2,
                               progress=progress)
        retried = progress.metrics.counter("campaign.shards.retried").value
        assert retried >= 1, "no shard ever hit the retry path"
        direct = run_replications(tiny_app, "P1", replications=6,
                                  weibull=hot_weibull, seed=5, workers=1)
        got = results[("P1", "TINY")]
        assert got.overhead == direct.overhead
        assert got.overhead_std == direct.overhead_std
        assert got.makespan_seconds == direct.makespan_seconds
        assert got.ft == direct.ft
        assert got.oci_initial == direct.oci_initial
        assert got.oci_final == direct.oci_final


class TestCheckStoreSchemaTool:
    def test_tool_accepts_fresh_store(self, make_cell, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign([make_cell("B", replications=1)], store=store, workers=1)
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "check_schemas.py"),
             "--store", str(tmp_path / "store")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_tool_rejects_stale_store(self, tmp_path):
        root_dir = tmp_path / "store"
        ResultStore(root_dir)
        (root_dir / "schema.json").write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 99})
        )
        repo = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(repo / "tools" / "check_schemas.py"),
             "--store", str(root_dir)],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert f"schema_version is {SCHEMA_VERSION + 99}" in proc.stderr
