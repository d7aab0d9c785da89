"""Batch-queue workload layer (``repro.sched``): units + determinism.

Covers the node pool, the three placement policies, workload synthesis,
the engine's scheduling invariants on a contended machine, the
determinism regression the campaign layer relies on (bit-identical
results across worker counts and kernel backends), the baseline
artifact schema, and the spec/campaign/store wiring for sched cells.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.young import sigma_adjusted_oci
from repro.cr.oci import SIGMA_MAX, OCIController
from repro.failures.injector import FailureInjector
from repro.failures.leadtime import (
    PAPER_LEAD_TIME_MODEL,
    FailureSequenceSpec,
    LeadTimeModel,
)
from repro.failures.predictor import DEFAULT_PREDICTOR
from repro.failures.weibull import WeibullParams
from repro.platform.system import SUMMIT
from repro.sched import (
    EasyBackfillPolicy,
    FairSharePolicy,
    FCFSPolicy,
    PendingJob,
    RunningJob,
    SchedJob,
    aggregate_sched,
    make_policy,
    poisson_workload,
    run_sched_once,
    trace_workload,
)
from repro.sched.bench import (
    result_payload,
    run_baseline,
    validate_sched_payload,
)
from repro.models.registry import get_model
from repro.sched.engine import SchedSimulation, _NodePool
from repro.workloads.applications import APPLICATIONS

SMALL = dataclasses.replace(SUMMIT, total_nodes=192)
HOT = WeibullParams("sched-test", shape=0.7, scale_hours=40.0,
                    system_nodes=192)


def _pending(jid, nodes, estimate=1000.0, arrival=0.0, user="u0"):
    job = SchedJob(id=jid, app="GYRO", model="B", user=user,
                   arrival=arrival, nodes=nodes, compute_seconds=estimate)
    return PendingJob(job, estimate)


def _run(policy, n_jobs=12, seed=0, **kwargs):
    workload = poisson_workload(
        ("GYRO", "POP", "VULCAN"), ("B", "M2", "P2"), n_jobs, seed=seed,
        interarrival_seconds=600.0, hours_scale=0.02, max_nodes=192,
    )
    return run_sched_once(
        workload, policy, SMALL, HOT, PAPER_LEAD_TIME_MODEL,
        DEFAULT_PREDICTOR, np.random.SeedSequence(seed), **kwargs
    )


class TestNodePool:
    def test_take_hands_out_lowest_numbered_nodes(self):
        pool = _NodePool(16)
        assert pool.take(4) == ((0, 4),)
        assert pool.take(4) == ((4, 8),)
        assert pool.free == 8

    def test_release_coalesces_fragments(self):
        pool = _NodePool(16)
        a = pool.take(4)
        b = pool.take(4)
        pool.release(a)
        pool.release(b)
        assert pool.free == 16
        assert pool.take(16) == ((0, 16),)

    def test_fragmented_take_spans_intervals(self):
        pool = _NodePool(12)
        a = pool.take(4)      # [0,4)
        pool.take(4)          # [4,8)
        pool.release(a)       # free: [0,4) + [8,12)
        assert pool.take(6) == ((0, 4), (8, 10))

    def test_overdraw_raises(self):
        pool = _NodePool(4)
        with pytest.raises(RuntimeError):
            pool.take(5)


class TestPolicies:
    def test_fcfs_head_blocks(self):
        p = FCFSPolicy()
        p.admit(_pending(0, 8))
        p.admit(_pending(1, 2))
        # Head needs 8, only 4 free: nothing starts, not even the 2-wide.
        assert p.select(4, [], 0.0) == []
        assert len(p) == 2

    def test_easy_backfills_behind_blocked_head(self):
        p = EasyBackfillPolicy()
        p.admit(_pending(0, 8, estimate=100.0))
        p.admit(_pending(1, 2, estimate=10.0))
        running = [RunningJob(nodes=8, estimated_end=50.0)]
        started = p.select(4, running, 0.0)
        # The narrow job ends (t=10) before the head's shadow time
        # (t=50), so it backfills; the head stays queued.
        assert [pj.job.id for pj in started] == [1]
        assert [pj.job.id for pj in p.waiting] == [0]

    def test_easy_refuses_backfill_that_would_delay_head(self):
        p = EasyBackfillPolicy()
        p.admit(_pending(0, 8, estimate=100.0))
        p.admit(_pending(1, 4, estimate=200.0))
        running = [RunningJob(nodes=8, estimated_end=50.0)]
        # Candidate runs past the shadow time and needs all 4 free nodes
        # while the head will need 8 of the 12 available then: extra is
        # 12 - 8 = 4... it fits the extra, so it may backfill.
        assert [pj.job.id for pj in p.select(4, running, 0.0)] == [1]
        # But a 5-wide candidate (only 4 free) cannot, and a long
        # 4-wide one cannot either once the extra shrinks to 3.
        p2 = EasyBackfillPolicy()
        p2.admit(_pending(0, 9, estimate=100.0))
        p2.admit(_pending(1, 4, estimate=200.0))
        assert p2.select(4, running, 0.0) == []

    def test_fair_share_interleaves_tenants(self):
        p = FairSharePolicy()
        p.admit(_pending(0, 1, user="A"))
        p.admit(_pending(1, 1, user="A"))
        p.admit(_pending(2, 1, user="B"))
        started = p.select(3, [], 0.0)
        assert [pj.job.user for pj in started] == ["A", "B", "A"]

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_policy("sjf")


class TestWorkload:
    def test_poisson_deterministic_in_seed(self):
        a = poisson_workload((), ("B",), 8, seed=3)
        b = poisson_workload((), ("B",), 8, seed=3)
        c = poisson_workload((), ("B",), 8, seed=4)
        assert a == b
        assert a != c

    def test_poisson_caps_nodes_and_cycles_models(self):
        jobs = poisson_workload((), ("B", "P2"), 6, seed=0, max_nodes=64)
        assert all(j.nodes <= 64 for j in jobs)
        assert [j.model for j in jobs] == ["B", "P2"] * 3

    def test_trace_workload_overrides(self):
        jobs = trace_workload(
            [{"app": "gyro", "at": 5.0, "nodes": 3, "user": "x"},
             {"app": "POP", "at": 9.0}],
            ("M1",), hours_scale=0.5,
        )
        assert jobs[0].app == "GYRO" and jobs[0].nodes == 3
        assert jobs[0].user == "x" and jobs[0].arrival == 5.0
        assert jobs[1].nodes == 126  # Table-I width
        assert jobs[1].compute_seconds == 480.0 * 3600.0 * 0.5


class TestEngine:
    def test_contended_run_satisfies_invariants(self):
        out = _run("fcfs")
        assert out.starved == ()
        assert 0.0 < out.utilization <= 1.0
        busy = sum(r.job.nodes * r.run_seconds for r in out.records)
        assert busy <= 192 * out.makespan_seconds * (1 + 1e-9)
        for r in out.records:
            assert r.start is not None and r.end is not None
            assert r.start >= r.job.arrival
            assert sum(hi - lo for lo, hi in r.intervals) == r.job.nodes

    def test_backfill_improves_on_fcfs(self):
        fcfs = _run("fcfs", n_jobs=16)
        easy = _run("easy", n_jobs=16)
        # EASY never loses to FCFS on makespan for this contended mix
        # (it starts strictly earlier whenever it deviates at all).
        assert easy.makespan_seconds <= fcfs.makespan_seconds
        waits_f = sum(r.wait_seconds for r in fcfs.records)
        waits_e = sum(r.wait_seconds for r in easy.records)
        assert waits_e <= waits_f

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            run_sched_once((), "fcfs", SMALL, HOT, PAPER_LEAD_TIME_MODEL,
                           DEFAULT_PREDICTOR, np.random.SeedSequence(0))

    def test_oversized_job_rejected(self):
        jobs = trace_workload([{"app": "GYRO", "at": 0.0, "nodes": 500}],
                              ("B",))
        with pytest.raises(ValueError):
            run_sched_once(jobs, "fcfs", SMALL, HOT, PAPER_LEAD_TIME_MODEL,
                           DEFAULT_PREDICTOR, np.random.SeedSequence(0))

    def test_aggregate_pools_replications_in_order(self):
        workload_out = [
            run_sched_once(
                poisson_workload(("GYRO",), ("P2",), 4, seed=0,
                                 hours_scale=0.02, max_nodes=192),
                "easy", SMALL, HOT, PAPER_LEAD_TIME_MODEL,
                DEFAULT_PREDICTOR,
                np.random.SeedSequence(entropy=0, spawn_key=(k,)),
            )
            for k in range(3)
        ]
        result = aggregate_sched("easy", workload_out)
        assert result.replications == 3
        assert result.jobs == 4
        assert len(result.per_job) == 4
        assert result.ft.failures == sum(
            r.ft.failures for out in workload_out for r in out.records
        )

    def test_sigma_oci_clamps_sigma_like_the_controller(self):
        """recall 1 and θ near 0 give σ = 1: both σ-OCIs clamp it alike.

        P2-fn is the model whose σ uses the predictor's actual recall."""
        lead = LeadTimeModel([FailureSequenceSpec(1, 1, mean_lead=1e6,
                                                  sd_lead=1.0)])
        predictor = dataclasses.replace(DEFAULT_PREDICTOR, recall=1.0)
        theta = 1e-6
        assert float(lead.survival(theta)) == 1.0
        jobs = trace_workload([{"app": "GYRO", "at": 0.0, "nodes": 64}],
                              ("P2-fn",))
        sim = SchedSimulation(jobs, platform=SMALL, weibull=HOT,
                              lead_model=lead, predictor=predictor)
        oci = sim._job_oci(get_model("P2-fn"), 60.0, theta, 64)
        assert oci == sigma_adjusted_oci(60.0, HOT.per_node_rate(), 64,
                                         SIGMA_MAX)
        injector = FailureInjector(HOT, 64, lead, predictor,
                                   rng=np.random.default_rng(0))
        controller = OCIController(t_ckpt_bb=60.0, injector=injector,
                                   nodes=64, use_sigma=True,
                                   lm_threshold=theta,
                                   sigma_includes_recall=True)
        assert controller.sigma() == SIGMA_MAX

    @pytest.mark.parametrize("model_name", ["M2", "P2", "P2-fn"])
    def test_sigma_oci_uses_the_controllers_sigma(self, model_name):
        """Off the reference predictor, a job's σ-OCI is the one its
        controller computes: assumed recall unless the model uses the
        actual one, survival on the predictor's lead scale."""
        predictor = dataclasses.replace(DEFAULT_PREDICTOR, recall=0.6,
                                        lead_scale=0.5)
        model = get_model(model_name)
        per_node = APPLICATIONS["GYRO"].checkpoint_bytes_per_node
        t_bb = SMALL.node.burst_buffer.write_time(per_node)
        theta = SMALL.lm_transfer_time(per_node, model.lm_alpha)
        jobs = trace_workload([{"app": "GYRO", "at": 0.0, "nodes": 64}],
                              (model_name,))
        sim = SchedSimulation(jobs, platform=SMALL, weibull=HOT,
                              lead_model=PAPER_LEAD_TIME_MODEL,
                              predictor=predictor)
        injector = FailureInjector(HOT, 64, PAPER_LEAD_TIME_MODEL, predictor,
                                   rng=np.random.default_rng(0))
        controller = OCIController(
            t_ckpt_bb=t_bb, injector=injector, nodes=64, use_sigma=True,
            lm_threshold=theta,
            sigma_includes_recall=model.sigma_includes_recall,
        )
        assert sim._job_oci(model, t_bb, theta, 64) == sigma_adjusted_oci(
            t_bb, HOT.per_node_rate(), 64, controller.sigma())


class TestDeterminism:
    """The regression the campaign layer's bit-identity claim rests on."""

    SPEC = {
        "schema_version": 1,
        "apps": ["GYRO", "POP", "VULCAN"],
        "models": ["P2"],
        "include_base": True,
        "platform": {"base": "summit", "total_nodes": 192},
        "failures": "titan",
        "replications": 4,
        "seed": 7,
        "sched": {"policy": "easy", "jobs": 10, "hours_scale": 0.05},
        "sweep": {"axis": "sched-policy", "values": ["fcfs", "easy"]},
    }

    @staticmethod
    def _render(cells):
        return {
            key: json.dumps(dataclasses.asdict(r), sort_keys=True)
            for key, r in cells.items()
        }

    def test_bit_identical_across_worker_counts(self):
        from repro.spec import run_spec, spec_from_dict

        spec = spec_from_dict(self.SPEC)
        baseline = self._render(run_spec(spec, workers=1))
        for workers in (2, 4):
            assert self._render(run_spec(spec, workers=workers)) == baseline


class TestBenchPayload:
    def test_baseline_payload_validates(self):
        result = run_baseline(policy="easy", n_jobs=8, seed=0,
                              replications=1, hours_scale=0.05)
        payload = result_payload(result, seed=0, quick=True)
        assert validate_sched_payload(payload) == []
        assert payload["jobs"] == 8
        assert len(payload["per_job"]) == 8

    def test_validator_rejects_drift(self):
        result = run_baseline(policy="easy", n_jobs=8, seed=0,
                              replications=1, hours_scale=0.05)
        payload = result_payload(result, seed=0, quick=True)
        bad = dict(payload)
        bad["policy"] = "sjf"
        assert any("policy" in p for p in validate_sched_payload(bad))
        bad = dict(payload)
        del bad["makespan_seconds"]
        assert any("makespan_seconds" in p
                   for p in validate_sched_payload(bad))
        bad = dict(payload)
        bad["utilization"] = 1.5
        assert any("utilization" in p for p in validate_sched_payload(bad))

    def test_validator_rejects_undeclared_fields_but_not_flags(self):
        baseline = next(Path(__file__).resolve().parent.parent
                        .joinpath("benchmarks", "sched").glob("SCHED_*.json"))
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert validate_sched_payload(payload) == []
        assert validate_sched_payload({**payload, "quick": True,
                                       "dirty": True}) == []
        assert validate_sched_payload({**payload, "colour": "red"}) == [
            "payload: undeclared field 'colour'"
        ]
        per_job = [{**payload["per_job"][0], "colour": "red"}]
        problems = validate_sched_payload({**payload, "per_job": per_job,
                                           "jobs": 1})
        assert problems == ["per_job[0]: undeclared field 'colour'"]


class TestSpecWiring:
    def test_round_trip_with_sched_block(self):
        from repro.spec import spec_from_dict, spec_to_dict

        spec = spec_from_dict(TestDeterminism.SPEC)
        assert spec.sched is not None
        assert spec.sched.policy == "easy"
        assert spec.platform.total_nodes == 192
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec

    def test_pre_sched_specs_emit_no_sched_key(self):
        from repro.spec import spec_from_dict, spec_to_dict

        spec = spec_from_dict({
            "schema_version": 1, "apps": ["XGC"], "models": ["P2"],
        })
        assert "sched" not in spec_to_dict(spec)
        assert "total_nodes" not in spec_to_dict(spec)["platform"]

    def test_sched_policy_sweep_requires_sched_block(self):
        from repro.spec import SpecError, spec_from_dict

        with pytest.raises(SpecError, match="sched"):
            spec_from_dict({
                "schema_version": 1, "apps": ["XGC"], "models": ["P2"],
                "sweep": {"axis": "sched-policy", "values": ["fcfs"]},
            })

    def test_sched_spec_rejects_other_axes(self):
        from repro.spec import SpecError, spec_from_dict

        with pytest.raises(SpecError, match="sched"):
            spec_from_dict({
                "schema_version": 1, "apps": ["XGC"], "models": ["P2"],
                "sched": {},
                "sweep": {"axis": "fn-rate", "values": [0.1, 0.2]},
            })

    def test_unknown_policy_rejected(self):
        from repro.spec import SpecError, spec_from_dict

        with pytest.raises(SpecError, match="policy"):
            spec_from_dict({
                "schema_version": 1, "apps": ["XGC"], "models": ["P2"],
                "sched": {"policy": "sjf"},
            })

    def test_trace_arrival_round_trip(self):
        from repro.spec import spec_from_dict, spec_to_dict

        doc = {
            "schema_version": 1, "apps": ["GYRO"], "models": ["P2"],
            "sched": {"arrival": [
                {"app": "GYRO", "at": 0.0},
                {"app": "POP", "at": 60.0, "nodes": 9, "user": "x"},
            ]},
        }
        spec = spec_from_dict(doc)
        assert len(spec.sched.arrival) == 2
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestCampaignWiring:
    def test_store_round_trips_sched_results_bit_identically(self, tmp_path):
        from repro.campaign import ResultStore
        from repro.spec import run_spec, spec_from_dict

        spec = spec_from_dict(TestDeterminism.SPEC)
        store = ResultStore(tmp_path / "store")
        first = run_spec(spec, store=store, workers=1)
        cached = run_spec(spec, store=store, workers=1)
        for key in first:
            assert json.dumps(dataclasses.asdict(first[key]),
                              sort_keys=True) == \
                json.dumps(dataclasses.asdict(cached[key]), sort_keys=True)

    def test_sched_cells_never_collide_with_simulation_cells(self):
        from repro.campaign.plan import content_key
        from repro.spec.build import build_cells
        from repro.spec import spec_from_dict

        sched_cells = build_cells(spec_from_dict(TestDeterminism.SPEC))
        sim_cells = build_cells(spec_from_dict({
            "schema_version": 1, "apps": ["GYRO"], "models": ["P2"],
            "replications": 4, "seed": 7,
        }))
        sched_keys = {content_key(c) for c in sched_cells}
        sim_keys = {content_key(c) for c in sim_cells}
        assert not sched_keys & sim_keys
