"""Attribution profiler (repro.obs.profiler) + kernel hook tests.

The load-bearing properties:

* **Parity** — counts and simulated-seconds attribution are pure
  functions of the event schedule, bit-identical across all three
  inlined ``run()`` variants and the ``step()`` reference path.
* **Accounting identities** — attributed counts equal
  ``events_processed``; attributed simulated seconds partition
  ``now - initial_time`` exactly (including the synthetic ``idle`` rows
  of a bounded run); attributed wall never exceeds the kernel's own
  ``wall_seconds``.
* **Reconciliation** — on a full C/R simulation the attributed sim
  seconds equal the makespan the engine reports via
  ``OverheadBreakdown``.
* **Zero overhead when disabled** — the unprofiled dispatch paths are
  untouched: a ``pckpt profile``-style replication dispatches the same
  events to the same result with and without the profiler, and the
  unprofiled run is never slower than the profiled one.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.des import Environment, Infinity
from repro.des.core import KERNEL_OWNER
from repro.obs import KernelProfiler
from repro.obs.profiler import PROFILE_KIND, PROFILE_SCHEMA_VERSION


# ---------------------------------------------------------------------------
# deterministic workloads
# ---------------------------------------------------------------------------
def _mixed_workload(env: Environment):
    """Two named processes plus bare events; returns the late marker event.

    The marker is scheduled in *every* variant (so all four dispatch
    paths consume the identical schedule); the until=Event variant
    additionally uses it as its stop condition.
    """

    def worker(env):
        for _ in range(5):
            yield env.timeout(1.0)

    def pinger(env):
        for _ in range(3):
            yield env.timeout(2.5)

    env.process(worker(env), name="worker")
    env.process(pinger(env), name="pinger")
    ev = env.event()
    ev.callbacks.append(lambda e: None)
    env.schedule(ev, delay=4.0)
    marker = env.event()
    env.schedule(marker, delay=40.0)
    return marker


def _attribution(profiler: KernelProfiler) -> dict:
    """The deterministic columns only: (owner, kind) -> (count, sim)."""
    return {
        (e.owner, e.kind): (e.count, e.sim_seconds)
        for e in profiler.entries()
    }


def _run_variant(variant: str):
    env = Environment()
    marker = _mixed_workload(env)
    profiler = KernelProfiler()
    env.attach_profiler(profiler)
    if variant == "run_exhaust":
        env.run()
    elif variant == "run_until_time":
        env.run(until=50.0)
    elif variant == "run_until_event":
        env.run(until=marker)
        env.run()  # drain the rest so schedules match
    elif variant == "step":
        while env.peek() != Infinity:
            env.step()
    else:  # pragma: no cover - test bug
        raise AssertionError(variant)
    return env, profiler


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------
class TestDispatchParity:
    VARIANTS = ("run_exhaust", "run_until_time", "run_until_event", "step")

    def test_attribution_identical_across_all_dispatch_paths(self):
        _, reference = _run_variant("step")
        ref = _attribution(reference)
        for variant in self.VARIANTS:
            env, profiler = _run_variant(variant)
            attr = _attribution(profiler)
            # bounded variants add idle rows; compare the event rows
            events_only = {k: v for k, v in attr.items() if k[1] != "idle"}
            ref_events = {k: v for k, v in ref.items() if k[1] != "idle"}
            assert events_only == ref_events, variant
            assert profiler.total_count() == env.events_processed, variant

    def test_owners_are_process_names_or_kernel(self):
        _, profiler = _run_variant("run_exhaust")
        owners = {e.owner for e in profiler.entries()}
        assert "worker" in owners
        assert "pinger" in owners
        assert KERNEL_OWNER in owners  # the bare event's plain callback

    def test_step_records_like_run(self):
        # step() one event at a time must attribute exactly like run().
        env1, p1 = _run_variant("step")
        env2, p2 = _run_variant("run_exhaust")
        assert _attribution(p1) == _attribution(p2)


# ---------------------------------------------------------------------------
# accounting identities
# ---------------------------------------------------------------------------
class TestAccountingIdentities:
    def test_sim_seconds_partition_exactly(self):
        env, profiler = _run_variant("run_exhaust")
        assert profiler.total_sim_seconds() == env.now

    def test_bounded_run_charges_idle_to_the_kernel(self):
        env = Environment()
        _mixed_workload(env)
        profiler = KernelProfiler()
        env.attach_profiler(profiler)
        env.run(until=100.0)
        assert env.now == 100.0
        # idle = clock advance past the last event; partition still exact
        idle = [e for e in profiler.entries() if e.kind == "idle"]
        assert len(idle) == 1
        assert idle[0].owner == KERNEL_OWNER
        assert idle[0].wall_seconds == 0.0
        assert profiler.total_sim_seconds() == 100.0
        # idle is not an event
        assert profiler.total_count() == env.events_processed

    def test_wall_is_a_subset_of_kernel_wall(self):
        env, profiler = _run_variant("run_exhaust")
        assert 0.0 <= profiler.total_wall_seconds() <= env.wall_seconds

    def test_detach_stops_recording(self):
        env = Environment()
        _mixed_workload(env)
        profiler = KernelProfiler()
        env.attach_profiler(profiler)
        env.run(until=2.0)
        counted = profiler.total_count()
        env.detach_profiler()
        env.run()
        assert profiler.total_count() == counted
        assert env.profiler is None


# ---------------------------------------------------------------------------
# reconciliation against the engine's own accounting
# ---------------------------------------------------------------------------
class TestSimulationReconciliation:
    @pytest.fixture(scope="class")
    def profiled_run(self):
        import numpy as np

        from repro.failures.weibull import TITAN_WEIBULL
        from repro.models.base import CRSimulation
        from repro.models.registry import get_model
        from repro.workloads.applications import APPLICATIONS

        child = np.random.SeedSequence(2022).spawn(1)[0]
        sim = CRSimulation(
            APPLICATIONS["VULCAN"], get_model("P2"),
            weibull=TITAN_WEIBULL, rng=np.random.default_rng(child),
        )
        profiler = KernelProfiler()
        sim.env.attach_profiler(profiler)
        out = sim.run()
        return sim, profiler, out

    def test_attributed_sim_equals_makespan(self, profiled_run):
        sim, profiler, out = profiled_run
        assert profiler.total_sim_seconds() == pytest.approx(
            out.makespan, abs=1e-6
        )

    def test_attributed_count_equals_events_processed(self, profiled_run):
        sim, profiler, _ = profiled_run
        assert profiler.total_count() == sim.env.events_processed

    def test_untraced_run_has_no_drain_events(self, profiled_run):
        """Untraced drains land by arithmetic, segments run inline.

        No event is owned by the drain manager, and the clock the
        application advanced inline is still attributed in full.
        """
        sim, profiler, out = profiled_run
        assert sim.drain.completed > 1000
        assert not any(e.owner == "drain-worker" for e in profiler.entries())
        assert profiler.total_count() < 20
        assert profiler.total_sim_seconds() == pytest.approx(
            out.makespan, abs=1e-6
        )

    def test_traced_and_untraced_application_rows_equal(self, profiled_run):
        """Tracing adds no kernel event to the application's row."""
        import numpy as np

        from repro.des import Trace
        from repro.failures.weibull import TITAN_WEIBULL
        from repro.models.base import CRSimulation
        from repro.models.registry import get_model
        from repro.workloads.applications import APPLICATIONS

        _, untraced, _ = profiled_run
        child = np.random.SeedSequence(2022).spawn(1)[0]
        sim = CRSimulation(
            APPLICATIONS["VULCAN"], get_model("P2"),
            weibull=TITAN_WEIBULL, rng=np.random.default_rng(child),
            trace=Trace(env=None),
        )
        profiler = KernelProfiler()
        sim.env.attach_profiler(profiler)
        out = sim.run()

        def rows(prof):
            return {e.kind: (e.count, e.sim_seconds) for e in prof.entries()
                    if e.owner == "application"}

        assert rows(profiler) and rows(profiler) == rows(untraced)
        assert not any(e.owner == "drain-worker" for e in profiler.entries())
        assert sim.trace.count("drain_flush") >= sim.drain.completed > 1000
        assert profiler.total_sim_seconds() == pytest.approx(
            out.makespan, abs=1e-6
        )

    def test_profiled_run_matches_unprofiled_result(self, profiled_run):
        import numpy as np

        from repro.failures.weibull import TITAN_WEIBULL
        from repro.models.base import CRSimulation
        from repro.models.registry import get_model
        from repro.workloads.applications import APPLICATIONS

        _, _, profiled_out = profiled_run
        child = np.random.SeedSequence(2022).spawn(1)[0]
        sim = CRSimulation(
            APPLICATIONS["VULCAN"], get_model("P2"),
            weibull=TITAN_WEIBULL, rng=np.random.default_rng(child),
        )
        out = sim.run()
        # attaching the profiler changes nothing observable
        assert out.makespan == profiled_out.makespan
        assert out.useful_seconds == profiled_out.useful_seconds


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------
class TestExports:
    def test_snapshot_round_trip(self):
        _, profiler = _run_variant("run_exhaust")
        snap = profiler.snapshot()
        assert snap["kind"] == PROFILE_KIND
        assert snap["schema_version"] == PROFILE_SCHEMA_VERSION
        restored = KernelProfiler.from_snapshot(snap)
        assert _attribution(restored) == _attribution(profiler)

    def test_from_snapshot_rejects_wrong_kind(self):
        _, profiler = _run_variant("run_exhaust")
        snap = profiler.snapshot()
        snap["kind"] = "nope"
        with pytest.raises(ValueError):
            KernelProfiler.from_snapshot(snap)

    def test_to_json_writes_valid_snapshot(self, tmp_path):
        _, profiler = _run_variant("run_exhaust")
        path = tmp_path / "profile.json"
        profiler.to_json(path)
        snap = json.loads(path.read_text(encoding="utf-8"))
        assert snap["schema_version"] == PROFILE_SCHEMA_VERSION

    def test_collapsed_stacks(self):
        _, profiler = _run_variant("run_exhaust")
        lines = profiler.collapsed_stacks(weight="count").splitlines()
        assert lines
        parsed = {}
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            parsed[stack] = int(value)
        assert parsed["worker;Timeout"] == 5
        with pytest.raises(ValueError):
            profiler.collapsed_stacks(weight="nope")

    def test_format_table_lists_every_owner(self):
        _, profiler = _run_variant("run_exhaust")
        text = profiler.format_table()
        for owner in ("worker", "pinger", KERNEL_OWNER):
            assert owner in text

    def test_merge_and_reset(self):
        _, a = _run_variant("run_exhaust")
        _, b = _run_variant("run_exhaust")
        total = a.total_count() + b.total_count()
        a.merge(b)
        assert a.total_count() == total
        a.reset()
        assert a.total_count() == 0
        assert not a.entries()

    def test_chrome_trace_gains_profiler_tracks(self):
        import numpy as np

        from repro.des import Trace
        from repro.failures.weibull import TITAN_WEIBULL
        from repro.models.base import CRSimulation
        from repro.models.registry import get_model
        from repro.workloads.applications import APPLICATIONS

        child = np.random.SeedSequence(2022).spawn(1)[0]
        trace = Trace(env=None)
        sim = CRSimulation(
            APPLICATIONS["VULCAN"], get_model("P2"),
            weibull=TITAN_WEIBULL, rng=np.random.default_rng(child),
            trace=trace,
        )
        profiler = KernelProfiler()
        sim.env.attach_profiler(profiler)
        sim.run()
        plain = io.StringIO()
        trace.to_chrome_trace(plain)
        with_tracks = io.StringIO()
        trace.to_chrome_trace(with_tracks, profiler=profiler)
        plain_events = json.loads(plain.getvalue())["traceEvents"]
        rich_events = json.loads(with_tracks.getvalue())["traceEvents"]
        extra = [e for e in rich_events if e.get("pid") == 2]
        assert len(rich_events) == len(plain_events) + len(extra)
        kinds = {e["name"] for e in extra if e.get("ph") == "X"}
        assert "Timeout" in kinds
        # the profiler process is named for Perfetto
        assert any(e.get("ph") == "M" and
                   e.get("args", {}).get("name") == "kernel-profiler"
                   for e in extra)


# ---------------------------------------------------------------------------
# zero overhead when disabled
# ---------------------------------------------------------------------------
def _profile_replication(profiled: bool):
    """One untraced replication built as ``pckpt profile CHIMERA P1
    --quick`` builds it: ``(env, profiler or None, RunOutput)``."""
    from dataclasses import replace

    import numpy as np

    from repro.experiments import BENCH_SCALE
    from repro.failures.weibull import TITAN_WEIBULL
    from repro.models.base import CRSimulation
    from repro.models.registry import get_model
    from repro.workloads.applications import APPLICATIONS

    app = APPLICATIONS["CHIMERA"]
    app = replace(app, compute_hours=min(app.compute_hours, 24.0))
    child = np.random.SeedSequence(BENCH_SCALE.seed).spawn(1)[0]
    sim = CRSimulation(
        app, get_model("P1"),
        weibull=TITAN_WEIBULL, rng=np.random.default_rng(child),
    )
    profiler = KernelProfiler() if profiled else None
    if profiler is not None:
        sim.env.attach_profiler(profiler)
    out = sim.run()
    return sim.env, profiler, out


class TestDisabledModeRegression:
    def test_profiled_count_equals_events_processed(self):
        env, profiler, _ = _profile_replication(profiled=True)
        assert env.events_processed > 0
        assert profiler.total_count() == env.events_processed

    def test_profiled_event_counts_match_unprofiled(self):
        """The profiler hook must not change the replication's schedule."""
        plain_env, _, plain_out = _profile_replication(profiled=False)
        prof_env, _, prof_out = _profile_replication(profiled=True)
        assert prof_env.events_processed == plain_env.events_processed
        assert prof_out == plain_out

    def test_disabled_run_not_slower_than_profiled(self):
        """A/B on one host: disabling attribution must not cost time.

        The profiled loop does strictly more work (two ``perf_counter``
        calls per event), so best-of-N disabled wall staying at or below
        profiled wall — with generous noise headroom — is a stable,
        machine-independent statement of the disabled-mode contract.
        """
        disabled = min(
            _profile_replication(profiled=False)[0].wall_seconds
            for _ in range(3)
        )
        profiled = min(
            _profile_replication(profiled=True)[0].wall_seconds
            for _ in range(3)
        )
        assert disabled <= profiled * 1.5 + 0.01

