"""The kernel's callback-wall hook (repro.obs.profiler).

The load-bearing properties:

* **Subset of the loop** — the callback wall an attached profiler
  accumulates never exceeds the kernel's own ``wall_seconds``, and stops
  growing once the profiler is detached.
* **No effect on the simulation** — a replication dispatches the same
  events to the same result with and without the profiler.
* **Zero overhead when disabled** — the unprofiled run is never slower
  than the profiled one.
"""

from __future__ import annotations

import pytest

from repro.des import Environment
from repro.obs.profiler import KernelProfiler


def _mixed_workload(env: Environment) -> None:
    """Two processes plus a bare event with a plain callback."""

    def worker(env):
        for _ in range(5):
            yield env.timeout(1.0)

    def pinger(env):
        for _ in range(3):
            yield env.timeout(2.5)

    env.process(worker(env))
    env.process(pinger(env))
    ev = env.event()
    ev.callbacks.append(lambda e: None)
    env.schedule(ev, delay=4.0)


class TestAccountingIdentities:
    def test_wall_is_a_subset_of_kernel_wall(self):
        env = Environment()
        _mixed_workload(env)
        profiler = KernelProfiler()
        env.attach_profiler(profiler)
        env.run()
        assert 0.0 <= profiler.total_wall_seconds() <= env.wall_seconds

    def test_detach_stops_recording(self):
        env = Environment()
        _mixed_workload(env)
        profiler = KernelProfiler()
        env.attach_profiler(profiler)
        env.run(until=2.0)
        timed = profiler.total_wall_seconds()
        env.detach_profiler()
        env.run()
        assert profiler.total_wall_seconds() == timed
        assert env.profiler is None


# ---------------------------------------------------------------------------
# a full C/R replication
# ---------------------------------------------------------------------------
def _vulcan_p2(profiled: bool):
    """One untraced VULCAN/P2 replication: ``(sim, profiler, RunOutput)``."""
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
    profiler = KernelProfiler() if profiled else None
    if profiler is not None:
        sim.env.attach_profiler(profiler)
    return sim, profiler, sim.run()


class TestSimulationReconciliation:
    @pytest.fixture(scope="class")
    def profiled_run(self):
        return _vulcan_p2(profiled=True)

    def test_untraced_run_has_no_drain_events(self, profiled_run):
        """Untraced drains land by arithmetic, segments run inline.

        Over a thousand drains complete in under 20 kernel events, and
        the clock the application advanced inline reaches the makespan.
        """
        sim, profiler, out = profiled_run
        assert sim.drain.completed > 1000
        assert sim.env.events_processed < 20
        assert sim.env.now == pytest.approx(out.makespan, abs=1e-6)
        assert 0.0 <= profiler.total_wall_seconds() <= sim.env.wall_seconds

    def test_profiled_run_matches_unprofiled_result(self, profiled_run):
        psim, _, profiled_out = profiled_run
        sim, _, out = _vulcan_p2(profiled=False)
        # attaching the profiler changes nothing observable
        assert out.makespan == profiled_out.makespan
        assert out.useful_seconds == profiled_out.useful_seconds
        assert sim.env.events_processed == psim.env.events_processed


# ---------------------------------------------------------------------------
# zero overhead when disabled
# ---------------------------------------------------------------------------
def _profile_replication(profiled: bool):
    """One untraced CHIMERA/P1 replication, its compute demand capped at
    24 hours: ``(env, profiler or None, RunOutput)``."""
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
    def test_profiled_event_counts_match_unprofiled(self):
        """The profiler hook must not change the replication's schedule."""
        plain_env, _, plain_out = _profile_replication(profiled=False)
        prof_env, _, prof_out = _profile_replication(profiled=True)
        assert prof_env.events_processed == plain_env.events_processed
        assert prof_out == plain_out

    def test_disabled_run_not_slower_than_profiled(self):
        """A/B on one host: disabling the hook must not cost time.

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
