"""The scheduler oracle tier: fuzz cases, oracles, shrinker, runner wiring."""

from __future__ import annotations

import dataclasses

from repro.validate import (
    SchedCase,
    check_sched_case,
    check_sched_output,
    generate_sched_case,
    run_sched_case,
    sched_case_size,
    shrink_sched_case,
)
from repro.validate.backends import resolve_backends
from repro.validate.runner import run_validation


class TestGeneration:
    def test_deterministic_in_seed(self):
        assert generate_sched_case(5) == generate_sched_case(5)
        assert generate_sched_case(5) != generate_sched_case(6)

    def test_cases_are_small_and_runnable(self):
        for seed in range(6):
            case = generate_sched_case(seed)
            assert 3 <= len(case.entries) <= 10
            assert case.total_nodes in (16, 32, 64)
            out = run_sched_case(case)
            assert len(out.records) == len(case.entries)


class TestOracles:
    def test_fifty_fuzz_cases_pass_all_oracles(self):
        """The bounded CI pass: 50 cases, every oracle."""
        for seed in range(50):
            case = generate_sched_case(seed)
            problems = check_sched_case(case)
            assert problems == [], (
                f"seed {seed}: {problems[:4]}"
            )

    def test_starvation_oracle_fires_on_unstarted_job(self):
        case = generate_sched_case(0)
        out = run_sched_case(case)
        # Forge a record that was admitted but never placed.
        broken = dataclasses.replace(out)
        broken.records[0].start = None
        broken.records[0].end = None
        problems = check_sched_output(broken, case)
        assert any("starvation" in p for p in problems)

    def test_overlap_oracle_fires_on_shared_nodes(self):
        case = generate_sched_case(0)
        out = run_sched_case(case)
        running = [r for r in out.records if r.start is not None]
        a, b = running[0], running[1]
        # Force two time-overlapping jobs onto the same node interval.
        a.start, a.end = 0.0, 100.0
        b.start, b.end = 50.0, 150.0
        a.intervals = ((0, a.job.nodes),)
        b.intervals = ((0, b.job.nodes),)
        problems = check_sched_output(out, case)
        assert any("overlap" in p for p in problems)

    def test_conservation_oracle_fires_on_impossible_utilization(self):
        case = generate_sched_case(0)
        out = run_sched_case(case)
        out = dataclasses.replace(out, utilization=1.2)
        problems = check_sched_output(out, case)
        assert any("utilization" in p for p in problems)

    def test_causality_oracle_fires_on_early_start(self):
        case = generate_sched_case(0)
        out = run_sched_case(case)
        started = [r for r in out.records if r.start is not None]
        started[0].start = started[0].job.arrival - 10.0
        problems = check_sched_output(out, case)
        assert any("causality" in p for p in problems)


class TestShrinker:
    def test_shrinks_to_single_offending_job(self):
        case = generate_sched_case(1)

        def fails(c: SchedCase) -> bool:
            # Artificial predicate: any workload containing a job wider
            # than half the machine "fails".
            return any(e["nodes"] > c.total_nodes // 2 for e in c.entries)

        if not fails(case):
            wide = dict(case.entries[0])
            wide["nodes"] = case.total_nodes
            case = dataclasses.replace(
                case, entries=(wide,) + case.entries[1:]
            )
        shrunk = shrink_sched_case(case, fails)
        assert fails(shrunk)
        assert sched_case_size(shrunk) == 1

    def test_shrink_preserves_failure_not_size_when_all_needed(self):
        case = generate_sched_case(2)

        def fails(c: SchedCase) -> bool:
            return len(c.entries) >= len(case.entries)

        shrunk = shrink_sched_case(case, fails)
        assert sched_case_size(shrunk) == sched_case_size(case)


class TestRunnerWiring:
    def test_sched_cases_ride_along_in_the_campaign(self):
        backends = resolve_backends(None)
        report = run_validation(0, 10, backends, cr_cases=0, sched_cases=3)
        assert report.sched_cases == 3
        assert report.ok

    def test_sched_case_default_scales_with_cases(self):
        backends = resolve_backends(None)
        report = run_validation(0, 0, backends, cr_cases=0)
        # cases // 10 with a floor of 2, mirroring the C/R tier.
        assert report.sched_cases == 2
