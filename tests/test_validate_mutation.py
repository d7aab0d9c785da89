"""Mutation testing: prove the fuzzer actually catches kernel bugs.

The ISSUE acceptance criterion: a deliberately introduced kernel
mutation must be (a) detected by the differential fuzzer within its
default case budget and (b) shrunk to a minimal reproducer.  One
mutant per bug family the validator exists for:

``BuggyPriorityResource``
    Breaks the tie-break of the PFS-lane queue: equal-priority waiters
    are granted newest-first instead of by request time and submission
    order.  Its shrunk reproducer is committed in ``tests/corpus/``.

``TieReversingEnvironment``
    Breaks the scheduler's determinism contract instead: same-``(time,
    priority)`` events are dispatched in *reverse* insertion order.
    Driven through ``step()`` (the fast loop inlines its own dispatch,
    so the mutation lives in a step-driven backend) and diffed against
    the correct fast kernel.

``StarvingBackfillPolicy``
    Breaks the scheduler layer instead of the kernel: a backfill that
    never starts jobs wider than half the machine, the classic
    unreserved-backfill starvation failure.  The sched oracle fuzzer
    must catch it (starvation oracle) and shrink the workload to the
    starving job within the same case budget.
"""

from __future__ import annotations

import dataclasses
from heapq import heappop, heappush

import pytest

from repro.des import Environment, PriorityResource
from repro.sched.policy import EasyBackfillPolicy
from repro.validate import (
    check_sched_case,
    generate_scenario,
    generate_sched_case,
    scenario_size,
    sched_case_size,
    shrink_scenario,
    shrink_sched_case,
    validate_scenario,
)
from repro.validate.backends import FAST_BACKEND, STEP_BACKEND, run_reference

#: Default ``pckpt validate`` budget; every mutant must die within it.
CASE_BUDGET = 200


class BuggyPriorityResource(PriorityResource):
    """Grants equal-priority waiters newest-first."""

    __slots__ = ()

    def _do_request(self, request):
        if len(self.users) < self._capacity and not self._heap:
            self.users.append(request)
            request.succeed(None)
        else:
            # Negated time and sequence reverse the order within a
            # priority level; lower priorities still win.
            heappush(
                self._heap,
                (request.priority, -request.time, -self._seq, request),
            )
            self._seq += 1
            self.queue.append(request)


class TieReversingEnvironment(Environment):
    """Dispatches same-``(time, priority)`` ties newest-first."""

    __slots__ = ()

    def step(self):
        queue = self._queue
        if len(queue) > 1:
            t, prio = queue[0][0], queue[0][1]
            ties = []
            while queue and queue[0][0] == t and queue[0][1] == prio:
                ties.append(heappop(queue))
            # Negating the sequence number reverses order within the tie
            # group; entries are still processed exactly once.
            for time_, prio_, eid, event in ties:
                heappush(queue, (time_, prio_, -eid, event))
        return super().step()


BUGGY_RESOURCE_BACKEND = dataclasses.replace(
    FAST_BACKEND,
    name="mutant-resource",
    classes={**FAST_BACKEND.classes, "PriorityResource": BuggyPriorityResource},
)

TIE_REVERSING_BACKEND = dataclasses.replace(
    STEP_BACKEND,
    name="mutant-ties",
    env_factory=TieReversingEnvironment,
    drive=run_reference,
)


def _hunt(mutant_backend):
    """First fuzzed seed whose scenario kills *mutant_backend* (or None)."""
    backends = {"fast": FAST_BACKEND, mutant_backend.name: mutant_backend}
    for seed in range(CASE_BUDGET):
        scenario = generate_scenario(seed)
        problems = validate_scenario(scenario, backends)
        if problems:
            return seed, scenario, problems, backends
    return None


@pytest.mark.parametrize(
    "mutant",
    [BUGGY_RESOURCE_BACKEND, TIE_REVERSING_BACKEND],
    ids=lambda b: b.name,
)
def test_mutant_caught_and_shrunk_within_budget(mutant):
    hunt = _hunt(mutant)
    assert hunt is not None, (
        f"{mutant.name} survived {CASE_BUDGET} fuzzed cases — the fuzzer "
        "has lost its teeth"
    )
    seed, scenario, problems, backends = hunt
    assert problems

    def fails(s):
        return bool(validate_scenario(s, backends))

    shrunk = shrink_scenario(scenario, fails)
    assert fails(shrunk), "shrunk reproducer no longer kills the mutant"
    assert scenario_size(shrunk) <= scenario_size(scenario)
    # A minimal reproducer is small enough to read: a handful of ops.
    assert scenario_size(shrunk) <= 10

    # The reproducer condemns only the mutant, not the real kernel.
    clean = validate_scenario(
        shrunk, {"fast": FAST_BACKEND, "step": STEP_BACKEND}
    )
    assert clean == []


class StarvingBackfillPolicy(EasyBackfillPolicy):
    """Backfill without the head reservation: wide jobs never start."""

    def __init__(self, half_machine: int) -> None:
        super().__init__()
        self._half = half_machine

    def select(self, free_nodes, running, now):
        started = []
        free = free_nodes
        i = 0
        while i < len(self._pending):
            pj = self._pending[i]
            if pj.job.nodes <= self._half and pj.job.nodes <= free:
                del self._pending[i]
                free -= pj.job.nodes
                started.append(pj)
            else:
                i += 1
        return started


def _sched_mutant_fails(case):
    # A fresh mutant per run: policies are stateful (they own the queue).
    mutant = StarvingBackfillPolicy(case.total_nodes // 2)
    return bool(check_sched_case(case, policy=mutant))


def test_starving_backfill_mutant_caught_and_shrunk_within_budget():
    hunt = None
    for seed in range(CASE_BUDGET):
        case = generate_sched_case(seed)
        if _sched_mutant_fails(case):
            hunt = case
            break
    assert hunt is not None, (
        f"the starving backfill survived {CASE_BUDGET} fuzzed workloads — "
        "the sched oracles have lost their teeth"
    )

    shrunk = shrink_sched_case(hunt, _sched_mutant_fails)
    assert _sched_mutant_fails(shrunk), (
        "shrunk reproducer no longer kills the mutant"
    )
    assert sched_case_size(shrunk) <= sched_case_size(hunt)
    # Minimal means readable: the starving job, possibly one companion.
    assert sched_case_size(shrunk) <= 2

    # The violation is the starvation the mutant introduces, and the
    # reproducer condemns only the mutant — the real policies pass.
    mutant = StarvingBackfillPolicy(shrunk.total_nodes // 2)
    problems = check_sched_case(shrunk, policy=mutant)
    assert any("starvation" in p for p in problems)
    assert check_sched_case(shrunk) == []


def test_buggy_resource_mutant_dies_on_the_committed_reproducer():
    """The corpus entry for this bug kills the mutant directly."""
    from repro.validate import default_corpus_dir, load_corpus

    backends = {
        "fast": FAST_BACKEND,
        BUGGY_RESOURCE_BACKEND.name: BUGGY_RESOURCE_BACKEND,
    }
    killed = any(
        validate_scenario(scenario, backends)
        for _path, scenario, _payload in load_corpus(default_corpus_dir())
    )
    assert killed, (
        "no committed corpus case kills the PriorityResource tie-break "
        "mutant — the corpus no longer guards the bug it was created for"
    )
