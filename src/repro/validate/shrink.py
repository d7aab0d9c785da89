"""Greedy structural shrinker for failing scenarios.

Given a scenario and a failure predicate, repeatedly try structural
simplifications — drop a process, drop an op (anywhere in the spawn
tree), zero a delay, drop an unreferenced declaration, simplify the run
mode — keeping any variant that still fails, until no simplification
preserves the failure.  The result is the minimal reproducer committed
to ``tests/corpus/``.

Everything operates on the JSON dict form, so a shrunk scenario is
byte-identical to what the corpus stores, and the shrinker needs no
knowledge of op semantics beyond where delays and spawns live.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterator

from .scenarios import Scenario

__all__ = ["scenario_size", "shrink_scenario"]


def scenario_size(scenario: Scenario) -> int:
    """Complexity measure: total ops across the whole spawn tree."""
    data = scenario.to_dict()
    return sum(len(proc["ops"]) for proc in _walk_procs(data))


def _walk_procs(data: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Every process dict in *data*, spawn children included."""
    stack = list(data["processes"])
    while stack:
        proc = stack.pop(0)
        yield proc
        for op in proc["ops"]:
            if op[0] == "spawn":
                stack.append(op[1])


def _referenced_ids(data: Dict[str, Any]) -> set:
    return {
        op[1]
        for proc in _walk_procs(data)
        for op in proc["ops"]
        if op[0] == "acquire"
    }


def _variants(data: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """All one-step simplifications of *data*, simplest-first."""
    # Drop a whole top-level process.
    if len(data["processes"]) > 1:
        for i in range(len(data["processes"])):
            v = copy.deepcopy(data)
            del v["processes"][i]
            yield v

    # Drop a single op anywhere in the spawn tree.
    n_procs = sum(1 for _ in _walk_procs(data))
    for pi in range(n_procs):
        proc = list(_walk_procs(data))[pi]
        for oi in range(len(proc["ops"])):
            v = copy.deepcopy(data)
            vproc = list(_walk_procs(v))[pi]
            del vproc["ops"][oi]
            yield v

    # Zero a delay (start delays; delay-bearing op arguments).
    for pi in range(n_procs):
        proc = list(_walk_procs(data))[pi]
        if proc["start_delay"] > 0:
            v = copy.deepcopy(data)
            list(_walk_procs(v))[pi]["start_delay"] = 0.0
            yield v
        for oi, op in enumerate(proc["ops"]):
            delay_arg = {"timeout": 1, "sleep_catch": 1, "acquire": 3}.get(op[0])
            if delay_arg is not None and op[delay_arg] > 0:
                v = copy.deepcopy(data)
                list(_walk_procs(v))[pi]["ops"][oi][delay_arg] = 0.0
                yield v

    # Drop resources nothing references any more.
    refs = _referenced_ids(data)
    for i, spec in enumerate(data["resources"]):
        if spec["id"] not in refs:
            v = copy.deepcopy(data)
            del v["resources"][i]
            yield v

    # Simplify the run mode down to a full drain.
    if data["run_mode"] != "drain":
        v = copy.deepcopy(data)
        v["run_mode"] = "drain"
        v["until"] = None
        yield v


def shrink_scenario(
    scenario: Scenario,
    fails: Callable[[Scenario], bool],
    max_attempts: int = 2000,
) -> Scenario:
    """Greedily minimize *scenario* while ``fails(candidate)`` stays true.

    *fails* must be deterministic (replaying the same candidate gives the
    same verdict) — true for every check in this package.  Candidates
    whose replay raises are skipped, never accepted.  ``max_attempts``
    bounds total candidate executions, so shrinking always terminates
    quickly even for adversarial predicates.
    """
    if not fails(scenario):
        raise ValueError("shrink_scenario needs a failing scenario to start from")
    current = scenario
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for cand_data in _variants(current.to_dict()):
            attempts += 1
            candidate = Scenario.from_dict(cand_data)
            try:
                still_failing = fails(candidate)
            except Exception:  # noqa: BLE001 - malformed variant, skip
                still_failing = False
            if still_failing:
                current = candidate
                improved = True
                break
            if attempts >= max_attempts:
                break
    return current
