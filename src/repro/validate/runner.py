"""Validation campaign orchestration: the engine behind ``pckpt validate``.

One campaign, from a single seed:

1. runs the closed-form **model oracles** once (bandwidth monotonicity,
   Eq. 1/2 algebra, Fig 5 table sanity);
2. fuzzes ``--cases`` random DES **scenarios**, executing each on every
   requested backend, diffing the executions pairwise, and checking the
   scenario invariant oracles on each record;
3. fuzzes a bounded number of random **C/R configurations**, running
   each full simulation on the fast and reference kernels and diffing
   the flattened ``RunOutput`` fingerprints;
4. fuzzes a bounded number of random **batch-queue schedules**, holding
   each to the scheduling oracles (liveness, node-hours conservation,
   placement disjointness, FCFS causality);
5. on any failure, **shrinks** the case to a minimal reproducer and
   (for scenarios, when a corpus directory is given) saves it to
   ``tests/corpus/``.

Everything is deterministic in the seed, so a CI failure's case number
is sufficient to reproduce it locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .backends import Backend
from .corpus import save_case
from .crdiff import diff_cr_case, generate_cr_case
from .executor import compare_records, execute
from .oracles import (
    check_analysis_consistency,
    check_bandwidth_monotonicity,
    check_record,
    check_statemachine_table,
)
from .scenarios import Scenario, generate_scenario
from .schedval import (
    check_sched_case,
    generate_sched_case,
    sched_case_size,
    shrink_sched_case,
)
from .shrink import scenario_size, shrink_scenario

__all__ = ["CaseFailure", "ValidationReport", "validate_scenario", "run_validation"]


@dataclass
class CaseFailure:
    """One failing case: what failed, why, and its minimal reproducer.

    ``scenario``/``shrunk`` hold a :class:`~.scenarios.Scenario` for
    scenario failures and a :class:`~.schedval.SchedCase` for sched
    failures (both shrink to the same minimal-reproducer contract).
    """

    kind: str  # "scenario" | "cr" | "sched" | "model-oracle"
    case_index: int
    violations: List[str]
    scenario: Optional[object] = None
    shrunk: Optional[object] = None
    corpus_path: Optional[Path] = None


@dataclass
class ValidationReport:
    """Outcome of one validation campaign."""

    seed: int
    backends: List[str]
    scenario_cases: int = 0
    cr_cases: int = 0
    sched_cases: int = 0
    failures: List[CaseFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_scenario(
    scenario: Scenario, backends: Dict[str, Backend]
) -> List[str]:
    """All divergences and invariant violations for one scenario.

    Executes the scenario on every backend, checks the invariant oracles
    on each record, then diffs the executions pairwise.
    """
    problems: List[str] = []
    records = {}
    for name, backend in backends.items():
        record = execute(scenario, backend)
        records[name] = record
        problems += check_record(record, scenario)
    names = sorted(records)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            problems += compare_records(records[a], records[b])
    return problems


def run_validation(
    seed: int,
    cases: int,
    backends: Dict[str, Backend],
    cr_cases: Optional[int] = None,
    sched_cases: Optional[int] = None,
    corpus_dir: Optional[Path] = None,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> ValidationReport:
    """Run one full validation campaign (see module docstring).

    Parameters
    ----------
    seed / cases:
        Scenario *i* of the campaign is ``generate_scenario(seed + i)``.
    backends:
        Name → backend mapping (from :func:`~.backends.resolve_backends`).
    cr_cases:
        Number of C/R differential cases; defaults to ``cases // 10``
        (min 2) — full simulations cost more than scenarios.
    sched_cases:
        Number of batch-queue oracle cases; same ``cases // 10``
        (min 2) default and for the same reason.
    corpus_dir:
        When given, shrunk reproducers are saved there.
    shrink:
        Disable to report failures without minimizing (faster triage).
    progress:
        Optional sink for one-line progress messages.
    """
    say = progress if progress is not None else (lambda _msg: None)
    report = ValidationReport(seed=seed, backends=sorted(backends))

    for oracle in (
        check_bandwidth_monotonicity,
        check_analysis_consistency,
        check_statemachine_table,
    ):
        violations = oracle()
        if violations:
            report.failures.append(
                CaseFailure(kind="model-oracle", case_index=-1,
                            violations=violations)
            )
            say(f"model oracle {oracle.__name__}: {len(violations)} violation(s)")

    for i in range(cases):
        scenario = generate_scenario(seed + i)
        problems = validate_scenario(scenario, backends)
        report.scenario_cases += 1
        if not problems:
            continue
        say(f"case {i} (seed {seed + i}): {len(problems)} problem(s)")
        failure = CaseFailure(
            kind="scenario", case_index=i, violations=problems,
            scenario=scenario,
        )
        if shrink:
            failure.shrunk = shrink_scenario(
                scenario, lambda s: bool(validate_scenario(s, backends))
            )
            say(
                f"case {i}: shrunk {scenario_size(scenario)} -> "
                f"{scenario_size(failure.shrunk)} ops"
            )
            if corpus_dir is not None:
                failure.corpus_path = save_case(
                    corpus_dir,
                    failure.shrunk,
                    validate_scenario(failure.shrunk, backends)[:10],
                    note=f"shrunk from generate_scenario({seed + i})",
                )
                say(f"case {i}: reproducer saved to {failure.corpus_path}")
        report.failures.append(failure)

    n_cr = cr_cases if cr_cases is not None else max(2, cases // 10)
    for i in range(n_cr):
        case = generate_cr_case(seed + i)
        problems = diff_cr_case(case)
        report.cr_cases += 1
        if problems:
            say(f"cr case {i} (seed {seed + i}): {len(problems)} problem(s)")
            report.failures.append(
                CaseFailure(kind="cr", case_index=i, violations=problems)
            )

    n_sched = sched_cases if sched_cases is not None else max(2, cases // 10)
    for i in range(n_sched):
        case = generate_sched_case(seed + i)
        problems = check_sched_case(case)
        report.sched_cases += 1
        if not problems:
            continue
        say(f"sched case {i} (seed {seed + i}): {len(problems)} problem(s)")
        failure = CaseFailure(
            kind="sched", case_index=i, violations=problems, scenario=case,
        )
        if shrink:
            failure.shrunk = shrink_sched_case(
                case, lambda c: bool(check_sched_case(c))
            )
            say(
                f"sched case {i}: shrunk {sched_case_size(case)} -> "
                f"{sched_case_size(failure.shrunk)} jobs"
            )
        report.failures.append(failure)
    return report
