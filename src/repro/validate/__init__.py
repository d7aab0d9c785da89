"""Differential validation subsystem (``pckpt validate``).

Turns "fast and probably right" into "fast and continuously verified":
a deterministic scenario fuzzer (:mod:`.scenarios`), a differential
executor running each case on the inlined fast-path kernel and the
``step()`` reference (:mod:`.backends`, :mod:`.executor`), an
invariant-oracle library (:mod:`.oracles`), a whole-simulation C/R
differential (:mod:`.crdiff`), a batch-queue scheduling-oracle fuzzer
(:mod:`.schedval`), and a shrinker + regression corpus (:mod:`.shrink`,
:mod:`.corpus`) feeding ``tests/corpus/``.  :mod:`.runner` orchestrates a campaign; see
``docs/TESTING.md`` for the workflow.
"""

from .backends import (
    Backend,
    ReferenceEnvironment,
    available_backends,
    resolve_backends,
    run_reference,
)
from .corpus import default_corpus_dir, load_corpus, save_case
from .crdiff import CRCase, diff_cr_case, generate_cr_case, run_cr_case
from .executor import ExecutionRecord, compare_records, execute
from .oracles import (
    check_analysis_consistency,
    check_bandwidth_monotonicity,
    check_record,
    check_statemachine_table,
)
from .runner import CaseFailure, ValidationReport, run_validation, validate_scenario
from .scenarios import Scenario, generate_scenario
from .schedval import (
    SchedCase,
    check_sched_case,
    check_sched_output,
    generate_sched_case,
    run_sched_case,
    sched_case_size,
    shrink_sched_case,
)
from .shrink import scenario_size, shrink_scenario

__all__ = [
    "Backend",
    "CRCase",
    "CaseFailure",
    "ExecutionRecord",
    "ReferenceEnvironment",
    "Scenario",
    "SchedCase",
    "ValidationReport",
    "available_backends",
    "check_analysis_consistency",
    "check_bandwidth_monotonicity",
    "check_record",
    "check_sched_case",
    "check_sched_output",
    "check_statemachine_table",
    "compare_records",
    "default_corpus_dir",
    "diff_cr_case",
    "execute",
    "generate_cr_case",
    "generate_scenario",
    "generate_sched_case",
    "load_corpus",
    "resolve_backends",
    "run_cr_case",
    "run_reference",
    "run_sched_case",
    "run_validation",
    "save_case",
    "scenario_size",
    "sched_case_size",
    "shrink_scenario",
    "shrink_sched_case",
    "validate_scenario",
]
