"""Scheduler baseline harness: the committed high-occupancy workload.

``python -m repro.sched.bench --out benchmarks/sched`` runs the
reference mixed workload (≥16 Table-I jobs, all five paper models in the
pool, several replications) under one policy and writes a
schema-versioned ``SCHED_<git-sha>.json`` artifact.  This is the
high-occupancy regime: many concurrent jobs' drains queueing on the
shared PFS lanes.

:func:`validate_sched_payload` checks a payload against the declarative
tables in :mod:`repro.sched.jobs`; ``tools/check_schemas.py`` runs it
over the committed artifacts in CI.
"""

from __future__ import annotations

import json
import platform as _platform
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.records import check_record
from .engine import SchedResult, aggregate_sched, run_sched_once
from .jobs import (
    JOB_FIELDS,
    POLICY_NAMES,
    RESULT_FIELDS,
    SCHED_BASELINE_KIND,
    SCHED_SCHEMA_VERSION,
)
from .workload import poisson_workload

__all__ = [
    "BASELINE_MODELS",
    "run_baseline",
    "result_payload",
    "validate_sched_payload",
    "sched_filename",
    "write_sched_payload",
    "format_sched_payload",
    "main",
]

#: C/R model pool the baseline workload cycles through — all five paper
#: models, so the artifact exercises every mitigation path.
BASELINE_MODELS = ("B", "M1", "M2", "P1", "P2")


def run_baseline(
    policy: str = "easy",
    n_jobs: int = 16,
    seed: int = 0,
    replications: int = 3,
    hours_scale: float = 0.1,
    interarrival_seconds: float = 900.0,
) -> SchedResult:
    """Run the reference workload and aggregate its replications."""
    from ..failures.leadtime import PAPER_LEAD_TIME_MODEL
    from ..failures.predictor import DEFAULT_PREDICTOR
    from ..failures.weibull import TITAN_WEIBULL
    from ..platform.system import SUMMIT

    workload = poisson_workload(
        (), BASELINE_MODELS, n_jobs, seed=seed,
        interarrival_seconds=interarrival_seconds,
        hours_scale=hours_scale,
    )
    outputs = [
        run_sched_once(
            workload, policy, SUMMIT, TITAN_WEIBULL,
            PAPER_LEAD_TIME_MODEL, DEFAULT_PREDICTOR,
            np.random.SeedSequence(entropy=seed, spawn_key=(k,)),
        )
        for k in range(replications)
    ]
    return aggregate_sched(policy, outputs)


def git_sha() -> Tuple[str, bool]:
    """``(short-sha, dirty)`` of the git checkout at the cwd.

    Falls back to ``("unknown", False)`` outside a git checkout so the
    harness stays usable from an sdist.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout.strip())
        return sha, dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def result_payload(result: SchedResult, seed: int,
                   quick: bool = False) -> Dict[str, Any]:
    """Assemble the artifact dict (``RESULT_FIELDS`` shape) for *result*."""
    sha, dirty = git_sha()
    payload: Dict[str, Any] = {
        "kind": SCHED_BASELINE_KIND,
        "schema_version": SCHED_SCHEMA_VERSION,
        "git_sha": sha,
        "python": _platform.python_version(),
        "policy": result.policy,
        "seed": seed,
        "replications": result.replications,
        "jobs": result.jobs,
        "starved": result.starved,
        "makespan_seconds": result.makespan_seconds,
        "utilization": result.utilization,
        "wait_mean_seconds": result.wait_mean_seconds,
        "wait_p95_seconds": result.wait_p95_seconds,
        "wait_max_seconds": result.wait_max_seconds,
        "failures": result.ft.failures,
        "mitigated": result.ft.mitigated,
        "ft_ratio": result.ft.ft_ratio,
        "per_job": list(result.per_job),
    }
    if dirty:
        payload["dirty"] = True
    if quick:
        payload["quick"] = True
    return payload


#: Optional top-level flags ``result_payload`` stamps on top of
#: :data:`RESULT_FIELDS`: ``dirty`` (uncommitted changes at run time)
#: and ``quick`` (the reduced CI-scale workload).
PAYLOAD_FLAGS = ("dirty", "quick")


def validate_sched_payload(payload: Dict[str, Any]) -> List[str]:
    """Structural checks on a sched baseline payload; returns problems."""
    if not isinstance(payload, dict):
        return ["payload: record is not an object"]
    problems = check_record(
        {k: v for k, v in payload.items() if k not in PAYLOAD_FLAGS},
        RESULT_FIELDS, "payload",
        kind=SCHED_BASELINE_KIND, version=SCHED_SCHEMA_VERSION,
    )
    if payload.get("policy") not in POLICY_NAMES:
        problems.append(
            f"payload: policy {payload.get('policy')!r} not one of "
            f"{list(POLICY_NAMES)}"
        )
    per_job = payload.get("per_job")
    if isinstance(per_job, list):
        if isinstance(payload.get("jobs"), int) and len(per_job) != payload["jobs"]:
            problems.append(
                f"payload: per_job holds {len(per_job)} entries, jobs "
                f"says {payload['jobs']}"
            )
        for i, entry in enumerate(per_job):
            problems.extend(check_record(entry, JOB_FIELDS, f"per_job[{i}]"))
    for name in ("utilization", "ft_ratio"):
        value = payload.get(name)
        if isinstance(value, (int, float)) and not 0.0 <= value <= 1.0:
            problems.append(f"payload: {name} must be in [0, 1], got {value!r}")
    return problems


def sched_filename(sha: str) -> str:
    """Canonical artifact name for a commit."""
    return f"SCHED_{sha}.json"


def write_sched_payload(payload: Dict[str, Any], directory: Path) -> Path:
    """Write ``SCHED_<sha>.json`` under *directory* (validated)."""
    problems = validate_sched_payload(payload)
    if problems:
        raise ValueError("refusing to write invalid payload: "
                         + "; ".join(problems))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / sched_filename(payload["git_sha"])
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def format_sched_payload(payload: Dict[str, Any]) -> str:
    """Human summary of a sched payload (printed by the CLI entry)."""
    hours = payload["makespan_seconds"] / 3600.0
    return "\n".join([
        f"sched baseline @ {payload['git_sha']}"
        + ("+dirty" if payload.get("dirty") else "")
        + (" (quick)" if payload.get("quick") else ""),
        f"  {payload['jobs']} jobs x {payload['replications']} reps under "
        f"{payload['policy']}: makespan {hours:.1f} h, "
        f"utilization {payload['utilization']:.1%}, "
        f"{payload['starved']} starved",
        f"  wait mean {payload['wait_mean_seconds']:.0f} s   "
        f"p95 {payload['wait_p95_seconds']:.0f} s   "
        f"max {payload['wait_max_seconds']:.0f} s",
        f"  FT: {payload['mitigated']}/{payload['failures']} mitigated "
        f"(ratio {payload['ft_ratio']:.2f})",
    ])


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sched.bench",
        description="Run the scheduler baseline workload and write the "
                    "committed SCHED_<sha>.json artifact.",
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write the artifact into")
    parser.add_argument("--policy", choices=POLICY_NAMES, default="easy")
    parser.add_argument("--jobs", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replications", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="small workload, one replication (CI smoke)")
    args = parser.parse_args(argv)

    n_jobs = 8 if args.quick else args.jobs
    reps = 1 if args.quick else args.replications
    result = run_baseline(policy=args.policy, n_jobs=n_jobs,
                          seed=args.seed, replications=reps)
    payload = result_payload(result, seed=args.seed, quick=args.quick)
    print(format_sched_payload(payload))
    if args.out is not None:
        path = write_sched_payload(payload, args.out)
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
