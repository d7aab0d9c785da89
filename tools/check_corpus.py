#!/usr/bin/env python3
"""Integrity check for the fuzzer regression corpus (``tests/corpus/``).

Two layers, mirroring the other ``tools/check_*`` scripts:

* **Shape** (dependency-free): every ``case-*.json`` must hold exactly
  the ``{scenario, violations, note}`` payload written by
  ``repro.validate.corpus.save_case``, carry a non-empty provenance
  note and a non-empty violation report, and sit under its
  content-addressed name ``case-<seed>-<sha256(scenario)[:10]>.json``
  so a hand-edited scenario can't silently shadow the reproducer it
  replaced.
* **Replay** (needs the repo's runtime deps): each scenario is re-run
  through the differential validator on the fast and step kernels and
  must come back clean — the bug the case reproduces must stay fixed.
  Skipped with a notice when imports are unavailable; pass
  ``--require-replay`` to make that an error instead (the tests CI job
  does).

Exits non-zero with a description of every problem.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "tests" / "corpus"

NAME_RE = re.compile(r"^case-(-?\d+)-([0-9a-f]{10})\.json$")
PAYLOAD_KEYS = {"scenario", "violations", "note"}


def check_shape(path: Path) -> List[str]:
    """Dependency-free structural validation of one corpus file."""
    match = NAME_RE.match(path.name)
    if not match:
        return [f"{path}: name must look like case-<seed>-<digest10>.json"]
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    problems = []
    if set(payload) != PAYLOAD_KEYS:
        problems.append(
            f"{path}: payload keys are {sorted(payload)}, "
            f"expected {sorted(PAYLOAD_KEYS)}"
        )
        return problems
    scenario = payload["scenario"]
    if not isinstance(scenario, dict):
        problems.append(f"{path}: scenario must be an object")
        return problems
    if not payload["note"]:
        problems.append(f"{path}: note must document the bug's provenance")
    if not payload["violations"]:
        problems.append(
            f"{path}: violations must record what condemned the scenario"
        )
    if str(scenario.get("seed")) != match.group(1):
        problems.append(
            f"{path}: file name says seed {match.group(1)}, "
            f"scenario says {scenario.get('seed')!r}"
        )
    canonical = json.dumps(scenario, sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:10]
    if digest != match.group(2):
        problems.append(
            f"{path}: content digest is {digest}, file name says "
            f"{match.group(2)} (scenario edited without renaming?)"
        )
    return problems


def check_replay(paths: List[Path]) -> Optional[List[str]]:
    """Replay every scenario on the fixed kernels; None = deps missing."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.validate.backends import FAST_BACKEND, STEP_BACKEND
        from repro.validate.runner import validate_scenario
        from repro.validate.scenarios import Scenario
    except ImportError:
        return None  # caller decides whether that is fatal
    backends = {"fast": FAST_BACKEND, "step": STEP_BACKEND}
    problems = []
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"))
        scenario = Scenario.from_dict(payload["scenario"])
        found = validate_scenario(scenario, backends)
        for violation in found[:5]:
            problems.append(
                f"{path}: replays dirty on the fixed kernel — {violation}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", type=Path, default=CORPUS_DIR,
                        metavar="DIR", help="corpus directory to check")
    parser.add_argument("--require-replay", action="store_true",
                        help="fail if the replay layer cannot run")
    args = parser.parse_args(argv)

    paths = sorted(args.corpus.glob("*.json")) if args.corpus.is_dir() else []
    problems: List[str] = []
    if not paths:
        problems.append(
            f"{args.corpus} holds no corpus cases (at least the "
            "PriorityResource tie-break reproducer must be committed)"
        )
    for path in paths:
        problems.extend(check_shape(path))

    replayed = 0
    if not problems and paths:
        replay_problems = check_replay(paths)
        if replay_problems is None:
            message = "replay layer unavailable (runtime deps not installed)"
            if args.require_replay:
                problems.append(message)
            else:
                print(f"note: {message}; shape checked only")
        else:
            problems.extend(replay_problems)
            replayed = len(paths)

    if problems:
        print("corpus check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"corpus OK ({len(paths)} case(s), {replayed} replayed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
