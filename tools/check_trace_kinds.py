#!/usr/bin/env python3
"""Docs-sync check: every emitted trace kind must be documented.

Scans ``src/repro`` for literal-string ``emit``/``span_begin``/``span``
calls and asserts that each kind appears (backticked) somewhere in
``docs/OBSERVABILITY.md``.  Also covers the observability layer's
declared vocabularies, parsed from source so this stays dependency-free:

* every name in ``TIMELINE_CHAIN_KINDS`` (``src/repro/obs/timeline.py``)
  — the kinds ``pckpt timeline`` stitches into causal chains;
* the profiler's synthetic attribution names (``KERNEL_OWNER`` in
  ``src/repro/des/core.py`` and the ``idle`` clock-advance kind) — rows
  ``pckpt profile`` prints that correspond to no emit site.

Run by CI and by the test suite; exits non-zero listing any
undocumented kinds.

Emit sites must use literal kind strings — a dynamically computed kind
defeats this check (and makes traces harder to grep), so branch on the
value and emit literals instead.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "OBSERVABILITY.md"
TIMELINE_PY = SRC / "obs" / "timeline.py"
CORE_PY = SRC / "des" / "core.py"

#: Matches emit-family calls whose first two arguments are string
#: literals: emit("source", "kind"), span_begin(...) and span(...) —
#: across line breaks.
CALL = re.compile(
    r"\b(?:emit|span_begin|span)\(\s*"
    r"['\"]([\w/-]+)['\"]\s*,\s*['\"]([\w.-]+)['\"]"
)

#: Matches trace-context span emits (``repro.obs.context.SpanWriter``):
#: ``writer.span("name", t0, ...)`` / ``writer.instant("name", t, ...)``
#: — the first argument is the span *name* and the second is a
#: timestamp, so these escape :data:`CALL` (which wants two string
#: literals).  The negative lookahead keeps ``Trace.span("src", "kind")``
#: sites from double-matching.
SPAN_NAME = re.compile(
    r"\.(?:span|instant)\(\s*['\"]([\w.-]+)['\"]\s*,\s*(?!['\"])"
)

#: The TIMELINE_CHAIN_KINDS tuple literal (names only, one per line).
CHAIN_KINDS_BLOCK = re.compile(
    r"TIMELINE_CHAIN_KINDS\s*=\s*\(([^)]*)\)", re.DOTALL
)
KERNEL_OWNER_DECL = re.compile(r"^KERNEL_OWNER:\s*str\s*=\s*['\"](\w+)['\"]",
                               re.MULTILINE)


def emitted_kinds() -> Dict[str, Set[str]]:
    """kind -> set of source files emitting it."""
    found: Dict[str, Set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in CALL.finditer(text):
            kind = match.group(2)
            found.setdefault(kind, set()).add(
                str(path.relative_to(ROOT))
            )
        for match in SPAN_NAME.finditer(text):
            found.setdefault(match.group(1), set()).add(
                str(path.relative_to(ROOT))
            )
    return found


def declared_obs_kinds() -> Dict[str, Set[str]]:
    """Observability vocabulary declared (not emitted) in source.

    The timeline chain kinds, plus the profiler's synthetic attribution
    names: the ``KERNEL_OWNER`` fallback owner and the ``idle`` rows a
    bounded run records for clock advances past its last event.
    """
    found: Dict[str, Set[str]] = {}
    text = TIMELINE_PY.read_text(encoding="utf-8")
    block = CHAIN_KINDS_BLOCK.search(text)
    if not block:
        raise SystemExit(f"no TIMELINE_CHAIN_KINDS tuple in {TIMELINE_PY}")
    rel = str(TIMELINE_PY.relative_to(ROOT))
    for name in re.findall(r"['\"]([\w.-]+)['\"]", block.group(1)):
        found.setdefault(name, set()).add(rel)
    core = CORE_PY.read_text(encoding="utf-8")
    owner = KERNEL_OWNER_DECL.search(core)
    if not owner:
        raise SystemExit(f"no KERNEL_OWNER declaration in {CORE_PY}")
    rel = str(CORE_PY.relative_to(ROOT))
    found.setdefault(owner.group(1), set()).add(rel)
    if '"idle"' not in core and "'idle'" not in core:
        raise SystemExit(
            f"{CORE_PY} no longer records the synthetic 'idle' kind — "
            "update this checker alongside the profiler"
        )
    found.setdefault("idle", set()).add(rel)
    return found


def documented_kinds() -> Set[str]:
    """Every backticked token in the observability doc."""
    text = DOC.read_text(encoding="utf-8")
    return set(re.findall(r"`([^`\s]+)`", text))


def main() -> int:
    emitted = emitted_kinds()
    if not emitted:
        print("error: found no emit/span_begin call sites — checker broken?")
        return 2
    for kind, files in declared_obs_kinds().items():
        emitted.setdefault(kind, set()).update(files)
    documented = documented_kinds()
    missing = {k: v for k, v in emitted.items() if k not in documented}
    if missing:
        print(
            "trace kinds emitted in code but absent from "
            "docs/OBSERVABILITY.md:"
        )
        for kind, files in sorted(missing.items()):
            print(f"  {kind}  ({', '.join(sorted(files))})")
        return 1
    print(f"OK: all {len(emitted)} emitted trace kinds are documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
