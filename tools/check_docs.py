#!/usr/bin/env python3
"""Docs-structure check: reachability, CLI truth, and link integrity.

Three gates, all parsed statically from source and markdown so the
check runs dependency-free (no numpy, no package import):

1. **Reachability** — every file under ``docs/`` is linked from
   ``README.md`` or ``docs/INDEX.md``.  A doc nobody can navigate to is
   a doc nobody reads, and INDEX.md exists precisely to be the map.
2. **CLI truth** — every ``pckpt ...`` invocation in README/docs (inline
   code spans and fenced code blocks) names a real subcommand, and every
   ``--flag`` it passes is declared by that subcommand (or globally) in
   ``src/repro/cli.py``.  The subcommand/flag table is recovered from
   the argparse builder with ``ast``, so renaming a flag without
   updating the docs fails CI.
3. **Links** — every relative markdown link in README/docs resolves to
   an existing file or directory (anchors stripped).

Run by CI (both jobs) and directly: ``python tools/check_docs.py``.
Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
CLI_PY = ROOT / "src" / "repro" / "cli.py"
DOCS = ROOT / "docs"
README = ROOT / "README.md"
INDEX = DOCS / "INDEX.md"

#: Tokens that end a pckpt invocation inside a shell snippet.
SHELL_BREAK = {"|", "||", "&&", ";", ">", ">>", "<", "&", "#", "2>", "2>&1"}


# --------------------------------------------------------------------------
# CLI model, recovered from the argparse builder
# --------------------------------------------------------------------------

class CliModel:
    """Subcommand tree parsed from ``build_parser()``.

    ``commands`` maps a command path — ``("run",)`` or
    ``("campaign", "status")`` — to the set of option strings that command
    accepts.  ``global_flags`` are the root parser's options, legal
    before the subcommand.
    """

    def __init__(self) -> None:
        self.commands: Dict[Tuple[str, ...], Set[str]] = {}
        self.global_flags: Set[str] = set()

    def actions(self, command: str) -> Set[str]:
        return {path[1] for path in self.commands
                if len(path) == 2 and path[0] == command}


def _string(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _flag_names(call: ast.Call) -> Set[str]:
    """Option strings declared by one ``add_argument`` call."""
    flags = {s for arg in call.args
             if (s := _string(arg)) is not None and s.startswith("-")}
    for kw in call.keywords:
        # BooleanOptionalAction synthesizes the --no-X negative form.
        if kw.arg == "action" and isinstance(kw.value, ast.Attribute) \
                and kw.value.attr == "BooleanOptionalAction":
            flags |= {f.replace("--", "--no-", 1) for f in flags
                      if f.startswith("--")}
    return flags


def parse_cli_model(path: Path = CLI_PY) -> CliModel:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    builder = next(
        (n for n in tree.body
         if isinstance(n, ast.FunctionDef) and n.name == "build_parser"),
        None,
    )
    if builder is None:
        raise SystemExit(f"{path}: no build_parser() function found")

    model = CliModel()
    # var name -> command path ("" root, ("run",), ("campaign", "status")).
    parsers: Dict[str, Tuple[str, ...]] = {}
    # subparsers-collection var -> owning parser's path.
    groups: Dict[str, Tuple[str, ...]] = {}
    # helper function name -> flags it adds to its parser argument.
    helpers: Dict[str, Set[str]] = {}

    def record(path_key: Tuple[str, ...], flags: Set[str]) -> None:
        if path_key == ():
            model.global_flags |= flags
        else:
            model.commands.setdefault(path_key, set()).update(flags)

    for node in ast.walk(builder):
        if isinstance(node, ast.FunctionDef) and node is not builder:
            added: Set[str] = set()
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "add_argument"):
                    added |= _flag_names(inner)
            helpers[node.name] = added

    for node in ast.walk(builder):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            target = node.targets[0]
            if not (isinstance(target, ast.Name) and len(node.targets) == 1):
                continue
            func = call.func
            if isinstance(func, ast.Call):  # argparse.ArgumentParser(...)
                continue
            if isinstance(func, ast.Attribute):
                owner = func.value
                owner_name = owner.id if isinstance(owner, ast.Name) else None
                if func.attr == "ArgumentParser":
                    parsers[target.id] = ()
                elif func.attr == "add_subparsers" and owner_name in parsers:
                    groups[target.id] = parsers[owner_name]
                elif func.attr == "add_parser" and owner_name in groups:
                    name = _string(call.args[0]) if call.args else None
                    if name:
                        path_key = groups[owner_name] + (name,)
                        parsers[target.id] = path_key
                        model.commands.setdefault(path_key, set())
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (node.func.attr == "add_argument"
                    and isinstance(owner, ast.Name) and owner.id in parsers):
                record(parsers[owner.id], _flag_names(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in helpers and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Name) and arg.id in parsers:
                    record(parsers[arg.id], helpers[node.func.id])
    return model


# --------------------------------------------------------------------------
# Markdown extraction
# --------------------------------------------------------------------------

FENCE = re.compile(r"^(```|~~~)")
INLINE_CODE = re.compile(r"`([^`]+)`")
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def code_snippets(text: str) -> List[str]:
    """All code content: fenced-block logical lines + inline spans.

    Backslash continuations inside fenced blocks are joined so a
    multi-line ``pckpt`` invocation is checked as one command.
    """
    snippets: List[str] = []
    in_fence = False
    pending = ""
    for line in text.splitlines():
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            pending = ""
            continue
        if in_fence:
            joined = pending + line.strip()
            if joined.endswith("\\"):
                pending = joined[:-1] + " "
                continue
            pending = ""
            if joined:
                snippets.append(joined)
        else:
            snippets.extend(m.group(1) for m in INLINE_CODE.finditer(line))
    return snippets


def prose(text: str) -> str:
    """Markdown *text* with fenced blocks and inline code spans removed.

    Link checking must not fire on code like ``callbacks[0](event)``,
    which is indexing + a call, not a markdown link.
    """
    lines = []
    in_fence = False
    for line in text.splitlines():
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            lines.append(INLINE_CODE.sub("", line))
    return "\n".join(lines)


def pckpt_invocations(snippet: str) -> List[List[str]]:
    """Token lists following each ``pckpt`` in one code snippet."""
    tokens = snippet.split()
    calls: List[List[str]] = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "pckpt":
            args: List[str] = []
            for tok in tokens[i + 1:]:
                if tok in SHELL_BREAK or tok == "pckpt":
                    break
                args.append(tok)
            calls.append(args)
        i += 1
    return calls


def check_invocation(args: List[str], model: CliModel) -> List[str]:
    """Violations for one tokenized ``pckpt ...`` invocation."""
    problems: List[str] = []
    allowed = set(model.global_flags)
    path: Tuple[str, ...] = ()
    expect_command = True
    for tok in args:
        tok = tok.strip("\"'")
        if tok.startswith("--"):
            flag = tok.split("=", 1)[0]
            if flag not in allowed:
                where = " ".join(path) or "global scope"
                problems.append(f"unknown flag {flag} for `pckpt {where}`"
                                if path else
                                f"unknown global flag {flag}")
            continue
        if tok.startswith("-") or not expect_command:
            continue  # flag value, positional, or placeholder
        if not re.fullmatch(r"[a-z][a-z-]*", tok):
            continue  # global-flag value like `40`, or a placeholder
        candidate = path + (tok,)
        if candidate in model.commands:
            path = candidate
            allowed |= model.commands[candidate]
            expect_command = bool(model.actions(tok)) and len(path) == 1
        elif path == ():
            problems.append(f"unknown subcommand `pckpt {tok}`")
            return problems
        else:
            problems.append(
                f"unknown action `{tok}` for `pckpt {path[0]}` "
                f"(have: {', '.join(sorted(model.actions(path[0])))})"
            )
            return problems
    return problems


# --------------------------------------------------------------------------
# Gates
# --------------------------------------------------------------------------

def check_reachability() -> List[str]:
    linked: Set[str] = set()
    for source in (README, INDEX):
        if not source.exists():
            return [f"{source.relative_to(ROOT)} is missing"]
        for match in LINK.finditer(prose(source.read_text(encoding="utf-8"))):
            target = match.group(1).split("#", 1)[0]
            if target:
                resolved = (source.parent / target).resolve()
                linked.add(str(resolved))
    problems = []
    for doc in sorted(DOCS.glob("*.md")):
        if doc == INDEX:
            continue
        if str(doc.resolve()) not in linked:
            problems.append(
                f"docs/{doc.name} is not linked from README.md or "
                "docs/INDEX.md — add it to the INDEX.md map"
            )
    return problems


def check_links() -> List[str]:
    problems = []
    for source in [README, *sorted(DOCS.glob("*.md"))]:
        text = prose(source.read_text(encoding="utf-8"))
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            if not (source.parent / rel).exists():
                problems.append(
                    f"{source.relative_to(ROOT)}: broken relative link "
                    f"({target})"
                )
    return problems


def check_cli_invocations(model: CliModel) -> List[str]:
    problems = []
    for source in [README, *sorted(DOCS.glob("*.md"))]:
        text = source.read_text(encoding="utf-8")
        for snippet in code_snippets(text):
            if "pckpt" not in snippet:
                continue
            for args in pckpt_invocations(snippet):
                for problem in check_invocation(args, model):
                    problems.append(
                        f"{source.relative_to(ROOT)}: {problem} "
                        f"(in `{snippet[:70]}`)"
                    )
    return problems


def main() -> int:
    model = parse_cli_model()
    if not model.commands:
        print("check_docs: failed to recover any subcommands from cli.py",
              file=sys.stderr)
        return 1
    problems = (
        check_reachability() + check_links() + check_cli_invocations(model)
    )
    if problems:
        print(f"check_docs: {len(problems)} problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    docs = len(list(DOCS.glob('*.md')))
    print(f"check_docs: OK ({docs} docs, {len(model.commands)} CLI commands "
          f"cross-checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
