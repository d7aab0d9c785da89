"""Tests for ``tools/check_docs.py`` — the docs-structure CI gate.

Three claims: (1) the CLI model recovered from the argparse builder by
static analysis matches the real parser, (2) the invocation checker
catches the mutation classes it exists for (unknown subcommand, unknown
flag, unknown action), and (3) the repository's own docs currently pass
the whole check — so the gate is green at every commit, by test.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_docs.py"

spec = importlib.util.spec_from_file_location("check_docs", TOOL)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


@pytest.fixture(scope="module")
def model():
    return check_docs.parse_cli_model()


class TestCliModelRecovery:
    def test_matches_the_real_parser(self, model):
        from repro.cli import build_parser

        parser = build_parser()
        sub_actions = [a for a in parser._actions
                       if hasattr(a, "choices") and a.choices]
        real_commands = set(sub_actions[0].choices)
        recovered = {p[0] for p in model.commands}
        assert recovered == real_commands

    def test_nested_campaign_actions(self, model):
        assert model.actions("campaign") == {"status", "clear"}

    def test_per_command_flags(self, model):
        timeline = model.commands[("timeline",)]
        assert {"--distribution", "--input", "--limit", "--jsonl"} <= timeline
        assert {"--metrics", "--trace"} <= model.commands[("run",)]
        assert "--metrics" not in timeline

    def test_boolean_optional_action_negative_form(self, model):
        run = model.commands[("run",)]
        assert {"--resume", "--no-resume"} <= run

    def test_helper_added_client_flags(self, model):
        for command in ("submit", "jobs", "watch", "shutdown"):
            assert {"--host", "--port", "--token"} <= \
                model.commands[(command,)], command


class TestInvocationChecker:
    def check(self, line, model):
        (args,) = check_docs.pckpt_invocations(line)
        return check_docs.check_invocation(args, model)

    def test_valid_invocations_pass(self, model):
        for line in (
            "pckpt timeline XGC P2 --limit 10 --jsonl /tmp/x.jsonl",
            "pckpt --replications 2 run XGC P2 --metrics --jobs 1",
            "pckpt run --spec examples/specs/quickstart.json --no-resume",
            "PYTHONPATH=src pckpt validate --seed 0 --cases 50",
        ):
            assert self.check(line, model) == [], line

    def test_unknown_subcommand_caught(self, model):
        for line in ("pckpt frobnicate --x", "pckpt bench --quick"):
            assert self.check(line, model), line

    def test_unknown_flag_caught(self, model):
        problems = self.check("pckpt timeline XGC P2 --warmup 3", model)
        assert problems and "--warmup" in problems[0]

    def test_unknown_action_caught(self, model):
        problems = self.check("pckpt campaign destroy --store /tmp", model)
        assert problems and "destroy" in problems[0]

    def test_shell_operators_end_the_invocation(self, model):
        snippet = "pckpt jobs --json | tee --append /tmp/log"
        assert self.check(snippet, model) == []  # tee's flag not pckpt's

    def test_multiline_continuations_join(self):
        text = "```bash\npckpt timeline XGC P2 \\\n    --limit 10\n```\n"
        snippets = check_docs.code_snippets(text)
        assert len(snippets) == 1
        assert snippets[0].split() == ["pckpt", "timeline", "XGC", "P2",
                                       "--limit", "10"]

    def test_code_outside_links_not_treated_as_links(self):
        assert check_docs.LINK.search(
            check_docs.prose("dispatches `callbacks[0](event)` inline")
        ) is None


class TestRepositoryDocs:
    def test_whole_repo_passes(self):
        result = subprocess.run(
            [sys.executable, str(TOOL)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
