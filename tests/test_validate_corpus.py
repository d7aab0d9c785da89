"""Replay the committed regression corpus (``tests/corpus/``).

Every file in the corpus is a shrunk reproducer for a bug the
differential fuzzer once caught.  The fixed kernel must replay each one
with zero divergences and zero invariant violations, forever — this is
the test that turns a one-off fuzzer catch into a permanent regression
guard.  Also covers the save/load plumbing itself.
"""

from __future__ import annotations

import json

import pytest

from repro.validate import (
    default_corpus_dir,
    generate_scenario,
    load_corpus,
    resolve_backends,
    save_case,
    validate_scenario,
)

CORPUS = load_corpus(default_corpus_dir())


class TestCommittedCorpus:
    def test_corpus_is_not_empty(self):
        assert CORPUS, (
            "tests/corpus/ must hold at least the PriorityResource "
            "tie-break reproducer"
        )

    @pytest.mark.parametrize(
        "path,scenario,payload",
        CORPUS,
        ids=[path.name for path, _, _ in CORPUS],
    )
    def test_reproducer_replays_clean_on_fixed_kernel(
        self, path, scenario, payload
    ):
        backends = resolve_backends(["fast", "step"])
        assert validate_scenario(scenario, backends) == [], (
            f"{path.name} diverges again — a fixed bug has regressed"
        )

    @pytest.mark.parametrize(
        "path,scenario,payload",
        CORPUS,
        ids=[path.name for path, _, _ in CORPUS],
    )
    def test_corpus_file_is_well_formed(self, path, scenario, payload):
        assert set(payload) == {"scenario", "violations", "note"}
        assert payload["note"], "each reproducer must document its provenance"
        assert payload["violations"], (
            "each reproducer must record the violations that condemned it"
        )
        # File name is content-addressed on the scenario.
        assert path.name.startswith(f"case-{scenario.seed}-")


class TestCorpusPlumbing:
    def test_save_is_idempotent_and_content_addressed(self, tmp_path):
        sc = generate_scenario(42)
        first = save_case(tmp_path, sc, ["divergence"], note="test")
        second = save_case(tmp_path, sc, ["divergence"], note="test")
        assert first == second
        assert list(tmp_path.glob("*.json")) == [first]
        assert first.name.startswith("case-42-")

    def test_roundtrip_through_disk(self, tmp_path):
        sc = generate_scenario(7)
        save_case(tmp_path, sc, ["boom"], note="why")
        [(path, loaded, payload)] = load_corpus(tmp_path)
        assert loaded == sc
        assert payload["violations"] == ["boom"]
        assert payload["note"] == "why"
        # The on-disk form is canonical JSON (sorted keys, trailing \n).
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == payload

    def test_load_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_default_corpus_dir_points_into_the_repo(self):
        d = default_corpus_dir()
        assert d.name == "corpus" and d.parent.name == "tests"
