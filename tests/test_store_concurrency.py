"""Cross-process concurrency stress tests for the ResultStore.

The service layer runs many jobs against one shared store — and a local
``pckpt run --store`` may race a ``pckpt campaign clear`` or a second
service on the same directory.  These tests hammer the store with
**real processes** (not threads) to pin down the hardening documented
in the module docstring of :mod:`repro.campaign.store`:

* same-key writers never produce a torn or partially-visible entry;
* readers racing writers and ``clear`` see either a whole entry or a
  clean miss, never an exception;
* ``put`` survives its fan-out directory being removed mid-write;
* concurrent store initialization on a fresh directory is safe.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys

import pytest

from repro.analysis.metrics import FTStats, OverheadBreakdown
from repro.campaign.store import ResultStore, result_to_dict
from repro.experiments.runner import SimulationResult

#: A key with the 2-hex fan-out prefix every writer below shares.
KEY = "ab" + "0" * 62


def make_result(tag: int) -> SimulationResult:
    """A small deterministic result; *tag* varies the payload bytes."""
    return SimulationResult(
        app_name="XGC",
        model_name="P2",
        replications=1,
        overhead=OverheadBreakdown(
            checkpoint=float(tag), recomputation=1.5, recovery=0.25
        ),
        overhead_std=0.125,
        makespan_seconds=3600.0 + tag,
        ft=FTStats(failures=tag, mitigated_pckpt=1),
        oci_initial=100.0,
        oci_final=90.0,
    )


# -- worker functions (top level: must be picklable for spawn) --------------
def _writer(root: str, tag: int, rounds: int) -> None:
    store = ResultStore(root)
    result = make_result(tag)
    for _ in range(rounds):
        store.put(KEY, result, meta={"writer": tag})


def _same_bytes_writer(root: str, rounds: int) -> None:
    # Deterministic-result regime: every writer carries identical bytes
    # (the regime concurrent service jobs are actually in).
    store = ResultStore(root)
    result = make_result(0)
    for _ in range(rounds):
        store.put(KEY, result)


def _reader(root: str, rounds: int, queue) -> None:
    store = ResultStore(root)
    seen = 0
    try:
        for _ in range(rounds):
            result = store.get(KEY)
            if result is not None:
                # A torn entry would have blown up inside get(); a
                # whole one must round-trip to a known payload.
                assert result.app_name == "XGC"
                seen += 1
            store.get_meta(KEY)
            store.stats()
    except BaseException as exc:  # pragma: no cover - failure path
        queue.put(f"{type(exc).__name__}: {exc}")
        return
    queue.put(seen)


def _clearer(root: str, rounds: int) -> None:
    store = ResultStore(root)
    for _ in range(rounds):
        store.clear()


def _initializer(root: str, queue) -> None:
    try:
        ResultStore(root)
    except BaseException as exc:  # pragma: no cover - failure path
        queue.put(f"{type(exc).__name__}: {exc}")
        return
    queue.put("ok")


def _run(procs, timeout: float = 120.0) -> None:
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout)
    for p in procs:
        assert not p.is_alive(), "stress process hung"
        assert p.exitcode == 0, f"stress process died with {p.exitcode}"


@pytest.fixture
def ctx():
    # fork keeps the stress cheap on Linux; spawn elsewhere.
    method = "fork" if sys.platform.startswith("linux") else "spawn"
    return mp.get_context(method)


class TestSameKeyWriters:
    def test_two_processes_same_key_never_torn(self, tmp_path, ctx):
        """The headline race: two real processes, one key, many writes."""
        root = str(tmp_path / "store")
        ResultStore(root)  # pre-create so readers never miss on schema
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_same_bytes_writer, args=(root, 200)),
            ctx.Process(target=_same_bytes_writer, args=(root, 200)),
            ctx.Process(target=_reader, args=(root, 400, queue)),
        ]
        _run(procs)
        seen = queue.get(timeout=10)
        assert isinstance(seen, int), f"reader failed: {seen}"
        # The winning entry is whole and canonical.
        store = ResultStore(root)
        final = store.get(KEY)
        assert result_to_dict(final) == result_to_dict(make_result(0))
        assert store.get_meta(KEY) == {}

    def test_divergent_writers_last_replace_wins_whole(self, tmp_path, ctx):
        root = str(tmp_path / "store")
        ResultStore(root)
        procs = [
            ctx.Process(target=_writer, args=(root, tag, 150))
            for tag in (1, 2, 3)
        ]
        _run(procs)
        store = ResultStore(root)
        final = store.get(KEY)
        # One of the writers won — wholly: payload and meta agree.
        tag = int(final.ft.failures)
        assert tag in (1, 2, 3)
        assert result_to_dict(final) == result_to_dict(make_result(tag))
        assert store.get_meta(KEY) == {"writer": tag}
        # No staging files survive the stampede.
        assert list(store.root.glob("??/*.tmp")) == []


class TestPutVsClear:
    def test_put_survives_concurrent_clear(self, tmp_path, ctx):
        """clear() rmdir-ing the fan-out dir mid-put must not crash put."""
        root = str(tmp_path / "store")
        ResultStore(root)
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_writer, args=(root, 7, 300)),
            ctx.Process(target=_clearer, args=(root, 300)),
            ctx.Process(target=_reader, args=(root, 300, queue)),
        ]
        _run(procs)
        seen = queue.get(timeout=10)
        assert isinstance(seen, int), f"reader failed: {seen}"
        # The store is in one of its two legal end states.
        store = ResultStore(root)
        final = store.get(KEY)
        if final is not None:
            assert result_to_dict(final) == result_to_dict(make_result(7))


    def test_clear_removes_only_stale_staging_files(self, tmp_path):
        """A live writer's temp file survives clear; a killed one's goes."""
        import os

        from repro.campaign.store import STALE_TMP_SECONDS

        store = ResultStore(str(tmp_path / "store"))
        fanout = store.root / "ab"
        fanout.mkdir()
        live, dead = fanout / "live.tmp", fanout / "dead.tmp"
        live.write_text("{}")
        dead.write_text("{}")
        old = dead.stat().st_mtime - STALE_TMP_SECONDS - 1.0
        os.utime(dead, (old, old))
        store.clear()
        assert live.exists() and not dead.exists()


class TestConcurrentInit:
    def test_many_processes_open_fresh_store(self, tmp_path, ctx):
        root = str(tmp_path / "store")
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_initializer, args=(root, queue))
            for _ in range(8)
        ]
        _run(procs)
        outcomes = [queue.get(timeout=10) for _ in range(8)]
        assert outcomes == ["ok"] * 8
        schema = json.loads((tmp_path / "store" / "schema.json").read_text())
        assert schema == {"schema_version": 1}
