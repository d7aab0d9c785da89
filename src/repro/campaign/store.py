"""Content-addressed, on-disk store for per-cell campaign results.

One entry per grid cell, keyed by the cell's configuration hash (see
:mod:`repro.campaign.plan`).  Entries hold the cell's aggregate — a
:class:`~repro.experiments.runner.SimulationResult` or a
:class:`~repro.sched.engine.SchedResult` — serialized to JSON.
Python's ``repr``-based float serialization round-trips exactly (shortest
round-trip representation), so a result read back from the store is
**bit-identical** to the one that was written — the property the campaign
scheduler's cache-hit path relies on.

Layout (see ``docs/CAMPAIGN.md``)::

    <root>/
      schema.json            {"schema_version": N}
      ab/<64-hex-key>.json   one cell result (2-hex fan-out directories)

Writes are atomic (temp file + ``os.replace``), so an interrupted
campaign never leaves a torn entry: a cell is either fully persisted or
absent, and resuming simply recomputes the absent ones.

Concurrency
-----------
The store is safe under concurrent writers **across processes** (the
regime ``repro.service`` runs it in: many jobs sharing one store):

* two writers racing on the same key each stage a private temp file and
  ``os.replace`` it over the entry — the last replace wins whole, and
  because results are deterministic both writers carry identical bytes;
* readers never observe a torn entry (``os.replace`` is atomic), and
  :meth:`ResultStore.get`/:meth:`ResultStore.stats` tolerate entries
  vanishing mid-scan (a concurrent ``clear``) instead of crashing;
* :meth:`ResultStore.put` re-creates its fan-out directory if a
  concurrent ``clear`` removed it between ``mkdir`` and the temp-file
  creation;
* :meth:`ResultStore.clear` removes only temp files older than
  :data:`STALE_TMP_SECONDS`, the leftovers of killed writers: a live
  writer's temp file vanishing before its ``os.replace`` would fail the
  write.

``tests/test_store_concurrency.py`` stress-tests exactly these races
with real processes.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Union

from ..analysis.metrics import FTStats, OverheadBreakdown
from ..des.metrics import MetricsRegistry
from ..experiments.runner import SimulationResult

if TYPE_CHECKING:  # imported where a sched result is decoded
    from ..sched.engine import SchedResult

#: Age past which a ``??/*.tmp`` staging file is a killed writer's
#: leftover; a live ``put`` holds its own for milliseconds.
STALE_TMP_SECONDS = 60.0

#: What a store entry can hold: a Monte-Carlo aggregate or a batch-queue
#: schedule aggregate (the two cell families of a campaign plan).
StoredResult = Union[SimulationResult, "SchedResult"]

__all__ = [
    "SCHEMA_VERSION",
    "StoreSchemaError",
    "StoredResult",
    "ResultStore",
    "result_to_dict",
    "result_from_dict",
    "status_payload",
]

#: On-disk schema version.  Bump whenever the serialized result layout,
#: the cache-key canonicalization, or the simulation outputs change
#: incompatibly.  The version is hashed into every cache key (so stale
#: entries can never be hit) *and* written to ``schema.json`` (so
#: ``tools/check_schemas.py --store`` can reject a stale store outright).
SCHEMA_VERSION = 1


class StoreSchemaError(RuntimeError):
    """An on-disk store's schema version does not match the code's."""


def result_to_dict(result: StoredResult) -> Dict:
    """Serialize a result to a JSON-friendly dict.

    Sched results carry a ``"sched": True`` marker so
    :func:`result_from_dict` can reconstruct the right type; the
    simulation-result layout is exactly what it always was, so existing
    store entries keep their bytes (and their keys).
    """
    if not isinstance(result, SimulationResult):
        return {
            "sched": True,
            "policy": result.policy,
            "jobs": result.jobs,
            "replications": result.replications,
            "makespan_seconds": result.makespan_seconds,
            "utilization": result.utilization,
            "wait_mean_seconds": result.wait_mean_seconds,
            "wait_p95_seconds": result.wait_p95_seconds,
            "wait_max_seconds": result.wait_max_seconds,
            "starved": result.starved,
            "ft": asdict(result.ft),
            "per_job": list(result.per_job),
        }
    return {
        "app_name": result.app_name,
        "model_name": result.model_name,
        "replications": result.replications,
        "overhead": asdict(result.overhead),
        "overhead_std": result.overhead_std,
        "makespan_seconds": result.makespan_seconds,
        "ft": asdict(result.ft),
        "oci_initial": result.oci_initial,
        "oci_final": result.oci_final,
        "metrics": result.metrics.snapshot() if result.metrics is not None else None,
    }


def result_from_dict(payload: Dict) -> StoredResult:
    """Reconstruct a result from its :func:`result_to_dict` form.

    JSON round-trips every float exactly (shortest-repr serialization),
    so the reconstructed result is bit-identical for both families.
    """
    if payload.get("sched"):
        from ..sched.engine import SchedResult

        return SchedResult(
            policy=payload["policy"],
            jobs=payload["jobs"],
            replications=payload["replications"],
            makespan_seconds=payload["makespan_seconds"],
            utilization=payload["utilization"],
            wait_mean_seconds=payload["wait_mean_seconds"],
            wait_p95_seconds=payload["wait_p95_seconds"],
            wait_max_seconds=payload["wait_max_seconds"],
            starved=payload["starved"],
            ft=FTStats(**payload["ft"]),
            per_job=tuple(dict(e) for e in payload["per_job"]),
        )
    metrics = payload.get("metrics")
    return SimulationResult(
        app_name=payload["app_name"],
        model_name=payload["model_name"],
        replications=payload["replications"],
        overhead=OverheadBreakdown(**payload["overhead"]),
        overhead_std=payload["overhead_std"],
        makespan_seconds=payload["makespan_seconds"],
        ft=FTStats(**payload["ft"]),
        oci_initial=payload["oci_initial"],
        oci_final=payload["oci_final"],
        metrics=MetricsRegistry.from_snapshot(metrics) if metrics is not None else None,
    )


class ResultStore:
    """Directory-backed map from cache key to cell result.

    Parameters
    ----------
    root:
        Store directory; created (with ``schema.json``) if missing.

    Opening an existing store whose recorded schema version differs from
    :data:`SCHEMA_VERSION` raises :class:`StoreSchemaError` — clear the
    store (``pckpt campaign clear``) or keep the old code to read it.
    """

    _SCHEMA_FILE = "schema.json"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        schema_path = self.root / self._SCHEMA_FILE
        if schema_path.exists():
            on_disk = json.loads(schema_path.read_text(encoding="utf-8"))
            found = on_disk.get("schema_version")
            if found != SCHEMA_VERSION:
                raise StoreSchemaError(
                    f"store {self.root} has schema version {found!r}, "
                    f"code expects {SCHEMA_VERSION} — clear the store or "
                    f"use a matching code version"
                )
        else:
            self._write_atomic(
                schema_path, {"schema_version": SCHEMA_VERSION}
            )

    # -- paths ---------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Entry path for *key* (2-hex fan-out keeps directories small)."""
        if len(key) < 3:
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    # -- mapping protocol ----------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str) -> Optional[StoredResult]:
        """The stored result for *key*, or ``None`` on a cache miss.

        A concurrent ``clear`` may unlink the entry between the
        existence check and the read; that is a cache miss, not an
        error.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        return result_from_dict(payload["result"])

    def get_meta(self, key: str) -> Optional[Dict]:
        """The descriptive metadata stored alongside *key*'s result."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        return payload.get("meta", {})

    def put(self, key: str, result: StoredResult,
            meta: Optional[Dict] = None) -> Path:
        """Persist *result* under *key* atomically; returns the entry path.

        Concurrent writers of the same key are safe: each stages a
        private temp file and the last atomic replace wins whole.  A
        concurrent ``clear`` removing the fan-out directory between our
        ``mkdir`` and the temp-file creation is retried with a fresh
        ``mkdir``.
        """
        path = self.path_for(key)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "meta": meta or {},
            "result": result_to_dict(result),
        }
        for attempt in range(8):
            try:
                # mkdir(exist_ok=True) can still raise FileExistsError
                # under a concurrent rmdir: it rechecks is_dir() after
                # the failed mkdir, and the directory may be gone again
                # by then.  Both races are retryable.
                path.parent.mkdir(parents=True, exist_ok=True)
                self._write_atomic(path, payload)
                return path
            except (FileNotFoundError, FileExistsError):
                # The fan-out dir vanished under us (concurrent clear);
                # re-create it and stage again.
                if attempt == 7:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _write_atomic(path: Path, payload: Dict) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            # json.dumps runs the C encoder; json.dump to a file would
            # encode node by node in Python.  The bytes are the same.
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                fp.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def telemetry_path(self) -> Path:
        """Location of the live telemetry feed ``run_campaign`` streams
        next to this store's results (``pckpt top`` tails it)."""
        from ..obs.telemetry import TELEMETRY_FILENAME

        return self.root / TELEMETRY_FILENAME

    # -- maintenance ---------------------------------------------------------
    @staticmethod
    def _scan(root: Path, pattern: str) -> List[Path]:
        """Snapshot of ``root.glob(pattern)`` that survives a concurrent
        ``clear``: pathlib's lazy glob scandirs each fan-out directory
        after listing it, and only suppresses PermissionError — a
        directory rmdir'd in that window raises FileNotFoundError out of
        the iterator.  A vanished directory is an empty one.
        """
        for _ in range(3):
            try:
                return list(root.glob(pattern))
            except FileNotFoundError:
                continue
        return []

    def keys(self) -> Iterator[str]:
        """All cached cell keys (sorted for stable iteration)."""
        for path in sorted(self._scan(self.root, "??/*.json")):
            yield path.stem

    def stats(self) -> Dict[str, object]:
        """Summary counters for ``pckpt campaign status``.

        Entries unlinked by a concurrent ``clear`` mid-scan are skipped.
        """
        cells = 0
        size = 0
        replications = 0
        for path in self._scan(self.root, "??/*.json"):
            try:
                size += path.stat().st_size
                payload = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                continue
            cells += 1
            replications += payload["result"].get("replications", 0)
        return {
            "path": str(self.root),
            "schema_version": SCHEMA_VERSION,
            "cells": cells,
            "replications": replications,
            "bytes": size,
        }

    def clear(self) -> int:
        """Delete every entry (keeps ``schema.json``); returns count removed.

        Safe against concurrent writers: entries another process already
        removed are skipped, a staging file younger than
        :data:`STALE_TMP_SECONDS` (a live writer's) is left alone, and a
        fan-out directory refilled between the emptiness check and
        ``rmdir`` is left alone.
        """
        removed = 0
        for path in self._scan(self.root, "??/*.json"):
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed += 1
        stale = time.time() - STALE_TMP_SECONDS
        for stray in self._scan(self.root, "??/*.tmp"):
            try:  # staging files left behind by killed writers
                if stray.stat().st_mtime < stale:
                    stray.unlink()
            except FileNotFoundError:
                continue
        for sub in self._scan(self.root, "??"):
            try:
                sub.rmdir()  # only succeeds when (still) empty
            except OSError:
                continue
        return removed

    @classmethod
    def exists(cls, root: Union[str, Path]) -> bool:
        """Whether *root* holds a store (has its ``schema.json``)."""
        return (Path(root) / cls._SCHEMA_FILE).is_file()

    @classmethod
    def wipe(cls, root: Union[str, Path]) -> int:
        """Delete every entry under *root* and reset ``schema.json`` to the
        code's version, **without** validating the recorded schema — the
        recovery path for a store left behind by an older code version
        (constructing :class:`ResultStore` on such a store raises).
        Returns the number of entries removed.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        removed = 0
        for path in list(root.glob("??/*.json")):
            path.unlink()
            removed += 1
        for sub in list(root.glob("??")):
            if sub.is_dir() and not any(sub.iterdir()):
                sub.rmdir()
        cls._write_atomic(
            root / cls._SCHEMA_FILE, {"schema_version": SCHEMA_VERSION}
        )
        return removed

    def __len__(self) -> int:
        return len(self._scan(self.root, "??/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore {self.root} cells={len(self)}>"


def status_payload(store: ResultStore) -> Dict[str, object]:
    """Machine-readable campaign-store status (one JSON-ready dict).

    The single source behind every status surface: ``pckpt campaign
    status --json`` prints exactly this, and the service's
    ``GET /v1/status`` embeds it as its ``store`` block — so scripts
    parse one shape regardless of how they reached the store.

    Keys: ``store`` (the :meth:`ResultStore.stats` counters) and
    ``telemetry`` (the latest snapshot of the store-level feed, or
    ``None`` when no campaign has streamed one).
    """
    from ..obs.telemetry import latest_snapshot

    return {
        "store": store.stats(),
        "telemetry": latest_snapshot(str(store.telemetry_path())),
    }
