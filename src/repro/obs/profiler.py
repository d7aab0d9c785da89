"""Attribution profiler for the DES kernel.

:class:`KernelProfiler` answers "where did the time go?" with exact
per-process and per-event-kind accounting of both *simulated* time and
*wall-clock* time spent dispatching events.  The kernel hooks live in
:mod:`repro.des.core`: when a profiler is attached, ``Environment.run``'s
dispatch loop takes its timed branch, and ``Environment.step`` records
the same attribution per event — so every ``until`` mode of the run loop
and manual stepping produce identical attributions for the same
schedule.

Attribution model
-----------------
Each dispatched event contributes one sample keyed ``(owner, kind)``:

``owner``
    The ``name`` string of the object whose bound method is the event's
    first callback — the :class:`~repro.des.process.Process` that was
    *waiting on* the event, or a named callback owner such as
    :class:`~repro.cr.drain.DrainManager` — or
    :data:`~repro.des.core.KERNEL_OWNER` (``"kernel"``) for condition
    checks, bare events, and clock idle advances.
``kind``
    The event's class name (``Timeout``, ``Initialize``, ``StoreGet``, …),
    plus the synthetic ``idle`` kind for clock advances past the last
    event of a bounded run.

and carries three columns:

``count``   dispatches (sums to ``Environment.events_processed``),
``sim``     clock delta from before the pop to after the callbacks, so a
            callback's ``Environment.advance`` counts toward its event
            (sums to ``now - initial_time`` *exactly* — this is the
            accounting identity the acceptance tests pin against
            :class:`~repro.analysis.metrics.OverheadBreakdown`),
``wall``    perf-counter seconds inside callback dispatch (sums to
            slightly less than ``Environment.wall_seconds``, which also
            covers heap pops and loop bookkeeping).

Determinism: ``count`` and ``sim`` are pure functions of the schedule and
therefore bit-identical across runs and across the four dispatch paths;
``wall`` is measurement and varies.

Exports: :meth:`KernelProfiler.collapsed_stacks` emits Brendan-Gregg
collapsed-stack lines (``owner;kind value``) consumable by any flamegraph
renderer, and :func:`repro.des.monitor.Trace.to_chrome_trace` accepts a
profiler to add per-owner tracks to the Chrome trace.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from ..des.core import KERNEL_OWNER

__all__ = ["KernelProfiler", "ProfileEntry", "PROFILE_SCHEMA_VERSION", "PROFILE_KIND"]

#: Schema version of the JSON payload written by :meth:`KernelProfiler.to_json`.
PROFILE_SCHEMA_VERSION: int = 1

#: Payload discriminator, mirroring the bench harness convention.
PROFILE_KIND: str = "pckpt-profile"


class ProfileEntry:
    """One ``(owner, kind)`` attribution row."""

    __slots__ = ("owner", "kind", "count", "wall_seconds", "sim_seconds")

    def __init__(
        self, owner: str, kind: str, count: int, wall_seconds: float, sim_seconds: float
    ) -> None:
        self.owner = owner
        self.kind = kind
        self.count = count
        self.wall_seconds = wall_seconds
        self.sim_seconds = sim_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileEntry({self.owner!r}, {self.kind!r}, count={self.count}, "
            f"wall={self.wall_seconds:.6f}, sim={self.sim_seconds:.6f})"
        )


class KernelProfiler:
    """Accumulates per-``(owner, kind)`` attribution samples.

    The kernel calls :meth:`record` once per dispatched event; everything
    else here is read-side aggregation and export.  A single profiler may
    be attached to several environments in sequence (attributions
    accumulate) — call :meth:`reset` between measurements instead of
    re-allocating if identity matters to the caller.
    """

    __slots__ = ("_acc",)

    def __init__(self) -> None:
        # (owner, kind) -> [count, wall_seconds, sim_seconds]
        self._acc: Dict[Tuple[str, str], List[float]] = {}

    # -- recording (hot when attached) -----------------------------------
    def record(self, owner: str, kind: str, wall: float, sim: float) -> None:
        """Add one sample.  Called by the kernel per dispatched event."""
        key = (owner, kind)
        entry = self._acc.get(key)
        if entry is None:
            self._acc[key] = [1, wall, sim]
        else:
            entry[0] += 1
            entry[1] += wall
            entry[2] += sim

    def merge(self, other: "KernelProfiler") -> None:
        """Fold *other*'s samples into this profiler (deterministic sums)."""
        for key, (count, wall, sim) in other._acc.items():
            entry = self._acc.get(key)
            if entry is None:
                self._acc[key] = [count, wall, sim]
            else:
                entry[0] += count
                entry[1] += wall
                entry[2] += sim

    def reset(self) -> None:
        """Drop all samples."""
        self._acc.clear()

    # -- aggregation ------------------------------------------------------
    def entries(self) -> List[ProfileEntry]:
        """All rows, sorted by descending wall time then owner/kind."""
        rows = [
            ProfileEntry(owner, kind, int(c), w, s)
            for (owner, kind), (c, w, s) in self._acc.items()
        ]
        rows.sort(key=lambda e: (-e.wall_seconds, e.owner, e.kind))
        return rows

    def by_kind(self) -> Dict[str, ProfileEntry]:
        """Rows aggregated over owners, keyed by event kind."""
        out: Dict[str, ProfileEntry] = {}
        for (owner, kind), (c, w, s) in sorted(self._acc.items()):
            entry = out.get(kind)
            if entry is None:
                out[kind] = ProfileEntry(KERNEL_OWNER, kind, int(c), w, s)
            else:
                entry.count += int(c)
                entry.wall_seconds += w
                entry.sim_seconds += s
        return out

    def by_owner(self) -> Dict[str, ProfileEntry]:
        """Rows aggregated over kinds, keyed by owning process name."""
        out: Dict[str, ProfileEntry] = {}
        for (owner, kind), (c, w, s) in sorted(self._acc.items()):
            entry = out.get(owner)
            if entry is None:
                out[owner] = ProfileEntry(owner, "*", int(c), w, s)
            else:
                entry.count += int(c)
                entry.wall_seconds += w
                entry.sim_seconds += s
        return out

    def total_count(self) -> int:
        """Total dispatched events (== ``Environment.events_processed``),
        excluding synthetic ``idle`` rows which are clock advances, not
        event dispatches."""
        return sum(
            int(c) for (owner, kind), (c, _, _) in self._acc.items() if kind != "idle"
        )

    def total_wall_seconds(self) -> float:
        """Total attributed wall seconds (≤ ``Environment.wall_seconds``)."""
        return sum(w for _, w, _ in self._acc.values())

    def total_sim_seconds(self) -> float:
        """Total attributed simulated seconds (== ``now - initial_time``)."""
        return sum(s for _, _, s in self._acc.values())

    # -- export -----------------------------------------------------------
    def collapsed_stacks(self, weight: str = "wall") -> str:
        """Collapsed-stack text (``owner;kind value`` per line).

        *weight* selects the value column: ``"wall"`` (microseconds of
        wall time), ``"sim"`` (microseconds of simulated time) or
        ``"count"``.  Feed the output to any flamegraph renderer
        (e.g. ``flamegraph.pl`` or speedscope's collapsed importer).
        """
        if weight not in ("wall", "sim", "count"):
            raise ValueError(f"unknown weight {weight!r}; use wall, sim or count")
        lines = []
        for (owner, kind), (c, w, s) in sorted(self._acc.items()):
            if weight == "count":
                value = int(c)
            else:
                value = int(round((w if weight == "wall" else s) * 1e6))
            lines.append(f"{owner};{kind} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def format_table(self) -> str:
        """Human-readable attribution table, widest wall consumers first."""
        rows = self.entries()
        total_wall = self.total_wall_seconds() or 1.0
        header = (
            f"{'owner':<24} {'kind':<16} {'count':>10} "
            f"{'wall_ms':>12} {'wall_%':>7} {'sim_s':>14}"
        )
        lines = [header, "-" * len(header)]
        for e in rows:
            lines.append(
                f"{e.owner:<24} {e.kind:<16} {e.count:>10d} "
                f"{e.wall_seconds * 1e3:>12.3f} "
                f"{100.0 * e.wall_seconds / total_wall:>6.1f}% "
                f"{e.sim_seconds:>14.6f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<24} {'':<16} {self.total_count():>10d} "
            f"{self.total_wall_seconds() * 1e3:>12.3f} {'100.0%':>7} "
            f"{self.total_sim_seconds():>14.6f}"
        )
        return "\n".join(lines)

    def snapshot(self) -> Dict[str, object]:
        """Picklable/JSON-able payload (schema-versioned like ``BENCH``)."""
        return {
            "kind": PROFILE_KIND,
            "schema_version": PROFILE_SCHEMA_VERSION,
            "entries": [
                {
                    "owner": owner,
                    "event_kind": kind,
                    "count": int(c),
                    "wall_seconds": w,
                    "sim_seconds": s,
                }
                for (owner, kind), (c, w, s) in sorted(self._acc.items())
            ],
            "totals": {
                "count": self.total_count(),
                "wall_seconds": self.total_wall_seconds(),
                "sim_seconds": self.total_sim_seconds(),
            },
        }

    @classmethod
    def from_snapshot(cls, payload: Dict[str, object]) -> "KernelProfiler":
        """Rebuild a profiler from :meth:`snapshot` output."""
        if payload.get("kind") != PROFILE_KIND:
            raise ValueError(f"not a {PROFILE_KIND} payload: kind={payload.get('kind')!r}")
        if payload.get("schema_version") != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported profile schema_version {payload.get('schema_version')!r}"
            )
        prof = cls()
        for row in payload["entries"]:  # type: ignore[index]
            prof._acc[(row["owner"], row["event_kind"])] = [
                int(row["count"]),
                float(row["wall_seconds"]),
                float(row["sim_seconds"]),
            ]
        return prof

    def to_json(self, path_or_fp: Union[str, IO[str]]) -> None:
        """Write :meth:`snapshot` as JSON to a path or open text file."""
        payload = self.snapshot()
        if hasattr(path_or_fp, "write"):
            json.dump(payload, path_or_fp, indent=2, sort_keys=True)  # type: ignore[arg-type]
        else:
            with open(path_or_fp, "w", encoding="utf-8") as fp:  # type: ignore[arg-type]
                json.dump(payload, fp, indent=2, sort_keys=True)
