"""A lightweight metrics registry for simulation components.

Three instrument types, modelled on the usual time-series vocabulary but
kept deliberately tiny so they are cheap enough to leave enabled:

* :class:`Counter` — a monotonically increasing total (events processed,
  checkpoints taken, protocol aborts);
* :class:`Gauge` — a point-in-time value with a tracked high-water mark
  (heap depth, current OCI);
* :class:`Histogram` — fixed, caller-chosen bucket bounds (phase
  durations, recovery read times).  Fixed buckets keep observation O(#buckets)
  worst case and — more importantly — make cross-replication merging a
  plain element-wise sum.

A :class:`MetricsRegistry` owns instruments by name and can be attached to
an :class:`~repro.des.core.Environment` (``env.metrics``) so any component
holding the environment can record without extra plumbing.

Merging is the whole point of the design: one registry per Monte-Carlo
replication, serialized with :meth:`MetricsRegistry.snapshot` (a plain
picklable dict, safe across ``ProcessPoolExecutor`` boundaries) and folded
together with :meth:`MetricsRegistry.merge_snapshots` in replication
order.  All merge operations are order-insensitive for counts and sums of
integers, and applied in a fixed (replication-index) order for float sums,
so the aggregate is bit-identical regardless of worker count.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_SECONDS_BUCKETS"]

#: Default histogram bounds for durations in seconds (log-ish spacing
#: covering microseconds of barrier cost up to multi-hour recoveries).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another replication's total into this one (sum)."""
        self.value += other.value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value with a high-water mark.

    Merging across replications keeps the component-wise **maximum** —
    a merged gauge answers "how bad did it ever get", which is the only
    cross-run question a last-value instrument can answer deterministically.
    """

    __slots__ = ("name", "value", "high_water", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.high_water: float = 0.0
        self.updates: int = 0

    def set(self, value: float, times: int = 1) -> None:
        """Record the current value *times* over (and bump the high-water mark)."""
        self.value = value
        if value > self.high_water or self.updates == 0:
            self.high_water = value
        self.updates += times

    def merge(self, other: "Gauge") -> None:
        """Fold another replication's gauge in (max semantics)."""
        if other.updates:
            if self.updates == 0 or other.high_water > self.high_water:
                self.high_water = other.high_water
            self.value = max(self.value, other.value) if self.updates else other.value
        self.updates += other.updates

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value} hwm={self.high_water}>"


class Histogram:
    """Fixed-bucket histogram of observations.

    Parameters
    ----------
    name:
        Instrument name.
    buckets:
        Strictly increasing upper bounds.  An observation lands in the
        first bucket whose bound is >= the value; values above the last
        bound land in the implicit overflow bucket.
    """

    __slots__ = ("name", "buckets", "counts", "overflow", "total", "count")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * len(bounds)
        self.overflow: int = 0
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float, times: int = 1) -> None:
        """Record *times* observations of *value* (must be non-negative).

        The total adds *value* once per observation, so a batch sums to
        the same bits as that many single calls.
        """
        if value < 0:
            raise ValueError(
                f"histogram {self.name}: negative observation {value}"
            )
        idx = bisect.bisect_left(self.buckets, value)
        if idx == len(self.buckets):
            self.overflow += times
        else:
            self.counts[idx] += times
        total = self.total
        for _ in range(times):
            total += value
        self.total = total
        self.count += times

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another replication's histogram in (element-wise sum)."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name}: merging incompatible bucket bounds "
                f"(have {self.buckets}, got {other.buckets})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.overflow += other.overflow
        self.total += other.total
        self.count += other.count

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4g}>"


class MetricsRegistry:
    """Named counters, gauges, and histograms for one simulation run.

    Instruments are get-or-create: components call
    ``registry.counter("drain.completed").inc()`` without worrying about
    registration order.  A name is bound to exactly one instrument type —
    re-requesting it as a different type raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access --------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        inst = self._counters.get(name)
        if inst is None:
            self._check_free(name, "counter")
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge *name*."""
        inst = self._gauges.get(name)
        if inst is None:
            self._check_free(name, "gauge")
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS
                  ) -> Histogram:
        """Get or create the histogram *name* (buckets fixed on creation)."""
        inst = self._histograms.get(name)
        if inst is None:
            self._check_free(name, "histogram")
            inst = self._histograms[name] = Histogram(name, buckets)
        return inst

    def _check_free(self, name: str, want: str) -> None:
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            if kind != want and name in table:
                raise ValueError(f"{name!r} already registered as a {kind}")

    def names(self) -> Tuple[str, ...]:
        """All registered instrument names, sorted."""
        return tuple(sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        ))

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __iter__(self) -> Iterator[object]:
        for name in self.names():
            yield (self._counters.get(name) or self._gauges.get(name)
                   or self._histograms.get(name))

    # -- serialization ------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict serialization (picklable / JSON-friendly).

        Keys are sorted so two registries with identical contents produce
        identical snapshots regardless of instrument creation order.
        """
        return {
            "counters": {
                n: c.value for n, c in sorted(self._counters.items())
            },
            "gauges": {
                n: {"value": g.value, "high_water": g.high_water,
                    "updates": g.updates}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: {"buckets": list(h.buckets), "counts": list(h.counts),
                    "overflow": h.overflow, "total": h.total,
                    "count": h.count}
                for n, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Dict[str, object]]
                      ) -> "MetricsRegistry":
        """Reconstruct a registry from :meth:`snapshot` output."""
        reg = cls()
        for name, value in snap.get("counters", {}).items():
            reg.counter(name).value = value
        for name, g in snap.get("gauges", {}).items():
            gauge = reg.gauge(name)
            gauge.value = g["value"]
            gauge.high_water = g["high_water"]
            gauge.updates = g["updates"]
        for name, h in snap.get("histograms", {}).items():
            hist = reg.histogram(name, h["buckets"])
            hist.counts = list(h["counts"])
            hist.overflow = h["overflow"]
            hist.total = h["total"]
            hist.count = h["count"]
        return reg

    # -- aggregation ---------------------------------------------------------
    def _merge_conflicts(self, other: "MetricsRegistry") -> List[str]:
        """Every reason merging *other* into ``self`` would be rejected.

        Two registries are mergeable iff no name is bound to different
        instrument types and every shared histogram has identical bucket
        bounds.  Checked up front so :meth:`merge` is atomic.
        """
        conflicts: List[str] = []
        tables = (("counter", self._counters), ("gauge", self._gauges),
                  ("histogram", self._histograms))
        for kind, theirs in (("counter", other._counters),
                             ("gauge", other._gauges),
                             ("histogram", other._histograms)):
            for name in sorted(theirs):
                for have_kind, mine in tables:
                    if have_kind != kind and name in mine:
                        conflicts.append(
                            f"{name!r} is a {kind} in the source but "
                            f"already registered as a {have_kind}"
                        )
        for name, h in sorted(other._histograms.items()):
            mine = self._histograms.get(name)
            if mine is not None and mine.buckets != h.buckets:
                conflicts.append(
                    f"histogram {name!r} bucket bounds differ "
                    f"(have {mine.buckets}, got {h.buckets})"
                )
        return conflicts

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry, creating instruments as needed.

        The merge is a **structural union**: instruments that exist only
        in *other* are created here even when their values are zero (an
        empty counter still merges), so the merged registry's instrument
        set is the union of both sides regardless of which side observed
        anything.  Merging an empty registry is therefore a no-op, and
        merging *into* an empty registry copies *other*.

        Incompatible registries — a name bound to different instrument
        types, or a shared histogram with different bucket bounds — raise
        :class:`ValueError` listing every conflict **before any state is
        touched**, so a failed merge never leaves ``self`` partially
        updated.
        """
        conflicts = self._merge_conflicts(other)
        if conflicts:
            raise ValueError(
                "registries cannot be merged: " + "; ".join(conflicts)
            )
        for name, c in sorted(other._counters.items()):
            self.counter(name).merge(c)
        for name, g in sorted(other._gauges.items()):
            self.gauge(name).merge(g)
        for name, h in sorted(other._histograms.items()):
            self.histogram(name, h.buckets).merge(h)

    @classmethod
    def merge_snapshots(
        cls, snapshots: Sequence[Optional[Dict[str, Dict[str, object]]]]
    ) -> "MetricsRegistry":
        """Merge per-replication snapshots, in the given (fixed) order.

        ``None`` entries (replications run without metrics) are skipped;
        an empty or all-``None`` sequence yields an empty registry.
        Because the order is the caller's replication order — not worker
        completion order — the result is independent of parallelism.
        Incompatible snapshots raise :class:`ValueError` (see
        :meth:`merge`); snapshots before the offending one are already
        folded into the (discarded) partial result, never into a
        caller-visible registry.
        """
        merged = cls()
        for snap in snapshots:
            if snap is not None:
                merged.merge(cls.from_snapshot(snap))
        return merged

    def format(self) -> str:
        """Render every instrument as aligned text lines."""
        lines: List[str] = []
        for name in self.names():
            c = self._counters.get(name)
            if c is not None:
                lines.append(f"{name:<40s} counter   {c.value:g}")
                continue
            g = self._gauges.get(name)
            if g is not None:
                lines.append(
                    f"{name:<40s} gauge     {g.value:g} (hwm {g.high_water:g})"
                )
                continue
            h = self._histograms.get(name)
            lines.append(
                f"{name:<40s} histogram n={h.count} mean={h.mean:g} "
                f"total={h.total:g}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")
