"""Causal failure→action timelines.

Every :class:`~repro.failures.injector.FailureEvent` /
:class:`~repro.failures.injector.FalseAlarmEvent` carries an
injector-assigned ``provenance`` id, and every trace record a
:class:`~repro.models.base.CRSimulation` emits *because of* that event
carries the same id in its detail dict — ``"prov"`` for single-cause
records, ``"provs"`` for protocol records serving several predictions at
once (a p-ckpt run covers every vulnerable node).  This module groups a
trace by those ids into :class:`CausalChain` objects, answering the
question the paper's Figs. 6–9 build on: *which failure caused which
checkpoint action, and what did it cost?*

Chains are reconstructible both from a live :class:`~repro.des.monitor.Trace`
and from its JSONL export (details round-trip through JSON), so the
``pckpt timeline`` CLI works on traces recorded earlier.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from ..des.monitor import BEGIN, END, Trace, TraceRecord

__all__ = [
    "CausalChain",
    "TIMELINE_SCHEMA_VERSION",
    "TIMELINE_KIND",
    "TIMELINE_CHAIN_KINDS",
    "extract_timelines",
    "format_timelines",
    "timelines_to_jsonl",
]

#: Schema version of the JSONL payload written by :func:`timelines_to_jsonl`.
TIMELINE_SCHEMA_VERSION: int = 1

#: Payload discriminator, mirroring the bench harness convention.
TIMELINE_KIND: str = "pckpt-timeline"

#: Trace-record kinds that participate in causal chains (i.e. whose
#: details carry ``prov``/``provs``).  ``tools/check_schemas.py``
#: asserts every name here is documented in ``docs/OBSERVABILITY.md``.
TIMELINE_CHAIN_KINDS = (
    "prediction",
    "struck",
    "avoided-by-lm",
    "started",
    "completed",
    "aborted",
    "overtaken",
    "lm_transfer",
    "start",
    "done",
    "absorbed-lm",
    "vulnerable-committed",
    "safeguard_write",
    "pckpt_protocol",
    "pckpt_phase2",
    "phase2-landed",
    "restore",
    "recovery_restore",
)


def _provs_of(rec: TraceRecord) -> List[int]:
    """Provenance ids a record belongs to (empty for un-annotated records)."""
    detail = rec.detail
    if not isinstance(detail, dict):
        return []
    out: List[int] = []
    prov = detail.get("prov")
    if isinstance(prov, int) and prov >= 0:
        out.append(prov)
    provs = detail.get("provs")
    if isinstance(provs, (list, tuple)):
        for p in provs:
            if isinstance(p, int) and p >= 0 and p not in out:
                out.append(p)
    return out


@dataclass
class CausalChain:
    """All trace records caused by one injected failure / false alarm."""

    provenance: int
    records: List[TraceRecord] = field(default_factory=list)

    @property
    def begin(self) -> float:
        """Time of the chain's first record."""
        return self.records[0].time if self.records else 0.0

    @property
    def end(self) -> float:
        """Time of the chain's last record."""
        return self.records[-1].time if self.records else 0.0

    @property
    def node(self) -> Optional[int]:
        """Node the causing event implicated (from the earliest record)."""
        for rec in self.records:
            if isinstance(rec.detail, dict):
                node = rec.detail.get("node")
                if isinstance(node, int):
                    return node
        return None

    @property
    def action(self) -> Optional[str]:
        """Coordinator decision recorded at prediction time, if any."""
        for rec in self.records:
            if rec.kind == "prediction" and isinstance(rec.detail, dict):
                act = rec.detail.get("action")
                return str(act) if act is not None else None
        return None

    @property
    def struck(self) -> bool:
        """Whether the chain's failure actually hit the application."""
        return any(rec.kind == "struck" for rec in self.records)

    def kinds(self) -> List[str]:
        """Record kinds in chain order (span BEGIN/END collapsed)."""
        out: List[str] = []
        for rec in self.records:
            if rec.ph == END:
                continue
            out.append(rec.kind)
        return out


def extract_timelines(
    trace_or_records: Union[Trace, Iterable[TraceRecord]],
) -> List[CausalChain]:
    """Group a trace into per-provenance causal chains.

    Accepts a live :class:`Trace` or any iterable of
    :class:`TraceRecord` (e.g. ``load_jsonl`` output).  Records carrying
    no provenance annotation (periodic checkpoints, drains, kernel
    records) belong to no chain and are skipped.  Chains come back
    ordered by provenance id; records within a chain keep trace order.
    """
    records: Iterable[TraceRecord] = (
        trace_or_records.records
        if isinstance(trace_or_records, Trace)
        else trace_or_records
    )
    chains: Dict[int, CausalChain] = {}
    for rec in records:
        for prov in _provs_of(rec):
            chain = chains.get(prov)
            if chain is None:
                chain = chains[prov] = CausalChain(prov)
            chain.records.append(rec)
    return [chains[prov] for prov in sorted(chains)]


def format_timelines(
    chains: List[CausalChain], limit: Optional[int] = None
) -> str:
    """Render chains as an indented text view (the ``pckpt timeline`` CLI)."""
    shown = chains if limit is None else chains[:limit]
    lines: List[str] = []
    for chain in shown:
        head = f"prov {chain.provenance}"
        if chain.node is not None:
            head += f" · node {chain.node}"
        if chain.action is not None:
            head += f" · action={chain.action}"
        head += " · struck" if chain.struck else " · avoided/expired"
        head += f" · t={chain.begin:.3f}s..{chain.end:.3f}s"
        lines.append(head)
        marks = {BEGIN: ">", END: "<"}
        for rec in chain.records:
            mark = marks.get(rec.ph, " ")
            lines.append(
                f"  [{rec.time:14.3f}s] {mark} {rec.source:<10s} {rec.kind}"
            )
    if limit is not None and len(chains) > limit:
        lines.append(f"... ({len(chains) - limit} more chains)")
    return "\n".join(lines)


def timelines_to_jsonl(
    chains: List[CausalChain], path_or_fp: Union[str, IO[str]]
) -> int:
    """Write one JSON object per chain; returns the number written.

    Each line is ``{"kind": "pckpt-timeline", "schema_version": 1,
    "prov": ..., "node": ..., "action": ..., "struck": ...,
    "begin": ..., "end": ..., "records": [...]}`` with records in the
    same shape as :meth:`Trace.to_jsonl` lines.
    """
    def _write(fp: IO[str]) -> int:
        n = 0
        for chain in chains:
            fp.write(json.dumps(
                {
                    "kind": TIMELINE_KIND,
                    "schema_version": TIMELINE_SCHEMA_VERSION,
                    "prov": chain.provenance,
                    "node": chain.node,
                    "action": chain.action,
                    "struck": chain.struck,
                    "begin": chain.begin,
                    "end": chain.end,
                    "records": [
                        {"t": rec.time, "source": rec.source,
                         "kind": rec.kind, "ph": rec.ph, "sid": rec.sid,
                         "detail": rec.detail}
                        for rec in chain.records
                    ],
                },
                default=str, separators=(",", ":"),
            ))
            fp.write("\n")
            n += 1
        return n

    if isinstance(path_or_fp, (str, os.PathLike)):
        with open(path_or_fp, "w", encoding="utf-8") as fp:
            return _write(fp)
    return _write(path_or_fp)
