"""C/R-level differential validation: whole simulations, both loop paths.

The scenario fuzzer exercises the kernel with adversarial random
programs; this module exercises it with the *real* workload — a full
:class:`~repro.models.base.CRSimulation` run under a randomized
p-ckpt/C/R configuration — on two kernels:

* the production fast-path ``Environment.run`` loops,
* :class:`~.backends.ReferenceEnvironment` (pure ``step()``
  dispatch), substituted into ``repro.models.base`` for the duration;

untraced and traced (a :class:`~repro.des.Trace` attached).  Both
compute drain landings and run undisturbed periodic segments, and the
failures landing among them, inline, without kernel events; a traced
run records them at their own times.  A fifth, untraced run uses
:class:`~.backends.EventPathEnvironment`, whose horizon lets nothing run
inline: every segment and failure takes the event path.

All five runs share the seed, so the injected failure schedule is
identical and the flattened :class:`~repro.models.base.RunOutput`
fingerprints (floats compared bit-exactly via ``float.hex``) must match
exactly.  The first four process the same number of events, but for a
traced p-ckpt model's phase-2 span events; the event-path run is
compared by fingerprint only.

Every run also swaps :class:`~repro.cr.checkpoint.SnapshotLedger` for a
checking subclass that validates ledger conservation on every update
(PFS snapshots never regress, recovery never restores below the PFS
generation, rollback really forfeits newer BB generations), and a
Fig 5 legality sweep: ``CRSimulation`` routes every node state change
through ``core.statemachine.transition``, so an illegal interleaving
raises ``IllegalTransition`` and surfaces here as a violation.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

from ..cr.checkpoint import SnapshotLedger
from ..platform.pfs import PFSSpec
from ..platform.system import SUMMIT, PlatformSpec
from .backends import EventPathEnvironment, ReferenceEnvironment

__all__ = ["CRCase", "generate_cr_case", "run_cr_case", "diff_cr_case"]


@dataclass(frozen=True)
class CRCase:
    """One randomized C/R differential configuration."""

    seed: int
    model: str
    nodes: int
    ckpt_gib_per_node: float
    compute_hours: float
    weibull_shape: float
    weibull_scale_hours: float
    sim_seed: int
    #: Share of its bandwidth the PFS drain gets; the smallest makes
    #: most drains slower than the checkpoint period.
    drain_share: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def generate_cr_case(seed: int) -> CRCase:
    """Deterministic random C/R configuration for *seed*.

    Sizes are kept small (tens of nodes, an hour or two of compute, a
    hot failure distribution) so one case simulates in well under a
    second while still exercising predictions, failures, proactive
    protocols, recovery, and drain cancellation.  The drain throttle is
    drawn last, so the other fields are those of a case without it.
    One case in four drains at 0.2% of its bandwidth: most of those
    drain slower than their checkpoint period, and their drains queue
    behind each other.
    """
    rng = random.Random(f"pckpt-crdiff-{seed}")
    model = rng.choice(("B", "M1", "M2", "P1", "P2"))
    nodes = rng.choice((8, 16, 32))
    return CRCase(
        seed=seed,
        model=model,
        nodes=nodes,
        ckpt_gib_per_node=rng.choice((2.0, 4.0, 8.0)),
        compute_hours=rng.choice((0.5, 1.0, 2.0)),
        weibull_shape=rng.choice((0.6, 0.7, 0.9)),
        weibull_scale_hours=rng.choice((0.25, 0.4, 0.7)),
        sim_seed=rng.randint(0, 2**31 - 1),
        drain_share=rng.choice((1.0, 1.0, 0.1, 0.002)),
    )


@dataclass
class _ThrottledPFS(PFSSpec):
    """A PFS whose background drain gets only *share* of its bandwidth."""

    share: float = 1.0

    def drain_time(self, nnodes: int, bytes_per_node: float) -> float:
        return super().drain_time(nnodes, bytes_per_node) / self.share


def _platform(drain_share: float) -> PlatformSpec:
    """Summit, its drain given *drain_share* of the bandwidth."""
    pfs = SUMMIT.pfs
    return dataclasses.replace(SUMMIT, pfs=_ThrottledPFS(
        model=pfs.model, drain_fraction=pfs.drain_fraction,
        drain_min_nodes=pfs.drain_min_nodes, share=drain_share))


def _make_checked_ledger(violations: List[str]) -> Type[SnapshotLedger]:
    """A SnapshotLedger subclass appending invariant breaches to *violations*."""

    class CheckedLedger(SnapshotLedger):
        def __init__(self, metrics=None) -> None:
            super().__init__(metrics=metrics)
            self._max_pfs_work = float("-inf")
            self._last_update_time = float("-inf")

        def _clock(self, time: float, what: str) -> None:
            if time < self._last_update_time - 1e-9:
                violations.append(
                    f"ledger: {what} at t={time} before previous update "
                    f"t={self._last_update_time}"
                )
            self._last_update_time = max(self._last_update_time, time)

        def _pfs_monotone(self, what: str) -> None:
            if self.pfs is not None:
                if self.pfs.work < self._max_pfs_work - 1e-9:
                    violations.append(
                        f"ledger: PFS snapshot regressed from work="
                        f"{self._max_pfs_work} after {what}"
                    )
                self._max_pfs_work = max(self._max_pfs_work, self.pfs.work)

        def record_periodic(self, work: float, time: float, count: int = 1):
            if work < 0:
                violations.append(f"ledger: periodic snapshot of negative work {work}")
            self._clock(time, "record_periodic")
            return super().record_periodic(work, time, count)

        def record_drained(self, snap, count: int = 1) -> None:
            super().record_drained(snap, count)
            self._pfs_monotone("record_drained")

        def record_proactive(self, work: float, time: float):
            if work < 0:
                violations.append(
                    f"ledger: proactive snapshot of negative work {work}"
                )
            self._clock(time, "record_proactive")
            snap = super().record_proactive(work, time)
            self._pfs_monotone("record_proactive")
            return snap

        def rollback(self, work: float) -> None:
            if self.pfs is not None and self.pfs.work > work + 1e-9:
                violations.append(
                    f"ledger: recovery restored work={work} below the "
                    f"PFS snapshot work={self.pfs.work}"
                )
            super().rollback(work)
            if self.bb is not None and self.bb.work > work + 1e-9:
                violations.append(
                    f"ledger: rollback({work}) kept a newer BB generation "
                    f"(work={self.bb.work})"
                )

    return CheckedLedger


def _flatten(obj: Any, prefix: str = "") -> Dict[str, Any]:
    """Dataclass → flat dict fingerprint; floats rendered exactly via hex."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        name = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(value):
            out.update(_flatten(value, prefix=name + "."))
        elif isinstance(value, float):
            out[name] = value.hex()
        elif isinstance(value, (int, str)):
            out[name] = value
    return out


def run_cr_case(
    case: CRCase, *, reference: bool = False, traced: bool = False,
    event_path: bool = False,
) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    """Run one C/R case; return (flattened fingerprint, violations).

    With ``reference=True`` the whole simulation executes on
    :class:`ReferenceEnvironment` — the kernel substitution the
    ROADMAP's multi-backend direction calls for, done by patching the
    ``Environment`` symbol ``repro.models.base`` instantiates.  With
    ``event_path=True`` it executes on :class:`EventPathEnvironment`
    instead, so nothing runs inline.  With ``traced=True`` a trace is
    attached; the simulation takes the same segment batches and records
    them.

    A fingerprint of ``None`` means the run itself raised; the exception
    is reported as a violation (e.g. ``IllegalTransition`` from the
    Fig 5 guard).
    """
    import numpy as np

    from ..des import Trace
    from ..failures.weibull import WeibullParams
    from ..iomodel.bandwidth import GiB
    from ..models import base as base_mod
    from ..models.registry import PAPER_MODELS
    from ..workloads.applications import ApplicationSpec

    violations: List[str] = []
    app = ApplicationSpec(
        name=f"crdiff-{case.seed}",
        nodes=case.nodes,
        checkpoint_bytes_total=case.nodes * case.ckpt_gib_per_node * GiB,
        compute_hours=case.compute_hours,
    )
    weibull = WeibullParams(
        f"crdiff-{case.seed}",
        shape=case.weibull_shape,
        scale_hours=case.weibull_scale_hours,
        system_nodes=case.nodes,
    )
    config = PAPER_MODELS[case.model]

    saved_env = base_mod.Environment
    saved_ledger = base_mod.SnapshotLedger
    try:
        if reference:
            base_mod.Environment = ReferenceEnvironment
        elif event_path:
            base_mod.Environment = EventPathEnvironment
        base_mod.SnapshotLedger = _make_checked_ledger(violations)
        sim = base_mod.CRSimulation(
            app,
            config,
            platform=_platform(case.drain_share),
            weibull=weibull,
            rng=np.random.default_rng(case.sim_seed),
            trace=Trace(env=None) if traced else None,
        )
        try:
            output = sim.run()
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            violations.append(
                f"simulation raised {type(exc).__name__}: {exc}"
            )
            return None, violations
        fingerprint = _flatten(output)
        fingerprint["env.events_processed"] = sim.env.events_processed
        fingerprint["env.now"] = float(sim.env.now).hex()
        return fingerprint, violations
    finally:
        base_mod.Environment = saved_env
        base_mod.SnapshotLedger = saved_ledger


#: Run labels of :func:`diff_cr_case`: their :func:`run_cr_case` options.
_RUNS = {
    "fast": {},
    "step": {"reference": True},
    "fast+trace": {"traced": True},
    "step+trace": {"reference": True, "traced": True},
    "event-path": {"event_path": True},
}


def _compare(label: str, a_fp: Dict[str, Any], b_fp: Dict[str, Any],
             ignore: Tuple[str, ...] = ()) -> List[str]:
    """One problem line per fingerprint key that differs."""
    return [
        f"{label}: RunOutput.{key} differs: {a_fp.get(key)!r} != "
        f"{b_fp.get(key)!r}"
        for key in sorted(set(a_fp) | set(b_fp))
        if key not in ignore and a_fp.get(key) != b_fp.get(key)
    ]


def diff_cr_case(case: CRCase) -> List[str]:
    """Differential + oracle report for one C/R case (empty = clean)."""
    runs = {
        label: run_cr_case(case, **options)
        for label, options in _RUNS.items()
    }
    problems = [
        f"[{label}] {v}" for label, (_, violations) in runs.items()
        for v in violations
    ]
    fp = {label: fingerprint for label, (fingerprint, _) in runs.items()}
    if any(f is None for f in fp.values()):
        return problems
    problems += _compare("fast vs step", fp["fast"], fp["step"])
    problems += _compare("traced fast vs step", fp["fast+trace"],
                         fp["step+trace"])
    # Both take the same path; only a traced p-ckpt's phase-2 span
    # events (and the segment they defer to the kernel) add events.
    from ..models.registry import PAPER_MODELS

    pckpt = PAPER_MODELS[case.model].supports_pckpt
    ignore = ("env.events_processed",) if pckpt else ()
    problems += _compare("untraced vs traced", fp["fast"], fp["fast+trace"],
                         ignore=ignore)
    # Inline landings and batches against the event path they stand for.
    problems += _compare("fast vs event path", fp["fast"], fp["event-path"],
                         ignore=("env.events_processed",))
    return problems
