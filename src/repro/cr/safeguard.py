"""Safeguard (just-in-time) checkpointing — Bouguerra et al. [14], model M1.

On a failure prediction, *all* nodes synchronously commit their state to
the PFS in one collective write.  The failure is mitigated only if the
entire write finishes before the failure strikes — which is why safeguard
checkpointing collapses for large applications (CHIMERA's all-node commit
takes minutes while typical lead times are ~43 s; Table II's M1 column).

Like :class:`~repro.core.pckpt.PckptProtocol`, the run executes inside the
application process (the application is blocked).  Predictions arriving
mid-write simply attach to the ongoing safeguard: its snapshot covers every
node, so a completion covers them too.  Any node failure mid-write aborts
it — the collective is not prioritized, which is precisely the deficiency
p-ckpt fixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Union

from ..des import Environment, Interrupt
from ..failures.injector import FailureEvent, FalseAlarmEvent

__all__ = ["SafeguardAborted", "SafeguardOutcome", "SafeguardCheckpoint"]

_EPS = 1e-9


class SafeguardAborted(Exception):
    """A failure struck before the collective write finished."""

    def __init__(self, failure: FailureEvent) -> None:
        super().__init__(f"safeguard aborted by failure of node {failure.node}")
        self.failure = failure


@dataclass
class SafeguardOutcome:
    """Result of a completed safeguard checkpoint.

    Attributes
    ----------
    snapshot_work:
        Application progress the snapshot captured.
    served:
        The predictions this safeguard covers (trigger + mid-write joiners).
    duration:
        Blocked time of the collective write.
    pending_failures:
        Failures of already-covered (migrated-away) nodes that struck
        mid-write; recovery runs after the write completes.
    """

    snapshot_work: float
    served: List[Union[FailureEvent, FalseAlarmEvent]]
    duration: float
    pending_failures: List[FailureEvent]


class SafeguardCheckpoint:
    """One collective safeguard write, driven inside the app process.

    Parameters
    ----------
    env:
        Simulation environment.
    snapshot_work:
        Application progress at the start of the write.
    write_seconds:
        Duration of the all-node collective PFS commit.
    trigger:
        The prediction that initiated the safeguard.
    already_covered:
        Nodes whose failures cannot hurt the snapshot (migrated away).
    """

    def __init__(
        self,
        env: Environment,
        snapshot_work: float,
        write_seconds: float,
        trigger: Union[FailureEvent, FalseAlarmEvent],
        already_covered: Optional[Set[int]] = None,
    ) -> None:
        if write_seconds < 0:
            raise ValueError("write_seconds must be non-negative")
        self.env = env
        self.snapshot_work = snapshot_work
        self.write_seconds = write_seconds
        self.served: List[Union[FailureEvent, FalseAlarmEvent]] = [trigger]
        self.already_covered: Set[int] = set(already_covered or ())
        self.pending_failures: List[FailureEvent] = []
        self._spent = 0.0

    @property
    def spent(self) -> float:
        """Blocked seconds burned so far (valid after an abort too)."""
        return self._spent

    def run(self):
        """Generator: perform the collective write, handling interrupts."""
        remaining = self.write_seconds
        while remaining > _EPS:
            start = self.env.now
            timer = self.env.timeout(remaining)
            try:
                yield timer
                self._spent += self.env.now - start
                remaining = 0.0
            except Interrupt as intr:
                self.env.cancel(timer)
                self._spent += self.env.now - start
                remaining -= self.env.now - start
                kind = intr.cause[0]
                if kind in ("prediction", "proactive"):
                    # The in-flight safeguard will cover this node too.
                    self.served.append(intr.cause[1])
                elif kind == "failure":
                    failure: FailureEvent = intr.cause[1]
                    if failure.node in self.already_covered:
                        self.pending_failures.append(failure)
                    else:
                        raise SafeguardAborted(failure)
                # other causes (replan, ...) are irrelevant while blocked
        return SafeguardOutcome(
            snapshot_work=self.snapshot_work,
            served=list(self.served),
            duration=self._spent,
            pending_failures=list(self.pending_failures),
        )
