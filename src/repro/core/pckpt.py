"""The coordinated prioritized checkpoint (p-ckpt) protocol — Sec. VI.

This is the paper's contribution.  On a failure prediction the application
snapshots a globally consistent state and commits it to the PFS in two
phases:

* **Phase 1 — prioritized commits.**  Vulnerable nodes drain through a
  lead-time priority queue: the node whose failure is most imminent gets
  contention-free single-node PFS access first.  Nodes predicted to fail
  *during* the protocol join the queue (re-keyed if already queued).
* **Phase 2 — healthy commits.**  Once the queue empties, a ``pfs-commit``
  broadcast releases the healthy nodes, which commit at aggregate
  bandwidth.  A vulnerable arrival during phase 2 pauses it and reopens
  phase 1.

Failure semantics (the crux of p-ckpt's low FT latency): a failure whose
node has *already committed* does not kill the protocol — the per-node
checkpoint daemons on surviving nodes complete their commits, so the
snapshot stays viable and the failure counts as mitigated.  A failure on
a node that has **not** committed destroys an irreplaceable share of the
snapshot and aborts the protocol (:class:`ProtocolAborted`); recovery then
falls back to the last periodic checkpoint.

The protocol generator runs *inside* the application's DES process — the
application is blocked for the duration, which is exactly the paper's
checkpoint-overhead accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Union

from ..des import Environment, Interrupt
from ..failures.injector import FailureEvent, FalseAlarmEvent
from .priority import LeadTimePriorityQueue, VulnerableEntry

__all__ = [
    "ProtocolAborted",
    "ProtocolOutcome",
    "PckptProtocol",
    "entry_from_prediction",
]

_EPS = 1e-9


class ProtocolAborted(Exception):
    """A failure destroyed an uncommitted share of the protocol snapshot.

    Carries the fatal :class:`FailureEvent`; the application rolls back to
    its last periodic checkpoint.
    """

    def __init__(self, failure: FailureEvent) -> None:
        super().__init__(f"p-ckpt aborted by failure of node {failure.node}")
        self.failure = failure


@dataclass
class ProtocolOutcome:
    """Result of a completed p-ckpt protocol run.

    Attributes
    ----------
    snapshot_work:
        Application progress captured by the protocol snapshot.
    committed:
        Nodes that obtained a prioritized phase-1 commit, with commit times.
    pending_failures:
        Failures that struck committed nodes mid-protocol; the caller must
        run recovery for them after the protocol returns.
    phase1_seconds / phase2_seconds:
        Blocked time spent in each phase (checkpoint overhead;
        ``phase2_seconds`` is 0 when phase 2 runs asynchronously).
    healthy_nodes:
        Nodes whose shares remain to be flushed by the asynchronous
        phase 2 (0 when phase 2 ran synchronously).
    """

    snapshot_work: float
    committed: Dict[int, float]
    pending_failures: List[FailureEvent]
    phase1_seconds: float
    phase2_seconds: float
    healthy_nodes: int = 0

    @property
    def duration(self) -> float:
        """Total blocked time of the protocol."""
        return self.phase1_seconds + self.phase2_seconds


def entry_from_prediction(
    prediction: Union[FailureEvent, FalseAlarmEvent]
) -> VulnerableEntry:
    """Build a queue entry from either prediction kind.

    The protocol treats false alarms exactly like true predictions — it
    cannot tell them apart, just like the real system.
    """
    if isinstance(prediction, FailureEvent):
        return VulnerableEntry(prediction.node, prediction.time, prediction)
    return VulnerableEntry(
        prediction.node,
        prediction.prediction_time + prediction.claimed_lead,
        prediction,
    )


class PckptProtocol:
    """One execution of the two-phase prioritized commit protocol.

    Parameters
    ----------
    env:
        Simulation environment.
    snapshot_work:
        Application progress the snapshot captures (taken at start).
    total_nodes:
        Application node count.
    priority_write_seconds:
        Callable ``node -> seconds`` for one prioritized phase-1 commit.
    phase2_write_seconds:
        Callable ``n_healthy -> seconds`` for the aggregate phase-2 commit.
    initial:
        Vulnerable entries known at protocol start.
    already_covered:
        Nodes whose state needs no commit (e.g. already migrated away);
        failures of these nodes never abort the protocol.
    on_commit:
        Optional callback per phase-1 commit (FT bookkeeping).
    barrier_seconds:
        Cost charged for each global synchronization (the paper measures
        ≈8 µs at 2048 nodes and ignores it; kept configurable).
    include_phase2:
        When True (the conservative/blocking variant) the protocol also
        performs the healthy nodes' phase-2 commit synchronously, blocking
        the application.  When False (the paper's deployment: per-node
        checkpoint daemons flush phase 2 while the application resumes)
        :meth:`run` returns right after phase 1 and the caller schedules
        the asynchronous phase 2 from :attr:`ProtocolOutcome`.
    """

    def __init__(
        self,
        env: Environment,
        snapshot_work: float,
        total_nodes: int,
        priority_write_seconds: Callable[[int], float],
        phase2_write_seconds: Callable[[int], float],
        initial: List[VulnerableEntry],
        already_covered: Optional[Set[int]] = None,
        on_commit: Optional[Callable[[VulnerableEntry, float], None]] = None,
        barrier_seconds: float = 0.0,
        include_phase2: bool = True,
    ) -> None:
        if total_nodes < 1:
            raise ValueError("total_nodes must be >= 1")
        if not initial:
            raise ValueError("p-ckpt requires at least one vulnerable node")
        self.env = env
        self.snapshot_work = snapshot_work
        self.total_nodes = total_nodes
        self._write_seconds = priority_write_seconds
        self._phase2_seconds_fn = phase2_write_seconds
        self.queue = LeadTimePriorityQueue()
        for entry in initial:
            self.queue.push(entry)
        self.committed: Dict[int, float] = {}
        self.already_covered: Set[int] = set(already_covered or ())
        self.pending_failures: List[FailureEvent] = []
        self._on_commit = on_commit
        self.barrier_seconds = barrier_seconds
        self.include_phase2 = include_phase2
        self.current_writer: Optional[int] = None
        self._phase1_spent = 0.0
        self._phase2_spent = 0.0
        self._phase2_remaining: Optional[float] = None

    # -- interrupt handling ---------------------------------------------------
    def _dispatch(self, cause) -> None:
        """Handle an interrupt that landed during a protocol wait."""
        kind = cause[0]
        if kind in ("prediction", "proactive"):
            prediction = cause[1]
            node = (
                prediction.node
                if isinstance(prediction, (FailureEvent, FalseAlarmEvent))
                else None
            )
            if node is None:
                return
            if node in self.committed or node in self.already_covered:
                # Snapshot share already safe; nothing more to prioritize.
                return
            self.queue.push(entry_from_prediction(prediction))
        elif kind == "failure":
            failure: FailureEvent = cause[1]
            if failure.node in self.committed or failure.node in self.already_covered:
                self.pending_failures.append(failure)
            else:
                raise ProtocolAborted(failure)
        # Any other cause ("replan", "lm-done", ...) is irrelevant while
        # the application is blocked in the protocol.

    def _wait(self, duration: float, bail_on_new_vulnerable: bool):
        """Interruptible wait; returns the unserved remainder (0 if done).

        The epsilon applies to the residue left by an interrupt (it
        absorbs float accumulation error), not to the requested duration
        — even a sub-epsilon write is actually waited out, so blocked
        time is charged exactly.
        """
        remaining = duration
        while remaining > 0.0:
            start = self.env.now
            timer = self.env.timeout(remaining)
            try:
                yield timer
                remaining = 0.0
            except Interrupt as intr:
                self.env.cancel(timer)
                remaining -= self.env.now - start
                if remaining <= _EPS:
                    remaining = 0.0
                self._dispatch(intr.cause)
                if bail_on_new_vulnerable and self.queue:
                    return remaining
        return 0.0

    # -- the protocol ------------------------------------------------------
    def run(self):
        """Generator to be driven inside the application process.

        Returns a :class:`ProtocolOutcome`; raises :class:`ProtocolAborted`
        when a failure destroys an uncommitted snapshot share.  On abort,
        :attr:`phase1_spent` / :attr:`phase2_spent` still hold the blocked
        time burned, so the caller can account for it.
        """
        while True:
            # ---- Phase 1: prioritized vulnerable commits --------------
            while self.queue:
                entry = self.queue.pop()
                self.current_writer = entry.node
                t0 = self.env.now
                try:
                    yield from self._wait(
                        self._write_seconds(entry.node), bail_on_new_vulnerable=False
                    )
                finally:
                    self._phase1_spent += self.env.now - t0
                    self.current_writer = None
                self.committed[entry.node] = self.env.now
                if self._on_commit is not None:
                    self._on_commit(entry, self.env.now)

            # ---- pfs-commit broadcast ------------------------------------
            if self.barrier_seconds > 0.0:
                t0 = self.env.now
                yield from self._wait(self.barrier_seconds, bail_on_new_vulnerable=False)
                self._phase1_spent += self.env.now - t0

            if not self.include_phase2:
                # Phase 2 is flushed asynchronously by the per-node
                # checkpoint daemons; the application resumes now.
                break

            # ---- Phase 2: healthy aggregate commit -----------------------
            if self._phase2_remaining is None:
                n_healthy = self.total_nodes - len(self.committed) - len(
                    self.already_covered
                )
                self._phase2_remaining = (
                    self._phase2_seconds_fn(n_healthy) if n_healthy > 0 else 0.0
                )
            t0 = self.env.now
            try:
                self._phase2_remaining = yield from self._wait(
                    self._phase2_remaining, bail_on_new_vulnerable=True
                )
            finally:
                self._phase2_spent += self.env.now - t0
            if self._phase2_remaining <= _EPS:
                break
            # A new vulnerable node arrived: reopen phase 1.

        return ProtocolOutcome(
            snapshot_work=self.snapshot_work,
            committed=dict(self.committed),
            pending_failures=list(self.pending_failures),
            phase1_seconds=self._phase1_spent,
            phase2_seconds=self._phase2_spent,
            healthy_nodes=(
                0
                if self.include_phase2
                else self.total_nodes - len(self.committed) - len(self.already_covered)
            ),
        )

    @property
    def phase1_spent(self) -> float:
        """Blocked seconds spent in phase 1 so far (valid after abort too)."""
        return self._phase1_spent

    @property
    def phase2_spent(self) -> float:
        """Blocked seconds spent in phase 2 so far (valid after abort too)."""
        return self._phase2_spent
