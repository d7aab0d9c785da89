"""Live-migration engine (Wang et al. [11] / Behera et al. [16] style).

A live migration streams the vulnerable node's process image (α× the
checkpoint footprint, DRAM-bounded) to a healthy spare over the
interconnect while the application keeps running at a slightly reduced
rate.  Completing before the predicted failure *avoids* it outright: no
recovery, no recomputation.  The hybrid model may abort an in-flight
migration when a more urgent prediction arrives (Fig 5).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..des import Environment, Interrupt, Process, Trace
from ..failures.injector import FailureEvent, FalseAlarmEvent
from ..platform.system import PlatformSpec

__all__ = ["MigrationOutcome", "LiveMigration"]


class MigrationOutcome(enum.Enum):
    """Terminal states of one live migration."""

    #: Transfer finished; the process vacated the vulnerable node.
    COMPLETED = "completed"
    #: Aborted by the C/R model (e.g. a shorter-lead prediction arrived).
    ABORTED = "aborted"
    #: The predicted failure struck before the transfer finished.
    OVERTAKEN = "overtaken"


class LiveMigration:
    """One in-flight live migration, running as its own DES process.

    Parameters
    ----------
    env:
        Simulation environment.
    platform:
        Provides interconnect bandwidth / DRAM bound / α scaling.
    node:
        Vulnerable node index being vacated.
    prediction:
        The prediction that triggered this migration (real or false).
    ckpt_bytes_per_node:
        Per-node checkpoint footprint (scaled by α for the transfer).
    alpha:
        LM transfer-size factor (paper default 3×; swept in Fig 6c).
    on_done:
        Callback ``(migration, outcome)`` invoked at termination.
    trace:
        Optional trace; the transfer becomes an ``lm_transfer`` span on
        the ``lm`` source, closed with the outcome as detail.
    """

    def __init__(
        self,
        env: Environment,
        platform: PlatformSpec,
        node: int,
        prediction: FailureEvent | FalseAlarmEvent,
        ckpt_bytes_per_node: float,
        alpha: float = 3.0,
        on_done: Optional[Callable[["LiveMigration", MigrationOutcome], None]] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        self.env = env
        self.platform = platform
        self.node = int(node)
        self.prediction = prediction
        self.alpha = float(alpha)
        self.transfer_seconds = platform.lm_transfer_time(ckpt_bytes_per_node, alpha)
        self.started_at = env.now
        self.outcome: Optional[MigrationOutcome] = None
        self._on_done = on_done
        self._trace = trace
        self._sid = (
            trace.span_begin(
                "lm", "lm_transfer",
                {"node": self.node,
                 "prov": getattr(prediction, "provenance", -1)},
            )
            if trace is not None else 0
        )
        self._proc: Process = env.process(self._run(), name=f"lm/node{node}")

    # -- queries -----------------------------------------------------------
    @property
    def in_flight(self) -> bool:
        """True until the migration reaches a terminal state."""
        return self.outcome is None

    @property
    def eta(self) -> float:
        """Absolute completion time if nothing interferes."""
        return self.started_at + self.transfer_seconds

    def completes_before(self, deadline: float) -> bool:
        """Whether the transfer will finish strictly before *deadline*."""
        return self.eta <= deadline

    # -- control -------------------------------------------------------------
    def abort(self, reason: str = "abort") -> None:
        """Abort the migration (hybrid model: a shorter lead preempted it)."""
        if self.in_flight and self._proc.is_alive:
            self._proc.interrupt(("lm-abort", reason))

    def overtake(self) -> None:
        """The predicted failure struck mid-transfer; the migration dies."""
        if self.in_flight and self._proc.is_alive:
            self._proc.interrupt(("lm-overtaken", None))

    # -- process -----------------------------------------------------------
    def _run(self):
        timer = self.env.timeout(self.transfer_seconds)
        try:
            yield timer
            self.outcome = MigrationOutcome.COMPLETED
        except Interrupt as intr:
            self.env.cancel(timer)
            kind, _ = intr.cause
            self.outcome = (
                MigrationOutcome.ABORTED if kind == "lm-abort"
                else MigrationOutcome.OVERTAKEN
            )
        if self._trace is not None:
            self._trace.span_end(self._sid, self.outcome.value)
        if self._on_done is not None:
            self._on_done(self, self.outcome)
