"""Compute-node model: the static spec and the Fig 5 health states.

The C/R simulation keeps the *application* as a single process (as the
paper's SimPy framework does) and tracks per node only its
:class:`NodeHealth` where the protocol depends on it
(:meth:`repro.models.base.CRSimulation.node_health`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..iomodel.bandwidth import GiB
from .burstbuffer import SUMMIT_BURST_BUFFER, BurstBufferSpec

__all__ = ["NodeSpec", "NodeHealth", "SUMMIT_NODE"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node.

    Attributes
    ----------
    dram_bytes:
        DRAM capacity (bytes); bounds live-migration transfer size.
    cores:
        Physical cores; one may be set aside for the failure predictor.
    burst_buffer:
        The node-local BB device.
    """

    dram_bytes: float = 512.0 * GiB
    cores: int = 42
    burst_buffer: BurstBufferSpec = SUMMIT_BURST_BUFFER

    def __post_init__(self) -> None:
        if self.dram_bytes <= 0:
            raise ValueError("DRAM size must be positive")
        if self.cores < 1:
            raise ValueError("node needs at least one core")


class NodeHealth(enum.Enum):
    """Health states of a node in the hybrid C/R state machine (Fig 5)."""

    #: Normal periodic computation + checkpointing.
    NORMAL = "normal"
    #: A failure has been predicted for this node.
    VULNERABLE = "vulnerable"
    #: Process is being live-migrated off this node.
    MIGRATING = "migrating"
    #: Healthy node waiting for vulnerable nodes' pfs-commit (p-ckpt phase 1).
    WAITING = "waiting"
    #: The node has failed.
    FAILED = "failed"


#: A Summit compute node.
SUMMIT_NODE = NodeSpec()
