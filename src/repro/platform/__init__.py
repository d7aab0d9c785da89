"""Platform models: compute nodes, burst buffers, interconnect, PFS.

The reference platform is :data:`~repro.platform.system.SUMMIT`, matching
the paper's Sec. II system model (512 GB DRAM, 1.6 TB BB at 2.1/5.5 GB/s,
12.5 GB/s interconnect, GPFS with application-realized saturation).
"""

from .burstbuffer import SUMMIT_BURST_BUFFER, BurstBufferSpec
from .interconnect import SUMMIT_INTERCONNECT, InterconnectSpec
from .node import SUMMIT_NODE, NodeHealth, NodeSpec
from .pfs import PFSSpec
from .system import SUMMIT, PlatformSpec

__all__ = [
    "BurstBufferSpec",
    "SUMMIT_BURST_BUFFER",
    "InterconnectSpec",
    "SUMMIT_INTERCONNECT",
    "NodeSpec",
    "NodeHealth",
    "SUMMIT_NODE",
    "PFSSpec",
    "PlatformSpec",
    "SUMMIT",
]
