"""Weibull failure-arrival models (paper Table III).

Failure inter-arrival times on HPC systems follow Weibull distributions
with shape < 1 (decreasing hazard — failures cluster).  Table III gives
the fitted parameters for three real systems; the paper applies each of
them to the Summit-like platform to test robustness (Observation 7).

Scaling to an application's node count
--------------------------------------
The fitted distribution describes the *whole reference system* (``N``
nodes).  An application occupies ``c`` nodes, so its failure process is the
system process thinned/accelerated by ``c / N``.  For a Weibull renewal
process, scaling event *rate* by ``m`` is achieved by scaling the scale
parameter by ``1/m`` (shape is preserved) — the standard treatment in the
C/R literature, and the reason the paper can apply a 164-node system's
distribution to a 2272-node job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "WeibullParams",
    "TITAN_WEIBULL",
    "LANL_SYSTEM8_WEIBULL",
    "LANL_SYSTEM18_WEIBULL",
    "FAILURE_DISTRIBUTIONS",
    "interarrival_seconds",
]

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class WeibullParams:
    """A system-wide Weibull failure-arrival distribution.

    Attributes
    ----------
    name:
        System identifier (used in reports).
    shape:
        Weibull shape parameter *k* (< 1 on all three reference systems).
    scale_hours:
        Weibull scale parameter λ in hours, for the whole reference system.
    system_nodes:
        Node count of the reference system the fit describes.
    """

    name: str
    shape: float
    scale_hours: float
    system_nodes: int

    def __post_init__(self) -> None:
        if self.shape <= 0:
            raise ValueError("Weibull shape must be positive")
        if self.scale_hours <= 0:
            raise ValueError("Weibull scale must be positive")
        if self.system_nodes < 1:
            raise ValueError("system_nodes must be >= 1")

    # -- moments -----------------------------------------------------------
    @property
    def mtbf_hours(self) -> float:
        """Mean time between failures of the reference system (hours)."""
        return self.scale_hours * math.gamma(1.0 + 1.0 / self.shape)

    @property
    def per_node_mtbf_hours(self) -> float:
        """Mean time between failures of a single node (hours)."""
        return self.mtbf_hours * self.system_nodes

    def per_node_rate(self) -> float:
        """Per-node failure rate λ (failures/second) — the λ of Eq. (1)."""
        return 1.0 / (self.per_node_mtbf_hours * SECONDS_PER_HOUR)

    # -- scaling -----------------------------------------------------------
    def scaled_to(self, app_nodes: int) -> "WeibullParams":
        """Distribution of failure arrivals hitting an *app_nodes* job.

        Rate multiplies by ``app_nodes / system_nodes``; shape preserved.
        """
        if app_nodes < 1:
            raise ValueError("app_nodes must be >= 1")
        factor = self.system_nodes / app_nodes
        return replace(
            self,
            name=f"{self.name}[c={app_nodes}]",
            scale_hours=self.scale_hours * factor,
            system_nodes=app_nodes,
        )

    def app_mtbf_hours(self, app_nodes: int) -> float:
        """MTBF experienced by a job running on *app_nodes* nodes."""
        return self.scaled_to(app_nodes).mtbf_hours

    # -- sampling ----------------------------------------------------------
    def sample_interarrivals_hours(
        self, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        """Draw *n* i.i.d. inter-arrival times (hours) for the system."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self.scale_hours * rng.weibull(self.shape, size=n)

    def sample_interarrival_seconds(self, rng: np.random.Generator) -> float:
        """Draw one inter-arrival time in seconds (simulation clock unit)."""
        return float(interarrival_seconds(rng.weibull, self.scale_hours,
                                          self.shape))

    def survival_hours(self, t_hours: float | np.ndarray) -> float | np.ndarray:
        """P(inter-arrival > t) for t in hours."""
        t = np.asarray(t_hours, dtype=float)
        s = np.exp(-((np.maximum(t, 0.0) / self.scale_hours) ** self.shape))
        return float(s) if np.isscalar(t_hours) else s


def interarrival_seconds(weibull, scale_hours: float, shape: float) -> float:
    """One inter-arrival time in seconds from a ``Generator.weibull`` method.

    The one place the expression lives: both
    :meth:`WeibullParams.sample_interarrival_seconds` and the failure
    injector (which binds its generator's method and the job's scale and
    shape once) draw through it.
    """
    return scale_hours * weibull(shape) * SECONDS_PER_HOUR


#: OLCF Titan (18 868 nodes) — the distribution assumed for Summit (Fig 6a).
TITAN_WEIBULL = WeibullParams("titan", shape=0.6885, scale_hours=5.4527, system_nodes=18868)

#: LANL System 8 (164 nodes) — Fig 6 robustness study.
LANL_SYSTEM8_WEIBULL = WeibullParams(
    "lanl-system8", shape=0.7111, scale_hours=67.375, system_nodes=164
)

#: LANL System 18 (1024 nodes) — Fig 6b.
LANL_SYSTEM18_WEIBULL = WeibullParams(
    "lanl-system18", shape=0.8170, scale_hours=6.6293, system_nodes=1024
)

#: All Table III distributions by name.
FAILURE_DISTRIBUTIONS = {
    d.name: d for d in (TITAN_WEIBULL, LANL_SYSTEM8_WEIBULL, LANL_SYSTEM18_WEIBULL)
}
