"""Desh-style failure-chain lead-time model (paper Fig 2a).

The paper mines six months of logs from three HPC systems with the Desh
technique: recurring *failure chains* (sequences of log phrases that end in
a failure) define per-sequence **lead times** — the gap between the first
phrase of the chain and the failure.  Fig 2a summarizes ten recurring
sequences as box plots with their occurrence counts.

We do not have the proprietary logs, so this module encodes a
**shape-faithful mixture model**: ten lognormal components whose means,
spreads and occurrence weights were reverse-engineered from the constraints
the paper's own results impose (the FT ratios of Tables II and IV pin down
the complementary CDF of the lead-time marginal at a dozen points — see
DESIGN.md).  The hallmark features are:

* a **dominant sequence near 43 s** holding ≈50% of the mass — this is what
  makes live migration collapse for CHIMERA at −10% lead-time change while
  p-ckpt keeps working;
* a probability *gap* between ≈28 s and ≈37 s — the reason M2's FT ratio
  plateaus for CHIMERA between +10% and +50%;
* two rare long-lead sequences (ids 3 and 4 in Fig 2a) with large whiskers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

# Not scipy.special.ndtr: a pure-Python port of the Cephes code it runs,
# equal to it by bits, so no process imports scipy to get σ's ten scalars
# (docs/PERFORMANCE.md, "Start-up").
from ._ndtr import ndtr

__all__ = [
    "FailureSequenceSpec",
    "LeadTimeModel",
    "PAPER_SEQUENCES",
    "PAPER_LEAD_TIME_MODEL",
]


@dataclass(frozen=True)
class FailureSequenceSpec:
    """One recurring failure chain (one box in Fig 2a).

    Attributes
    ----------
    sequence_id:
        1-based id, matching the paper's x-axis ordering.
    occurrences:
        How many times the chain occurred in the mined logs (weight).
    mean_lead:
        Mean lead time in seconds.
    sd_lead:
        Standard deviation of the lead time in seconds.
    """

    sequence_id: int
    occurrences: int
    mean_lead: float
    sd_lead: float

    def __post_init__(self) -> None:
        if self.occurrences < 1:
            raise ValueError("occurrences must be >= 1")
        if self.mean_lead <= 0:
            raise ValueError("mean lead time must be positive")
        if self.sd_lead <= 0:
            raise ValueError("lead-time spread must be positive")
        # Lognormal parameterization matching the requested mean/sd, fixed
        # per sequence, so every draw reads it instead of deriving it.
        # Plain attributes, not fields: spec hashes and content keys walk
        # dataclasses.fields(), which must not change.
        sigma = math.sqrt(math.log(1.0 + (self.sd_lead / self.mean_lead) ** 2))
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_mu", math.log(self.mean_lead) - 0.5 * sigma**2)

    def sample(self, rng: np.random.Generator, n: int | None = None):
        """Draw lead time(s) in seconds."""
        return rng.lognormal(self._mu, self._sigma, size=n)

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(lead > t) for this sequence."""
        # The closed form scipy.stats.lognorm.sf evaluates, bit for bit,
        # without importing scipy.  z is numpy's on purpose: math.log
        # differs from np.log in the last bit on about 1 input in 10,000.
        t = np.asarray(t, dtype=float)
        z = np.log(np.maximum(t, 1e-300) / math.exp(self._mu)) / self._sigma
        if z.ndim == 0:
            return ndtr(float(-z))
        return np.array([ndtr(v) for v in (-z).ravel().tolist()]).reshape(z.shape)

    def quantile(self, q: float | np.ndarray) -> float | np.ndarray:
        """Lead-time quantile (for box-plot statistics)."""
        # Only Fig 2a's box statistics call this, so only they need scipy.
        try:
            from scipy.special import ndtri
        except ImportError as exc:
            raise ImportError(
                "lead-time quantiles need scipy: pip install repro[figures]",
                name="scipy",
            ) from exc
        # Bit-identical to scipy.stats.lognorm.ppf.
        return np.exp(self._sigma * ndtri(q)) * math.exp(self._mu)


#: The ten Fig 2a sequences.  Occurrence counts are per 10 000 mined
#: failures; means/sds chosen to satisfy the Table II / Table IV CDF
#: constraints (see module docstring and DESIGN.md §2).
PAPER_SEQUENCES: Tuple[FailureSequenceSpec, ...] = (
    FailureSequenceSpec(1, 200, mean_lead=9.0, sd_lead=3.0),
    FailureSequenceSpec(2, 1700, mean_lead=18.5, sd_lead=1.2),
    FailureSequenceSpec(3, 400, mean_lead=240.0, sd_lead=60.0),
    FailureSequenceSpec(4, 80, mean_lead=800.0, sd_lead=350.0),
    FailureSequenceSpec(5, 1000, mean_lead=25.0, sd_lead=0.6),
    FailureSequenceSpec(6, 5000, mean_lead=43.2, sd_lead=1.0),
    FailureSequenceSpec(7, 1200, mean_lead=39.2, sd_lead=0.8),
    FailureSequenceSpec(8, 100, mean_lead=26.8, sd_lead=0.3),
    FailureSequenceSpec(9, 300, mean_lead=22.6, sd_lead=0.4),
    FailureSequenceSpec(10, 20, mean_lead=1800.0, sd_lead=600.0),
)


class LeadTimeModel:
    """Occurrence-weighted mixture over failure sequences.

    This plays two roles, matching the paper's "failure prediction &
    analysis model":

    * **generation** — each injected failure draws a sequence (by
      occurrence weight) and a lead time from it;
    * **analysis** — the C/R models query :meth:`survival` to estimate σ,
      the fraction of failures predictable early enough for live migration
      (Eq. 2), exactly as the paper derives σ from its log analysis.
    """

    def __init__(self, sequences: Sequence[FailureSequenceSpec] = PAPER_SEQUENCES) -> None:
        if not sequences:
            raise ValueError("at least one failure sequence is required")
        ids = [s.sequence_id for s in sequences]
        if len(set(ids)) != len(ids):
            raise ValueError("sequence ids must be unique")
        self.sequences: Tuple[FailureSequenceSpec, ...] = tuple(sequences)
        counts = np.array([s.occurrences for s in self.sequences], dtype=float)
        self._weights = counts / counts.sum()
        # Generator.choice(p=...) rebuilds this CDF (cumsum, normalised by
        # its last element) on every call.  Built once here, sample()
        # draws the same uniform and bisects the same values, so its draws
        # are bit-identical to choice's.
        cdf = self._weights.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self._by_id: Dict[int, FailureSequenceSpec] = {s.sequence_id: s for s in self.sequences}

    @property
    def weights(self) -> np.ndarray:
        """Mixture weights (occurrence-normalized), aligned with sequences."""
        return self._weights.copy()

    def sequence(self, sequence_id: int) -> FailureSequenceSpec:
        """Look up a sequence spec by id."""
        return self._by_id[sequence_id]

    # -- generation ----------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> Tuple[int, float]:
        """Draw one (sequence_id, lead_time_seconds) pair."""
        seq = self.sequences[bisect_right(self._cdf, rng.random())]
        # FailureSequenceSpec.sample's draw, without its frame: one
        # lead-time draw per predicted failure and per false alarm.
        return seq.sequence_id, rng.lognormal(seq._mu, seq._sigma)

    def sample_many(self, rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized draw of *n* (sequence_id, lead_time) pairs."""
        idx = rng.choice(len(self.sequences), size=n, p=self._weights)
        leads = np.empty(n, dtype=float)
        for i, seq in enumerate(self.sequences):
            mask = idx == i
            if mask.any():
                leads[mask] = seq.sample(rng, int(mask.sum()))
        ids = np.array([self.sequences[i].sequence_id for i in idx], dtype=int)
        return ids, leads

    # -- analysis --------------------------------------------------------------
    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """Marginal P(lead > t) over the mixture (seconds)."""
        t_arr = np.asarray(t, dtype=float)
        s = np.zeros_like(t_arr, dtype=float)
        for w, seq in zip(self._weights, self.sequences):
            s = s + w * np.asarray(seq.survival(t_arr))
        return float(s) if t_arr.ndim == 0 else s

    def mean_lead(self) -> float:
        """Mean lead time of the mixture (seconds)."""
        return float(sum(w * seq.mean_lead for w, seq in zip(self._weights, self.sequences)))

    def boxplot_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-sequence five-number summaries + mean (Fig 2a's boxes).

        Returns ``{sequence_id: {mean, q1, median, q3, lo_whisker,
        hi_whisker, occurrences}}`` with whiskers at Q1−1.5·IQR / Q3+1.5·IQR
        clamped to the distribution support.
        """
        stats: Dict[int, Dict[str, float]] = {}
        for seq in self.sequences:
            q1, med, q3 = (float(seq.quantile(q)) for q in (0.25, 0.5, 0.75))
            iqr = q3 - q1
            stats[seq.sequence_id] = {
                "mean": seq.mean_lead,
                "q1": q1,
                "median": med,
                "q3": q3,
                "lo_whisker": max(q1 - 1.5 * iqr, 0.0),
                "hi_whisker": q3 + 1.5 * iqr,
                "occurrences": float(seq.occurrences),
            }
        return stats


#: The calibrated Fig 2a model used by all experiments.
PAPER_LEAD_TIME_MODEL = LeadTimeModel(PAPER_SEQUENCES)


class UniformLeadTimeModel:
    """Uniformly distributed lead times (the paper's Eq. 6 assumption).

    Provides the same duck-typed interface as :class:`LeadTimeModel`
    (``sample`` / ``sample_many`` / ``survival`` / ``mean_lead``), so it
    plugs directly into the injector and the C/R models.  Used by the
    Eq. (6) validation benchmark: under uniform leads and equal
    inter-node / single-node-PFS bandwidths, the fraction of failures
    p-ckpt can handle must equal β = (α−1+σ)/α.
    """

    def __init__(self, low: float = 0.0, high: float = 60.0) -> None:
        if not (0.0 <= low < high):
            raise ValueError("need 0 <= low < high")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> Tuple[int, float]:
        """Draw one (sequence_id, lead) pair; the id is always 0."""
        return 0, float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, n: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized draw of *n* pairs."""
        leads = rng.uniform(self.low, self.high, size=n)
        return np.zeros(n, dtype=int), leads

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(lead > t) for the uniform distribution."""
        t_arr = np.asarray(t, dtype=float)
        s = np.clip((self.high - t_arr) / (self.high - self.low), 0.0, 1.0)
        s = np.where(t_arr < self.low, 1.0, s)
        return float(s) if t_arr.ndim == 0 else s

    def mean_lead(self) -> float:
        """Mean of the uniform distribution."""
        return 0.5 * (self.low + self.high)
