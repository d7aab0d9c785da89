"""Analytical models: OCI formulas (Eqs 1–2), LM-vs-p-ckpt break-even
(Eqs 4–8), and the overhead/FT metric containers."""

from .breakeven import (
    SIGMA_UPPER_BOUND,
    alpha_breakeven,
    alpha_breakeven_curve,
    alpha_breakeven_exact,
    beta_fraction,
    lm_checkpoint_reduction,
    pckpt_beats_lm,
    sigma_upper_bound,
)
from .expected import ExpectedOverheads, expected_base_overheads
from .metrics import FTStats, OverheadBreakdown, percent_reduction
from .young import oci_elongation_percent, sigma_adjusted_oci, young_oci

__all__ = [
    "young_oci",
    "sigma_adjusted_oci",
    "oci_elongation_percent",
    "SIGMA_UPPER_BOUND",
    "lm_checkpoint_reduction",
    "beta_fraction",
    "pckpt_beats_lm",
    "alpha_breakeven",
    "alpha_breakeven_curve",
    "alpha_breakeven_exact",
    "sigma_upper_bound",
    "OverheadBreakdown",
    "FTStats",
    "percent_reduction",
    "ExpectedOverheads",
    "expected_base_overheads",
]
