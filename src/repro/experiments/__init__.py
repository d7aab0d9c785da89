"""Experiment drivers: one module per paper table/figure, plus the
Monte-Carlo runner and report formatting (see DESIGN.md §3).

The figure drivers (``fig2a`` … ``obs9``) and ``export`` are submodules
imported by name (``from repro.experiments import fig6``), so a process
that only runs replications does not load them."""

from .config import BENCH_SCALE, PAPER_SCALE, SMOKE_SCALE, ExperimentScale
from .runner import SimulationResult, run_replications, simulate_application
from .sweep import false_negative_sweep, lead_time_sweep, model_comparison

__all__ = [
    "SimulationResult",
    "run_replications",
    "simulate_application",
    "ExperimentScale",
    "SMOKE_SCALE",
    "BENCH_SCALE",
    "PAPER_SCALE",
    "model_comparison",
    "lead_time_sweep",
    "false_negative_sweep",
]
