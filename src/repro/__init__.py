"""repro — full reproduction of *P-ckpt: Coordinated Prioritized
Checkpointing* (Behera, Wan, Mueller, Wolf, Klasky — IPDPS 2022).

The package is layered bottom-up:

* :mod:`repro.des` — a from-scratch discrete-event simulation kernel
  (the paper used SimPy; we implement the same semantics for the
  primitives the models use).
* :mod:`repro.iomodel` — the Summit-like GPFS I/O performance model
  (single-node task sweep + weak-scaling performance matrix, Fig 2b/2c).
* :mod:`repro.platform` — compute nodes, burst buffers, interconnect, PFS.
* :mod:`repro.failures` — Weibull failure generation (Table III),
  Desh-style failure chains and lead-time distributions (Fig 2a), and the
  Aarohi-like online predictor with FP/FN rates.
* :mod:`repro.cr` — checkpoint plumbing (BB staging, async drain,
  recovery) and the live-migration engine.
* :mod:`repro.core` — the paper's contribution: the coordinated
  prioritized checkpoint (p-ckpt) protocol and its node state machine.
* :mod:`repro.models` — the C/R model zoo: B, M1 (safeguard), M2 (LM),
  P1 (p-ckpt), P2 (hybrid p-ckpt).
* :mod:`repro.analysis` — Young's OCI, the σ-adjusted OCI, and the
  analytical LM-vs-p-ckpt break-even model (Eqs 1–8).
* :mod:`repro.workloads` — the six Table I applications and the
  Titan→Summit checkpoint-size rescaling (Eq 3).
* :mod:`repro.experiments` — Monte-Carlo runner, metric accounting, and
  one driver per table/figure of the paper's evaluation.
* :mod:`repro.campaign` — sweep orchestration: shared-pool scheduling,
  a content-addressed result store, and resumable campaigns.

Top-level names are re-exported lazily (PEP 562) so that importing
``repro`` stays cheap and subpackages can be used in isolation.

Quickstart
----------
>>> from repro import simulate_application, SUMMIT, TITAN_WEIBULL
>>> from repro.workloads import APPLICATIONS
>>> result = simulate_application(
...     APPLICATIONS["POP"], model="P2", platform=SUMMIT,
...     weibull=TITAN_WEIBULL, seed=1)
>>> result.total_overhead_hours >= 0
True
"""

from ._version import __version__

__all__ = [
    "__version__",
    "simulate_application",
    "run_replications",
    "SimulationResult",
    "PlatformSpec",
    "SUMMIT",
    "WeibullParams",
    "TITAN_WEIBULL",
    "LANL_SYSTEM8_WEIBULL",
    "LANL_SYSTEM18_WEIBULL",
    "ApplicationSpec",
    "APPLICATIONS",
    "CRSimulation",
    "ModelConfig",
    "get_model",
    "PAPER_MODELS",
    "run_campaign",
    "CellSpec",
    "ResultStore",
    "CampaignProgress",
]

# name → (module, attribute) for lazy re-export.
_LAZY = {
    "CRSimulation": ("repro.models.base", "CRSimulation"),
    "ModelConfig": ("repro.models.base", "ModelConfig"),
    "get_model": ("repro.models.registry", "get_model"),
    "PAPER_MODELS": ("repro.models.registry", "PAPER_MODELS"),
    "simulate_application": ("repro.experiments.runner", "simulate_application"),
    "run_replications": ("repro.experiments.runner", "run_replications"),
    "SimulationResult": ("repro.experiments.runner", "SimulationResult"),
    "PlatformSpec": ("repro.platform.system", "PlatformSpec"),
    "SUMMIT": ("repro.platform.system", "SUMMIT"),
    "WeibullParams": ("repro.failures.weibull", "WeibullParams"),
    "TITAN_WEIBULL": ("repro.failures.weibull", "TITAN_WEIBULL"),
    "LANL_SYSTEM8_WEIBULL": ("repro.failures.weibull", "LANL_SYSTEM8_WEIBULL"),
    "LANL_SYSTEM18_WEIBULL": ("repro.failures.weibull", "LANL_SYSTEM18_WEIBULL"),
    "ApplicationSpec": ("repro.workloads.applications", "ApplicationSpec"),
    "APPLICATIONS": ("repro.workloads.applications", "APPLICATIONS"),
    "run_campaign": ("repro.campaign.scheduler", "run_campaign"),
    "CellSpec": ("repro.campaign.plan", "CellSpec"),
    "ResultStore": ("repro.campaign.store", "ResultStore"),
    "CampaignProgress": ("repro.campaign.progress", "CampaignProgress"),
}


def __getattr__(name: str):
    """Resolve lazily-exported top-level names (PEP 562)."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
