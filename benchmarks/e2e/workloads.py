"""Workload definitions: the documents each workload submits, made from a seed.

Everything here is stdlib only, so the harness can build its inputs
without importing the program.  The program receives only the generated
documents (spec JSON), never the seed.

* ``campaign-sigma`` — apps VULCAN, POP, CHIMERA x models M2, P2 under
  the Titan failure distribution.  These are the sigma-OCI models: most
  of a replication is ``LeadTimeModel.survival``, reached through the
  sigma of Eq. (2).
* ``campaign-dense`` — CHIMERA x B, M1, P1 (none uses sigma) under
  lanl-system18, swept over eight false-negative rates: 24 cells of equal
  cost, many failures and proactive runs per replication, no
  ``survival`` calls.  Kernel dispatch and model callbacks dominate.
* ``service-mixed`` — 200 single-cell specs per client submitted to
  ``pckpt serve`` by two closed-loop clients; half are cold (fresh seed,
  computed and stored), half warm re-submissions of a spec the same
  client already completed (served from the store).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

WORKLOADS = ("campaign-sigma", "campaign-dense", "service-mixed")
CAMPAIGNS = ("campaign-sigma", "campaign-dense")
DEFAULT_SEED = 2022

#: Replications per cell; quick sizes exist only for the smoke test.
_CAMPAIGN_SHAPE = {
    ("campaign-sigma", "full"): dict(apps=["VULCAN", "POP", "CHIMERA"],
                                     models=["M2", "P2"], replications=8),
    ("campaign-sigma", "quick"): dict(apps=["POP", "CHIMERA"],
                                      models=["M2", "P2"], replications=2),
    ("campaign-dense", "full"): dict(
        apps=["CHIMERA"], models=["B", "M1", "P1"], replications=32,
        fn_rates=[0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40]),
    ("campaign-dense", "quick"): dict(
        apps=["CHIMERA"], models=["B", "M1", "P1"], replications=3,
        fn_rates=[0.05, 0.40]),
}

_FAILURES = {"campaign-sigma": "titan", "campaign-dense": "lanl-system18"}

#: Every document predicts without false alarms.  ``CRSimulation`` keys
#: its per-prediction records by ``id(prediction)`` and never drops a
#: false alarm's record, so a later failure allocated at a freed false
#: alarm's address inherits its record: with false alarms, results depend
#: on memory layout and differ between processes (6 of 24 campaign-dense
#: cells at seed 2022, 3 replications).  A benchmark needs reproducible
#: outputs, so it leaves false alarms out until that is fixed.
_PREDICTOR = {"false_positive_rate": 0.0}

#: service-mixed job mix.
SERVICE_CLIENTS = 2
SERVICE_APPS = ("XGC", "S3D", "GYRO")
SERVICE_MODELS = ("B", "P1", "P2")
SERVICE_REPLICATIONS = 2
#: Jobs per client; every server of a run gets the whole plan.
SERVICE_PLAN_JOBS = {"full": 200, "quick": 6}


def campaign_document(workload: str, size: str, seed: int) -> Dict:
    """The one spec document a campaign workload runs."""
    shape = _CAMPAIGN_SHAPE[(workload, size)]
    doc = {
        "schema_version": 1,
        "name": f"e2e-{workload}-{size}",
        "apps": list(shape["apps"]),
        "models": list(shape["models"]),
        "include_base": False,
        "failures": _FAILURES[workload],
        "predictor": dict(_PREDICTOR),
        "replications": shape["replications"],
        "seed": int(seed),
    }
    if "fn_rates" in shape:
        doc["sweep"] = {"axis": "fn-rate", "values": list(shape["fn_rates"])}
    return doc


def campaign_replications(doc: Dict) -> int:
    """Replications one run of *doc* attempts (cells x replications)."""
    columns = len(doc["sweep"]["values"]) if "sweep" in doc else len(doc["apps"])
    return columns * len(doc["models"]) * doc["replications"]


def service_plans(size: str, seed: int) -> List[List[Dict]]:
    """One job plan per client: ``[{"kind": "cold"|"warm", "doc": spec}]``.

    The seed orders the jobs but does not change the mix, so two seeds
    sample the same job population: each pair of consecutive jobs holds
    one cold and one warm job in random order (the first job of a plan is
    cold), and cold jobs walk through shuffled decks of the nine
    (app, model) pairs.  Cold specs get a seed drawn without replacement,
    so no cold job ever hits another job's store entry.  A warm job
    re-submits one of the same client's earlier cold specs.
    """
    rng = random.Random(f"service-mixed/{seed}")
    pairs = [(app, model) for app in SERVICE_APPS for model in SERVICE_MODELS]
    used = set()
    plans: List[List[Dict]] = []
    for client in range(SERVICE_CLIENTS):
        cold: List[Dict] = []
        plan: List[Dict] = []
        deck: List[tuple] = []
        while len(plan) < SERVICE_PLAN_JOBS[size]:
            kinds = ["cold", "warm"] if not cold else rng.sample(["cold", "warm"], 2)
            for kind in kinds:
                if kind == "warm":
                    plan.append({"kind": "warm", "doc": rng.choice(cold)})
                    continue
                spec_seed = rng.randrange(1, 2**31)
                while spec_seed in used:
                    spec_seed = rng.randrange(1, 2**31)
                used.add(spec_seed)
                if not deck:
                    deck = rng.sample(pairs, len(pairs))
                app, model = deck.pop()
                doc = {
                    "schema_version": 1,
                    "name": f"e2e-service-c{client}",
                    "apps": [app],
                    "models": [model],
                    "include_base": False,
                    "failures": "titan",
                    "predictor": dict(_PREDICTOR),
                    "replications": SERVICE_REPLICATIONS,
                    "seed": spec_seed,
                }
                cold.append(doc)
                plan.append({"kind": "cold", "doc": doc})
        plans.append(plan[:SERVICE_PLAN_JOBS[size]])
    return plans


def inputs_sha256(workload: str, size: str, seed: int) -> str:
    """Digest of every document the workload can submit for this seed."""
    if workload in CAMPAIGNS:
        inputs = campaign_document(workload, size, seed)
    else:
        inputs = service_plans(size, seed)
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
