"""Child process of the benchmark: one cold campaign, or an oracle.

``unit.py campaign --doc FILE --store DIR`` mirrors
``pckpt run --spec FILE --store DIR --jobs 2``: it loads the document,
opens a fresh store and runs ``run_spec`` once, then prints one JSON
line with three ``perf_counter`` times: ``t_start`` (process start,
before ``import repro``), ``t_setup`` (``run_spec`` is called) and
``t_done`` (it returned); each cell's result latency (``run_spec`` call
to the cell's store entry being written), the results' fingerprint and
the digest of the oracle cell (the last one).  ``--setup-only`` stops
where ``run_spec`` would be called; ``--trace-dir`` installs the layer
wrappers first.

``unit.py campaign-oracle --doc FILE`` recomputes the oracle cell with
``run_replications(..., workers=1)`` and prints its digest.

``unit.py service-oracle --docs FILE`` runs each document with a local
``run_spec`` and prints the fingerprint of its ``result_to_dict`` form,
which the service's ``/result`` must match bit for bit.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402

#: Pool width of a campaign, as ``pckpt run --jobs 2`` on a 2-core host.
WORKERS = 2


def _campaign(args: argparse.Namespace) -> dict:
    doc = json.loads(Path(args.doc).read_text(encoding="utf-8"))
    tracer, missing = None, []
    if args.trace_dir:
        import layers

        tracer = layers.Tracer(Path(args.trace_dir))
        missing = layers.install(tracer, layers.CAMPAIGN_TARGETS, fork_flush=True)

    import repro.spec as spec_api
    from repro.campaign import CampaignProgress, ResultStore

    spec = spec_api.spec_from_dict(doc)
    store = ResultStore(args.store)
    progress = CampaignProgress()
    t_setup = time.perf_counter()
    if args.setup_only:
        return {"t_start": T_START, "t_setup": t_setup}
    wall_setup = time.time()
    results = spec_api.run_spec(spec, store=store, workers=WORKERS,
                                progress=progress)
    t_done = time.perf_counter()
    if tracer is not None:
        tracer.flush()

    # A cell's result is ready when the store has written its entry.
    cell_s = [store.path_for(key).stat().st_mtime_ns / 1e9 - wall_setup
              for key in store.keys()]
    oracle_cell = list(results)[-1]
    return {
        "t_start": T_START,
        "t_setup": t_setup,
        "t_done": t_done,
        "cell_s": sorted(cell_s),
        "cells": len(results),
        "fingerprint": oracle.results_digest(results.items()),
        "oracle_cell": list(oracle_cell),
        "oracle_digest": oracle.digest(results[oracle_cell]),
        "replications": sum(r.replications for r in results.values()),
        "missing": missing,
    }


def _campaign_oracle(args: argparse.Namespace) -> dict:
    from repro.experiments.runner import run_replications
    from repro.spec import build_cells, spec_from_dict

    doc = json.loads(Path(args.doc).read_text(encoding="utf-8"))
    cell = build_cells(spec_from_dict(doc))[-1]
    local = run_replications(
        cell.app, cell.model, replications=cell.replications,
        platform=cell.platform, weibull=cell.weibull,
        lead_model=cell.lead_model, predictor=cell.predictor,
        seed=cell.seed, workers=1,
    )
    return {"cell": list(cell.key), "digest": oracle.digest(local)}


def _service_oracle(args: argparse.Namespace) -> dict:
    from repro.campaign.store import result_to_dict
    from repro.spec import run_spec, spec_from_dict

    docs = json.loads(Path(args.docs).read_text(encoding="utf-8"))
    digests = []
    for doc in docs:
        results = run_spec(spec_from_dict(doc), workers=1)
        digests.append(oracle.results_digest(
            (key, result_to_dict(result)) for key, result in results.items()))
    return {"digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_campaign = sub.add_parser("campaign")
    p_campaign.add_argument("--doc", required=True)
    p_campaign.add_argument("--store", required=True)
    p_campaign.add_argument("--setup-only", action="store_true")
    p_campaign.add_argument("--trace-dir", default=None)
    p_campaign_oracle = sub.add_parser("campaign-oracle")
    p_campaign_oracle.add_argument("--doc", required=True)
    p_service_oracle = sub.add_parser("service-oracle")
    p_service_oracle.add_argument("--docs", required=True)
    args = parser.parse_args()
    mode = {"campaign": _campaign, "campaign-oracle": _campaign_oracle,
            "service-oracle": _service_oracle}[args.mode]
    print(json.dumps(mode(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
