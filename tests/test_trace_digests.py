"""Traced replications keep their record stream to the last bit.

A traced run batches its undisturbed segments and computes its drain
landings, as an untraced one does, and records each checkpoint and
landing at its own time.  The digests in
``tests/data/trace_digests.json`` hash the full record list of five
traced runs, captured when every segment, BB write and drain landing
of a traced run was its own kernel event.  Every record contributes its
time (``float.hex``), source, kind, span id and ``repr`` of its detail,
in emission order, so a record stamped with the wrong time, or stored
out of time order, changes the digest.

Recapture only with the pre-change code in hand::

    PYTHONPATH=<old checkout>/src python tests/test_trace_digests.py \
        > tests/data/trace_digests.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

DIGEST_PATH = Path(__file__).parent / "data" / "trace_digests.json"

#: case id -> (application, model, failure distribution); all seed 7.
CASES = {
    "CHIMERA/B/lanl-system18": ("CHIMERA", "B", "LANL_SYSTEM18_WEIBULL"),
    "CHIMERA/M1/lanl-system18": ("CHIMERA", "M1", "LANL_SYSTEM18_WEIBULL"),
    "CHIMERA/P1/lanl-system18": ("CHIMERA", "P1", "LANL_SYSTEM18_WEIBULL"),
    "VULCAN/P2/titan": ("VULCAN", "P2", "TITAN_WEIBULL"),
    "POP/M2/titan": ("POP", "M2", "TITAN_WEIBULL"),
}
SEED = 7


def trace_digest(case: str) -> str:
    """sha256 of the traced record stream of *case* at :data:`SEED`."""
    from repro.des import Trace
    from repro.failures import weibull
    from repro.models.base import CRSimulation
    from repro.models.registry import get_model
    from repro.workloads.applications import APPLICATIONS

    app, model, dist = CASES[case]
    trace = Trace(env=None)
    CRSimulation(APPLICATIONS[app], get_model(model),
                 weibull=getattr(weibull, dist),
                 rng=np.random.default_rng(SEED), trace=trace).run()
    h = hashlib.sha256()
    for r in trace.records:
        h.update(f"{r.time.hex()}|{r.source}|{r.kind}|{r.sid}|"
                 f"{r.detail!r}\n".encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_record_stream_unchanged(case):
    golden = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))
    assert trace_digest(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: trace_digest(case) for case in sorted(CASES)},
                     indent=2))
