"""``pckpt serve`` under the layer wrappers, for the traced service run.

Installs the same outside-in wrappers as a traced campaign, then calls
``repro.service.server.serve`` exactly as the CLI does.  After the
service drains (``POST /v1/shutdown``) it writes its spans to
``<spans>/spans-<pid>.jsonl`` and the wrappers it could not install to
``<spans>/missing.json``.

    python3 benchmarks/e2e/traced_serve.py --store DIR --port P --spans DIR
"""

import argparse
import json
import sys
from pathlib import Path

import layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    spans = Path(args.spans)
    tracer = layers.Tracer(spans)
    missing = layers.install(tracer, layers.SERVICE_TARGETS)
    (spans / "missing.json").write_text(json.dumps(missing), encoding="utf-8")

    from repro.service import server

    server.serve(args.store, port=args.port, jobs=args.jobs)
    tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
