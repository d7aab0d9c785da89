"""End-to-end benchmark: one workload, end-to-end metrics, correctness checks.

    python3 benchmarks/e2e/run.py --workload campaign-sigma --seed 2022 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every workload does a fixed amount of work per *unit* (see
``workloads.py`` and ``README.md``):

* ``campaign-sigma``, ``campaign-dense`` — one cold ``run_spec`` of the
  generated spec on two pool workers, in a fresh process with a fresh
  store;
* ``service-mixed`` — a fresh ``pckpt serve --jobs 2`` loaded with the
  whole job plan by two closed-loop HTTP clients.

``--trace 0`` runs units until ``--seconds`` have passed (at least one),
pausing each unit every ``hostref.PERIOD_S`` seconds to time the host
reference (``hostref.py``), and set-ups on their own until there are
``MIN_SETUPS``.  It prints every end-to-end metric as
``name value unit``: a median over the units (or set-ups) without the
pauses, converted to reference speed with the run's mean reference
time.
``--trace 1`` runs one untraced unit and one traced unit of the same
size, whose layer wrappers split the time; it prints every per-layer
metric, writes ``spans.jsonl`` and ``layers.txt`` to ``--trace-dir`` and
reports the tracing overhead against the untraced unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
correctness check makes the command exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import service_load  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Every unit sets up once; set-ups are timed on their own after the
#: units until ``setup_s`` is a median of at least this many.
MIN_SETUPS = 6
#: Units stop here even if time remains (bounded run length on a much
#: faster commit).
MAX_UNITS = 16
#: Every Nth job of a client is checked against a local run_spec.
ORACLE_STRIDE = 25
#: The printed service fingerprint covers checked jobs below this index.
FINGERPRINT_JOBS = 50
#: Every child gets at most this long; the whole run must end in 180 s.
RUN_DEADLINE_S = 170.0


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.size = "quick" if args.quick else "full"
        self.t0 = time.perf_counter()
        (ROOT / ".e2e_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                          dir=ROOT / ".e2e_work"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.checks: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.fingerprint: Optional[str] = None
        self.notes: List[str] = []
        self.peak_rss_mb: Optional[float] = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def remaining(self) -> float:
        return max(5.0, RUN_DEADLINE_S - (time.perf_counter() - self.t0))

    def child(self, *argv: str,
              ref: Optional[hostref.HostReference] = None) -> Dict:
        """Run ``unit.py`` with *argv* and return its JSON line.

        The child gets its own process group, so a timeout also kills the
        pool workers it forked.  With *ref*, the group is paused for
        reference passes while it runs, and the line gets the pauses as
        ``pauses``.
        """
        proc = subprocess.Popen([sys.executable, str(HERE / "unit.py"), *argv],
                                cwd=str(ROOT), env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            with sampled(ref, proc.pid) as sampling:
                stdout, stderr = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"unit.py {argv[0]} failed:\n{stderr[-4000:]}")
        result = json.loads(stdout.strip().splitlines()[-1])
        result["pauses"] = sampling.pauses if sampling else []
        return result

    def record_peak_rss(self) -> None:
        """Max RSS of this process and every child reaped so far, in MiB.

        Called after the measured units and before any oracle child, so
        the checkers never set the value.
        """
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_rss_mb = max(own, children) / 1024.0

    def at_reference_speed(self, ref: hostref.HostReference, setups: List[float],
                           walls: List[float]) -> Dict[str, float]:
        """``setup_s`` and ``wall_s``: medians scaled to reference speed."""
        scale = ref.scale()
        self.notes.append(
            f"measured medians: setup {statistics.median(setups):.4f} s over "
            f"{len(setups)}, wall {statistics.median(walls):.4f} s over {len(walls)} "
            f"({' '.join(f'{w:.3f}' for w in walls)})")
        self.notes.append(
            f"host reference: mean {statistics.fmean(ref.times):.4f} s over "
            f"{len(ref.times)} passes, scale {scale:.4f}")
        return {"setup_s": scale * statistics.median(setups),
                "wall_s": scale * statistics.median(walls)}


def sampled(ref: Optional[hostref.HostReference], pgid: int):
    """Paused reference sampling of process group *pgid*, or nothing."""
    if ref is None:
        return contextlib.nullcontext()
    return hostref.PausedSampling(ref, pgid)


def repeat(seconds: float, unit: Callable[[], Dict],
           ref: hostref.HostReference) -> List[Dict]:
    """Run *unit* until *seconds* have passed, at least once.

    One reference pass is timed before the first unit, so a run has one
    even if its units are shorter than a sampling period.  Another unit
    starts only if it is expected (from the last one's wall time) to end
    within the budget.
    """
    units: List[Dict] = []
    t0 = time.perf_counter()
    ref.measure()
    last = 0.0
    while len(units) < MAX_UNITS:
        elapsed = time.perf_counter() - t0
        if units and elapsed + last > seconds:
            break
        t_unit = time.perf_counter()
        units.append(unit())
        last = time.perf_counter() - t_unit
    return units


def top_up(setups: List[float], probe: Callable[[], float],
           count: int) -> List[float]:
    """*setups* plus set-ups timed by *probe* until there are *count*."""
    setups = list(setups)
    while len(setups) < count:
        setups.append(probe())
    return setups


# -- campaigns ---------------------------------------------------------------
def campaign_unit(run: Run, doc_path: Path, *flags: str,
                  ref: Optional[hostref.HostReference] = None) -> Dict:
    """One campaign child; ``setup_s`` and ``campaign_s`` exclude pauses."""
    store = Path(tempfile.mkdtemp(prefix="store-", dir=run.work))
    try:
        unit = run.child("campaign", "--doc", str(doc_path), "--store", str(store),
                         *flags, ref=ref)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    pauses = unit.pop("pauses")
    unit["setup_s"] = hostref.active(pauses, unit["t_start"], unit["t_setup"])
    if "t_done" in unit:
        unit["campaign_s"] = hostref.active(pauses, unit["t_setup"], unit["t_done"])
    return unit


def count_campaigns(run: Run, doc: Dict, units: List[Dict]) -> None:
    expected = workloads.campaign_replications(doc)
    for unit in units:
        run.attempted += expected
        run.failed += max(0, expected - unit["replications"])


def check_campaign(run: Run, units: List[Dict], doc_path: Path) -> None:
    fingerprints = {u["fingerprint"] for u in units}
    run.fingerprint = units[0]["fingerprint"]
    run.check("units bit-identical", len(fingerprints) == 1,
              f"{len(fingerprints)} distinct fingerprints over {len(units)} units")
    run.check("every cell stored", all(len(u["cell_s"]) == u["cells"] for u in units))
    local = run.child("campaign-oracle", "--doc", str(doc_path))
    first = units[0]
    run.check(f"cell {first['oracle_cell']} equals run_replications(workers=1)",
              local["cell"] == first["oracle_cell"]
              and local["digest"] == first["oracle_digest"])
    expected = oracle.golden_digest(run.args.golden, run.args.workload, run.size,
                                    run.args.seed)
    if expected is not None:
        run.check("golden digest", run.fingerprint == expected,
                  f"got {run.fingerprint[:16]}, golden {expected[:16]}")


def run_campaign_workload(run: Run) -> tuple:
    args = run.args
    doc = workloads.campaign_document(args.workload, run.size, args.seed)
    doc_path = run.work / "spec.json"
    doc_path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    if not args.trace:
        with hostref.HostReference() as ref:
            units = repeat(0.0 if args.quick else args.seconds,
                           lambda: campaign_unit(run, doc_path, ref=ref), ref)
            setups = top_up(
                [u["setup_s"] for u in units],
                lambda: campaign_unit(run, doc_path, "--setup-only")["setup_s"],
                0 if args.quick else MIN_SETUPS)
            run.record_peak_rss()
        count_campaigns(run, doc, units)
        check_campaign(run, units, doc_path)
        return run.at_reference_speed(ref, setups,
                                      [u["campaign_s"] for u in units]), None

    untraced = campaign_unit(run, doc_path)
    raw = prepare_trace_dir(args.trace_dir)
    traced = campaign_unit(run, doc_path, "--trace-dir", str(raw))
    count_campaigns(run, doc, [untraced, traced])
    check_campaign(run, [untraced, traced], doc_path)
    spans = layers.read_spans(raw)
    values = layers.layer_metrics(spans, [], traced["missing"])
    values["obs.trace_overhead_pct"] = 100.0 * (
        traced["campaign_s"] / untraced["campaign_s"] - 1.0)
    write_trace(args.trace_dir, spans)
    return None, values


# -- service -----------------------------------------------------------------
def serve_command(store: Path, port: int, spans: Optional[Path]) -> List[str]:
    if spans is None:
        return [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
                "--jobs", "2", "--port", str(port)]
    return [sys.executable, str(HERE / "traced_serve.py"), "--store", str(store),
            "--port", str(port), "--jobs", "2", "--spans", str(spans)]


def start_server(run: Run, spans: Optional[Path] = None) -> tuple:
    port = service_load.free_port()
    store = Path(tempfile.mkdtemp(prefix="serve-", dir=run.work))
    proc, setup_s = service_load.launch(
        serve_command(store, port, spans), port, run.work / "serve.log",
        run.env, ROOT)
    return proc, port, setup_s


def setup_probe(run: Run) -> float:
    proc, port, setup_s = start_server(run)
    service_load.stop(proc, port)
    return setup_s


def service_unit(run: Run, plans: List[List[Dict]],
                 spans: Optional[Path] = None,
                 ref: Optional[hostref.HostReference] = None) -> Dict:
    """One fresh server loaded with the whole plan, then stopped.

    The service slows as it accumulates jobs, so every unit sends the
    same number of jobs to a fresh server.  With *ref*, the server is
    paused for reference passes during the load; the load's wall time
    and each job's latency exclude the pauses.  Every Nth job's result is
    fetched for the oracle after the load's clock stopped.
    """
    stride = 1 if run.args.quick else ORACLE_STRIDE
    proc, port, setup_s = start_server(run, spans)
    try:
        with sampled(ref, proc.pid) as sampling:
            per_client, t0, t1 = service_load.closed_loop(port, plans)
        pauses = sampling.pauses if sampling else []
        wall = hostref.active(pauses, t0, t1)
        jobs = [r for client in per_client for r in client]
        for record in jobs:
            if "start" in record:
                record["latency_s"] = hostref.active(pauses, record["start"],
                                                     record["end"])
        for record in jobs:
            if record["ok"] and record["index"] % stride == 0:
                payload = service_load.fetch_result(port, record["job"])
                record["digest"] = oracle.results_digest(
                    (cell["key"], cell["result"]) for cell in payload["cells"])
    finally:
        service_load.stop(proc, port)
    run.attempted += len(jobs)
    run.failed += sum(1 for r in jobs if not r["ok"])
    return {"setup_s": setup_s, "jobs": jobs, "wall": wall}


def check_service(run: Run, units: List[Dict], plans: List[List[Dict]]) -> None:
    jobs = [r for unit in units for r in unit["jobs"]]
    bad = [r for r in jobs if not r["ok"]]
    run.check("every job done", not bad,
              f"{len(bad)} of {len(jobs)} failed" + (f": {bad[0]['error']}" if bad else ""))
    wrong = [r for r in jobs if r["ok"] and r["executed"] != (
        r["replications"] if r["kind"] == "cold" else 0)]
    run.check("cold jobs compute every replication, warm jobs none", not wrong,
              f"{len(wrong)} jobs disagree" if wrong else "")
    checked = [r for r in jobs if "digest" in r]
    slots = sorted({(r["client"], r["index"]) for r in checked})
    docs_path = run.work / "oracle-docs.json"
    docs_path.write_text(json.dumps([plans[c][i]["doc"] for c, i in slots]),
                         encoding="utf-8")
    local = dict(zip(slots, run.child("service-oracle", "--docs",
                                      str(docs_path))["digests"]))
    mismatched = sum(1 for r in checked if r["digest"] != local[(r["client"], r["index"])])
    run.check(f"/result equals a local run_spec ({len(checked)} jobs over "
              f"{len(units)} servers)", checked and not mismatched,
              f"{mismatched} differ")
    run.fingerprint = oracle.digest(
        [[r["client"], r["index"], r["digest"]] for r in units[0]["jobs"]
         if "digest" in r and r["index"] < FINGERPRINT_JOBS])


def run_service_workload(run: Run) -> tuple:
    args = run.args
    plans = workloads.service_plans(run.size, args.seed)
    if not args.trace:
        with hostref.HostReference() as ref:
            units = repeat(0.0 if args.quick else args.seconds,
                           lambda: service_unit(run, plans, ref=ref), ref)
            setups = top_up([u["setup_s"] for u in units], lambda: setup_probe(run),
                            0 if args.quick else MIN_SETUPS)
            run.record_peak_rss()
        check_service(run, units, plans)
        latencies = [r["latency_s"] if r["ok"] else math.inf
                     for u in units for r in u["jobs"]]
        run.notes.append(
            f"job latency over {len(latencies)} jobs (failed = inf): "
            f"p50 {layers.percentile(latencies, 0.5):.4f} s, "
            f"p90 {layers.percentile(latencies, 0.9):.4f} s")
        return run.at_reference_speed(ref, setups,
                                      [u["wall"] for u in units]), None

    untraced = service_unit(run, plans)
    raw = prepare_trace_dir(args.trace_dir)
    traced = service_unit(run, plans, spans=raw)
    check_service(run, [untraced, traced], plans)
    spans = layers.read_spans(raw)
    missing = json.loads((raw / "missing.json").read_text(encoding="utf-8"))
    values = layers.layer_metrics(spans, traced["jobs"], missing)
    values["obs.trace_overhead_pct"] = 100.0 * (traced["wall"] / untraced["wall"] - 1.0)
    write_trace(args.trace_dir, spans + client_spans(traced["jobs"]))
    return None, values


def client_spans(jobs: List[Dict]) -> List[Dict]:
    """The client's view of each job, as span records for spans.jsonl."""
    out = []
    for r in jobs:
        if "start" not in r:
            continue
        common = {"layer": "client", "pid": os.getpid(), "tid": r["client"],
                  "job": r["job"], "trace": r["trace"], "seq": None, "calls": 1}
        job_id, post_id = -len(out) - 1, -len(out) - 2
        out.append(dict(common, name="client.job", id=job_id, parent=0,
                        start=r["start"], end=r["end"], dur=r["latency_s"],
                        self=r["latency_s"] - r["post_s"],
                        attrs={"kind": r["kind"], "index": r["index"]}))
        out.append(dict(common, name="client.post", id=post_id, parent=job_id,
                        start=r["start"], end=r["post_end"], dur=r["post_s"],
                        self=r["post_s"], attrs=None))
    return out


# -- trace output ------------------------------------------------------------
def prepare_trace_dir(trace_dir: Path) -> Path:
    raw = trace_dir / "raw"
    shutil.rmtree(raw, ignore_errors=True)
    raw.mkdir(parents=True)
    return raw


def write_trace(trace_dir: Path, spans: List[Dict]) -> None:
    with open(trace_dir / "spans.jsonl", "w", encoding="utf-8") as fp:
        for span in sorted(spans, key=lambda s: s["start"]):
            fp.write(json.dumps(span, sort_keys=True) + "\n")
    table = layers.layer_table(spans)
    total = sum(v for name, v in table if not name.endswith("-wait")) or 1.0
    lines = [f"{'layer':<14} {'self_s':>10} {'share':>7}"]
    lines += [f"{name:<14} {value:>10.4f} " + (
        "" if name.endswith("-wait") else f"{100 * value / total:>6.1f}%")
        for name, value in table]
    (trace_dir / "layers.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- entry point ---------------------------------------------------------------
def number(value: Optional[float]) -> Optional[float]:
    """JSON-safe value: non-finite and missing values become null."""
    if value is None or not math.isfinite(value):
        return None
    return value


def emit(name: str, value: Optional[float], unit: str) -> None:
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"{name} {text} {unit}")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the P-ckpt reproduction.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="units run until this much time has passed "
                             "(at least one; --trace 0 only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced unit, "
                             "per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="where the traced run writes spans.jsonl and "
                             "layers.txt (default .e2e_work/trace/<workload>)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size: tiny inputs, one unit, no extra set-ups")
    parser.add_argument("--golden", type=Path, default=oracle.GOLDEN_PATH,
                        help="golden digest table (default golden.json)")
    args = parser.parse_args(argv)
    if args.trace_dir is None:
        args.trace_dir = ROOT / ".e2e_work" / "trace" / args.workload
    args.trace_dir = args.trace_dir.resolve()
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    run = Run(args)
    try:
        if args.workload in workloads.CAMPAIGNS:
            e2e, per_layer = run_campaign_workload(run)
        else:
            e2e, per_layer = run_service_workload(run)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} size {run.size}")
    print(f"inputs_sha256 {workloads.inputs_sha256(args.workload, run.size, args.seed)}")
    print(f"fingerprint {run.fingerprint}")
    for note in run.notes:
        print(note)
    for name, ok, detail in run.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    if args.trace:
        values, declared = per_layer, {n: u for n, (u, _) in layers.PER_LAYER.items()}
        print(f"trace {args.trace_dir / 'spans.jsonl'}")
        print((args.trace_dir / "layers.txt").read_text(encoding="utf-8"), end="")
    else:
        values, declared = dict(e2e, peak_rss_mb=run.peak_rss_mb), END_TO_END
    for name, unit in declared.items():
        emit(name, values[name], unit)
    metrics = {name: {"value": number(values[name]), "unit": unit}
               for name, unit in declared.items()}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
