"""Kernel microbenchmarks under pytest-benchmark.

The same fixed workload set ``pckpt bench`` runs (see
``src/repro/bench.py`` and ``docs/PERFORMANCE.md``), exposed here so
``pytest benchmarks/ --benchmark-only`` covers the DES kernel alongside
the paper-artifact macro-benchmarks.  Sizes are the quick tier — the
point of this file is continuous visibility, not the tracked baseline;
the committed ``BENCH_*.json`` / ``BASELINE_PRE.json`` pair in this
directory is produced by ``pckpt bench`` at full scale.
"""

from __future__ import annotations

import pytest

from repro import bench


@pytest.mark.parametrize("kb", bench.KERNEL_BENCHMARKS, ids=lambda kb: kb.name)
def test_kernel_microbenchmark(benchmark, kb):
    def setup():
        return (kb.build(kb.quick_size),), {}

    def run(env):
        env.run()
        return env

    env = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1,
                             warmup_rounds=1)
    stats = env.kernel_stats()
    # The workload must actually have exercised the kernel, and the
    # event count is deterministic — a drift here means the benchmark
    # definition changed and the tracked baseline is no longer comparable.
    assert stats["events_processed"] > 0
