"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.des import Environment
from repro.failures.weibull import WeibullParams
from repro.workloads.applications import ApplicationSpec
from repro.iomodel.bandwidth import GiB


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for stochastic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_app() -> ApplicationSpec:
    """A small, fast-to-simulate application (minutes of compute)."""
    return ApplicationSpec(
        name="TINY",
        nodes=16,
        checkpoint_bytes_total=16 * 8.0 * GiB,  # 8 GiB per node
        compute_hours=2.0,
    )


@pytest.fixture
def big_app() -> ApplicationSpec:
    """A large-footprint application (per-node ckpt ~ CHIMERA's)."""
    return ApplicationSpec(
        name="BIGLY",
        nodes=512,
        checkpoint_bytes_total=512 * 280.0 * GiB,
        compute_hours=4.0,
    )


@pytest.fixture
def hot_weibull() -> WeibullParams:
    """A failure distribution hot enough to exercise failures quickly.

    MTBF for a full-system job is a fraction of an hour, so a 2-hour
    tiny_app run sees several failures.
    """
    return WeibullParams("test-hot", shape=0.7, scale_hours=0.35, system_nodes=16)


@pytest.fixture
def mild_weibull() -> WeibullParams:
    """Frequent-but-survivable failures for the 512-node big_app.

    App-level MTBF ≈ 2.5 h, comfortably above recovery times — hot enough
    to see several failures in a 4 h run without livelocking.
    """
    return WeibullParams("test-mild", shape=0.7, scale_hours=1.2, system_nodes=512)


@pytest.fixture
def warm_weibull() -> WeibullParams:
    """Moderate rate: a sane OCI (~17 min) but rarely any failure in 2 h."""
    return WeibullParams("test-warm", shape=0.7, scale_hours=30.0, system_nodes=16)


@pytest.fixture
def cold_weibull() -> WeibullParams:
    """A distribution so quiet that failures essentially never occur."""
    return WeibullParams("test-cold", shape=0.7, scale_hours=1.0e6, system_nodes=16)


@pytest.fixture
def run_python():
    """Run a code string in a fresh interpreter importing the package from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)

    return run
