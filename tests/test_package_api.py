"""Tests of the top-level package surface (lazy exports, metadata)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_entry_points(self):
        assert callable(repro.simulate_application)
        assert callable(repro.run_replications)
        assert repro.SUMMIT.name == "summit"
        assert repro.TITAN_WEIBULL.name == "titan"
        assert set(repro.PAPER_MODELS) == {"B", "M1", "M2", "P1", "P2"}
        assert len(repro.APPLICATIONS) == 6

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_real_name

    def test_dir_includes_lazy_names(self):
        names = dir(repro)
        assert "CRSimulation" in names
        assert "APPLICATIONS" in names

    def test_cached_after_first_access(self):
        first = repro.get_model
        second = repro.get_model
        assert first is second


# Installed as sitecustomize, so every process of a run has it: the parent,
# forked pool workers (inherited) and spawned ones (run at start-up).  It
# logs and refuses any scipy import.
_SCIPY_GUARD = """\
import os, sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            with open(os.environ["SCIPY_IMPORT_LOG"], "a") as log:
                log.write(f"{os.getpid()} {name}\\n")
            raise ImportError(f"scipy import refused: {name}")
        return None

sys.meta_path.insert(0, _NoScipy())
"""


class TestImportFootprint:
    def test_start_up_loads_no_scipy(self, run_python):
        """The entry points load no scipy module at all.

        σ's ``ndtr`` is a pure-Python port (``failures/_ndtr.py``), and the
        only scipy users, Fig 2a's quantiles and Fig 2c's measured-matrix
        backend, import it when they run.
        """
        proc = run_python(
            "import sys\n"
            "import repro.spec, repro.campaign, repro.cli, repro.service\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]

    def test_p2_campaign_on_two_workers_never_imports_scipy(self, tmp_path):
        """A σ campaign imports scipy neither in the parent nor in a worker."""
        (tmp_path / "sitecustomize.py").write_text(_SCIPY_GUARD)
        log = tmp_path / "scipy-imports.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tmp_path), _SRC, env.get("PYTHONPATH")) if p)
        env["SCIPY_IMPORT_LOG"] = str(log)
        code = (
            "import sys\n"
            "assert any(type(f).__name__ == '_NoScipy' for f in sys.meta_path)\n"
            "from repro.spec import run_spec, spec_from_dict\n"
            "res = run_spec(spec_from_dict({'schema_version': 1, 'name': 'p2',\n"
            "    'apps': ['XGC', 'POP'], 'models': ['P2'], 'include_base': False,\n"
            "    'replications': 4, 'seed': 3}), workers=2)\n"
            "print(len(res))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2"]
        assert not log.exists(), log.read_text()


class TestScipyOptional:
    """Without scipy the simulations run; the figures that need it say so."""

    @staticmethod
    def _cli_without_scipy(run_python, *argv):
        return run_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.cli import main\n"
            f"sys.exit(main({list(argv)!r}))\n"
        )

    def test_quickstart_runs_without_scipy(self, run_python):
        spec = Path(__file__).resolve().parent.parent / "examples/specs/quickstart.json"
        proc = self._cli_without_scipy(run_python, "run", "--spec", str(spec))
        assert proc.returncode == 0, proc.stderr
        assert "spec hash:" in proc.stdout

    @pytest.mark.parametrize("figure", ["fig2a", "fig2c"])
    def test_scipy_figures_name_the_extra(self, run_python, figure):
        proc = self._cli_without_scipy(run_python, "experiment", figure)
        assert proc.returncode == 2
        assert "pip install repro[figures]" in proc.stderr
        assert "Traceback" not in proc.stderr
