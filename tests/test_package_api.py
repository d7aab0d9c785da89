"""Tests of the top-level package surface (lazy exports, metadata)."""

from __future__ import annotations

import pytest

import repro


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


class TestImportFootprint:
    def test_p2_cell_never_imports_scipy_stats(self, run_python):
        """σ's lognormal survival uses scipy.special, not scipy.stats."""
        proc = run_python(
            "import sys\n"
            "import repro\n"
            "from repro.spec import run_spec, spec_from_dict\n"
            "run_spec(spec_from_dict({'schema_version': 1, 'name': 'p2',\n"
            "    'apps': ['XGC'], 'models': ['P2'], 'include_base': False,\n"
            "    'replications': 1, 'seed': 3}), workers=1)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_start_up_loads_scipy_special_but_not_interpolate(self, run_python):
        """The entry points load scipy.special and nothing else of scipy's.

        scipy.interpolate (and with it scipy.optimize, linalg, sparse, fft
        and spatial) belongs to the measured-matrix PFS backend only, so no
        entry point may import it at start-up.  scipy.special, on the
        other hand, must already be loaded once ``repro.spec`` is: a σ
        campaign forks its pool workers from this parent, and a worker
        that imports scipy.special itself after the fork took campaign-sigma
        ``wall_s`` from 0.09 s to 0.39 s.
        """
        proc = run_python(
            "import sys\n"
            "import repro.spec\n"
            "print('scipy.special' in sys.modules)\n"
            "import repro.campaign, repro.cli, repro.service\n"
            "print('scipy.interpolate' in sys.modules)\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False", "False"]
