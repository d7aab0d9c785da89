"""``repro.spec`` — one declarative experiment spec for every entry point.

The paper's evaluation grid — (application, platform, failure model,
C/R model, sweep axis, replications, seed) — used to be assembled three
divergent ways: ad-hoc CLI kwargs, ``CellSpec`` construction inside the
sweep engines, and the declarative scenario programs of
``repro.validate``.  This package promotes the proven declarative
pattern into the single source of truth:

* :mod:`repro.spec.schema` — the schema-versioned
  :class:`~repro.spec.schema.ExperimentSpec` document and its field
  tables (``tools/check_schemas.py`` keeps code, docs and examples
  in sync);
* :mod:`repro.spec.loader` — validating loader (every problem reported
  at once), canonical serialization, and the stable
  :func:`~repro.spec.loader.spec_hash`;
* :mod:`repro.spec.build` — resolution to simulation objects and the
  **single** grid constructor both the spec path and the sweep engines
  use, so spec-launched campaigns hit exactly the store keys
  kwargs-driven ones always produced.

User-facing reference: ``docs/EXPERIMENT_SPEC.md``.  Example documents:
``examples/specs/``.  CLI: ``pckpt run --spec FILE``.
"""

from .build import (
    ResolvedExperiment,
    build_cells,
    cell_keys,
    resolve,
    run_resolved,
    run_spec,
)
from .loader import (
    SpecError,
    canonical_spec_json,
    dump_spec,
    load_spec,
    loads_spec,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)
from .schema import (
    SPEC_SCHEMA_VERSION,
    SWEEP_AXES,
    ExperimentSpec,
    FailureRef,
    PlatformRef,
    PredictorRef,
    SequenceRef,
    SweepAxis,
)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SWEEP_AXES",
    "ExperimentSpec",
    "PlatformRef",
    "FailureRef",
    "PredictorRef",
    "SequenceRef",
    "SweepAxis",
    "SpecError",
    "spec_from_dict",
    "spec_to_dict",
    "load_spec",
    "loads_spec",
    "dump_spec",
    "canonical_spec_json",
    "spec_hash",
    "ResolvedExperiment",
    "resolve",
    "build_cells",
    "cell_keys",
    "run_spec",
    "run_resolved",
]
