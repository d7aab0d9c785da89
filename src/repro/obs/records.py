"""One record checker for every declared ``{name: (type, nullable)}`` table.

Each schema-versioned record the package writes — telemetry snapshots
(:data:`~repro.obs.telemetry.SNAPSHOT_FIELDS`), span fragments, SLO
rows, Gantt payloads, service jobs and events, sched baselines —
declares its fields once as a table mapping a field name to its Python
type and whether null is allowed.  :func:`check_record` checks one JSON
object against such a table; ``validate_sched_payload`` and
``tools/check_schemas.py`` both call it, so a record is judged the
same way wherever it is checked.

JSON has one number type, so ``float`` accepts ints.  A bool is never
a valid ``int`` or ``float``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["check_record"]


def _type_ok(ftype: type, value: Any) -> bool:
    if isinstance(value, bool):
        return ftype is bool
    if ftype is float:
        return isinstance(value, (int, float))
    return isinstance(value, ftype)


def check_record(obj: Any, fields: Dict[str, tuple], where: str,
                 kind: Optional[str] = None,
                 version: Optional[int] = None) -> List[str]:
    """Problems with *obj* against *fields*; empty when it conforms.

    Every declared field must be present with its declared type (or
    null, where the table allows it), and no undeclared field may
    appear.  With *kind* / *version*, ``obj["kind"]`` and
    ``obj["schema_version"]`` must equal them.  Each problem starts
    with *where*.
    """
    if not isinstance(obj, dict):
        return [f"{where}: record is not an object"]
    problems = []
    if kind is not None and obj.get("kind") != kind:
        problems.append(f"{where}: kind is {obj.get('kind')!r}, not {kind!r}")
    if version is not None and obj.get("schema_version") != version:
        problems.append(
            f"{where}: schema_version is {obj.get('schema_version')!r}, "
            f"code declares {version}"
        )
    for name in sorted(set(obj) - set(fields)):
        problems.append(f"{where}: undeclared field {name!r}")
    for name, (ftype, nullable) in fields.items():
        if name not in obj:
            problems.append(f"{where}: missing field {name!r}")
        elif obj[name] is None:
            if not nullable:
                problems.append(f"{where}: {name} is null but not nullable")
        elif not _type_ok(ftype, obj[name]):
            problems.append(
                f"{where}: {name} must be {ftype.__name__}, "
                f"got {obj[name]!r}"
            )
    return problems
