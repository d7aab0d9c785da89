"""Result fingerprints and the committed golden digests (stdlib only).

A fingerprint spells every float with ``float.hex``, so two results have
the same fingerprint only when they are bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def canonical(value: Any) -> Any:
    """*value* as JSON-ready data with every float spelled by ``float.hex``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, float):
        return float.hex(value)
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def digest(value: Any) -> str:
    blob = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def results_digest(results: Iterable[Tuple[Any, Any]]) -> str:
    """Digest of ``(cell_key, result)`` pairs, in the order given."""
    return digest([[key, result] for key, result in results])


def golden_digest(path: Path, workload: str, size: str,
                  seed: int) -> Optional[str]:
    """The committed digest of ``<workload>/<size>/<seed>``, if any."""
    table: Dict[str, str] = json.loads(path.read_text(encoding="utf-8"))
    return table.get(f"{workload}/{size}/{seed}")
