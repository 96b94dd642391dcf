"""Reproducibility manifests.

A manifest is one JSON file that records everything needed to rerun and
cross-check an experiment: the exact command, the seed(s), the
calibrated switch-profile constants and Scotch config in force, package
version, and the paths of any trace/metrics files the run emitted.
The paper's results live or die by this kind of bookkeeping — a figure
without its constants is not reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from repro.obs.artifacts import ARTIFACTS, MANIFEST

MANIFEST_VERSION = ARTIFACTS[MANIFEST].version


def _as_plain(value: Any) -> Any:
    """Best-effort conversion to JSON-serializable plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _as_plain(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _as_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def build_manifest(
    command: List[str],
    seed: Optional[int] = None,
    config: Any = None,
    profiles: Optional[List[Any]] = None,
    trace_path: Optional[str] = None,
    chrome_trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dict (see docs/observability.md for the
    schema)."""
    try:
        from repro import __version__ as repro_version
    except ImportError:  # pragma: no cover - package metadata optional
        repro_version = None
    manifest: Dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "created_at_unix": time.time(),
        "command": list(command),
        "seed": seed,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repro_version": repro_version,
        "config": _as_plain(config) if config is not None else None,
        "profiles": [_as_plain(p) for p in profiles] if profiles else [],
        "outputs": {
            "trace_jsonl": trace_path,
            "trace_chrome": chrome_trace_path,
            "metrics_jsonl": metrics_path,
        },
    }
    if extra:
        manifest["extra"] = _as_plain(extra)
    return manifest


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
