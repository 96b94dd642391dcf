"""Schema versioning for every JSONL artifact the repo exports.

Each exporter writes one header line first::

    {"schema":"trace","type":"schema","version":1}

so a reader (and `scotch-repro inspect`) can identify a file from its
first record, and the golden-master tests pin the version numbers —
bumping one here without regenerating the fixtures is a deliberate,
reviewable act.  Readers skip schema records transparently, so
round-tripping a file returns exactly the payload records.

The *in-memory* JSONL strings (``FaultInjector.log_jsonl()``,
``HealthEngine.timeline_jsonl()``) stay headerless: they exist for
byte-for-byte determinism comparisons between runs, and the header
belongs to the file container, not the log itself.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Artifact kind -> current schema version.  Bump on format changes.
#: JSONL streams only: single-object canonical-JSON artifacts (the
#: health and telemetry scorecards) version themselves in-payload —
#: see ``repro.telemetry.scorecard.TELEMETRY_SCORECARD_VERSION``.
SCHEMA_VERSIONS: Dict[str, int] = {
    "trace": 1,
    "metrics": 1,
    "fault_log": 1,
    "alert_timeline": 1,
    "postmortem": 1,
    "pool_events": 1,
}


def schema_record(kind: str) -> Dict[str, Any]:
    """The header record for one artifact kind."""
    return {"type": "schema", "schema": kind,
            "version": SCHEMA_VERSIONS[kind]}


def schema_line(kind: str) -> str:
    """The header as a compact JSON line (no trailing newline)."""
    return json.dumps(schema_record(kind), sort_keys=True,
                      separators=(",", ":"))


def write_schema_header(handle: Any, kind: str) -> None:
    handle.write(schema_line(kind))
    handle.write("\n")


def write_jsonl(path: str, kind: str, text: str) -> None:
    """Write headerless JSONL ``text`` (may be empty) to ``path`` behind
    the ``kind`` schema header."""
    with open(path, "w") as handle:
        write_schema_header(handle, kind)
        if text:
            handle.write(text + "\n")


def is_schema_record(record: Any) -> bool:
    return isinstance(record, dict) and record.get("type") == "schema"


def sniff_schema(path: str) -> Optional[Dict[str, Any]]:
    """The schema header of a JSONL file, or None (legacy/headerless)."""
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    return None
                return record if is_schema_record(record) else None
    except OSError:
        return None
    return None
