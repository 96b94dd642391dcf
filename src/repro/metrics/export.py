"""Exporting measurements for offline analysis.

The paper's workflow is tcpdump → offline trace analysis; the analogue
here is dumping a :class:`~repro.metrics.recorder.PacketRecorder`'s
per-flow records (or a whole experiment's taps) to CSV or JSONL, so
results can be re-analyzed without re-running the simulation.  The
JSONL variant shares its format family with the observability exports
(:mod:`repro.obs`): one object per line, stable key order, types
preserved (no string round-trip for floats/None).
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List, Optional

from repro.metrics.recorder import PacketRecorder

FLOW_FIELDS = [
    "src_ip",
    "dst_ip",
    "proto",
    "src_port",
    "dst_port",
    "first_sent_at",
    "first_received_at",
    "last_received_at",
    "packets_sent",
    "packets_received",
    "bytes_received",
    "succeeded",
    "setup_latency",
    "completion_time",
]


def write_flow_records(path: str, tap: PacketRecorder) -> int:
    """Dump one tap's per-flow records to CSV; returns the row count."""
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(FLOW_FIELDS)
        for key, record in sorted(tap.records.items()):
            writer.writerow([
                key.src_ip, key.dst_ip, key.proto, key.src_port, key.dst_port,
                _fmt(record.first_sent_at), _fmt(record.first_received_at),
                _fmt(record.last_received_at),
                record.packets_sent, record.packets_received, record.bytes_received,
                int(record.succeeded), _fmt(record.setup_latency),
                _fmt(record.completion_time),
            ])
            rows += 1
    return rows


def read_flow_records(path: str) -> List[Dict[str, object]]:
    """Load a CSV produced by :func:`write_flow_records` (typed)."""
    out: List[Dict[str, object]] = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            out.append({
                "src_ip": row["src_ip"],
                "dst_ip": row["dst_ip"],
                "proto": int(row["proto"]),
                "src_port": int(row["src_port"]),
                "dst_port": int(row["dst_port"]),
                "first_sent_at": _parse(row["first_sent_at"]),
                "first_received_at": _parse(row["first_received_at"]),
                "last_received_at": _parse(row["last_received_at"]),
                "packets_sent": int(row["packets_sent"]),
                "packets_received": int(row["packets_received"]),
                "bytes_received": int(row["bytes_received"]),
                "succeeded": bool(int(row["succeeded"])),
                "setup_latency": _parse(row["setup_latency"]),
                "completion_time": _parse(row["completion_time"]),
            })
    return out


def _record_dict(key, record) -> Dict[str, object]:
    return {
        "src_ip": key.src_ip,
        "dst_ip": key.dst_ip,
        "proto": key.proto,
        "src_port": key.src_port,
        "dst_port": key.dst_port,
        "first_sent_at": record.first_sent_at,
        "first_received_at": record.first_received_at,
        "last_received_at": record.last_received_at,
        "packets_sent": record.packets_sent,
        "packets_received": record.packets_received,
        "bytes_received": record.bytes_received,
        "succeeded": record.succeeded,
        "setup_latency": record.setup_latency,
        "completion_time": record.completion_time,
    }


def write_flow_records_jsonl(path: str, tap: PacketRecorder) -> int:
    """Dump one tap's per-flow records as JSONL; returns the row count."""
    rows = 0
    with open(path, "w") as handle:
        for key, record in sorted(tap.records.items()):
            handle.write(json.dumps(_record_dict(key, record), sort_keys=True,
                                    separators=(",", ":")))
            handle.write("\n")
            rows += 1
    return rows


def read_flow_records_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a JSONL file produced by :func:`write_flow_records_jsonl`;
    same record shape as :func:`read_flow_records`."""
    from repro.obs.artifacts import read_jsonl

    return read_jsonl(path)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.9f}"


def _parse(text: str) -> Optional[float]:
    return None if text == "" else float(text)
