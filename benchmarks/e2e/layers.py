"""Layer attribution: source file -> layer, profile -> per-layer rows.

A layer is a package of ``src/repro`` (``switch`` is split in three,
because its flow table and OFA are what the paper's bottleneck argument
is about).  The layer of a function is the layer of the file that
defines it, derived from the filename — there is no hand-kept map of
callbacks, so a function moved between files moves between layers by
itself and a new package fails the tests until it is named here.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from typing import Callable, Dict, List, Tuple

import repro

#: ``src/repro`` sub-packages that are a layer of their own.
_PACKAGES = {
    "sim": "sim",
    "net": "net",
    "openflow": "openflow",
    "controller": "controller",
    "core": "core",
    "cluster": "cluster",
    "faults": "faults",
    "obs": "obs",
    "metrics": "obs",  # the legacy package beside repro.obs
    "telemetry": "telemetry",
    "traffic": "traffic",
    "testbed": "testbed",
}
#: ``repro/switch`` is split by file; the rest is the datapath.
_SWITCH_FILES = {"flow_table.py": "switch.flow_table", "ofa.py": "switch.ofa"}
#: Top-level modules of ``src/repro`` (the CLI and the package root).
_TOP_LEVEL = "testbed"

#: Builtins and the standard library.
PYTHON = "python"
#: The benchmark's own event hook, present only in the traced run.  It
#: is listed in the trace file and left out of every share and count.
BENCH = "bench"

LAYERS: Tuple[str, ...] = (
    "sim", "net", "switch.datapath", "switch.flow_table", "switch.ofa",
    "openflow", "controller", "core", "cluster", "faults", "obs",
    "telemetry", "traffic", "testbed", PYTHON,
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of_module(relative: str) -> str:
    """Layer of a file given its path relative to ``src/repro``.
    Raises ``KeyError`` for a package no layer names."""
    parts = relative.replace(os.sep, "/").split("/")
    if len(parts) == 1:
        return _TOP_LEVEL
    if parts[0] == "switch":
        return _SWITCH_FILES.get(parts[-1], "switch.datapath")
    return _PACKAGES[parts[0]]


@functools.lru_cache(maxsize=None)
def layer_of_file(filename: str) -> str:
    """Layer of a profiled function's ``co_filename``."""
    if filename.startswith(_REPRO_DIR):
        return layer_of_module(filename[len(_REPRO_DIR):])
    if filename.startswith(_BENCH_DIR):
        return BENCH
    return PYTHON


def layer_of_callback(callback: Callable) -> str:
    """Layer of the file defining an event's callback."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    function = getattr(callback, "__func__", callback)
    code = getattr(function, "__code__", None)
    if code is None:  # an instance with __call__
        code = type(callback).__call__.__code__
    return layer_of_file(code.co_filename)


class EventCounter:
    """``Simulator.set_event_hook`` target: root events per layer and
    calendar depth after each event."""

    def __init__(self) -> None:
        self.root_events: Dict[str, int] = {}
        self.events = 0
        self.heap_depth_max = 0
        self._heap_depth_sum = 0
        self._layer_of: Dict[object, str] = {}

    def __call__(self, event, wall_s: float, heap_depth: int) -> None:
        callback = event.callback
        # Bound methods are made anew per event; their function is not.
        key = getattr(callback, "__func__", callback)
        layer = self._layer_of.get(key)
        if layer is None:
            layer = self._layer_of[key] = layer_of_callback(callback)
        self.root_events[layer] = self.root_events.get(layer, 0) + 1
        self.events += 1
        self._heap_depth_sum += heap_depth
        if heap_depth > self.heap_depth_max:
            self.heap_depth_max = heap_depth

    @property
    def heap_depth_mean(self) -> float:
        return self._heap_depth_sum / self.events if self.events else 0.0


def layer_rows(profile: cProfile.Profile) -> Tuple[Dict[str, Dict], List[Dict]]:
    """Group a profile by layer.

    Returns ``(rows, edges)``: ``rows[layer]`` has ``self_s`` and
    ``calls``; each edge is a layer -> layer boundary with the number of
    calls across it and their cumulative seconds (the time spent below
    that boundary, callee's children included)."""
    rows = {layer: {"self_s": 0.0, "calls": 0}
            for layer in LAYERS + (BENCH,)}
    edges: Dict[Tuple[str, str], Dict] = {}
    for (filename, _, _), (_, calls, self_s, _, callers) in (
            pstats.Stats(profile).stats.items()):
        layer = layer_of_file(filename)
        rows[layer]["self_s"] += self_s
        rows[layer]["calls"] += calls
        for (caller_file, _, _), (_, edge_calls, _, cumulative_s) in (
                callers.items()):
            source = layer_of_file(caller_file)
            if source == layer:
                continue
            edge = edges.setdefault(
                (source, layer), {"calls": 0, "cumulative_s": 0.0})
            edge["calls"] += edge_calls
            edge["cumulative_s"] += cumulative_s
    edge_list = [
        {"from": source, "to": target, **figures}
        for (source, target), figures in sorted(edges.items())
    ]
    return rows, edge_list
