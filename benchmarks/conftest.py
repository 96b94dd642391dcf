"""Shared fixtures for the benchmarks.

Each benchmark regenerates a table — ``bench_figures.py`` every figure
and ablation of the paper, one parameter each: it runs the experiment
once and emits the rows both to stdout (visible with ``pytest -s``) and to
``benchmarks/output/<name>.txt``.
"""

import os

import pytest

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


@pytest.fixture
def emit():
    """Print a figure's table and persist it under benchmarks/output/."""

    def _emit(name: str, text: str) -> None:
        print("\n" + text)
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        with open(os.path.join(OUTPUT_DIR, f"{name}.txt"), "w") as handle:
            handle.write(text + "\n")

    return _emit
