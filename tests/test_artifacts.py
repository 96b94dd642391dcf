"""The artifact table (repro.obs.artifacts) and the report model
(repro.obs.report): every kind the CLI writes has one entry, is written
by a real writer and read back by `inspect`; kind names, the JSONL
reader and the HTML markup each live in one place; the docs table is the
registry's.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from repro.cli import INSPECT_ARTIFACTS, OBS_ARTIFACTS, RUN_COMMANDS, main
from repro.faults import HTML
from repro.obs.artifacts import (
    ARTIFACTS,
    artifacts_markdown,
    read_jsonl,
    sniff_kind,
)
from repro.obs.report import Table, Text, render_html, render_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


# ----------------------------------------------------------------------
# Round trip: what the CLI writes, `inspect` reads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """kind -> files of that kind, from real (short, seeded) CLI runs."""
    out = tmp_path_factory.mktemp("artifacts")
    files = {kind: [] for kind in ARTIFACTS}

    def run(argv, **outputs):
        """Run ``argv`` plus one ``--flag PATH`` per output; an output
        is ``kind=flag``."""
        argv = list(argv)
        for kind, flag in outputs.items():
            path = out / f"{argv[0]}.{kind}"
            argv += [flag, str(path)]
            files[kind].append(path)
        assert main(argv) == 0, argv

    run(["pool", "--seed", "1", "--health"], pool_events="--events",
        fault_log="--fault-log", scorecard="--scorecard-json")
    run(["chaos", "--seed", "1", "--duration", "16"],
        fault_log="--fault-log", alert_timeline="--alert-log",
        scorecard="--scorecard-json", postmortem="--postmortem-dir")
    run(["fig", "4", "--quick"], trace="--trace",
        metrics="--metrics", manifest="--manifest")
    run(["scale", "--seed", "1", "--host-vswitches", "6", "--mesh", "2",
         "--tors", "2", "--targets", "2", "--duration", "1"],
        run_report="--json")
    run(["telemetry", "--seed", "1", "--duration", "3", "--elephants", "2",
         "--mice", "2"], telemetry_scorecard="--json")
    (bundle_dir,) = files["postmortem"]
    files["postmortem"] = sorted(bundle_dir.iterdir())
    assert files["postmortem"], "the chaos run must trip an alert"
    run(["inspect", str(files["trace"][0])], critpath="--critpath")
    return files


@pytest.mark.slow
@pytest.mark.parametrize("kind", list(ARTIFACTS))
def test_every_kind_is_written_and_read_back(written, kind, capsys):
    assert written[kind], f"no CLI run wrote a {kind}"
    for path in written[kind]:
        capsys.readouterr()
        assert sniff_kind(str(path)) == kind
        assert main(["inspect", str(path)]) == 0, path
        out = capsys.readouterr().out
        # At least one table: a title, a header row, a rule of dashes.
        assert re.search(r"^-+(  -+)+\s*$", out, re.M), out
        sections = ARTIFACTS[kind].sections(str(path))
        assert out == render_text(sections) + "\n"
        assert any(isinstance(section, Table) for section in sections)


def test_table_holds_exactly_the_kinds_the_cli_writes():
    reachable = {kind for spec in RUN_COMMANDS.values()
                 for kind in spec.artifacts.values()}
    reachable |= set(OBS_ARTIFACTS.values())
    reachable |= set(INSPECT_ARTIFACTS.values())
    assert reachable - {HTML} == set(ARTIFACTS)
    for kind, entry in ARTIFACTS.items():
        assert entry.kind == kind and entry.version >= 1
        assert entry.written_by and entry.shows and "{path}" in entry.summary


def test_golden_pins_every_jsonl_schema_version():
    golden = json.loads((ROOT / "tests/golden/golden.json").read_text())
    assert golden["schemas"] == {kind: entry.version
                                 for kind, entry in ARTIFACTS.items()
                                 if entry.jsonl}


# ----------------------------------------------------------------------
# Recognition
# ----------------------------------------------------------------------
def test_sniff_kind_header_keys_and_default(tmp_path):
    path = tmp_path / "file"
    for kind, entry in ARTIFACTS.items():
        if not entry.jsonl:
            payload = dict.fromkeys(entry.keys, 0)
            path.write_text(json.dumps(payload))  # one line
            assert sniff_kind(str(path)) == kind
            path.write_text(json.dumps(payload, indent=2))  # many
        else:
            path.write_text(json.dumps({"type": "schema", "schema": kind,
                                        "version": entry.version}) + "\n")
        assert sniff_kind(str(path)) == kind
    # Nothing has written headerless JSONL since the headers arrived; a
    # headerless line file is taken for a trace, as is an empty one.
    path.write_text('{"type":"counter","name":"x","value":1}\n')
    assert sniff_kind(str(path)) == "trace"
    path.write_text("")
    assert sniff_kind(str(path)) == "trace"
    assert read_jsonl(str(path)) == []


def test_inspect_rejects_what_it_cannot_read(tmp_path, capsys):
    path = tmp_path / "unknown.jsonl"
    path.write_text('{"type":"schema","schema":"from_the_future",'
                    '"version":9}\n')
    assert main(["inspect", str(path)]) == 2
    assert "from_the_future" in capsys.readouterr().err
    path.write_text("not json at all\n")
    assert main(["inspect", str(path)]) == 2
    assert "not an artifact" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The two renderers
# ----------------------------------------------------------------------
def test_page_only_sections_and_escaping():
    sections = [Table("T <1>", ["a&b"], [["<td>"], [0.5]]),
                Text("tree\n  └─ leaf <x>", title="Tree"),
                Text("legend", page_only=True)]
    text = render_text(sections)
    assert text == ("T <1>\na&b   \n------\n<td>  \n0.5000\n\n"
                    "tree\n  └─ leaf <x>")
    page = render_html("P & Q", sections)
    assert page.startswith("<!DOCTYPE html>")
    assert "<title>P &amp; Q</title>" in page and "<h1>P &amp; Q</h1>" in page
    assert "<h2>T &lt;1&gt;</h2>" in page and "<th>a&amp;b</th>" in page
    assert "<td>&lt;td&gt;</td>" in page and "<td>0.5000</td>" in page
    assert "<h2>Tree</h2>" in page and "leaf &lt;x&gt;</pre>" in page
    assert "<pre>legend</pre>" in page


# ----------------------------------------------------------------------
# One place
# ----------------------------------------------------------------------
def _sources():
    return {path.relative_to(SRC).as_posix(): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


@pytest.mark.parametrize("needle", ["<table", "DOCTYPE"])
def test_markup_lives_in_the_report_module(needle):
    assert [name for name, text in _sources().items() if needle in text] == [
        "obs/report.py"]


def test_one_function_reads_json_lines():
    """json.loads is called in exactly one function under src/repro
    (single-object kinds use json.load)."""
    sites = []
    for name, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)) and any(
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func) == "json.loads"
                    for call in ast.walk(node)):
                sites.append(f"{name}:{getattr(node, 'name', 'lambda')}")
    assert sites == ["obs/artifacts.py:iter_records"]


def test_kind_names_are_literals_only_in_the_table_and_the_cli_maps():
    # `trace` and `metrics` are also flag names and track names; the
    # other kinds' names mean nothing but the artifact.
    kinds = [kind for kind in ARTIFACTS if kind not in ("trace", "metrics")]
    quoted = re.compile("[\"'](" + "|".join(kinds) + ")[\"']")
    for name, text in _sources().items():
        found = set(quoted.findall(text))
        if name == "obs/artifacts.py":
            assert found == set(kinds)
        elif name == "cli.py":
            # ... and there only in the flag -> kind maps and in
            # subcommand names, never in a comparison.
            assert not re.search(r"kind\s*[!=]=", text)
        else:
            assert not found, f"{name} spells out {sorted(found)}"


def test_cmd_inspect_has_no_per_kind_code():
    tree = ast.parse((SRC / "cli.py").read_text())
    (body,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "cmd_inspect"]
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom, ast.If,
                                     ast.Compare))
                   for node in ast.walk(body))
    assert not (SRC / "obs/schema.py").exists()
    assert not (SRC / "obs/inspect.py").exists()


def test_one_metrics_package_and_one_benchmark_stack():
    """The legacy measurement package and bench harness are gone, with
    no shim and no mention left in code, docs or CI (this file names
    them; ``benchmarks/e2e`` is the one benchmark stack)."""
    gone = re.compile(r"repro\.metrics|_harness|emit_bench"
                      r"|REPRO_BENCH_DIR|REPRO_SCALE_SIZE")
    places = [ROOT / name for name in (
        "src", "tests", "examples", "docs", ".github", "README.md",
        "DESIGN.md", "CONTRIBUTING.md")]
    places += sorted((ROOT / "benchmarks").glob("*.py"))
    files = [path for place in places
             for path in ([place] if place.is_file() else place.rglob("*"))
             if path.is_file() and "__pycache__" not in path.parts
             and path != Path(__file__).resolve()]
    assert len(files) > 200
    assert [path.relative_to(ROOT).as_posix() for path in files
            if gone.search(path.read_text(errors="ignore"))] == []
    assert not (SRC / "metrics").exists()


def test_obs_gains_no_import_of_the_layers_that_import_it():
    """``sim/engine.py`` imports ``repro.obs.base``, so a module that
    ``obs/__init__`` pulls in may not import the engine or ``repro.net``
    back.  The daemons' timer is the whole allowance (the flight
    recorder resolves callback names through the engine it is bound to):
    recorders and estimators that need more live in ``net`` and ``sim``."""
    found = {(name, module) for name, text in _sources().items()
             if name.startswith("obs/")
             for module in re.findall(
                 r"^\s*(?:from|import) (repro\.(?:sim|net)[\w.]*)", text, re.M)}
    assert found == {("obs/health.py", "repro.sim.process"),
                     ("obs/metrics.py", "repro.sim.process")}


# ----------------------------------------------------------------------
# Docs
# ----------------------------------------------------------------------
def test_docs_artifacts_table_is_the_registry():
    docs = (ROOT / "docs/observability.md").read_text()
    assert artifacts_markdown() in docs
