"""Every name a test module imports is referenced in that module."""

import ast
from pathlib import Path


def test_every_test_import_is_referenced():
    """An import no line of the module reads is dead weight: it names a
    dependency the tests do not have.  Lists each as ``file:line name``."""
    unused = []
    for path in sorted(Path(__file__).resolve().parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a.asname or a.name) for a in node.names if a.name != "*"]
            else:
                continue
            unused.extend(f"{path.name}:{node.lineno} {name}"
                          for name in bound if name not in referenced)
    assert unused == []
