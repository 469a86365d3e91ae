"""Checks on the package source itself: every name a module of ``src/netsafety`` imports is read there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "netsafety"


def dead_imports(path: Path, root: Path = SRC.parent) -> list[str]:
    """``file:line: name`` for each name ``path`` imports and never reads, but for lines marked ``# noqa``."""
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa" not in lines[alias.lineno - 1]:
                dead.append(f"{path.relative_to(root)}:{alias.lineno}: {name}")
    return dead


def test_every_imported_name_is_read():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]  # an __init__ imports to re-export
    assert modules
    assert [line for path in modules for line in dead_imports(path)] == []


def test_a_dead_import_is_named_with_its_file_and_line(tmp_path):
    module = tmp_path / "netsafety" / "m.py"
    module.parent.mkdir()
    module.write_text("from __future__ import annotations\n\nimport json\nfrom typing import (\n    Iterable,\n"
                      "    Mapping,  # noqa: F401\n    Sequence,\n)\nfrom .geo import TangentPlane as Plane\n\n\n"
                      "def f(x: Iterable) -> Plane:\n    return json.dumps(x)\n")
    assert dead_imports(module, tmp_path) == ["netsafety/m.py:7: Sequence"]
