"""Checks on the package source itself: every name a module of ``src/netsafety`` imports is read there, every
private name a module defines is read by some module, only the one reader and the one writer touch files, the
CSV dialect depends on no stage, and only ``crashes`` states the slot rule."""

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


def unread_private_names(paths: list[Path], root: Path = SRC.parent) -> list[str]:
    """``file:line: name`` for each module-level private function, class or constant of ``paths`` that none of them
    reads: no ``name`` load, ``.name`` attribute or ``import name`` of it in any of the modules."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{path.relative_to(root)}:{node.lineno}: {name}" for name in defined
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir"}
FILE_FUNCTIONS = {("netsafety/config.py", "read_input"), ("netsafety/cli.py", "write_output")}  # reader, writer


def file_calls(path: Path, root: Path = SRC.parent) -> list[str]:
    """``file:line: name`` for each call of a FILE_CALLS name in ``path``, but for those in FILE_FUNCTIONS."""
    tree = ast.parse(path.read_text())
    module = path.relative_to(root).as_posix()
    exempt = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef) and (module, fn.name) in FILE_FUNCTIONS
              for node in ast.walk(fn)}
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in FILE_CALLS:
                calls.append((node.lineno, f"{module}:{node.lineno}: {name}"))
    return [line for _, line in sorted(calls)]


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


def test_every_private_name_is_read():
    assert unread_private_names(sorted(SRC.rglob("*.py"))) == []


def test_an_unread_private_name_is_named_with_its_file_and_line(tmp_path):
    package = tmp_path / "netsafety"
    package.mkdir()
    (package / "a.py").write_text("import math\n\n_LIMIT = 3\n_UNUSED: int = 4\n__all__ = ['f']\n\n\n"
                                  "def _helper(x):\n    return x * math.pi\n\n\n"
                                  "class _Spare:\n    pass\n\n\ndef f():\n    return _LIMIT\n")
    (package / "b.py").write_text("from .a import _helper\n\nVALUE = _helper(2)\n")
    assert unread_private_names([package / "a.py", package / "b.py"], tmp_path) == [
        "netsafety/a.py:4: _UNUSED", "netsafety/a.py:12: _Spare"]


def test_only_the_reader_and_the_writer_touch_files():
    assert [line for path in sorted(SRC.rglob("*.py")) for line in file_calls(path)] == []


def test_a_file_call_outside_them_is_named_with_its_file_and_line(tmp_path):
    package = tmp_path / "netsafety"
    package.mkdir()
    (package / "cli.py").write_text("from pathlib import Path\n\n\ndef write_output(path, text):\n"
                                    "    path.parent.mkdir()\n    path.write_text(text)\n\n\ndef cmd(path):\n"
                                    "    Path(path).write_bytes(b'')\n    with open(path) as f:\n"
                                    "        return f.read()\n")
    (package / "m.py").write_text("def read_input(path):\n    return path.read_text()\n")
    assert file_calls(package / "cli.py", tmp_path) + file_calls(package / "m.py", tmp_path) == [
        "netsafety/cli.py:10: write_bytes", "netsafety/cli.py:11: open", "netsafety/m.py:2: read_text"]


def package_imports(path: Path) -> set[str]:
    """The modules of the package that ``path`` imports, as relative names: ``.errors``, ``.stats.regression``."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            dots = "." * node.level
            imported.update([dots + node.module] if node.module else [dots + alias.name for alias in node.names])
    return imported


def test_the_csv_dialect_depends_on_no_stage():
    # csvio reads and writes every table of the pipeline; the crash and association stages reach it directly, not
    # through the trajectory stage.
    assert package_imports(SRC / "csvio.py") == {".errors"}
    assert [name for name in ("crashes.py", "association.py") if ".trajectories" in package_imports(SRC / name)] == []
    # Both import forms are read (``from . import csvio``, ``from .errors import ...``), so the checks above can fail.
    assert package_imports(SRC / "cli.py") >= {".csvio", ".errors", ".trajectories"}


def slot_rule_uses(path: Path, root: Path = SRC.parent) -> list[str]:
    """``file:line: what`` for each read of ``SLOT_MINUTES`` (name, attribute or import) and each ``24 * 60`` in
    ``path``."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id == "SLOT_MINUTES" and not isinstance(node.ctx, ast.Store):
            uses.append((node.lineno, "SLOT_MINUTES"))
        elif isinstance(node, ast.Attribute) and node.attr == "SLOT_MINUTES":
            uses.append((node.lineno, "SLOT_MINUTES"))
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "SLOT_MINUTES" for alias in node.names):
            uses.append((node.lineno, "SLOT_MINUTES"))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
              and [getattr(side, "value", None) for side in (node.left, node.right)] == [24, 60]):
            uses.append((node.lineno, "24 * 60"))
    return [f"{path.relative_to(root).as_posix()}:{line}: {what}" for line, what in sorted(uses)]


def test_only_crashes_states_the_slot_rule():
    # crashes.slots_per_day checks a slot length against SLOT_MINUTES and counts the day's slots; every other module
    # calls it.
    assert [line for path in sorted(SRC.rglob("*.py")) if path.name != "crashes.py"
            for line in slot_rule_uses(path)] == []
    assert slot_rule_uses(SRC / "crashes.py")  # the rule is still there to be found


def test_a_slot_rule_use_is_named_with_its_file_and_line(tmp_path):
    module = tmp_path / "netsafety" / "m.py"
    module.parent.mkdir()
    module.write_text("from . import crashes\nfrom .crashes import SLOT_MINUTES\n\n\n"
                      "def f(m):\n    return m in SLOT_MINUTES and m in crashes.SLOT_MINUTES\n\n\n"
                      "def g(m):\n    return 24 * 60 // m + 60 * 24 + 24 * 30\n")
    assert slot_rule_uses(module, tmp_path) == [
        "netsafety/m.py:2: SLOT_MINUTES", "netsafety/m.py:6: SLOT_MINUTES", "netsafety/m.py:6: SLOT_MINUTES",
        "netsafety/m.py:10: 24 * 60"]
