"""The package holds only what its runs call.

A public module-level function or class of ``src/degenmfem`` must be
named by another module of the package, by its own module outside its
definition, or by the benchmark harness in ``perfbench``, and a field of
one of its dataclasses must be read as an attribute somewhere in the
package or the harness.  Oracles that only the tests call belong in
``tests/oracle_utils.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "degenmfem").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))


def _names(nodes):
    """Every identifier the nodes read, import or look up as an attribute."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name.rpartition(".")[2])
    return found


def _trees(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def unused_public_names(src_paths, harness_paths):
    """(module, name) of each public definition nothing else names."""
    src, harness = _trees(src_paths), _trees(harness_paths)
    outside = _names(harness.values())
    unused = []
    for path, tree in src.items():
        others = _names(t for p, t in src.items() if p != path)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            own = _names(n for n in tree.body if n is not node)
            if node.name not in others | own | outside:
                unused.append((path.stem, node.name))
    return unused


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def unread_fields(src_paths, harness_paths):
    """(module, class, field) of each dataclass field that no attribute
    read in the package or the harness names."""
    src, harness = _trees(src_paths), _trees(harness_paths)
    read = {sub.attr for tree in (*src.values(), *harness.values())
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return [(path.stem, node.name, stmt.target.id)
            for path, tree in src.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(_is_dataclass(d) for d in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_every_public_definition_has_a_caller():
    assert SRC and HARNESS
    assert unused_public_names(SRC, HARNESS) == []


def test_an_uncalled_definition_is_flagged(tmp_path):
    # The guard itself: a definition only its own body names is caught,
    # and one its module calls elsewhere is not.
    module = tmp_path / "module.py"
    module.write_text("def lonely():\n    return lonely\n\n\n"
                      "def used():\n    return 1\n\n\nVALUE = used()\n")
    assert unused_public_names([module], []) == [("module", "lonely")]


def test_every_dataclass_field_is_read():
    assert unread_fields(SRC, HARNESS) == []


def test_an_unread_field_is_flagged(tmp_path):
    # The guard itself: a field that is only set, by the constructor, a
    # keyword or an assignment, is caught; one read as an attribute, in
    # the module or the harness, is not.
    module = tmp_path / "module.py"
    module.write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Record:\n"
        "    read: int\n    harness: int\n    unread: int\n\n\n"
        "def make():\n    record = Record(1, 2, unread=3)\n"
        "    record.unread = 4\n    return record.read\n")
    harness = tmp_path / "harness.py"
    harness.write_text("def use(record):\n    return record.harness\n")
    assert unread_fields([module], [harness]) == [
        ("module", "Record", "unread")]
    assert unread_fields([module], []) == [
        ("module", "Record", "harness"), ("module", "Record", "unread")]
