"""The package holds only code, and imports only names, that the package itself reads."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "zpmeasures"


def unreferenced_definitions(src: pathlib.Path) -> list:
    """Every function, method and class defined under `src` whose name no
    `Name` or `Attribute` node there reads; an import alias is not a use, and
    dunder names (called by the language) never count."""
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(where for name, where in defined.items()
                  if name not in used and not (name.startswith("__") and name.endswith("__")))


def test_every_src_definition_is_referenced_from_src():
    assert unreferenced_definitions(SRC) == []


def unread_imports(src: pathlib.Path) -> list:
    """Every name a module under `src` imports that no `Name` node of that
    module reads; `__init__.py` is exempt, its imports being the public
    re-exports, and so is `from __future__ import ...`."""
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported, read = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Name):
                read.add(node.id)
        unread += [f"{path.stem}: {name}" for name in imported if name not in read]
    return unread


def test_every_src_import_is_read_in_its_module():
    assert unread_imports(SRC) == []
