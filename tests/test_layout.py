"""The package holds only code that the package itself reads."""

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
