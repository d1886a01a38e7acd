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


# `cli.main(argv=None)` reads sys.argv when run as a program; the benchmark
# worker and the tests call it with an argv list, never a `src/` call.
DEFAULT_EXEMPT = {"main": {"argv"}}


def unset_defaults(src: pathlib.Path) -> list:
    """Every defaulted parameter of a `src` function that no `src` call to a
    function of that name passes, by position or by keyword; a call with `*`
    or `**` passes all of them.  A class's `__init__` is called by the class
    name, other dunders by the language, and a method's positions skip its
    first parameter."""
    defs, calls = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defs += [(node.name, f, True) for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defs.append((node.name, node, id(node) in methods))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for name, fn, is_method in defs:
        params = fn.args.posonlyargs + fn.args.args
        positional = [a.arg for a in params[1 if is_method else 0:]]
        defaulted = [a.arg for a in params[len(params) - len(fn.args.defaults):]]
        defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
        passed = set()
        for call in calls.get(name, ()):
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(k.arg is None for k in call.keywords):
                passed.update(defaulted)
            passed.update(positional[:len(call.args)])
            passed.update(k.arg for k in call.keywords)
        unset += [f"{name}({arg})" for arg in defaulted
                  if arg not in passed and arg not in DEFAULT_EXEMPT.get(name, ())]
    return sorted(unset)


def test_every_default_parameter_is_set_by_some_src_call():
    assert unset_defaults(SRC) == []
