"""The package holds only code, and imports only names, that the package
itself reads, and a user's CLI runs call every function it defines."""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


# One run of each kind a user makes: passing and `--tamper` runs, the three
# report formats, p = 5 (the p >= 5 checks), every `emit` object, and `--out`.
REACH_MATRIX = (
    "verify all --p 5 --nmax 1 --sigma-rep 1 --format json",
    "verify all --p 3 --nmax 2 --sigma-rep 2 --tamper --format csv",
    "verify octagon --p 3 --n 1 --degree 3 --out {out}",
    "emit measure --measure M --c 7 --p 3 --nmax 2 --format csv",
    "emit iwasawa --measure E1 --c 2 --p 3 --nmax 2 --terms 3",
    "emit f-series --measure dirac --a 1/2 --p 3 --nmax 2 --terms 3",
    "emit nc-series --word [x,y0]*y1^-2 --p 3 --n 1 --degree 3",
    "emit octagon-factor --factor A --p 3 --n 1",
)
REACH_EXEMPT = {
    "record.Record.__repr__": "for debugging",
    "record.Frozen.__hash__": "value semantics, pinned by test_records.py",
    "record.Frozen.__reduce__": "value semantics, pinned by test_records.py",
    "record.Frozen.__setattr__": "refuses assignment",
    "measures.pinpoint": "only a fault reaches it, in test_faults.py",
}

# Runs the matrix with the profiler on before `zpmeasures` is imported, so
# class creation counts too; prints the exit codes and the (file, first line)
# of every code object that was called.
PROFILED_RUN = """
import contextlib, io, json, sys
called = set()
def hook(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(hook)
from zpmeasures.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted(called)]))
"""


def src_functions(src: pathlib.Path) -> dict:
    """(file, first line) -> "module.Qual.name" for every function and method
    under `src`, nested ones included; a decorated one starts at its first
    decorator, as its code object does."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), line] = ".".join(prefix + [child.name])
            scope = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, prefix + [child.name] if scope else prefix)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, [path.stem])
    return found


def test_every_src_function_runs_in_the_cli_matrix(tmp_path):
    out = str(tmp_path / "report.txt")
    matrix = [[out if word == "{out}" else word for word in cmd.split()] for cmd in REACH_MATRIX]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", PROFILED_RUN, json.dumps(matrix)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, called = json.loads(proc.stdout)
    assert codes == [1 if "--tamper" in argv else 0 for argv in matrix]
    called = {(path, line) for path, line in called}
    uncalled = sorted(name for key, name in src_functions(SRC).items() if key not in called)
    assert [name for name in uncalled if name not in REACH_EXEMPT] == []
    assert sorted(REACH_EXEMPT) == uncalled  # an exemption that runs is stale


# `padic.exact` is the gate itself; `cli.at_least` is an argparse type, where
# the CLI's text becomes a count.
CONVERSION_EXEMPT = {"padic.exact: Fraction(x)", "cli.at_least.bounded: int(text)"}


def unguarded_conversions(src: pathlib.Path) -> list:
    """Every `zip(...)` under `src` without `strict=True`, every `int(...) % m`,
    and every one-argument `int(` or `Fraction(` (also as `map(int|Fraction, ...)`)
    applied directly to a parameter of the function it is in: a number from
    outside becomes a scalar through `padic.exact` and a residue through
    `padic.repr_mod`, which refuse what these would truncate or approximate."""
    found = []

    def bad(node, params):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            left = node.left
            return isinstance(left, ast.Call) and getattr(left.func, "id", None) == "int"
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            return False
        name, args = node.func.id, node.args
        if name == "zip":
            return not any(k.arg == "strict" and getattr(k.value, "value", None) is True
                           for k in node.keywords)
        if name in ("int", "Fraction") and len(args) == 1 and not node.keywords:
            return isinstance(args[0], ast.Name) and args[0].id in params
        return (name == "map" and len(args) == 2 and getattr(args[0], "id", None) in
                ("int", "Fraction") and getattr(args[1], "id", None) in params)

    def visit(node, where, params):
        for child in ast.iter_child_nodes(node):
            here, names = where, params
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                here, names = f"{where}.{child.name}", set()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = child.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            if bad(child, params):
                found.append(f"{where}: {ast.unparse(child)}")
            visit(child, here, names)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, set())
    return sorted(found)


def test_the_conversion_guard_flags_each_spelling(tmp_path):
    (tmp_path / "sample.py").write_text(
        "def f(x, ys, p):\n"
        "    a = [int(y) % p for y in ys] + [Fraction(x), Fraction(x, 2), int(p + 1)]\n"
        "    b = list(map(Fraction, ys)) + list(zip(ys, ys)) + list(zip(ys, ys, strict=True))\n"
        "    return lambda z: int(z)\n")
    assert unguarded_conversions(tmp_path) == [
        "sample.f: Fraction(x)", "sample.f: int(y) % p", "sample.f: int(z)",
        "sample.f: map(Fraction, ys)", "sample.f: zip(ys, ys)"]


def test_every_src_conversion_goes_through_padic():
    assert unguarded_conversions(SRC) == sorted(CONVERSION_EXEMPT)
