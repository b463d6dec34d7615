"""Rules on the library source that no single behaviour test would catch."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import wtmac

BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree):
    """(line, text) of every bare ``except:`` and every handler that catches
    Exception or BaseException, alone or in a tuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node.lineno, "bare except"
            continue
        names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for name in names:
            if isinstance(name, ast.Name) and name.id in BROAD:
                yield node.lineno, f"except {name.id}"


def test_broad_handler_detector():
    code = ("try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
            "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert list(_broad_handlers(ast.parse(code))) == [
        (3, "bare except"), (7, "except Exception")]


def test_library_has_no_broad_exception_handlers():
    # Failures surface as the typed errors of wtmac.errors, never swallowed.
    root = Path(wtmac.__file__).parent
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(root.glob("*.py"))
             for line, text in _broad_handlers(ast.parse(path.read_text()))]
    assert not found, found


def _optimize_names(tree):
    """Line of every import of ``scipy.optimize`` (or a name from it) and of
    every ``scipy.optimize`` attribute in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "optimize"
                and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            names = ["scipy.optimize"]
        else:
            continue
        if any(name == "scipy.optimize" or name.startswith("scipy.optimize.")
               for name in names):
            yield node.lineno


def test_optimize_name_detector():
    code = ("import scipy.optimize\n"
            "from scipy.optimize import linprog\n"
            "from scipy import optimize\n"
            "import scipy\nscipy.optimize.linprog\n"
            "from scipy.spatial import ConvexHull\n")
    assert list(_optimize_names(ast.parse(code))) == [1, 2, 3, 5]


def test_library_names_no_scipy_optimize():
    # The lemma verifiers certify by alpha-windows; no solver is a dependency.
    root = Path(wtmac.__file__).parent
    found = [f"{path.name}:{line}"
             for path in sorted(root.glob("*.py"))
             for line in _optimize_names(ast.parse(path.read_text()))]
    assert not found, found


def test_import_loads_no_scipy():
    # Importing the package stays cheap: scipy loads only where a function
    # that needs it runs.
    code = ("import sys, wtmac\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(wtmac.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_traced_name_resolves():
    # The benchmark's tracer rebinds its TRACED names by attribute path; a
    # name deleted or renamed here would only fail the traced benchmark run.
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("_bench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.TRACED
    missing = []
    for module, attr, _ in trace.TRACED:
        mod = importlib.import_module(module)
        owner, _, method = attr.rpartition(".")
        if owner:
            found = method in vars(getattr(mod, owner, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, missing


LIBRARY_MODULES = ("casestudy", "codesim", "conferencing", "optimizer",
                   "probkit", "regions")


def _module_calls(tree):
    """{(module, attr): [(positional count or None, keywords), ...]} of every
    ``module.attr`` in ``tree`` over the library modules, one entry per call
    through it (None counts a call with ``*args``)."""
    found = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in LIBRARY_MODULES):
            found.setdefault((node.value.id, node.attr), [])
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)):
            continue
        key = (node.func.value.id, node.func.attr)
        if key in found:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            found[key].append((None if starred else len(node.args),
                               [kw.arg for kw in node.keywords if kw.arg]))
    return found


def test_every_benchmark_call_resolves():
    # The benchmark's jobs reach the library as module.attr; a name deleted,
    # or a parameter it passes removed, would only fail a benchmark run.
    import importlib
    import inspect

    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_workloads.py"
    calls = _module_calls(ast.parse(path.read_text()))
    assert calls
    broken = []
    for (module, attr), uses in sorted(calls.items()):
        target = getattr(importlib.import_module(f"wtmac.{module}"), attr, None)
        if target is None:
            broken.append(f"{module}.{attr}: missing")
            continue
        for count, keywords in uses:
            try:
                inspect.signature(target).bind_partial(
                    *[None] * (count or 0), **dict.fromkeys(keywords))
            except TypeError as exc:
                broken.append(f"{module}.{attr}{tuple(keywords)}: {exc}")
    assert not broken, broken
