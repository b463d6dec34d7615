"""Rules on the library source that no single behaviour test would catch."""

import ast
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
