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
