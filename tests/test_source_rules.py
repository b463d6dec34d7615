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


def _scipy_names(tree):
    """Line of every import of ``scipy`` (or of a name from it) and of every
    ``scipy`` attribute in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.value.id]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield node.lineno


def test_optimize_name_detector():
    code = ("import scipy.optimize\n"
            "from scipy.optimize import linprog\n"
            "from scipy import optimize\n"
            "import scipy\nscipy.optimize.linprog\n"
            "from scipy.spatial import ConvexHull\n"
            "import numpy\nnumpy.linalg.solve\nfrom numpy import linalg\n")
    assert sorted(_scipy_names(ast.parse(code))) == [1, 2, 3, 4, 5, 6]


def test_library_names_no_scipy_optimize():
    # numpy is the one runtime dependency: no module under src/ names scipy
    # (the lemma verifiers certify by alpha-windows, hulls come from
    # regions._hull_vertices).
    root = Path(wtmac.__file__).parent
    found = [f"{path.name}:{line}"
             for path in sorted(root.glob("*.py"))
             for line in _scipy_names(ast.parse(path.read_text()))]
    assert not found, found


def _owned_calls(tree, name, owner=""):
    """(innermost enclosing function, line) of every call of ``name`` in
    ``tree``, as an attribute (``np.name``, ``rng.name``) or a bare name;
    the function is "" at module level."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _owned_calls(node, name, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if called == name:
                yield owner, node.lineno
        yield from _owned_calls(node, name, owner)


def _bincount_calls(tree):
    return _owned_calls(tree, "bincount")


def test_bincount_detector():
    code = ("import numpy as np\n"
            "np.bincount([0])\n"
            "def f(a):\n"
            "    def g():\n"
            "        return numpy.bincount(a)\n"
            "    return bincount(a) + g()\n"
            "class C:\n"
            "    def h(self):\n"
            "        return np.add.reduce(np.count_nonzero(self))\n")
    assert sorted(_bincount_calls(ast.parse(code))) == [
        ("", 2), ("f", 6), ("g", 5)]


def test_pair_counts_only_in_the_typicality_kernel():
    # One pair-count kernel, probkit._typical_rows, states the counting
    # typicality test; membership, masks, the sampler, the concentration
    # checks and the decoder all call it.
    root = Path(wtmac.__file__).parent
    found = [f"{path.name}:{line} in {owner or 'module'}"
             for path in sorted(root.glob("*.py"))
             for owner, line in _bincount_calls(ast.parse(path.read_text()))
             if (path.name, owner) != ("probkit.py", "_typical_rows")]
    assert not found, found


def test_sequence_uniforms_drawn_only_by_the_samplers():
    # The sequence layer reads generators in three places: the codebook
    # draw, the one-row sampler and the Monte Carlo error, each in one call
    # per generator and kind; the count-box kernel takes uniforms, not
    # generators.
    root = Path(wtmac.__file__).parent
    allowed = {("codesim.py", "sample_codebook_families"),
               ("probkit.py", "sample_typical"),
               ("codesim.py", "average_error")}
    found = [f"{name}:{line} in {owner or 'module'}"
             for name in ("probkit.py", "codesim.py", "concentration.py")
             for owner, line in _owned_calls(
                 ast.parse((root / name).read_text()), "random")
             if (name, owner) not in allowed]
    assert not found, found


def _method_calls(tree, name):
    """Line of every call of a ``name`` attribute (``obj.name(...)``, on any
    expression) in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == name):
            yield node.lineno


def test_method_call_detector():
    code = ("fam.codeword(k, l)\n"
            "code.families[0].codeword((0, 0, 0), l)[1]\n"
            "codeword(k, l)\n"
            "fam.codeword\n"
            "fam.codewords(k)\n"
            "[f.codeword(k, l) for f in fams]\n")
    assert sorted(_method_calls(ast.parse(code), "codeword")) == [1, 2, 6]


def test_library_reads_no_single_codeword():
    # The library reads a family's codewords as one table,
    # CodebookFamily.words(); the single-index accessor is for callers and
    # the tests' references.
    root = Path(wtmac.__file__).parent
    found = [f"{path.name}:{line}"
             for path in sorted(root.glob("*.py"))
             for line in _method_calls(ast.parse(path.read_text()), "codeword")]
    assert not found, found


def test_concentration_keys_by_rank_not_bytes():
    # The concentration checks group sequences by integer ranks
    # (np.ravel_multi_index); no dict keyed by a sequence's bytes.
    path = Path(wtmac.__file__).parent / "concentration.py"
    found = list(_method_calls(ast.parse(path.read_text()), "tobytes"))
    assert not found, found


def _empty_set_raises(tree, owner=""):
    """(innermost enclosing function, line) of every ``raise
    DegenerateTypicalityError(...)`` in ``tree`` whose message names an
    empty typical set; the function is "" at module level."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _empty_set_raises(node, node.name)
            continue
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None)
                == "DegenerateTypicalityError"):
            text = "".join(c.value for c in ast.walk(node.exc)
                           if isinstance(c, ast.Constant)
                           and isinstance(c.value, str))
            if "typical set" in text:
                yield owner, node.lineno
        yield from _empty_set_raises(node, owner)


def test_empty_set_raise_detector():
    code = ("def f(delta, n):\n"
            "    raise DegenerateTypicalityError(\n"
            "        f'empty {delta}-typical set at blocklength {n}')\n"
            "def g(delta):\n"
            "    raise DegenerateTypicalityError(f'no {delta}-typical draw')\n"
            "class C:\n"
            "    def h(self):\n"
            "        if self:\n"
            "            raise DegenerateTypicalityError('empty typical set')\n"
            "        raise ValueError('empty typical set')\n"
            "raise DegenerateTypicalityError('typical set')\n")
    assert sorted(_empty_set_raises(ast.parse(code))) == [
        ("", 11), ("f", 2), ("h", 9)]


def test_one_truncated_law_kernel():
    # One kernel, probkit._truncated_laws, normalizes a truncated typical
    # law and refuses an empty typical set; truncated_typical_dist and the
    # concentration workspace read its rows.  The one other refusal is the
    # sampler's count-box table, _CountBoxes.keys, which refuses a context
    # whose box is empty before any uniform is read.
    root = Path(wtmac.__file__).parent
    found = [(path.name, owner)
             for path in sorted(root.glob("*.py"))
             for owner, _ in _empty_set_raises(ast.parse(path.read_text()))]
    assert found == [("probkit.py", "_truncated_laws"),
                     ("probkit.py", "keys")], found


def _box_builds(tree, owner=""):
    """(innermost enclosing function, line) of every ``_CountBoxes.build``
    call in ``tree``; the function is "" at module level."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _box_builds(node, node.name)
            continue
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and func.attr == "build" and "_CountBoxes" in (
                    getattr(func.value, "id", None),
                    getattr(func.value, "attr", None))):
            yield owner, node.lineno
        yield from _box_builds(node, owner)


def test_box_build_detector():
    code = ("_CountBoxes.build(m, 3, 0.1)\n"
            "class C:\n"
            "    def count_boxes(self):\n"
            "        return _CountBoxes.build(m, 3, 0.1).draw(c, u)\n"
            "    def plan(self):\n"
            "        return _DecodePlan.build(self)\n"
            "def f():\n"
            "    return [probkit._CountBoxes.build(m, n, d) for n in ns]\n")
    assert sorted(_box_builds(ast.parse(code))) == [
        ("", 1), ("count_boxes", 4), ("f", 8)]


def test_count_box_tables_built_by_the_chain_and_the_one_row_sampler():
    # A code chain keeps its u, x and y tables per (n, delta)
    # (CodeChain.count_boxes), and the codebook draws read them;
    # sample_typical, the one-row view, builds its own per call.
    root = Path(wtmac.__file__).parent
    found = [(path.name, owner)
             for path in sorted(root.glob("*.py"))
             for owner, _ in _box_builds(ast.parse(path.read_text()))]
    assert sorted(found) == [("codesim.py", "count_boxes"),
                             ("probkit.py", "sample_typical")], found


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def _calls_in_loops(tree, names):
    """Line of every call of a ``names`` attribute inside the body of a
    loop or comprehension of ``tree`` (a for loop's iterable is outside
    it)."""
    for loop in ast.walk(tree):
        if not isinstance(loop, LOOPS):
            continue
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            parts = loop.body + loop.orelse + (
                [loop.test] if isinstance(loop, ast.While) else [])
        else:
            parts = [getattr(loop, "elt", None) or loop.key, *(
                [loop.value] if isinstance(loop, ast.DictComp) else []),
                *(cond for gen in loop.generators for cond in gen.ifs)]
        yield from {line for part in parts for name in names
                    for line in _method_calls(part, name)}


def test_calls_in_loops_detector():
    code = ("theta = ws.uy_refs(us, xt, ku, ys)\n"
            "for part in ws.uy_refs(us, xt, ku, ys):\n"
            "    ws.u_refs(us, ku, p, t)\n"
            "refs = [ws.uy_refs(u, x, k, y) for u in us]\n"
            "while ws.u_refs(us, ku, p, t) is None:\n"
            "    pass\n"
            "ref = ws.uy_refs(us, xt, ku, ys)[0] if us else None\n")
    assert sorted(set(_calls_in_loops(ast.parse(code),
                                      ("uy_refs", "u_refs")))) == [3, 4, 5]


def test_concentration_references_in_one_call_per_report():
    # _Workspace.uy_refs takes every (u, y) key of a report and
    # _Workspace.u_refs every distinct u: neither is called once per key
    # or per u in a loop.
    path = Path(wtmac.__file__).parent / "concentration.py"
    tree = ast.parse(path.read_text())
    assert set(_method_calls(tree, "uy_refs"))
    found = sorted(set(_calls_in_loops(tree, ("uy_refs", "u_refs"))))
    assert not found, found


def _calls_outside(tree, name, owner, method):
    """Line of every call of a ``name`` attribute in ``tree`` outside the
    method ``owner.method``."""
    inside = {line for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == owner
              for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == method
              for line in _method_calls(node, name)}
    return sorted(set(_method_calls(tree, name)) - inside)


def test_calls_outside_detector():
    code = ("class _DecodePlan:\n"
            "    def build(code):\n"
            "        return [fam.words() for fam in code.families]\n"
            "    def other(fam):\n"
            "        return fam.words()\n"
            "class Other:\n"
            "    def build(fam):\n"
            "        return fam.words()\n"
            "def build(fam):\n"
            "    return fam.words\n"
            "fam.words()[1]\n")
    assert _calls_outside(ast.parse(code), "words", "_DecodePlan",
                          "build") == [5, 8, 11]


def test_only_the_decode_plan_reads_the_codeword_table():
    # _DecodePlan.build reads each family's CodebookFamily.words() once;
    # Bob's rows, the Monte Carlo draws and the eavesdropper's conditionals
    # read the plan's xs and ys.
    root = Path(wtmac.__file__).parent
    found = [f"{path.name}:{line}"
             for path in sorted(root.glob("*.py"))
             for line in _calls_outside(ast.parse(path.read_text()), "words",
                                        "_DecodePlan", "build")]
    assert not found, found


def _loaded_scipy(code: str) -> str:
    """The scipy modules in ``sys.modules`` after running ``code`` in a fresh
    interpreter on the library and the test helpers."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(wtmac.__file__).parents[1]), str(tests)])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_loads_no_scipy():
    # Importing the package stays cheap.
    assert _loaded_scipy("import wtmac") == "[]"


def test_searches_and_conferencing_hull_load_no_scipy():
    # Both search modes and a Case-2 conferencing hull run on numpy alone.
    code = (
        "import numpy as np\n"
        "from _support import sample_case_profiles\n"
        "from wtmac.casestudy import example62_channels\n"
        "from wtmac.conferencing import region_conferencing\n"
        "from wtmac.optimizer import (CommonMode, ConferencingMode, SearchConfig,\n"
        "                             achievable_region_estimate)\n"
        "from wtmac.regions import CaseLabel\n"
        "cfg = SearchConfig(restarts=6, refine_iters=4, directions=6, seed=3,\n"
        "                   u_size=2)\n"
        "for mode in (CommonMode(0.3), ConferencingMode(0.1, 0.1)):\n"
        "    est = achievable_region_estimate(example62_channels(), mode, cfg)\n"
        "    assert len(est.hull_vertices) > est.dim\n"
        "rng = np.random.default_rng(12)\n"
        "prof, hc, _ = sample_case_profiles(rng, 1, CaseLabel.CASE2)[0]\n"
        "region = region_conferencing(prof, hc / 2, hc / 2, CaseLabel.CASE2)\n"
        "assert len(region.pieces) > 1 and len(region.hull_points) >= 3\n")
    assert _loaded_scipy(code) == "[]"


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
