"""Outside-in tracing of the wtmac modules.

Every traced public function is rebound, for the length of a traced round,
in every module namespace that holds it (``codesim.typical_membership``,
``regions.mutual_information``, ``optimizer.info_profile`` ...), and
methods are patched on their class.  Nothing under ``src/`` changes.

Two kinds of record are kept:

* full spans (name, start, end, parent span, job) for jobs and for the
  coarse calls marked in ``TRACED``;
* for every traced call, count, total time and child time aggregated per
  (name, parent name) in memory.  The hot leaves (an n = 7 audit makes
  about 786 000 ``typical_membership`` calls) are kept in this form only.

A call's self time is its duration minus the time of its traced children.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute path, full span?)
TRACED = (
    ("wtmac.probkit", "mutual_information", False),
    ("wtmac.probkit", "joint_from_factors", False),
    ("wtmac.probkit", "Channel.from_matrix", False),
    ("wtmac.probkit", "typical_membership", False),
    ("wtmac.probkit", "sample_typical", False),
    ("wtmac.probkit", "typical_mask", False),
    ("wtmac.probkit", "truncated_typical_dist", False),
    ("wtmac.regions", "info_profile", False),
    ("wtmac.regions", "classify_profile", False),
    ("wtmac.regions", "region_common", False),
    ("wtmac.regions", "RatePolytope.vertices", False),
    ("wtmac.regions", "verify_union_lemma", True),
    ("wtmac.regions", "verify_convexhull_lemma", True),
    ("wtmac.conferencing", "region_conferencing", False),
    ("wtmac.optimizer", "achievable_region_estimate", True),
    ("wtmac.optimizer", "single_sender_secrecy_capacity", True),
    ("wtmac.codesim", "joint_typicality_decode", False),
    ("wtmac.codesim", "average_error", True),
    ("wtmac.codesim", "mac_average_error", True),
    ("wtmac.codesim", "eavesdropper_conditionals", True),
    ("wtmac.codesim", "simulate_report", True),
    ("wtmac.codesim", "build_wiretap_code", True),
    ("wtmac.codesim", "sample_codebook_family", True),
    ("wtmac.codesim", "leakage_chain_check", True),
    ("wtmac.concentration", "concentration_report", True),
    ("scipy.optimize", "linprog", False),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a traced function: ``codesim.build_wiretap_code``,
    ``probkit.Channel.from_matrix``, ``scipy.linprog``."""
    parts = module.split(".")
    return f"{parts[-1] if parts[0] == 'wtmac' else parts[0]}.{attr}"


class Tracer:
    """Span stack plus per-(name, parent) aggregates for one traced round."""

    def __init__(self):
        self.active = False
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total_s, child_s]
        self.spans: list[tuple] = []  # (id, parent id, job, name, start_s, end_s)
        self._stack: list[list] = []  # frames: [name, child_s, span id]
        self._next_id = 0
        self._job = -1
        self._t0 = time.perf_counter()

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def job(self, index: int, name: str):
        """Root span of one job; library spans below it attribute to it."""
        self._job = index
        frame = [name, 0.0, self._new_id()]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record("job", None, frame, start, end)
            self.spans.append((frame[2], None, index, name,
                               start - self._t0, end - self._t0))

    def _record(self, name, parent, frame, start, end):
        key = (name, parent[0] if parent is not None else "")
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += frame[1]
        if parent is not None:
            parent[1] += end - start

    def wrap(self, name: str, fn, full_span: bool):
        stack = self._stack
        clock = time.perf_counter
        record = self._record

        def traced(*args, **kwargs):
            if not self.active or not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0, self._new_id() if full_span else parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(name, parent, frame, start, end)
                if full_span:
                    self.spans.append((frame[2], parent[2], self._job, name,
                                       start - self._t0, end - self._t0))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- derived numbers ------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(v[0] for (n, p), v in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def self_s(self, name: str) -> float:
        return sum(v[1] - v[2] for (n, _), v in self.stats.items() if n == name)

    def library_self_s(self) -> float:
        """Self time summed over every traced library function (jobs excluded)."""
        return sum(v[1] - v[2] for (n, _), v in self.stats.items() if n != "job")

    def table(self) -> list[dict]:
        rows = [{"name": n, "parent": p, "calls": v[0], "total_s": v[1],
                 "self_s": v[1] - v[2]} for (n, p), v in self.stats.items()]
        return sorted(rows, key=lambda r: -r["self_s"])


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every traced function to its traced wrapper; undo on exit."""
    undo: list[tuple] = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "wtmac" or name.startswith("wtmac."))]
    try:
        for mod_name, attr, full_span in TRACED:
            module = importlib.import_module(mod_name)
            name = span_name(mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(tracer.wrap(name, raw.__func__, full_span))
                else:
                    new = tracer.wrap(name, raw, full_span)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, full_span)
            for mod in [module, *modules]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
