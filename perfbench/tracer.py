"""Outside-in per-layer tracing of the program's public functions.

``Tracer.install`` replaces each traced function at every module attribute of
the ``spectral_turan`` package that holds it, because callers bind names at
import (``from .spectral import spectral_radius`` in both ``theorems`` and
``cli``).  Spans live on a per-thread stack; a span's self time is its
duration minus that of its child spans, and spans are folded into per-name
totals in memory as they close.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "spectral_turan"
_MARK = "__perfbench_tracer__"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# observers add the work one call did to its span's counters


def _gnp(c, args, kwargs, result, exc):
    n = _arg(args, kwargs, 0, "n")
    c["pairs"] += n * (n - 1) // 2


def _parse_graph6(c, args, kwargs, result, exc):
    c["bytes"] += len(_arg(args, kwargs, 0, "text"))


def _spectral_radius(c, args, kwargs, result, exc):
    if result is not None:
        c["iterations"] += result.iterations
        c["iterations_max"] = max(c["iterations_max"], result.iterations)
        c["unconverged"] += not result.converged


def _count_cliques(c, args, kwargs, result, exc):
    c["cliques"] += result or 0


def _find_complete_multipartite(c, args, kwargs, result, exc):
    c["found"] += exc is None and result is not None
    c["budget_exceeded"] += type(exc).__name__ == "SearchBudgetExceeded"


def _contains_subgraph(c, args, kwargs, result, exc):
    c["true"] += result is True


def _spex_scan(c, args, kwargs, result, exc):
    if result is not None:
        c["maximal_graphs"] += result.maximal_graphs


# span name -> [(module, function, observer or None)]
LAYERS = {
    "graphs.gnp": [("graphs", "gnp", _gnp)],
    "graphs.parse_graph6": [("graphs", "parse_graph6", _parse_graph6)],
    "graphs.to_graph6": [("graphs", "to_graph6", None)],
    "spectral.spectral_radius": [("spectral", "spectral_radius", _spectral_radius)],
    "cliques.count_cliques": [("cliques", "count_cliques", _count_cliques)],
    "multipartite.find_complete_multipartite": [
        ("multipartite", "find_complete_multipartite", _find_complete_multipartite)
    ],
    "multipartite.max_balanced_biclique": [("multipartite", "max_balanced_biclique", None)],
    "theorems.contains_subgraph": [("theorems", "contains_subgraph", _contains_subgraph)],
    "theorems.spex_scan": [("theorems", "spex_scan", _spex_scan)],
    "theorems.checks": [("theorems", "fact1_check", None), ("theorems", "theorem2_gap", None)],
    "cli": [("cli", "cli_main", None)],
    "cli.write_reports": [("cli", "_write_reports", None)],
}


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def patch_everywhere(module: str, name: str, make_replacement) -> list[tuple[object, str, object]]:
    """Replace ``module.name`` at every package attribute bound to it.

    Returns (module, attribute, original) triples for ``unpatch``; empty if
    the function no longer exists.
    """
    original = getattr(sys.modules[f"{PACKAGE}.{module}"], name, None)
    if original is None:
        return []
    replacement = make_replacement(original)
    patched = []
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def unpatch(patched: list[tuple[object, str, object]]) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


class _ThreadState:
    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: [time in child spans]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, span: str, fn, observe):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            frame = [0.0]
            st.stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                duration = clock() - start
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += duration
                st.calls[span] += 1
                st.self_s[span] += duration - frame[0]
                if observe is not None:
                    observe(st.counters[span], args, kwargs, result, exc)

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        for span, targets in LAYERS.items():
            for module, name, observe in targets:
                patched = patch_everywhere(
                    module, name, lambda fn, s=span, o=observe: self._wrap(s, fn, o)
                )
                self._patched.extend(patched)
                self.sites[f"{module}.{name}"] = [f"{m.__name__}.{a}" for m, a, _ in patched]

    def restore(self) -> None:
        unpatch(self._patched)
        self._patched = []
        left = [
            f"{mod.__name__}.{attr}"
            for mod in _package_modules()
            for attr, val in vars(mod).items()
            if getattr(val, _MARK, False)
        ]
        if left:
            raise RuntimeError(f"tracer wrappers left in place: {left}")

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self_s and the summed work counters."""
        out = {span: {"calls": 0, "self_s": 0.0, "counters": defaultdict(int)} for span in LAYERS}
        for st in self._states:
            for span, agg in out.items():
                agg["calls"] += st.calls[span]
                agg["self_s"] += st.self_s[span]
                for key, val in st.counters[span].items():
                    c = agg["counters"]
                    c[key] = max(c[key], val) if key.endswith("_max") else c[key] + val
        return out
