"""In-memory spans around srconc's public functions, for the traced run.

`install` wraps every public function of the library layers, plus the few
methods listed in METHODS, and puts the wrapper into every srconc namespace
that bound the original at import (`from .measures import
feasible_coupling` in chains, `from .functional import dirichlet_form` in
concentration, the re-exports in the package).  A wrapper appends one span
(name, start, end, parent) per call to a Recorder; the spans stay in memory
and are reduced to layer metrics once the pass is over.  `uninstall`
restores the originals, so untraced and traced passes run the same code.

Functions in COUNT_ONLY are per-element helpers called up to millions of
times per pass from inside another function's loop (`spectral_norm` once
per adjacent pair in `concentration.oscillation`).  Their wrapper counts
calls and records no span, so their time stays with the caller's layer and
the traced pass stays close to the untraced one.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

WRAPPED = ("measures", "matrix_core", "chains", "functional", "concentration",
           "samplers")
# cli spans come from the benchmark, one per command it runs in process
LAYERS = (*WRAPPED, "cli", "bench")
METHODS = {
    "functional": {"MatrixFn": ("gather",)},
    "concentration": {"TraceMgf": ("__init__", "__call__", "curve")},
}
_MATRIX_HELPERS = tuple(f"matrix_core.{f}" for f in (
    "require_symmetric", "sym_apply", "sym_expm", "sym_power", "spectral_norm",
    "is_psd", "psd_leq", "schatten_norm", "trace_power", "random_symmetric"))
COUNT_ONLY = {"chains.flip_swap_adjacent", "measures.covers", "measures.popcount",
              *_MATRIX_HELPERS}

_SAMPLERS = ("samplers.sample_table", "samplers.wilson_spanning_tree",
             "samplers.sample_kdpp")
_MATRIX_CHECKS = ("matrix_core.check_trace_monotone", "matrix_core.check_operator_jensen",
                  "matrix_core.check_diff_square_convex", "matrix_core.duhamel_residual",
                  "matrix_core.check_int_norm_bound", "matrix_core.check_lemma_var")
_MGF = ("concentration.check_mgf_bound", "concentration.trace_mgf",
        "concentration.mgf_bound", "concentration.TraceMgf.__init__",
        "concentration.TraceMgf.__call__", "concentration.TraceMgf.curve")
_TAIL = ("concentration.exact_tail", "concentration.laplace_tail",
         "concentration.tail_bound_poincare", "concentration.tail_bound_sr",
         "concentration.tail_bound_sr_composed", "concentration.ks_bound")

# metric -> wrapped functions whose calls it counts
CALL_METRICS = {
    "measures.coupling_solves": ("measures.feasible_coupling",),
    "measures.condition_calls": ("measures.condition",),
    "measures.scp_check_calls": ("measures.scp_check",),
    "chains.walk_calls": ("chains.hermon_salez",),
    "chains.adjacency_calls": ("chains.flip_swap_adjacent",),
    "functional.gap_calls": ("functional.scalar_spectral_gap",),
    "functional.dirichlet_calls": ("functional.dirichlet_form",),
    "concentration.oscillation_calls": ("concentration.oscillation",),
    "concentration.induction_calls": ("concentration.check_induction_statement",),
    "samplers.sample_calls": _SAMPLERS,
    "matrix_core.check_calls": _MATRIX_CHECKS,
    "matrix_core.helper_calls": _MATRIX_HELPERS,
}
# metric -> wrapped functions whose time it sums; a call nested inside
# another call of the same group is counted once, through the outer call
TIME_METRICS = {
    "measures.coupling_s": ("measures.feasible_coupling",),
    "measures.scp_check_s": ("measures.scp_check",),
    "chains.walk_build_s": ("chains.hermon_salez",),
    "chains.validate_s": ("chains.validate_generator",),
    "functional.gap_s": ("functional.scalar_spectral_gap",),
    "functional.poincare_s": ("functional.check_matrix_poincare",),
    "functional.dirichlet_s": ("functional.dirichlet_form",),
    "concentration.oscillation_s": ("concentration.oscillation",),
    "concentration.induction_s": ("concentration.check_induction_statement",),
    "concentration.mgf_s": _MGF,
    "concentration.tail_s": _TAIL,
    "samplers.sample_s": _SAMPLERS,
    "samplers.empirical_tail_s": ("samplers.empirical_tail",),
    "matrix_core.check_s": _MATRIX_CHECKS,
}


class Recorder:
    """Spans as [name, start, end, parent index] lists plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def observe(self, name: str, result) -> None:
        """Work sizes read off a wrapped function's return value."""
        if name == "concentration.oscillation":
            self.counts["concentration.oscillation_pairs"] += int(result.pairs)
        elif name == "chains.hermon_salez":
            off = result.rates.copy()
            off[range(off.shape[0]), range(off.shape[0])] = 0.0
            self.counts["chains.states"] = max(self.counts["chains.states"],
                                               int(result.states.size))
            self.counts["chains.rate_nnz"] = max(self.counts["chains.rate_nnz"],
                                                 int((off != 0.0).sum()))
        elif name in _SAMPLERS:
            self.counts["samplers.draws"] += int(result.count)


_OBSERVED = {"concentration.oscillation", "chains.hermon_salez", *_SAMPLERS}


def _span_wrapper(rec: Recorder, name: str, fn):
    observed = name in _OBSERVED

    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if observed:
            rec.observe(name, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    counts = rec.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _targets():
    """(qualified name, owner object, attribute, original) for every wrapped callable."""
    out = []
    for layer in WRAPPED:
        mod = importlib.import_module(f"srconc.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((f"{layer}.{attr}", mod, attr, obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                out.append((f"{layer}.{cls_name}.{meth}", cls, meth, vars(cls)[meth]))
    return out


def install(rec: Recorder):
    """Wrap the library for one traced pass; returns the undo list for `uninstall`."""
    namespaces = [m for n, m in sys.modules.items()
                  if (n == "srconc" or n.startswith("srconc.")) and m is not None]
    undo = []
    for name, owner, attr, original in _targets():
        make = _count_wrapper if name in COUNT_ONLY else _span_wrapper
        wrapper = make(rec, name, original)
        if inspect.isclass(owner):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is original:
                    undo.append((ns, key, original))
                    setattr(ns, key, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def reduce_spans(rec: Recorder, root: str | None = None) -> dict:
    """Per-layer self time, group times and call counts of one pass.

    A span's self time is its duration minus its direct children's.
    With `root`, only spans inside spans of that name are counted.
    """
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    inside = None
    if root is not None:
        inside = [False] * len(spans)
        for i, (name, _s, _e, parent) in enumerate(spans):
            inside[i] = name == root or (parent >= 0 and inside[parent])

    self_s: dict[str, float] = defaultdict(float)
    groups = {metric: set(names) for metric, names in TIME_METRICS.items()}
    in_group = {metric: [False] * len(spans) for metric in groups}
    group_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        for metric, names in groups.items():
            mine = name in names
            nested = parent >= 0 and in_group[metric][parent]
            in_group[metric][i] = mine or nested
            if mine and not nested and (inside is None or inside[i]):
                group_s[metric] += end - start
        if inside is None or inside[i]:
            self_s[layer_of(name)] += (end - start) - child_time[i]

    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    out.update({metric: group_s.get(metric, 0.0) for metric in TIME_METRICS})
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(rec.counts[n] for n in names)
    for key in ("concentration.oscillation_pairs", "chains.states",
                "chains.rate_nnz", "samplers.draws"):
        out[key] = rec.counts[key]
    return out
