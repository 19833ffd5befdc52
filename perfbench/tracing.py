"""In-memory spans around hlslab's public functions, and per-layer metrics.

`install(recorder)` wraps each function in PATCH_POINTS where its caller
looks the name up (a function imported into another module is patched
there too) and returns the patches with the points it skipped;
`uninstall(patches)` puts every original object back.  Patch points
missing from the program are skipped and reported, so the benchmark keeps
running when a layer is refactored.

A span is [id, parent id, name, start, end, attrs]; spans stay in memory
until the traced run writes them out.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import weakref
from statistics import median

import numpy as np


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> list | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, {}]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for sid, parent, _name, start, end, _attrs in spans:
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = (end - start) - covered
    return out


# -- wrappers -----------------------------------------------------------------
# Each factory takes (recorder, original function) and returns the wrapper.

def plain(name, after=None):
    """Span around every call; after(attrs, result, *args, **kwargs) adds
    counts taken at the same boundary."""
    def factory(rec, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if after is not None:
                after(span[5], result, *args, **kwargs)
            return result
        return wrapper
    return factory


def quotient_factory(rec, fn):
    """ApproximatedGroup.quotient: in-memory hits pass through; a disk load
    (marked by the from_cache_dict wrapper) becomes quotients.load and
    anything else quotients.build."""
    seen = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def wrapper(self, n, *args, **kwargs):
        levels = seen.setdefault(self, set())
        if n in levels:
            return fn(self, n, *args, **kwargs)
        span = rec.open("quotients.build")
        try:
            q = fn(self, n, *args, **kwargs)
        finally:
            rec.close(span)
        levels.add(n)
        if span[5].pop("cache_hit", False):
            span[2] = "quotients.load"
        span[5].update(order=q.order, store_bytes=q.order * q.degree * 4)
        return q
    return wrapper


def cache_load_marker(rec, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.current()
        if span is not None:
            span[5]["cache_hit"] = True
        return fn(*args, **kwargs)
    return wrapper


def left_table_factory(rec, fn):
    built = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def wrapper(self, t, *args, **kwargs):
        tables = built.setdefault(self, set())
        span = rec.open("quotients.left_table")
        try:
            return fn(self, t, *args, **kwargs)
        finally:
            rec.close(span)
            span[5]["built"] = int(t not in tables)
            tables.add(t)
    return wrapper


def lanczos_factory(rec, fn):
    """spectral.lanczos_extreme: one solve; counts matvecs by wrapping the
    operator and records convergence, residual and basis size."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        op = bound.arguments["apply_op"]
        calls = [0]

        def counted(x):
            calls[0] += 1
            return op(x)

        bound.arguments["apply_op"] = counted
        span = rec.open("spectral.solve")
        try:
            result = fn(*bound.args, **bound.kwargs)
        finally:
            rec.close(span)
        _theta, residual, converged = result
        dim = bound.arguments["dim"]
        basis = min(bound.arguments["max_basis"], dim)
        itemsize = np.dtype(bound.arguments["dtype"]).itemsize
        span[5].update(matvecs=calls[0], unconverged=int(not converged),
                       residual=float(residual),
                       basis_bytes=dim * basis * itemsize)
        return result
    return wrapper


def fiber_matvec_factory(rec, fn):
    """groupoid.fiber_matvec returns the operator; each application of it
    is a groupoid.fiber_matvec span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        apply = fn(*args, **kwargs)

        @functools.wraps(apply)
        def traced_apply(x):
            return rec.call("groupoid.fiber_matvec", apply, x)
        return traced_apply
    return wrapper


def _word_move_counts(attrs, result, self, w, vec):
    attrs["bytes_moved"] = len(w.letters) * self.size * (2 * vec.itemsize + 8)


def _ball_index_counts(attrs, result, self, *args, **kwargs):
    attrs["words"] = self.size


def _parse_counts(attrs, result, s, *args, **kwargs):
    attrs["letters"] = len(s.strip())


def _evaluate_counts(attrs, result, self, w):
    attrs["letters"] = len(w.letters)


def _enum_counts(attrs, result, *args, **kwargs):
    attrs["reps"] = len(result)


# (module, class or None, attribute, wrapper factory, also patched in)
PATCH_POINTS = [
    ("hlslab.cli", None, "main", plain("cli.main"), ()),
    ("hlslab.quotients", "ApproximatedGroup", "quotient", quotient_factory,
     ()),
    ("hlslab.quotients", "FiniteQuotient", "from_cache_dict",
     cache_load_marker, ()),
    ("hlslab.quotients", None, "enumerate_kernel_reps",
     plain("quotients.kernel_enum", _enum_counts), ()),
    ("hlslab.quotients", "FiniteQuotient", "left_mult_table",
     left_table_factory, ()),
    ("hlslab.quotients", "FiniteQuotient", "evaluate",
     plain("quotients.evaluate", _evaluate_counts), ()),
    ("hlslab.quotients", None, "kernel_refines", plain("quotients.nesting"),
     ("hlslab.cli",)),
    ("hlslab.quotients", "ApproximatedGroup", "check_separation",
     plain("quotients.separation"), ()),
    ("hlslab.perms", None, "schreier_sims_order", plain("perms.schreier_sims"),
     ("hlslab.quotients",)),
    ("hlslab.perms", None, "bfs_order", plain("perms.bfs_order"),
     ("hlslab.quotients",)),
    ("hlslab.words", "Word", "parse", plain("words.parse", _parse_counts), ()),
    ("hlslab.words", "Word", "__mul__", plain("words.multiply"), ()),
    ("hlslab.words", None, "ball", plain("words.ball"),
     ("hlslab.quotients", "hlslab.cli")),
    ("hlslab.balls", "BallIndex", "__init__",
     plain("balls.index", _ball_index_counts), ()),
    ("hlslab.balls", "BallIndex", "letter_move", plain("balls.letter_move"),
     ()),
    ("hlslab.balls", "BallIndex", "apply_word_move",
     plain("balls.word_move", _word_move_counts), ()),
    ("hlslab.spectral", None, "lanczos_extreme", lanczos_factory, ()),
    ("hlslab.groupoid", None, "fiber_norm_bracket",
     plain("groupoid.fiber_bracket"), ()),
    ("hlslab.groupoid", None, "fiber_matvec", fiber_matvec_factory, ()),
    ("hlslab.groupoid", None, "truncation_lower_bound",
     plain("groupoid.truncation"), ()),
    ("hlslab.groupoid", None, "tau_spectral_gap", plain("groupoid.tau"), ()),
    ("hlslab.groupoid", None, "check_certificate",
     plain("groupoid.certificate"), ()),
]


def install(rec: Recorder) -> tuple[list, list[str]]:
    """Wrap every patch point; returns (patches to undo, skipped points)."""
    patches, skipped = [], []
    for module, cls, attr, factory, also in PATCH_POINTS:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls, None) if cls else mod
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            skipped.append(f"{module}.{cls + '.' if cls else ''}{attr}")
            continue
        if isinstance(raw, staticmethod):
            new = staticmethod(factory(rec, raw.__func__))
        else:
            new = factory(rec, raw)
        owners = [owner]
        for other in also:
            alias = importlib.import_module(other)
            if vars(alias).get(attr) is raw:
                owners.append(alias)
        for o in owners:
            patches.append((o, attr, raw))
            setattr(o, attr, new)
    return patches, skipped


def uninstall(patches: list) -> None:
    for owner, attr, raw in reversed(patches):
        setattr(owner, attr, raw)


# -- per-layer metrics --------------------------------------------------------
# name -> (unit, better, span names, field); field "self" sums self time,
# "calls" counts spans, "max:<attr>" takes a maximum, any other sums an attr.

SPAN_METRICS = {
    "cli.main_self_s": ("s", "lower", ("cli.main",), "self"),
    "quotients.build_s": ("s", "lower", ("quotients.build",), "self"),
    "quotients.load_s": ("s", "lower", ("quotients.load",), "self"),
    "quotients.cache_hits": ("count", "higher", ("quotients.load",), "calls"),
    "quotients.cache_misses": ("count", "lower",
                               ("quotients.build",), "calls"),
    "quotients.kernel_enum_s": ("s", "lower",
                                ("quotients.kernel_enum",), "self"),
    "quotients.kernel_reps": ("count", "lower",
                              ("quotients.kernel_enum",), "reps"),
    "quotients.elements": ("count", "lower",
                           ("quotients.load", "quotients.build"), "order"),
    "quotients.store_bytes": ("bytes", "lower",
                              ("quotients.load", "quotients.build"),
                              "store_bytes"),
    "quotients.left_table_s": ("s", "lower",
                               ("quotients.left_table",), "self"),
    "quotients.left_tables": ("count", "lower",
                              ("quotients.left_table",), "built"),
    "quotients.evaluate_s": ("s", "lower", ("quotients.evaluate",), "self"),
    "quotients.evaluate_letters": ("count", "lower", ("quotients.evaluate",),
                                   "letters"),
    "quotients.nesting_s": ("s", "lower", ("quotients.nesting",), "self"),
    "quotients.separation_s": ("s", "lower",
                               ("quotients.separation",), "self"),
    "perms.schreier_sims_s": ("s", "lower", ("perms.schreier_sims",), "self"),
    "perms.bfs_order_s": ("s", "lower", ("perms.bfs_order",), "self"),
    "perms.bfs_order_calls": ("count", "lower", ("perms.bfs_order",), "calls"),
    "words.parse_s": ("s", "lower", ("words.parse",), "self"),
    "words.parse_letters": ("count", "lower", ("words.parse",), "letters"),
    "words.multiply_s": ("s", "lower", ("words.multiply",), "self"),
    "words.multiply_calls": ("count", "lower", ("words.multiply",), "calls"),
    "words.ball_s": ("s", "lower", ("words.ball",), "self"),
    "balls.index_s": ("s", "lower", ("balls.index",), "self"),
    "balls.ball_words": ("count", "lower", ("balls.index",), "words"),
    "balls.letter_move_s": ("s", "lower", ("balls.letter_move",), "self"),
    "balls.word_move_s": ("s", "lower", ("balls.word_move",), "self"),
    "balls.word_moves": ("count", "lower", ("balls.word_move",), "calls"),
    "balls.bytes_moved": ("bytes", "lower",
                          ("balls.word_move",), "bytes_moved"),
    "spectral.solve_s": ("s", "lower", ("spectral.solve",), "self"),
    "spectral.solves": ("count", "lower", ("spectral.solve",), "calls"),
    "spectral.matvecs": ("count", "lower", ("spectral.solve",), "matvecs"),
    "spectral.unconverged": ("count", "lower", ("spectral.solve",),
                             "unconverged"),
    "spectral.max_residual": ("norm", "lower", ("spectral.solve",),
                              "max:residual"),
    "spectral.basis_bytes": ("bytes", "lower", ("spectral.solve",),
                             "max:basis_bytes"),
    "groupoid.fiber_bracket_s": ("s", "lower", ("groupoid.fiber_bracket",),
                                 "self"),
    "groupoid.fiber_matvec_s": ("s", "lower", ("groupoid.fiber_matvec",),
                                "self"),
    "groupoid.fiber_matvecs": ("count", "lower", ("groupoid.fiber_matvec",),
                               "calls"),
    "groupoid.truncation_s": ("s", "lower", ("groupoid.truncation",), "self"),
    "groupoid.tau_s": ("s", "lower", ("groupoid.tau",), "self"),
    "groupoid.certificate_s": ("s", "lower",
                               ("groupoid.certificate",), "self"),
}

# measured by the harness around the traced run rather than from spans
RUN_METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "cli.trace_overhead_s": ("s", "lower"),
}


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced sample (0 where a layer did not run)."""
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    out = {}
    for metric, (_unit, _better, names, field) in SPAN_METRICS.items():
        group = [s for n in names for s in by_name.get(n, ())]
        if field == "self":
            value = sum(own[s[0]] for s in group)
        elif field == "calls":
            value = len(group)
        elif field.startswith("max:"):
            value = max((s[5].get(field[4:], 0) for s in group), default=0)
        else:
            value = sum(s[5].get(field, 0) for s in group)
        out[metric] = value
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(s[k] for s in samples) for k in samples[0]}
