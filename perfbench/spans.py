"""Span recorder for the traced benchmark run.

Wrappers are installed on the public functions each haarmoments module calls
from the module below it, at every module attribute that binds the function
(``from .linalg import sample_haar_unitaries`` makes ``mc`` hold its own
reference, so patching ``linalg`` alone would miss the calls from ``mc``).
Spans are kept in memory; ``layer_metrics`` turns them into the per-layer
numbers once the timed region is over, and ``uninstall`` restores every
original so the correctness checks that follow are not traced.

A function that a later version of the package no longer defines is skipped:
its counters read zero instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager

# Layers in dependency order, named after the haarmoments modules.
LAYERS = (
    "linalg", "mc", "weingarten", "closed_forms", "ensembles",
    "quadrature", "applications", "cli",
)
HAAR_DIMS = (2, 3, 4, 16, 32)
FORM_FACTOR_KEYS = (
    ("poi", (8, 16, 32, 64, 128, 256)),
    ("gue", (8, 16)),
    ("gue-large-d", (32, 64, 128, 256)),
)
PERCENTILE_MIN_CALLS = 100

# Every per-layer metric the traced run prints: (name, unit, better).
PER_LAYER = (
    [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("linalg.sample_haar.matrices", "count", "higher"),
        ("linalg.sample_haar.busy_s", "s", "lower"),
    ]
    + [(f"linalg.sample_haar.ns_per_matrix.d{d}", "ns", "lower") for d in HAAR_DIMS]
    + [
        ("linalg.sample_gue.matrices", "count", "higher"),
        ("linalg.sample_gue.busy_s", "s", "lower"),
        ("mc.estimator.calls", "count", "higher"),
        ("mc.samples", "count", "higher"),
        ("mc.chunks", "count", "higher"),
        ("mc.busy_s", "s", "lower"),
        ("mc.self_s", "s", "lower"),
        ("mc.chunk.busy_s", "s", "lower"),
        ("mc.parallel_efficiency", "frac", "higher"),
        ("mc.workers", "count", "higher"),
        ("mc.speedup_vs_1_worker", "x", "higher"),
        ("mc.word.products", "count", "higher"),
        ("mc.word.ns_per_product", "ns", "lower"),
        ("mc.word.gflops_computed", "GFLOP/s", "higher"),
        ("mc.ptrace.calls", "count", "higher"),
        ("mc.ptrace.busy_s", "s", "lower"),
    ]
    + [(f"weingarten.moment_function.calls.m{m}", "count", "higher") for m in range(1, 5)]
    + [("weingarten.moment_function.busy_s", "s", "lower")]
    + [(f"weingarten.moment_function.p50_ms.m{m}", "ms", "lower") for m in range(1, 5)]
    + [(f"weingarten.moment_function.p90_ms.m{m}", "ms", "lower") for m in range(1, 5)]
    + [("weingarten.wg_table.calls", "count", "lower")]
    + [(f"ensembles.form_factors.calls.{k}", "count", "higher") for k, _ in FORM_FACTOR_KEYS]
    + [
        (f"ensembles.form_factors.p50_ms.{k}.d{d}", "ms", "lower")
        for k, dims in FORM_FACTOR_KEYS
        for d in dims
    ]
    + [
        ("ensembles.busy_s", "s", "lower"),
        ("ensembles.known_defect.f4_z", "sigma", "lower"),
        ("ensembles.known_defect.re_f2fc2t_z", "sigma", "lower"),
        ("quadrature.integrals", "count", "lower"),
        ("quadrature.integrand_evals", "count", "lower"),
        ("quadrature.busy_s", "s", "lower"),
        ("closed_forms.calls", "count", "higher"),
        ("closed_forms.busy_s", "s", "lower"),
        ("applications.busy_s", "s", "lower"),
        ("applications.self_s", "s", "lower"),
        ("cli.figure.self_s", "s", "lower"),
        ("mc.self_frac", "frac", "lower"),
    ]
    + [(f"{layer}.busy_frac", "frac", "lower") for layer in LAYERS]
)


def _shape_attrs(d, n, *_, **__):
    return {"d": int(d), "n": int(n)}


def _word_attrs(patterns, d, n, *_, **__):
    # A word of order k has k unitaries and k - 1 operators, so 2k - 2
    # products of d x d matrices per sample, at 8 d^3 real flops each.
    products = n * sum(2 * len(xs) for xs in patterns)
    return {"products": products, "flops": 8 * d**3 * products}


def _moment_attrs(xs, *_, **__):
    return {"m": (len(xs) + 1) // 2}


def _form_factor_attrs(t, d, mode=None, *_, **__):
    return {"kind": "poi" if mode is None else mode.value, "d": int(d)}


# (defining module, function, span name, layer, attrs from the call arguments)
WRAPS = (
    ("linalg", "sample_haar_unitaries", "linalg.sample_haar", "linalg", _shape_attrs),
    ("linalg", "sample_gue_hamiltonians", "linalg.sample_gue", "linalg", _shape_attrs),
    ("mc", "empirical_moments", "mc.empirical_moments", "mc", _word_attrs),
    ("mc", "empirical_reduced_norm", "mc.empirical_reduced_norm", "mc", None),
    ("mc", "empirical_fixed_spectrum", "mc.empirical_fixed_spectrum", "mc", None),
    ("mc", "empirical_purity", "mc.empirical_purity", "mc", None),
    ("mc", "_batch_ptrace_env", "mc.ptrace", "mc", None),
    ("weingarten", "moment_function", "weingarten.moment_function", "weingarten", _moment_attrs),
    ("weingarten", "weingarten_table", "weingarten.wg_table", "weingarten", None),
    ("closed_forms", "uniform_average", "closed_forms.uniform_average", "closed_forms", None),
    ("closed_forms", "uniform_variance", "closed_forms.uniform_variance", "closed_forms", None),
    ("closed_forms", "general_average", "closed_forms.general_average", "closed_forms", None),
    ("closed_forms", "form_factor_inputs", "closed_forms.form_factor_inputs", "closed_forms", None),
    ("closed_forms", "time_coeffs", "closed_forms.time_coeffs", "closed_forms", None),
    ("closed_forms", "uniform_coeffs", "closed_forms.uniform_coeffs", "closed_forms", None),
    ("closed_forms", "variance_coeffs", "closed_forms.variance_coeffs", "closed_forms", None),
    ("ensembles", "averaged_form_factors", "ensembles.averaged_form_factors", "ensembles", None),
    ("ensembles", "averaged_time_coeffs", "ensembles.averaged_time_coeffs", "ensembles", None),
    ("ensembles", "poisson_form_factors", "ensembles.form_factors", "ensembles", _form_factor_attrs),
    ("ensembles", "gue_form_factors", "ensembles.form_factors", "ensembles", _form_factor_attrs),
    ("applications", "purity_evolution", "applications.purity_evolution", "applications", None),
    ("applications", "uniform_purity", "applications.uniform_purity", "applications", None),
    ("applications", "gibbs_purity_mc", "applications.gibbs_purity_mc", "applications", None),
    ("cli", "main", "cli.main", "cli", None),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters = {"integrand_evals": 0}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str, attrs: dict | None = None, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": span_id, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "run": self.run_id,
                    "attrs": attrs or {},
                })

    def _wrap_plain(self, fn, name, layer, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else None
            with self.span(name, layer, attrs):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_accumulate(self, fn, worker_count):
        @functools.wraps(fn)
        def wrapper(chunk_fn, n, rng, *args, **kwargs):
            workers = kwargs.get("workers", args[0] if args else None)
            attrs = {"n": int(n), "workers": worker_count(workers)}
            with self.span("mc.accumulate_chunks", "mc", attrs) as parent:

                def traced_chunk(*cargs, **ckw):
                    with self.span("mc.chunk", "mc", parent=parent):
                        return chunk_fn(*cargs, **ckw)

                return fn(traced_chunk, n, rng, *args, **kwargs)
        return wrapper

    def _wrap_integrate(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(x):
                counters["integrand_evals"] += 1
                return f(x)

            with self.span("quadrature.integrate", "quadrature"):
                return fn(counted, *args, **kwargs)
        return wrapper

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "haarmoments" or mod_name.startswith("haarmoments.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every traced function that the installed package defines."""
        for mod_name, fn_name, span_name, layer, attrs_fn in WRAPS:
            fn = getattr(importlib.import_module(f"haarmoments.{mod_name}"), fn_name, None)
            if fn is not None:
                self._patch_everywhere(fn, self._wrap_plain(fn, span_name, layer, attrs_fn))
        mc = importlib.import_module("haarmoments.mc")
        acc = getattr(mc, "accumulate_chunks", None)
        if acc is not None:
            self._patch_everywhere(acc, self._wrap_accumulate(acc, mc.worker_count))
        ensembles = importlib.import_module("haarmoments.ensembles")
        integrate = getattr(ensembles, "integrate", None)
        if integrate is not None:
            self._patch_everywhere(integrate, self._wrap_integrate(integrate))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _busy(spans) -> float:
    return _union_length((s["start"], s["end"]) for s in spans)


def _percentile_ms(durations, q: int) -> float:
    if len(durations) < PERCENTILE_MIN_CALLS:
        return 0.0
    return 1e3 * statistics.quantiles(durations, n=100)[q - 1]


def layer_metrics(spans, counters, wall_s: float) -> dict[str, float]:
    """Per-layer counts and times from one traced timed region.

    Busy time of a layer is the wall-clock union of its spans, so nested and
    parallel spans are not counted twice. Self time is busy time minus the
    union of the spans of other layers that run beneath it. Per-call rates
    (ns per matrix, ns per product) use summed span durations, which on
    worker threads is thread time. A metric the workload does not exercise
    reads 0.
    """
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def ancestors(s):
        p = s["parent"]
        while p is not None:
            s = by_id[p]
            yield s
            p = s["parent"]

    def busy(layer):
        return _busy(s for s in spans if s["layer"] == layer)

    def self_time(layer):
        below = [
            s for s in spans
            if s["layer"] != layer and any(a["layer"] == layer for a in ancestors(s))
        ]
        return busy(layer) - _busy(below)

    out: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    out["trace.wall_s"] = wall_s

    haar = named("linalg.sample_haar")
    out["linalg.sample_haar.matrices"] = sum(s["attrs"]["n"] for s in haar)
    out["linalg.sample_haar.busy_s"] = _busy(haar)
    for d in HAAR_DIMS:
        at_d = [s for s in haar if s["attrs"]["d"] == d]
        count = sum(s["attrs"]["n"] for s in at_d)
        if count:
            out[f"linalg.sample_haar.ns_per_matrix.d{d}"] = 1e9 * sum(map(dur, at_d)) / count
    gue = named("linalg.sample_gue")
    out["linalg.sample_gue.matrices"] = sum(s["attrs"]["n"] for s in gue)
    out["linalg.sample_gue.busy_s"] = _busy(gue)

    acc = named("mc.accumulate_chunks")
    chunks = named("mc.chunk")
    out["mc.estimator.calls"] = len(acc)
    out["mc.samples"] = sum(s["attrs"]["n"] for s in acc)
    out["mc.chunks"] = len(chunks)
    out["mc.busy_s"] = busy("mc")
    out["mc.self_s"] = self_time("mc")
    out["mc.chunk.busy_s"] = sum(map(dur, chunks))
    out["mc.workers"] = max((s["attrs"]["workers"] for s in acc), default=0)
    capacity = sum(s["attrs"]["workers"] * dur(s) for s in acc)
    if capacity:
        out["mc.parallel_efficiency"] = out["mc.chunk.busy_s"] / capacity
    words = named("mc.empirical_moments")
    products = sum(s["attrs"]["products"] for s in words)
    word_ids = {s["id"] for s in words}
    word_chunks = [c for c in chunks if any(a["id"] in word_ids for a in ancestors(c))]
    word_chunk_ids = {c["id"] for c in word_chunks}
    sampling = sum(dur(s) for s in haar if s["parent"] in word_chunk_ids)
    word_time = sum(map(dur, word_chunks)) - sampling
    out["mc.word.products"] = products
    if products and word_time > 0:
        out["mc.word.ns_per_product"] = 1e9 * word_time / products
        out["mc.word.gflops_computed"] = sum(s["attrs"]["flops"] for s in words) / word_time / 1e9
    ptrace = named("mc.ptrace")
    out["mc.ptrace.calls"] = len(ptrace)
    out["mc.ptrace.busy_s"] = _busy(ptrace)

    moments = named("weingarten.moment_function")
    out["weingarten.moment_function.busy_s"] = _busy(moments)
    for m in range(1, 5):
        durations = [dur(s) for s in moments if s["attrs"]["m"] == m]
        out[f"weingarten.moment_function.calls.m{m}"] = len(durations)
        out[f"weingarten.moment_function.p50_ms.m{m}"] = _percentile_ms(durations, 50)
        out[f"weingarten.moment_function.p90_ms.m{m}"] = _percentile_ms(durations, 90)
    out["weingarten.wg_table.calls"] = len(named("weingarten.wg_table"))

    form_factors = named("ensembles.form_factors")
    for kind, dims in FORM_FACTOR_KEYS:
        of_kind = [s for s in form_factors if s["attrs"]["kind"] == kind]
        out[f"ensembles.form_factors.calls.{kind}"] = len(of_kind)
        for d in dims:
            durations = [dur(s) for s in of_kind if s["attrs"]["d"] == d]
            if durations:
                out[f"ensembles.form_factors.p50_ms.{kind}.d{d}"] = 1e3 * statistics.median(durations)
    out["ensembles.busy_s"] = busy("ensembles")
    out["quadrature.integrals"] = len(named("quadrature.integrate"))
    out["quadrature.integrand_evals"] = counters["integrand_evals"]
    out["quadrature.busy_s"] = busy("quadrature")

    out["closed_forms.calls"] = sum(
        1 for s in spans
        if s["layer"] == "closed_forms"
        and (s["parent"] is None or by_id[s["parent"]]["layer"] != "closed_forms")
    )
    out["closed_forms.busy_s"] = busy("closed_forms")
    out["applications.busy_s"] = busy("applications")
    out["applications.self_s"] = self_time("applications")
    out["cli.figure.self_s"] = self_time("cli")
    out["mc.self_frac"] = out["mc.self_s"] / wall_s
    for layer in LAYERS:
        out[f"{layer}.busy_frac"] = busy(layer) / wall_s
    return out
