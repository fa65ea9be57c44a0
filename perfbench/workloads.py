"""The benchmark workloads: seeded inputs, the timed job, and the checks.

Each workload defines

* ``inputs(hm, seed)``: every input of the job, generated from the seed
  before the timed region;
* ``job(hm, inputs, tally)``: the timed region. It returns the work done in
  the workload's own unit and records each task's correctness gate that is
  part of the job itself (a cross-checked number is what a user waits for);
* ``check(hm, inputs, result, tally, notes, full)``: the remaining gates, run
  after the timed region so they do not count towards its time. The gates
  that need reference samples of their own run only when ``full`` is set,
  which run.py does for the first repetition of a run; the check returns
  the outputs those gates covered (a list of floats, or None when every
  gate runs each time), and run.py requires every later repetition, whose
  inputs are the same, to return the same outputs.

``hm`` holds the haarmoments modules, resolved with ``importlib`` because the
package attribute ``haarmoments.weingarten`` is the function of that name,
not the module. Functions are looked up on the module at call time so the
traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import math
import tempfile
import traceback
from pathlib import Path

import numpy as np

SIGMA = 5.0
EXACT_RTOL = 1e-9


class Tally:
    """Tasks attempted and failed; a task fails when it raises or its gate fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name: str, fn, count: int = 1):
        """Run fn(), which returns one gate result per task (a bool or bools)."""
        try:
            oks = np.atleast_1d(np.asarray(fn(), dtype=bool)).tolist()
        except Exception:  # a raising task is a failed task, reported by name
            self.attempted += count
            self.failed += count
            self.failures.append(f"{name}: {traceback.format_exc(limit=2).strip()}")
            return
        self.attempted += len(oks)
        bad = len(oks) - sum(oks)
        if bad:
            self.failed += bad
            self.failures.append(f"{name}: {bad} of {len(oks)} failed")


def _complex_gaussian(gen: np.random.Generator, d: int) -> np.ndarray:
    return gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))


def _hermitian(gen: np.random.Generator, d: int) -> np.ndarray:
    a = _complex_gaussian(gen, d)
    return (a + a.conj().T) / 2


def _within_sigma(value, reference, stderr, ref_stderr=0.0) -> bool:
    return abs(value - reference) <= SIGMA * math.hypot(stderr, ref_stderr) + 1e-12


def _attempt(fn):
    """fn()'s value, or the exception it raised, for a gate that runs later."""
    try:
        return fn()
    except Exception as exc:  # re-raised by _outcome inside the task's gate
        return exc


def _outcome(value):
    if isinstance(value, Exception):
        raise value
    return value


def _sample_mean(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


# --- mc-words: the acceptance criterion 01 job at a repeatable size --------

WORD_SAMPLES = 8192
WORD_PATTERNS = 8


def words_inputs(hm, seed):
    groups = []
    for d in (2, 3, 4):
        for order in (4, 6, 8):
            if d < order // 2:
                continue
            gen = np.random.default_rng([seed, 101, d, order])
            patterns = [
                [_complex_gaussian(gen, d) for _ in range(order - 1)]
                for _ in range(WORD_PATTERNS)
            ]
            groups.append((d, order, patterns, hm.linalg.RngStream(seed, 101 * order + d)))
    return groups


def words_job(hm, groups, tally):
    for d, order, patterns, stream in groups:

        def task(d=d, patterns=patterns, stream=stream):
            estimates = hm.mc.empirical_moments(patterns, d, WORD_SAMPLES, stream)
            oks = []
            for xs, est in zip(patterns, estimates):
                exact = hm.weingarten.moment_function(xs, d)
                oks.append(np.all(np.abs(exact - est.mean) <= SIGMA * est.stderr + 1e-12))
            return oks

        tally.run(f"mc-words d={d} order={order}", task, count=len(patterns))
    return {"work": WORD_SAMPLES * sum(len(g[2]) for g in groups)}


def words_check(hm, groups, result, tally, notes, full):
    """Nothing left to check: every mc-words gate is part of the job."""
    return None


# --- mc-states: Haar-state estimators at d = 16 and 32 ----------------------

STATE_SIZES = ((4, 4, 4096), (4, 8, 2048))  # (d_s, d_e, samples per estimator)
REFERENCE_SPECTRA = 2000


def states_inputs(hm, seed):
    cases = []
    for ds, de, n in STATE_SIZES:
        dims = hm.linalg.BipartiteDims(ds, de)
        gen = np.random.default_rng([seed, 202, dims.d])
        cases.append({
            "dims": dims,
            "n": n,
            "m": _hermitian(gen, dims.d),
            "levels": gen.uniform(-2.0, 2.0, dims.d),
            "t": float(gen.uniform(0.5, 1.5)),
            "p0": float(1.0 / ds + gen.uniform(0.0, 1.0 - 1.0 / ds)),
            "beta": float(gen.uniform(0.5, 2.0)),
            "seed": seed,
            "stream": lambda k, d=dims.d: hm.linalg.RngStream(seed, 1000 * d + k),
        })
    return cases


def states_job(hm, cases, tally):
    mc, cf, ap = hm.mc, hm.closed_forms, hm.applications
    poisson = hm.ensembles.EnsembleKind.POISSON
    gue = hm.ensembles.EnsembleKind.GUE_NUMERIC
    sampled = {}
    work = 0
    for c in cases:
        dims, n, m, t, p0, rs = c["dims"], c["n"], c["m"], c["t"], c["p0"], c["stream"]
        tag = f"mc-states d={dims.d}"

        def reduced_norm():
            mean, var = mc.empirical_reduced_norm(m, dims, n, rs(1))
            return [
                _within_sigma(mean.mean, cf.uniform_average(m, dims), mean.stderr),
                _within_sigma(var.mean, cf.uniform_variance(m, dims), var.stderr),
            ]

        def fixed_spectrum():
            est = mc.empirical_fixed_spectrum(m, dims, c["levels"], t, n, rs(2))
            ff = cf.form_factor_inputs(c["levels"], t)
            return _within_sigma(est.mean, cf.general_average(m, dims, ff), est.stderr)

        def purity_uniform():
            est = mc.empirical_purity(dims, "uniform", mc.schmidt_state(dims, p0), t, n, rs(3))
            return _within_sigma(est.mean, ap.uniform_purity(1.0, dims)[0], est.stderr)

        def purity_poisson():
            est = mc.empirical_purity(dims, "poi", mc.schmidt_state(dims, p0), t, n, rs(4))
            ref = ap.purity_evolution(poisson, dims, p0, [t]).values[0]
            return _within_sigma(est.mean, ref, est.stderr)

        tally.run(f"{tag} reduced norm mean/variance", reduced_norm, count=2)
        tally.run(f"{tag} fixed spectrum", fixed_spectrum)
        tally.run(f"{tag} purity uniform", purity_uniform)
        tally.run(f"{tag} purity poi", purity_poisson)
        # Checked against sampled-spectrum references after the timed region.
        sampled[(dims.d, "purity gue")] = _attempt(
            lambda: mc.empirical_purity(dims, "gue", mc.schmidt_state(dims, p0), t, n, rs(5))
        )
        for k, (name, kind) in enumerate((("poi", poisson), ("gue", gue))):
            sampled[(dims.d, f"gibbs {name}")] = _attempt(
                lambda: ap.gibbs_purity_mc(kind, dims.d, c["beta"], n, rs(6 + k))
            )
        work += 7 * n
    return {"work": work, "sampled": sampled}


def _estimate_outputs(values) -> list[float]:
    """Mean and standard error of each estimate; NaN for one that raised."""
    out = []
    for v in values:
        if isinstance(v, Exception):
            out += [math.nan, math.nan]
        elif isinstance(v, tuple):
            out += [float(v[0]), float(v[1])]
        else:
            out += [float(v.mean), float(v.stderr)]
    return out


def states_check(hm, cases, result, tally, notes, full):
    """GUE purity and Gibbs purity against independently sampled spectra.

    The reduced purity is affine in the four spectral functions, so its
    ensemble mean is the mean over sampled spectra of the exact fixed-spectrum
    Haar average (``general_average`` of the initial state).
    """
    outputs = _estimate_outputs(result["sampled"][k] for k in sorted(result["sampled"]))
    if not full:
        return outputs
    cf, ap, lin = hm.closed_forms, hm.applications, hm.linalg
    for c in cases:
        dims, t, d = c["dims"], c["t"], c["dims"].d
        gen = np.random.default_rng([c["seed"], 205, d])
        gue_levels = np.linalg.eigvalsh(lin.sample_gue_hamiltonians(d, REFERENCE_SPECTRA, gen))
        poi_levels = gen.uniform(-2.0, 2.0, size=(REFERENCE_SPECTRA, d))
        psi0 = hm.mc.schmidt_state(dims, c["p0"])
        rho0 = np.outer(psi0, psi0.conj())

        def purity_gue():
            ref = _sample_mean([
                cf.general_average(rho0, dims, cf.form_factor_inputs(e, t)) for e in gue_levels
            ])
            est = _outcome(result["sampled"][(d, "purity gue")])
            return _within_sigma(est.mean, ref[0], est.stderr, ref[1])

        def gibbs(kind, levels):
            ref = _sample_mean([ap.gibbs_purity(e, c["beta"]) for e in levels])
            mean, stderr = _outcome(result["sampled"][(d, f"gibbs {kind}")])
            return _within_sigma(mean, ref[0], stderr, ref[1])

        tally.run(f"mc-states d={d} purity gue", purity_gue)
        tally.run(f"mc-states d={d} gibbs poi", lambda: gibbs("poi", poi_levels))
        tally.run(f"mc-states d={d} gibbs gue", lambda: gibbs("gue", gue_levels))
    return outputs


# --- spectral-curves: two figures through the command line ------------------

CURVE_FIGURES = (  # (figure, points on the grid, curves in the figure)
    ("c1-of-t", 5, 6),
    ("purity-compare", 2, 12),
)
CURVE_SPAN = 1.0
SPECTRUM_SAMPLES = 20000
CHECK_DIMS = (8, 16)  # total dimensions of the GUE_NUMERIC curves


def curves_inputs(hm, seed):
    gen = np.random.default_rng([seed, 303])
    t0 = 0.5 + 0.01 * float(gen.random())
    return {"t0": t0, "t1": t0 + CURVE_SPAN, "seed": seed}


def curves_job(hm, inputs, tally):
    # Written inside the checkout: the benchmark reads and writes nowhere else.
    out_dir = tempfile.mkdtemp(prefix=".tmp-curves-", dir=Path(__file__).resolve().parent)
    paths = {}
    for figure, nt, _ in CURVE_FIGURES:
        path = str(Path(out_dir) / f"{figure}.csv")
        argv = [
            "figure", figure, "--t0", repr(inputs["t0"]), "--t1", repr(inputs["t1"]),
            "--nt", str(nt), "--out", path,
        ]
        tally.run(f"figure {figure} exit code", lambda argv=argv: hm.cli.main(argv) == 0)
        paths[figure] = path
    return {"work": sum(nt * curves for _, nt, curves in CURVE_FIGURES), "dir": out_dir, "paths": paths}


def _spectral_functions(levels, t) -> dict[str, tuple[float, float]]:
    """Sample mean and standard error of the four spectral functions over
    spectra (one per row); for a concrete spectrum |f|^4 = (|f|^2)^2."""
    f1 = np.exp(-1j * levels * t).mean(axis=1)
    f2t = np.exp(-2j * levels * t).mean(axis=1)
    return {
        "f2": _sample_mean(np.abs(f1) ** 2),
        "f2_2t": _sample_mean(np.abs(f2t) ** 2),
        "re_f2fc2t": _sample_mean((f1 * f1 * f2t.conj()).real),
        "f4": _sample_mean(np.abs(f1) ** 4),
    }


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def curves_check(hm, inputs, result, tally, notes, full):
    ens, ap = hm.ensembles, hm.applications
    kinds = ens.EnsembleKind
    dims_of = hm.linalg.BipartiteDims

    def gue_kind(d):
        return kinds.GUE_NUMERIC if d <= 16 else kinds.GUE_LARGE_D

    def c1_csv():
        _, rows = _read_csv(result["paths"]["c1-of-t"])
        oks = [rows.shape == (CURVE_FIGURES[0][1], 7), np.all(np.isfinite(rows))]
        for j, de in enumerate((4, 16, 64)):
            dims = dims_of(2, de)
            for i, t in enumerate(rows[:, 0]):
                poi = ens.averaged_time_coeffs(kinds.POISSON, t, dims).ct1
                gue = ens.averaged_time_coeffs(gue_kind(dims.d), t, dims).ct1
                oks += [
                    math.isclose(rows[i, 1 + 2 * j], poi, rel_tol=1e-12),
                    math.isclose(rows[i, 2 + 2 * j], gue, rel_tol=1e-12),
                ]
        return all(oks)

    def purity_csv():
        _, rows = _read_csv(result["paths"]["purity-compare"])
        oks = [rows.shape == (CURVE_FIGURES[1][1], 13), np.all(np.isfinite(rows))]
        times = rows[:, 0]
        col = 1
        for de in (4, 16, 64):
            dims = dims_of(4, de)
            for kind in (kinds.POISSON, kinds.POISSON, gue_kind(dims.d), gue_kind(dims.d)):
                p0 = 1.0 if col % 2 else 0.25
                ref = ap.purity_evolution(kind, dims, p0, times).values
                oks.append(np.allclose(rows[:, col], ref, rtol=1e-12, atol=0.0))
                oks.append(np.all((rows[:, col] >= 0.25 - 1e-9) & (rows[:, col] <= 1.0 + 1e-9)))
                col += 1
        return all(oks)

    tally.run("figure c1-of-t output", c1_csv)
    tally.run("figure purity-compare output", purity_csv)
    outputs = []
    for figure, nt, curves in CURVE_FIGURES:
        try:
            rows = _read_csv(result["paths"][figure])[1].ravel().tolist()
        except Exception:  # a missing or broken file: the gates above failed it
            rows = []
        outputs += rows if len(rows) == nt * (curves + 1) else [math.nan] * nt * (curves + 1)
    for path in result["paths"].values():
        for p in (Path(path), Path(path + ".meta.json")):
            p.unlink(missing_ok=True)
    Path(result["dir"]).rmdir()
    if not full:
        return outputs

    # Analytic form factors against sampled spectra at the figures' own grid
    # ends, where the GUE_NUMERIC values are already cached.
    worst = {"f4": 0.0, "re_f2fc2t": 0.0}
    for d in CHECK_DIMS:
        gen = np.random.default_rng([inputs["seed"], 304, d])
        poi_levels = gen.uniform(-2.0, 2.0, size=(SPECTRUM_SAMPLES, d))
        gue_levels = np.linalg.eigvalsh(hm.linalg.sample_gue_hamiltonians(d, SPECTRUM_SAMPLES, gen))
        for t in (inputs["t0"], inputs["t1"]):

            def spectral(d=d, t=t, poi_levels=poi_levels, gue_levels=gue_levels):
                poi, poi_sampled = ens.poisson_form_factors(t, d), _spectral_functions(poi_levels, t)
                gue = ens.gue_form_factors(t, d, kinds.GUE_NUMERIC)
                gue_sampled = _spectral_functions(gue_levels, t)
                # Known defect: GUE_NUMERIC factorizes the third- and
                # fourth-order functions, so these z-scores are reported, not gated.
                for field in worst:
                    z = abs(getattr(gue, field) - gue_sampled[field][0]) / gue_sampled[field][1]
                    notes[f"known_defect.gue_numeric.{field}.z.d{d}.t{t:.4f}"] = z
                    worst[field] = max(worst[field], z)
                return [
                    _within_sigma(getattr(poi, f), *poi_sampled[f])
                    for f in ("f2", "f2_2t", "re_f2fc2t", "f4")
                ] + [_within_sigma(getattr(gue, f), *gue_sampled[f]) for f in ("f2", "f2_2t")]

            tally.run(f"form factors d={d} t={t:.4f}", spectral, count=6)
    notes["ensembles.known_defect.f4_z"] = worst["f4"]
    notes["ensembles.known_defect.re_f2fc2t_z"] = worst["re_f2fc2t"]
    return outputs


# --- exact-moments: the Weingarten route alone ------------------------------

MOMENT_ORDERS = (2, 4, 6, 8)
MOMENT_DIMS = (4, 8, 16, 32)
MOMENT_PATTERNS = 40
IDENTITY_CHECKS = 2  # patterns per (order, d) also checked with an identity slot


def moments_inputs(hm, seed):
    cases = []
    for order in MOMENT_ORDERS:
        for d in MOMENT_DIMS:
            gen = np.random.default_rng([seed, 404, order, d])
            for _ in range(MOMENT_PATTERNS):
                cases.append((order, d, [_complex_gaussian(gen, d) for _ in range(order - 1)]))
    return cases


def moments_job(hm, cases, tally):
    values = [_attempt(lambda: hm.weingarten.moment_function(xs, d)) for _, d, xs in cases]
    return {"work": len(cases), "values": values}


def _close(a, b) -> bool:
    return bool(np.all(np.abs(a - b) <= EXACT_RTOL * (1.0 + np.max(np.abs(b)))))


def moments_check(hm, cases, result, tally, notes, full):
    """E(2) against Tr(X)/d, E(4) against the closed form, and E(n) with an
    identity in the second slot against E(n-2) of the merged word:
    U X1 U^dag I U X3 U^dag ... = U (X1 X3) U^dag ..."""
    wg = hm.weingarten
    seen: dict[tuple[int, int], int] = {}
    for (order, d, xs), value in zip(cases, result["values"]):

        def gate(order=order, d=d, xs=xs, value=value):
            value = _outcome(value)
            if not np.all(np.isfinite(value)):
                return False
            oks = []
            if order == 2:
                oks.append(_close(value, np.trace(xs[0]) / d * np.eye(d)))
            if order == 4:
                oks.append(_close(value, wg.fourth_moment_closed(*xs, d)))
            k = seen.get((order, d), 0)
            seen[(order, d)] = k + 1
            if order >= 4 and k < IDENTITY_CHECKS:
                with_identity = [xs[0], np.eye(d), *xs[2:]]
                merged = [xs[0] @ xs[2], *xs[3:]]
                oks.append(_close(wg.moment_function(with_identity, d), wg.moment_function(merged, d)))
            return all(oks)

        tally.run(f"exact-moments order={order} d={d}", gate)
    return None


WORKLOADS = {
    "mc-words": (words_inputs, words_job, words_check),
    "mc-states": (states_inputs, states_job, states_check),
    "spectral-curves": (curves_inputs, curves_job, curves_check),
    "exact-moments": (moments_inputs, moments_job, moments_check),
}

# Workloads whose time is spent in the Monte Carlo layer; only these get the
# single-worker rerun in the traced run.
MC_WORKLOADS = ("mc-words", "mc-states")
