"""Command-line front end: paper-figure CSV generation, the validation suite,
and direct moment-function evaluation."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .applications import (
    equilibration_large_de,
    gibbs_purity_mc,
    purity_evolution,
    uniform_purity,
)
from .closed_forms import variance_coeffs
from .ensembles import GUE_NUMERIC_MAX_DIM, EnsembleKind, averaged_time_coeffs
from .errors import HaarMomentsError
from .linalg import BipartiteDims, RngStream
from .mc import empirical_purity, schmidt_state
from .validate import _fmt, report_json, report_lines, run_validation
from .weingarten import MAX_HALF_ORDER, moment_function

_DE_SCAN = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
_GIBBS_BETA_D = 4  # levels per gibbs-beta spectrum, the d of the crossover scan in DECISIONS.md


def _gue_kind(d: int) -> EnsembleKind:
    return EnsembleKind.GUE_NUMERIC if d <= GUE_NUMERIC_MAX_DIM else EnsembleKind.GUE_LARGE_D


def _t_grid(args) -> np.ndarray:
    if args.nt < 2:
        raise ValueError("--nt must be >= 2")
    if not np.isfinite([args.t0, args.t1]).all():
        raise ValueError(f"--t0 and --t1 must be finite, got {args.t0} and {args.t1}")
    return np.linspace(args.t0, args.t1, args.nt)


def _fig_coeff_variance(args):
    header = ["de", "c1", "c2", "c3", "c4", "c5"]
    rows = []
    for de in _DE_SCAN:
        cs = variance_coeffs(BipartiteDims(args.ds, de))
        rows.append([de] + [abs(c) for c in cs])
    return header, rows


def _fig_c1_of_t(args):
    de_values = (4, 16, 64)
    times = _t_grid(args)
    header = ["t"]
    curves = []
    for de in de_values:
        dims = BipartiteDims(args.ds, de)
        header += [f"poi_de{de}", f"gue_de{de}"]
        kind = _gue_kind(dims.d)
        curves += [
            averaged_time_coeffs(EnsembleKind.POISSON, times, dims).ct1,
            averaged_time_coeffs(kind, times, dims).ct1,
        ]
    rows = [[t] + [c[i] for c in curves] for i, t in enumerate(times)]
    return header, rows


def _fig_purity_vs_de(args):
    ds_values = (2, 3, 4, 5)
    header = ["de"]
    for ds in ds_values:
        header += [f"mean_ds{ds}", f"std_ds{ds}"]
    rows = []
    for de in _DE_SCAN:
        row = [de]
        for ds in ds_values:
            mean, var = uniform_purity(1.0, BipartiteDims(ds, de))
            row += [mean, np.sqrt(var)]
        rows.append(row)
    return header, rows


def _purity_curves(args, configs, with_mc=False):
    """Shared builder: configs is a list of (label, ensemble, dims, p0);
    with_mc adds sampled columns of args.samples draws per point."""
    times = _t_grid(args)
    header = ["t"]
    columns = []
    for ci, (label, kind, dims, p0) in enumerate(configs):
        header.append(label)
        columns.append(purity_evolution(kind, dims, p0, times).values)
        if with_mc:
            header += [f"{label}_mc", f"{label}_se"]
            psi0 = schmidt_state(dims, p0)
            mc_m, mc_se = [], []
            for ti, t in enumerate(times):
                est = empirical_purity(
                    dims, kind, psi0, float(t), args.samples,
                    RngStream(args.seed, ci * 100_000 + ti),
                )
                mc_m.append(est.mean)
                mc_se.append(est.stderr)
            columns += [mc_m, mc_se]
    rows = [[t] + [c[i] for c in columns] for i, t in enumerate(times)]
    return header, rows


def _fig_purity_poi(args):
    configs = []
    for ds, de in ((2, 2), (4, 4)):
        dims = BipartiteDims(ds, de)
        configs += [
            (f"pure_{ds}x{de}", EnsembleKind.POISSON, dims, 1.0),
            (f"mixed_{ds}x{de}", EnsembleKind.POISSON, dims, 1.0 / ds),
        ]
    return _purity_curves(args, configs, args.with_mc)


def _fig_purity_init_dep(args):
    dims = BipartiteDims(32, 128)
    p_values = np.linspace(1.0 / dims.d_s, 1.0, 5)
    configs = []
    for kind, tag in ((EnsembleKind.POISSON, "poi"), (EnsembleKind.GUE_LARGE_D, "gue")):
        for j, p0 in enumerate(p_values):
            configs.append((f"{tag}_p{j + 1}", kind, dims, float(p0)))
    return _purity_curves(args, configs)


def _fig_purity_compare(args):
    configs = []
    for de in (4, 16, 64):
        dims = BipartiteDims(4, de)
        gue = _gue_kind(dims.d)
        configs += [
            (f"poi_de{de}_pure", EnsembleKind.POISSON, dims, 1.0),
            (f"poi_de{de}_mixed", EnsembleKind.POISSON, dims, 0.25),
            (f"gue_de{de}_pure", gue, dims, 1.0),
            (f"gue_de{de}_mixed", gue, dims, 0.25),
        ]
    return _purity_curves(args, configs)


def _fig_gibbs_beta(args):
    d = _GIBBS_BETA_D
    betas = _t_grid(args)
    header = ["beta", "poi", "poi_se", "gue", "gue_se"]
    rows = []
    for i, beta in enumerate(betas):
        p, pse = gibbs_purity_mc(
            EnsembleKind.POISSON, d, float(beta), args.samples, RngStream(args.seed, 2 * i)
        )
        g, gse = gibbs_purity_mc(
            EnsembleKind.GUE_NUMERIC, d, float(beta), args.samples, RngStream(args.seed, 2 * i + 1)
        )
        rows.append([beta, p, pse, g, gse])
    return header, rows


def _fig_gibbs_d(args):
    header = ["d", "poi", "poi_se"]
    rows = []
    for i, d in enumerate((2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)):
        p, pse = gibbs_purity_mc(
            EnsembleKind.POISSON, d, args.beta, args.samples, RngStream(args.seed, i)
        )
        rows.append([d, p, pse])
    return header, rows


def _fig_equilibration(args):
    times = _t_grid(args)
    poi = equilibration_large_de(EnsembleKind.POISSON, args.ds, 1.0, times)
    gue = equilibration_large_de(EnsembleKind.GUE_LARGE_D, args.ds, 1.0, times)
    header = ["t", "poi", "gue"]
    rows = [[t, poi.values[i], gue.values[i]] for i, t in enumerate(times)]
    return header, rows


_TIME_GRID = {"t0": 0.0, "t1": 15.0, "nt": 301}

# A figure declares exactly the flags its builder reads, each with its default:
# every other figure flag is refused, so the sidecar records only used values.
# A figure that declares with_mc reads its _MC_FLAGS only with --with-mc.
_FIGURES = {
    "coeff-variance": (_fig_coeff_variance, {"ds": 2}),
    "c1-of-t": (_fig_c1_of_t, {"ds": 2, **_TIME_GRID}),
    "purity-vs-de": (_fig_purity_vs_de, {}),
    "purity-poi": (
        _fig_purity_poi, {**_TIME_GRID, "samples": 10_000, "with_mc": False, "seed": 42}
    ),
    "purity-init-dep": (_fig_purity_init_dep, _TIME_GRID),
    "purity-compare": (_fig_purity_compare, _TIME_GRID),
    "gibbs-beta": (
        _fig_gibbs_beta, {"t0": 0.0, "t1": 20.0, "nt": 41, "samples": 10_000, "seed": 42}
    ),
    "gibbs-d": (_fig_gibbs_d, {"beta": 10.0, "samples": 10_000, "seed": 42}),
    "equilibration": (_fig_equilibration, {"ds": 2, "t0": 0.0, "t1": 30.0, "nt": 601}),
}
FIGURES = tuple(_FIGURES)
_FIGURE_FLAGS = ("ds", "t0", "t1", "nt", "beta", "samples", "with_mc", "seed")
_MC_FLAGS = ("samples", "seed")


class UsageError(Exception):
    pass


def _seed(text: str) -> int:
    """--seed: numpy's seed sequences take integers >= 0 only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _write_figure(args) -> int:
    name = args.name
    builder, declared = _FIGURES[name]
    overlay = ""
    if "with_mc" in declared and not args.with_mc:
        declared = {flag: v for flag, v in declared.items() if flag not in _MC_FLAGS}
        overlay = " without --with-mc"
    for flag in _FIGURE_FLAGS:
        value = getattr(args, flag)
        if value is not None and flag not in declared:
            option = "--" + flag.replace("_", "-")
            hint = overlay if flag in _MC_FLAGS else ""
            raise UsageError(f"{option} is not available for figure {name!r}{hint}")
        if value is None:
            setattr(args, flag, declared.get(flag))

    start = time.perf_counter()
    header, rows = builder(args)

    out = args.out or f"{name}.csv"
    if args.format == "csv":
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    else:
        payload = {"header": header, "rows": [[float(v) for v in row] for row in rows]}
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    config = {flag: getattr(args, flag) for flag in (*_FIGURE_FLAGS, "format")}
    sidecar = {
        "figure": name,
        "seed": config.pop("seed"),
        "config": config,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    with open(out + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(rows)} rows) and {out}.meta.json")
    return 0


def _run_validate(args) -> int:
    report = run_validation(seed=args.seed, quick=args.quick)
    for line in report_lines(report):
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_json(report))
            fh.write("\n")
    return 0 if report["all_passed"] else 1


def load_matrix_json(obj) -> np.ndarray:
    """Decode {"dim": n, "entries": [[re, im], ...]} (row-major) to a matrix.

    n must be a JSON integer and each re, im a JSON number: a float n, and a
    bool or a string anywhere, is refused, not truncated or converted.
    """
    try:
        dim = obj["dim"]
        entries = obj["entries"]
        if type(dim) is not int or dim < 1 or len(entries) != dim * dim:
            raise ValueError
        if any(type(x) not in (int, float) for entry in entries for x in entry):
            raise ValueError
        flat = np.array([complex(re, im) for re, im in entries])
        if not np.isfinite(flat).all():
            raise ValueError
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(
            'matrices must be {"dim": n, "entries": [[re, im], ...]} with an integer n >= 1 '
            "and n^2 finite entries of JSON numbers"
        ) from exc
    return flat.reshape(dim, dim)


def dump_matrix_json(m: np.ndarray) -> str:
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return json.dumps({"dim": int(m.shape[0]), "entries": entries})


_PATTERN_LENGTHS = range(1, 2 * MAX_HALF_ORDER, 2)


def _run_moment(args) -> int:
    try:
        with open(args.pattern) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read pattern file: {exc}") from exc
    if not isinstance(data, list):
        raise UsageError("pattern file must hold a JSON array of matrices")
    if len(data) not in _PATTERN_LENGTHS:
        raise UsageError(
            f"pattern must hold an odd number of matrices from 1 to {_PATTERN_LENGTHS[-1]}, "
            f"got {len(data)}"
        )
    xs = [load_matrix_json(obj) for obj in data]
    text = dump_matrix_json(moment_function(xs, args.d))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a build costs 1 to
    3.5 ms, and in-process callers run ``main`` many times.  Parsing leaves
    it unchanged, since every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="haarmoments",
        description="Haar-measure unitary averages and generic open-system dynamics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write a paper figure as plot-ready CSV")
    fig.add_argument("name", choices=FIGURES)
    # None marks a figure flag not given: _write_figure fills in the figure's default
    fig.add_argument("--ds", type=int)
    fig.add_argument("--t0", type=float)
    fig.add_argument("--t1", type=float)
    fig.add_argument("--nt", type=int)
    fig.add_argument("--beta", type=float)
    fig.add_argument("--samples", type=int)
    fig.add_argument("--with-mc", action="store_true", default=None, dest="with_mc")
    fig.add_argument("--seed", type=_seed)
    fig.add_argument("--out", default=None)
    fig.add_argument("--format", choices=("csv", "json"), default="csv")
    fig.set_defaults(func=_write_figure)

    val = sub.add_parser("validate", help="run the acceptance-criteria suite")
    val.add_argument("--seed", type=_seed, default=42)
    val.add_argument("--quick", action="store_true")
    val.add_argument("--out", default=None)
    val.set_defaults(func=_run_validate)

    mom = sub.add_parser("moment", help="evaluate a Haar moment function")
    mom.add_argument(
        "--pattern", required=True,
        help=f"JSON file with an odd number of matrices, at most {_PATTERN_LENGTHS[-1]}",
    )
    mom.add_argument("--d", type=int, required=True)
    mom.add_argument("--out", default=None)
    mom.set_defaults(func=_run_moment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (HaarMomentsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
