"""Command-line front end: paper-figure CSV generation, the validation suite,
and direct moment-function evaluation."""

from __future__ import annotations

import argparse
import csv
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
from .validate import report_json, report_lines, run_validation
from .weingarten import MAX_HALF_ORDER, moment_function

_DE_SCAN = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)


def _fmt(x) -> str:
    return repr(float(x))


def _gue_kind(d: int) -> EnsembleKind:
    return EnsembleKind.GUE_NUMERIC if d <= GUE_NUMERIC_MAX_DIM else EnsembleKind.GUE_LARGE_D


def _t_grid(args) -> np.ndarray:
    if args.nt < 2:
        raise ValueError("--nt must be >= 2")
    return np.linspace(args.t0, args.t1, args.nt)


def _fig_coeff_variance(args, rng):
    header = ["de", "c1", "c2", "c3", "c4", "c5"]
    rows = []
    for de in _DE_SCAN:
        cs = variance_coeffs(BipartiteDims(args.ds, de))
        rows.append([de] + [abs(c) for c in cs])
    return header, rows


def _fig_c1_of_t(args, rng):
    de_values = (4, 16, 64)
    times = _t_grid(args)
    header = ["t"]
    curves = []
    for de in de_values:
        dims = BipartiteDims(args.ds, de)
        header += [f"poi_de{de}", f"gue_de{de}"]
        kind = _gue_kind(dims.d)
        poi = [averaged_time_coeffs(EnsembleKind.POISSON, t, dims).ct1 for t in times]
        gue = [averaged_time_coeffs(kind, t, dims).ct1 for t in times]
        curves += [poi, gue]
    rows = [[t] + [c[i] for c in curves] for i, t in enumerate(times)]
    return header, rows


def _fig_purity_vs_de(args, rng):
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


def _purity_curves(args, rng, configs):
    """Shared builder: configs is a list of (label, ensemble, dims, p0)."""
    times = _t_grid(args)
    header = ["t"]
    columns = []
    for ci, (label, kind, dims, p0) in enumerate(configs):
        header.append(label)
        columns.append(purity_evolution(kind, dims, p0, times).values)
        if args.with_mc:
            header += [f"{label}_mc", f"{label}_se"]
            psi0 = schmidt_state(dims, p0)
            mc_m, mc_se = [], []
            for ti, t in enumerate(times):
                est = empirical_purity(
                    dims, kind, psi0, float(t), args.samples,
                    RngStream(rng.seed, ci * 100_000 + ti),
                )
                mc_m.append(est.mean)
                mc_se.append(est.stderr)
            columns += [mc_m, mc_se]
    rows = [[t] + [c[i] for c in columns] for i, t in enumerate(times)]
    return header, rows


def _fig_purity_poi(args, rng):
    configs = []
    for ds, de in ((2, 2), (4, 4)):
        dims = BipartiteDims(ds, de)
        configs += [
            (f"pure_{ds}x{de}", EnsembleKind.POISSON, dims, 1.0),
            (f"mixed_{ds}x{de}", EnsembleKind.POISSON, dims, 1.0 / ds),
        ]
    return _purity_curves(args, rng, configs)


def _fig_purity_init_dep(args, rng):
    dims = BipartiteDims(32, 128)
    p_values = np.linspace(1.0 / dims.d_s, 1.0, 5)
    configs = []
    for kind, tag in ((EnsembleKind.POISSON, "poi"), (EnsembleKind.GUE_LARGE_D, "gue")):
        for j, p0 in enumerate(p_values):
            configs.append((f"{tag}_p{j + 1}", kind, dims, float(p0)))
    return _purity_curves(args, rng, configs)


def _fig_purity_compare(args, rng):
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
    return _purity_curves(args, rng, configs)


def _fig_gibbs_beta(args, rng):
    d = args.ds * args.de
    betas = np.linspace(args.t0, args.t1, args.nt)
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


def _fig_gibbs_d(args, rng):
    header = ["d", "poi", "poi_se"]
    rows = []
    for i, d in enumerate((2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)):
        p, pse = gibbs_purity_mc(
            EnsembleKind.POISSON, d, args.beta, args.samples, RngStream(args.seed, i)
        )
        rows.append([d, p, pse])
    return header, rows


def _fig_equilibration(args, rng):
    times = _t_grid(args)
    poi = equilibration_large_de(EnsembleKind.POISSON, args.ds, 1.0, times)
    gue = equilibration_large_de(EnsembleKind.GUE_LARGE_D, args.ds, 1.0, times)
    header = ["t", "poi", "gue"]
    rows = [[t, poi.values[i], gue.values[i]] for i, t in enumerate(times)]
    return header, rows


_FIGURE_BUILDERS = {
    "coeff-variance": _fig_coeff_variance,
    "c1-of-t": _fig_c1_of_t,
    "purity-vs-de": _fig_purity_vs_de,
    "purity-poi": _fig_purity_poi,
    "purity-init-dep": _fig_purity_init_dep,
    "purity-compare": _fig_purity_compare,
    "gibbs-beta": _fig_gibbs_beta,
    "gibbs-d": _fig_gibbs_d,
    "equilibration": _fig_equilibration,
}
FIGURES = tuple(_FIGURE_BUILDERS)

_FIGURE_DEFAULTS = {
    # (t0, t1, nt) for the independent-variable grid where applicable
    "c1-of-t": (0.0, 15.0, 301),
    "purity-poi": (0.0, 15.0, 301),
    "purity-init-dep": (0.0, 15.0, 301),
    "purity-compare": (0.0, 15.0, 301),
    "gibbs-beta": (0.0, 20.0, 41),
    "equilibration": (0.0, 30.0, 601),
}

_MC_FIGURES = {"purity-poi"}


class UsageError(Exception):
    pass


def _write_figure(args) -> int:
    name = args.name
    if args.with_mc and name not in _MC_FIGURES:
        raise UsageError(f"--with-mc is not available for figure {name!r}")
    defaults = _FIGURE_DEFAULTS.get(name)
    if defaults is not None:
        if args.t0 is None:
            args.t0 = defaults[0]
        if args.t1 is None:
            args.t1 = defaults[1]
        if args.nt is None:
            args.nt = defaults[2]

    start = time.perf_counter()
    rng = RngStream(args.seed)
    header, rows = _FIGURE_BUILDERS[name](args, rng)

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

    sidecar = {
        "figure": name,
        "config": {
            "ds": args.ds,
            "de": args.de,
            "t0": args.t0,
            "t1": args.t1,
            "nt": args.nt,
            "beta": args.beta,
            "samples": args.samples,
            "with_mc": args.with_mc,
            "format": args.format,
        },
        "seed": args.seed,
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
    """Decode {"dim": n, "entries": [[re, im], ...]} (row-major) to a matrix."""
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
        if dim < 1 or len(entries) != dim * dim:
            raise ValueError
        flat = np.array([complex(re, im) for re, im in entries])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(
            'matrices must be {"dim": n, "entries": [[re, im], ...]} with n^2 entries'
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarmoments",
        description="Haar-measure unitary averages and generic open-system dynamics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write a paper figure as plot-ready CSV")
    fig.add_argument("name", choices=FIGURES)
    fig.add_argument("--ds", type=int, default=2)
    fig.add_argument("--de", type=int, default=2)
    fig.add_argument("--t0", type=float, default=None)
    fig.add_argument("--t1", type=float, default=None)
    fig.add_argument("--nt", type=int, default=None)
    fig.add_argument("--beta", type=float, default=10.0)
    fig.add_argument("--seed", type=int, default=42)
    fig.add_argument("--samples", type=int, default=10_000)
    fig.add_argument("--out", default=None)
    fig.add_argument("--format", choices=("csv", "json"), default="csv")
    fig.add_argument("--with-mc", action="store_true", dest="with_mc")
    fig.set_defaults(func=_write_figure)

    val = sub.add_parser("validate", help="run the acceptance-criteria suite")
    val.add_argument("--seed", type=int, default=42)
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
