"""One fresh-interpreter run of one workload; started by run.py.

Imports haarmoments from the checkout's ``src/``, builds the seeded inputs,
runs the timed region once (traced or not), runs the remaining correctness
checks (all of them with ``--full-check 1``), and prints one JSON line for
run.py. The monotonic clock it reports is the same system-wide clock run.py
reads before spawning, so run.py can compute the set-up time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

MODULES = ("linalg", "mc", "weingarten", "closed_forms", "ensembles", "applications", "cli")


def load_package() -> SimpleNamespace:
    package = importlib.import_module("haarmoments")
    if Path(package.__file__).resolve().parent != SRC / "haarmoments":
        raise SystemExit(f"haarmoments imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"haarmoments.{m}") for m in MODULES})


def provenance(hm) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "worker_count": hm.mc.worker_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()

    hm = load_package()
    import spans
    import workloads

    make_inputs, job, check = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(hm, args.seed)
    tally = workloads.Tally()
    tracer = None
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}:{args.seed}")
        tracer.install()

    start_monotonic = time.monotonic()
    start = time.perf_counter()
    result = job(hm, inputs, tally)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer.spans, tracer.counters, wall)
    notes: dict[str, float] = {}
    outputs = check(hm, inputs, result, tally, notes, bool(args.full_check))

    print(json.dumps({
        "start_monotonic": start_monotonic,
        "wall_s": wall,
        "work": result["work"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "notes": notes,
        "outputs": outputs,
        "layers": layers,
        "provenance": provenance(hm),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
