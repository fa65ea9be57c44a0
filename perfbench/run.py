"""haarmoments benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload mc-words --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout that holds ``src/haarmoments``. Each
repetition is a new ``python3 -I perfbench/job.py`` process, one at a time,
so the package's caches start cold as they do for a command-line user.
The first repetition is a warm-up: it runs every correctness check, and its
times are not used. Each later repetition runs the gates that need no
reference samples of their own, and must give the warm-up's outputs again.
A new repetition starts only if it is expected to end within ``--seconds``
(at least MIN_TIMED timed ones run).

``--trace 0`` prints the end-to-end metrics: the mean timed wall time of a
repetition and the work per second over all timed repetitions (a mean over
the whole run, because the host's speed drifts over seconds and the median
of a few repetitions jumps with it), medians over repetitions of the set-up
time (spawn to timed region) and peak RSS, and the share of tasks that
passed their gates.
``--trace 1`` prints the per-layer metrics of one traced repetition, after
untraced repetitions that give the tracing overhead and, on the Monte Carlo
workloads, a same-input repetition with ``HAARMOMENTS_THREADS=1``.

The last line of standard output is the JSON result; the lines before it
are notes (provenance, failures, known-defect z-scores).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "haarmoments"
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402
from workloads import MC_WORKLOADS, WORKLOADS  # noqa: E402

MIN_TIMED = 3
OUTPUT_RTOL = 1e-9  # same inputs give the same outputs, up to summation order
DEADLINE_S = 170  # a run, repetitions included, ends within 180 s or fails


class BenchError(Exception):
    pass


def spawn(
    workload: str, seed: int, trace: int, deadline: float,
    full_check: bool = False, threads: str | None = None,
) -> dict:
    env = dict(os.environ)
    if threads is not None:
        env["HAARMOMENTS_THREADS"] = threads
    cmd = [
        sys.executable, "-I", str(HERE / "job.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--full-check", str(int(full_check)),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition ran past the {DEADLINE_S} s run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["start_monotonic"] - spawned
    return rep


def same_outputs(rep: dict, first: dict) -> None:
    """Count, as one more task of `rep`, that its outputs equal the warm-up's."""
    if first["outputs"] is None:
        return
    a, b = rep["outputs"], first["outputs"]
    rep["attempted"] += 1
    if len(a) != len(b) or not all(
        math.isclose(x, y, rel_tol=OUTPUT_RTOL, abs_tol=1e-12) for x, y in zip(a, b)
    ):
        rep["failed"] += 1
        rep["failures"].append("outputs differ from the warm-up repetition's")


def repeat(workload: str, seed: int, seconds: float, started: float, deadline: float) -> list[dict]:
    """The warm-up repetition, then timed ones until the next would end
    after `seconds` (at least MIN_TIMED)."""
    begun = time.monotonic()
    reps = [spawn(workload, seed, trace=0, deadline=deadline, full_check=True)]
    last = time.monotonic() - begun
    while len(reps) <= MIN_TIMED or time.monotonic() - started + last <= seconds:
        begun = time.monotonic()
        rep = spawn(workload, seed, trace=0, deadline=deadline)
        same_outputs(rep, reps[0])
        reps.append(rep)
        last = time.monotonic() - begun
    return reps


def provenance(rep: dict) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_path.read_text().strip() if ref.startswith("ref: ") and ref_path.is_file() else ref
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **rep["provenance"],
        "HAARMOMENTS_THREADS": os.environ.get("HAARMOMENTS_THREADS"),
        "commit": commit,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
    }


def end_to_end(reps: list[dict]) -> dict:
    """The end-to-end metrics; timings come from the timed repetitions only."""
    timed = reps[1:]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "wall_s": {"value": statistics.fmean(r["wall_s"] for r in timed), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in timed), "unit": "s"},
        "work_per_s": {
            "value": sum(r["work"] for r in timed) / sum(r["wall_s"] for r in timed),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in timed), "unit": "MB"},
        "pass_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: no haarmoments sources at {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    try:
        if args.trace:
            # Half the run for the untraced baseline of the overhead figure.
            reps = repeat(args.workload, args.seed, args.seconds / 2, started, deadline)
            traced = spawn(args.workload, args.seed, trace=1, deadline=deadline)
            same_outputs(traced, reps[0])
            extra = [traced]
            layers = traced["layers"]
            untraced_wall = statistics.median(r["wall_s"] for r in reps[1:])
            layers["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
            if args.workload in MC_WORKLOADS:
                single = spawn(args.workload, args.seed, trace=0, deadline=deadline, threads="1")
                same_outputs(single, reps[0])
                extra.append(single)
                layers["mc.speedup_vs_1_worker"] = single["wall_s"] / untraced_wall
            units = {name: unit for name, unit, _ in PER_LAYER}
            # Known-defect z-scores come from the warm-up's full check.
            layers.update({k: v for k, v in reps[0]["notes"].items() if k in units})
            metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
            counted = reps + extra
        else:
            reps = repeat(args.workload, args.seed, args.seconds, started, deadline)
            metrics = end_to_end(reps)
            counted = reps
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    print("# provenance " + json.dumps(provenance(counted[0]), sort_keys=True))
    print(f"# repetitions {len(reps)} (1 warm-up); failed_frac {failed / attempted!r} ({failed} of {attempted} tasks)")
    for key in ("wall_s", "setup_s"):
        print(f"# repetition {key} " + " ".join(f"{r[key]:.4f}" for r in reps))
    walls = [r["wall_s"] for r in reps[1:]]
    print(f"# timed wall_s median {statistics.median(walls):.4f} min {min(walls):.4f} max {max(walls):.4f}")
    for failure in sorted({f for r in counted for f in r["failures"]}):
        print(f"# failed: {failure}")
    for name, z in sorted(counted[0]["notes"].items()):
        print(f"# {name} = {z!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
