"""Alternating-pair A/B runs of the benchmark: one tree against another.

    python3 tools/ab_pairs.py --workload exact-moments --pairs 10 --seconds 8 --seed 601
    python3 tools/ab_pairs.py --workload exact-moments --pairs 10 --seconds 8 --aa

Run from anywhere inside the repository; it needs only the standard library
and git.  The base side is a git revision (``--base``, default ``HEAD``).  The
change side is the working tree: every tracked and untracked file that git
does not ignore, as it is on disk.  The base is exported with ``git archive``
and the change copied, each into its own directory under one temporary
directory, so no run sees the checkout's caches or leftovers, and that
directory is removed at the end.  ``--aa`` runs the base against a second
export of itself, an A/A control: it shows how often one side wins by chance
and how far apart two runs of the same code land.

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` once on each side, one process at a time: the base first in even
pairs, the change first in odd ones, because the host's speed drifts over
minutes.  Every run must pass; a failed run stops the tool.  The report
gives, for each end-to-end metric of BENCHMARK.json, each side's median and
quartiles over the pairs and the number of pairs in which the change was
better.  A speed claim quotes this report, with the host it ran on; its
header names the host, Python, numpy and the BLAS numpy was built with.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def export_revision(root: Path, rev: str, dest: Path) -> str:
    """The files of rev in dest, with git archive; returns the full hash."""
    full = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", "--format=tar", full))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return full


def copy_worktree(root: Path, dest: Path) -> str:
    """The working tree's files that git tracks or would track, as on disk."""
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = root / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return "working tree"


def library_versions() -> str:
    """numpy's version and its BLAS, read by the interpreter that runs the
    benchmark, in a subprocess, so this tool itself imports no numpy."""
    code = ("import numpy as np; blas = np.show_config(mode='dicts')['Build Dependencies']['blas'];"
            " print(f\"numpy {np.__version__}, {blas['name']} {blas['version']}\")")
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return done.stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench/run.py's end-to-end metrics for one run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {tree.name} (seed {seed}):\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"a gate failed in {tree.name} (seed {seed}):\n{done.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def report(metrics: list[dict], base: list[dict], change: list[dict], labels: tuple) -> str:
    rows = [["metric", f"{labels[0]} median [q1, q3]", f"{labels[1]} median [q1, q3]",
             f"{labels[1]} better"]]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a, b = [r[name] for r in base], [r[name] for r in change]
        won = sum(y > x if higher else y < x for x, y in zip(a, b))
        quartiles = (statistics.quantiles(v, n=4, method="inclusive") for v in (a, b))
        cells = [f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in quartiles]
        rows.append([name, *cells, f"{won}/{len(a)}"])
    widths = [max(len(row[k]) for row in rows) for k in range(4)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--aa", action="store_true", help="run the base against a copy of itself")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    labels = ("base", "copy" if args.aa else "change")
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        trees = Path(tmp, labels[0]), Path(tmp, labels[1])
        for tree in trees:
            tree.mkdir()
        base_name = export_revision(root, args.base, trees[0])
        if args.aa:
            change_name = export_revision(root, args.base, trees[1])
        else:
            change_name = copy_worktree(root, trees[1])
        seeds = f"{args.seed}-{args.seed + args.pairs - 1}"
        print(f"# {args.workload}: {args.pairs} pairs, seeds {seeds}, --seconds {args.seconds:g},"
              " alternating which side runs first")
        print(f"# base {base_name}; {labels[1]} {change_name}")
        print(f"# host {platform.machine()}, {os.cpu_count()} CPUs,"
              f" Python {platform.python_version()}, {library_versions()},"
              f" HAARMOMENTS_THREADS={os.environ.get('HAARMOMENTS_THREADS', 'unset')}")
        results: tuple[list[dict], list[dict]] = ([], [])
        for i in range(args.pairs):
            seed = args.seed + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                results[side].append(run_once(trees[side], args.workload, seed, args.seconds))
            walls = " ".join(f"{labels[s]} {results[s][-1]['wall_s']:.6g}" for s in (0, 1))
            first = labels[order[0]]
            print(f"# pair {i + 1} seed {seed} ({first} first): wall_s {walls}", flush=True)
    print(report(metrics, *results, labels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
