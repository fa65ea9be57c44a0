"""Golden outputs: every value of the nine default figure CSVs, and each
``validate --quick`` criterion's name, pass flag and detail.

``test_golden.py`` rebuilds these outputs in-process and compares them with
the committed manifest ``golden_outputs.json``.  To list what a change moves,
old value against new, without touching the manifest, run from the
repository root

    PYTHONPATH=src python tests/golden_outputs.py --check

which exits 1 if anything differs.  It also prints the largest relative
difference among the values within tolerance, with its place, so a move at
rounding level can be stated without building the parent commit, and how
many compared numbers differ from the manifest in any bit.  The 1e-12
tolerance hides rounding-level moves; against a manifest that the parent
commit wrote on the same host, a count of 0 shows that a change moves no
bit.  After a change that moves a reported number on purpose, regenerate the
manifest with

    PYTHONPATH=src python tests/golden_outputs.py

and list each moved value, old and new, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from haarmoments import cli

MANIFEST = Path(__file__).with_name("golden_outputs.json")
SEED = 42
RTOL = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def build_outputs() -> dict:
    """The outputs the manifest pins, built through ``cli.main`` in this process."""
    figures = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in cli.FIGURES:
            path = Path(tmp) / f"{name}.csv"
            if _run(["figure", name, "--out", str(path)]) != 0:
                raise RuntimeError(f"figure {name} failed")
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            figures[name] = {"header": header, "rows": [[float(v) for v in r] for r in rows]}
        report_path = Path(tmp) / "validate.json"
        _run(["validate", "--quick", "--seed", str(SEED), "--out", str(report_path)])
        report = json.loads(report_path.read_text())
    criteria = [
        {"name": c["name"], "passed": c["passed"], "detail": c["detail"]}
        for c in report["criteria"]
    ]
    return {"figures": figures, "validate_quick": criteria}


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0) or (math.isnan(a) and math.isnan(b))


def _split(text: str) -> tuple[list[str], list[float]]:
    """A detail string as its text between numbers, and the numbers."""
    return _NUMBER.split(text), [float(x) for x in _NUMBER.findall(text)]


def _same_shape(have: dict, want: dict) -> bool:
    return have["header"] == want["header"] and len(have["rows"]) == len(want["rows"])


def _numbers(expected: dict, got: dict):
    """(place, new, old) for every number both outputs hold at the same place:
    the figure rows, and the numbers of each criterion detail whose text matches."""
    for name, want in expected["figures"].items():
        have = got["figures"].get(name)
        if have is None or not _same_shape(have, want):
            continue
        for i, (hr, wr) in enumerate(zip(have["rows"], want["rows"])):
            for col, h, w in zip(want["header"], hr, wr):
                yield f"{name} row {i} {col}", h, w
    have_c, want_c = got["validate_quick"], expected["validate_quick"]
    if [c["name"] for c in have_c] == [c["name"] for c in want_c]:
        for h, w in zip(have_c, want_c):
            (h_text, h_nums), (w_text, w_nums) = _split(h["detail"]), _split(w["detail"])
            if h["passed"] == w["passed"] and h_text == w_text:
                for k, (a, b) in enumerate(zip(h_nums, w_nums)):
                    yield f"{w['name']} number {k}", a, b


def differences(expected: dict, got: dict) -> list[str]:
    """Where got departs from expected: strings exactly, numbers to RTOL relative."""
    out = []
    if list(got["figures"]) != list(expected["figures"]):
        out.append(f"figures {list(got['figures'])} != {list(expected['figures'])}")
    for name, want in expected["figures"].items():
        have = got["figures"].get(name)
        if have is not None and not _same_shape(have, want):
            out.append(f"{name}: header or row count differs")
    have_c, want_c = got["validate_quick"], expected["validate_quick"]
    if [c["name"] for c in have_c] != [c["name"] for c in want_c]:
        out.append("validate criteria names differ")
    else:
        for h, w in zip(have_c, want_c):
            if h["passed"] != w["passed"] or _split(h["detail"])[0] != _split(w["detail"])[0]:
                out.append(f"{w['name']}: {h['passed']} {h['detail']!r} != {w['passed']} {w['detail']!r}")
    numbers = _numbers(expected, got)
    return out + [f"{place}: {h!r} != {w!r}" for place, h, w in numbers if not _close(h, w)]


def largest_move(expected: dict, got: dict) -> tuple[float, str | None]:
    """The largest relative difference among the numbers within RTOL, and its place."""
    moves = [
        (abs(h - w) / max(abs(h), abs(w)), place)
        for place, h, w in _numbers(expected, got)
        if h != w and _close(h, w) and not math.isnan(h)
    ]
    return max(moves, default=(0.0, None))


def bit_moves(expected: dict, got: dict) -> tuple[int, int]:
    """How many compared numbers differ in any bit (a sign of zero too), and
    how many were compared."""
    pairs = [(float(h).hex(), float(w).hex()) for _, h, w in _numbers(expected, got)]
    return sum(h != w for h, w in pairs), len(pairs)


def dumps(outputs: dict) -> str:
    """The manifest text: one figure row or one criterion per line."""
    figures = ",\n".join(
        f"  {json.dumps(name)}: {{\"header\": {json.dumps(f['header'])}, \"rows\": [\n"
        + ",\n".join(f"   {json.dumps(row)}" for row in f["rows"])
        + "\n  ]}"
        for name, f in outputs["figures"].items()
    )
    criteria = ",\n".join(f"  {json.dumps(c)}" for c in outputs["validate_quick"])
    return f'{{\n "figures": {{\n{figures}\n }},\n "validate_quick": [\n{criteria}\n ]\n}}\n'


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        expected, got = json.loads(MANIFEST.read_text()), build_outputs()
        found = differences(expected, got)
        print("\n".join(found) if found else f"no differences from {MANIFEST}")
        move, place = largest_move(expected, got)
        at = f", at {place}" if place else ""
        print(f"largest move within {RTOL:g}: {move:.3g} relative{at}")
        print("numbers that differ in any bit: {} of {}".format(*bit_moves(expected, got)))
        return 1 if found else 0
    if argv:
        print("usage: golden_outputs.py [--check]", file=sys.stderr)
        return 2
    MANIFEST.write_text(dumps(build_outputs()))
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
