"""Golden outputs: every value of the nine default figure CSVs, and each
``validate --quick`` criterion's name, pass flag and detail.

``test_golden.py`` rebuilds these outputs in-process and compares them with
the committed manifest ``golden_outputs.json``.  After a change that moves a
reported number on purpose, regenerate the manifest from the repository root
with

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


def differences(expected: dict, got: dict) -> list[str]:
    """Where got departs from expected: strings exactly, numbers to RTOL relative."""
    out = []
    if list(got["figures"]) != list(expected["figures"]):
        out.append(f"figures {list(got['figures'])} != {list(expected['figures'])}")
    for name, want in expected["figures"].items():
        have = got["figures"].get(name)
        if have is None:
            continue
        if have["header"] != want["header"] or len(have["rows"]) != len(want["rows"]):
            out.append(f"{name}: header or row count differs")
            continue
        for i, (hr, wr) in enumerate(zip(have["rows"], want["rows"])):
            for col, h, w in zip(want["header"], hr, wr):
                if not _close(h, w):
                    out.append(f"{name} row {i} {col}: {h!r} != {w!r}")
    have_c, want_c = got["validate_quick"], expected["validate_quick"]
    if [c["name"] for c in have_c] != [c["name"] for c in want_c]:
        out.append("validate criteria names differ")
        return out
    for h, w in zip(have_c, want_c):
        (h_text, h_nums), (w_text, w_nums) = _split(h["detail"]), _split(w["detail"])
        if h["passed"] != w["passed"] or h_text != w_text:
            out.append(f"{w['name']}: {h['passed']} {h['detail']!r} != {w['passed']} {w['detail']!r}")
        elif not all(_close(a, b) for a, b in zip(h_nums, w_nums)):
            out.append(f"{w['name']}: {h['detail']!r} != {w['detail']!r}")
    return out


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


def main() -> int:
    MANIFEST.write_text(dumps(build_outputs()))
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
