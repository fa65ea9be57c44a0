"""The A/B pair tool's report, read from tools/ab_pairs.py."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"


def _ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_gives_quartiles_and_wins_in_each_direction():
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "work_per_s", "better": "higher"}]
    base = [{"wall_s": w, "work_per_s": r} for w, r in ((4.0, 10.0), (1.0, 40.0), (3.0, 20.0), (2.0, 30.0))]
    # the change is faster in pairs 1, 2 and 4 and has more work per second in pairs 1 and 3;
    # a tie counts for neither side
    change = [{"wall_s": w, "work_per_s": r} for w, r in ((3.0, 11.0), (0.5, 40.0), (3.5, 25.0), (1.0, 29.0))]
    lines = _ab_pairs().report(metrics, base, change, ("base", "change")).splitlines()
    assert [line.split() for line in lines] == [
        "metric base median [q1, q3] change median [q1, q3] change better".split(),
        "wall_s 2.5 [1.75, 3.25] 2 [0.875, 3.125] 3/4".split(),
        "work_per_s 25 [17.5, 32.5] 27 [21.5, 31.75] 2/4".split(),
    ]
    # columns are aligned: each cell starts where its header does
    for header in ("base median", "change median", "change better"):
        start = lines[0].index(header)
        assert all(line[start - 2 : start] == "  " and line[start] != " " for line in lines), header


def test_header_names_numpy_and_its_blas():
    versions = _ab_pairs().library_versions()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert versions == f"numpy {np.__version__}, {blas['name']} {blas['version']}"
