import argparse
import csv
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haarmoments import cli, ensembles
from haarmoments.cli import dump_matrix_json, load_matrix_json, main
from haarmoments.ensembles import sinc
from haarmoments.weingarten import fourth_moment_closed


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _matrix_payload(m):
    return json.loads(dump_matrix_json(np.asarray(m, dtype=complex)))


def test_figure_equilibration(tmp_path):
    out = tmp_path / "eq.csv"
    rc = main(["figure", "equilibration", "--t1", "10", "--nt", "101", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "poi", "gue"]
    assert len(rows) == 101
    t, poi, gue = (float(v) for v in rows[40])
    assert poi == pytest.approx(0.5 * sinc(2 * t) ** 4, rel=1e-12)
    meta = json.loads((tmp_path / "eq.csv.meta.json").read_text())
    assert meta["figure"] == "equilibration"
    assert meta["seed"] is None  # the figure draws no samples
    assert "wall_time_s" in meta


def test_figure_deterministic_output(tmp_path):
    args = ["figure", "gibbs-d", "--samples", "200", "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads((tmp_path / "a.csv.meta.json").read_text())["seed"] == 7


def test_figure_coeff_variance_decay(tmp_path):
    out = tmp_path / "cv.csv"
    assert main(["figure", "coeff-variance", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["de", "c1", "c2", "c3", "c4", "c5"]
    last = [float(v) for v in rows[-1]]
    assert last[0] == 1024
    assert all(c < 1e-6 for c in last[1:])
    # the figure has no time grid, so the sidecar records none
    meta = json.loads((tmp_path / "cv.csv.meta.json").read_text())
    assert meta["config"]["t0"] is None and meta["config"]["nt"] is None


def test_figure_gibbs_beta_quick(tmp_path):
    out = tmp_path / "gb.csv"
    rc = main(
        [
            "figure", "gibbs-beta", "--t0", "0", "--t1", "4", "--nt", "3",
            "--samples", "400", "--out", str(out),
        ]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["beta", "poi", "poi_se", "gue", "gue_se"]
    first = [float(v) for v in rows[0]]
    assert first[1] == pytest.approx(0.25, abs=1e-12)  # beta=0 is exact
    assert first[2] == 0.0


def test_figure_purity_poi_with_mc(tmp_path):
    out = tmp_path / "pp.csv"
    rc = main(
        [
            "figure", "purity-poi", "--t1", "2", "--nt", "3",
            "--samples", "500", "--with-mc", "--out", str(out),
        ]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert "pure_2x2" in header and "pure_2x2_mc" in header and "pure_2x2_se" in header
    i = header.index("pure_2x2")
    t0 = [float(v) for v in rows[0]]
    assert t0[i] == pytest.approx(1.0, abs=1e-10)
    assert t0[header.index("pure_2x2_mc")] == pytest.approx(1.0, abs=1e-10)


def test_figure_with_mc_rejected_for_analytic_figures():
    for name in ("equilibration", "gibbs-beta", "gibbs-d"):
        assert main(["figure", name, "--with-mc", "--out", "/tmp/x.csv"]) == 2, name


def test_figure_purity_compare_with_mc_rejected(tmp_path, capsys):
    # its d = 64 and 256 columns are beyond any sampled overlay
    out = tmp_path / "pc.csv"
    assert main(["figure", "purity-compare", "--with-mc", "--nt", "2", "--out", str(out)]) == 2
    assert "not available" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_FLAG_ARGV = {
    "ds": ["--ds", "3"], "t0": ["--t0", "1"], "t1": ["--t1", "9"],
    "nt": ["--nt", "5"], "beta": ["--beta", "3"], "samples": ["--samples", "7"],
    "with_mc": ["--with-mc"],
}
_UNDECLARED = [
    (name, flag)
    for name, (_, declared) in cli._FIGURES.items()
    for flag in cli._FIGURE_FLAGS
    if flag not in declared
] + [(name, "de") for name in cli._FIGURES]  # no figure reads --de, so the parser has none
# purity-poi reads its sample count and seed only for the --with-mc overlay
_UNDECLARED += [("purity-poi", flag) for flag in cli._MC_FLAGS]


@pytest.mark.parametrize("name,flag", _UNDECLARED)
def test_figure_refuses_undeclared_flag(tmp_path, capsys, name, flag):
    out = tmp_path / "f.csv"
    argv = ["figure", name, *_FLAG_ARGV.get(flag, [f"--{flag}", "3"]), "--out", str(out)]
    if flag in cli._FIGURE_FLAGS:
        assert main(argv) == 2
        assert f"is not available for figure {name!r}" in capsys.readouterr().err
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_every_figure_flag_is_declared_by_a_figure():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    shared = {"help", "name", "out", "format"}
    flags = {a.dest for a in sub.choices["figure"]._actions} - shared
    declared = set().union(*(flags for _, flags in cli._FIGURES.values()))
    assert flags - declared == set()
    assert flags == set(cli._FIGURE_FLAGS)


@pytest.mark.parametrize(
    "argv",
    [
        ["gibbs-d", "--beta", "nan", "--samples", "20"],
        ["gibbs-d", "--beta", "1e400", "--samples", "20"],
        ["purity-poi", "--t1", "nan", "--nt", "3"],
        ["gibbs-beta", "--t1", "inf", "--nt", "3", "--samples", "20"],
    ],
)
def test_figure_refuses_non_finite_beta_and_grid_ends(tmp_path, capsys, argv):
    out = tmp_path / "f.csv"
    assert main(["figure", *argv, "--out", str(out)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class _RecordingArgs(argparse.Namespace):
    """Namespace that records which figure flags a builder reads."""

    def __init__(self, reads, **kwargs):
        super().__init__(**kwargs)
        self._reads = reads

    def __getattribute__(self, name):
        if name in cli._FIGURE_FLAGS:
            super().__getattribute__("_reads").add(name)
        return super().__getattribute__(name)


# small enough to run every builder in a moment; with_mc on so that purity-poi
# reaches its samples flag
_TINY = {
    "ds": 2, "t0": 0.0, "t1": 0.5, "nt": 2, "beta": 1.0, "samples": 16,
    "with_mc": True, "seed": 3,
}


@pytest.mark.parametrize("name", cli.FIGURES)
def test_figure_reads_exactly_its_declared_flags(name):
    builder, declared = cli._FIGURES[name]
    reads = set()
    values = {flag: _TINY[flag] if flag in declared else None for flag in cli._FIGURE_FLAGS}
    args = _RecordingArgs(reads, name=name, **values)
    header, rows = builder(args)
    assert rows and len(rows[0]) == len(header)
    assert reads == set(declared)


@pytest.mark.parametrize(
    "name,argv,given",
    [
        ("coeff-variance", [], {}),
        ("equilibration", ["--nt", "11"], {"nt": 11}),
        ("gibbs-beta", ["--nt", "2", "--samples", "20"], {"nt": 2, "samples": 20}),
        # a plain run draws no samples, so it records no sample count or seed
        ("purity-poi", ["--nt", "2"], {"nt": 2, "samples": None, "seed": None}),
        (
            "purity-poi",
            ["--nt", "2", "--with-mc", "--samples", "20"],
            {"nt": 2, "with_mc": True, "samples": 20},
        ),
    ],
)
def test_figure_sidecar_config_records_declared_flags_only(tmp_path, name, argv, given):
    out = tmp_path / "f.csv"
    assert main(["figure", name, *argv, "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
    _, declared = cli._FIGURES[name]
    expect = {**dict.fromkeys(cli._FIGURE_FLAGS), **declared, **given, "format": "csv"}
    # the seed stands at the top level of the sidecar, every other flag in config
    assert meta["seed"] == expect.pop("seed")
    assert meta["config"] == expect


def test_figure_gibbs_beta_single_point_grid_rejected(tmp_path, capsys):
    out = tmp_path / "gb.csv"
    assert main(["figure", "gibbs-beta", "--nt", "1", "--out", str(out)]) == 1
    assert "--nt must be >= 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_figure_gibbs_beta_refuses_one_sample(tmp_path, capsys):
    out = tmp_path / "gb.csv"
    assert main(["figure", "gibbs-beta", "--samples", "1", "--out", str(out)]) == 1
    assert "sample count must be >= 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_python_dash_m_runs_the_cli(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["haarmoments", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("haarmoments", run_name="__main__")
    assert exc.value.code == 0


def test_figure_purity_init_dep_runs(tmp_path):
    out = tmp_path / "pid.csv"
    rc = main(["figure", "purity-init-dep", "--nt", "5", "--t1", "4", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header[0] == "t"
    assert len(header) == 11  # t + five Poisson + five GUE curves
    start = [float(v) for v in rows[0]][1:6]
    assert start == pytest.approx(list(np.linspace(1 / 32, 1.0, 5)), abs=1e-10)


def test_figure_c1_of_t_structure(tmp_path):
    out = tmp_path / "c1.csv"
    rc = main(["figure", "c1-of-t", "--t1", "2", "--nt", "5", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == [
        "t", "poi_de4", "gue_de4", "poi_de16", "gue_de16", "poi_de64", "gue_de64",
    ]
    first = [float(v) for v in rows[0]]
    assert first == [0.0] * 7  # ct1 vanishes at t = 0 for every ensemble


def test_figure_purity_vs_de(tmp_path):
    out = tmp_path / "pv.csv"
    assert main(["figure", "purity-vs-de", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header[:3] == ["de", "mean_ds2", "std_ds2"]
    last = [float(v) for v in rows[-1]]
    assert last[1] == pytest.approx(0.5, abs=1e-2)  # 1/d_S asymptote


def test_figure_purity_compare(tmp_path):
    out = tmp_path / "pc.csv"
    rc = main(["figure", "purity-compare", "--t1", "3", "--nt", "4", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert "poi_de4_pure" in header and "gue_de64_mixed" in header
    row0 = dict(zip(header, (float(v) for v in rows[0])))
    assert row0["poi_de4_pure"] == pytest.approx(1.0, abs=1e-10)
    assert row0["poi_de4_mixed"] == pytest.approx(0.25, abs=1e-10)


def test_figure_purity_compare_builds_two_blocks_per_time(tmp_path, monkeypatch):
    # The pure and mixed columns share one form-factor evaluation, which
    # builds G(t) and G(2t) for every time of the grid in one call: never
    # G(-tau), the conjugate of G(tau), and never a block per time point.
    calls = []
    build = ensembles._gue_blocks

    def counted(taus, d):
        calls.append((np.array(taus), d))
        return build(taus, d)

    monkeypatch.setattr(ensembles, "_gue_blocks", counted)
    ensembles._form_factors.cache_clear()
    out = tmp_path / "pc.csv"
    assert main(["figure", "purity-compare", "--nt", "3", "--out", str(out)]) == 0
    assert len(calls) == 1
    ((taus, d),) = calls
    assert d == 16
    times = np.linspace(0.0, 15.0, 3)
    assert np.array_equal(taus, np.multiply.outer([1, 2], times))


def test_figure_gibbs_d(tmp_path):
    out = tmp_path / "gd.csv"
    rc = main(["figure", "gibbs-d", "--samples", "300", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["d", "poi", "poi_se"]
    assert [float(r[0]) for r in rows][:3] == [2.0, 3.0, 4.0]
    # thermal purity decreases with dimension at fixed beta
    assert float(rows[-1][1]) < float(rows[0][1])


def test_figure_gibbs_beta_deterministic(tmp_path):
    args = [
        "figure", "gibbs-beta", "--t0", "0", "--t1", "2", "--nt", "3",
        "--samples", "500", "--seed", "11",
    ]
    out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_figure_json_format(tmp_path):
    out = tmp_path / "eq.json"
    rc = main(
        ["figure", "equilibration", "--t1", "5", "--nt", "11", "--format", "json",
         "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["header"] == ["t", "poi", "gue"]
    assert len(payload["rows"]) == 11


def test_moment_identity(tmp_path):
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps([_matrix_payload(np.eye(3))]))
    out = tmp_path / "result.json"
    rc = main(["moment", "--pattern", str(pattern), "--d", "3", "--out", str(out)])
    assert rc == 0
    result = load_matrix_json(json.loads(out.read_text()))
    assert np.allclose(result, np.eye(3), atol=1e-14)


def test_moment_matches_fourth_closed(tmp_path, gen):
    xs = [gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)) for _ in range(3)]
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps([_matrix_payload(x) for x in xs]))
    out = tmp_path / "result.json"
    rc = main(["moment", "--pattern", str(pattern), "--d", "3", "--out", str(out)])
    assert rc == 0
    result = load_matrix_json(json.loads(out.read_text()))
    assert np.allclose(result, fourth_moment_closed(*xs, 3), atol=1e-10)


def test_moment_singular_weingarten(tmp_path, capsys):
    # d = 2 < m = 3: the Gram matrix is singular, its pseudo-inverse is used
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps([_matrix_payload(np.eye(2))] * 5))
    rc = main(["moment", "--pattern", str(pattern), "--d", "2"])
    assert rc == 0
    result = load_matrix_json(json.loads(capsys.readouterr().out))
    assert np.allclose(result, np.eye(2), atol=1e-14)


def test_moment_pattern_length_cap(tmp_path, capsys):
    # E^(10) (9 matrices) is the highest supported order
    pattern = tmp_path / "pattern.json"
    out = tmp_path / "result.json"
    pattern.write_text(json.dumps([_matrix_payload(np.eye(5))] * 9))
    assert main(["moment", "--pattern", str(pattern), "--d", "5", "--out", str(out)]) == 0
    assert np.allclose(load_matrix_json(json.loads(out.read_text())), np.eye(5), atol=1e-12)
    pattern.write_text(json.dumps([_matrix_payload(np.eye(6))] * 11))
    assert main(["moment", "--pattern", str(pattern), "--d", "6"]) == 2
    assert "from 1 to 9, got 11" in capsys.readouterr().err


def test_moment_malformed_file(tmp_path):
    pattern = tmp_path / "bad.json"
    pattern.write_text('{"not": "a list"}')
    assert main(["moment", "--pattern", str(pattern), "--d", "2"]) == 2
    pattern.write_text(json.dumps([{"dim": 2, "entries": [[1, 0]]}]))
    assert main(["moment", "--pattern", str(pattern), "--d", "2"]) == 2


@pytest.mark.parametrize("dim", ["2.7", "true", '"2"'])
def test_moment_refuses_dim_that_is_not_a_json_integer(tmp_path, capsys, dim):
    # each would otherwise be read as a dimension: 2.7 as 2, true as 1, "2" as 2
    pattern = tmp_path / "pattern.json"
    entries = json.dumps([[1, 0]] * (1 if dim == "true" else 4))
    pattern.write_text('[{"dim": %s, "entries": %s}]' % (dim, entries))
    d = "1" if dim == "true" else "2"
    assert main(["moment", "--pattern", str(pattern), "--d", d]) == 2
    captured = capsys.readouterr()
    assert "integer n" in captured.err and captured.out == ""


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_moment_refuses_non_finite_entries(tmp_path, capsys, entry):
    # json reads NaN and Infinity as floats; either part of an entry counts
    pattern = tmp_path / "pattern.json"
    out = tmp_path / "result.json"
    for re_im in (f"[{entry}, 0]", f"[0, {entry}]"):
        pattern.write_text('[{"dim": 1, "entries": [%s]}]' % re_im)
        assert main(["moment", "--pattern", str(pattern), "--d", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "finite entries" in captured.err and captured.out == ""
        assert not out.exists()


def test_moment_refuses_entries_that_are_not_json_numbers(tmp_path, capsys):
    # true and false would otherwise be read as 1 and 0: this file is the identity
    pattern = tmp_path / "pattern.json"
    for entries in (
        "[[true, false], [false, false], [false, false], [true, false]]",
        '[[1, 0], [0, "0"], [0, 0], [1, 0]]',
    ):
        pattern.write_text('[{"dim": 2, "entries": %s}]' % entries)
        assert main(["moment", "--pattern", str(pattern), "--d", "2"]) == 2, entries
        captured = capsys.readouterr()
        assert "JSON numbers" in captured.err and captured.out == ""


def test_moment_refuses_unreadable_pattern_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["moment", "--pattern", str(missing), "--d", "2"]) == 2
    assert "cannot read pattern file" in capsys.readouterr().err
    invalid = tmp_path / "invalid.json"
    invalid.write_text("[{")
    assert main(["moment", "--pattern", str(invalid), "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert "cannot read pattern file" in captured.err and captured.out == ""


def test_bad_flag_type_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "equilibration", "--seed", "notanint"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["figure", "gibbs-d", "--samples", "10", "--seed", "-1"], ["validate", "--quick", "--seed", "-1"]],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seed: must be an integer >= 0, got '-1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_thread_count_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HAARMOMENTS_THREADS", "two")
    argv = ["figure", "purity-poi", "--nt", "3", "--with-mc", "--samples", "20"]
    assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 1
    assert "HAARMOMENTS_THREADS must be an integer >= 1, got 'two'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "no-such-figure"])
    assert exc.value.code == 2


def test_validate_quick_exit_code_matches_report(tmp_path):
    from haarmoments.validate import run_validation

    report = run_validation(seed=42, quick=True)
    out = tmp_path / "report.json"
    rc = main(["validate", "--quick", "--seed", "42", "--out", str(out)])
    assert rc == (0 if report["all_passed"] else 1)
    saved = json.loads(out.read_text())
    assert saved["quick"] is True
    assert [c["name"] for c in saved["criteria"]] == [
        c["name"] for c in report["criteria"]
    ]


def test_one_process_runs_like_separate_processes(tmp_path, monkeypatch, capsys):
    # main() reuses one parser and the form-factor caches across calls, so a
    # sequence of calls in one process matches one process per call
    runs = [
        ["figure", "purity-compare", "--nt", "3", "--out", "a.csv"],
        ["validate", "--quick"],
        ["figure", "purity-compare", "--nt", "3", "--out", "b.csv"],
        ["figure", "c1-of-t", "--nt", "3", "--t1", "2", "--out", "c.csv"],
    ]
    one, separate = tmp_path / "one", tmp_path / "separate"
    one.mkdir()
    separate.mkdir()
    monkeypatch.chdir(one)
    in_process = []
    for argv in runs:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv, (code, out) in zip(runs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "haarmoments", *argv],
            cwd=separate, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, out), argv
    assert in_process[1][0] == 1  # criterion 08, red by design
    for name in ("a.csv", "b.csv", "c.csv"):
        assert (one / name).read_bytes() == (separate / name).read_bytes(), name
        metas = [json.loads((d / f"{name}.meta.json").read_text()) for d in (one, separate)]
        for meta in metas:
            meta.pop("wall_time_s")
        assert metas[0] == metas[1], name
    assert (one / "a.csv").read_bytes() == (one / "b.csv").read_bytes()


def test_spectral_figures_leave_numpy_ma_unimported(tmp_path):
    # np.unique, say, imports numpy.ma on its first call (about 11 ms), which
    # would land in every fresh-process spectral figure; none may load it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from haarmoments.cli import main\n"
        "for name in ('c1-of-t', 'purity-compare', 'equilibration'):\n"
        "    assert main(['figure', name, '--out', name + '.csv']) == 0, name\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, src],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
