import csv
import json

import numpy as np
import pytest

from haarmoments import ensembles
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
    assert meta["seed"] == 42
    assert "wall_time_s" in meta


def test_figure_deterministic_output(tmp_path):
    args = ["figure", "coeff-variance", "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    # The pure and mixed columns share one form-factor evaluation, and a time
    # point builds only G(t) and G(2t): G(-tau) is the conjugate of G(tau).
    calls = []
    build = ensembles._gue_block

    def counted(tau, d):
        calls.append((tau, d))
        return build(tau, d)

    monkeypatch.setattr(ensembles, "_gue_block", counted)
    ensembles._form_factors.cache_clear()
    out = tmp_path / "pc.csv"
    assert main(["figure", "purity-compare", "--nt", "3", "--out", str(out)]) == 0
    assert 0 < len(calls) <= 2 * 3
    assert {d for _, d in calls} == {16}


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


def test_bad_flag_type_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "equilibration", "--seed", "notanint"])
    assert exc.value.code == 2


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
