"""Command-line interface: exit codes, JSON and CSV contracts, seeding."""

import csv
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

from nks3 import cli
from nks3 import hypersurfaces as hs


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_structure_exit_zero(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "structure",
                                 "--seed", "42", "--samples", "50"])
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "structure"
    assert all(c["pass"] for c in doc["checks"])


def test_verify_unknown_suite_usage_error(capsys):
    code, _, err = _run(capsys, ["verify", "--suite", "bogus"])
    assert code == 2
    assert "suite" in err


def test_verify_all_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, [
        "verify", "--suite", "all", "--seed", "3", "--samples", "2",
        "--out", str(out_path),
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert isinstance(doc, list) and len(doc) == 3
    assert {d["suite"] for d in doc} == {"structure", "isometry", "hypersurface"}
    # stdout carries the same payload
    assert json.loads(out) == doc


def _assert_io_error(code, out, err, path):
    # exit 3, nothing on stdout, one stderr line that names the path
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(path) in err


def test_verify_out_path_io_error(tmp_path, capsys):
    bad = tmp_path / "no" / "such" / "dir" / "r.json"
    _assert_io_error(*_run(capsys, ["verify", "--suite", "structure",
                                    "--samples", "5", "--out", str(bad)]), bad)


def test_sweep_out_path_io_error(tmp_path, capsys):
    bad = tmp_path / "no" / "such" / "dir" / "sweep.csv"
    _assert_io_error(*_run(capsys, ["sweep", "--family", "m1", "--r", "0.5",
                                    "--samples", "2", "--out", str(bad)]), bad)


def test_analyze_reference_point(capsys):
    code, out, _ = _run(capsys, ["analyze", "--family", "m1", "--r", "1",
                                 "--at", "0,0,0,0,0"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["alpha"]) <= 1e-6
    assert doc["pxi_class"] == "PLUS"
    assert doc["dim_distribution"] == 2
    assert len(doc["eigenvalues"]) == 5
    assert doc["theta"] == pytest.approx(1.0, abs=1e-6)


def test_analyze_swap_family_class(capsys):
    code, out, _ = _run(capsys, ["analyze", "--family", "m2", "--r", "0.7"])
    assert code == 0
    assert json.loads(out)["pxi_class"] == "MINUS"


@pytest.mark.parametrize("family", ["m4", "m5", "m6"])
def test_analyze_theta_is_null_without_a_double_curvature(capsys, family):
    code, out, _ = _run(capsys, ["analyze", "--family", family, "--k", "0.6", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicities"] == [1, 1, 1, 1, 1]
    assert doc["theta"] is None


def test_analyze_pxi_class_is_null_where_undefined(capsys, monkeypatch):
    # with a negative DIM_TOL no point has a 2-dimensional distribution, so
    # the normal-action class is undefined
    monkeypatch.setattr(hs, "DIM_TOL", -1.0)
    code, out, _ = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6",
                                 "--at", "0,0,0,0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pxi_class"] is None
    assert doc["dim_distribution"] == 4
    assert doc["multiplicities"] == [2, 1, 2] and doc["theta"] is not None


def test_analyze_malformed_at(capsys):
    code, _, err = _run(capsys, ["analyze", "--family", "m1", "--r", "0.5",
                                 "--at", "0,0"])
    assert code == 2
    # an empty field is an error, not a dropped value
    code, out, err = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6",
                                   "--at", "0.1,,0.2,0.3,0.4,0.5"])
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: argument --at: not a comma-separated float list: '0.1,,0.2,0.3,0.4,0.5'"]


def test_analyze_out_of_domain_r(capsys):
    code, _, err = _run(capsys, ["analyze", "--family", "m1", "--r", "0.01"])
    assert code == 2
    assert "r must lie" in err


def test_analyze_negative_first_coordinate_both_spellings(capsys):
    argv = ["analyze", "--family", "m1", "--r", "0.6"]
    code, out, err = _run(capsys, argv + ["--at", "-0.1,0,0,0,0"])
    assert code == 0, err
    assert json.loads(out)["at"] == [-0.1, 0.0, 0.0, 0.0, 0.0]
    code2, out2, _ = _run(capsys, argv + ["--at=-0.1,0,0,0,0"])
    assert (code2, out2) == (code, out)


def test_negative_r_and_k_values_reach_the_domain_check(capsys):
    code, out, err = _run(capsys, ["analyze", "--family", "m1", "--r", "-0.6"])
    assert (code, out) == (2, "")
    assert "r must lie" in err
    code, out, err = _run(capsys, ["sweep", "--family", "m1", "--r", "-0.3,0.6"])
    assert (code, out) == (2, "")
    assert "r must lie" in err
    code, out, err = _run(capsys, ["sweep", "--family", "m4", "--k", "-0.5,0.6"])
    assert (code, out) == (2, "")
    assert "k must lie" in err


@pytest.mark.parametrize("argv,message", [
    (["analyze", "--family", "m1", "--r", "0.6", "--k", "0.3", "--at", "0,0,0,0,0"],
     "family m1 takes the single parameter r"),
    (["analyze", "--family", "m4", "--k", "0.6", "--r", "0.5"],
     "family m4 takes the parameter pair (k, l)"),
    (["sweep", "--family", "m1", "--r", "0.5", "--k", "0.3"],
     "family m1 takes the single parameter r"),
])
def test_parameter_the_family_does_not_take_usage_error(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


def test_analyze_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("NKS3_SEED", "5")
    code, out_env, _ = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6"])
    assert code == 0
    code, out_flag, _ = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6",
                                      "--seed", "5"])
    assert json.loads(out_env)["at"] == json.loads(out_flag)["at"]
    # flags beat the environment
    code, out_other, _ = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6",
                                       "--seed", "6"])
    assert json.loads(out_other)["at"] != json.loads(out_env)["at"]


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sweep_header_and_rows(capsys):
    code, out, err = _run(capsys, ["sweep", "--family", "m1",
                                   "--r", "0.2,0.6,1.0", "--samples", "3",
                                   "--seed", "1"])
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == ("family,r,k,l,ev1,ev2,ev3,ev4,ev5,"
                        "mult_pattern,traceA,pxi_class,theta")
    rows = _parse_csv(out)
    assert [row["r"] for row in rows] == ["0.2", "0.6", "1"]
    for row in rows:
        assert row["family"] == "m1"
        assert row["k"] == "" and row["l"] == ""
        assert row["mult_pattern"] == "2-1-2"
        assert row["pxi_class"] == "PLUS"
        evs = [float(row[f"ev{i}"]) for i in range(1, 6)]
        r = float(row["r"])
        # the sum of the double principal curvatures is sqrt(1 - r^2)/r
        lam_plus_bet = evs[0] + evs[4]
        assert lam_plus_bet == pytest.approx(math.sqrt(1 - r * r) / r, abs=1e-6)
        assert float(row["traceA"]) == pytest.approx(2 * lam_plus_bet, abs=1e-6)
    # minimal exactly at r = 1
    assert abs(float(rows[-1]["traceA"])) <= 1e-6
    assert float(rows[-1]["theta"]) == pytest.approx(1.0, abs=1e-6)


def test_sweep_torus_family(capsys):
    code, out, _ = _run(capsys, ["sweep", "--family", "m4", "--k", "0.6",
                                 "--samples", "2", "--seed", "2"])
    assert code == 0
    rows = _parse_csv(out)
    assert rows[0]["r"] == ""
    assert rows[0]["k"] == "0.6"
    assert float(rows[0]["l"]) == pytest.approx(0.8, abs=1e-12)
    assert rows[0]["mult_pattern"] == "1-1-1-1-1"
    assert rows[0]["theta"] == ""


def test_sweep_out_of_domain_grid(capsys):
    code, _, err = _run(capsys, ["sweep", "--family", "m1", "--r", "0.01,0.5"])
    assert code == 2


def test_sweep_writes_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = _run(capsys, ["sweep", "--family", "m1", "--r", "0.5",
                               "--samples", "2", "--out", str(path)])
    assert code == 0
    rows = _parse_csv(path.read_text())
    assert len(rows) == 1


def test_twelve_significant_digits():
    assert cli._fmt(2.0 / 3.0) == "0.666666666667"
    assert cli._fmt(1.0) == "1"


def test_verify_failing_check_exits_one(capsys, monkeypatch):
    from nks3 import verify

    def failing_suite(seed, samples):
        return verify.SuiteReport(
            suite="structure", seed=seed,
            checks=[verify.CheckResult("x", "y", samples, 1.0, 1e-10)],
            duration_ms=0.0,
        )

    monkeypatch.setattr(cli.verify, "run_structure_suite", failing_suite)
    code, out, _ = _run(capsys, ["verify", "--suite", "structure"])
    assert code == 1
    assert json.loads(out)["checks"][0]["pass"] is False


def test_sweep_nonconstant_spectrum_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_sweep_rows", lambda args, seed: ([], 1e-3))
    code, _, err = _run(capsys, ["sweep", "--family", "m1", "--r", "0.5"])
    assert code == 1
    assert "spread" in err


def test_verify_zero_samples_usage_error(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "structure", "--samples", "0"])
    assert code == 2
    assert out == ""
    assert "samples" in err


# a count whose arrays numpy cannot allocate, and one whose byte size it
# cannot even represent (it raises ValueError there, not MemoryError)
_UNALLOCATABLE_SAMPLES = ("100000000000000", "2000000000000000000")


def _assert_unallocatable_usage_error(capsys, argv):
    for samples in _UNALLOCATABLE_SAMPLES:
        code, out, err = _run(capsys, [*argv, "--samples", samples])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_unallocatable_samples_usage_error(capsys):
    # the structure suite draws all samples in one array, so the allocation
    # fails at once and nothing is allocated
    _assert_unallocatable_usage_error(capsys, ["verify", "--suite", "structure"])


def test_sweep_unallocatable_samples_usage_error(capsys):
    # the sweep draws all grid values' samples into one array allocated
    # before the first draw, so the allocation fails at once
    _assert_unallocatable_usage_error(capsys, ["sweep", "--family", "m1", "--r", "0.5"])
    _assert_unallocatable_usage_error(capsys, ["sweep", "--family", "m4", "--k", "0.5,0.6"])


def test_verify_isometry_unallocatable_samples_usage_error(capsys):
    # the isometry suite draws its samples into arrays allocated before the
    # first draw
    _assert_unallocatable_usage_error(capsys, ["verify", "--suite", "isometry"])


def test_verify_hypersurface_unallocatable_samples_usage_error(capsys):
    # each hypersurface suite draws its samples into arrays allocated
    # before the first draw
    _assert_unallocatable_usage_error(capsys, ["verify", "--suite", "hypersurface"])


_BENCHMARK_GRIDS = (["--family", "m3", "--r", "0.3,0.6,1"],
                    ["--family", "m4", "--k", "0.5,0.6,0.8"])


@pytest.mark.parametrize("grid", _BENCHMARK_GRIDS)
def test_sweep_batch_matches_point_by_point_analysis(capsys, monkeypatch, grid):
    def sweeps():
        runs = [_run(capsys, ["sweep", *grid, "--samples", "10", "--seed", str(seed)])
                for seed in range(4)]
        assert all(code == 0 for code, _, _ in runs)
        return [out for _, out, _ in runs]

    batched = sweeps()
    original = hs.analyze_points

    def point_by_point(M, U, *args, **kwargs):
        # each point analysed as its own batch of one, by the immersion of
        # its own row (float parameters), then stacked row by row
        rows = [original(M[i], u[None], *args, **kwargs) for i, u in enumerate(U)]
        assert all(isinstance(x, float) for row in rows for x in row.immersion.params)
        stacked = {f.name: np.concatenate([getattr(row, f.name) for row in rows])
                   for f in dataclasses.fields(rows[0])[2:]}
        return dataclasses.replace(rows[0], immersion=M, u=np.asarray(U, dtype=float),
                                   **stacked)

    monkeypatch.setattr(hs, "analyze_points", point_by_point)
    assert sweeps() == batched


def test_sweep_nan_principal_curvature_fails(capsys, monkeypatch):
    original = hs.spectral_report

    def nan_in_one_row(shape, frame):
        spectrum = original(shape, frame)
        spectrum[0][1, 2] = math.nan  # an eigenvalue of row 1
        return spectrum

    monkeypatch.setattr(hs, "spectral_report", nan_in_one_row)
    code, out, err = _run(capsys, ["sweep", "--family", "m3", "--r", "0.6,1",
                                   "--samples", "3", "--seed", "0"])
    assert code == 1
    assert "nan" in out
    assert "spread nan" in err


def test_sweep_one_analysis_and_spectral_report_per_sweep(capsys, monkeypatch):
    # all grid values' samples are analysed as one batch, with one spectrum
    calls = []
    analyze_points, spectral_report = hs.analyze_points, hs.spectral_report

    def counting_analysis(M, U, *args, **kwargs):
        calls.append(("analyze_points", len(U), M.rows))
        return analyze_points(M, U, *args, **kwargs)

    def counting_report(shape, frame):
        calls.append(("spectral_report", len(shape)))
        return spectral_report(shape, frame)

    monkeypatch.setattr(hs, "analyze_points", counting_analysis)
    monkeypatch.setattr(hs, "spectral_report", counting_report)
    for samples in (2, 9):
        calls.clear()
        code, _, _ = _run(capsys, ["sweep", "--family", "m3", "--r", "0.3,0.6,1",
                                   "--samples", str(samples), "--seed", "0"])
        assert code == 0
        assert calls == [("analyze_points", 3 * samples, 3 * samples),
                         ("spectral_report", 3 * samples)]


def test_sweep_chart_calls_do_not_grow_with_samples(capsys, monkeypatch):
    # nor with the grid: one chart call of one point per sample
    shapes = []
    pushforward = hs.Immersion.pushforward

    def recording_pushforward(self, u):
        shapes.append(np.shape(u))
        return pushforward(self, u)

    monkeypatch.setattr(hs.Immersion, "pushforward", recording_pushforward)
    for grid in ("0.6", "0.3,0.6,1"):
        for samples in (2, 9):
            shapes.clear()
            code, _, _ = _run(capsys, ["sweep", "--family", "m3", "--r", grid,
                                       "--samples", str(samples), "--seed", "0"])
            assert code == 0
            assert shapes == [(len(grid.split(",")) * samples, 5)]


@pytest.mark.parametrize("family,option,grid", [("m3", "--r", "0.3,0.6,1"),
                                                ("m4", "--k", "0.5,0.6,0.8")])
def test_sweep_takes_no_svd(capsys, monkeypatch, family, option, grid):
    # the analysis takes its normals from the family's level set
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    code, _, _ = _run(capsys, ["sweep", "--family", family, option, grid,
                               "--samples", "4", "--seed", "0"])
    assert code == 0
    assert calls == []


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_sweep_nonpositive_samples_usage_error(capsys, samples):
    code, out, err = _run(capsys, ["sweep", "--family", "m1", "--r", "0.5",
                                   "--samples", samples])
    assert code == 2
    assert out == ""
    assert "samples" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_analyze_non_finite_at_usage_error(capsys, value):
    code, out, err = _run(capsys, ["analyze", "--family", "m1", "--r", "0.5",
                                   "--at", f"{value},0,0,0,0"])
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_sweep_non_finite_grid_usage_error(capsys):
    code, _, err = _run(capsys, ["sweep", "--family", "m1", "--r", "0.5,nan"])
    assert code == 2
    assert "finite" in err
    # an empty field (here two) is an error, not a dropped grid value
    code, out, err = _run(capsys, ["sweep", "--family", "m1", "--r", "0.6,,0.8,"])
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: argument --r: not a comma-separated float list: '0.6,,0.8,'"]


def test_linear_algebra_failure_exits_two(capsys, monkeypatch):
    def failing_analysis(M, u):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(cli.hs, "analyze_point", failing_analysis)
    code, out, err = _run(capsys, ["analyze", "--family", "m1", "--r", "0.5",
                                   "--at", "0,0,0,0,0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "structure", "--seed", "-1"],
    ["analyze", "--family", "m1", "--r", "0.6", "--seed", "-3"],
    ["sweep", "--family", "m3", "--r", "0.5", "--samples", "1", "--seed", "-2"],
])
def test_negative_seed_usage_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: seed must be non-negative, got {argv[-1]}\n"


def test_negative_seed_env_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NKS3_SEED", "-4")
    code, out, err = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6"])
    assert code == 2
    assert out == ""
    assert err == "error: seed must be non-negative, got -4\n"


def test_overflowing_chart_point_one_line_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code, out, err = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6",
                                       "--at", "1e300,0,0,0,0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: chart point [1e+300, ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["1e308", "7", "-7"])
def test_analyze_chart_point_beyond_one_turn_usage_error(capsys, value):
    # a coordinate beyond one turn is outside input to reject, not to reduce:
    # at 1e308 adjacent floats lie far more than a turn apart
    code, out, err = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6",
                                   "--at", f"0,0,0,0,{value}"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: chart point [0.0, 0.0, 0.0, 0.0, {float(value)!r}]")
    assert err.count("\n") == 1


def test_analyze_chart_point_within_one_turn(capsys):
    code, out, _ = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6",
                                 "--at", "0,0,0,0,6.28"])
    assert code == 0
    assert json.loads(out)["multiplicities"] == [2, 1, 2]


def test_sweep_makes_no_eigenvalue_rank_test(capsys, monkeypatch):
    # a non-degenerate sweep passes the Cholesky rank test without eigvalsh
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for argv in (["--family", "m3", "--r", "0.3,0.6,1"], ["--family", "m4", "--k", "0.5,0.6,0.8"]):
        code, _, _ = _run(capsys, ["sweep", *argv, "--samples", "4", "--seed", "1"])
        assert code == 0
    assert calls == []


@pytest.mark.parametrize("argv,err", [
    (["analyze", "--family", "m3", "--r", "0.6", "--at", "0,0.785398,0,0,0"],
     "error: pushforward rank below 5 at u=[0.0, 0.785398, 0.0, 0.0, 0.0]\n"),
    (["sweep", "--family", "m4", "--k", "0.999999999999"],
     "error: pushforward rank below 5 at u=[0.16435402478574512, -0.27625594348335564, "
     "-0.5508317712765664, 0.990613385466532, 0.6700123395200417]\n"),
])
def test_degenerate_chart_point_message(capsys, argv, err):
    # the eigenvalue fallback of the Cholesky rank test names the first low
    # chart point, in the message the eigenvalue test gave
    code, out, got = _run(capsys, argv)
    assert (code, out, got) == (2, "", err)


def test_near_lock_point_keeps_the_pattern_or_exits_two(capsys):
    # 9e-4 from the u1 = pi/4 chart lock the pushforward Gram matrix has its
    # smallest eigenvalue 1.9e-6, just above RANK_TOL; the level-set shape
    # operator takes no difference along the chart, so it keeps the pattern
    code, out, _ = _run(capsys, ["analyze", "--family", "m1", "--r", "0.6",
                                 "--at", "0.2,0.7845,0.1,0.3,0.4"])
    assert code == 2 or (code == 0 and json.loads(out)["multiplicities"] == [2, 1, 2])
