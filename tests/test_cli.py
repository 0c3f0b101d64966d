import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dehnfill import cli, linearized
from dehnfill.cli import main
from dehnfill.curvature import ricci_and_deficit
from dehnfill.linearized import operator_coefficients
from dehnfill.numutil import loggrid
from dehnfill.profiles import (CuspProfile, GluedProfile, black_hole_metric,
                               cusp_metric, glued_metric)
from dehnfill.solver import NewtonConfig, newton_solve


def _read(out_dir):
    report = (out_dir / "report.csv").read_text().strip().splitlines()
    summary = json.loads((out_dir / "summary.json").read_text())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return report, summary, manifest


def test_curvature_blackhole(tmp_path):
    rc = main(["curvature", "--n", "4", "--profile", "blackhole", "--m", "1",
               "--grid", "1.3:10:64", "--out-dir", str(tmp_path)])
    assert rc == 0
    report, summary, manifest = _read(tmp_path)
    assert report[0] == "r,K12,K1perp,Kperp,ric11,ricperp,scalar,deficit_sup"
    assert len(report) == 65
    deficits = [float(line.split(",")[-1]) for line in report[1:]]
    assert max(deficits) < 1e-10
    assert summary["max_deficit"] < 1e-10
    assert summary["rows"] == 64
    for key in ("command", "config", "version", "timestamp", "input_hashes"):
        assert key in manifest
    assert manifest["command"] == "curvature"


def test_curvature_cusp_constant(tmp_path):
    rc = main(["curvature", "--n", "4", "--profile", "cusp",
               "--grid", "0.5:20:32", "--out-dir", str(tmp_path)])
    assert rc == 0
    report, summary, _ = _read(tmp_path)
    for line in report[1:]:
        vals = [float(tok) for tok in line.split(",")]
        assert vals[1] == pytest.approx(-1.0, abs=1e-12)
        assert vals[2] == pytest.approx(-1.0, abs=1e-12)
        assert vals[3] == pytest.approx(-1.0, abs=1e-12)
    assert summary["scalar_min"] == pytest.approx(-12.0, abs=1e-10)


def test_curvature_rejects_n2(tmp_path, capsys):
    rc = main(["curvature", "--n", "2", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n > 2" in err


def test_scan_slope(tmp_path):
    rc = main(["scan", "--n", "4", "--sizes", "40,80,160,320,640",
               "--grid-size", "512", "--out-dir", str(tmp_path)])
    assert rc == 0
    report, summary, _ = _read(tmp_path)
    assert report[0] == "size,norm"
    assert len(report) == 6
    assert summary["expected_slope"] == -3.0
    assert abs(summary["slope"] + 3.0) < 0.1


def test_scan_needs_five_sizes(tmp_path):
    rc = main(["scan", "--sizes", "40", "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_scan_non_finite_size_exit_2(tmp_path, capsys, recwarn, bad):
    rc = main(["scan", "--sizes", f"10,{bad},40,80,160,320",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"sizes must be finite and positive, got {bad}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "summary.json").exists()
    assert len(recwarn) == 0


def test_indicial_values(tmp_path):
    rc = main(["indicial", "--n", "4", "--block", "1j",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, summary, _ = _read(tmp_path)
    assert summary["roots"]["1j"] == [1.0, -4.0]
    rc = main(["indicial", "--n", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, summary, _ = _read(tmp_path)
    assert set(summary["roots"]) == {"11", "12", "1j", "2j", "jk", "diag"}
    assert summary["roots"]["11"][0] == pytest.approx(1.3722813232690143,
                                                      abs=1e-12)


def test_indicial_bad_block(tmp_path):
    rc = main(["indicial", "--n", "4", "--block", "zz",
               "--out-dir", str(tmp_path)])
    assert rc == 2


def test_compare_slope(tmp_path):
    rc = main(["compare", "--n", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, summary, _ = _read(tmp_path)
    assert summary["expected_slope"] == -3.0
    assert abs(summary["slope"] + 3.0) < 0.1


def test_compare_builds_no_deformation(tmp_path, monkeypatch):
    # compare takes its derivatives of the bumps' one column: no
    # InvariantDeformation, and so no (npts, K) array, is built
    built = []
    real = linearized.InvariantDeformation.__post_init__

    def counting(h):
        built.append(h.n)
        real(h)

    monkeypatch.setattr(linearized.InvariantDeformation, "__post_init__",
                        counting)
    rc = main(["compare", "--n", "6", "--grid-size", "1024",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert built == []
    linearized.metric_deformation(6, loggrid(5.0, 50.0, 16))
    assert built == [6]


@pytest.mark.parametrize("n, slope", [("4", -2.9218468330787424),
                                      ("5", -3.929004793853923),
                                      ("6", -4.927360866640134)],
                         ids=["4", "5", "6"])
def test_compare_default_slopes(tmp_path, n, slope):
    rc = main(["compare", "--n", n, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert _read(tmp_path)[1]["slope"] == pytest.approx(slope, rel=1e-12)


def test_compare_without_finite_fit_exit_2(tmp_path, capsys):
    # at n = 20 a mass of 1e-307 leaves only 2 of the 12 bins with a
    # nonzero operator difference; the NaN fit used to be written into
    # summary.json with exit 0
    rc = main(["compare", "--n", "20", "--m", "1e-307",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no finite decay fit for n=20 on the window 5.0:500.0" in err
    assert "2 of 12 bins" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("n", ["19", "20", "21", "22", "23", "24"])
def test_compare_large_n_keeps_every_bin(tmp_path, recwarn, n):
    # the operator difference is O(r^(1-n)), far below the size of either
    # operator at these n; every bin still sees it (slopes -17.61 at n = 19
    # to -22.51 at n = 24)
    rc = main(["compare", "--n", n, "--out-dir", str(tmp_path)])
    assert rc == 0
    report, summary, _ = _read(tmp_path)
    assert len(report) == 13
    assert abs(summary["slope"] - (1 - int(n))) < 0.6
    assert len(recwarn) == 0


@pytest.mark.parametrize("width", ["nan", "0", "-0.4"])
def test_compare_bad_width_exit_2(tmp_path, capsys, width):
    rc = main(["compare", "--n", "4", "--width", width,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "bump width" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("num_centers", ["0", "1", "2"])
def test_compare_too_few_centers_exit_2(tmp_path, capsys, num_centers):
    # the slope fit needs 3 bins; fewer used to write NaN into summary.json
    rc = main(["compare", "--n", "4", "--num-centers", num_centers,
               "--grid-size", "256", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "num_centers must be >= 3" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_compare_more_centers_than_grid_points_exit_2(tmp_path, capsys):
    # a bump and an envelope bin per center: 10**6 centers used to gather
    # a (centers x points-per-bump) array before any check
    rc = main(["compare", "--n", "4", "--num-centers", "257",
               "--grid-size", "256", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "num_centers must be at most grid_size = 256" in (
        capsys.readouterr().err)
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("window", ["5:inf", "inf:inf", "nan:500"])
def test_compare_non_finite_window_exit_2(tmp_path, capsys, window):
    rc = main(["compare", "--n", "4", "--window", window,
               "--grid-size", "256", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "window bounds must be finite" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("window", ["5:6", "5:5.1"])
def test_compare_window_narrower_than_bumps_exit_2(tmp_path, capsys, recwarn,
                                                   window):
    # the bump centers run from lo*e^width to hi*e^-width, which would run
    # backwards here
    rc = main(["compare", "--n", "4", "--window", window,
               "--grid-size", "256", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "too narrow for bumps" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert len(recwarn) == 0


def test_compare_infinite_width_exit_2(tmp_path, capsys, recwarn):
    rc = main(["compare", "--n", "4", "--width", "inf",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "bump width must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert len(recwarn) == 0


@pytest.mark.parametrize("n", ["4", "6"])
def test_compare_extreme_window_exit_2(tmp_path, capsys, recwarn, n):
    # r**2 overflows at 1e300 and underflows at 1e-300
    rc = main(["compare", "--n", n, "--window", "1e-300:1e300",
               "--grid-size", "256", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "window 1e-300:1e+300 is out of range" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert len(recwarn) == 0


@pytest.mark.parametrize("n, window, grid_size", [
    ("4", "5:1e70", "256"),
    ("4", "50:1e150", "4096"),
    ("3", "1e-100:1e100", "4096"),
])
def test_compare_window_outside_profile_domain_exit_2(tmp_path, capsys, recwarn,
                                                      n, window, grid_size):
    # finite r**2 and r**(3-n), but wide enough node spacings to overflow
    # the stencil recursion: the domain check has to come first
    rc = main(["compare", "--n", n, "--window", window,
               "--grid-size", grid_size, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "radius outside profile domain" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert len(recwarn) == 0


def test_compare_default_window_exits_0(tmp_path, recwarn):
    rc = main(["compare", "--n", "4", "--grid-size", "256",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report, _, manifest = _read(tmp_path)
    assert manifest["config"]["window"] == "5:500"
    centers = [float(line.split(",")[0]) for line in report[1:]]
    assert centers == sorted(centers)
    assert len(recwarn) == 0


@pytest.mark.parametrize("grid", ["1.3:inf:64", "nan:10:64"])
def test_curvature_non_finite_grid_exit_2(tmp_path, capsys, recwarn, grid):
    rc = main(["curvature", "--n", "4", "--grid", grid,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "grid must satisfy" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert len(recwarn) == 0


def test_curvature_finite_grid_exits_0_without_warning(tmp_path, recwarn):
    rc = main(["curvature", "--n", "4", "--grid", "1.3:10:64",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(recwarn) == 0


def test_solve_from_glued(tmp_path):
    rc = main(["solve", "--n", "4", "--from-glued", "50",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report, summary, _ = _read(tmp_path)
    assert summary["converged"] is True
    assert abs(summary["fitted_m"] - 1.0) < 1e-6
    assert abs(summary["r_plus"] - 2.0 ** (1.0 / 3.0)) < 1e-6
    # profile CSV is the solved V(r)
    assert report[0] == "r,V"
    r0, V0 = (float(t) for t in report[1].split(","))
    assert V0 == pytest.approx(r0**2 - 2.0 / r0, abs=1e-6)


def test_solve_exact_blackhole_zero_iters(tmp_path):
    rc = main(["solve", "--n", "5", "--from-blackhole", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, summary, _ = _read(tmp_path)
    assert summary["iters"] == 0
    assert abs(summary["fitted_m"] - 2.0) < 1e-6


@pytest.mark.parametrize("flags", [("--r-out", "nan"), ("--r-out", "inf"),
                                   ("--r-out", "-5"), ("--tol", "inf")],
                         ids=["r-out-nan", "r-out-inf", "r-out-negative", "tol-inf"])
def test_solve_non_finite_config_exit_2(tmp_path, flags):
    rc = main(["solve", "--n", "4", "--from-glued", "15", *flags,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "summary.json").exists()


def test_solve_unreachable_tol_exit_3(tmp_path, capsys):
    rc = main(["solve", "--n", "4", "--from-glued", "15", "--tol", "1e-30",
               "--out-dir", str(tmp_path)])
    assert rc == 3
    report, summary, _ = _read(tmp_path)
    assert summary["converged"] is False
    assert "error" in summary
    assert capsys.readouterr().err != ""
    # the files hold the returned best iterate: the header and N rows
    result = newton_solve(GluedProfile(15.0, 4),
                          NewtonConfig(residual_tol=1e-30))
    assert summary == result.to_dict()
    assert len(report) == NewtonConfig.grid_size + 1


def test_solve_stalled_glued_start_exit_3(tmp_path):
    # the full Newton step from this start does not cut the residual, so
    # the solve stops short on its start rather than reporting m = 0.88
    rc = main(["solve", "--n", "3", "--from-glued", "2000", "--grid-size",
               "128", "--out-dir", str(tmp_path)])
    assert rc == 3
    _, summary, _ = _read(tmp_path)
    assert summary["converged"] is False
    assert summary["error"].startswith("no acceptable step at iteration 0 ")


def test_solve_stall_records_the_rejected_step(tmp_path):
    # the stop names the residual it kept and the full step's it rejected,
    # which is above 3/4 of it
    rc = main(["solve", "--n", "3", "--from-glued", "2000", "--grid-size",
               "128", "--out-dir", str(tmp_path)])
    assert rc == 3
    _, summary, _ = _read(tmp_path)
    assert summary["error"] == ("no acceptable step at iteration 0 "
                                "(residual 6.799e-05; full step 5.165e-05)")


def test_solve_needs_one_source(tmp_path):
    rc = main(["solve", "--n", "4", "--out-dir", str(tmp_path)])
    assert rc == 2
    rc = main(["solve", "--n", "4", "--from-glued", "50",
               "--from-blackhole", "1", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_lattice_single_cusp(tmp_path):
    cusp = json.dumps({"basis": np.eye(3).tolist(), "sigma": [10, 0, 0]})
    rc = main(["lattice", "--n", "4", "--cusp", cusp,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report, summary, _ = _read(tmp_path)
    assert summary["radii"][0] == pytest.approx(3.0078358, abs=1e-4)
    assert summary["two_pi_ok"] is True
    assert len(report) == 2


def test_lattice_imprimitive_exit_2(tmp_path):
    cusp = json.dumps({"basis": np.eye(3).tolist(), "sigma": [2, 4, 6]})
    rc = main(["lattice", "--n", "4", "--cusp", cusp,
               "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("sigma", [[10.7, 0, 0], [True, 0, 0], ["10", 0, 0]])
def test_lattice_non_integer_sigma_exit_2(tmp_path, capsys, sigma):
    # int() used to truncate these to a valid class and exit 0
    cusp = json.dumps({"basis": np.eye(3).tolist(), "sigma": sigma})
    rc = main(["lattice", "--n", "4", "--cusp", cusp,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "must be integers" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


_EYE = np.eye(3).tolist()


@pytest.mark.parametrize("cusp, message", [
    (5, "must be a JSON object"), ([1], "must be a JSON object"),
    (None, "must be a JSON object"), ({"basis": _EYE}, "has no 'sigma'"),
    ({"sigma": [1, 0, 0]}, "has no 'basis'"),
    ({"basis": _EYE, "sigma": 5}, "sigma must be a list"),
    ({"basis": _EYE, "sigma": "100"}, "sigma must be a list"),
    ({"basis": _EYE, "sigma": {"a": 1}}, "sigma must be a list"),
], ids=["int", "list", "null", "no-sigma", "no-basis", "sigma-int",
        "sigma-string", "sigma-object"])
@pytest.mark.parametrize("source", ["flag", "config", "config-list"])
def test_lattice_malformed_cusp_exit_2(tmp_path, capsys, cusp, message,
                                       source):
    # the first three and a sigma that is not a list used to exit 1 with a
    # TypeError, and a missing key printed only "error: 'sigma'"
    argv = ["lattice", "--n", "4", "--out-dir", str(tmp_path)]
    if source == "flag":
        argv += ["--cusp", json.dumps(cusp)]
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"cusp": cusp if source == "config" else [cusp]}))
        argv += ["--config", str(cfg_path)]
    if source == "config" and cusp is None:
        message = "need at least one --cusp"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("cusp, message", [
    ({"basis": [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]], "sigma": [1, 0, 0]},
     "too large for a float"),
    ({"basis": _EYE, "sigma": [10**400, 0, 0]}, "within float range"),
], ids=["basis", "sigma"])
def test_lattice_int_too_large_for_a_float_exit_2(tmp_path, capsys, cusp,
                                                  message):
    # each used to exit 1 with "OverflowError: int too large to convert to
    # float"
    rc = main(["lattice", "--n", "4", "--cusp", json.dumps(cusp),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_lattice_whole_float_sigma_accepted(tmp_path):
    cusp = json.dumps({"basis": np.eye(3).tolist(), "sigma": [10.0, 0, 0]})
    rc = main(["lattice", "--n", "4", "--cusp", cusp,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, summary, _ = _read(tmp_path)
    assert summary["lengths"] == [10.0]


def test_lattice_two_cusps(tmp_path):
    c1 = json.dumps({"basis": np.eye(3).tolist(), "sigma": [10, 0, 0]})
    c2 = json.dumps({"basis": (2.0 * np.eye(3)).tolist(), "sigma": [6, 0, 0]})
    rc = main(["lattice", "--n", "4", "--cusp", c1, "--cusp", c2,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, summary, _ = _read(tmp_path)
    assert summary["lengths"] == [10.0, 12.0]
    assert summary["size"] == 10.0


# one invocation of each subcommand, with the flags of README's examples
_README_EXAMPLES = [
    ["curvature", "--n", "4", "--profile", "blackhole", "--m", "1.0",
     "--grid", "1.3:40:64"],
    ["scan", "--n", "4", "--sizes", "40,80,160,320,640"],
    ["linearize", "--n", "4", "--profile", "glued", "--R", "30"],
    ["indicial", "--n", "4", "--block", "1j"],
    ["compare", "--n", "4"],
    ["solve", "--n", "4", "--from-glued", "50"],
    ["lattice", "--n", "4", "--cusp",
     '{"basis": [[6,1,0],[0,10,2],[0,0,15]], "sigma": [1,2,0]}'],
]


def _manifest_less_timestamp(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest.pop("timestamp")
    return manifest


@pytest.mark.parametrize("args", _README_EXAMPLES, ids=lambda a: a[0])
def test_outputs_deterministic(tmp_path, args):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    assert _outputs(d1) == _outputs(d2)
    # manifests differ only in the timestamp and the output location
    m1, m2 = _manifest_less_timestamp(d1), _manifest_less_timestamp(d2)
    for m in (m1, m2):
        m["config"].pop("out_dir")
    assert m1 == m2


def test_short_writes_give_the_same_files(tmp_path, monkeypatch):
    # os.write may write less than it is given; every byte must still land
    args = ["solve", "--n", "4", "--from-glued", "50"]
    assert main(args + ["--out-dir", str(tmp_path / "whole")]) == 0
    real_write = cli.os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(len(data))
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(cli.os, "write", short_write)
    assert main(args + ["--out-dir", str(tmp_path / "short")]) == 0
    monkeypatch.undo()
    # report.csv alone is about 9.7 kB, so it took well over 1000 writes
    assert len(sizes) > 1000 and min(sizes) >= 1
    assert _outputs(tmp_path / "short") == _outputs(tmp_path / "whole")
    short = _manifest_less_timestamp(tmp_path / "short")
    whole = _manifest_less_timestamp(tmp_path / "whole")
    assert short["config"].pop("out_dir") == str(tmp_path / "short")
    assert whole["config"].pop("out_dir") == str(tmp_path / "whole")
    assert short == whole


def test_output_files_get_the_umask_mode_and_are_truncated(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.csv").write_text("x" * 100000)
    assert main(["indicial", "--n", "4", "--block", "1j",
                 "--out-dir", str(out)]) == 0
    assert (out / "report.csv").read_text() == "block,roots\n1j,1,-4\n"
    umask = os.umask(0)
    os.umask(umask)
    for name in ("report.csv", "summary.json", "manifest.json"):
        assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("under", [(), ("out",)], ids=["file", "under-file"])
def test_unusable_out_dir_exit_2(tmp_path, capsys, under):
    # an --out-dir that is an existing file, or a path under one
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["indicial", "--n", "4", "--out-dir", str(blocker.joinpath(*under))])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("content", [None, '"n"', '["n"]', "[1, 2]"],
                         ids=["directory", "string", "list-of-key", "list"])
def test_unusable_config_exit_2(tmp_path, capsys, content):
    # a directory, or JSON that is not an object; [1, 2] used to be ignored
    cfg_path = tmp_path / "run.json"
    if content is None:
        cfg_path.mkdir()
    else:
        cfg_path.write_text(content)
    rc = main(["indicial", "--n", "4", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"n": 5, "sizes": "40,80,160,320,640", "grid_size": 512}
    ))
    out = tmp_path / "out"
    rc = main(["scan", "--config", str(cfg_path), "--n", "4",
               "--out-dir", str(out)])
    assert rc == 0
    _, summary, manifest = _read(out)
    # the flag beats the file; the file provided everything else
    assert summary["n"] == 4
    assert manifest["config"]["sizes"] == [40.0, 80.0, 160.0, 320.0, 640.0]
    assert manifest["input_hashes"]["config"] == hashlib.sha256(
        cfg_path.read_bytes()).hexdigest()


def test_missing_config_exit_2(tmp_path, capsys):
    rc = main(["scan", "--config", str(tmp_path / "absent.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


# the library calls behind each --profile value at the CLI defaults (n=4, m=1, R=10)
_LIBRARY = {
    "blackhole": lambda n=4: black_hole_metric(1.0, n),
    "cusp": lambda n=4: cusp_metric(n),
    "glued": lambda n=4: glued_metric(10.0, n),
}


def _grid(text):
    lo, hi, num = text.split(":")
    return loggrid(float(lo), float(hi), int(num))


@pytest.mark.parametrize("profile", sorted(_LIBRARY))
def test_curvature_each_profile_matches_library(tmp_path, profile):
    rc = main(["curvature", "--n", "4", "--profile", profile,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report, summary, manifest = _read(tmp_path)
    rep = ricci_and_deficit(_LIBRARY[profile](), _grid(manifest["config"]["grid"]))
    assert report[1:] == list(rep.csv_rows())
    assert summary["profile"] == profile


@pytest.mark.parametrize("profile", sorted(_LIBRARY))
def test_linearize_each_profile_matches_library(tmp_path, profile):
    # all 14 columns; Mjk is Mjj at n = 5 and a zero of Mjj's sign at n = 4,
    # which has one torus direction
    for n in (4, 5):
        out_dir = tmp_path / f"n{n}"
        rc = main(["linearize", "--n", str(n), "--profile", profile,
                   "--out-dir", str(out_dir)])
        assert rc == 0
        report, summary, manifest = _read(out_dir)
        metric = _LIBRARY[profile](n)
        grid_text = manifest["config"]["grid"]
        if profile == "cusp":
            prof = CuspProfile(n)
            assert grid_text == "0.5:50:64"
        else:
            prof = metric.profile
            lo = float(grid_text.split(":")[0])
            assert lo == pytest.approx(1.05 * metric.profile.r_plus, rel=1e-5)
        grid = _grid(grid_text)
        C = operator_coefficients(prof, grid)
        mjk = C[-1] if n == 5 else np.copysign(0.0, C[-1])
        expected = np.column_stack([grid, *C, mjk])
        assert report[0] == ("r,c2,c1,c12,c1j,c2j,cjk,"
                             "M00,M01,M0j,M11,M1j,Mjj,Mjk")
        rows = np.array([[float(t) for t in line.split(",")]
                         for line in report[1:]])
        assert rows.shape == (64, 14)
        assert np.array_equal(rows, expected)
        assert np.array_equal(np.signbit(rows), np.signbit(expected))
        assert summary["profile"] == profile


@pytest.mark.parametrize("command", ["curvature", "linearize"])
def test_unknown_profile_in_config_exit_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"profile": "bogus"}))
    rc = main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown profile 'bogus'" in capsys.readouterr().err


_NAN, _INF = float("nan"), float("inf")
_BAD_INTEGERS = [
    ("solve", "grid_size", 256.7), ("solve", "n", 4.5),
    ("solve", "max_iters", _NAN), ("solve", "grid_size", _INF),
    ("solve", "n", True), ("solve", "grid_size", "256"),
    ("scan", "grid_size", 512.5), ("scan", "n", 4.5), ("scan", "n", _NAN),
    ("compare", "grid_size", 1024.5), ("compare", "num_centers", 12.5),
    ("compare", "n", True),
]


@pytest.mark.parametrize("command, key, value", _BAD_INTEGERS,
                         ids=[f"{c}-{k}-{v}" for c, k, v in _BAD_INTEGERS])
def test_config_integer_keys_reject_non_integers(tmp_path, capsys, command,
                                                 key, value):
    # these used to pass through int(): 256.7 ran at 256 and 4.5 as n=4
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({key: value}))
    argv = {"solve": ["solve", "--from-glued", "50"], "scan": ["scan"],
            "compare": ["compare"]}[command]
    rc = main([*argv, "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


# (command, key, value): a JSON value of the wrong type for the setting
_BAD_TYPES = [
    ("curvature", "m", None), ("curvature", "m", [1]), ("compare", "m", None),
    ("compare", "m", [1]), ("compare", "width", None), ("compare", "m", True),
    ("solve", "tol", None), ("solve", "from_blackhole", [1]),
    ("scan", "delta", [1]), ("scan", "delta", {"a": 1}),
    ("curvature", "profile", [1]), ("scan", "sizes", [40, None]),
    *[(name, "out_dir", value) for name in cli.COMMANDS
      for value in (5, None, ["a"])],
]
_ARGV = {"solve": ["solve", "--from-glued", "50"],
         "lattice": ["lattice", "--cusp",
                     json.dumps({"basis": np.eye(3).tolist(),
                                 "sigma": [10, 0, 0]})]}


@pytest.mark.parametrize("command, key, value", _BAD_TYPES,
                         ids=[f"{c}-{k}-{json.dumps(v)}"
                              for c, k, v in _BAD_TYPES])
def test_config_wrong_json_type_exit_2(tmp_path, monkeypatch, capsys, command,
                                       key, value):
    # most of these used to exit 1 with a TypeError; m = true ran as m = 1
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({key: value}))
    argv = [*_ARGV.get(command, [command]), "--config", str(cfg_path)]
    if key != "out_dir":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


_HUGE = 10**400
# (command, config, the setting named in the error)
_TOO_LARGE = [
    ("curvature", {"m": _HUGE}, "m"),
    ("solve", {"from_glued": _HUGE}, "from_glued"),
    ("solve", {"from_blackhole": _HUGE}, "from_blackhole"),
    ("solve", {"from_glued": 50, "r_out": _HUGE}, "r_out"),
    ("scan", {"delta": _HUGE}, "delta"),
    ("scan", {"sizes": [40, 80, 160, 320, _HUGE]}, "sizes"),
    ("compare", {"width": _HUGE}, "width"),
    ("linearize", {"profile": "glued", "R": _HUGE}, "R"),
]


@pytest.mark.parametrize("command, config, key", _TOO_LARGE,
                         ids=[f"{c}-{k}" for c, _, k in _TOO_LARGE])
def test_config_int_too_large_for_a_float_exit_2(tmp_path, capsys, command,
                                                config, key):
    # each used to exit 1 with "OverflowError: int too large to convert to
    # float"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{key} is an integer too large for a float (401 digits)" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_config_int_of_too_many_digits_exit_2(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # int of more digits than int() converts, which used to exit 1
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"m": ' + "1" * 5000 + "}")
    rc = main(["curvature", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "bad config JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("scan", {"delta": None, "grid_size": 256}),
    ("solve", {"from_blackhole": None, "r_out": None, "tol": "1e-10"}),
    ("curvature", {"m": 1, "R": "10"}),
])
def test_config_null_and_string_numbers_accepted(tmp_path, command, config):
    # None where the default is None (or delta's "auto"), a string where it
    # converts, and an int for a float setting all still run
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    argv = [*_ARGV.get(command, [command]), "--config", str(cfg_path)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0


def test_config_whole_float_grid_size_accepted(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"grid_size": 256.0, "max_iters": 30.0}))
    rc = main(["solve", "--from-glued", "50", "--config", str(cfg_path),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report, _, manifest = _read(tmp_path)
    assert len(report) == 257
    assert manifest["config"]["grid_size"] == 256


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh_python(args, cwd):
    """Start `python <args>` in a new interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


_IMPORT_CHECK = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import dehnfill, dehnfill.cli
assert scipy_modules() == [], scipy_modules()
from dehnfill import GluedProfile, eval_profile, newton_solve
result = newton_solve(GluedProfile(50.0, 4))
assert result.converged, result.error
# the banded solve loads scipy's LAPACK wrapper alone: neither scipy's nor
# scipy.linalg's __init__ runs, nor the numpy modules the latter pulls in
assert scipy_modules() == ["scipy.linalg._flapack"], scipy_modules()
assert "numpy.f2py" not in sys.modules
assert "numpy.testing" not in sys.modules
eval_profile(result.profile, 3.0, 2)
assert scipy_modules() == ["scipy.linalg._flapack"], scipy_modules()
"""


def test_import_loads_scipy_only_where_used(tmp_path):
    # importing scipy.linalg was most of a cold solve; only the banded
    # solve needs scipy, and it loads one compiled module of it
    proc = _fresh_python(["-c", _IMPORT_CHECK], tmp_path)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr


# which dehnfill modules a cold solve ran, and whether it loaded OpenSSL
# (hashlib's _hashlib), which only --config's hash needs; -X importtime
# does not log a module that the package's lazy loader runs
_COLD_SOLVE = """
import json, sys, types
from dehnfill.cli import main
rc = main(["solve", "--n", "4", "--from-glued", "50", "--grid-size", "64",
           *sys.argv[1:]])
ours = {name: type(module) is types.ModuleType
        for name, module in sys.modules.items()
        if name.startswith("dehnfill")}
print(json.dumps({"rc": rc, "hashlib": "_hashlib" in sys.modules,
                  "ran": sorted(name for name in ours if ours[name]),
                  "lazy": sorted(name for name in ours if not ours[name])}))
"""


@pytest.mark.parametrize("config", [False, True], ids=["flags", "config"])
def test_cold_solve_runs_only_the_modules_it_uses(tmp_path, config):
    argv = ["--out-dir", "out"]
    if config:
        (tmp_path / "run.json").write_text("{}")
        argv += ["--config", "run.json"]
    proc = _fresh_python(["-c", _COLD_SOLVE, *argv], tmp_path)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    result = json.loads(stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["hashlib"] is config
    assert result["ran"] == ["dehnfill", "dehnfill.cli", "dehnfill.errors",
                             "dehnfill.numutil", "dehnfill.profiles",
                             "dehnfill.solver"]
    # unrun, but in sys.modules, where a tracer looks the modules up
    assert result["lazy"] == ["dehnfill.curvature", "dehnfill.gluing",
                              "dehnfill.lattice", "dehnfill.linearized",
                              "dehnfill.norms"]


# A solve whose direct load of scipy.linalg._flapack fails: the finder
# finds nothing for it while scipy.linalg is not loaded, which is only the
# solver's own load, so the public import that follows still finds it
_FALLBACK_SOLVE = """
import importlib.machinery
import sys

find_spec = importlib.machinery.PathFinder.find_spec

def no_direct_flapack(name, path=None, target=None):
    if name == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules:
        return None
    return find_spec(name, path, target)

importlib.machinery.PathFinder.find_spec = no_direct_flapack
from dehnfill import solver
from dehnfill.cli import main
assert main(sys.argv[1:]) == 0
assert "scipy.linalg" in sys.modules
import scipy.linalg.lapack
assert solver._dgbsv() is scipy.linalg.lapack.dgbsv
"""


def test_solve_falls_back_to_the_public_lapack_import(tmp_path):
    argv = ["solve", "--n", "4", "--from-glued", "50", "--out-dir"]
    direct = _fresh_python(["-m", "dehnfill.cli", *argv, "direct"], tmp_path)
    fallback = _fresh_python(["-c", _FALLBACK_SOLVE, *argv, "fallback"],
                             tmp_path)
    for proc in (direct, fallback):
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
    assert _outputs(tmp_path / "fallback") == _outputs(tmp_path / "direct")
    assert None not in _outputs(tmp_path / "direct").values()


def _outputs(out_dir):
    return {name: (out_dir / name).read_bytes() if (out_dir / name).exists()
            else None for name in ("report.csv", "summary.json")}


def test_reused_parser_matches_fresh_process(tmp_path, capsys):
    # main() shares one parser per process; a run must not see the flags
    # of the run before it (the appended --cusp list, a --tol left set)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n": 5, "from_glued": 30.0,
                                    "grid_size": 256.0}))
    c1 = json.dumps({"basis": np.eye(3).tolist(), "sigma": [10, 0, 0]})
    c2 = json.dumps({"basis": (2.0 * np.eye(3)).tolist(), "sigma": [6, 0, 0]})
    commands = [
        ["lattice", "--cusp", c1, "--cusp", c2],
        ["lattice", "--cusp", c2],
        ["solve", "--from-glued", "50", "--tol", "1e-10"],
        ["solve", "--from-glued", "50"],
        ["solve", "--from-glued", "50", "--no-such-flag", "1"],
        ["solve", "--config", str(cfg_path)],
    ]
    fresh = [_fresh_python(["-m", "dehnfill.cli", *argv, "--out-dir",
                            str(tmp_path / f"fresh{k}")], tmp_path)
             for k, argv in enumerate(commands)]
    for k, (argv, proc) in enumerate(zip(commands, fresh)):
        try:
            rc = main([*argv, "--out-dir", str(tmp_path / f"here{k}")])
        except SystemExit as exc:
            rc = exc.code
        stdout = capsys.readouterr().out
        fresh_stdout, fresh_stderr = proc.communicate(timeout=120)
        assert rc == proc.returncode, (argv, fresh_stderr)
        assert stdout == fresh_stdout, argv
        assert (_outputs(tmp_path / f"here{k}")
                == _outputs(tmp_path / f"fresh{k}")), argv
    assert [p.returncode for p in fresh] == [0, 0, 0, 0, 2, 0]


@pytest.mark.parametrize("argv", [
    ["solve", "--from-glued", "50", "--m", "1"],
    ["solve", "--from-glued", "50", "--r", "60"],
    ["compare", "--grid", "256"],
])
def test_abbreviated_flag_exit_2(tmp_path, capsys, argv):
    # argparse used to take --m as --max-iters, --r as --r-out and --grid
    # as --grid-size; --m means the mass everywhere else
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "summary.json").exists()


def _run_in_process(argv):
    """(exit code, stdout) of main(argv), which may exit through argparse."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _top_level_help(name):
    """What `<name> --help` printed when every call went through the
    top-level parser: its subparser's help, reached through it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.build_parser()[0].parse_args([name, "--help"])
    assert exc.value.code == 0
    return out.getvalue()


def test_dispatch_in_process_and_fresh(tmp_path, monkeypatch):
    # a named command goes straight to its own parser; everything else to
    # the top-level one, each with the exit code and stdout it always had
    monkeypatch.setenv("COLUMNS", "80")
    out = str(tmp_path / "out")
    cases = [
        ([], 2, None), (["-h"], 0, None), (["nosuch"], 2, ""),
        *[([name, "--help"], 0, _top_level_help(name)) for name in cli.COMMANDS],
        (["indicial", "--n=5", "--block=1j", f"--out-dir={out}"], 0,
         "indicial 1j (n=5): (1.0, -5.0)\n"),
        (["indicial", "--bogus", "1", "--out-dir", out], 2, ""),
    ]
    for argv, code, stdout in cases:
        rc, here = _run_in_process(argv)
        proc = _fresh_python(["-m", "dehnfill.cli", *argv], tmp_path)
        fresh, fresh_err = proc.communicate(timeout=120)
        assert rc == proc.returncode == code, (argv, fresh_err)
        assert here == fresh, argv
        if stdout is not None:
            assert here == stdout, argv
        if code == 2:
            assert "error: " in fresh_err, argv
    assert "usage: dehnfill [-h]" in _run_in_process(["-h"])[1]
    assert "unrecognized arguments: --bogus 1" in fresh_err
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["n"] == 5


def test_rerun_into_the_same_out_dir(tmp_path, monkeypatch):
    # a rerun writes into the existing directory and its files; an empty
    # out_dir is the working directory, as Path("") was
    args = ["curvature", "--n", "4", "--grid", "1.3:40:64"]
    assert main([*args, "--out-dir", str(tmp_path / "a")]) == 0
    first = _outputs(tmp_path / "a")
    assert main([*args, "--out-dir", str(tmp_path / "a")]) == 0
    assert _outputs(tmp_path / "a") == first
    assert main([*args, "--out-dir", str(tmp_path / "b" / "c" / "")]) == 0
    assert _outputs(tmp_path / "b" / "c") == first
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out-dir", ""]) == 0
    assert _outputs(tmp_path) == first


_LATTICE_OVERFLOW = '{"basis": [[1e300,0,0],[0,1,0],[0,0,1]], "sigma": [1,0,0]}'


@pytest.mark.parametrize("argv, message", [
    (["curvature", "--profile", "glued", "--R", "1e200"], "squared width overflows"),
    (["linearize", "--profile", "glued", "--R", "1e200"], "squared width overflows"),
    (["solve", "--from-glued", "1e300"], "squared width overflows"),
    (["solve", "--from-glued", "50", "--r-out", "1e200"], "r_out**2 overflows"),
    (["scan", "--delta", "1e150", "--grid-size", "256"], "decay weight"),
    (["scan", "--sizes", "1e300,2e300,3e300,4e300,5e300"], "squared width overflows"),
    (["lattice", "--cusp", _LATTICE_OVERFLOW], "geodesic length"),
    (["indicial", "--n", "1" + "0" * 400], "n > 32"),
    (["compare", "--n", "1000"], "n > 32"),
], ids=["curvature-R", "linearize-R", "solve-from-glued", "solve-r-out",
        "scan-delta", "scan-sizes", "lattice-basis", "indicial-n", "compare-n"])
def test_overflowing_setting_exit_2(tmp_path, capsys, argv, message):
    # each used to crash, warn, or write "size": Infinity into summary.json
    rc = main([*argv, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


# flags a swept setting needs to take effect: R is read by the glued
# profile only, and solve needs a starting profile
_SWEEP_CONTEXT = {"R": ["--profile", "glued"], "tol": ["--from-glued", "50"],
                  "r_out": ["--from-glued", "50"]}
_SWEEP = [(name, key, value)
          for name, (_, _, defaults) in cli.COMMANDS.items()
          for key in defaults if key in cli.FLOAT_KEYS
          for value in ("nan", "inf", "-inf", "1e300", "-1e300", "1e200")]


@pytest.mark.parametrize("name, key, value", _SWEEP,
                         ids=[f"{n}-{k}-{v}" for n, k, v in _SWEEP])
def test_float_flag_extremes_exit_0_or_2(tmp_path, name, key, value):
    # a RuntimeWarning fails the test, so each of these also runs clean
    defaults = cli.COMMANDS[name][2]
    argv = [name, f"--{key.replace('_', '-')}={value}",
            *_SWEEP_CONTEXT.get(key, [])]
    if "grid_size" in defaults:
        argv += ["--grid-size", "256"]
    assert main([*argv, "--out-dir", str(tmp_path)]) in (0, 2)
