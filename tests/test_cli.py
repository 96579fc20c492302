import json
import subprocess
import sys

import numpy as np
import pytest

from arraycav.cli import main
from arraycav.config import default_config_text
from arraycav.lattice_sums import dispersion_point

from conftest import make_config


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text(a=0.4, n_side=24, w=2.0, z0=0.125,
                                        delta=100.0, l_fsr=100.0))
    return path


def test_validate_ok(cfg_file, capsys):
    assert main(["validate", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "large_detuning" in out and "PASS" in out


def test_validate_fails_on_resonance(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(default_config_text(a=0.4, n_side=24, w=2.0, delta=0.0))
    assert main(["validate", "--config", str(path)]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text(default_config_text().replace("a = 0.5", "a = nope"))
    assert main(["dispersion", "--config", str(path), "--out",
                 str(tmp_path / "x.csv")]) == 2


def test_dispersion_csv_and_manifest(cfg_file, tmp_path):
    out = tmp_path / "disp.csv"
    rc = main(["dispersion", "--config", str(cfg_file), "--path", "G,X",
               "--samples", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k_x/q,k_y/q,gamma_k/gamma,delta_k/gamma"
    assert len(lines) == 4
    # endpoint row matches the point API (a = 0.4)
    first = [float(x) for x in lines[1].split(",")[:4]]
    pt = dispersion_point((0.0, 0.0), 0.4)
    assert first[2] == pytest.approx(pt.gamma_k, rel=1e-12)
    assert first[3] == pytest.approx(pt.delta_k, rel=1e-12)
    manifest = json.loads((tmp_path / "disp.csv.manifest.json").read_text())
    assert manifest["command"] == "dispersion"
    assert manifest["outputs"][0]["sha256"]
    # re-run is bit-identical
    text1 = out.read_text()
    assert main(["dispersion", "--config", str(cfg_file), "--path", "G,X",
                 "--samples", "3", "--out", str(out)]) == 0
    assert out.read_text() == text1


def test_spectrum_dark_point(tmp_path):
    # delta = Delta: every steady state is dark
    delta0 = dispersion_point((0.0, 0.0), 0.4).delta_k
    path = tmp_path / "dark.cfg"
    path.write_text(default_config_text(a=0.4, n_side=24, w=2.0, z0=0.125,
                                        delta=delta0, l_fsr=100.0))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(path), "--dc-min", "-1",
                 "--dc-max", "1", "--samples", "11", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(rows[:, 1] == 0.0)


def test_spectrum_bare_lorentzian_at_node(tmp_path):
    path = tmp_path / "node.cfg"
    path.write_text(default_config_text(a=0.4, n_side=24, w=2.0, z0=0.0,
                                        delta=100.0, kappa_c=1.0, Omega=0.01))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(path), "--dc-min", "-2",
                 "--dc-max", "2", "--samples", "21", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    bare = np.abs(-1j * 0.01 / (0.5 - 1j * rows[:, 0])) ** 2
    assert np.allclose(rows[:, 1], bare, rtol=1e-12)


def test_omparams_json(cfg_file, tmp_path):
    out = tmp_path / "om.json"
    assert main(["omparams", "--config", str(cfg_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    cf = data["closed_form"]
    assert cf["epsilon"] == pytest.approx(4.2)
    assert cf["N_a"] == pytest.approx(np.pi * 4.0 / 0.16)
    assert data["standard_model"]["kappa"] == pytest.approx(
        1.0 + cf["kappa_sc"])


def test_omparams_consistency_exit(cfg_file, tmp_path):
    out = tmp_path / "om.json"
    rc = main(["omparams", "--config", str(cfg_file), "--consistency",
               "--k-cut-over-q", "0.477", "--out", str(out)])
    data = json.loads(out.read_text())
    checks = data["tolerances_met"]
    assert rc == (0 if all(v for k, v in checks.items() if k.endswith("_ok"))
                  else 4)
    assert "kappa_trace_rel_dev" in checks


def test_dynamics_reduced_csv(cfg_file, tmp_path):
    out = tmp_path / "dyn.csv"
    assert main(["dynamics", "--config", str(cfg_file), "--model", "reduced",
                 "--t-final", "5.0", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 6
    assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(5.0)


def test_kernel_command(cfg_file, capsys):
    assert main(["kernel", "--config", str(cfg_file), "--kind", "fs",
                 "--r-perp", "0.5,0.0"]) == 0
    out = capsys.readouterr().out
    re_part = float(out.split()[0])
    assert re_part == pytest.approx(0.03799544386587665, rel=1e-12)


def test_dispersion_explicit_waypoint_in_units_of_q(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text(a=0.6, n_side=24, w=2.0, z0=0.125,
                                        delta=100.0, l_fsr=100.0))
    out = tmp_path / "disp.csv"
    assert main(["dispersion", "--config", str(path), "--path", "G,0.25:0.5",
                 "--samples", "5", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1, 2))
    assert rows.shape == (5, 3)
    np.testing.assert_allclose(rows[0, :2], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(rows[-1, :2], [0.25, 0.5], rtol=1e-14)
    assert np.all(rows[:, 2] + 1.0 > 0.0)


@pytest.mark.parametrize("waypoint", ["0.25:", "0.25:x", "1:2:3", "nan:0", "Y"])
def test_dispersion_bad_waypoint_is_config_error(cfg_file, tmp_path, capsys, waypoint):
    assert main(["dispersion", "--config", str(cfg_file), "--path",
                 f"G,{waypoint}", "--out", str(tmp_path / "d.csv")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--path", "G,G"], ["--path", "G"],
                                  ["--samples", "1"]])
def test_dispersion_bad_path_is_config_error(cfg_file, tmp_path, capsys, args):
    assert main(["dispersion", "--config", str(cfg_file), *args,
                 "--out", str(tmp_path / "d.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_flag_is_hard_error(cfg_file):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", str(cfg_file), "--bogus"])
    assert exc.value.code == 2


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("validate", "dispersion", "spectrum", "omparams", "dynamics"):
        assert cmd in out


def test_dynamics_multimode_and_full(tmp_path):
    path = tmp_path / "mm.cfg"
    path.write_text(default_config_text(a=0.5, n_side=16, w=2.0, z0=0.125,
                                        delta=100.0, omega_m=0.02, l_fsr=100.0))
    out = tmp_path / "mm.csv"
    assert main(["dynamics", "--config", str(path), "--model", "multimode",
                 "--modes", "64", "--t-final", "10.0", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 6
    out2 = tmp_path / "full.csv"
    assert main(["dynamics", "--config", str(path), "--model", "full",
                 "--t-final", "2.0", "--out", str(out2)]) == 0
    rows2 = np.loadtxt(out2, delimiter=",", skiprows=1)
    assert rows2.shape[1] == 4


def test_full_model_beyond_dense_limit_runs(tmp_path):
    # N = 65^2 = 4225 > MAX_DENSE_SITES: a dense generator alone would be
    # 286 MB; the Krylov chain holds m (N + 1) complex numbers
    import tracemalloc
    path = tmp_path / "big.cfg"
    path.write_text(default_config_text(a=0.5, n_side=65, w=4.0))
    out = tmp_path / "dyn.csv"
    tracemalloc.start()
    try:
        rc = main(["dynamics", "--config", str(path), "--model", "full",
                   "--t-final", "10.0", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 50e6
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (201, 4) and np.all(np.isfinite(rows))
    manifest = json.loads((tmp_path / "dyn.csv.manifest.json").read_text())
    assert manifest["krylov_error"] <= manifest["krylov_tolerance"] == 1e-12
    assert 2 < manifest["krylov_m"] < 4226
    assert 0.0 < manifest["two_mode_deviation"] < 1e-3


def test_multimode_beyond_dense_limit_runs(tmp_path):
    # N = 65^2 = 4225 > MAX_DENSE_SITES: the thin basis and the FFT couplings
    # never form an N x N array
    path = tmp_path / "big.cfg"
    path.write_text(default_config_text(a=0.5, n_side=65, w=4.0))
    out = tmp_path / "mm.csv"
    assert main(["dynamics", "--config", str(path), "--model", "multimode",
                 "--modes", "32", "--t-final", "2.0", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 6 and np.all(np.isfinite(rows))


def test_readme_dispersion_example_exits_0(tmp_path, capsys):
    # the G,X,M,G path at a = 0.5 crosses the subradiant band and grazes no
    # diffraction order: every sample is finite
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text())
    out = tmp_path / "disp.csv"
    assert main(["dispersion", "--config", str(path), "--path", "G,X,M,G",
                 "--samples", "60", "--out", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", skip_header=1, usecols=(2, 3))
    assert rows.shape == (60, 2)
    assert np.all(np.isfinite(rows))
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("command", [
    ["validate"],
    ["spectrum", "--dc-min", "-1", "--dc-max", "1", "--samples", "11"]])
def test_large_lattice_constant_exits_0(tmp_path, command):
    # a = 0.95: above a = 0.938 the damped real-space sum this replaced
    # did not converge at k = 0
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text(a=0.95, delta=400.0))
    out = ["--out", str(tmp_path / "spec.csv")] if command[0] == "spectrum" else []
    assert main([command[0], "--config", str(path), *command[1:], *out]) == 0


def test_dispersion_grazing_endpoint_exits_0(tmp_path):
    # at a = 0.5 the X point puts a diffraction order on the light line
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text(a=0.5))
    out = tmp_path / "disp.csv"
    assert main(["dispersion", "--config", str(path), "--path", "G,X",
                 "--samples", "5", "--out", str(out)]) == 0
    last = out.read_text().strip().splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0) and last[2] == "nan"


def test_non_circular_polarization_is_config_error(tmp_path, capsys):
    path = tmp_path / "lin.cfg"
    path.write_text(default_config_text().replace("polarization = circular",
                                                  "polarization = linear_x"))
    assert main(["validate", "--config", str(path)]) == 2
    assert "'polarization'" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy is imported at first use only; its import would double the
    # start-up time of every command
    code = ("import sys, arraycav.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
