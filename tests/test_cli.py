import json

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
    assert lines[0] == "k_x/q,k_y/q,gamma_k/gamma,delta_k/gamma,method"
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


def test_full_model_beyond_dense_limit_refused_before_allocation(tmp_path, capsys):
    # N = 65^2 = 4225 > MAX_DENSE_SITES; the generator A alone would be 286 MB
    import tracemalloc
    path = tmp_path / "big.cfg"
    path.write_text(default_config_text(a=0.5, n_side=65, w=4.0))
    out = tmp_path / "dyn.csv"
    tracemalloc.start()
    try:
        rc = main(["dynamics", "--config", str(path), "--model", "full",
                   "--t-final", "1.0", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "4225" in err[0] and "Traceback" not in err[0]
    assert peak < 100e6
    assert not out.exists()


def test_non_circular_polarization_is_config_error(tmp_path, capsys):
    path = tmp_path / "lin.cfg"
    path.write_text(default_config_text().replace("polarization = circular",
                                                  "polarization = linear_x"))
    assert main(["validate", "--config", str(path)]) == 2
    assert "'polarization'" in capsys.readouterr().err
