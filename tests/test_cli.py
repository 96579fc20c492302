import json
import subprocess
import sys
import warnings

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


def test_in_process_manifest_records_the_parsed_argv(cfg_file, tmp_path, monkeypatch):
    # an in-process caller's arguments, not the host process's
    monkeypatch.setattr(sys, "argv", ["host", "--host-only"])
    out = tmp_path / "disp.csv"
    argv = ["dispersion", "--config", str(cfg_file), "--path", "G,X",
            "--samples", "2", "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "disp.csv.manifest.json").read_text())
    assert manifest["argv"] == argv


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


def test_spectrum_undamped_cavity_on_resonance_exits_3(tmp_path, capsys,
                                                       monkeypatch):
    # kappa_c = 0 at a field node: the README scan's sample delta_c = 0 sits
    # exactly on the cavity resonance, where no steady state exists
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(default_config_text(kappa_c=0.0, z0=0.0))
    argv = README_COMMANDS["spectrum"]
    assert main(argv[:1] + ["--config", "run.cfg"] + argv[1:]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:")
    assert "no steady state" in err[0]


def test_spectrum_saturation_warns_once_at_the_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(default_config_text(Omega=1.0))
    argv = README_COMMANDS["spectrum"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv[:1] + ["--config", "run.cfg"] + argv[1:]) == 0
    assert len(caught) == 1 and "strains" in str(caught[0].message)
    assert caught[0].filename == main.__code__.co_filename


def test_omparams_json(cfg_file, tmp_path):
    out = tmp_path / "om.json"
    assert main(["omparams", "--config", str(cfg_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    cf = data["closed_form"]
    assert cf["epsilon"] == pytest.approx(4.2)
    assert cf["N_a"] == pytest.approx(np.pi * 4.0 / 0.16)
    assert data["standard_model"]["kappa"] == pytest.approx(
        1.0 + cf["kappa_sc"])
    noise = data["standard_model"]["noise_contract"]
    assert noise["F_total"]["rate"] == noise["F_c"]["rate"] + noise["F_sc"]["rate"]
    assert all(c["rate"] >= 0.0 and c["delta_correlated"] for c in noise.values())


def test_omparams_consistency_exit(cfg_file, tmp_path):
    out = tmp_path / "om.json"
    rc = main(["omparams", "--config", str(cfg_file), "--consistency",
               "--k-cut-over-q", "0.477", "--out", str(out)])
    data = json.loads(out.read_text())
    checks = data["tolerances_met"]
    assert rc == (0 if all(v for k, v in checks.items() if k.endswith("_ok"))
                  else 4)
    assert "kappa_trace_rel_dev" in checks


def test_omparams_json_is_strict_at_g_zero(tmp_path):
    # z0 = 0 puts the array on a field node: g = 0, so kappa_sc/g has no value
    path = tmp_path / "node.cfg"
    path.write_text(default_config_text(a=0.4, n_side=24, w=2.0, z0=0.0,
                                        delta=100.0, l_fsr=100.0))
    out = tmp_path / "om.json"
    main(["omparams", "--config", str(path), "--consistency", "--out", str(out)])

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    data = json.loads(out.read_text(), parse_constant=refuse)
    assert data["closed_form"]["g"] == 0.0
    assert data["standard_model"]["membrane_in_the_middle"]["kappa_sc_over_g"] is None
    assert data["ratios"]["kappa_sc_over_g"] is None


MULTIMODE = ["dynamics", "--model", "multimode", "--t-final", "10"]


@pytest.mark.parametrize("argv, lattice", [
    (MULTIMODE + ["--modes", "600"], {}),
    (MULTIMODE + ["--modes", "600"], dict(n_side=16, w=2.0)),   # at any N
    (MULTIMODE + ["--modes", "0"], {}),
    (["dynamics", "--t-final", "-1"], {}),
    (["dynamics", "--t-final", "0"], {}),
    (MULTIMODE + ["--seed", "-1"], {}),
    (["dynamics", "--t-final", "10", "--dt-out", "0"], {}),
    (["dynamics", "--t-final", "1e9", "--dt-out", "1e-9"], {}),
    (["spectrum", "--dc-min", "-5", "--dc-max", "5", "--samples", "1"], {}),
    (["spectrum", "--dc-min", "nan", "--dc-max", "5"], {}),
    (["kernel", "--r-perp", "0.5"], {}),
    (["kernel", "--r-perp", "0.5,x"], {}),
    (["kernel", "--dz", "nan"], {})],
    ids=["modes-600", "modes-600-n16", "modes-0", "t-final-negative", "t-final-0",
         "seed-negative", "dt-out-0", "output-times-1e18", "samples-1", "dc-min-nan",
         "r-perp-one-number", "r-perp-not-a-number", "dz-nan"])
def test_out_of_range_option_is_config_error(tmp_path, capsys, monkeypatch, argv,
                                             lattice):
    # each option is checked before any lattice sum, kernel or chain is built;
    # the commands import these when called, so patch their defining modules
    from arraycav import confined, lattice_sums, optomech

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    for module, name in ((lattice_sums, "dispersion_grid"),
                         (lattice_sums, "dispersion_point"),
                         (optomech, "MechanicalChain"), (confined, "free_space_kernel")):
        monkeypatch.setattr(module, name, no_work)
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text(**lattice))
    out = tmp_path / "out.csv"
    tail = [] if argv[0] == "kernel" else ["--out", str(out)]
    assert main([argv[0], "--config", str(path), *argv[1:], *tail]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: --")
    if "--modes" in argv:
        assert "--modes" in err and "chain" in err
    assert not out.exists()


@pytest.mark.parametrize("k_cut", ["0", "1.5", "-0.1"])
def test_k_cut_override_out_of_range_is_config_error(cfg_file, tmp_path, capsys,
                                                     k_cut):
    out = tmp_path / "om.json"
    assert main(["omparams", "--config", str(cfg_file), "--consistency",
                 "--k-cut-over-q", k_cut, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--k-cut-over-q" in err and "(0, 1)" in err
    assert not out.exists()


def test_omparams_manifest_records_diagnostics(cfg_file, tmp_path):
    out = tmp_path / "om.json"
    main(["omparams", "--config", str(cfg_file), "--out", str(out)])
    assert "diagnostics" not in json.loads(
        (tmp_path / "om.json.manifest.json").read_text())
    main(["omparams", "--config", str(cfg_file), "--consistency",
          "--out", str(out)])
    manifest = json.loads((tmp_path / "om.json.manifest.json").read_text())
    diag = manifest["diagnostics"]
    assert diag["octant_offsets"] == 24 * 25 // 2
    assert 24 < diag["distinct_radii"] < diag["octant_offsets"]
    assert diag["chebyshev_panels"] >= 1 and diag["chebyshev_degree"] >= 8
    assert diag["confined_nodes"] >= 192
    assert 0.0 < diag["dispersion_residual"] < 1e-11
    assert manifest["outputs"][0]["sha256"]


def test_wavelength_spacing_is_config_error(tmp_path, capsys):
    # at a = 1 the (+-1, 0) orders graze at k = 0: no Delta_0 to offer
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text(a=0.5, delta=400.0).replace(
        "a = 0.5", "a = 1.0"))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "graze" in err


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


def test_dynamics_help_states_the_mode_cap(capsys):
    # the help text reads the one definition of the cap without loading optomech
    from arraycav import errors
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"(at most {errors.MAX_MODES})" in out


def test_reused_parser_carries_no_state(tmp_path, capsys):
    # main builds its parser once per process: the per-call --dt-out default
    # and the options of a refused call do not reach the next call
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text())
    out = tmp_path / "dyn.csv"

    def dynamics(t_final, *extra):
        return main(["dynamics", "--config", str(path), "--model", "reduced",
                     "--t-final", t_final, *extra, "--out", str(out)])

    for t_final in ("10", "30"):
        assert dynamics(t_final) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (201, 6) and rows[-1, 0] == float(t_final)
    written = out.read_bytes(), (tmp_path / "dyn.csv.manifest.json").read_bytes()
    with pytest.raises(SystemExit) as exc:
        dynamics("5", "--dt-out", "0.5", "--bogus")
    assert exc.value.code == 2
    assert dynamics("-1", "--dt-out", "0.5") == 2
    assert dynamics("30") == 0
    assert (out.read_bytes(), (tmp_path / "dyn.csv.manifest.json").read_bytes()) == written


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
    # N = 65^2 = 4225: a dense generator alone would be 286 MB; the Krylov
    # chain holds m (N + 1) complex numbers
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
    # N = 65^2 = 4225: the mechanical chain and the FFT couplings never form
    # an N x N array
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


README_COMMANDS = {
    "validate": ["validate"],
    "dispersion": ["dispersion", "--path", "G,X,M,G", "--samples", "60",
                   "--out", "disp.csv"],
    "spectrum": ["spectrum", "--dc-min", "-5", "--dc-max", "5", "--samples",
                 "201", "--out", "spec.csv"],
    "omparams": ["omparams", "--consistency", "--out", "om.json"],
    "reduced": ["dynamics", "--model", "reduced", "--t-final", "100", "--out",
                "dyn.csv"],
    "multimode": ["dynamics", "--model", "multimode", "--t-final", "10", "--out",
                  "dyn.csv"],
    "full": ["dynamics", "--model", "full", "--t-final", "10", "--out", "dyn.csv"],
    "kernel": ["kernel", "--kind", "fs", "--r-perp", "0.5,0.0"],
}


# modules a command loads only if it needs them: the kernel command evaluates
# one closed form and needs no lattice sum, confined kernel or dynamics
UNNEEDED = {"kernel": ["arraycav.lattice_sums", "arraycav.confined",
                       "arraycav.cavity_dynamics", "arraycav.optomech",
                       "arraycav.om_dynamics"]}


@pytest.mark.parametrize("command", sorted(README_COMMANDS))
def test_readme_command_loads_no_scipy(tmp_path, command):
    # scipy serves the tests as an oracle only: importing it would double a
    # command's start-up time, and scipy.linalg brings its own BLAS thread
    # pool, which contends with numpy's
    (tmp_path / "run.cfg").write_text(default_config_text())
    argv = README_COMMANDS[command]
    argv = argv[:1] + ["--config", "run.cfg"] + argv[1:]
    unneeded = UNNEEDED.get(command, [])
    code = ("import os, sys; from arraycav.cli import main; "
            f"os.chdir({str(tmp_path)!r}); rc = main({argv!r}); "
            "print(rc, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            f"or m in {unneeded!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1].split() == ["0"]


@pytest.mark.parametrize("section, key, value", [
    ("cavity", "kappa_c", np.nan), ("cavity", "z0", np.nan), ("lattice", "n_side", np.inf)])
@pytest.mark.parametrize("command", sorted(README_COMMANDS))
def test_non_finite_config_exits_2_with_one_line(tmp_path, monkeypatch, capsys,
                                                 command, section, key, value):
    # a non-finite value stops every command before any work: exit 2, one
    # line on stderr and no output file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(default_config_text(**{key: value}))
    argv = README_COMMANDS[command]
    assert main(argv[:1] + ["--config", "run.cfg"] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        f"config error: [{section}] key '{key}': must be finite, got {value!r}\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


CLI_START = ["arraycav", "arraycav.cli", "arraycav.errors"]


@pytest.mark.parametrize("start, exit_code, loaded", [
    ("from arraycav.cli import main; main(['--help'])", "0", CLI_START),
    ("from arraycav.cli import main; main([])", "2", CLI_START),
    ("import arraycav", None, ["arraycav"])], ids=["help", "no-subcommand", "import"])
def test_start_loads_no_numpy(start, exit_code, loaded):
    # the CLI's fixed cost: importing the package, asking for help and a usage
    # error load no numpy and none of the package's numerics
    code = ("import sys\ntry:\n    " + start + "\nexcept SystemExit as exc:\n"
            "    print(exc.code)\nprint(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'arraycav')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[-1].split() == loaded
    assert (out[-2] if exit_code else None) == exit_code


@pytest.mark.parametrize("overrides, command, exit_code, last_line", [
    ({}, ["spectrum", "--dc-min=-1e308", "--dc-max=1e308", "--out", "spec.csv"],
     2, "config error: --dc-max: the scan width --dc-max - --dc-min must be finite"),
    ({"Omega": 1e308}, README_COMMANDS["spectrum"], 3,
     "numerical error: non-finite amplitudes"),
    ({"Omega": 1e308}, README_COMMANDS["full"], 3,
     "numerical error: non-finite amplitudes"),
], ids=["spectrum-width", "spectrum-Omega", "full-Omega"])
def test_overflow_exits_with_one_line(tmp_path, overrides, command, exit_code,
                                      last_line):
    # a scan width or a drive beyond the float range: an exit code and one
    # message, no traceback and no numpy overflow warning before it
    (tmp_path / "run.cfg").write_text(default_config_text(**overrides))
    argv = command[:1] + ["--config", "run.cfg"] + command[1:]
    code = ("import os, sys; from arraycav.cli import main; "
            f"os.chdir({str(tmp_path)!r}); sys.exit(main({argv!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    err = out.stderr.splitlines()
    assert out.returncode == exit_code
    assert "Traceback" not in out.stderr
    assert err == [last_line]


@pytest.mark.parametrize("model", ["multimode", "full"])
def test_dynamics_runs_one_bessel_pass(tmp_path, monkeypatch, model):
    # both projected kernels come from one confined J0 pass: one evaluation
    # per (Chebyshev point of a panel, quadrature node) pair
    from arraycav import confined
    from arraycav.confined import chebyshev_panels, confined_nodes, lattice_radii
    j0, shapes = confined.j0, []

    def counting_j0(x):
        shapes.append(x.shape)
        return j0(x)

    monkeypatch.setattr(confined, "j0", counting_j0)
    text = default_config_text(a=0.5, n_side=16, w=2.0, z0=0.125, delta=100.0)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["dynamics", "--config", str(path), "--model", model, "--modes",
                 "32", "--t-final", "2.0", "--out", str(tmp_path / "dyn.csv")]) == 0
    cfg = make_config(a=0.5, n_side=16, w=2.0, z0=0.125, delta=100.0)
    rho, _ = lattice_radii(cfg.lattice)
    k_cut = cfg.cavity.k_cut_abs
    nodes = confined_nodes(k_cut, rho[-1])
    panels, degree = chebyshev_panels(k_cut, rho[-1], rho.size, nodes)
    assert shapes == [(panels * (degree + 1), nodes)]


def test_dynamics_manifest_records_rhs_evals(cfg_file, tmp_path):
    from arraycav.lattice_sums import dispersion_grid
    from arraycav.om_dynamics import CHAIN_TOL, RTOL, evolve_reduced
    from arraycav.optomech import closed_form_params
    records = {}
    for model in ("reduced", "multimode", "full"):
        out = tmp_path / f"{model}.csv"
        assert main(["dynamics", "--config", str(cfg_file), "--model", model,
                     "--modes", "32", "--t-final", "5.0", "--out", str(out)]) == 0
        records[model] = json.loads(
            (tmp_path / f"{model}.csv.manifest.json").read_text())
    cfg = make_config(a=0.4, n_side=24, w=2.0, z0=0.125, delta=100.0, l_fsr=100.0)
    params = closed_form_params(cfg, dispersion_grid(0.4, 24).delta0)
    assert records["reduced"]["rhs_evals"] == \
        evolve_reduced(cfg, params, 5.0, 5.0 / 200).rhs_evals > 0
    assert "rhs_evals" not in records["full"]     # the full model has no RHS
    assert {r["model"] for r in records.values()} == set(records)
    chain = records["multimode"]
    # the first pair is (2, 4): at least 4 modes kept
    assert chain["chain_m"] >= 4 and chain["rhs_evals"] > 0
    assert chain["chain_deviation"] <= chain["chain_tolerance"] == CHAIN_TOL
    assert chain["rtol"] == RTOL and chain["chain_invariant"] is False
    assert chain["chain_converged"] is True
    assert not {"chain_m", "rtol"} & (set(records["reduced"]) | set(records["full"]))


def _mm_config(tmp_path, **kw):
    path = tmp_path / "mm.cfg"
    path.write_text(default_config_text(a=0.5, n_side=16, w=2.0, delta=100.0,
                                        l_fsr=100.0, **kw))
    return path


def _run_multimode(path, out, *options):
    return main(["dynamics", "--config", str(path), "--model", "multimode",
                 "--t-final", "10", *options, "--out", str(out)])


def test_multimode_ignores_seed(tmp_path):
    # the chain has no random completion: --seed is accepted and unused
    path = _mm_config(tmp_path, z0=0.125)
    outs = [tmp_path / f"seed{seed}.csv" for seed in (0, 1)]
    for seed, out in zip((0, 1), outs):
        assert _run_multimode(path, out, "--seed", str(seed)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_multimode_at_field_node_keeps_b_at_rest(tmp_path, capsys):
    # z0 = 0: g = 0, so b stays 0 and max|b_0| = 0 must not divide
    path = _mm_config(tmp_path, z0=0.0)
    out = tmp_path / "mm.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_multimode(path, out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(rows[:, 3:5] == 0.0) and np.max(rows[:, 5]) > 0.0
    manifest = json.loads((tmp_path / "mm.csv.manifest.json").read_text())
    assert manifest["chain_m"] == 4          # the first pair (2, 4) agrees
    assert 0.0 <= manifest["chain_deviation"] <= manifest["chain_tolerance"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("modes, deviation", [("1", None), ("2", "above")])
def test_multimode_cap_before_agreement_warns(tmp_path, capsys, modes, deviation):
    # a strong drive needs more chain modes than --modes allows: the result
    # is written anyway, with the deviation reached and one warning line
    path = _mm_config(tmp_path, z0=0.06, Omega=3.0, eta=0.3, omega_m=0.02,
                      kappa_c=0.5)
    out = tmp_path / "mm.csv"
    assert _run_multimode(path, out, "--modes", modes) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (201, 6) and np.all(np.isfinite(rows))
    manifest = json.loads((tmp_path / "mm.csv.manifest.json").read_text())
    assert manifest["chain_m"] == int(modes) and manifest["chain_converged"] is False
    if deviation is None:
        assert manifest["chain_deviation"] is None
    else:
        assert manifest["chain_deviation"] > manifest["chain_tolerance"]
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"warning: the mechanical chain stops at m = {modes} ")
