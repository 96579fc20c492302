import inspect
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arraycav

README = Path(__file__).resolve().parents[1] / "README.md"


def _listed():
    section = README.read_text().split("\n## Library API\n", 1)[1]
    bullets = section[section.index("\n- "):].split("\n\n", 1)[0]   # the list
    return re.findall(r"`(\w+)`", bullets)


def test_public_names_are_the_readme_library_api():
    # every name the package exports is listed under "Library API", and
    # every listed name is exported: a test-only export cannot slip back in
    listed = _listed()
    assert len(listed) == len(set(listed))
    assert set(listed) == set(arraycav.__all__) == set(dir(arraycav))


# every public callable's parameter names, in order: an option comes back
# only with an edit here
SIGNATURES = {
    "CavitySpec": ("w", "l_fsr", "kappa_c", "z0", "k_cut"),
    "DispersionGrid": ("a", "n_side", "delta_k", "residual"),
    "DispersionPoint": ("k_perp", "gamma_k", "delta_k"),
    "DriveSpec": ("Omega", "delta_c", "delta"),
    "FullConfig": ("physical", "lattice", "cavity", "trap", "drive"),
    "FullTrajectory": ("t", "a", "sum_sigma2", "diagnostics", "basis", "coefficients"),
    "KernelMatrix": ("table", "kind", "provenance"),
    "LatticeSpec": ("a", "n_side"),
    "MechanicalChain": ("cfg", "kernel", "kernel_d2", "dispersion"),
    "ModeProfile": ("weights",),
    "OmParams": ("g", "g_bar", "g2", "kappa_sc", "Delta_AC", "Delta_sc", "eta",
                 "N_a", "epsilon", "g_eff"),
    "OmState": ("a", "b", "t"),
    "OmTrajectory": ("states", "rhs_evals", "diagnostics"),
    "PhysicalConfig": ("omega_l",),
    "SystemState": ("a", "sigma", "t"),
    "TrapSpec": ("omega_m", "eta"),
    "TwoModeModel": ("g_eff", "delta_c", "delta_minus_Delta", "kappa_c", "Omega"),
    "build_two_mode": ("cfg", "dispersion"),
    "cavity_profile": ("lattice", "w"),
    "closed_form_params": ("cfg", "Delta"),
    "confined_kernel_paraxial": ("lattice", "z0", "k_cut"),
    "default_config_text": ("a", "n_side", "w", "l_fsr", "kappa_c", "z0", "omega_m",
                            "eta", "Omega", "delta_c", "delta"),
    "dispersion_curve": ("path", "samples", "a"),
    "dispersion_grid": ("a", "n_side"),
    "dispersion_point": ("k_perp", "a"),
    "emit_config": ("cfg",),
    "evolve_chain": ("cfg", "params", "chain", "t_final", "dt_out", "max_modes"),
    "evolve_full": ("cfg", "kernel", "t_final", "dt_out"),
    "evolve_reduced": ("cfg", "params", "t_final", "dt_out"),
    "free_space_kernel": ("lattice",),
    "gamma_plus_Gamma0": ("a",),
    "intensity_profile": ("lattice", "w"),
    "kernel_fs": ("r_perp", "dz"),
    "kernel_fs_d2z": ("r_perp",),
    "kernel_fs_momentum": ("k_perp", "dz"),
    "mode_decay_rate": ("profile", "kernel"),
    "om_consistency": ("cfg", "dispersion", "k_cut_abs"),
    "parse_config": ("text",),
    "projected_kernel": ("fs", "confined"),
    "projected_kernels": ("lattice", "z0", "k_cut"),
    "spectrum_scan": ("model", "delta_c_range", "samples"),
    "standard_model_report": ("params", "cfg"),
    "steady_state_full": ("cfg", "kernel"),
    "steady_state_two_mode": ("model",),
    "validate_regime": ("cfg", "Delta"),
}


def test_public_signatures_are_pinned():
    # every exported callable is in the table, with exactly these parameters
    callables = {name for name in arraycav.__all__ if callable(getattr(arraycav, name))}
    assert callables == set(SIGNATURES)
    got = {name: tuple(inspect.signature(getattr(arraycav, name)).parameters)
           for name in SIGNATURES}
    assert got == SIGNATURES


def test_every_public_name_imports_in_a_fresh_interpreter():
    # names load their submodule on first access: each one resolves by
    # ``from arraycav import name``, and an unknown name is an AttributeError
    code = "\n".join(f"from arraycav import {name}" for name in _listed())
    subprocess.run([sys.executable, "-c", code], check=True)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arraycav.no_such_name


def test_readme_quickstart_runs(capsys):
    # the python block under "Library quickstart", as a reader would paste it
    section = README.read_text().split("\n## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert 0.0 < float(lines[0]) < 1e-3      # the cavity profile is dark
    assert complex(lines[1]) != 0.0
    assert all(math.isfinite(float(x)) for x in lines[2].split())
