"""arraycav: cooperative dipole kernels, collective-mode dispersion, and
cavity optomechanics of 2D subwavelength atom arrays.

Internal units throughout: wavelength lambda = 1, free-space decay gamma = 1,
hbar = 1, time in 1/gamma.

Each public name loads its submodule on first access (PEP 562), so importing
the package, or starting the CLI, loads no numerics.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys(("CavitySpec", "DriveSpec", "FullConfig", "LatticeSpec",
                     "PhysicalConfig", "TrapSpec", "default_config_text",
                     "emit_config", "gamma_plus_Gamma0", "parse_config",
                     "validate_regime"), "config"),
    **dict.fromkeys(("kernel_fs", "kernel_fs_d2z", "kernel_fs_momentum"), "greens"),
    **dict.fromkeys(("DispersionGrid", "DispersionPoint", "dispersion_curve",
                     "dispersion_grid", "dispersion_point"), "lattice_sums"),
    **dict.fromkeys(("KernelMatrix", "ModeProfile", "cavity_profile",
                     "confined_kernel_paraxial", "confined_table",
                     "free_space_kernel", "mode_decay_rate", "projected_kernel",
                     "projected_kernels"), "confined"),
    **dict.fromkeys(("FullTrajectory", "SystemState", "TwoModeModel",
                     "build_two_mode", "evolve_full", "spectrum_scan",
                     "steady_state_full", "steady_state_two_mode"), "cavity_dynamics"),
    **dict.fromkeys(("MechanicalChain", "OmParams", "closed_form_params",
                     "intensity_profile", "om_consistency"), "optomech"),
    **dict.fromkeys(("OmState", "OmTrajectory", "evolve_chain", "evolve_reduced",
                     "standard_model_report"), "om_dynamics"),
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return list(__all__)
