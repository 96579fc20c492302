"""arraycav: cooperative dipole kernels, collective-mode dispersion, and
cavity optomechanics of 2D subwavelength atom arrays.

Internal units throughout: wavelength lambda = 1, free-space decay gamma = 1,
hbar = 1, time in 1/gamma.
"""

__version__ = "0.1.0"

from .config import (CavitySpec, DriveSpec, FullConfig, LatticeSpec,
                     NoiseContract, PhysicalConfig, TrapSpec,
                     default_config_text, emit_config, gamma_plus_Gamma0,
                     parse_config, validate_regime)
from .greens import kernel_fs, kernel_fs_d2z, kernel_fs_momentum
from .lattice_sums import (DispersionGrid, DispersionPoint, dispersion_curve,
                           dispersion_grid, dispersion_point)
from .confined import (KernelMatrix, ModeProfile, cavity_profile,
                       confined_kernel_paraxial, confined_table,
                       free_space_kernel, mode_decay_rate, projected_kernel,
                       projected_kernels)
from .cavity_dynamics import (FullTrajectory, SystemState, TwoModeModel,
                              build_two_mode, evolve_full, spectrum_scan,
                              steady_state_full, steady_state_two_mode)
from .optomech import (MechanicalChain, OmParams, closed_form_params,
                       coupling_matrix_C, intensity_profile,
                       k_sc_ground_state_average, mechanical_basis,
                       om_consistency)
from .om_dynamics import (OmState, OmTrajectory, evolve_chain, evolve_multimode,
                          evolve_reduced, standard_model_report)
