"""Motionless coupled atom-cavity dynamics: full N-atom system and the
two-oscillator reduction.

In the laser-rotating frame the linear mean-value equations are

    d<a>/dt     = (i delta_c - kappa_c/2) <a> - i Omega
                  - 2 i sin(q z0) sum_n g_n <s_n>,
    d<s_n>/dt   = i delta <s_n> - 2 i g_n sin(q z0) <a> - sum_m D_nm <s_m>,

with Gaussian couplings g_n and the dipole kernel D (projected, so the cavity-
profile collective dipole does not radiate).  Projecting onto that profile and
using the flat cooperative shift near k = 0 collapses the array to a single
undamped oscillator coupled to the cavity with strength

    g_eff = 2 sin(q z0) sqrt(sum_n g_n^2),   sum_n g_n^2 = (gamma+Gamma)(c/l)/4,

whose adiabatic limit reproduces the dispersive atom-induced cavity shift
sin^2(q z0) (c/l)(gamma+Gamma)/(delta-Delta) exactly.  At delta = Delta the
driven steady state is the dark state a = 0, s = -Omega/g_eff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve

from ._numerics import output_times
from .config import FullConfig, gamma_plus_Gamma0
from .confined import KernelMatrix
from .errors import RegimeError
from .greens import GAMMA, Q
from .lattice_sums import DispersionPoint

SATURATION_WARN = 0.1    # |<s_n>| beyond this strains the linear (non-saturated) model


@dataclass(frozen=True, eq=False)
class SystemState:
    a: complex
    sigma: object            # complex scalar (two-mode) or complex array (full)
    t: float

    def __post_init__(self):
        smax = float(np.max(np.abs(self.sigma))) if np.size(self.sigma) else 0.0
        if not (np.isfinite(self.a) and np.isfinite(smax)):
            raise ValueError("non-finite amplitudes")
        if smax > SATURATION_WARN:
            warnings.warn(f"|sigma| = {smax:.3g} strains the non-saturated "
                          "(linear) dipole model", stacklevel=2)


@dataclass(frozen=True)
class TwoModeModel:
    g_eff: float                 # cavity-dipole coupling, units gamma
    delta_c: float
    delta_minus_Delta: float
    kappa_c: float
    Omega: float

    def __post_init__(self):
        if self.g_eff < 0:
            raise ValueError("g_eff must be >= 0")


def build_two_mode(cfg: FullConfig, dispersion: DispersionPoint) -> TwoModeModel:
    """Two-oscillator model from a config and the k = 0 dispersion point.

    g_eff is built from the profile-summed coupling sum_n g_n^2 =
    (gamma+Gamma)(c/l)/4, the route that reproduces the adiabatic cavity shift;
    dispersion.delta_k supplies the collective shift Delta.
    """
    if dispersion.delta_k is None:
        raise ValueError("dispersion point must carry the cooperative shift Delta")
    if cfg.cavity.w < 2.0:
        raise RegimeError("paraxial bound violated: w < 2 lambda")
    if cfg.lattice.a > 1.0:
        raise RegimeError("subwavelength bound violated: a > lambda")
    # the profile-summed coupling has the exact closed form; the dispersion
    # input must be consistent with it (it supplies Delta)
    gamma_coop = gamma_plus_Gamma0(cfg.lattice.a)
    if abs(GAMMA + dispersion.gamma_k - gamma_coop) > 1e-4 * gamma_coop:
        raise ValueError("dispersion point inconsistent with the lattice constant")
    g_eff = abs(2.0 * np.sin(cfg.qz0)) * np.sqrt(gamma_coop * cfg.cavity.l_fsr / 4.0)
    return TwoModeModel(g_eff=float(g_eff), delta_c=cfg.drive.delta_c,
                        delta_minus_Delta=cfg.drive.delta - dispersion.delta_k,
                        kappa_c=cfg.cavity.kappa_c, Omega=cfg.drive.Omega)


def steady_state_two_mode(model: TwoModeModel) -> SystemState:
    """Driven steady state of the two-oscillator model.

    delta = Delta pins the cavity to the dark state a = 0, s = -Omega/g_eff
    (the undamped dipole absorbs the drive); with g_eff = 0 as well there is no
    steady state.
    """
    dmD = model.delta_minus_Delta
    if dmD == 0.0:
        if model.g_eff == 0.0:
            if model.Omega == 0.0:
                return SystemState(a=0.0 + 0.0j, sigma=0.0 + 0.0j, t=np.inf)
            raise RegimeError("undamped resonant dipole with g_eff = 0: "
                              "no steady state exists")
        return SystemState(a=0.0 + 0.0j,
                           sigma=complex(-model.Omega / model.g_eff), t=np.inf)
    denom = model.kappa_c / 2.0 - 1j * (model.delta_c - model.g_eff**2 / dmD)
    a = -1j * model.Omega / denom
    sigma = model.g_eff * a / dmD
    return SystemState(a=complex(a), sigma=complex(sigma), t=np.inf)


def spectrum_scan(model: TwoModeModel, delta_c_range, samples: int, threads=None):
    """Steady-state cavity response over a detuning scan.

    Returns an array of rows (delta_c, |a|^2, arg a); dark-state points carry
    |a|^2 = 0 exactly.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    lo, hi = float(delta_c_range[0]), float(delta_c_range[1])
    dcs = np.linspace(lo, hi, samples)

    def one(dc):
        m = TwoModeModel(g_eff=model.g_eff, delta_c=float(dc),
                         delta_minus_Delta=model.delta_minus_Delta,
                         kappa_c=model.kappa_c, Omega=model.Omega)
        st = steady_state_two_mode(m)
        return (float(dc), float(abs(st.a) ** 2), float(np.angle(st.a)))

    if threads is not None and threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(one, dcs)))
    return np.array([one(dc) for dc in dcs])


def coupling_profile(cfg: FullConfig):
    """Gaussian atom-cavity couplings g_n (units gamma), flat over sites.

    g_n = g0 exp(-|r_n|^2/w^2) with g0^2 = (3/2)(c/l) gamma / (q w)^2, so the
    continuum profile sum reproduces sum_n g_n^2 = (gamma+Gamma)(c/l)/4.
    """
    X, Y = cfg.lattice.meshes()
    w = cfg.cavity.w
    g0 = np.sqrt(1.5 * cfg.cavity.l_fsr * GAMMA) / (Q * w)
    return (g0 * np.exp(-(X**2 + Y**2) / (w * w))).ravel()


def full_system(cfg: FullConfig, kernel: KernelMatrix):
    """Generator A and drive c of the linear system y = (<a>, <s_1..N>):
    dy/dt = A y + c.  Dense: refuses N > MAX_DENSE_SITES before allocating A."""
    n = kernel.n_sites
    if n != cfg.lattice.n_sites:
        raise ValueError("kernel size does not match the lattice")
    K = kernel.dense()
    g = coupling_profile(cfg)
    s2 = 2.0 * np.sin(cfg.qz0)
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[0, 0] = 1j * cfg.drive.delta_c - cfg.cavity.kappa_c / 2.0
    A[0, 1:] = -1j * s2 * g
    A[1:, 0] = -1j * s2 * g
    A[1:, 1:] = 1j * cfg.drive.delta * np.eye(n) - K
    c = np.zeros(n + 1, dtype=complex)
    c[0] = -1j * cfg.drive.Omega
    return A, c


def evolve_full(cfg: FullConfig, kernel: KernelMatrix, t_final: float,
                dt_out: float, a0: complex = 0.0, sigma0=None):
    """Exact site-resolved linear dynamics sampled every dt_out; returns a list
    of states.

    The solution of dy/dt = A y + c is y(t) = e^{At} (y0 - y*) + y* with the
    steady state y* = -A^{-1} c.  One propagator E = e^{A h} over the output
    spacing h of ``output_times`` is formed by scipy.linalg.expm and applied
    once per output time, so the cost is O(N^3) for expm plus one O(N^2)
    matvec per output time, independent of delta and t_final.  Peak memory
    is about eight (N+1)^2 complex arrays: A and the work arrays of expm.
    """
    A, c = full_system(cfg, kernel)
    n = kernel.n_sites
    y0 = np.zeros(n + 1, dtype=complex)
    y0[0] = a0
    if sigma0 is not None:
        y0[1:] = np.asarray(sigma0, dtype=complex)
    times = output_times(t_final, dt_out)
    y_star = lu_solve(lu_factor(A), -c)
    A *= t_final / (len(times) - 1)  # in place: spares one (N+1)^2 array
    E = expm(A)
    states = [SystemState(a=complex(y0[0]), sigma=y0[1:].copy(), t=0.0)]
    d = y0 - y_star
    for t in times[1:]:
        d = E @ d
        y = d + y_star
        states.append(SystemState(a=complex(y[0]), sigma=y[1:], t=float(t)))
    return states


def steady_state_full(cfg: FullConfig, kernel: KernelMatrix) -> SystemState:
    """Steady state of the full linear system by direct solve of A y = -c."""
    A, c = full_system(cfg, kernel)
    y = lu_solve(lu_factor(A), -c)
    return SystemState(a=complex(y[0]), sigma=y[1:], t=np.inf)


def bare_cavity_amplitude(cfg: FullConfig) -> complex:
    """Empty-cavity Lorentzian steady state -i Omega / (kappa_c/2 - i delta_c)."""
    return -1j * cfg.drive.Omega / (cfg.cavity.kappa_c / 2.0 - 1j * cfg.drive.delta_c)
