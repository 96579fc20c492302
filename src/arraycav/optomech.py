"""Optomechanical parameters of the array membrane: closed forms and their
independent numerical reconstruction through collective mechanical modes.

After eliminating the far-detuned internal states, the cavity couples linearly
(strength g ~ eta) to the single mechanical mode whose profile follows the
cavity intensity, V0_n ~ exp(-2 r^2/w^2), and quadratically (~ eta^2) to all
others.  Closed forms, with N_a = pi w^2/a^2 atoms in the waist:

    g      = sin(2 q z0) eta gbar,   gbar = (c/l) (gamma/(delta-Delta)) sqrt(N_a) 3/(q w)^2
    D_AC   = sin^2(q z0) (c/l) (gamma+Gamma)/(delta-Delta)
    k_sc   = eta^2 N_a (c/l) (gamma/(delta-Delta))^2 (eps/2)/(q w)^2,
             eps = 6 [cos^2(q z0) + (2/5) sin^2(q z0)]
    g_2    = eta^2 (c/l) (gamma/(delta-Delta)) 4 cos^2(q z0)/(q w)^2

The quadratic couplings C_{nu nu'} (~ eta^2 gbar) between collective modes
carry the same physics; summing their diagonal reproduces k_sc as
k_sc = -2 sum_{nu != 0} Re[C_nu_nu] (the nu = 0 self term, kappa_2 = -2 Re[C_00],
vanishes because the cubed Gaussian profile is still cavity-matched), and
g_2 = -Im[C_00].  The trace over the complete mode basis never needs an
explicit basis: completeness reduces every term to lattice convolutions, which
is how the large-lattice consistency checks are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import cyclic_weight_apply, open_convolve
from .config import FullConfig, LatticeSpec, gamma_plus_Gamma0
from .confined import (MAX_DENSE_SITES, KernelMatrix, confined_kernel_paraxial,
                       free_space_kernel, projected_kernel)
from .errors import ConfigError, ConvergenceError, RegimeError
from .greens import GAMMA, Q
from .lattice_sums import DispersionGrid


@dataclass(frozen=True, eq=False)
class MechanicalBasis:
    """Orthonormal collective-motion profiles; column 0 is cavity-weighted."""

    V: np.ndarray              # real N x N orthogonal, columns are modes
    completion_seed: int
    method: str = "random_orthogonal"


@dataclass(frozen=True)
class OmParams:
    g: float                   # linear optomechanical coupling, units gamma
    g_bar: float
    g2: float                  # quadratic coupling (cos^2 closed form)
    kappa_sc: float            # motion-induced cavity damping
    Delta_AC: float            # dispersive atom-induced cavity shift
    Delta_sc: float | None     # second-order shift; filled by the trace route
    eta: float
    N_a: float
    epsilon: float
    g_eff: float               # motionless cavity-dipole coupling

    def __post_init__(self):
        if not 2.4 <= self.epsilon <= 6.0:
            raise ValueError(f"epsilon = {self.epsilon} outside [2.4, 6]")
        if self.kappa_sc < 0:
            raise ValueError("kappa_sc must be >= 0")


def detuning_margin(cfg: FullConfig, Delta: float) -> float:
    gamma_coop = gamma_plus_Gamma0(cfg.lattice.a)
    rate = max(gamma_coop, cfg.trap.omega_m, cfg.cavity.kappa_c,
               abs(cfg.drive.Omega))
    return abs(cfg.drive.delta - Delta) / rate


def closed_form_params(cfg: FullConfig, Delta: float) -> OmParams:
    """Closed-form optomechanical parameter set at cooperative shift Delta.

    Requires the large-detuning margin |delta - Delta| >= 10 x the fastest
    competing rate; the internal-state elimination is meaningless otherwise.
    """
    if detuning_margin(cfg, Delta) < 10.0:
        raise RegimeError("large-detuning margin below 10: closed forms invalid")
    a, w = cfg.lattice.a, cfg.cavity.w
    qz0 = cfg.qz0
    dmD = cfg.drive.delta - Delta
    eta = cfg.trap.eta
    cl = cfg.cavity.l_fsr
    n_a = np.pi * w * w / (a * a)
    qw2 = (Q * w) ** 2
    g_bar = cl * (GAMMA / dmD) * np.sqrt(n_a) * 3.0 / qw2
    g = np.sin(2.0 * qz0) * eta * g_bar
    gamma_coop = gamma_plus_Gamma0(a)
    delta_ac = np.sin(qz0) ** 2 * cl * gamma_coop / dmD
    epsilon = 6.0 * (np.cos(qz0) ** 2 + 0.4 * np.sin(qz0) ** 2)
    kappa_sc = eta**2 * n_a * cl * (GAMMA / dmD) ** 2 * (epsilon / 2.0) / qw2
    g2 = eta**2 * cl * (GAMMA / dmD) * 4.0 * np.cos(qz0) ** 2 / qw2
    g_eff = abs(np.sin(qz0)) * np.sqrt(cl * gamma_coop)
    return OmParams(g=float(g), g_bar=float(g_bar), g2=float(g2),
                    kappa_sc=float(kappa_sc), Delta_AC=float(delta_ac),
                    Delta_sc=None, eta=eta, N_a=float(n_a),
                    epsilon=float(epsilon), g_eff=float(g_eff))


def g2_flat_profile_form(cfg: FullConfig, Delta: float) -> float:
    """Alternative quadratic-coupling value obtained by evaluating the mode-sum
    expression with the cubed-profile integral: ~ (cos^2 - sin^2) instead of
    cos^2.  The two agree where sin(q z0) = 0; both are reported, neither is
    adjudicated."""
    dmD = cfg.drive.delta - Delta
    qz0 = cfg.qz0
    return float(cfg.trap.eta**2 * cfg.cavity.l_fsr * (GAMMA / dmD) * 4.0
                 * (np.cos(qz0) ** 2 - np.sin(qz0) ** 2) / (Q * cfg.cavity.w) ** 2)


def intensity_profile(lattice: LatticeSpec, w: float):
    """Cavity-intensity mechanical profile V0_n = (2/sqrt(pi))(a/w) e^{-2 r^2/w^2}
    as an (n_side, n_side) grid; discretely normalized to sum V0^2 = 1."""
    X, Y = lattice.meshes()
    v0 = (2.0 / np.sqrt(np.pi)) * (lattice.a / w) * np.exp(-2.0 * (X**2 + Y**2) / (w * w))
    return v0 / np.linalg.norm(v0)


def mechanical_basis(lattice: LatticeSpec, w: float, completion_seed: int = 0) -> MechanicalBasis:
    """Orthonormal mechanical basis with column 0 the cavity-weighted profile.

    The remaining columns are a deterministic pseudo-random orthogonal
    completion; every reported collective quantity is completion-independent
    (trace identities), which the seed makes testable.
    """
    if lattice.extent < 4.0 * w:
        raise ConfigError(f"lattice too small: extent {lattice.extent:g} < 4 w")
    n = lattice.n_sites
    if n > MAX_DENSE_SITES:
        raise ConfigError(f"explicit basis for N = {n} refused "
                          f"(limit {MAX_DENSE_SITES}); use the trace route")
    v0 = intensity_profile(lattice, w).ravel()
    rng = np.random.default_rng(completion_seed)
    m = rng.standard_normal((n, n))
    m[:, 0] = v0
    qmat, r = np.linalg.qr(m)
    qmat = qmat * np.sign(np.diag(r))
    # QR preserves the first column direction; sign fix makes it +V0
    return MechanicalBasis(V=qmat, completion_seed=completion_seed)


# ---------------------------------------------------------------------------
# explicit (small-N) coupling matrices

def _phase_matrix(lattice: LatticeSpec):
    """F[n, k] = exp(i k . r_n) over the lattice's own discrete k grid."""
    n = lattice.n_side
    ax = lattice.axis()
    kax = 2.0 * np.pi * np.fft.fftfreq(n, d=lattice.a)
    ex = np.exp(1j * np.outer(ax, kax))
    # site index (i, j) row-major; k index (mx, my) row-major
    return np.einsum("ik,jl->ijkl", ex, ex).reshape(n * n, n * n)


def _weights(cfg: FullConfig, dispersion: DispersionGrid):
    dmD = cfg.drive.delta - dispersion.delta0
    det_k = cfg.drive.delta - dispersion.delta_k
    if np.min(np.abs(det_k)) < 3.0 * gamma_plus_Gamma0(cfg.lattice.a):
        raise RegimeError("delta - Delta_k approaches zero somewhere on the "
                          "Brillouin grid; large-detuning weights invalid")
    w1 = dmD / det_k
    w2 = dmD / det_k**2
    return dmD, w1, w2


def coupling_matrix_M(cfg: FullConfig, kernel: KernelMatrix,
                      kernel_d2: KernelMatrix, dispersion: DispersionGrid):
    """Cavity-mediated inter-atom mechanical coupling matrix (real N x N).

    M_nm = sin^2(q z0) 2 Im[D''_nm]/(q^2 (delta-Delta))
           - cos^2(q z0) (1/N) sum_k [ e^{-i k (r_n - r_m)} (delta-Delta)/(delta-Delta_k)
             + (i/2) sum_k' e^{-i k r_n} e^{i k' r_m} gamma_kk'
               (delta-Delta)/(delta-Delta_k)^2  + h.c. ]

    with gamma_kk' the momentum-space decay matrix of the projected kernel.
    The squared denominator reads a printed 'delta - Delta_k^2' as
    (delta - Delta_k)^2, the only dimensionally consistent form.  Contains no
    Lamb-Dicke factor: the coupling is per unit q z displacement.
    """
    lattice = cfg.lattice
    n = lattice.n_sites
    if kernel.kind != "projected" or kernel_d2.kind != "projected_d2z":
        raise ValueError("M requires projected kernel inputs")
    dmD, w1, w2 = _weights(cfg, dispersion)
    F = _phase_matrix(lattice)
    g2m = 2.0 * kernel.dense().real
    gamma_kk = F.conj().T @ g2m @ F / n
    p1c = (F.conj() * w1.ravel()) @ F.T / n
    t_m = (F.conj() * w2.ravel()) @ gamma_kk @ F.T / n
    qz0 = cfg.qz0
    bracket = p1c + 0.5j * t_m
    M = (np.sin(qz0) ** 2 * 2.0 * kernel_d2.dense().imag / (Q * Q * dmD)
         - np.cos(qz0) ** 2 * 2.0 * bracket.real)
    return M


def coupling_matrix_C(cfg: FullConfig, basis: MechanicalBasis,
                      kernel: KernelMatrix, kernel_d2: KernelMatrix,
                      dispersion: DispersionGrid, n_modes: int | None = None):
    """Inter-mode coupling matrix C_{nu nu'} over an explicit mechanical basis.

    ``n_modes`` truncates the basis to its first columns (mode 0 always kept);
    useful for time evolution, where the weakly coupled high modes act as an
    inert reservoir.

    C = eta^2 gbar [ i sin^2 V^T diag(V0) V
                     + sin^2 V^T (S o D'') V / (q^2 (delta-Delta))
                     - i cos^2 V^T (S o X) V ],
    S_nm = sqrt(V0_n V0_m),
    X    = P1 - (i/2) P2 Gamma2,

    where P1/P2 are the Brillouin-grid convolution kernels with weights
    (delta-Delta)/(delta-Delta_k) and (delta-Delta)/(delta-Delta_k)^2 and
    Gamma2 = 2 Re[D_projected].  Scales exactly as eta^2.
    """
    lattice = cfg.lattice
    n = lattice.n_sites
    if basis.V.shape != (n, n):
        raise ValueError("basis does not match the lattice")
    dmD, w1, w2 = _weights(cfg, dispersion)
    params = closed_form_params(cfg, dispersion.delta0)
    v0 = intensity_profile(lattice, cfg.cavity.w).ravel()
    s = np.sqrt(v0)
    S = np.outer(s, s)
    F = _phase_matrix(lattice)
    g2m = 2.0 * kernel.dense().real
    p1 = (F * w1.ravel()) @ F.conj().T / n
    p2 = (F * w2.ravel()) @ F.conj().T / n
    x3 = p1 - 0.5j * (p2 @ g2m)
    V = basis.V if n_modes is None else basis.V[:, :n_modes]
    qz0 = cfg.qz0
    sin2, cos2 = np.sin(qz0) ** 2, np.cos(qz0) ** 2
    c1 = V.T @ (v0[:, None] * V)
    c2 = V.T @ ((S * kernel_d2.dense()) @ V) / (Q * Q * dmD)
    c3 = V.T @ ((S * x3) @ V)
    C = cfg.trap.eta**2 * params.g_bar * (1j * sin2 * c1 + sin2 * c2 - 1j * cos2 * c3)
    return C


# ---------------------------------------------------------------------------
# completeness-route trace engine (no explicit basis, any lattice size)

@dataclass(frozen=True)
class OmConsistency:
    kappa_sc_closed: float
    kappa_sc_trace: float      # -2 sum_{nu != 0} Re[C_nu_nu] via completeness
    kappa_1: float             # -2 Re[sum_nu C_nu_nu]
    kappa_2: float             # -2 Re[C_00]; ~ 0 is the internal check
    Delta_sc: float            # -sum_{nu != 0} Im[C_nu_nu]
    g2_trace: float            # -Im[C_00]
    g2_closed: float           # cos^2 closed form
    g2_flat_profile: float     # (cos^2 - sin^2) variant, reported not adjudicated
    C00: complex
    trace_C: complex

    def kappa_rel_dev(self) -> float:
        return abs(self.kappa_sc_trace - self.kappa_sc_closed) / self.kappa_sc_closed

    def kappa2_fraction(self) -> float:
        return abs(self.kappa_2) / self.kappa_sc_closed


def _trace_tables(cfg: FullConfig, k_cut_abs: float):
    """Displacement tables of 2 Re[D] and D'' of the projected kernels."""
    lattice, z0 = cfg.lattice, cfg.cavity.z0
    proj = projected_kernel(free_space_kernel(lattice),
                            confined_kernel_paraxial(lattice, z0, k_cut_abs))
    proj_d2 = projected_kernel(free_space_kernel(lattice, 2),
                               confined_kernel_paraxial(lattice, z0, k_cut_abs, 2))
    return 2.0 * proj.table.real, proj_d2.table


def om_consistency(cfg: FullConfig, dispersion: DispersionGrid,
                   C: np.ndarray | None = None,
                   k_cut_abs: float | None = None) -> OmConsistency:
    """Cross-route consistency of the second-order optomechanical quantities.

    With an explicit ``C`` (small lattices) the traces are read off directly;
    otherwise completeness sum_nu V^nu (V^nu)^T = 1 collapses every
    basis-summed term to lattice convolutions of the projected-kernel tables,
    which costs O(N log N) and is exactly what any orthonormal completion
    would give.
    """
    if dispersion.a != cfg.lattice.a or dispersion.n_side != cfg.lattice.n_side:
        raise ValueError("dispersion grid does not match the lattice")
    lattice = cfg.lattice
    n_side = lattice.n_side
    n = lattice.n_sites
    dmD, w1, w2 = _weights(cfg, dispersion)
    params = closed_form_params(cfg, dispersion.delta0)
    eta2_gbar = cfg.trap.eta**2 * params.g_bar
    qz0 = cfg.qz0
    sin2, cos2 = np.sin(qz0) ** 2, np.cos(qz0) ** 2

    if C is not None:
        diag = np.diagonal(C)
        trace_c = complex(np.sum(diag))
        c00 = complex(C[0, 0])
    else:
        k_cut_abs = cfg.cavity.k_cut_abs if k_cut_abs is None else k_cut_abs
        g2_tab, d2_tab = _trace_tables(cfg, k_cut_abs)
        v0 = intensity_profile(lattice, cfg.cavity.w)
        center = n_side - 1
        # trace over the complete basis: sum_nu V^nu_n V^nu_m = delta_nm
        b1 = np.sum(v0)
        b2 = np.sum(v0) * d2_tab[center, center] / (Q * Q * dmD)
        mean_w1 = float(np.mean(w1))
        # Z_n = (1/N) sum_kk' e^{i(k-k') r_n} gamma_kk' W2_k as a lattice
        # cross-correlation: p2(d) (BZ-grid kernel) against Gamma2(-d)
        p2_tab = np.fft.ifft2(w2)
        dmod = np.arange(-(n_side - 1), n_side) % n_side
        p2_big = p2_tab[np.ix_(dmod, dmod)]
        h = p2_big * g2_tab[::-1, ::-1]
        z = open_convolve(h, np.ones((n_side, n_side)))
        b3 = np.sum(v0) * mean_w1 - 0.5j * np.sum(v0 * z)
        trace_c = complex(eta2_gbar * (1j * sin2 * b1 + sin2 * b2 - 1j * cos2 * b3))
        # C_00 through the cubed profile v = V0^{3/2}
        v = v0**1.5
        c1 = np.sum(v0**3)
        c2 = np.sum(v * open_convolve(d2_tab, v)) / (Q * Q * dmD)
        t1 = np.sum(v * cyclic_weight_apply(w1, v))
        t2 = np.sum(cyclic_weight_apply(w2, v) * open_convolve(g2_tab, v))
        c00 = complex(eta2_gbar * (1j * sin2 * c1 + sin2 * c2
                                   - 1j * cos2 * (t1 - 0.5j * t2)))

    kappa_1 = -2.0 * trace_c.real
    kappa_2 = -2.0 * c00.real
    kappa_trace = kappa_1 - kappa_2
    delta_sc = -(trace_c.imag - c00.imag)
    g2_trace = -c00.imag
    return OmConsistency(
        kappa_sc_closed=params.kappa_sc,
        kappa_sc_trace=float(kappa_trace),
        kappa_1=float(kappa_1),
        kappa_2=float(kappa_2),
        Delta_sc=float(delta_sc),
        g2_trace=float(g2_trace),
        g2_closed=params.g2,
        g2_flat_profile=g2_flat_profile_form(cfg, dispersion.delta0),
        C00=c00,
        trace_C=trace_c,
    )


def k_sc_ground_state_average(cfg: FullConfig, kernel_d2: KernelMatrix,
                              dispersion: DispersionGrid):
    """Mechanical-ground-state average of the motion-induced damping operator.

    Evaluates the three contributions with <z_n z_m> = delta_nm x0^2: the
    single-site derivative term with the free-space value Re[D''_nn] =
    -q^2 gamma/5, the profile-weighted derivative sum from the projected
    kernel (vanishingly small, returned for inspection), and the residual
    single-atom scattering term with gamma_nn = gamma.  ``kernel_d2`` is the
    projected d2z kernel; its table is contracted by FFT, at any lattice
    size.  Returns (complex average, terms dict); the real part is kappa_sc,
    the imaginary part the unretained second-order shift.
    """
    lattice = cfg.lattice
    dmD, w1, _w2 = _weights(cfg, dispersion)
    params = closed_form_params(cfg, dispersion.delta0)
    eta2_gbar = cfg.trap.eta**2 * params.g_bar
    qz0 = cfg.qz0
    sin2, cos2 = np.sin(qz0) ** 2, np.cos(qz0) ** 2
    v0 = intensity_profile(lattice, cfg.cavity.w)
    s = np.sqrt(v0)
    if kernel_d2.kind != "projected_d2z":
        raise ValueError("kernel_d2 must be the projected d2z kernel")
    quad = complex(np.sum(s * open_convolve(kernel_d2.table, s)))
    sum_v0 = float(np.sum(v0))
    term_zero_point = -2j * sin2 * eta2_gbar * sum_v0
    term_diag = 2.0 * sin2 * eta2_gbar * sum_v0 * (Q * Q * GAMMA / 5.0) / (Q * Q * dmD)
    term_mid = 2.0 * sin2 * eta2_gbar * quad / (Q * Q * dmD)
    term_w1 = 2j * cos2 * eta2_gbar * sum_v0 * float(np.mean(w1))
    term_gamma = cos2 * eta2_gbar * sum_v0 * GAMMA / dmD
    total = term_zero_point + term_diag + term_mid + term_w1 + term_gamma
    terms = {"zero_point": term_zero_point, "diagonal": term_diag,
             "profile_derivative": term_mid, "paraxial_shift": term_w1,
             "single_atom": term_gamma}
    return total, terms


def favorable_ratio(params: OmParams) -> float:
    """kappa_sc / g: algebraically equal to
    eta sqrt(N_a) (gamma/(delta-Delta)) eps / (6 sin 2 q z0), so the
    motion-induced loss stays a factor ~ eta (gamma/detuning) below the
    coupling, the membrane advantage of the ordered array."""
    if params.g == 0:
        return np.inf
    return params.kappa_sc / params.g
