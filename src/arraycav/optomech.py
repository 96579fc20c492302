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
explicit basis: completeness reduces every term to lattice sums of radial
kernel profiles against correlations of the profile, which is how the
consistency checks are evaluated at any lattice size.  The Gaussian profile
is separable, V0 = v (x) v, so those correlations come from the 1-D factor
by 1-D transforms, with no 2-D transform on the padded grid.

Time evolution needs C only on the modes the cavity reaches.  With b(0) = 0
the multimode trajectory stays in the Krylov space of Im C started from V0,
so ``MechanicalChain`` builds those modes as a Lanczos chain of the site
operator behind Im C (the chain mapping of a harmonic bath), and C over the
chain from the same steps of one coupling operator K_c, applied by FFT to
real site fields.  The chain is the only multimode route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numerics import open_convolve_real, padded_rfft, padded_shape
from .cavity_dynamics import _Krylov
from .config import (MARGIN, FullConfig, LatticeSpec, cavity_dipole_coupling,
                     gamma_plus_Gamma0, large_detuning)
from .confined import (KernelMatrix, confined_nodes, confined_profiles,
                       octant_radii, remove_confined)
from .errors import ConfigError, RegimeError
from .greens import GAMMA, Q, kernel_fs_plane_profiles
from .lattice_sums import DispersionGrid


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


def closed_form_params(cfg: FullConfig, Delta: float) -> OmParams:
    """Closed-form optomechanical parameter set at cooperative shift Delta.

    Requires the large-detuning margin |delta - Delta| >= MARGIN x the fastest
    competing rate (``config.large_detuning``, the ``validate`` check of the
    same name); the internal-state elimination is meaningless otherwise.
    """
    detuning, rate = large_detuning(cfg, Delta)
    if not detuning / rate >= MARGIN:
        raise RegimeError(f"large-detuning margin below {MARGIN:g}: "
                          "closed forms invalid")
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
    return OmParams(g=float(g), g_bar=float(g_bar), g2=float(g2),
                    kappa_sc=float(kappa_sc), Delta_AC=float(delta_ac),
                    Delta_sc=None, eta=eta, N_a=float(n_a),
                    epsilon=float(epsilon), g_eff=cavity_dipole_coupling(cfg))


def g2_flat_profile_form(cfg: FullConfig, Delta: float) -> float:
    """Alternative quadratic-coupling value obtained by evaluating the mode-sum
    expression with the cubed-profile integral: ~ (cos^2 - sin^2) instead of
    cos^2.  The two agree where sin(q z0) = 0; both are reported, neither is
    adjudicated."""
    dmD = cfg.drive.delta - Delta
    qz0 = cfg.qz0
    return float(cfg.trap.eta**2 * cfg.cavity.l_fsr * (GAMMA / dmD) * 4.0
                 * (np.cos(qz0) ** 2 - np.sin(qz0) ** 2) / (Q * cfg.cavity.w) ** 2)


def _intensity_factor(lattice: LatticeSpec, w: float):
    """The 1-D factor v of ``intensity_profile``, V0 = v (x) v: e^{-2 x^2/w^2}
    on the lattice axis, normalized to sum v^2 = 1."""
    v = np.exp(-2.0 * lattice.axis() ** 2 / (w * w))
    return v / np.linalg.norm(v)


def intensity_profile(lattice: LatticeSpec, w: float):
    """Cavity-intensity mechanical profile V0_n = (2/sqrt(pi))(a/w) e^{-2 r^2/w^2}
    as an (n_side, n_side) grid; discretely normalized to sum V0^2 = 1.  It is
    formed as the outer product of its 1-D factor (``_intensity_factor``)."""
    v = _intensity_factor(lattice, w)
    return np.outer(v, v)


# ---------------------------------------------------------------------------
# the coupling operator K_c, applied by FFT, behind C and the chain

def _weights(cfg: FullConfig, dispersion: DispersionGrid):
    dmD = cfg.drive.delta - dispersion.delta0
    det_k = cfg.drive.delta - dispersion.delta_k
    if np.min(np.abs(det_k)) < 3.0 * gamma_plus_Gamma0(cfg.lattice.a):
        raise RegimeError("delta - Delta_k approaches zero somewhere on the "
                          "Brillouin grid; large-detuning weights invalid")
    return dmD, dmD / det_k, dmD / det_k**2


def _coupling_operator(cfg: FullConfig, dispersion: DispersionGrid,
                       g2_tab: np.ndarray, d2_tab: np.ndarray):
    """K_c on a real (n, n) site field f:

        K_c f = sin^2(q z0) D'' f / (q^2 (delta-Delta))
                - i cos^2(q z0) (P1 f - (i/2) P2 Gamma2 f),

    with D'' and Gamma2 = 2 Re[D_projected] given as displacement tables
    (``d2_tab``, ``g2_tab``) and applied by zero-padded FFT, and P1/P2 the
    Brillouin-grid convolutions with weights (delta-Delta)/(delta-Delta_k)
    and (delta-Delta)/(delta-Delta_k)^2 (a printed 'delta - Delta_k^2' read
    as the only dimensionally consistent form).

    f is real, so the operator returns the real pair (Re K_c f, Im K_c f):
    Re = sin^2 Re[D''] f / (q^2 (delta-Delta)) - (cos^2/2) P2 Gamma2 f and
    Im = sin^2 Im[D''] f / (q^2 (delta-Delta)) - cos^2 P1 f.  The three tables
    are transformed once, by padded rfft2; a field then costs one padded
    rfft2, three padded irfft2 and one n x n rfft2/irfft2 pair.
    """
    n = cfg.lattice.n_side
    dmD, w1, w2 = _weights(cfg, dispersion)
    sin2, cos2 = np.sin(cfg.qz0) ** 2, np.cos(cfg.qz0) ** 2
    scale = sin2 / (Q * Q * dmD)
    tables = padded_rfft(np.stack([g2_tab, scale * d2_tab.real,
                                   scale * d2_tab.imag]), n)
    # P1 and P2 act on the n x n half spectrum of rfft2: exact, because
    # Delta_k is even in k, so w1 and w2 are real and even and map the
    # Hermitian spectrum of a real field to a Hermitian spectrum
    half = n // 2 + 1
    brillouin = np.stack([-cos2 * w1[:, :half], -0.5 * cos2 * w2[:, :half]])

    def apply(f):
        ff = padded_rfft(f, n)
        g = open_convolve_real(tables[0], ff, n)
        p1f, p2g = np.fft.irfft2(brillouin * np.fft.rfft2(np.stack([f, g])), s=(n, n))
        return (open_convolve_real(tables[1], ff, n) + p2g,
                open_convolve_real(tables[2], ff, n) + p1f)

    return apply


class MechanicalChain:
    """The mechanical modes the cavity reaches from rest, as a Lanczos chain,
    and the coupling matrix C over them.

    With b(0) = 0 the multimode trajectory stays in the Krylov space of Im C
    started from the cavity-matched mode V0: the b equation is driven by V0
    and by Im C x, and the a equation needs only x.C.x on that space.  In
    site space Im C is the real symmetric
    S = eta^2 gbar [sin^2 diag(V0) + diag(s) Im K_c diag(s)], s = sqrt(V0),
    so the modes are the Lanczos chain of S from V0: the chain mapping of a
    harmonic bath (Chin, Rivas, Huelga & Plenio, J. Math. Phys. 51, 092109
    (2010)).  Each step sends one field through K_c; ``_Krylov`` grows the
    chain with full reorthogonalization and marks an invariant span.  C over
    the chain needs no further K_c work: Im C is eta^2 gbar times the Lanczos
    projection H, and Re C comes from the Re K_c fields of the same steps,
    which the chain keeps (N reals per mode, half the chain's own storage).
    """

    def __init__(self, cfg: FullConfig, kernel: KernelMatrix,
                 kernel_d2: KernelMatrix, dispersion: DispersionGrid):
        if cfg.lattice.extent < 4.0 * cfg.cavity.w:
            raise ConfigError(f"lattice too small: extent {cfg.lattice.extent:g} < 4 w")
        n = cfg.lattice.n_side
        op = _coupling_operator(cfg, dispersion, 2.0 * kernel.table.real,
                                kernel_d2.table)
        v0 = intensity_profile(cfg.lattice, cfg.cavity.w).ravel()
        self._s = s = np.sqrt(v0)
        self._scale = cfg.trap.eta**2 * closed_form_params(cfg, dispersion.delta0).g_bar
        self._re_kf = re_kf = []       # Re K_c (s o v_j), one row per mode
        sin2 = np.sin(cfg.qz0) ** 2

        def apply(v):
            # S v without the factor eta^2 gbar, which leaves the span as is
            f = s * v.real
            re_kf_v, im_kf_v = op(f.reshape(n, n))
            re_kf.append(re_kf_v.ravel())
            return (s * (im_kf_v.ravel() + sin2 * f)).astype(complex)

        self._krylov = _Krylov(apply, v0.astype(complex))

    @property
    def invariant(self) -> bool:
        """Whether the chain has closed: its modes span the whole trajectory."""
        return self._krylov.invariant

    @property
    def max_modes(self) -> int:
        """The longest chain held (``_Krylov``'s memory limit)."""
        return self._krylov.max_m

    def modes(self, m: int) -> np.ndarray:
        """The first m chain modes, fewer once the span is invariant or at
        ``max_modes``, as the real N x m array of orthonormal columns; column 0
        is V0."""
        count = min(m, self._krylov.extend(m))     # extend may reallocate V
        return self._krylov.V[:count].real.T

    def couplings(self, m: int) -> np.ndarray:
        """C = eta^2 gbar [i sin^2 V^T diag(V0) V + (s o V)^T K_c (s o V)] over
        the first m chain modes V, from the chain's own steps:
        Im C = eta^2 gbar H, and Re C = eta^2 gbar (s o V)^T Re K_c (s o V)."""
        V = self.modes(m).T
        m = len(V)
        C = np.empty((m, m), dtype=complex)
        C.real = (self._s * V) @ np.array(self._re_kf[:m]).T
        C.imag = self._krylov.H[:m, :m].real
        return self._scale * C


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
    # stage work sizes and convergence: the Ewald shell residual (units gamma),
    # the confined quadrature's node count, its Chebyshev panel count, degree
    # and relative coefficient tail, the distinct-radius count and the
    # octant offsets every lattice sum runs over
    diagnostics: dict = field(default_factory=dict)

    def kappa_rel_dev(self) -> float:
        return abs(self.kappa_sc_trace - self.kappa_sc_closed) / self.kappa_sc_closed

    def kappa2_fraction(self) -> float:
        return abs(self.kappa_2) / self.kappa_sc_closed


def _trace_profiles(cfg: FullConfig, k_cut_abs: float):
    """Radial profiles of Gamma2 = 2 Re[D] and of D'' of the projected
    kernels over the distinct lattice radii, the octant radius index, and
    the work sizes of the profile stage.

    The confined pair shares one J0 pass at the Chebyshev points of its
    panels (``confined_profiles``), whose count, degree and coefficient tail
    are recorded next to the node count; the free-space pair shares one
    closed-form evaluation (``kernel_fs_plane_profiles``).
    """
    rho, offsets, index, multiplicity = octant_radii(cfg.lattice)
    nodes = confined_nodes(k_cut_abs, float(rho[-1]))
    sizes = {"confined_nodes": nodes}
    conf, conf_d2 = confined_profiles(rho, k_cut_abs, nodes=nodes, diagnostics=sizes)
    sizes.update(distinct_radii=int(rho.size), octant_offsets=int(index.size))
    fs, fs_d2 = kernel_fs_plane_profiles(rho)
    g2_prof = 2.0 * remove_confined(fs, conf).real
    d2_prof = remove_confined(fs_d2, conf_d2)
    return g2_prof, d2_prof, (offsets, index, multiplicity), sizes


def _radial_contract(profile, octant, values):
    """sum_d T(d) c(d) over the displacements d of the open window, for the
    radial table T of ``profile`` and a D4-symmetric field c given by its
    ``values`` at the octant offsets: the profile against the per-radius sums
    of c, each offset weighted by its orbit size.  The sum over radii is
    pairwise (``np.sum``): a one-pass dot product cost up to 2.5e-15 of the
    trace's Z sum at n_side 128."""
    _, index, multiplicity = octant
    return np.sum(profile * np.bincount(index, weights=multiplicity * values))


def _suffix_sums(v):
    """r_i = sum_{x >= i} v_x: a cumulative sum from the end plus the running
    sum of each step's exact rounding error (TwoSum, Knuth), to ~1 ulp where
    the plain running sum loses ~sqrt(n) ulp (~1e-15 of kappa_1 at n_side
    128)."""
    x = v[::-1]
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    t = s - prev
    err = (prev - (s - t)) + (x - t)
    return (s + np.cumsum(err))[::-1]


def _correlate_rows(x, u_conj):
    """c[:, d] = sum_p x[:, p + d] u[p] along the rows of the (n, n) array x,
    for the lags d = 0..n-1, given ``u_conj``, the conjugate padded ``rfft``
    of u: one batched 1-D transform pair of the open-convolution length, so
    the cyclic wrap never reaches the lags kept."""
    n = x.shape[-1]
    nf = padded_shape(n)[0]
    return np.fft.irfft(np.fft.rfft(x, nf) * u_conj, nf)[:, :n]


def om_consistency(cfg: FullConfig, dispersion: DispersionGrid,
                   k_cut_abs: float | None = None) -> OmConsistency:
    """Cross-route consistency of the second-order optomechanical quantities.

    Completeness sum_nu V^nu (V^nu)^T = 1 collapses every basis-summed term
    to lattice sums, which is exactly what any orthonormal completion would
    give.  Every term is a quadratic form in radial kernel profiles, so no
    displacement table is transformed.  The route relies on the cavity
    profile being separable: ``intensity_profile`` is exactly v (x) v, so
    f = s o V0 = u (x) u with s = sqrt(V0) and u = v^{3/2}.  Then:

    - f . (T f) for a radial table T is sum_d T(d) A(d), with the
      autocorrelation A(i, j) = a_i a_j of f from the 1-D autocorrelation a
      of u, contracted with the Re D'' and Im D'' profiles per radius;
    - f . P2 (Gamma2 f) = (P2 f) . (Gamma2 f) is Gamma2 contracted with the
      cross-correlation of P2 f and f: P2 f correlated with u along each axis
      in turn, by batched 1-D transforms of the padded length;
    - P2 f is one n x n inverse transform of the P2 weights times the
      transform of f, the outer product U (x) U[:n/2 + 1] of U = fft(u);
    - f . P1 f = (1/N) sum_k W1_k |U_kx|^2 |U_ky|^2 (Parseval) and
      f . f = (u . u)^2 need no transform of their own;
    - sum_p V0_p Z_p = sum_d p2(d) Gamma2(d) W(d), with the window sums of
      V0 W(i, j) = r_i r_j, r the suffix sums of v, and p2 the n-periodic
      inverse transform of the P2 weights (real, as they are real and even),
      formed in the same n x n inverse as P2 f.

    Every field contracted over the displacements (the correlations, W, p2
    and the radial tables) is invariant under the eight symmetries of the
    square, because V0 and the Brillouin-grid weights are.  So each lattice
    sum runs over the octant 0 <= j <= i < n with orbit multiplicities
    (``confined.octant_radii``), an eighth of the (2n - 1)^2 displacements.
    No 2-D transform on the padded grid: O(N log N) time, O(N) memory.  The
    contractions are pairwise ``np.sum``, not BLAS dots, which accumulate in
    one pass and, threaded, can wait milliseconds for idle worker threads.
    ``k_cut_abs`` overrides the confinement cutoff (default the config's).
    """
    if dispersion.a != cfg.lattice.a or dispersion.n_side != cfg.lattice.n_side:
        raise ValueError("dispersion grid does not match the lattice")
    lattice = cfg.lattice
    n = lattice.n_side
    nf = padded_shape(n)[0]
    dmD, w1, w2 = _weights(cfg, dispersion)
    params = closed_form_params(cfg, dispersion.delta0)
    eta2_gbar = cfg.trap.eta**2 * params.g_bar
    sin2, cos2 = np.sin(cfg.qz0) ** 2, np.cos(cfg.qz0) ** 2

    k_cut_abs = cfg.cavity.k_cut_abs if k_cut_abs is None else k_cut_abs
    g2_prof, d2_prof, octant, sizes = _trace_profiles(cfg, k_cut_abs)
    diagnostics = {"dispersion_residual": dispersion.residual, **sizes}
    (i, j), _, _ = octant
    v = _intensity_factor(lattice, cfg.cavity.w)
    u = np.sqrt(v) * v
    u_hat = np.fft.fft(u)
    half = n // 2 + 1
    w2_half = w2[:, :half]
    p2, p2f = np.fft.irfft2(np.stack([w2_half, w2_half * u_hat[:, None] * u_hat[:half]]),
                            s=(n, n))

    # trace over the complete basis: sum_nu V^nu_n V^nu_m = delta_nm
    r = _suffix_sums(v)
    sum_v0 = np.sum(v) ** 2
    b2 = sum_v0 * d2_prof[0] / (Q * Q * dmD)
    # Z_n = (1/N) sum_kk' e^{i(k-k') r_n} gamma_kk' W2_k as a lattice
    # cross-correlation of p2(d) (BZ-grid kernel) against Gamma2(-d); its
    # V0-weighted sum over the octant offsets, which lie inside one period
    # of p2
    z_term = _radial_contract(g2_prof, octant, p2[i, j] * r[i] * r[j])
    b3 = sum_v0 * float(np.mean(w1)) - 0.5j * z_term
    trace_c = complex(eta2_gbar * (1j * sin2 * sum_v0 + sin2 * b2 - 1j * cos2 * b3))

    # C_00 as quadratic forms of f = u (x) u: the autocorrelation of f meets
    # Re D'' and Im D'', the cross-correlation of P2 f and f meets Gamma2
    u_conj = np.fft.rfft(u, nf).conj()
    a = np.fft.irfft(u_conj * u_conj.conj(), nf)[:n]
    d2_term = _radial_contract(d2_prof, octant, a[i] * a[j])
    # rows, then the rows of the transpose: cross_t[j, i] = (P2 f * f)(i, j)
    cross_t = _correlate_rows(np.ascontiguousarray(_correlate_rows(p2f, u_conj).T),
                              u_conj)
    g2_term = _radial_contract(g2_prof, octant, cross_t[j, i])
    power = (u_hat * u_hat.conj()).real
    p1_term = np.sum(np.sum(w1 * power, axis=1) * power) / (n * n)
    uu = np.sum(u * u)
    scale = sin2 / (Q * Q * dmD)
    c00_re = scale * d2_term.real - 0.5 * cos2 * g2_term
    c00_im = scale * d2_term.imag - cos2 * p1_term + sin2 * uu * uu
    c00 = complex(eta2_gbar * complex(c00_re, c00_im))

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
        diagnostics=diagnostics,
    )
