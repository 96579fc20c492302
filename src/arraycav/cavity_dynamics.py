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

The full model is solved matrix-free.  The drive acts on the cavity alone, so
the driven solution lies in the Krylov space of the generator from the cavity
mode e_0: the chain e_0, u = g/|g| (reached with coupling g_eff), and the
dipole profiles the kernel generates from u.  Its m = 2 truncation is the
two-oscillator model above, with <u|D|u> in place of the lattice-sum shift;
the chain grows until longer truncations stop changing the result (Chin,
Rivas, Huelga & Plenio, J. Math. Phys. 51, 092109 (2010); Saad, SIAM J.
Numer. Anal. 29, 209 (1992)).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._numerics import open_convolve, output_times, padded_fft
from .config import FullConfig, gamma_plus_Gamma0
from .confined import KernelMatrix
from .errors import ConvergenceError, RegimeError
from .greens import GAMMA, Q
from .lattice_sums import DispersionPoint

SATURATION_WARN = 0.1    # |<s_n>| beyond this strains the linear (non-saturated) model
KRYLOV_TOL = 1e-12       # relative agreement of the m- and 2m-vector chains
KRYLOV_MAX_BYTES = 1 << 29   # largest Krylov basis held, complex128


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


def spectrum_scan(model: TwoModeModel, delta_c_range, samples: int):
    """Steady-state cavity response over a detuning scan.

    Returns an array of rows (delta_c, |a|^2, arg a); dark-state points carry
    |a|^2 = 0 exactly.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rows = []
    for dc in np.linspace(float(delta_c_range[0]), float(delta_c_range[1]), samples):
        m = TwoModeModel(g_eff=model.g_eff, delta_c=float(dc),
                         delta_minus_Delta=model.delta_minus_Delta,
                         kappa_c=model.kappa_c, Omega=model.Omega)
        st = steady_state_two_mode(m)
        rows.append((float(dc), float(abs(st.a) ** 2), float(np.angle(st.a))))
    return np.array(rows)


def coupling_profile(cfg: FullConfig):
    """Gaussian atom-cavity couplings g_n (units gamma), flat over sites.

    g_n = g0 exp(-|r_n|^2/w^2) with g0^2 = (3/2)(c/l) gamma / (q w)^2, so the
    continuum profile sum reproduces sum_n g_n^2 = (gamma+Gamma)(c/l)/4.
    """
    X, Y = cfg.lattice.meshes()
    w = cfg.cavity.w
    g0 = np.sqrt(1.5 * cfg.cavity.l_fsr * GAMMA) / (Q * w)
    return (g0 * np.exp(-(X**2 + Y**2) / (w * w))).ravel()


def _generator(cfg: FullConfig, kernel: KernelMatrix):
    """Matrix-free generator of the linear system y = (<a>, <s_1..N>):
    dy/dt = A y + c.  Returns (apply, c) with apply(y) = A y; the kernel acts
    through its displacement table by zero-padded FFT, transformed once."""
    n = kernel.n_side
    if kernel.n_sites != cfg.lattice.n_sites:
        raise ValueError("kernel size does not match the lattice")
    alpha = 1j * cfg.drive.delta_c - cfg.cavity.kappa_c / 2.0
    coup = -2j * np.sin(cfg.qz0) * coupling_profile(cfg)
    i_delta = 1j * cfg.drive.delta
    table = kernel.table
    table_fft = padded_fft(table)

    def apply(y):
        s = y[1:]
        out = np.empty_like(y)
        out[0] = alpha * y[0] + coup @ s
        out[1:] = (coup * y[0] + i_delta * s
                   - open_convolve(table, s.reshape(n, n), table_fft).ravel())
        return out

    c = np.zeros(n * n + 1, dtype=complex)
    c[0] = -1j * cfg.drive.Omega
    return apply, c


class _Krylov:
    """Orthonormal basis of span{v, A v, A^2 v, ...}, extended on demand.

    Arnoldi with classical Gram-Schmidt and one reorthogonalization pass.
    After m steps the rows of ``V[:m]`` span the space and ``H[:m, :m]`` is
    the projection of A onto it.  ``invariant`` is set on a happy breakdown
    (the next residual below KRYLOV_TOL of |A v_m|, or the whole space
    spanned): the projection is then exact.
    """

    def __init__(self, apply, start, cavity_start=False):
        self.dim = dim = start.size
        self.apply = apply
        self.beta = float(np.linalg.norm(start))
        self.cavity_start = cavity_start   # start = e_0 times a phase
        self.max_m = min(dim, max(2, KRYLOV_MAX_BYTES // (16 * dim) - 1))
        self.V = np.empty((3, dim), dtype=complex)
        self.V[0] = start / self.beta
        self.H = np.zeros((3, 2), dtype=complex)
        self.m = 0
        self.invariant = False
        self.residual = np.inf

    def extend(self, m):
        """Grow the basis to m vectors (fewer once invariant, at most max_m);
        returns the basis size."""
        m = min(m, self.max_m)
        if m + 1 > len(self.V):
            V = np.empty((m + 1, self.dim), dtype=complex)
            V[:self.m + 1] = self.V[:self.m + 1]
            H = np.zeros((m + 1, m), dtype=complex)
            H[:self.m + 1, :self.m] = self.H[:self.m + 1, :self.m]
            self.V, self.H = V, H
        while self.m < m and not self.invariant:
            j = self.m
            basis = self.V[:j + 1]
            w = self.apply(basis[j])
            scale = np.linalg.norm(w)
            h = np.conj(basis @ np.conj(w))
            w -= h @ basis
            dh = np.conj(basis @ np.conj(w))
            w -= dh @ basis
            self.H[:j + 1, j] = h + dh
            norm = np.linalg.norm(w)
            self.residual = norm / scale if scale > 0.0 else 0.0
            self.m = j + 1
            if self.residual <= KRYLOV_TOL or self.m == self.dim:
                self.invariant = True
            else:
                self.H[j + 1, j] = norm
                self.V[j + 1] = w / norm
        return self.m

    def readout(self, Z):
        """Cavity amplitude and sum_n |s_n|^2 of the states Z @ V, one row of
        coefficients per state."""
        V = self.V[:Z.shape[1]]
        a = Z @ V[:, 0]
        if self.cavity_start:
            # later basis vectors are orthogonal to e_0: no cavity component
            s2 = np.sum(np.abs(Z[:, 1:]) ** 2, axis=1)
        else:
            s2 = np.sum(np.abs(Z @ V[:, 1:]) ** 2, axis=1)
        return a, s2


def _rel_dev(x, ref):
    scale = np.max(np.abs(ref))
    return float(np.max(np.abs(x - ref)) / scale) if scale > 0.0 else 0.0


def _converge(krylov, coefficients):
    """Extend the chain to m = 2, 4, 8, ... basis vectors until the readouts
    (a and sum |s|^2, each relative to its largest magnitude) from m and 2m
    vectors agree to KRYLOV_TOL, or the span is invariant.

    ``coefficients(H)`` gives the solution's coefficients in the basis, one
    row per state, for a unit start vector.  Returns (Z, a, s2, error, a2)
    with a2 the cavity amplitude of the m = 2 truncation.
    """
    m, prev, a2 = 2, None, None
    while True:
        m = krylov.extend(m)
        Z = krylov.beta * coefficients(krylov.H[:m, :m])
        a, s2 = krylov.readout(Z)
        if a2 is None:
            a2 = a
        if krylov.invariant:
            return Z, a, s2, krylov.residual, a2
        if prev is not None:
            error = max(_rel_dev(prev[0], a), _rel_dev(prev[1], s2))
            if error <= KRYLOV_TOL:
                return Z, a, s2, error, a2
        if m == krylov.max_m:
            raise ConvergenceError(
                f"Krylov chain not converged to {KRYLOV_TOL:g} within m = {m} "
                "basis vectors (memory limit); shorten t_final")
        prev = (a, s2)
        m *= 2


def _chain_propagation(h, n_out, driven):
    """Coefficients z(k h), k < n_out, of dz/dt = H z + e_1 from z = 0
    (``driven``) or of dz/dt = H z from z = e_1.

    One expm of the augmented (m+1)^2 matrix [[h H, h e_1], [0, 0]] is the
    propagator over one output spacing; it is applied once per output time.
    """
    from scipy.linalg import expm   # lazy: full model only

    def coefficients(H):
        m = len(H)
        aug = np.zeros((m + 1, m + 1), dtype=complex)
        aug[:m, :m] = h * H
        w = np.zeros(m + 1, dtype=complex)
        if driven:
            aug[0, m] = h
            w[m] = 1.0
        else:
            w[0] = 1.0
        step = expm(aug)
        out = np.empty((n_out, m + 1), dtype=complex)
        out[0] = w
        for k in range(1, n_out):
            out[k] = step @ out[k - 1]
        return out[:, :m]

    return coefficients


@dataclass(frozen=True, eq=False)
class FullTrajectory(Sequence):
    """Full-model states at the output times, held in the Krylov basis.

    ``a`` and ``sum_sigma2`` come from the chain coefficients alone; indexing
    or iterating gives SystemStates whose site amplitudes are formed then,
    sigma(t_k) = coefficients[k] @ basis[:, 1:].  ``diagnostics`` holds the
    basis size ``krylov_m``, the convergence estimate ``krylov_error`` against
    ``krylov_tolerance``, and ``two_mode_deviation``: the largest deviation of
    the m = 2 chain (cavity plus one collective dipole) from the converged
    cavity amplitude, relative to max |a| (None without a drive).
    """

    t: np.ndarray
    a: np.ndarray
    sum_sigma2: np.ndarray
    diagnostics: dict
    basis: np.ndarray            # (M, N + 1), basis vectors as rows
    coefficients: np.ndarray     # (len(t), M)
    initial: SystemState

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        k = range(len(self.t))[k]
        if k == 0:
            return self.initial
        return SystemState(a=complex(self.a[k]),
                           sigma=self.coefficients[k] @ self.basis[:, 1:],
                           t=float(self.t[k]))


def evolve_full(cfg: FullConfig, kernel: KernelMatrix, t_final: float,
                dt_out: float, a0: complex = 0.0, sigma0=None) -> FullTrajectory:
    """Site-resolved linear dynamics sampled every dt_out, exact to KRYLOV_TOL.

    By linearity y(t) = t phi_1(tA) c + e^{At} y0.  Each term lives in a
    Krylov space: the drive's from the cavity mode e_0 (the chain e_0, the
    cavity-profile dipole, ...), the initial state's from y0.  Each is
    projected onto its Arnoldi basis and propagated there by one small expm
    per output spacing; the basis grows until the m- and 2m-vector results
    agree.  Cost O(m N log N + m^2 N), memory m (N + 1) complex numbers.
    """
    apply, c = _generator(cfg, kernel)
    times = output_times(t_final, dt_out)
    h = t_final / (len(times) - 1)
    y0 = np.zeros_like(c)
    y0[0] = a0
    if sigma0 is not None:
        y0[1:] = np.asarray(sigma0, dtype=complex)
    initial = SystemState(a=complex(y0[0]), sigma=y0[1:].copy(), t=0.0)
    chains, errors, two_mode = [], [], None
    if c.any():
        krylov = _Krylov(apply, c, cavity_start=True)
        Z, a, s2, err, a2 = _converge(krylov, _chain_propagation(h, len(times), True))
        chains.append((krylov.V[:Z.shape[1]], Z))
        errors.append(err)
        two_mode = _rel_dev(a2, a)
    if y0.any():
        krylov = _Krylov(apply, y0)
        Z, a, s2, err, _ = _converge(krylov, _chain_propagation(h, len(times), False))
        chains.append((krylov.V[:Z.shape[1]], Z))
        errors.append(err)
    basis = np.concatenate([V for V, _ in chains]
                           or [np.zeros((0, c.size), dtype=complex)])
    coefs = np.concatenate([Z for _, Z in chains]
                           or [np.zeros((len(times), 0), dtype=complex)], axis=1)
    if len(chains) != 1:
        # two bases are not mutually orthogonal: sum over the site amplitudes
        a = coefs @ basis[:, 0]
        s2 = np.sum(np.abs(coefs @ basis[:, 1:]) ** 2, axis=1)
    a[0], s2[0] = initial.a, np.sum(np.abs(initial.sigma) ** 2)
    if np.max(s2) > SATURATION_WARN ** 2:   # else no |s_n| can exceed it
        peak = max(np.max(np.abs(z @ basis[:, 1:])) for z in coefs)
        if peak > SATURATION_WARN:
            warnings.warn(f"|sigma| = {peak:.3g} strains the non-saturated "
                          "(linear) dipole model", stacklevel=2)
    diagnostics = {"krylov_m": int(len(basis)),
                   "krylov_error": float(max(errors, default=0.0)),
                   "krylov_tolerance": KRYLOV_TOL,
                   "two_mode_deviation": two_mode}
    return FullTrajectory(t=times, a=a, sum_sigma2=s2, diagnostics=diagnostics,
                          basis=basis, coefficients=coefs, initial=initial)


def steady_state_full(cfg: FullConfig, kernel: KernelMatrix) -> SystemState:
    """Steady state y* = -A^{-1} c of the full linear system, exact to
    KRYLOV_TOL: the full orthogonalization method on the drive's chain,
    y* = -|c| V_m^T H_m^{-1} e_1, with the same stopping rule as evolve_full."""
    apply, c = _generator(cfg, kernel)
    if not c.any():
        return SystemState(a=0.0 + 0.0j, sigma=np.zeros(c.size - 1, dtype=complex),
                           t=np.inf)
    krylov = _Krylov(apply, c, cavity_start=True)

    def coefficients(H):
        e1 = np.zeros(len(H), dtype=complex)
        e1[0] = 1.0
        return -np.linalg.solve(H, e1)[None, :]

    Z, _a, _s2, _err, _ = _converge(krylov, coefficients)
    y = Z[0] @ krylov.V[:Z.shape[1]]
    return SystemState(a=complex(y[0]), sigma=y[1:], t=np.inf)


def bare_cavity_amplitude(cfg: FullConfig) -> complex:
    """Empty-cavity Lorentzian steady state -i Omega / (kappa_c/2 - i delta_c)."""
    return -1j * cfg.drive.Omega / (cfg.cavity.kappa_c / 2.0 - 1j * cfg.drive.delta_c)
