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
sin^2(q z0) (c/l)(gamma+Gamma)/(delta-Delta) exactly.  Its driven steady state
is one closed form over an array of cavity detunings (``_two_mode``), which
``spectrum_scan`` evaluates over its samples and ``steady_state_two_mode`` at
one delta_c.  At delta = Delta it is the dark state a = 0, s = -Omega/g_eff.
Each result checks its amplitudes once, where it is formed.

The full model is solved matrix-free, and, like every dynamics model of the
package, it starts from rest.  The drive acts on the cavity alone, so the
solution lies in the Krylov space of the generator from the cavity mode e_0:
the chain e_0, u = g/|g| (reached with coupling g_eff), and the dipole
profiles the kernel generates from u.  Its m = 2 truncation is the
two-oscillator model above, with <u|D|u> in place of the lattice-sum shift
(Chin, Rivas, Huelga & Plenio, J. Math. Phys. 51, 092109 (2010)).  The chain
grows until an a posteriori bound on the truncation error falls below
KRYLOV_TOL.  The generator's Hermitian part is -Re D (its off-diagonal
coupling is imaginary and the same in both blocks, so it cancels there),
which is negative semidefinite for a dissipative kernel; then e^{tA} does not
expand, and the error of the m-vector solution is bounded by its residual
integrated over time, beta h_{m+1,m} int_0^t |e_m^T z_m(s)| ds (Saad, SIAM J.
Numer. Anal. 29, 209 (1992); Hochbruck & Lubich, SIAM J. Numer. Anal. 34,
1911 (1997)), read from the chain's own coefficients.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._numerics import expm, open_convolve, output_times, padded_fft
from .config import FullConfig, cavity_dipole_coupling, gamma_plus_Gamma0
from .confined import KernelMatrix
from .errors import ConvergenceError, RegimeError
from .greens import GAMMA, Q
from .lattice_sums import DispersionPoint

SATURATION_WARN = 0.1    # |<s_n>| beyond this strains the linear (non-saturated) model
KRYLOV_TOL = 1e-12       # the chain's error bound, relative to max|a| and max sum|s|^2
KRYLOV_MAX_BYTES = 1 << 29   # largest Krylov basis held, complex128


@dataclass(frozen=True, eq=False)
class SystemState:
    a: complex
    sigma: object            # complex scalar (two-mode) or complex array (full)
    t: float


def _check_amplitudes(a, sigma_peak):
    """One result's amplitudes ``a`` and largest |<s_n>| ``sigma_peak`` (a bound
    serves below SATURATION_WARN) must be finite, or ConvergenceError; a peak
    beyond it warns once, at the caller of the public function that formed
    the result."""
    if not (np.all(np.isfinite(a)) and np.isfinite(sigma_peak)):
        raise ConvergenceError("non-finite amplitudes")
    if sigma_peak > SATURATION_WARN:
        warnings.warn(f"|sigma| = {sigma_peak:.3g} strains the non-saturated "
                      "(linear) dipole model", stacklevel=3)


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

    g_eff = 2 |sin q z0| sqrt(sum_n g_n^2) with the profile-summed coupling
    sum_n g_n^2 = (gamma+Gamma)(c/l)/4 (``config.cavity_dipole_coupling``);
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
    return TwoModeModel(g_eff=cavity_dipole_coupling(cfg), delta_c=cfg.drive.delta_c,
                        delta_minus_Delta=cfg.drive.delta - dispersion.delta_k,
                        kappa_c=cfg.cavity.kappa_c, Omega=cfg.drive.Omega)


def _two_mode(model: TwoModeModel, delta_c):
    """Steady state (a, sigma) of the two-oscillator model at each cavity
    detuning of the array ``delta_c``, the other parameters from ``model``:

        a = -i Omega / (kappa_c/2 - i (delta_c - g_eff^2/(delta - Delta))),
        sigma = g_eff a / (delta - Delta).

    delta = Delta pins the cavity to the dark state a = 0, s = -Omega/g_eff
    (the undamped dipole absorbs the drive).  There is no steady state with
    g_eff = 0 there as well, nor with kappa_c = 0 on the dressed resonance
    delta_c = g_eff^2/(delta - Delta); both are decided before any division.
    """
    g, dmD, omega = model.g_eff, model.delta_minus_Delta, model.Omega
    if dmD == 0.0:
        if g == 0.0 and omega != 0.0:
            raise RegimeError("undamped resonant dipole with g_eff = 0: "
                              "no steady state exists")
        return (np.zeros(delta_c.shape, dtype=complex),
                np.full(delta_c.shape, -omega / g if g else 0.0, dtype=complex))
    detuning = delta_c - g**2 / dmD
    if model.kappa_c == 0.0 and np.any(detuning == 0.0):
        raise RegimeError("undamped cavity driven on its dressed resonance "
                          "(kappa_c = 0, delta_c = g_eff^2/(delta - Delta)): "
                          "no steady state exists")
    # a drive beyond the float range overflows here; the callers check the
    # amplitudes (``_check_amplitudes``), so numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        a = -1j * omega / (model.kappa_c / 2.0 - 1j * detuning)
        return a, g * a / dmD


def steady_state_two_mode(model: TwoModeModel) -> SystemState:
    """Driven steady state of the two-oscillator model at model.delta_c
    (``_two_mode`` gives the formula and its dark and singular cases)."""
    a, sigma = _two_mode(model, np.array([model.delta_c]))
    _check_amplitudes(a, np.max(np.abs(sigma)))
    return SystemState(a=complex(a[0]), sigma=complex(sigma[0]), t=np.inf)


def spectrum_scan(model: TwoModeModel, delta_c_range, samples: int):
    """Steady-state cavity response over a detuning scan.

    Returns an array of rows (delta_c, |a|^2, arg a); dark-state points carry
    |a|^2 = 0 exactly.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    dc = np.linspace(float(delta_c_range[0]), float(delta_c_range[1]), samples)
    a, sigma = _two_mode(model, dc)
    _check_amplitudes(a, np.max(np.abs(sigma)))
    return np.column_stack([dc, np.abs(a) ** 2, np.angle(a)])


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
    """Orthonormal basis of span{v, A v, A^2 v, ...}, extended on demand: the
    Arnoldi engine of the drive's chain here and of the mechanical chain
    (``optomech.MechanicalChain``), which read their states from it.

    Arnoldi with classical Gram-Schmidt and one reorthogonalization pass.
    After m steps the rows of ``V[:m]`` span the space, ``H[:m, :m]`` is the
    projection of A onto it and ``H[m, m - 1]`` is the norm of the part of
    A v_m left outside, h_{m+1,m}.  ``invariant`` is set on a happy breakdown
    (that norm below KRYLOV_TOL of |A v_m|, or the whole space spanned): the
    projection is then exact up to the dropped part.  V[m] keeps that part's
    direction when it is nonzero, so clearing ``invariant`` carries the chain
    on.  The chain starts from start / beta, with ``beta`` the norm of
    ``start`` from the caller: the drive's chain passes |Omega|, whose square
    may overflow.
    """

    def __init__(self, apply, start, beta):
        self.dim = dim = start.size
        self.apply = apply
        self.beta = float(beta)
        self.max_m = min(dim, max(2, KRYLOV_MAX_BYTES // (16 * dim) - 1))
        self.V = np.empty((3, dim), dtype=complex)
        # numpy divides a complex array by a real through its reciprocal,
        # which overflows for a subnormal beta; scaling both by 2^64 first is
        # exact, and leaves every normal beta's quotient as it was
        beta = self.beta
        if beta < np.finfo(float).tiny:
            start, beta = start * 2.0**64, beta * 2.0**64
        self.V[0] = start / beta
        self.H = np.zeros((3, 2), dtype=complex)
        self.m = 0
        self.invariant = False

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
            self.H[j + 1, j] = norm
            if norm > 0.0:
                self.V[j + 1] = w / norm
            self.m = j + 1
            residual = norm / scale if scale > 0.0 else 0.0
            self.invariant = residual <= KRYLOV_TOL or self.m == self.dim
        return self.m


def _rel_dev(x, ref):
    scale = np.max(np.abs(ref))
    return float(np.max(np.abs(x - ref)) / scale) if scale > 0.0 else 0.0


def _error_bound(krylov, z, integral):
    """The a posteriori bound on the readouts of the unit-start coefficients
    ``z`` (one row per state), relative to their largest magnitudes.

    eps = h_{m+1,m} integral(|e_m^T z|) bounds |y - y_m| at every row, so it
    bounds the error of a, relative to max|a|, and that of sum|s|^2 by
    eps (2 max|s| + eps), relative to max sum|s|^2.  On a chain closed at the
    cavity (sum|s|^2 = 0 by construction) only the first applies, and the
    atoms hold at most (eps max|a|)^2 there.
    """
    m = z.shape[1]
    eps = krylov.H[m, m - 1].real * integral(np.abs(z[:, m - 1]))
    bound = eps / np.max(np.abs(z @ krylov.V[:m, 0]))
    s_peak = np.max(np.sum(np.abs(z[:, 1:]) ** 2, axis=1))
    if s_peak > 0.0:
        bound = max(bound, eps * (2.0 * np.sqrt(s_peak) + eps) / s_peak)
    return float(bound)


def _converge(krylov, coefficients, integral):
    """Extend the drive's chain from m = 8 basis vectors by max(8, m/4) until
    the a posteriori bound (``_error_bound``) is at most KRYLOV_TOL, or the
    whole space is spanned.  The bound reads the chain's own coefficients, so
    the chain stops near the length it needs, and the small propagations
    ``coefficients`` runs stay logarithmic in m.

    ``coefficients(H)`` gives the solution's coefficients in the basis, one
    row per state, for a unit start vector, and ``integral`` reduces the last
    one's magnitude over the rows to the bound's time integral.  The chain
    starts at the cavity mode, so a state's cavity amplitude is its
    coefficients times V[:, 0], and the later basis vectors, orthogonal to
    e_0, are pure dipole profiles: sum_n |s_n|^2 is the squared norm of the
    coefficients after the first.  A chain that closes with the bound above
    the tolerance resumes from its dropped direction.  Returns (Z, a, s2,
    error).  Readouts that overflow raise ConvergenceError at once: no longer
    chain makes them finite.
    """
    m = 8
    while True:
        m = krylov.extend(m)
        z = coefficients(krylov.H[:m, :m])
        Z = krylov.beta * z
        a = Z @ krylov.V[:m, 0]
        s2 = np.sum(np.abs(Z[:, 1:]) ** 2, axis=1)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(s2))):
            raise ConvergenceError("non-finite amplitudes")
        error = _error_bound(krylov, z, integral)
        if error <= KRYLOV_TOL or m == krylov.dim:
            return Z, a, s2, error
        if m == krylov.max_m:
            raise ConvergenceError(
                f"Krylov chain not converged to {KRYLOV_TOL:g} within m = {m} "
                "basis vectors (memory limit); shorten t_final")
        krylov.invariant = False
        m += max(8, m // 4)


def _chain_propagation(h, n_out):
    """Coefficients z(k h), k < n_out, of dz/dt = H z + e_1 from z = 0.

    One expm of the augmented (m+1)^2 matrix [[h H, h e_1], [0, 0]] is the
    propagator over one output spacing; it is applied once per output time.
    The expm is numpy's scaling and squaring (``_numerics.expm``), so the full
    model never wakes scipy's separate BLAS pool.
    """

    def coefficients(H):
        m = len(H)
        aug = np.zeros((m + 1, m + 1), dtype=complex)
        aug[:m, :m] = h * H
        aug[0, m] = h
        step = expm(aug)
        out = np.zeros((n_out, m + 1), dtype=complex)
        out[0, m] = 1.0
        for k in range(1, n_out):
            out[k] = step @ out[k - 1]
        return out[:, :m]

    return coefficients


@dataclass(frozen=True, eq=False)
class FullTrajectory(Sequence):
    """Full-model states at the output times, from rest, held in the drive's
    Krylov basis.

    ``a`` and ``sum_sigma2`` come from the chain coefficients alone, and both
    are exactly zero at t = 0; indexing or iterating gives SystemStates whose
    site amplitudes are formed then, sigma(t_k) = coefficients[k] @
    basis[:, 1:].  ``diagnostics`` holds the basis size ``krylov_m``, the
    a posteriori error bound ``krylov_error`` (``_error_bound``) against
    ``krylov_tolerance``, and ``two_mode_deviation``: the largest deviation
    of the m = 2 chain (cavity plus one collective dipole) from the converged
    cavity amplitude, relative to max |a| (None without a drive, when the
    basis is empty).
    """

    t: np.ndarray
    a: np.ndarray
    sum_sigma2: np.ndarray
    diagnostics: dict
    basis: np.ndarray            # (M, N + 1), basis vectors as rows
    coefficients: np.ndarray     # (len(t), M)

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        return SystemState(a=complex(self.a[k]),
                           sigma=self.coefficients[k] @ self.basis[:, 1:],
                           t=float(self.t[k]))


def evolve_full(cfg: FullConfig, kernel: KernelMatrix, t_final: float,
                dt_out: float) -> FullTrajectory:
    """Site-resolved linear dynamics from rest (a = 0, s = 0), sampled every
    dt_out, exact to KRYLOV_TOL.

    From rest y(t) = t phi_1(tA) c, which lives in the Krylov space of the
    generator from the drive c, i.e. from the cavity mode e_0 (the chain e_0,
    the cavity-profile dipole, ...).  It is projected onto that Arnoldi basis
    and propagated there by one small expm per output spacing; the basis grows
    until the a posteriori bound, its residual integrated over the output
    grid as an upper Riemann sum, is at most KRYLOV_TOL (``_converge``).
    Without a drive the trajectory is zero and the basis empty.  Cost
    O(m N log N + m^2 N), memory m (N + 1) complex numbers.
    """
    apply, c = _generator(cfg, kernel)
    times = output_times(t_final, dt_out)
    h = t_final / (len(times) - 1)
    if c.any():
        # as in ``_two_mode``: an overflow shows in the amplitudes' check;
        # c = -i Omega e_0 has the norm |Omega|, whose square may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            krylov = _Krylov(apply, c, abs(cfg.drive.Omega))
            propagate = _chain_propagation(h, len(times))
            coefs, a, s2, error = _converge(
                krylov, propagate, lambda x: h * np.sum(np.maximum(x[:-1], x[1:])))
            basis = krylov.V[:coefs.shape[1]]
            m2 = min(2, len(basis))
            a2 = (krylov.beta * propagate(krylov.H[:m2, :m2])) @ basis[:m2, 0]
            two_mode = _rel_dev(a2, a)
    else:
        basis = np.zeros((0, c.size), dtype=complex)
        coefs = np.zeros((len(times), 0), dtype=complex)
        a, s2 = np.zeros(len(times), dtype=complex), np.zeros(len(times))
        error, two_mode = 0.0, None
    a[0], s2[0] = 0.0, 0.0      # t = 0 is rest, exactly
    peak = np.sqrt(np.max(s2))   # bounds every |s_n|
    if peak > SATURATION_WARN:
        peak = max(np.max(np.abs(z @ basis[:, 1:])) for z in coefs)
    _check_amplitudes(a, peak)
    diagnostics = {"krylov_m": int(len(basis)),
                   "krylov_error": float(error),
                   "krylov_tolerance": KRYLOV_TOL,
                   "two_mode_deviation": two_mode}
    return FullTrajectory(t=times, a=a, sum_sigma2=s2, diagnostics=diagnostics,
                          basis=basis, coefficients=coefs)


def steady_state_full(cfg: FullConfig, kernel: KernelMatrix) -> SystemState:
    """Steady state y* = -A^{-1} c of the full linear system: the full
    orthogonalization method on the drive's chain, y* = -|c| V_m^T H_m^{-1}
    e_1, with the same stopping rule as evolve_full on its one coefficient
    row.  The bound then reads the method's residual |A y_m + c|, relative to
    |a| and sum|s|^2."""
    apply, c = _generator(cfg, kernel)
    if not c.any():
        return SystemState(a=0.0 + 0.0j, sigma=np.zeros(c.size - 1, dtype=complex),
                           t=np.inf)

    def coefficients(H):
        e1 = np.zeros(len(H), dtype=complex)
        e1[0] = 1.0
        return -np.linalg.solve(H, e1)[None, :]

    # as in ``evolve_full``
    with np.errstate(over="ignore", invalid="ignore"):
        krylov = _Krylov(apply, c, abs(cfg.drive.Omega))
        Z, _a, _s2, _err = _converge(krylov, coefficients, lambda x: x[0])
        y = Z[0] @ krylov.V[:Z.shape[1]]
    _check_amplitudes(y[0], np.max(np.abs(y[1:])))
    return SystemState(a=complex(y[0]), sigma=y[1:], t=np.inf)
