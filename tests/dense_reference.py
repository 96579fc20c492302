"""Dense N x N reference formulas for the full-model generator and the
mechanical coupling matrices.

These are the explicit-matrix definitions of the generator A of the full
N-atom system and of C and M: the Brillouin-grid convolutions are built from
the phase matrix F[n, k] = exp(i k . r_n) and the kernels are materialized
with ``KernelMatrix.dense()``.  O(N^3); small lattices only.  The library
applies the same operators by FFT (and the generator on a Krylov chain); the
tests compare the two.
"""

import numpy as np

from arraycav.cavity_dynamics import coupling_profile
from arraycav.greens import Q
from arraycav.optomech import closed_form_params, intensity_profile


def full_system(cfg, kernel):
    """Generator A and drive c of the linear system y = (<a>, <s_1..N>):
    dy/dt = A y + c, as a dense (N+1) x (N+1) matrix."""
    n = kernel.n_sites
    g = coupling_profile(cfg)
    s2 = 2.0 * np.sin(cfg.qz0)
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[0, 0] = 1j * cfg.drive.delta_c - cfg.cavity.kappa_c / 2.0
    A[0, 1:] = -1j * s2 * g
    A[1:, 0] = -1j * s2 * g
    A[1:, 1:] = 1j * cfg.drive.delta * np.eye(n) - kernel.dense()
    c = np.zeros(n + 1, dtype=complex)
    c[0] = -1j * cfg.drive.Omega
    return A, c


def phase_matrix(lattice):
    """F[n, k] = exp(i k . r_n) over the lattice's own discrete k grid."""
    n = lattice.n_side
    ax = lattice.axis()
    kax = 2.0 * np.pi * np.fft.fftfreq(n, d=lattice.a)
    ex = np.exp(1j * np.outer(ax, kax))
    # site index (i, j) row-major; k index (mx, my) row-major
    return np.einsum("ik,jl->ijkl", ex, ex).reshape(n * n, n * n)


def _weights(cfg, dispersion):
    dmD = cfg.drive.delta - dispersion.delta0
    det_k = cfg.drive.delta - dispersion.delta_k
    return dmD, dmD / det_k, dmD / det_k**2


def dense_M(cfg, kernel, kernel_d2, dispersion):
    """M_nm = sin^2 2 Im[D''_nm]/(q^2 (delta-Delta))
              - cos^2 (1/N) sum_k [e^{-i k (r_n - r_m)} (delta-Delta)/(delta-Delta_k)
                + (i/2) sum_k' e^{-i k r_n} e^{i k' r_m} gamma_kk'
                  (delta-Delta)/(delta-Delta_k)^2 + h.c.],
    with gamma_kk' the momentum-space decay matrix of the projected kernel."""
    lattice = cfg.lattice
    n = lattice.n_sites
    dmD, w1, w2 = _weights(cfg, dispersion)
    F = phase_matrix(lattice)
    g2m = 2.0 * kernel.dense().real
    gamma_kk = F.conj().T @ g2m @ F / n
    p1c = (F.conj() * w1.ravel()) @ F.T / n
    t_m = (F.conj() * w2.ravel()) @ gamma_kk @ F.T / n
    qz0 = cfg.qz0
    bracket = p1c + 0.5j * t_m
    return (np.sin(qz0) ** 2 * 2.0 * kernel_d2.dense().imag / (Q * Q * dmD)
            - np.cos(qz0) ** 2 * 2.0 * bracket.real)


def dense_C(cfg, V, kernel, kernel_d2, dispersion):
    """C = eta^2 gbar [i sin^2 V^T diag(V0) V + sin^2 V^T (S o D'') V / (q^2 (delta-Delta))
                       - i cos^2 V^T (S o X) V],
    S_nm = sqrt(V0_n V0_m), X = P1 - (i/2) P2 Gamma2, over the columns of V."""
    lattice = cfg.lattice
    n = lattice.n_sites
    dmD, w1, w2 = _weights(cfg, dispersion)
    params = closed_form_params(cfg, dispersion.delta0)
    v0 = intensity_profile(lattice, cfg.cavity.w).ravel()
    s = np.sqrt(v0)
    S = np.outer(s, s)
    F = phase_matrix(lattice)
    g2m = 2.0 * kernel.dense().real
    p1 = (F * w1.ravel()) @ F.conj().T / n
    p2 = (F * w2.ravel()) @ F.conj().T / n
    x3 = p1 - 0.5j * (p2 @ g2m)
    qz0 = cfg.qz0
    sin2, cos2 = np.sin(qz0) ** 2, np.cos(qz0) ** 2
    c1 = V.T @ (v0[:, None] * V)
    c2 = V.T @ ((S * kernel_d2.dense()) @ V) / (Q * Q * dmD)
    c3 = V.T @ ((S * x3) @ V)
    return cfg.trap.eta**2 * params.g_bar * (1j * sin2 * c1 + sin2 * c2
                                             - 1j * cos2 * c3)
