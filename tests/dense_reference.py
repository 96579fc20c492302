"""Dense N x N reference formulas: lattice kernels, the full-model generator,
the mechanical coupling matrix, the box-sum trace, the trace engine over every
displacement and a Hermite-Gauss confined-kernel oracle; and the
complete-basis multimode route the mechanical chain is tested against.

These are the explicit-matrix definitions of the kernel K[n, m], of the
generator A of the full N-atom system and of C: the Brillouin-grid
convolutions are built from the phase matrix F[n, k] = exp(i k . r_n) and the
kernels are materialized from their displacement tables by ``dense``.
O(N^3); small lattices only.  The library applies the same operators by FFT
(and the generator on a Krylov chain); the tests compare the two.

The complete-basis route is a seeded orthonormal mechanical basis
(``mechanical_basis``), C over it from ``dense_C``, the multimode model over
those modes from any start (``evolve_multimode``) and its conserved
Hamiltonian (``energy_functional``).  ``k_sc_ground_state_average`` is an
independent route to kappa_sc, ``bare_cavity_amplitude`` the empty-cavity
steady state and ``two_mode_steady_state`` the two-oscillator steady state
one detuning at a time in scalar arithmetic.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import eval_hermite

from arraycav._numerics import open_convolve, padded_rfft, padded_shape
from arraycav.cavity_dynamics import coupling_profile
from arraycav.confined import lattice_radii, projected_kernels, projected_profiles
from arraycav.errors import RegimeError
from arraycav.greens import GAMMA, LAMBDA, Q
from arraycav.om_dynamics import RTOL, _integrate, _trajectory
from arraycav.optomech import closed_form_params, intensity_profile


def dense(kernel):
    """The N x N matrix K[n, m] = table[i_n - i_m, j_n - j_m] of a KernelMatrix,
    row-major sites.  Gathered from a strided window view of the table, so the
    N x N result is the only O(N^2) allocation."""
    n = kernel.n_side
    win = sliding_window_view(kernel.table[::-1, ::-1], (n, n))
    return win[::-1, ::-1].reshape(n * n, n * n)


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
    A[1:, 1:] = 1j * cfg.drive.delta * np.eye(n) - dense(kernel)
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
    g2m = 2.0 * dense(kernel).real
    p1 = (F * w1.ravel()) @ F.conj().T / n
    p2 = (F * w2.ravel()) @ F.conj().T / n
    x3 = p1 - 0.5j * (p2 @ g2m)
    qz0 = cfg.qz0
    sin2, cos2 = np.sin(qz0) ** 2, np.cos(qz0) ** 2
    c1 = V.T @ (v0[:, None] * V)
    c2 = V.T @ ((S * dense(kernel_d2)) @ V) / (Q * Q * dmD)
    c3 = V.T @ ((S * x3) @ V)
    return cfg.trap.eta**2 * params.g_bar * (1j * sin2 * c1 + sin2 * c2
                                             - 1j * cos2 * c3)


def mechanical_basis(lattice, w, completion_seed=0, n_modes=None):
    """Orthonormal mechanical basis, the real N x n_modes array (default all
    N) whose columns are modes: column 0 the cavity-weighted profile V0, the
    rest a seeded pseudo-random orthogonal completion.  Column j depends only
    on the draws of columns 0..j, so a thin basis is the full one's first
    columns; every collective quantity is completion-independent."""
    v0 = intensity_profile(lattice, w).ravel()
    rng = np.random.default_rng(completion_seed)
    draw = rng.standard_normal((v0.size, n_modes or v0.size))
    draw[:, 0] = v0
    qmat, r = np.linalg.qr(draw)
    return qmat * np.sign(np.diag(r))     # column 0 is +V0


def evolve_multimode(cfg, params, C, t_final, dt_out, a0=0.0 + 0.0j, b0=None,
                     rtol=RTOL):
    """The multimode mean-field model over the modes of C from (a0, b0), on
    the integrator of ``om_dynamics.evolve_chain``; returns an OmTrajectory."""
    C = np.asarray(C, dtype=complex)
    y0 = np.zeros((1, len(C) + 1), dtype=complex)
    y0[0, 0] = a0
    if b0 is not None:
        y0[0, 1:] = b0
    times, states, rhs_evals = _integrate(cfg, params, C[None], t_final, dt_out,
                                          y0, rtol)
    return _trajectory(times, states[:, 0], rhs_evals)


def energy_functional(state, cfg, params, C):
    """Hamiltonian functional of the conservative multimode subsystem: only
    the symmetrized Im[C] enters, so C may be the full coupling matrix."""
    x = 2.0 * state.b.real
    n_ph = abs(state.a) ** 2
    im_s = 0.5 * (np.asarray(C).imag + np.asarray(C).imag.T)
    return float(-(cfg.drive.delta_c - params.Delta_AC) * n_ph
                 + cfg.trap.omega_m * np.sum(np.abs(state.b) ** 2)
                 + params.g * x[0] * n_ph - (x @ im_s @ x) * n_ph)


def k_sc_ground_state_average(cfg, kernel_d2, dispersion):
    """Mechanical-ground-state average of the motion-induced damping operator.

    Evaluates the three contributions with <z_n z_m> = delta_nm x0^2: the
    single-site derivative term with the free-space value Re[D''_nn] =
    -q^2 gamma/5, the profile-weighted derivative sum from the projected
    kernel (vanishingly small, returned for inspection), and the residual
    single-atom scattering term with gamma_nn = gamma.  ``kernel_d2`` is the
    projected d2z kernel.  Returns (complex average, terms dict); the real
    part is kappa_sc, the imaginary part the unretained second-order shift.
    """
    if kernel_d2.kind != "projected_d2z":
        raise ValueError("kernel_d2 must be the projected d2z kernel")
    dmD, w1, _w2 = _weights(cfg, dispersion)
    eta2_gbar = cfg.trap.eta**2 * closed_form_params(cfg, dispersion.delta0).g_bar
    sin2, cos2 = np.sin(cfg.qz0) ** 2, np.cos(cfg.qz0) ** 2
    v0 = intensity_profile(cfg.lattice, cfg.cavity.w)
    s = np.sqrt(v0)
    quad = complex(np.sum(s * open_convolve(kernel_d2.table, s)))
    sum_v0 = float(np.sum(v0))
    terms = {"zero_point": -2j * sin2 * eta2_gbar * sum_v0,
             "diagonal": 2.0 * sin2 * eta2_gbar * sum_v0 * (Q * Q * GAMMA / 5.0)
             / (Q * Q * dmD),
             "profile_derivative": 2.0 * sin2 * eta2_gbar * quad / (Q * Q * dmD),
             "paraxial_shift": 2j * cos2 * eta2_gbar * sum_v0 * float(np.mean(w1)),
             "single_atom": cos2 * eta2_gbar * sum_v0 * GAMMA / dmD}
    return sum(terms.values()), terms


def bare_cavity_amplitude(cfg):
    """Empty-cavity Lorentzian steady state -i Omega / (kappa_c/2 - i delta_c)."""
    return -1j * cfg.drive.Omega / (cfg.cavity.kappa_c / 2.0 - 1j * cfg.drive.delta_c)


def two_mode_steady_state(model):
    """Steady state (a, sigma) of a TwoModeModel at its delta_c, one sample in
    CPython scalar complex arithmetic: the per-sample formula the library's
    array form is held to.  Defined where a steady state exists: not for
    g_eff = 0 at delta = Delta (unless Omega = 0), nor for kappa_c = 0 on the
    dressed resonance (a ZeroDivisionError)."""
    dmD = model.delta_minus_Delta
    if dmD == 0.0:
        if model.g_eff == 0.0:
            if model.Omega == 0.0:
                return 0j, 0j
            raise RegimeError("undamped resonant dipole with g_eff = 0: "
                              "no steady state exists")
        return 0j, complex(-model.Omega / model.g_eff)
    denom = model.kappa_c / 2.0 - 1j * (model.delta_c - model.g_eff**2 / dmD)
    a = -1j * model.Omega / denom
    return a, model.g_eff * a / dmD


def box_sum(table):
    """``open_convolve(table, ones)`` on an n x n lattice: the sum of the
    (2n-1, 2n-1) table over the n x n window at each offset, read off a
    summed-area table (Crow 1984) in O(n^2), no transform."""
    n = (table.shape[-1] + 1) // 2
    c = np.zeros((2 * n, 2 * n), dtype=table.dtype)
    np.cumsum(np.cumsum(table, axis=0), axis=1, out=c[1:, 1:])
    return c[n:, n:] - c[:n, n:] - c[n:, :n] + c[:n, :n]


def trace_C_box_sum(cfg, dispersion, k_cut_abs):
    """sum_nu C_nu_nu over the complete basis from the projected-kernel
    tables, with Z_p = sum_m p2(r_p - r_m) Gamma2(r_m - r_p) over the window
    as the ``box_sum`` of the (2n-1, 2n-1) product table: the table route
    that ``om_consistency`` replaces with a fold of radial profiles."""
    lattice = cfg.lattice
    n = lattice.n_side
    dmD, w1, w2 = _weights(cfg, dispersion)
    params = closed_form_params(cfg, dispersion.delta0)
    sin2, cos2 = np.sin(cfg.qz0) ** 2, np.cos(cfg.qz0) ** 2
    proj, proj_d2 = projected_kernels(lattice, cfg.cavity.z0, k_cut_abs)
    g2_tab = 2.0 * proj.table.real
    v0 = intensity_profile(lattice, cfg.cavity.w)
    b1 = np.sum(v0)
    b2 = np.sum(v0) * proj_d2.table[n - 1, n - 1] / (Q * Q * dmD)
    dmod = np.arange(-(n - 1), n) % n
    z = box_sum(np.fft.ifft2(w2)[np.ix_(dmod, dmod)] * g2_tab[::-1, ::-1])
    b3 = np.sum(v0) * np.mean(w1) - 0.5j * np.sum(v0 * z)
    return cfg.trap.eta**2 * params.g_bar * (1j * sin2 * b1 + sin2 * b2
                                             - 1j * cos2 * b3)


def _radial_contract(profile, inverse, corr, n):
    """sum_d T(d) corr(d) for the radial table T = profile[inverse], with
    ``corr`` a cyclic correlation on the padded grid, over every displacement
    of the open window: the adjoint of the scatter ``profile[inverse]``."""
    offsets = np.arange(-(n - 1), n) % corr.shape[-1]
    return profile @ np.bincount(inverse, weights=corr[offsets[:, None], offsets].ravel())


def _window_sums(v0):
    """W(d) = sum of v0 over the window shifted by d, for every offset d of
    the (2n - 1, 2n - 1) displacement grid, from a summed-area table of v0."""
    n = v0.shape[0]
    c = np.zeros((n + 1, n + 1))
    np.cumsum(np.cumsum(v0, axis=0), axis=1, out=c[1:, 1:])
    d = np.arange(-(n - 1), n)
    lo, hi = np.maximum(d, 0), np.minimum(n + d, n)
    rows = c[hi] - c[lo]
    w = rows[:, hi]
    w -= rows[:, lo]
    return w


def _fold(table, n):
    """A (2n - 1, 2n - 1) displacement table summed onto the n x n torus:
    offset d lands on d mod n."""
    rows = table[n - 1:].copy()
    rows[1:] += table[:n - 1]
    out = rows[:, n - 1:].copy()
    out[:, 1:] += rows[:, :n - 1]
    return out


def trace_terms_full_index(cfg, dispersion, k_cut_abs):
    """(sum_nu C_nu_nu, C_00) as ``om_consistency`` forms them, but with every
    lattice sum over all (2n - 1)^2 displacements of the ``lattice_radii``
    index: no octant and no symmetry assumed.  The Z term folds Gamma2 W onto
    the n-periodic p2."""
    lattice = cfg.lattice
    n = lattice.n_side
    dmD, w1, w2 = _weights(cfg, dispersion)
    eta2_gbar = cfg.trap.eta**2 * closed_form_params(cfg, dispersion.delta0).g_bar
    sin2, cos2 = np.sin(cfg.qz0) ** 2, np.cos(cfg.qz0) ** 2
    rho, inverse = lattice_radii(lattice)
    inverse = inverse.ravel()
    proj, d2_prof = projected_profiles(rho, k_cut_abs)
    g2_prof = 2.0 * proj.real
    v0 = intensity_profile(lattice, cfg.cavity.w)
    weighted = _window_sums(v0) * g2_prof[inverse].reshape(2 * n - 1, 2 * n - 1)
    b3 = np.sum(v0) * np.mean(w1) - 0.5j * np.sum(np.fft.ifft2(w2) * _fold(weighted, n))
    b2 = np.sum(v0) * d2_prof[0] / (Q * Q * dmD)
    trace_c = eta2_gbar * (1j * sin2 * np.sum(v0) + sin2 * b2 - 1j * cos2 * b3)
    f = np.sqrt(v0) * v0
    half = n // 2 + 1
    p1f, p2f = np.fft.irfft2(np.stack([w1[:, :half], w2[:, :half]])
                             * np.fft.rfft2(f), s=(n, n))
    ff, fp = padded_rfft(f, n), padded_rfft(p2f, n)
    d2_term = _radial_contract(d2_prof, inverse,
                               np.fft.irfft2(ff * ff.conj(), s=padded_shape(n)), n)
    g2_term = _radial_contract(g2_prof, inverse,
                               np.fft.irfft2(fp * ff.conj(), s=padded_shape(n)), n)
    scale = sin2 / (Q * Q * dmD)
    c00 = complex(scale * d2_term.real - 0.5 * cos2 * g2_term,
                  scale * d2_term.imag - cos2 * np.sum(f * p1f) + sin2 * np.sum(f * f))
    return complex(trace_c), complex(eta2_gbar * c00)


def _hg_axis(x, p, w):
    """Normalized 1D Hermite-Gauss function h_p(x) at waist w."""
    norm = (2.0 / (np.pi * w * w)) ** 0.25 / math.sqrt(2.0**p * math.factorial(p))
    return norm * eval_hermite(p, np.sqrt(2.0) * x / w) * np.exp(-(x / w) ** 2)


def confined_kernel_hg(lattice, w, p_max=0):
    """Radiative confined kernel Re[D_c] from an explicit Hermite-Gauss mode sum,
    as a real N x N array.

    Counter-propagating paraxial channels with transverse profiles
    phi_{p p'}(r) = h_p(x) h_{p'}(y), p, p' <= p_max, each carry the residue of
    the frequency integral at the optical pole, giving at coincident planes

        Re[D_c] = (3 gamma lambda^2 / (8 pi)) sum_{p p'} phi(r_n) phi(r_m).

    An oracle for the momentum-disc kernel's radiative content; the pole
    integral is evaluated analytically by residue, which needs no frequency
    discretization.  The sum is not translation-invariant, so it has no
    displacement table.
    """
    X, Y = lattice.meshes()
    x = X.ravel()
    y = Y.ravel()
    hx = np.stack([_hg_axis(x, p, w) for p in range(p_max + 1)])
    hy = np.stack([_hg_axis(y, p, w) for p in range(p_max + 1)])
    entries = np.zeros((lattice.n_sites, lattice.n_sites))
    for p in range(p_max + 1):
        for pp in range(p_max + 1):
            phi = hx[p] * hy[pp]
            entries += np.outer(phi, phi)
    return entries * (3.0 * GAMMA * LAMBDA * LAMBDA / (8.0 * np.pi))
