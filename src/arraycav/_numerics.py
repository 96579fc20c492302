"""Shared numerical helpers: quadrature nodes, lattice FFT convolutions, ODE driver."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=32)
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gl_interval(lo, hi, n):
    """Gauss-Legendre nodes/weights mapped to [lo, hi]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def toeplitz_from_table(table, n_side):
    """Materialize the dense N x N matrix T[n, m] = table[i_n - i_m, j_n - j_m].

    ``table`` has shape (2*n_side-1, 2*n_side-1) indexed by displacement
    offset + (n_side-1).  Gathered from a strided window view of the table,
    so the N x N result is the only O(N^2) allocation.
    """
    win = sliding_window_view(table[::-1, ::-1], (n_side, n_side))
    return win[::-1, ::-1].reshape(n_side * n_side, n_side * n_side)


def padded_fft(table):
    """Zero-padded 2D FFT of a (2n-1, 2n-1) displacement table: the factor
    ``open_convolve`` multiplies by, formed once where one table is applied
    many times."""
    n = (table.shape[-1] + 1) // 2
    nf = 1 << (2 * n - 2).bit_length()
    return np.fft.fft2(table, s=(nf, nf))


def open_convolve(table, field, table_fft=None):
    """(T f)_p = sum_m table(r_p - r_m) f_m on an n x n lattice, via zero-padded FFT.

    ``table`` is the (2n-1, 2n-1) displacement table, ``field`` an (n, n) grid
    or a stack (..., n, n) of them, ``table_fft`` the table's ``padded_fft``
    if already formed.  Exact up to FFT round-off; never materializes the
    N x N matrix.
    """
    n = field.shape[-1]
    if table_fft is None:
        table_fft = padded_fft(table)
    nf = table_fft.shape[-1]
    ff = np.fft.fft2(field, s=(nf, nf))
    conv = np.fft.ifft2(table_fft * ff)[..., n - 1 : 2 * n - 1, n - 1 : 2 * n - 1]
    if np.iscomplexobj(table) or np.iscomplexobj(field):
        return conv
    return conv.real


def cyclic_weight_apply(weights, field):
    """y_p = sum_n f_n (1/N) sum_k W_k e^{i k (r_n - r_p)} over the lattice's own k grid.

    ``weights`` lives on the n x n FFT frequency grid (numpy fftfreq order);
    ``field`` is an (n, n) grid or a stack (..., n, n) of them.  This is the exact discrete-Brillouin-zone convolution; the kernel is
    n-periodic by construction.
    """
    return np.fft.fft2(weights * np.fft.ifft2(field))


def output_times(t_final, dt_out):
    """Sample times 0, h, ..., t_final with h the spacing nearest dt_out
    (at least two samples)."""
    n_out = max(2, int(round(t_final / dt_out)) + 1)
    return np.linspace(0.0, t_final, n_out)


def integrate_linear(rhs, y0, t_final, dt_out, rtol=1e-9, atol=None, method="RK45"):
    """Drive solve_ivp with dense complex state, sampling every dt_out.

    Returns (times, states) with states[i] the state at times[i]; deterministic
    for identical inputs and step controls.
    """
    from scipy.integrate import solve_ivp   # lazy: only om_dynamics integrates

    y0 = np.asarray(y0, dtype=complex)
    if atol is None:
        atol = rtol * 1e-2
    t_eval = output_times(t_final, dt_out)
    sol = solve_ivp(rhs, (0.0, t_final), y0, method=method, t_eval=t_eval,
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"integrator failed: {sol.message}")
    return sol.t, sol.y.T.copy()
