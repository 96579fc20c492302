"""Shared numerical helpers: quadrature nodes, lattice FFT convolutions, matrix
exponential, ODE driver."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
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


def padded_shape(n):
    """FFT grid of an open convolution on an n x n lattice: the power of two
    >= 2n - 1 per axis, so the cyclic wrap never reaches the n x n window."""
    nf = 1 << (2 * n - 2).bit_length()
    return nf, nf


def padded_fft(table):
    """Zero-padded 2D FFT of a (2n-1, 2n-1) displacement table: the factor
    ``open_convolve`` multiplies by, formed once where one table is applied
    many times."""
    return np.fft.fft2(table, s=padded_shape((table.shape[-1] + 1) // 2))


def padded_rfft(x, n):
    """Zero-padded real 2D FFT on the open-convolution grid of an n x n
    lattice, of real (2n-1, 2n-1) displacement tables or real (n, n) site
    fields (leading axes stack them): the factors ``open_convolve_real``
    multiplies."""
    return np.fft.rfft2(x, s=padded_shape(n))


def _open_window(conv, n):
    """The n x n lattice window of a padded cyclic convolution."""
    return conv[..., n - 1 : 2 * n - 1, n - 1 : 2 * n - 1]


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
    conv = _open_window(np.fft.ifft2(table_fft * ff), n)
    if np.iscomplexobj(table) or np.iscomplexobj(field):
        return conv
    return conv.real


def open_convolve_real(table_rfft, field_rfft, n):
    """``open_convolve`` of a real table and real fields on an n x n lattice,
    from the ``padded_rfft`` of both: one inverse real transform.  A field
    transformed once can meet several tables."""
    return _open_window(np.fft.irfft2(table_rfft * field_rfft, s=padded_shape(n)), n)


def box_sum(table):
    """``open_convolve(table, ones)`` on an n x n lattice: the sum of the
    (2n-1, 2n-1) table over the n x n window at each offset, read off a
    summed-area table (Crow 1984) in O(n^2), no transform."""
    n = (table.shape[-1] + 1) // 2
    c = np.zeros((2 * n, 2 * n), dtype=table.dtype)
    np.cumsum(np.cumsum(table, axis=0), axis=1, out=c[1:, 1:])
    return c[n:, n:] - c[:n, n:] - c[n:, :n] + c[:n, :n]


# Higham's scaling and squaring with the [13/13] Pade approximant: the largest
# 1-norm it reaches to double precision and its numerator coefficients
# b_0..b_13 (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3),
# divided by b_0 so that the denominator is I + O(A) and e^0 = I exactly
_THETA_13 = 5.371920351148152e0
_PADE_13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))


def expm(A):
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant (Higham 2005): the scaling 2^-s brings the 1-norm below
    theta_13, where the approximant meets double precision.

    numpy matmuls and one numpy solve only.  scipy.linalg is not imported: its
    own BLAS thread pool would contend with numpy's on a small machine.
    """
    A = np.asarray(A)
    norm = float(np.max(np.sum(np.abs(A), axis=0), initial=0.0))
    s = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    A = A / 2.0**s
    b = _PADE_13
    eye = np.eye(len(A), dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    # U holds the odd powers of A, V the even ones; e^A ~ (V - U)^-1 (V + U)
    u = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    v = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    X = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        X = X @ X
    return X


MAX_OUTPUT_TIMES = 1_000_000     # samples of one trajectory


def output_count(t_final, dt_out):
    """Sample count of ``output_times``, round(t_final/dt_out) + 1 and at
    least 2; a ValueError beyond MAX_OUTPUT_TIMES."""
    intervals = t_final / dt_out
    if not intervals < MAX_OUTPUT_TIMES - 0.5:
        raise ValueError(f"t_final/dt_out = {intervals:.3g} gives more than "
                         f"{MAX_OUTPUT_TIMES} output samples")
    return max(2, int(round(intervals)) + 1)


def output_times(t_final, dt_out):
    """Sample times 0, h, ..., t_final with h the spacing nearest dt_out."""
    return np.linspace(0.0, t_final, output_count(t_final, dt_out))


def integrate_linear(rhs, y0, t_final, dt_out, rtol=1e-9):
    """Drive solve_ivp (RK45, absolute tolerance rtol / 100) with dense complex
    state, sampling every dt_out.

    Returns (times, states, rhs_evals) with states[i] the state at times[i]
    and rhs_evals the solver's right-hand-side evaluation count; deterministic
    for identical inputs and step controls.
    """
    from scipy.integrate import solve_ivp   # lazy: only om_dynamics integrates

    y0 = np.asarray(y0, dtype=complex)
    t_eval = output_times(t_final, dt_out)
    sol = solve_ivp(rhs, (0.0, t_final), y0, method="RK45", t_eval=t_eval,
                    rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise RuntimeError(f"integrator failed: {sol.message}")
    return sol.t, sol.y.T.copy(), int(sol.nfev)
