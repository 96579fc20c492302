"""Shared numerical helpers: quadrature nodes, lattice FFT convolutions, matrix
exponential, adaptive RK45 integrator."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError


# Largest rule seeded by leggauss's eigenvalues, an O(n^3) solve
_EIGEN_SEED_NODES = 128


@lru_cache(maxsize=32)
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1], to round-off.

    Newton steps on the three-term recurrence polish the nodes, and the
    weights are 2 / ((1 - x^2) P_n'(x)^2) from the same recurrence.  Up to
    _EIGEN_SEED_NODES the seed is numpy's ``leggauss`` (one step); beyond,
    Tricomi's asymptotic guesses cos(pi (4k - 1) / (4n + 2)) (1 - (1 - 1/n)
    / (8 n^2)) (three steps), so a rule of n nodes costs O(n^2): 15,096
    nodes take ~3 s.  leggauss's own weights err by up to ~1e-12 relative
    next to +-1: an integrand peaked at an end (the Ewald spatial integral)
    turns that into 1e-14 errors, and at 1,536 nodes its rule integrates
    cos(w x) only to ~2e-13, this one to ~2e-15.
    """
    if n <= _EIGEN_SEED_NODES:
        x, steps = leggauss(n)[0], 1
    else:
        k = np.arange(n, 0, -1)
        x = (1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)) \
            * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
        steps = 3
    for step in range(steps + 1):
        p0, p1 = np.ones_like(x), x                  # P_{k-1}, P_k
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        if step < steps:
            x = x - p1 / dp
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def horner(coeffs, x):
    """sum_k coeffs[k] x^k over an array x, by Horner's rule in place."""
    p = np.full(np.shape(x), coeffs[-1])
    for c in coeffs[-2::-1]:
        p *= x
        p += c
    return p


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


# Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 19
# (1980)): nodes, stage matrix, 5th-order weights, error weights and the
# quartic dense-output matrix, as in scipy.integrate.RK45
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10   # step-size controller
_ERROR_EXPONENT = -1 / 5                            # -1 / (error order + 1)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def integrate_linear(rhs, y0, t_final, dt_out, rtol=1e-9):
    """Integrate dy/dt = rhs(t, y) from t = 0 to t_final by adaptive RK45
    (Dormand-Prince 5(4), absolute tolerance rtol / 100) with dense complex
    state, sampling every dt_out (``output_times``).

    A port of scipy.integrate.solve_ivp(method="RK45", t_eval=...) (scipy
    1.17, BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and
    2003-2024 SciPy Developers): the same initial-step rule (Hairer, Norsett
    & Wanner, Solving ODE I, sec. II.4), RMS error norm, step factors, quartic
    dense output and numpy expressions, so the steps, the samples and the
    evaluation count equal solve_ivp's bit for bit.  A step that falls below
    the float spacing of t (as a NaN right-hand side forces), or a NaN step,
    raises ConvergenceError where solve_ivp reports failure or loops.

    Returns (times, states, rhs_evals) with states[i] the state at times[i]
    and rhs_evals the right-hand-side evaluation count.
    """
    if not t_final > 0:
        raise ValueError(f"t_final must be > 0, got {t_final!r}")
    t_eval = output_times(t_final, dt_out)
    t_bound = float(t_final)
    atol = rtol * 1e-2
    nfev = 0

    def fun(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(t, y), dtype=complex)

    y = np.asarray(y0, dtype=complex)
    f = fun(0.0, y)
    # initial step (scipy's select_initial_step, order 4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    d2 = _rms((fun(h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound)

    K = np.empty((len(_DP_C) + 1, y.size), dtype=complex)
    states = np.empty((len(t_eval), y.size), dtype=complex)
    t, i_eval = 0.0, 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise ConvergenceError(
                    f"RK45 step size {h_abs:.3g} below the spacing of t = {t:.6g}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            # one Dormand-Prince step; K[-1] holds the first stage of the next
            K[0] = f
            for s, (a, c) in enumerate(zip(_DP_A[1:], _DP_C[1:]), start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        # samples in (t, t_new] from the step's quartic interpolant
        i_new = np.searchsorted(t_eval, t_new, side="right")
        if i_new > i_eval:
            h = t_new - t
            x = (t_eval[i_eval:i_new] - t) / h
            p = np.cumprod(np.tile(x, (_DP_P.shape[1], 1)), axis=0)
            sample = h * np.dot(K.T.dot(_DP_P), p)
            sample += y[:, None]
            states[i_eval:i_new] = sample.T
            i_eval = i_new
        t, y, f = t_new, y_new, f_new
    return t_eval, states, nfev
