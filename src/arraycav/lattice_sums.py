"""Collective-mode dispersion of the infinite 2D array by Ewald summation.

The cooperative decay Gamma_k and shift Delta_k of the Bloch dipole mode at
transverse wavevector k come from one lattice sum of the free-space kernel,

    S(k) = sum_{n != 0} e^{-i k . r_n} D_fs(r_n) = Gamma_k / 2 + i Delta_k .

For circular in-plane dipoles D_fs = -(3i/2)(1 + grad_perp^2 / (2 q^2)) g with
g = e^{iqr} / (4 pi r).  Ewald's splitting (Linton, SIAM Rev. 52, 630 (2010))
takes out the short-ranged, real part

    g1(r) = Re[e^{iqr} erfc(r E + i q / (2E))] / (4 pi r)

and sums the smooth remainder g - g1 over the diffraction orders k + Q:

- spatial part: sum_{n != 0} cos(k . r_n) over the closed form of g1 and of
  its in-plane Laplacian g1'' + g1'/r;
- spectral part: (1/a^2) sum_Q w(k+Q) erfc(Gamma_Q / (2E)) / (2 Gamma_Q), with
  w(p) = 1 - |p|^2 / (2 q^2) and Gamma_Q = sqrt(|k+Q|^2 - q^2), or
  Gamma_Q = -i k_z on propagating orders, where erfc(-ix) = 1 + i erfi(x);
- self term: (1 + grad_perp^2 / (2 q^2))(g - g1) at r = 0, in closed form.

Both parts converge like Gaussians, so a few shells of each give S to
round-off at every k.  The decay is the propagating orders' part alone,

    Gamma_k + gamma = (3 gamma lambda / (2 a^2)) sum_prop w(k+Q) / k_z ,

which gives the closed form at k = 0 and the exact zero of the subradiant
band.  Where an order grazes the light line (k_z = 0) the decay diverges; the
shift keeps its finite limit from inside the light cone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._numerics import gauss_legendre, horner
from .errors import ConfigError, GrazingError
from .greens import GAMMA, LAMBDA, Q

GRAZING_TOL = 1e-9      # |k_z/q|^2 below this counts as grazing
_TAIL = 6.0             # erfc argument at which both Ewald sums stop (erfc = 2e-17)
_SPATIAL_NODES = 64     # Gauss-Legendre nodes of the spatial-part integral
_BLOCK = 1 << 14        # wavevector-order pairs of the spectral part per block

# erfc(x) = exp(-x^2) h(u) / (1 + sqrt(pi) x) on [0, 6.5], u = _ERFC_ALPHA x /
# (x + 3) - 1 in [-1, 1]: the monomial coefficients of h, from its Chebyshev
# interpolant on mpmath values (40 digits) truncated at 1e-18.  h stays
# within [1, 1.2], so the sum loses no digits.
_ERFC_ALPHA = 38.0 / 13.0
_ERFC_H = (
    1.1748214235974226, -0.07082361819031885, -0.08735781787686098,
    0.09355387222649904, -0.04837615982334225, 0.014701496701358516,
    -0.002025388780940222, -0.00024920667537106845, 0.00012885096659142516,
    1.725917889739211e-06, -7.051740975282756e-06, -3.5811600162304246e-08,
    4.2192187215433784e-07, 2.335581444223703e-08, -2.566195997271118e-08,
    -4.081918208337787e-09, 1.3048806282373046e-09, 4.695270144421054e-10,
    -2.973385697099562e-11, -3.8724758883688606e-11, -1.9236123427998676e-12,
    1.875027105904852e-12)

# (2/sqrt(pi)) / (k! (2k + 1)): erfi(x)/x to 40 terms of x^(2k), whose last
# is below 1e-20 at x^2 = 5 (the splitting parameter keeps x^2 <= pi)
_ERFI_SERIES = np.array([2.0 / math.sqrt(math.pi) / (math.factorial(k) * (2 * k + 1))
                         for k in range(40)])


@dataclass(frozen=True)
class DispersionPoint:
    k_perp: tuple
    gamma_k: float              # cooperative decay Gamma_k, units gamma
    delta_k: float              # cooperative shift Delta_k, units gamma


def _erfc(x):
    """erfc of an array of x in [0, 6.5], to 1e-15 relative.

    exp(-x^2) is formed as exp(-x_h^2) (1 - r + r^2/2), x_h = x rounded to
    2^-20 so that x_h^2 is exact and r = x^2 - x_h^2 < 1e-5: a plain
    exp(-x * x) would carry the rounding of x^2, 5e-15 relative at x = 6.
    """
    h = horner(_ERFC_H, _ERFC_ALPHA * x / (x + 3.0) - 1.0)
    xh = np.round(x * 1048576.0) / 1048576.0
    r = (x - xh) * (x + xh)
    return np.exp(-xh * xh) * (1.0 - r * (1.0 - 0.5 * r)) * h / (1.0 + np.sqrt(np.pi) * x)


def _erfi_over_x(x):
    """erfi(x) / x for x^2 <= 5, to 1e-15 relative: the even Taylor series
    sum_k _ERFI_SERIES[k] x^(2k), whose terms are all positive, its powers
    formed by one cumulative product."""
    s = np.square(x)
    powers = np.cumprod(np.repeat(s[..., None], len(_ERFI_SERIES) - 1, axis=-1), axis=-1)
    return _ERFI_SERIES[0] + powers @ _ERFI_SERIES[1:]


def _ewald_parameter(a):
    """Splitting parameter E (1/lambda) of a lattice.

    sqrt(pi)/(2a) balances the spatial and spectral shells; the floor
    sqrt(pi) keeps q^2/(4E^2) <= pi, because the spatial and self terms
    cancel at the scale e^{q^2/(4E^2)}.
    """
    return np.sqrt(np.pi) * max(0.5 / a, 1.0)


def _spatial_table(a, E):
    """Quadrant table of the spatial part, and its outermost shell's largest term.

    The spatial part -(3i/2) L g1, L = 1 + grad_perp^2/(2 q^2), is imaginary,
    so it adds to Delta_k only.  g1 is radial, so the sum folds onto the
    quadrant (i, j) in 0..m:  sum_{n != 0} cos(k . r_n) (-3/2) L g1(r_n) =
    c(kx)^T W c(ky), c(k)_i = cos(k i a), W_ij the summand at (i a, j a) times
    its mirror multiplicity (1 at the origin, 2 on an axis, 4 inside), W_00 = 0.

    g1 comes from Ewald's real integral, s = E / t:

        4 pi g1(r) = (2/sqrt(pi)) Int_E^inf exp(-r^2 s^2 + q^2/(4 s^2)) ds
                   = (2E/sqrt(pi)) e^{b^2 - r^2 E^2}
                     Int_0^1 exp(-(1 - t^2)(r^2 E^2 y + b^2)) y dt,

    y = 1/t^2, b = q/(2E), and its in-plane Laplacian under the same
    integral carries the factor 4 E^2 y (r^2 E^2 y - 1).  The exponent left
    under the integral vanishes where the integrand peaks (t = 1), so its
    rounding stays at round-off; 64 Gauss-Legendre nodes reach 4e-16 of the
    largest term for every lattice constant.
    """
    m = int(np.ceil(_TAIL / (E * a)))
    d2 = (np.arange(m + 1) * a) ** 2
    r2E2 = (d2[:, None] + d2[None, :]) * (E * E)
    b2 = Q * Q / (4.0 * E * E)
    x, w = gauss_legendre(_SPATIAL_NODES)
    t = 0.5 * (1.0 + x)
    y = 1.0 / (t * t)
    c = 0.5 * (1.0 - x) * (1.0 + t)                       # 1 - t^2
    v = 0.5 * w * y
    # the integral's moments of y^0, y^1 and y^2
    moments = np.stack([v, v * y, v * y * y], axis=1)
    f = np.exp(-np.multiply.outer(r2E2, c * y) - c * b2) @ moments
    lap = (4.0 * E * E) * (r2E2 * f[..., 2] - f[..., 1])
    scale = 2.0 * E / np.sqrt(np.pi) * np.exp(b2 - r2E2)    # 4 pi g1 = scale f_0
    term = -1.5 * scale * (f[..., 0] + lap / (2.0 * Q * Q)) / (4.0 * np.pi)
    term[0, 0] = 0.0
    fold = np.where(d2 > 0, 2.0, 1.0)
    outer = max(np.abs(term[m]).max(), np.abs(term[:, m]).max())
    return term * np.outer(fold, fold), float(outer)


def _self_shift(E):
    """Im of the self term (1 + grad_perp^2/(2q^2))(-3i/2)(g - g1) at r = 0.

    g - g1 = h0 + h2 r^2 + O(r^3) with no linear term, so the operator gives
    h0 + 2 h2 / q^2; its real part is gamma/2.
    """
    b = 0.5 * Q / E
    c = 2.0 * E / np.sqrt(np.pi) * np.exp(b * b)
    return (Q * b * _erfi_over_x(b) - c * (1.0 - E * E / (Q * Q))) / (4.0 * np.pi)


def _spectral_sum(kx, ky, a, E, decay=True):
    """Spectral part of Delta_k over flat arrays of folded wavevectors.

    Returns (delta, gamma_plus, grazing, residual): the spectral part,
    Gamma_k + gamma in units gamma / (gamma lambda), the grazing mask and the
    largest term of the outermost shell; without ``decay`` the two decay
    entries are None and not computed.  The orders of ~_BLOCK / (2M + 1)^2
    wavevectors are summed at a time; erfc runs only on evanescent orders
    below _TAIL, beyond which erfc < 2e-17.
    """
    g = 2.0 * np.pi / a
    M = int(np.ceil(np.sqrt(Q * Q + (2.0 * _TAIL * E) ** 2) / g - 0.5))
    orders = g * np.arange(-M, M + 1)
    edge = np.abs(np.arange(-M, M + 1)) == M
    shell = (edge[:, None] | edge[None, :]).ravel()
    delta = np.empty(kx.size)
    gamma_plus = np.empty(kx.size) if decay else None
    grazing = np.empty(kx.size, dtype=bool) if decay else None
    residual = 0.0
    rows = max(1, _BLOCK // shell.size)
    for s in range(0, kx.size, rows):
        px2 = (kx[s:s + rows, None] + orders) ** 2
        py2 = (ky[s:s + rows, None] + orders) ** 2
        p2 = (px2[:, :, None] + py2[:, None, :]).reshape(len(px2), -1)
        kz2 = Q * Q - p2
        w = 1.0 - p2 / (2.0 * Q * Q)
        kz = np.sqrt(np.abs(kz2))
        x = kz / (2.0 * E)
        near = np.abs(kz2) < GRAZING_TOL * Q * Q
        prop = (kz2 > 0) & ~near
        evan = (x < _TAIL) & (kz2 < 0) & ~near
        # phi = erfi(x)/x (propagating), -erfc(x)/x (evanescent) and its
        # limit 2/sqrt(pi) from inside the light cone at grazing
        phi = np.where(near, 2.0 / np.sqrt(np.pi), 0.0)
        phi[prop] = _erfi_over_x(x[prop])
        xe = x[evan]
        phi[evan] = -_erfc(xe) / xe
        term = 3.0 / (8.0 * a * a * E) * w * phi
        delta[s:s + rows] = term.sum(axis=1)
        residual = max(residual, float(np.abs(term[:, shell]).max()))
        if decay:
            # the decay as a running sum over the orders, mx before my: a
            # sequential sum, so gamma_k does not depend on the blocking
            radiated = np.divide(1.5 / (a * a) * w, kz, out=np.zeros(p2.shape),
                                 where=prop)
            gamma_plus[s:s + rows] = np.cumsum(radiated, axis=1)[:, -1]
            grazing[s:s + rows] = near.any(axis=1)
    return delta, gamma_plus, grazing, residual


def _lattice_sum(kx, ky, a, decay=True):
    """Gamma_k, Delta_k (units gamma) over broadcastable wavevector arrays.

    Returns (gamma_k, delta_k, residual).  gamma_k is NaN where a diffraction
    order grazes the light line (|k_z|^2 < GRAZING_TOL q^2), and None without
    ``decay``; delta_k there is the finite limit from inside the light cone.
    ``residual`` is the largest term of the outermost kept spatial and
    spectral shells, units gamma.
    """
    kx, ky = np.broadcast_arrays(np.asarray(kx, dtype=float),
                                 np.asarray(ky, dtype=float))
    shape, kx, ky = kx.shape, kx.ravel(), ky.ravel()
    E = _ewald_parameter(a)
    W, residual = _spatial_table(a, E)
    d = np.arange(W.shape[0]) * a
    delta = np.sum((np.cos(kx[:, None] * d) @ W) * np.cos(ky[:, None] * d),
                   axis=-1) - _self_shift(E)

    # spectral part over the orders of the folded wavevector; excluded orders
    # have |k + Q| >= (2 M + 1) pi / a, so Gamma_Q >= 2 _TAIL E
    g = 2.0 * np.pi / a
    spectral, gamma_plus, grazing, tail = _spectral_sum(
        kx - g * np.round(kx / g), ky - g * np.round(ky / g), a, E, decay)
    delta += spectral
    residual = max(residual, tail)
    if not decay:
        return None, delta.reshape(shape), residual
    gamma_k = np.where(grazing, np.nan, GAMMA * LAMBDA * gamma_plus - GAMMA)
    return gamma_k.reshape(shape), delta.reshape(shape), residual


def dispersion_point(k_perp, a) -> DispersionPoint:
    """Gamma_k and Delta_k at one wavevector.

    A wavevector putting a diffraction order on the light line raises
    GrazingError: the decay diverges there.
    """
    kx, ky = float(k_perp[0]), float(k_perp[1])
    gk, dk, _ = _lattice_sum(kx, ky, a)
    if np.isnan(gk):
        raise GrazingError(
            f"a diffraction order is grazing at k_perp={(kx, ky)}; shift k_perp "
            "infinitesimally away from the light line")
    return DispersionPoint(k_perp=(kx, ky), gamma_k=float(gk), delta_k=float(dk))


# high-symmetry points of the square-lattice Brillouin zone, units pi/a
_BZ_POINTS = {"G": (0.0, 0.0), "X": (1.0, 0.0), "M": (1.0, 1.0)}


def resolve_bz_point(p, a):
    """Map 'G'/'X'/'M' labels, 'kx:ky' strings (units q) or explicit (kx, ky)
    pairs (absolute) to wavevectors."""
    if isinstance(p, str):
        if ":" in p:
            try:
                kx, ky = (float(c) for c in p.split(":"))
            except ValueError:
                kx = ky = float("nan")
            if not (np.isfinite(kx) and np.isfinite(ky)):
                raise ConfigError(
                    f"malformed waypoint {p!r}: expected kx:ky in units of q")
            return (kx * Q, ky * Q)
        key = p.strip().upper().replace("GAMMA", "G")
        if key not in _BZ_POINTS:
            raise ConfigError(f"unknown Brillouin-zone label {p!r}")
        fx, fy = _BZ_POINTS[key]
        return (fx * np.pi / a, fy * np.pi / a)
    return (float(p[0]), float(p[1]))


def dispersion_curve(path, samples, a, strict=True):
    """Dispersion along a Brillouin-zone path, all samples in one lattice sum.

    ``path`` is a sequence of waypoints ('G', 'X', 'M', 'kx:ky' or explicit
    pairs); ``samples`` points are distributed over the path proportionally
    to segment length, endpoints included.

    A path of fewer than 2 samples or waypoints, or of zero length, raises
    ConfigError.  Samples where a diffraction order grazes the light line raise
    GrazingError when ``strict``; with ``strict=False`` they keep NaN for
    both rates, with one warning per call, so whole-band sweeps survive.
    """
    if samples < 2:
        raise ConfigError(f"need at least 2 samples, got {samples}")
    pts = [np.array(resolve_bz_point(p, a)) for p in path]
    if len(pts) < 2:
        raise ConfigError("need at least 2 waypoints")
    seg_len = [np.linalg.norm(b - a_) for a_, b in zip(pts, pts[1:])]
    total = sum(seg_len)
    if total == 0:
        raise ConfigError("degenerate path: the waypoints enclose no length")
    # arc-length positions of the samples, each on the first segment that
    # reaches it (the last one past the end)
    ends = np.cumsum(seg_len)
    s_vals = np.linspace(0.0, total, samples)
    seg = np.minimum(np.searchsorted(ends, s_vals), len(seg_len) - 1)
    length = np.asarray(seg_len)[seg]
    frac = np.divide(s_vals - np.concatenate(([0.0], ends[:-1]))[seg], length,
                     out=np.zeros(samples), where=length > 0)
    p = np.array(pts)
    k = p[seg] + np.clip(frac, 0.0, 1.0)[:, None] * (p[seg + 1] - p[seg])
    kvecs = [tuple(kv) for kv in k.tolist()]
    gk, dk, _ = _lattice_sum(k[:, 0], k[:, 1], a)
    bad = np.isnan(gk)
    if bad.any():
        msg = (f"{int(bad.sum())} of {samples} samples put a diffraction order "
               f"on the light line (grazing), first at k_perp="
               f"{kvecs[int(np.argmax(bad))]}")
        if strict:
            raise GrazingError(msg)
        warnings.warn(f"{msg}; NaN kept", stacklevel=2)
        dk = np.where(bad, np.nan, dk)
    return [DispersionPoint(k_perp=kv, gamma_k=g, delta_k=d)
            for kv, g, d in zip(kvecs, gk.tolist(), dk.tolist())]


@dataclass(frozen=True, eq=False)
class DispersionGrid:
    """Delta_k sampled on the discrete Brillouin grid of a finite lattice.

    ``delta_k`` is laid out in numpy fftfreq order on the n_side x n_side grid
    conjugate to the lattice (k = 2 pi m / (n_side a)); ``delta0`` is the
    k = 0 value and ``residual`` the largest term of the outermost kept Ewald
    shells over the grid, units gamma.
    """

    a: float
    n_side: int
    delta_k: np.ndarray
    residual: float

    @property
    def delta0(self) -> float:
        return float(self.delta_k[0, 0])


def dispersion_grid(a, n_side) -> DispersionGrid:
    """Delta_k on the full n_side^2 Brillouin grid in one lattice sum.

    On grid points where a diffraction order grazes the light line (whenever
    n_side a is an integer) Delta_k takes its finite limit from inside the
    light cone.  Delta_k is even in kx and in ky and symmetric under
    kx <-> ky, so the sum runs over the non-negative frequencies with
    kx <= ky and is mirrored onto the fftfreq layout, which is then exactly
    symmetric under both.  Gamma_k is not formed.
    """
    m = np.arange(n_side)
    k = 2.0 * np.pi * m[: n_side // 2 + 1] / (n_side * a)
    i, j = np.triu_indices(k.size)
    _, upper, residual = _lattice_sum(k[i], k[j], a, decay=False)
    half = np.empty((k.size, k.size))
    half[i, j] = upper
    half[j, i] = upper
    fold = np.minimum(m, n_side - m)
    delta = half[np.ix_(fold, fold)]
    delta.setflags(write=False)
    return DispersionGrid(a=float(a), n_side=int(n_side), delta_k=delta,
                          residual=residual)
