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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GrazingError
from .greens import GAMMA, LAMBDA, Q

GRAZING_TOL = 1e-9      # |k_z/q|^2 below this counts as grazing
_TAIL = 6.0             # erfc argument at which both Ewald sums stop (erfc = 2e-17)


@dataclass(frozen=True)
class DispersionPoint:
    k_perp: tuple
    gamma_k: float              # cooperative decay Gamma_k, units gamma
    delta_k: float              # cooperative shift Delta_k, units gamma


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
    """
    from scipy.special import erfc

    m = int(np.ceil(_TAIL / (E * a)))
    d = np.arange(m + 1) * a
    r = np.hypot(d[:, None], d[None, :])
    r[0, 0] = a                                 # dropped below
    u = np.exp(1j * Q * r) * erfc(r * E + 0.5j * Q / E)
    c = 2.0 * E / np.sqrt(np.pi) * np.exp(Q * Q / (4.0 * E * E) - E * E * r * r)
    # U = Re u and its r-derivatives, from u' = iq u - c
    U, U1, U2 = u.real, -Q * u.imag - c, -Q * Q * u.real + 2.0 * E * E * r * c
    lap = U2 / r - U1 / r**2 + U / r**3         # 4 pi (g1'' + g1'/r)
    term = -1.5 * (U / r + lap / (2.0 * Q * Q)) / (4.0 * np.pi)
    term[0, 0] = 0.0
    fold = np.where(d > 0, 2.0, 1.0)
    outer = max(np.abs(term[m]).max(), np.abs(term[:, m]).max())
    return term * np.outer(fold, fold), float(outer)


def _self_shift(E):
    """Im of the self term (1 + grad_perp^2/(2q^2))(-3i/2)(g - g1) at r = 0.

    g - g1 = h0 + h2 r^2 + O(r^3) with no linear term, so the operator gives
    h0 + 2 h2 / q^2; its real part is gamma/2.
    """
    from scipy.special import erfi

    b = 0.5 * Q / E
    c = 2.0 * E / np.sqrt(np.pi) * np.exp(b * b)
    return (Q * erfi(b) - c * (1.0 - E * E / (Q * Q))) / (4.0 * np.pi)


def _lattice_sum(kx, ky, a):
    """Gamma_k, Delta_k (units gamma) over broadcastable wavevector arrays.

    Returns (gamma_k, delta_k, residual).  gamma_k is NaN where a diffraction
    order grazes the light line (|k_z|^2 < GRAZING_TOL q^2); delta_k there is
    the finite limit from inside the light cone.  ``residual`` is the largest
    term of the outermost kept spatial and spectral shells, units gamma.
    """
    from scipy.special import erfc, erfi

    kx, ky = np.broadcast_arrays(np.asarray(kx, dtype=float),
                                 np.asarray(ky, dtype=float))
    E = _ewald_parameter(a)
    W, residual = _spatial_table(a, E)
    d = np.arange(W.shape[0]) * a
    delta = np.sum((np.cos(kx[..., None] * d) @ W) * np.cos(ky[..., None] * d),
                   axis=-1) - _self_shift(E)

    # spectral part over the orders of the folded wavevector; excluded orders
    # have |k + Q| >= (2 M + 1) pi / a, so Gamma_Q >= 2 _TAIL E
    g = 2.0 * np.pi / a
    kx = kx - g * np.round(kx / g)
    ky = ky - g * np.round(ky / g)
    M = int(np.ceil(np.sqrt(Q * Q + (2.0 * _TAIL * E) ** 2) / g - 0.5))
    gamma_plus = np.zeros(kx.shape)
    grazing = np.zeros(kx.shape, dtype=bool)
    for mx in range(-M, M + 1):
        px2 = (kx + g * mx) ** 2
        for my in range(-M, M + 1):
            p2 = px2 + (ky + g * my) ** 2
            kz2 = Q * Q - p2
            w = 1.0 - p2 / (2.0 * Q * Q)
            x = np.sqrt(np.abs(kz2)) / (2.0 * E)
            near = np.abs(kz2) < GRAZING_TOL * Q * Q
            prop = (kz2 > 0) & ~near
            evan = (kz2 < 0) & ~near
            # phi = erfi(x)/x (propagating), -erfc(x)/x (evanescent) and its
            # limit 2/sqrt(pi) from inside the light cone at grazing
            phi = np.full(x.shape, 2.0 / np.sqrt(np.pi))
            phi[prop] = erfi(x[prop]) / x[prop]
            phi[evan] = -erfc(x[evan]) / x[evan]
            term = 3.0 / (8.0 * a * a * E) * w * phi
            delta += term
            gamma_plus[prop] += 1.5 / (a * a) * w[prop] / np.sqrt(kz2[prop])
            grazing |= near
            if max(abs(mx), abs(my)) == M:
                residual = max(residual, float(np.abs(term).max()))
    gamma_k = np.where(grazing, np.nan, GAMMA * LAMBDA * gamma_plus - GAMMA)
    return gamma_k, delta, residual


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
    # arc-length positions of the samples
    s_vals = np.linspace(0.0, total, samples)
    kvecs = []
    for s in s_vals:
        acc = 0.0
        for (p0, p1, L) in zip(pts, pts[1:], seg_len):
            if s <= acc + L or (p1 is pts[-1] and s >= total):
                frac = 0.0 if L == 0 else (s - acc) / L
                frac = min(max(frac, 0.0), 1.0)
                kvecs.append(tuple(float(c) for c in p0 + frac * (p1 - p0)))
                break
            acc += L

    k = np.array(kvecs)
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
    return [DispersionPoint(k_perp=kv, gamma_k=float(g), delta_k=float(d))
            for kv, g, d in zip(kvecs, gk, dk)]


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
    light cone.  Delta_k is even in kx and in ky, so the sum runs over the
    non-negative frequencies and is mirrored onto the fftfreq layout.
    """
    m = np.arange(n_side)
    k = 2.0 * np.pi * m[: n_side // 2 + 1] / (n_side * a)
    _, half, residual = _lattice_sum(k[:, None], k[None, :], a)
    fold = np.minimum(m, n_side - m)
    delta = half[np.ix_(fold, fold)]
    delta.setflags(write=False)
    return DispersionGrid(a=float(a), n_side=int(n_side), delta_k=delta,
                          residual=residual)
