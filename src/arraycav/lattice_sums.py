"""Collective-mode dispersion of the infinite 2D array by two independent routes.

The cooperative decay Gamma_k and shift Delta_k of the Bloch dipole mode at
transverse wavevector k are lattice sums of the free-space kernel,

    Gamma_k = 2 sum_{n != 0} e^{-i k . r_n} Re[D_fs(r_n)],
    Delta_k =   sum_{n != 0} e^{-i k . r_n} Im[D_fs(r_n)].

Route 1 (reciprocal): Poisson resummation over diffraction orders gives the
decay exactly as a sum over propagating orders,

    Gamma_k + gamma = (3 gamma lambda / (2 a^2)) sum_prop w(k+Q) / k_z ,

with the circular-polarization weight w(p) = 1 - |p|^2/(2 q^2) and
longitudinal wavenumber k_z per order.  Only the decay is produced this way;
the shift integral converges too slowly in k space to be worth it.

Route 2 (real space): direct summation with exponential damping e^{-eps r},
eps in {0.02, 0.04, 0.08}/lambda, Richardson-extrapolated to eps -> 0, plus a
smooth radial taper that suppresses the hard-cutoff boundary error of the
oscillatory tails.  This route yields both Gamma_k and Delta_k.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._numerics import smoothstep
from .errors import ConfigError, ConvergenceError, GrazingError
from .greens import GAMMA, LAMBDA, Q, kernel_fs_plane

DEFAULT_EPS = (0.02, 0.04, 0.08)    # damping rates, units 1/lambda
DEFAULT_RADIUS = 60.0               # summation radius, units lambda
DEFAULT_TAPER = 0.4                 # fraction of the radius used by the window
GRAZING_TOL = 1e-9                  # |k_z/q|^2 below this counts as grazing


TOTAL_DECAY_TOL = 1e-3          # slack on Gamma_k + gamma >= 0 for summed routes


@dataclass(frozen=True)
class DispersionPoint:
    k_perp: tuple
    gamma_k: float              # cooperative decay Gamma_k, units gamma
    delta_k: float | None       # cooperative shift Delta_k; None if not computed
    method: str                 # real_space | reciprocal

    def __post_init__(self):
        if not np.isnan(self.gamma_k) and self.gamma_k < -GAMMA - TOTAL_DECAY_TOL:
            raise ValueError(f"total decay Gamma_k + gamma = "
                             f"{self.gamma_k + GAMMA:.3e} is negative")


@dataclass(frozen=True)
class DiffractionOrder:
    m: tuple                    # (m_x, m_y) order indices
    q_vec: tuple                # reciprocal vector (2 pi / a)(m_x, m_y)
    k_z: complex                # real (propagating) xor purely imaginary (evanescent)

    @property
    def propagating(self) -> bool:
        return self.k_z.imag == 0.0


def diffraction_orders(k_perp, a, m_max=8):
    """Enumerate grating orders k_perp + Q with their longitudinal wavenumbers."""
    kx, ky = float(k_perp[0]), float(k_perp[1])
    g = 2.0 * np.pi / a
    orders = []
    for mx in range(-m_max, m_max + 1):
        for my in range(-m_max, m_max + 1):
            px = kx + g * mx
            py = ky + g * my
            k2 = px * px + py * py
            if k2 <= Q * Q:
                kz = complex(np.sqrt(Q * Q - k2))
            else:
                kz = 1j * np.sqrt(k2 - Q * Q)
            orders.append(DiffractionOrder(m=(mx, my), q_vec=(g * mx, g * my), k_z=kz))
    return orders


def cooperative_rates_reciprocal(k_perp, a, m_max=8):
    """Gamma_k from the propagating diffraction orders; exact for the decay.

    The shift Delta_k is not produced by this route (returned as None).  The
    result is periodic under k -> k + 2 pi/a.  A wavevector putting any order
    exactly on the light line raises GrazingError.
    """
    kx, ky = float(k_perp[0]), float(k_perp[1])
    g = 2.0 * np.pi / a
    total = 0.0
    for mx in range(-m_max, m_max + 1):
        for my in range(-m_max, m_max + 1):
            px = kx + g * mx
            py = ky + g * my
            k2 = px * px + py * py
            kz2 = Q * Q - k2
            if abs(kz2) < GRAZING_TOL * Q * Q:
                raise GrazingError(
                    f"order ({mx},{my}) is grazing at this k_perp; shift k_perp "
                    "infinitesimally away from the light line")
            if kz2 > 0:
                total += (1.0 - k2 / (2.0 * Q * Q)) / np.sqrt(kz2)
    gamma_plus = 1.5 * GAMMA * LAMBDA / (a * a) * total
    return DispersionPoint(k_perp=(kx, ky), gamma_k=gamma_plus - GAMMA,
                           delta_k=None, method="reciprocal")


@lru_cache(maxsize=8)
def _sum_table(a, radius, taper):
    """Displacement data for the damped real-space sums, cached per lattice.

    Returns read-only arrays (x, y, r, D values, window) over all lattice
    displacements 0 < r <= radius.
    """
    m = int(np.floor(radius / a))
    d = np.arange(-m, m + 1)
    ii, jj = np.meshgrid(d, d, indexing="ij")
    x = ii.ravel() * a
    y = jj.ravel() * a
    r = np.hypot(x, y)
    sel = (r > 0) & (r <= radius)
    x, y, r = x[sel], y[sel], r[sel]
    vals = kernel_fs_plane(x, y)
    win = smoothstep((r - (1.0 - taper) * radius) / (taper * radius))
    for arr in (x, y, r, vals, win):
        arr.setflags(write=False)
    return x, y, r, vals, win


def cooperative_rates_real_space(k_perp, a, accel="damping_extrapolation",
                                 radius=DEFAULT_RADIUS, eps=DEFAULT_EPS,
                                 taper=DEFAULT_TAPER, residual_tol=5e-3):
    """Gamma_k and Delta_k by damped real-space summation.

    The three damped sums S(eps) are combined by second-order Richardson
    extrapolation to eps -> 0; the difference between the first- and
    second-order extrapolants is the convergence residual, and exceeding
    ``residual_tol`` (units gamma) raises ConvergenceError.  The inversion
    symmetry of the lattice makes the phase factor a cosine, so both outputs
    are real by construction.
    """
    if accel != "damping_extrapolation":
        raise ValueError(f"unknown acceleration scheme {accel!r}")
    if radius < 20.0:
        raise ValueError("summation radius must be >= 20 lambda")
    if len(eps) != 3 or not np.allclose(np.diff(np.log(eps)), np.log(2.0)):
        raise ValueError("eps must be three values in ratio 1:2:4")
    x, y, r, vals, win = _sum_table(float(a), float(radius), float(taper))
    kx, ky = float(k_perp[0]), float(k_perp[1])
    base = np.cos(kx * x + ky * y) * win
    f = [np.sum(base * np.exp(-e * r) * vals) for e in eps]
    second = (8.0 * f[0] - 6.0 * f[1] + f[2]) / 3.0
    # convergence diagnostic: the extrapolant must agree with the second,
    # independent regularization (window alone, no damping); near a grazing
    # order both limits exist but differ until the radius resolves the beat
    f0 = np.sum(base * vals)
    residual = abs(second - f0)
    if residual > residual_tol:
        raise ConvergenceError(
            f"regularization mismatch {residual:.2e} gamma exceeds "
            f"{residual_tol:.2e} at k_perp={k_perp} (slowly converging sum, "
            "likely near a grazing order; increase radius or shift k)")
    return DispersionPoint(k_perp=(kx, ky), gamma_k=float(2.0 * second.real),
                           delta_k=float(second.imag), method="real_space")


def dispersion_point(k_perp, a, radius=DEFAULT_RADIUS) -> DispersionPoint:
    """Merged best-of-both-routes sample: exact decay from the reciprocal
    route, shift from the damped real-space sum."""
    gk = cooperative_rates_reciprocal(k_perp, a).gamma_k
    dk = cooperative_rates_real_space(k_perp, a, radius=radius).delta_k
    return DispersionPoint(k_perp=(float(k_perp[0]), float(k_perp[1])),
                           gamma_k=gk, delta_k=dk, method="reciprocal")


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


def dispersion_curve(path, samples, a, radius=DEFAULT_RADIUS, threads=None,
                     strict=True):
    """Dispersion along a Brillouin-zone path: Gamma by the reciprocal route,
    Delta by the real-space route.

    ``path`` is a sequence of waypoints ('G', 'X', 'M' or explicit pairs);
    ``samples`` points are distributed over the path proportionally to segment
    length, endpoints included.  Sample order is deterministic regardless of
    the worker count.

    Samples landing too close to a diffraction threshold (where the shift sum
    is critically slow) raise when ``strict``; with ``strict=False`` they are
    kept with delta_k = NaN and a warning, so whole-band sweeps survive the
    van Hove points.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    pts = [np.array(resolve_bz_point(p, a)) for p in path]
    if len(pts) < 2:
        raise ValueError("need at least 2 waypoints")
    seg_len = [np.linalg.norm(b - a_) for a_, b in zip(pts, pts[1:])]
    total = sum(seg_len)
    if total == 0:
        raise ValueError("degenerate path")
    # arc-length positions of the samples
    s_vals = np.linspace(0.0, total, samples)
    kvecs = []
    for s in s_vals:
        acc = 0.0
        for (p0, p1, L) in zip(pts, pts[1:], seg_len):
            if s <= acc + L or (p1 is pts[-1] and s >= total):
                frac = 0.0 if L == 0 else (s - acc) / L
                frac = min(max(frac, 0.0), 1.0)
                kvecs.append(tuple(p0 + frac * (p1 - p0)))
                break
            acc += L

    def one(k):
        gk = cooperative_rates_reciprocal(k, a).gamma_k
        try:
            dk = cooperative_rates_real_space(k, a, radius=radius).delta_k
        except ConvergenceError:
            if strict:
                raise
            warnings.warn(f"shift sum unconverged at k_perp={k}; delta_k = NaN",
                          stacklevel=2)
            dk = float("nan")
        return DispersionPoint(k_perp=k, gamma_k=gk, delta_k=dk, method="reciprocal")

    if threads is not None and threads > 1:
        # build the shared real-space table before the workers race to miss
        # its unlocked cache
        _sum_table(float(a), float(radius), float(DEFAULT_TAPER))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, kvecs))
    return [one(k) for k in kvecs]


@dataclass(frozen=True, eq=False)
class DispersionGrid:
    """Delta_k sampled on the discrete Brillouin grid of a finite lattice.

    ``delta_k`` is laid out in numpy fftfreq order on the n_side x n_side grid
    conjugate to the lattice (k = 2 pi m / (n_side a)); ``delta0`` is the
    k = 0 value and ``residual`` the worst Richardson residual over the grid.
    """

    a: float
    n_side: int
    delta_k: np.ndarray
    residual: float

    @property
    def delta0(self) -> float:
        return float(self.delta_k[0, 0])


def dispersion_grid(a, n_side, radius=DEFAULT_RADIUS, eps=DEFAULT_EPS,
                    taper=DEFAULT_TAPER) -> DispersionGrid:
    """Delta_k on the full n_side^2 FFT grid in one shot.

    The damped, windowed Im[D_fs] displacement table is embedded in a padded
    M x M array (M a multiple of n_side covering the summation radius) whose
    FFT evaluates every lattice sum exactly; the target grid is the M/n_side
    subsampling.  Same damping/extrapolation scheme as the point route.
    """
    K = int(np.floor(radius / a))
    M = n_side * int(np.ceil((2 * K + 1) / n_side))
    d = np.arange(-K, K + 1)
    dx, dy = np.meshgrid(d * a, d * a, indexing="ij")
    r = np.hypot(dx, dy)
    mask = r > 0
    vals = np.zeros(r.shape)
    vals[mask] = kernel_fs_plane(dx[mask], dy[mask]).imag
    vals[mask] *= smoothstep((r[mask] - (1 - taper) * radius) / (taper * radius))
    sums = []
    step = M // n_side
    idx = d % M
    for e in eps:
        big = np.zeros((M, M))
        big[np.ix_(idx, idx)] = np.where(mask, vals * np.exp(-e * r), 0.0)
        F = np.fft.fft2(big).real          # inversion-symmetric table -> real
        sums.append(F[::step, ::step])
    f1, f2, f4 = sums
    second = (8.0 * f1 - 6.0 * f2 + f4) / 3.0
    first = 2.0 * f1 - f2
    residual = float(np.max(np.abs(second - first)))
    second.setflags(write=False)
    return DispersionGrid(a=float(a), n_side=int(n_side), delta_k=second,
                          residual=residual)
