"""Damped real-space reference for the infinite-array lattice sum.

S(k) = sum_{n != 0} e^{-i k . r_n} D_fs(r_n) = Gamma_k / 2 + i Delta_k, summed
term by term over the disc r <= radius with exponential damping e^{-eps r},
eps in {0.02, 0.04, 0.08} / lambda, Richardson-extrapolated to eps -> 0, and a
C^3 radial taper over the outer ``taper`` fraction of the radius.  Slow
(O(radius^2 / a^2) kernel evaluations per wavevector) and only algebraically
convergent, but independent of the Ewald splitting the library uses; the
tests compare the two.  Near a grazing diffraction order the damped sum
converges slowly: ``residual`` (the distance between the extrapolant and the
window-only sum) then grows.
"""

import numpy as np

from arraycav.greens import kernel_fs_plane_profiles

EPS = (0.02, 0.04, 0.08)        # damping rates, units 1/lambda
RADIUS = 60.0                   # summation radius, units lambda
TAPER = 0.4                     # fraction of the radius used by the window


def taper(x):
    """1 for x <= 0, 0 for x >= 1, degree-7 smoothstep in between."""
    x = np.clip(x, 0.0, 1.0)
    return 1.0 - x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def damped_lattice_sum(k, a, radius=RADIUS):
    """(S, residual): the extrapolated damped sum and |S - window-only sum|."""
    m = int(np.floor(radius / a))
    d = np.arange(-m, m + 1)
    ii, jj = np.meshgrid(d, d, indexing="ij")
    x, y = ii.ravel() * a, jj.ravel() * a
    r = np.hypot(x, y)
    sel = (r > 0) & (r <= radius)
    x, y, r = x[sel], y[sel], r[sel]
    base = (np.cos(k[0] * x + k[1] * y) * kernel_fs_plane_profiles(r)[0]
            * taper((r - (1.0 - TAPER) * radius) / (TAPER * radius)))
    f = [np.sum(base * np.exp(-e * r)) for e in EPS]
    second = (8.0 * f[0] - 6.0 * f[1] + f[2]) / 3.0
    return complex(second), float(abs(second - np.sum(base)))
