"""Free-space dipole-dipole kernel and its derivatives.

Internal units: wavelength lambda = 1, single-atom decay rate gamma = 1, so the
optical wavenumber is q = 2*pi.  The scalar kernel is the dyadic Green's tensor
contracted with an in-plane dipole orientation e_d,

    D(r) = -i (3/2) gamma lambda  e_d^dag . G(r) . e_d ,

whose real part is the pairwise radiative decay and whose imaginary part is the
coherent dipole-dipole shift.  The tensor splits into G = A(r) I + B(r) rr/r^2,
which makes every contraction a combination of two radial profiles; all closed
forms below are written in x = q r.

The coincident point is served analytically: D(0) = gamma/2 (half the
single-atom emission rate; the divergent self-shift is dropped) and
d^2_z D(0) = -q^2 gamma / 5.
"""

from __future__ import annotations

import numpy as np

from .errors import GrazingError

Q = 2.0 * np.pi          # optical wavenumber, units 1/lambda
GAMMA = 1.0              # free-space decay rate (internal unit)
LAMBDA = 1.0

# circular in-plane orientation (e_x + i e_y)/sqrt(2)
E_D_CIRCULAR = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)

# crossover to Taylor series; below this the closed forms lose digits to
# cancellation among the 1/x^3 near-field terms
_X_SMALL = 0.25

# Taylor coefficients of the regular parts around x = 0 (even/odd split done
# inline).  D_A, D_B are the identity- and dyad-contraction kernels; P1, P2 the
# corresponding second-z-derivative profiles divided by q^2.
_DA_RE = (0.5, -1.0 / 10.0, 3.0 / 560.0, -1.0 / 7560.0, 1.0 / 532224.0)
_DA_IM = (9.0 / 32.0, -5.0 / 192.0, 7.0 / 7680.0, -3.0 / 179200.0, 11.0 / 58060800.0)
_DB_RE = (0.0, 1.0 / 20.0, -1.0 / 280.0, 1.0 / 10080.0, -1.0 / 665280.0)
_DB_IM = (-3.0 / 32.0, 1.0 / 64.0, -1.0 / 1536.0, 1.0 / 76800.0, -1.0 / 6451200.0)
_P1_RE = (-1.0 / 5.0, 3.0 / 140.0, -1.0 / 1260.0, 1.0 / 66528.0)
_P1_IM = (-5.0 / 64.0, 7.0 / 1536.0, -3.0 / 25600.0, 11.0 / 6451200.0)
_P2_RE = (0.0, -1.0 / 140.0, 1.0 / 2520.0, -1.0 / 110880.0)
_P2_IM = (1.0 / 64.0, -1.0 / 512.0, 1.0 / 15360.0, -1.0 / 921600.0)


def _poly_even(coeffs, x2):
    out = np.zeros_like(x2)
    for c in reversed(coeffs):
        out = out * x2 + c
    return out


def _closed_form_points(x):
    """What every closed-form profile below reads: x as floats, the mask of
    its series points (x < _X_SMALL), x with those points set to 1, and
    e^{ix} there.  A caller of two profiles forms the exponential once."""
    x = np.asarray(x, dtype=float)
    small = x < _X_SMALL
    xs = np.where(small, 1.0, x)
    return x, small, xs, np.exp(1j * xs)


def _da(points):
    """Identity-part kernel D_A(x); closed form with series fallback."""
    x, small, xs, e = points
    out = np.empty(x.shape, dtype=complex)
    out[...] = -0.75j * e * (1.0 / xs + 1j / xs**2 - 1.0 / xs**3)
    if np.any(small):
        x2 = x[small] ** 2
        re = _poly_even(_DA_RE, x2)
        im = x[small] * _poly_even(_DA_IM, x2) - 3.0 / (8.0 * x[small]) \
            + 3.0 / (4.0 * x[small] ** 3)
        out[small] = re + 1j * im
    return out


def _db(points):
    """Dyad-part kernel D_B(x)."""
    x, small, xs, e = points
    out = np.empty(x.shape, dtype=complex)
    out[...] = -0.75j * e * (-1.0 / xs - 3j / xs**2 + 3.0 / xs**3)
    if np.any(small):
        x2 = x[small] ** 2
        re = _poly_even(_DB_RE, x2)
        im = x[small] * _poly_even(_DB_IM, x2) - 3.0 / (8.0 * x[small]) \
            - 9.0 / (4.0 * x[small] ** 3)
        out[small] = re + 1j * im
    return out


def _p1(points):
    """d^2_z identity-part profile, units q^2: (3/(4x^5))(x^3+2ix^2-3x-3i)e^{ix}."""
    x, small, xs, e = points
    out = np.empty(x.shape, dtype=complex)
    out[...] = 0.75 * (xs**3 + 2j * xs**2 - 3.0 * xs - 3j) * e / xs**5
    if np.any(small):
        x2 = x[small] ** 2
        re = _poly_even(_P1_RE, x2)
        im = x[small] * _poly_even(_P1_IM, x2) + 9.0 / (32.0 * x[small]) \
            + 3.0 / (8.0 * x[small] ** 3) - 9.0 / (4.0 * x[small] ** 5)
        out[small] = re + 1j * im
    return out


def _p2(points):
    """d^2_z dyad-part profile, units q^2: (3/(4x^5))(-x^3-6ix^2+15x+15i)e^{ix}."""
    x, small, xs, e = points
    out = np.empty(x.shape, dtype=complex)
    out[...] = 0.75 * (-xs**3 - 6j * xs**2 + 15.0 * xs + 15j) * e / xs**5
    if np.any(small):
        x2 = x[small] ** 2
        re = _poly_even(_P2_RE, x2)
        im = x[small] * _poly_even(_P2_IM, x2) + 3.0 / (32.0 * x[small]) \
            + 9.0 / (8.0 * x[small] ** 3) + 45.0 / (4.0 * x[small] ** 5)
        out[small] = re + 1j * im
    return out


def _check_inplane(e_d):
    e_d = np.asarray(e_d, dtype=complex)
    if e_d.shape != (3,):
        raise ValueError("dipole orientation must be a 3-vector")
    if abs(np.vdot(e_d, e_d).real - 1.0) > 1e-12:
        raise ValueError("dipole orientation must be unit-normalized")
    if abs(e_d[2]) > 1e-12:
        raise ValueError("dipole orientation must be in-plane (e_d . e_z = 0)")
    return e_d


def kernel_fs(r_perp, dz=0.0, e_d=None):
    """Scalar free-space kernel D_fs at transverse/longitudinal displacement.

    Parameters
    ----------
    r_perp : 2-vector (units lambda); dz : longitudinal offset.
    e_d : in-plane complex unit 3-vector; circular (e_x + i e_y)/sqrt(2) when None.

    Returns the complex rate (units gamma).  The coincident point returns
    gamma/2 + 0j: the real part is half the single-atom emission rate, the
    divergent self-shift is dropped.
    """
    e_d = E_D_CIRCULAR if e_d is None else _check_inplane(e_d)
    rp = np.asarray(r_perp, dtype=float)
    rho2 = rp[0] ** 2 + rp[1] ** 2
    r = np.sqrt(rho2 + dz * dz)
    if r == 0.0:
        return 0.5 * GAMMA + 0.0j
    # |e_d^dag . rhat|^2; e_d has no z-component so only r_perp enters
    proj = np.conj(e_d[0]) * rp[0] + np.conj(e_d[1]) * rp[1]
    t = float(abs(proj) ** 2) / r**2
    points = _closed_form_points(Q * r)
    return complex(_da(points) + t * _db(points))


def kernel_fs_d2z(r_perp, e_d=None):
    """Second longitudinal derivative of D_fs, evaluated in the array plane.

    Returns d^2 D_fs / d dz^2 at dz = 0 (units gamma / lambda^2).  At zero
    transverse displacement the analytic limit -q^2 gamma / 5 + 0j is returned
    (self-shift dropped, same convention as kernel_fs).  The first derivative
    vanishes at dz = 0 by symmetry, so this is the leading motional response.
    """
    e_d = E_D_CIRCULAR if e_d is None else _check_inplane(e_d)
    rp = np.asarray(r_perp, dtype=float)
    rho = float(np.hypot(rp[0], rp[1]))
    if rho == 0.0:
        return -Q * Q * GAMMA / 5.0 + 0.0j
    proj = np.conj(e_d[0]) * rp[0] + np.conj(e_d[1]) * rp[1]
    t = float(abs(proj) ** 2) / rho**2
    points = _closed_form_points(Q * rho)
    return complex(Q * Q * (_p1(points) + t * _p2(points)))


def kernel_fs_momentum(k_perp, dz=0.0, e_d=None):
    """Transverse-momentum representation of D_fs, per propagating/evanescent k.

    value = (3/2) gamma lambda e^{i k_z |dz|} / (2 k_z) * (1 - |k . e_d|^2 / q^2)

    with k_z = sqrt(q^2 - |k_perp|^2) on the propagating branch and
    k_z = i sqrt(|k_perp|^2 - q^2) on the evanescent branch (outgoing/decaying
    fields).  For circular polarization the weight is 1 - |k_perp|^2/(2 q^2).
    """
    e_d = E_D_CIRCULAR if e_d is None else _check_inplane(e_d)
    kp = np.asarray(k_perp, dtype=float)
    k2 = kp[0] ** 2 + kp[1] ** 2
    if abs(k2 - Q * Q) <= 1e-14 * Q * Q:
        raise GrazingError("grazing wavevector: |k_perp| = q has no finite k_z")
    if k2 < Q * Q:
        kz = np.sqrt(Q * Q - k2)
    else:
        kz = 1j * np.sqrt(k2 - Q * Q)
    proj = np.conj(e_d[0]) * kp[0] + np.conj(e_d[1]) * kp[1]
    weight = 1.0 - float(abs(proj) ** 2) / (Q * Q)
    return 1.5 * GAMMA * LAMBDA * np.exp(1j * kz * abs(dz)) / (2.0 * kz) * weight


# ---------------------------------------------------------------------------
# vectorized in-plane forms used by the lattice-table builders, for circular
# polarization: t = 1/2 in every direction, so the kernel is radial

def _plane_points(rho):
    """``_closed_form_points`` at x = q rho, with the coincident point rho = 0
    read as x = 1 (its value is set by the callers)."""
    return _closed_form_points(np.where(rho > 0, Q * rho, 1.0))


def _fs_plane(rho, points):
    return np.where(rho > 0, _da(points) + 0.5 * _db(points), 0.5 * GAMMA + 0.0j)


def _fs_d2z_plane(rho, points):
    return np.where(rho > 0, Q * Q * (_p1(points) + 0.5 * _p2(points)),
                    -Q * Q * GAMMA / 5.0 + 0.0j)


def kernel_fs_plane(dx, dy):
    """kernel_fs at dz=0, vectorized over displacement meshes (zero -> gamma/2)."""
    rho = np.hypot(np.asarray(dx, dtype=float), np.asarray(dy, dtype=float))
    return _fs_plane(rho, _plane_points(rho))


def kernel_fs_d2z_plane(dx, dy):
    """kernel_fs_d2z vectorized over displacement meshes (zero -> -q^2 gamma/5)."""
    rho = np.hypot(np.asarray(dx, dtype=float), np.asarray(dy, dtype=float))
    return _fs_d2z_plane(rho, _plane_points(rho))


def kernel_fs_plane_profiles(rho):
    """(``kernel_fs_plane``, ``kernel_fs_d2z_plane``) at the radii rho >= 0,
    bit for bit, from one evaluation of the closed-form points."""
    rho = np.asarray(rho, dtype=float)
    points = _plane_points(rho)
    return _fs_plane(rho, points), _fs_d2z_plane(rho, points)
