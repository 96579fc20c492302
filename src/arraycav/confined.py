"""Transversely confined radiation channel and the projected dipole kernel.

The radiation emitted by the array into the cavity-matched, paraxial channel
occupies the transverse-momentum disc |k_perp| <= k_cut.  Removing that disc
from the radiative (real) part of the free-space kernel yields the kernel of
the *non-confined* modes,

    Re[D] = Re[D_fs] - Re[D_c],      Im[D] = Im[D_fs],

so that any dipole profile whose spectrum lies inside the disc is radiatively
dark while its dispersive dipole-dipole shifts are untouched (near fields do
not see the mirrors).

The confined kernel at coincident planes is a radial Bessel integral over the
disc; substituting u = k_z removes the light-line singularity and makes the
integrand polynomial-smooth, so Gauss-Legendre quadrature converges to machine
precision.  As a function of the radius the kernel is band-limited by k_cut,
so [0, rho_max] is cut into equal panels and the quadrature runs only at the
Chebyshev points of a low-degree interpolant on each (Trefethen,
Approximation Theory and Approximation Practice, ch. 8); each panel's
lattice radii are read off its Chebyshev coefficients by Clenshaw's
recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._numerics import gl_interval, horner, open_convolve
from .config import LatticeSpec
from .errors import ConfigError, ConvergenceError
from .greens import GAMMA, LAMBDA, Q, kernel_fs_plane_profiles


@dataclass(frozen=True, eq=False)
class ModeProfile:
    """Normalized complex weights over lattice sites (flat, row-major)."""

    weights: np.ndarray

    def __post_init__(self):
        norm = float(np.sum(np.abs(self.weights) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"profile not normalized: sum |u|^2 = {norm!r}")


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Translation-invariant lattice kernel K[n, m] = table[i_n - i_m, j_n - j_m].

    ``table`` holds the kernel over the (2 n_side - 1)^2 displacements, indexed
    by offset + (n_side - 1), units gamma.  It is the only form: every
    consumer applies it by FFT convolution.
    """

    table: np.ndarray
    kind: str                     # fs | confined | projected | projected_d2z
    provenance: dict = field(default_factory=dict)

    @property
    def n_side(self) -> int:
        return (self.table.shape[0] + 1) // 2

    @property
    def n_sites(self) -> int:
        return self.n_side * self.n_side


def cavity_profile(lattice: LatticeSpec, w: float) -> ModeProfile:
    """Gaussian cavity-mode profile on the lattice, renormalized discretely.

    u_n ~ exp(-|r_n|^2 / w^2) with sum_n |u_n|^2 = 1.  Requires the lattice to
    extend over at least 4 w so the boundary weight is negligible.
    """
    if lattice.extent < 4.0 * w:
        raise ConfigError(
            f"lattice too small: extent {lattice.extent:g} < 4 w = {4 * w:g}")
    X, Y = lattice.meshes()
    u = np.exp(-(X**2 + Y**2) / (w * w)).ravel()
    u = u / np.linalg.norm(u)
    u.setflags(write=False)
    return ModeProfile(weights=u.astype(complex))


def confined_nodes(k_cut_abs, rho_max):
    """Gauss-Legendre node count of the confined quadrature out to radius
    ``rho_max``: at least 192, growing with the largest phase k_cut rho."""
    phase = k_cut_abs * rho_max
    return max(192, int(0.75 * phase) + 96)


# J0 evaluations (with their share of the quadrature contraction) per
# Clenshaw step of one radius: the exchange rate of the panel rule's cost
_J0_COST = 16.0


def chebyshev_panels(k_cut_abs, rho_max, radii, nodes):
    """Panel count P and degree K of the piecewise Chebyshev interpolant of
    the confined profiles on [0, rho_max].

    The profiles have exponential type k_cut, so on a panel of half-width h/2
    their Chebyshev coefficients fall like J_k(z), z = k_cut h / 2: they
    reach round-off a transition width ~ z^(1/3) past k = z, and
    K = ceil(z + 12 z^(1/3)) + 8 puts the last 8 below 3e-15 of the largest
    (checked for z up to 400 and k_cut up to 0.999 q).  Below z ~ 0.2 they
    fall like (z/2)^k / k!, which that count undershoots (at z = 0.06, J_6
    of 1.7e-13 lands in the tail), so K keeps at least 8 coefficients ahead
    of the last 8: J_9(z) < 3e-15 there.  More panels mean a
    lower degree, so fewer Clenshaw steps for each of the ``radii`` radii,
    but more J0 evaluations, P (K + 1) at each of the ``nodes`` quadrature
    nodes.  P is the count from 1 to ceil(k_cut rho_max / 2) that minimizes
    that work, one J0 evaluation counted as _J0_COST Clenshaw steps.  Small
    phases take one panel.
    """
    z = 0.5 * k_cut_abs * rho_max
    panels = np.arange(1, max(1, math.ceil(z)) + 1)
    zp = z / panels
    degree = np.maximum(np.ceil(zp + 12.0 * np.cbrt(zp)), 8) + 8
    cost = _J0_COST * nodes * panels * (degree + 1) + radii * degree
    best = int(np.argmin(cost))
    return int(panels[best]), int(degree[best])


# J0 as monomials in a mapped variable, from Chebyshev interpolants of mpmath
# values (40 digits) truncated at 1e-18: on [0, 4] in u = x^2/8 - 1, on [4, 8]
# in u = (x^2 - 16)/24 - 1, and beyond 8 the Hankel amplitudes P0 and x Q0 / 8
# in s = 64/x^2 (Abramowitz & Stegun 9.2.5-9.2.6)
_J0_LOW = (
    -0.1965480952704682, -0.565959973761085, 0.4795280821510107,
    -0.1310320635136455, 0.01835270061006565, -0.0015789541366878427,
    9.228173990226533e-05, -3.9103419791529915e-06, 1.2577280629362694e-07,
    -3.177438769960179e-09, 6.474430237321259e-11, -1.0874323451174138e-12,
    1.529983196324343e-14)
_J0_MID = (
    0.22884381861489356, 0.38275938851646063, -0.5267466900617466,
    -0.01895695708517774, 0.16655463770685366, -0.0765339738239579,
    0.01828043038715881, -0.0028413092999127376, 0.00031651685755636433,
    -2.6743525705695655e-05, 1.7808295981199985e-06, -9.611892938836223e-08,
    4.29730839874188e-09, -1.6193080525051436e-10, 5.230931989699606e-12,
    -1.457354692537965e-13)
_J0_P = (
    1.0, -0.0010986328124997194, 2.7380883674590027e-05, -2.183919087293926e-06,
    3.620336874379102e-07, -1.0239634578084939e-07, 4.382961467300473e-08,
    -2.5444119557063712e-08, 1.733224495520508e-08, -1.1688912811448236e-08,
    6.6867303331631165e-09, -2.8371031079411603e-09, 7.651118464341279e-10,
    -9.666582798501347e-11)
_J0_Q = (
    -0.015625, 0.00014305114746093202, -6.930786184414751e-06,
    8.238446502903772e-07, -1.8164862630523595e-07, 6.417767495143472e-08,
    -3.3154923176562344e-08, 2.331630253293496e-08, -2.053529450562898e-08,
    2.0216979878606625e-08, -1.9641071756540956e-08, 1.6933509696135613e-08,
    -1.1938781172860366e-08, 6.41711789267921e-09, -2.4294403580039753e-09,
    5.721361132563372e-10, -6.273149164177316e-11)


def j0(x):
    """Bessel J0 of a real array, to 5e-16 absolute (checked on [0, 5,000]).

    Beyond 8, J0 = [(P0 + Q0) cos x + (P0 - Q0) sin x] / sqrt(pi x): the
    phase x - pi/4 is never formed, so its rounding (5e-13 at x = 5,000)
    does not enter.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    low, far = x < 4.0, x >= 8.0
    mid = ~(low | far)
    v = x[low]
    out[low] = horner(_J0_LOW, v * v / 8.0 - 1.0)
    v = x[mid]
    out[mid] = horner(_J0_MID, (v * v - 16.0) / 24.0 - 1.0)
    v = x[far]
    s = 64.0 / (v * v)
    p, q = horner(_J0_P, s), horner(_J0_Q, s) * (8.0 / v)
    out[far] = ((p + q) * np.cos(v) + (p - q) * np.sin(v)) / np.sqrt(np.pi * v)
    return out


# Largest Chebyshev coefficient of a panel's last _TAIL_COEFFS, relative to
# the profile's largest over all panels, that the interpolant accepts
_TAIL_COEFFS, _TAIL_TOL = 8, 1e-13

# J0 values formed per block: 2 MB of float64 at a time; radii per block of
# the Clenshaw readout, whose three work arrays then stay in cache
_BLOCK = 1 << 18
_READOUT_BLOCK = 1 << 13


def _radius_index(lattice: LatticeSpec, radii2):
    """The distinct radii a sqrt(m) of the integer squared radii ``radii2``,
    ascending, and each entry's position among them: the m are marked in a
    presence mask over 0..2 (n_side - 1)^2, whose running count is the
    index.  O(n_side^2) time and memory, no sort."""
    present = np.zeros(2 * (lattice.n_side - 1) ** 2 + 1, dtype=bool)
    present[radii2] = True
    return lattice.a * np.sqrt(np.flatnonzero(present)), (np.cumsum(present) - 1)[radii2]


def lattice_radii(lattice: LatticeSpec):
    """The radial index shared by every kernel table of the lattice.

    Returns ``(rho, inverse)``: the R distinct radii rho = a sqrt(i^2 + j^2),
    ascending, and the (2 n_side - 1, 2 n_side - 1) integer array such that
    ``profile[inverse]`` is the displacement table of a radial profile
    evaluated on ``rho``.  R is 21,860 at n_side 256, against 261,121
    displacements.
    """
    sq = np.arange(-(lattice.n_side - 1), lattice.n_side) ** 2
    return _radius_index(lattice, sq[:, None] + sq[None, :])


def octant_radii(lattice: LatticeSpec):
    """The radial index over one octant of the displacements, for sums of
    D4-symmetric fields.

    Returns ``(rho, (i, j), index, multiplicity)``: the same R radii as
    ``lattice_radii``, the offsets 0 <= j <= i < n_side (n_side (n_side + 1)
    / 2 of them, an eighth of the (2 n_side - 1)^2 displacements), the
    position of each offset's radius in ``rho``, and the size of its orbit
    under the eight symmetries of the square: 1 at the origin, 4 on the axis
    and the diagonal, 8 elsewhere.  A sum over all displacements of a field
    invariant under those symmetries is the sum over the octant weighted by
    ``multiplicity``.
    """
    i, j = np.tril_indices(lattice.n_side)
    rho, index = _radius_index(lattice, i * i + j * j)
    multiplicity = np.where(j == 0, 4.0, 8.0)
    multiplicity[i == j] = 4.0
    multiplicity[0] = 1.0
    return rho, (i, j), index, multiplicity


def confined_rule(k_cut_abs: float, nodes: int):
    """The Gauss-Legendre rule of the confined Bessel integrals: the radial
    wavenumbers k = sqrt(q^2 - u^2) at the ``nodes`` nodes in u, and the
    (nodes, 2) weights of D_c and of its d2z, so that the profiles at rho
    are J0(rho k) @ weights.

    The rule runs over s = q - u in [0, k_cut^2 / (q + u_min)], and
    k = sqrt(s (2q - s)): neither the interval, q - u_min, nor k near u = q
    is formed by cancellation, which would cost a relative ~1e-16 q^2 /
    k_cut^2 (1.4e-14 of d2z D_c(0) at k_cut = q / 8).
    """
    span = k_cut_abs * k_cut_abs / (Q + math.sqrt(Q * Q - k_cut_abs * k_cut_abs))
    s, ws = gl_interval(0.0, span, nodes)
    u = Q - s
    weight = (3.0 * GAMMA * LAMBDA / (16.0 * np.pi)) * (1.0 + u * u / (Q * Q)) * ws
    return np.sqrt(s * (2.0 * Q - s)), np.stack([weight, -weight * u * u], axis=1)


def _clenshaw(coeffs, t, out):
    """out[i] = sum_k coeffs[k, i] T_k(t) for the (K + 1, 2) Chebyshev
    coefficients of two profiles at the points t, into the (2, len(t)) out:
    Clenshaw's recurrence in place, three multiply-adds per step."""
    tt = 2.0 * t
    b1, b2 = np.zeros_like(out), np.zeros_like(out)
    for c in coeffs[:0:-1, :, None]:
        np.multiply(tt, b1, out=out)
        np.subtract(out, b2, out=b2)
        b2 += c
        b1, b2 = b2, b1
    np.multiply(t, b1, out=out)
    out -= b2
    out += coeffs[0, :, None]


def confined_profiles(rho, k_cut_abs: float, *, diagnostics: dict | None = None):
    """The confined kernel and its d2z at the radii ``rho`` (ascending, as
    ``lattice_radii`` gives them).

    D_c(rho) = (3 gamma lambda / (16 pi)) Int_{u_min}^{q} (1 + u^2/q^2)
               J0(sqrt(q^2 - u^2) rho) du,          u_min = sqrt(q^2 - k_cut^2),

    for circular polarization; the d2z variant carries an extra factor -u^2.
    Real-valued: only the propagating (radiative) channel is confined.

    Returns the (2, R) array of (D_c, d2z D_c) at the R radii.  Both are
    entire functions of rho of exponential type k_cut, so [0, rho_max] is
    cut into P equal panels, each with a degree-K interpolant at its K + 1
    first-kind Chebyshev points (P and K from ``chebyshev_panels``).  One
    pass of J0 at the P (K + 1) points and the ``confined_nodes``
    quadrature nodes, contracted with both weight vectors of
    ``confined_rule``, gives the values there; a (K + 1)^2 cosine matrix
    turns each panel's values into Chebyshev coefficients.  On every panel
    the last 8 must fall below 1e-13 of the profile's largest coefficient,
    else ConvergenceError names the panel.  Each panel's radii, contiguous
    in the sorted ``rho``, are read out by Clenshaw's recurrence in blocks.
    The Chebyshev points and each radius's local coordinate are rounded to
    ~eps of the panel width, which the profiles' slope k_cut turns into an
    error of ~0.1 eps z of their maximum, z = k_cut h / 2 the panel
    half-phase (at most 0.13 eps z against an mpmath quadrature over 40
    random cases with z up to 950).  Time is P (K + 1) nodes J0 evaluations
    plus O(R K) arithmetic, memory O(R + P K) plus one block: at n_side 256,
    a = 0.25 and k_cut = 0.75, P = 4 and K = 41 (z = 8.5), and 32 k J0
    evaluations replace the 4.2 M of a per-radius quadrature.
    ``diagnostics``, if a dict, receives ``confined_nodes``,
    ``chebyshev_panels``, ``chebyshev_degree`` and ``chebyshev_tail`` (the
    largest relative tail over the panels and both profiles).
    """
    if not 0.0 < k_cut_abs < Q:
        raise ValueError("k_cut must lie strictly between 0 and q")
    rho_max = float(rho[-1])
    nodes = confined_nodes(k_cut_abs, rho_max)
    panels, degree = chebyshev_panels(k_cut_abs, rho_max, rho.size, nodes)
    kk, weights = confined_rule(k_cut_abs, nodes)
    k = np.arange(degree + 1)
    width = rho_max / panels
    points = ((np.arange(panels)[:, None]
               + 0.5 * (1.0 + np.cos((k + 0.5) * (np.pi / (degree + 1))))) * width).ravel()
    values = np.empty((points.size, 2))
    rows = max(1, _BLOCK // nodes)
    for s in range(0, points.size, rows):
        values[s:s + rows] = j0(np.outer(points[s:s + rows], kk)) @ weights
    # c_k = (2 / (K + 1)) sum_j values_j cos(k theta_j), with k theta_j
    # reduced exactly (in integers) to [0, 2 pi): cos of the unreduced
    # product leaves a tail floor of ~1e-14 at K = 94 and ~1e-13 at K = 900
    turns = np.outer(k, 2 * k + 1) % (4 * (degree + 1))
    cosines = np.cos(turns * (np.pi / (2 * (degree + 1)))) * (2.0 / (degree + 1))
    cosines[0] *= 0.5
    coeffs = cosines @ values.reshape(panels, degree + 1, 2)
    tails = np.max(np.max(np.abs(coeffs[:, -_TAIL_COEFFS:]), axis=1)
                   / np.max(np.abs(coeffs), axis=(0, 1)), axis=1)
    worst = int(np.argmax(tails))
    if diagnostics is not None:
        diagnostics.update(confined_nodes=nodes, chebyshev_panels=panels,
                           chebyshev_degree=degree, chebyshev_tail=float(tails[worst]))
    if not tails[worst] < _TAIL_TOL:
        raise ConvergenceError(
            f"confined-kernel Chebyshev tail {tails[worst]:.2g} not below "
            f"{_TAIL_TOL:g} on panel {worst + 1} of {panels} (rho in "
            f"[{worst * width:.6g}, {(worst + 1) * width:.6g}]) at degree {degree}")
    # panel p holds the radii in [p h, (p + 1) h), h = width, at local
    # coordinate t = (rho - (p + 1/2) h) (2 / h) in [-1, 1]
    bounds = np.searchsorted(rho, width * np.arange(panels + 1))
    bounds[-1] = rho.size
    scale = 2.0 / width if width > 0 else 0.0
    out = np.empty((2, rho.size))
    for p in range(panels):
        for s in range(bounds[p], bounds[p + 1], _READOUT_BLOCK):
            e = min(s + _READOUT_BLOCK, bounds[p + 1])
            _clenshaw(coeffs[p], (rho[s:e] - (p + 0.5) * width) * scale, out[:, s:e])
    return out


def remove_confined(fs, confined):
    """The projection rule on arrays of kernel values (tables or radial
    profiles): Re D = Re D_fs - Re D_c, Im D = Im D_fs."""
    return (fs.real - confined.real) + 1j * fs.imag


def projected_profiles(rho, k_cut_abs: float, *, diagnostics: dict | None = None):
    """The projected kernel and its d2z at the radii ``rho`` (ascending, as
    ``lattice_radii`` and ``octant_radii`` give them): the one place where the
    projection rule meets the radial profiles.

    Returns (D, d2z D), each complex at the R radii: ``remove_confined`` of
    the free-space pair (one ``kernel_fs_plane_profiles`` evaluation) and the
    confined pair (one ``confined_profiles`` J0 pass, which fills
    ``diagnostics``, if a dict, with its work sizes).
    """
    confined = confined_profiles(rho, k_cut_abs, diagnostics=diagnostics)
    return tuple(map(remove_confined, kernel_fs_plane_profiles(rho), confined))


def free_space_kernel(lattice: LatticeSpec) -> KernelMatrix:
    """Free-space kernel D_fs with the coincident-point convention D(0) =
    gamma/2: radial for circular polarization, so the closed form is
    evaluated once per distinct lattice radius and scattered over the
    displacement table (kind 'fs')."""
    rho, inverse = lattice_radii(lattice)
    return KernelMatrix(table=kernel_fs_plane_profiles(rho)[0][inverse], kind="fs",
                        provenance={"a": lattice.a, "n_side": lattice.n_side,
                                    "derivative": 0})


def confined_kernel_paraxial(lattice: LatticeSpec, z0: float, k_cut: float) -> KernelMatrix:
    """Confined kernel D_c on the lattice: the |k_perp| <= k_cut radiative disc.

    ``k_cut`` is the absolute cutoff wavenumber (units 1/lambda; pass
    cfg.cavity.k_cut_abs).  All atoms sit in the common plane z0; near the
    focus the coincident-plane kernel does not depend on z0, which is recorded
    in provenance only.  Symmetric and real (kind 'confined').  The projected
    pair of both derivatives comes from ``projected_kernels``.
    """
    rho, inverse = lattice_radii(lattice)
    return KernelMatrix(table=confined_profiles(rho, k_cut)[0][inverse], kind="confined",
                        provenance={"a": lattice.a, "n_side": lattice.n_side,
                                    "z0": z0, "k_cut": k_cut, "derivative": 0})


def projected_kernel(fs: KernelMatrix, confined: KernelMatrix) -> KernelMatrix:
    """Non-confined kernel: radiative part of ``confined`` removed from ``fs``.

    The real (radiative) part becomes Re[fs] - Re[confined]; the imaginary
    (dispersive) part is taken from ``fs`` unchanged, since the near fields
    that dominate it are unaffected by the cavity structure.  The pair must
    be a free-space kernel (kind 'fs') and a confined kernel (kind
    'confined') on the same lattice (``a`` and ``n_side`` of both
    provenances), else ValueError.
    """
    if (fs.kind, confined.kind) != ("fs", "confined"):
        raise ValueError(f"cannot project a {fs.kind!r} kernel against a "
                         f"{confined.kind!r} kernel: needs 'fs' and 'confined'")
    lattices = [(k.provenance.get("a"), k.provenance.get("n_side")) for k in (fs, confined)]
    if lattices[0] != lattices[1]:
        raise ValueError(f"kernel lattice mismatch: (a, n_side) = {lattices[0]} "
                         f"against {lattices[1]}")
    prov = dict(fs.provenance)
    prov.update({k: confined.provenance[k] for k in ("z0", "k_cut")})
    return KernelMatrix(table=remove_confined(fs.table, confined.table),
                        kind="projected", provenance=prov)


def projected_kernels(lattice: LatticeSpec, z0: float, k_cut: float):
    """The projected kernel and its d2z (kinds 'projected', 'projected_d2z'):
    ``projected_profiles`` at the lattice radii, scattered over the
    displacements."""
    rho, inverse = lattice_radii(lattice)
    return tuple(
        KernelMatrix(table=profile[inverse], kind=kind,
                     provenance={"a": lattice.a, "n_side": lattice.n_side,
                                 "derivative": derivative, "z0": z0, "k_cut": k_cut})
        for profile, kind, derivative in zip(projected_profiles(rho, k_cut),
                                             ("projected", "projected_d2z"), (0, 2)))


def mode_decay_rate(profile: ModeProfile, kernel: KernelMatrix) -> float:
    """Collective emission rate of a profile into the kernel's mode continuum,
    u^dag (2 Re K) u, by zero-padded FFT convolution of the displacement
    table: O(N log N), exact to round-off."""
    u = profile.weights.reshape(kernel.n_side, kernel.n_side)
    tu = open_convolve(kernel.table.real, u)
    return float(np.real(np.sum(np.conj(u) * 2.0 * tu)))
