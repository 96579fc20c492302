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
precision.  A small-scale Hermite-Gauss mode sum (pole handled by residue)
serves as an independent oracle for the same radiative content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_hermite, j0

from ._numerics import (displacement_grid, gl_interval, open_convolve,
                        toeplitz_from_table)
from .config import LatticeSpec
from .errors import ConfigError, ConvergenceError
from .greens import (GAMMA, LAMBDA, Q, kernel_fs_d2z_plane, kernel_fs_plane)

# Largest N for which a dense N x N array (kernel or mechanical basis) is
# built.  The full-system propagator holds about eight (N + 1)^2 complex
# arrays, ~2 GB at this size.
MAX_DENSE_SITES = 4096


@dataclass(frozen=True, eq=False)
class ModeProfile:
    """Normalized complex weights over lattice sites (flat, row-major)."""

    weights: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        norm = float(np.sum(np.abs(self.weights) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"profile not normalized: sum |u|^2 = {norm!r}")


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Translation-invariant lattice kernel K[n, m] = table[i_n - i_m, j_n - j_m].

    ``table`` holds the kernel over the (2 n_side - 1)^2 displacements, indexed
    by offset + (n_side - 1), units gamma.  It is the only stored form; the
    dense N x N matrix is built on request by ``dense()``.
    """

    table: np.ndarray
    kind: str                     # fs | confined | projected (+ _d2z variants)
    provenance: dict = field(default_factory=dict)

    @property
    def n_side(self) -> int:
        return (self.table.shape[0] + 1) // 2

    @property
    def n_sites(self) -> int:
        return self.n_side * self.n_side

    def dense(self) -> np.ndarray:
        """The N x N matrix, for dense linear algebra (N <= MAX_DENSE_SITES)."""
        if self.n_sites > MAX_DENSE_SITES:
            raise ConfigError(
                f"dense kernel for N = {self.n_sites} refused "
                f"(limit {MAX_DENSE_SITES}); use the displacement table instead")
        return toeplitz_from_table(self.table, self.n_side)


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
    return ModeProfile(weights=u.astype(complex), label="cavity_gaussian")


def uniform_profile(lattice: LatticeSpec) -> ModeProfile:
    u = np.full(lattice.n_sites, 1.0 / math.sqrt(lattice.n_sites), dtype=complex)
    return ModeProfile(weights=u, label="uniform")


def _quad_nodes(k_cut_abs, rho_max):
    phase = k_cut_abs * rho_max
    return max(192, int(0.75 * phase) + 96)


def confined_table(lattice: LatticeSpec, k_cut_abs: float, derivative: int = 0,
                   nodes: int | None = None):
    """Displacement table of the confined kernel (or its d2z) over the lattice.

    D_c(rho) = (3 gamma lambda / (16 pi)) Int_{u_min}^{q} (1 + u^2/q^2)
               J0(sqrt(q^2 - u^2) rho) du,          u_min = sqrt(q^2 - k_cut^2),

    for circular polarization; the d2z variant carries an extra factor -u^2.
    Real-valued: only the propagating (radiative) channel is confined.

    The kernel is radial, so the quadrature runs once per distinct lattice
    radius rho = a sqrt(i^2 + j^2) and is scattered back over the
    (2 n_side - 1)^2 displacements.  With R distinct integers i^2 + j^2
    (21,860 at n_side 256, against 261,121 displacements) time and memory are
    O(R * nodes).
    """
    if not 0.0 < k_cut_abs < Q:
        raise ValueError("k_cut must lie strictly between 0 and q")
    sq = np.arange(-(lattice.n_side - 1), lattice.n_side) ** 2
    radii2, inverse = np.unique(sq[:, None] + sq[None, :], return_inverse=True)
    rho = lattice.a * np.sqrt(radii2)
    if nodes is None:
        nodes = _quad_nodes(k_cut_abs, float(rho[-1]))
    umin = math.sqrt(Q * Q - k_cut_abs * k_cut_abs)
    u, wu = gl_interval(umin, Q, nodes)
    weight = (3.0 * GAMMA * LAMBDA / (16.0 * np.pi)) * (1.0 + u * u / (Q * Q)) * wu
    if derivative == 2:
        weight = -weight * u * u
    elif derivative != 0:
        raise ValueError("derivative must be 0 or 2")
    kk = np.sqrt(np.maximum(Q * Q - u * u, 0.0))
    out = j0(np.outer(rho, kk)) @ weight
    if not np.isfinite(out).all():
        raise ConvergenceError("confined-kernel quadrature produced non-finite values")
    return out[inverse].reshape(sq.size, sq.size)


def free_space_kernel(lattice: LatticeSpec, derivative: int = 0) -> KernelMatrix:
    """Free-space kernel D_fs (or its d2z) with the coincident-point conventions."""
    dx, dy = displacement_grid(lattice.n_side, lattice.a)
    if derivative == 0:
        table = kernel_fs_plane(dx, dy)
    elif derivative == 2:
        table = kernel_fs_d2z_plane(dx, dy)
    else:
        raise ValueError("derivative must be 0 or 2")
    return KernelMatrix(table=table, kind="fs" if derivative == 0 else "fs_d2z",
                        provenance={"a": lattice.a, "n_side": lattice.n_side,
                                    "derivative": derivative})


def confined_kernel_paraxial(lattice: LatticeSpec, z0: float, k_cut: float,
                             derivative: int = 0, nodes: int | None = None) -> KernelMatrix:
    """Confined kernel D_c on the lattice: the |k_perp| <= k_cut radiative disc.

    ``k_cut`` is the absolute cutoff wavenumber (units 1/lambda; pass
    cfg.cavity.k_cut_abs).  All atoms sit in the common plane z0; near the
    focus the coincident-plane kernel does not depend on z0, which is recorded
    in provenance only.  Symmetric and real (kind 'confined'), or the second
    longitudinal derivative (kind 'confined_d2z').
    """
    kind = "confined" if derivative == 0 else "confined_d2z"
    return KernelMatrix(table=confined_table(lattice, k_cut, derivative, nodes),
                        kind=kind,
                        provenance={"a": lattice.a, "n_side": lattice.n_side,
                                    "z0": z0, "k_cut": k_cut,
                                    "derivative": derivative})


def projected_kernel(fs: KernelMatrix, confined: KernelMatrix) -> KernelMatrix:
    """Non-confined kernel: radiative part of ``confined`` removed from ``fs``.

    The real (radiative) part becomes Re[fs] - Re[confined]; the imaginary
    (dispersive) part is taken from ``fs`` unchanged, since the near fields
    that dominate it are unaffected by the cavity structure.  Applying the
    projection a second time with the same confined channel is a no-op: the
    channel content is already absent, which is tracked through provenance.
    """
    if fs.table.shape != confined.table.shape:
        raise ValueError("kernel shape mismatch")
    base_kind = {"fs": "projected", "fs_d2z": "projected_d2z"}
    if fs.kind in ("projected", "projected_d2z"):
        if fs.provenance.get("k_cut") == confined.provenance.get("k_cut"):
            return fs
        raise ValueError("kernel already projected against a different channel")
    if fs.kind not in base_kind:
        raise ValueError(f"cannot project kernel of kind {fs.kind!r}")
    table = (fs.table.real - confined.table.real) + 1j * fs.table.imag
    prov = dict(fs.provenance)
    prov.update({k: confined.provenance[k] for k in ("z0", "k_cut")})
    return KernelMatrix(table=table, kind=base_kind[fs.kind], provenance=prov)


def mode_decay_rate(profile: ModeProfile, kernel: KernelMatrix) -> float:
    """Collective emission rate of a profile into the kernel's mode continuum,
    u^dag (2 Re K) u, by zero-padded FFT convolution of the displacement
    table: O(N log N), exact to round-off."""
    u = profile.weights.reshape(kernel.n_side, kernel.n_side)
    tu = open_convolve(kernel.table.real, u)
    return float(np.real(np.sum(np.conj(u) * 2.0 * tu)))


# ---------------------------------------------------------------------------
# Hermite-Gauss oracle for the radiative confined content

def _hg_axis(x, p, w):
    """Normalized 1D Hermite-Gauss function h_p(x) at waist w."""
    norm = (2.0 / (np.pi * w * w)) ** 0.25 / math.sqrt(2.0**p * math.factorial(p))
    return norm * eval_hermite(p, np.sqrt(2.0) * x / w) * np.exp(-(x / w) ** 2)


def confined_kernel_hg(lattice: LatticeSpec, w: float, p_max: int = 0) -> np.ndarray:
    """Radiative confined kernel Re[D_c] from an explicit Hermite-Gauss mode sum,
    as a real N x N array.

    Counter-propagating paraxial channels with transverse profiles
    phi_{p p'}(r) = h_p(x) h_{p'}(y), p, p' <= p_max, each carry the residue of
    the frequency integral at the optical pole, giving at coincident planes

        Re[D_c] = (3 gamma lambda^2 / (8 pi)) sum_{p p'} phi(r_n) phi(r_m).

    Desk-scale oracle (p_max <= 6, N <= 400) for the momentum-disc kernel's
    radiative content.  The pole integral is evaluated analytically by
    residue, which needs no frequency discretization.  The sum is not
    translation-invariant, so it has no displacement table.
    """
    if p_max > 6:
        raise ConfigError("p_max limited to 6 (oracle scale)")
    if lattice.n_sites > 400:
        raise ConfigError("HG oracle limited to N <= 400 sites")
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
