import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from arraycav import confined
from arraycav.config import LatticeSpec, gamma_plus_Gamma0
from arraycav.confined import (KernelMatrix, ModeProfile, cavity_profile,
                               chebyshev_panels, confined_kernel_paraxial,
                               confined_nodes, confined_profiles,
                               confined_rule, free_space_kernel,
                               lattice_radii, mode_decay_rate, octant_radii,
                               projected_kernel, projected_kernels, remove_confined)
from arraycav.errors import ConfigError, ConvergenceError
from arraycav.greens import (GAMMA, Q, kernel_fs, kernel_fs_d2z,
                             kernel_fs_plane_profiles)

from dense_reference import confined_kernel_hg, dense

W = 4.0
KCUT = 4.0 / W          # absolute cutoff (1/lambda) covering the mode spectrum
GPLUSG = gamma_plus_Gamma0(0.5)


@pytest.fixture(scope="module")
def lat32():
    return LatticeSpec(a=0.5, n_side=32)


@pytest.fixture(scope="module")
def kernels32(lat32):
    fs = free_space_kernel(lat32)
    conf = confined_kernel_paraxial(lat32, 0.125, KCUT)
    return fs, conf, projected_kernel(fs, conf)


class TestCavityProfile:
    def test_normalized(self, lat32):
        u = cavity_profile(lat32, W)
        assert np.sum(np.abs(u.weights) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_continuum_normalization_constant(self):
        # raw discrete sum (a^2/pi w^2) sum e^{-2r^2/w^2} -> 1/2 as a/w -> 0
        lat = LatticeSpec(a=0.25, n_side=128)
        X, Y = lat.meshes()
        s = (lat.a**2 / (np.pi * W * W)) * np.sum(np.exp(-2 * (X**2 + Y**2) / W**2))
        assert s == pytest.approx(0.5, rel=1e-3)

    def test_center_to_edge_ratio(self):
        # site at r = 2w carries weight e^{-4} of the center
        lat = LatticeSpec(a=0.5, n_side=17)   # odd: site exactly at the origin
        u = cavity_profile(lat, 2.0).weights.reshape(17, 17)
        center = u[8, 8]
        edge = u[8, 16]                        # (4.0, 0) = 2w
        assert abs(center / edge) == pytest.approx(np.exp(4.0), rel=1e-10)

    def test_lattice_too_small(self):
        with pytest.raises(ConfigError, match="too small"):
            cavity_profile(LatticeSpec(a=0.5, n_side=16), 4.0)


class TestConfinedKernel:
    def test_vanishes_as_cutoff_closes(self, lat32):
        k = confined_kernel_paraxial(lat32, 0.0, 1e-4)
        assert np.max(np.abs(dense(k))) < 1e-8

    def test_full_light_cone_recovers_total_rate(self):
        # k_cut -> q: the whole radiative solid angle is confined; the limit
        # closes like sqrt(1 - (k_cut/q)^2)
        lat = LatticeSpec(a=0.5, n_side=8)
        k = confined_kernel_paraxial(lat, 0.0, Q * (1 - 1e-12))
        assert dense(k)[0, 0].real == pytest.approx(0.5 * GAMMA, rel=1e-5)
        closer = confined_kernel_paraxial(lat, 0.0, Q * (1 - 1e-15))
        assert abs(dense(closer)[0, 0].real - 0.5) < \
            abs(dense(k)[0, 0].real - 0.5)

    def test_symmetric(self, kernels32):
        _, conf, _ = kernels32
        matrix = dense(conf)
        assert np.max(np.abs(matrix - matrix.T)) < 1e-14

    def test_shape_mismatch(self, kernels32):
        fs, _, _ = kernels32
        small = confined_kernel_paraxial(LatticeSpec(a=0.5, n_side=4), 0.0, KCUT)
        with pytest.raises(ValueError, match="mismatch"):
            projected_kernel(fs, small)


def _confined_tables(lattice, k_cut):
    """D_c and its d2z over the displacements: the confined profiles at the
    lattice radii, gathered."""
    rho, inverse = lattice_radii(lattice)
    return confined_profiles(rho, k_cut)[:, inverse]


def _displacement_meshes(lattice):
    """All pairwise displacements: (2n-1, 2n-1) meshes of dx, dy."""
    d = np.arange(-(lattice.n_side - 1), lattice.n_side) * lattice.a
    return np.meshgrid(d, d, indexing="ij")


def _quadrature(rho, k_cut_abs, derivative, node_factor=1):
    """Reference: the Bessel quadrature (``confined_rule``) evaluated at each
    radius with scipy's J0, no interpolant, on ``node_factor`` times the
    library's node count."""
    nodes = node_factor * confined_nodes(k_cut_abs, float(rho.max()))
    kk, weights = confined_rule(k_cut_abs, nodes)
    return (j0(np.outer(rho.ravel(), kk)) @ weights[:, derivative // 2]).reshape(rho.shape)


def _full_grid_table(lattice, k_cut_abs, derivative):
    """Reference: the Bessel quadrature evaluated at every displacement."""
    return _quadrature(np.hypot(*_displacement_meshes(lattice)), k_cut_abs, derivative)


@lru_cache(maxsize=1)
def _mp_gauss_legendre():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        # 48 nodes on [-1, 1]
        return mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(5, mpmath.mp.prec)


def _mp_confined(rho, k_cut_abs):
    """Reference: (D_c, d2z D_c) at one radius in mpmath (20 digits), with
    no Bessel function and no u quadrature.

    For circular polarization D_c is the disc integral
    (3 / (32 pi^2)) Int_{|k| <= k_cut} F(k) cos(k_x rho) d^2k, with
    F = 1/u + u/q^2 for D_c and F = -u - u^3/q^2 for its d2z, u = k_z =
    sqrt(q^2 - k^2).  The k_y integral of 1/u, u and u^3 over the chord
    |k_y| <= Y = sqrt(k_cut^2 - k_x^2) is elementary (A^2 = q^2 - k_x^2,
    B = sqrt(A^2 - Y^2) = u_min, s = arcsin(Y / A)):

        2 s,    Y B + A^2 s,    (Y / 4)(5 A^2 - 2 Y^2) B + (3 A^4 / 4) s.

    k_x = k_cut sin(phi) removes the square-root end point, and the phi
    integral over [0, pi/2] runs on 48-node Gauss-Legendre panels of phase
    k_cut rho below 40.  s = pi/2 - arcsin(B / A) varies on the scale
    cos(phi) ~ u_min / k_cut next to phi = pi/2, which shrinks as k_cut nears
    q, so the panels there are graded geometrically down to that scale.
    """
    mpmath = pytest.importorskip("mpmath")
    nodes = _mp_gauss_legendre()
    with mpmath.workdps(20):
        q, kc, r = mpmath.mpf(Q), mpmath.mpf(k_cut_abs), mpmath.mpf(float(rho))
        q2, b = q * q, mpmath.sqrt(q * q - kc * kc)
        chunks = int(k_cut_abs * rho / 40.0) + 1
        edges = {mpmath.pi / 2 * c / chunks for c in range(chunks + 1)}
        graded = b / kc
        while graded < mpmath.pi / (2 * chunks):
            edges.add(mpmath.pi / 2 - graded)
            graded *= 2
        edges = sorted(edges)
        sum0 = sum2 = mpmath.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            for x, w in nodes:
                phi = mid + x * half
                kx, y = kc * mpmath.sin(phi), kc * mpmath.cos(phi)
                a2 = q2 - kx * kx
                s = mpmath.asin(y / mpmath.sqrt(a2))
                iu = y * b + a2 * s
                iu3 = y / 4 * (5 * a2 - 2 * y * y) * b + 3 * a2 * a2 / 4 * s
                f = w * half * y * mpmath.cos(kx * r)
                sum0 += f * (2 * s + iu / q2)
                sum2 -= f * (iu + iu3 / q2)
        scale = 3 / (16 * mpmath.pi**2)
        return float(scale * sum0), float(scale * sum2)


class TestBesselJ0:
    """The numpy J0 against mpmath at 30 digits and scipy.special.j0, the
    oracles here only, over the phases the Chebyshev degree rule covers."""

    FIRST_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013,
                   11.791534439014281)

    def test_to_round_off(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        xs = np.concatenate([[0.0, 1e-300, 1e-8, 4.0, np.nextafter(4.0, 0.0), 8.0,
                              np.nextafter(8.0, 0.0), 5000.0], self.FIRST_ZEROS,
                             np.linspace(0.0, 20.0, 801), rng.uniform(20.0, 5000.0, 400),
                             np.geomspace(1e-4, 5000.0, 200)])
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(0, mpmath.mpf(float(x)))) for x in xs])
        got = confined.j0(xs)
        assert np.max(np.abs(got - ref)) <= 1e-15
        # scipy's own j0 carries the rounding of x - pi/4, 5e-15 at x ~ 5,000
        assert np.max(np.abs(got - j0(xs))) <= 1e-14

    def test_even_and_shaped(self):
        xs = np.linspace(-30.0, 30.0, 60).reshape(3, 4, 5)
        assert confined.j0(xs).shape == xs.shape
        assert np.array_equal(confined.j0(xs), confined.j0(-xs))


class TestConfinedTable:
    @settings(max_examples=15, deadline=None)
    @given(n_side=st.integers(2, 40), a=st.floats(0.2, 1.0),
           k_cut=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True))
    def test_radial_table_matches_full_grid(self, n_side, a, k_cut):
        # both tables of the shared J0 pass against the per-displacement grid
        lat = LatticeSpec(a=a, n_side=n_side)
        tables = _confined_tables(lat, k_cut * Q)
        for derivative, table in zip((0, 2), tables):
            ref = _full_grid_table(lat, k_cut * Q, derivative)
            assert table.shape == ref.shape == (2 * n_side - 1, 2 * n_side - 1)
            assert np.max(np.abs(table - ref)) <= 1e-14 * np.max(np.abs(ref))
            np.testing.assert_array_equal(table, table[::-1, ::-1])     # d -> -d
            np.testing.assert_array_equal(table, table.T)               # x <-> y

    def test_acceptance_scale_matches_per_radius_quadrature(self):
        # the acceptance scale: R = 21,860 radii on 4 panels of degree 41
        lat = LatticeSpec(a=0.25, n_side=256)
        rho, inverse = lattice_radii(lat)
        diagnostics = {}
        profiles = confined_profiles(rho, 0.75, diagnostics=diagnostics)
        nodes = confined_nodes(0.75, rho[-1])
        assert diagnostics["confined_nodes"] == nodes
        assert (diagnostics["chebyshev_panels"], diagnostics["chebyshev_degree"]) \
            == chebyshev_panels(0.75, rho[-1], rho.size, nodes) == (4, 41)
        assert diagnostics["chebyshev_tail"] < 2e-15     # round-off, not truncation
        np.testing.assert_array_equal(confined_kernel_paraxial(lat, 0.0, 0.75).table,
                                      profiles[0][inverse])
        for derivative, profile in zip((0, 2), profiles):
            ref = _quadrature(rho, 0.75, derivative)
            assert np.max(np.abs(profile - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("a, n_side", [(0.9, 96), (0.95, 136)])
    def test_large_phase_matches_per_radius_quadrature(self, a, n_side, monkeypatch):
        # phases k_cut rho_max ~ 730 and 1,080, on 2 panels of half-phase
        # ~180 and ~270, where a margin of 20 over the half-phase leaves a
        # coefficient tail above 1e-13
        lat, k_cut = LatticeSpec(a=a, n_side=n_side), 0.95 * Q
        rho, inverse = lattice_radii(lat)
        diagnostics = {}
        profiles = confined_profiles(rho, k_cut, diagnostics=diagnostics)
        panels = diagnostics["chebyshev_panels"]
        assert panels == 2
        short = math.ceil(0.25 * k_cut * rho[-1]) + 20
        with monkeypatch.context() as patch:
            patch.setattr(confined, "chebyshev_panels", lambda *args: (panels, short))
            with pytest.raises(ConvergenceError, match="Chebyshev tail"):
                projected_kernels(lat, 0.0, k_cut)
        sample = np.r_[0:rho.size:9, rho.size - 1]
        for derivative, profile in zip((0, 2), profiles):
            ref = _quadrature(rho[sample], k_cut, derivative)
            assert np.max(np.abs(profile[sample] - ref)) <= 1e-14 * np.max(np.abs(ref))

    @staticmethod
    def _refuse(monkeypatch, rho, k_cut, short, failing):
        # a degree below the rule returns no profile; the error names the
        # panel whose tail fails, with its radius range
        panels, degree = chebyshev_panels(k_cut, rho[-1], rho.size,
                                          confined_nodes(k_cut, rho[-1]))
        assert short < degree
        monkeypatch.setattr(confined, "chebyshev_panels", lambda *args: (panels, short))
        diagnostics = {}
        with pytest.raises(ConvergenceError, match=f"Chebyshev tail .* on {failing} "
                           r"\(rho in \[[0-9.]+, [0-9.]+\]\) at degree"):
            confined_profiles(rho, k_cut, diagnostics=diagnostics)
        assert diagnostics["chebyshev_degree"] == short
        assert diagnostics["chebyshev_panels"] == panels
        assert diagnostics["chebyshev_tail"] >= 1e-13

    def test_degree_too_low_is_refused(self, monkeypatch):
        # the worst phase of the hypothesis range, k_cut rho_max ~ 330, on one
        # panel: a margin of 20 over its half-phase (degree 185 against the
        # rule's 239) returns no kernel
        lat = LatticeSpec(a=1.0, n_side=40)
        self._refuse(monkeypatch, lattice_radii(lat)[0], 0.95 * Q, 185, "panel 1 of 1")
        with pytest.raises(ConvergenceError, match="Chebyshev tail"):
            projected_kernels(lat, 0.0, 0.95 * Q)

    def test_refusal_names_the_failing_panel(self, monkeypatch):
        # the acceptance scale on its 4 panels at degree 33 instead of 41:
        # the third panel's tail fails first
        rho, _ = lattice_radii(LatticeSpec(a=0.25, n_side=256))
        self._refuse(monkeypatch, rho, 0.75, 33, "panel 3 of 4")

    def test_radius_on_a_panel_edge_takes_its_value(self):
        # radii exactly on the panel edges, which both neighbouring
        # interpolants reach at t = -1 or 1, and on the Chebyshev points
        rho_max, k_cut = 60.0, 0.75
        nodes = confined_nodes(k_cut, rho_max)
        grid = np.linspace(0.0, rho_max, 10000)
        panels, degree = chebyshev_panels(k_cut, rho_max, grid.size, nodes)
        assert panels == 3
        width = rho_max / panels
        x = np.cos((np.arange(degree + 1) + 0.5) * (np.pi / (degree + 1)))
        rho = np.unique(np.concatenate([grid, width * np.arange(panels + 1),
                                        width * (0.5 + 0.5 * x)]))
        assert np.isin(width * np.arange(panels + 1), rho).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diagnostics = {}
            got = confined_profiles(rho, k_cut, diagnostics=diagnostics)
        assert diagnostics["chebyshev_panels"] == panels
        for derivative, profile in zip((0, 2), got):
            ref = _quadrature(rho, k_cut, derivative)
            assert np.max(np.abs(profile - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("a, k_cut, n_side", [
        (0.25, 0.75, 128), (0.25, 0.75, 256), (0.9, 0.95 * Q, 64)])
    def test_node_count_is_converged(self, a, k_cut, n_side):
        # the quadrature on twice the Gauss-Legendre nodes moves neither
        # table by 1e-13 of its maximum (at most 1.0e-15 at a = 0.25 and
        # 2.9e-15 at phase k_cut rho_max = 479, interpolation included)
        lat = LatticeSpec(a=a, n_side=n_side)
        rho, inverse = lattice_radii(lat)
        for derivative, table in zip((0, 2), _confined_tables(lat, k_cut)):
            doubled = _quadrature(rho, k_cut, derivative, node_factor=2)[inverse]
            assert np.max(np.abs(doubled - table)) <= 1e-13 * np.max(np.abs(table))

    def test_memory_stays_per_radius(self):
        # both projected tables together; the unblocked R x nodes J0
        # intermediates alone were 67 MB at this size, and 11 MB is measured
        # with numpy 2.4
        lat = LatticeSpec(a=0.25, n_side=256)
        tracemalloc.start()
        try:
            projected_kernels(lat, 0.125, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


class TestPanelProfiles:
    """The panel profiles against an mpmath quadrature of the disc integral
    (``_mp_confined``), which shares neither J0, nor the Gauss-Legendre
    rule, nor the u integral with them."""

    @staticmethod
    def _check(rho, k_cut, sample, rounding=0.0):
        # ``rounding`` times eps z, z the panel half-phase, is added to the
        # 1e-14 of each profile's maximum: the readout's rounding model
        # (``confined_profiles``)
        diagnostics = {}
        got = confined_profiles(rho, k_cut, diagnostics=diagnostics)
        z = 0.5 * k_cut * rho[-1] / diagnostics["chebyshev_panels"]
        tol = (1e-14 + rounding * np.finfo(float).eps * z) * np.max(np.abs(got), axis=1)
        for i in sample:
            ref = _mp_confined(rho[i], k_cut)
            assert np.all(np.abs(got[:, i] - ref) <= tol), (i, rho[i])
        return diagnostics

    @settings(max_examples=6, deadline=None)
    @given(k_cut=st.floats(0.01, 0.999), phase=st.floats(1.0, 2000.0),
           radii=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1))
    def test_matches_mpmath_at_sample_radii(self, k_cut, phase, radii, seed):
        k_cut *= Q
        rng = np.random.default_rng(seed)
        rho = np.sort(np.r_[0.0, rng.uniform(0.0, phase / k_cut, radii - 2),
                            phase / k_cut])
        # radii up to phase 300, where the reference stays cheap; few radii
        # make one wide panel, whose rounding the tolerance allows for
        near = np.flatnonzero(k_cut * rho <= 300.0)
        self._check(rho, k_cut, np.unique(np.r_[0, rng.choice(near, 3)]), rounding=0.25)

    @pytest.mark.parametrize("k_cut", [0.0546875 * Q, 0.999 * Q], ids=["0.0547q", "0.999q"])
    def test_small_phases(self, k_cut):
        # half-phases z from 1e-4 to 0.3, where the coefficients fall like
        # (z/2)^k / k!; n_side 2 at a = 0.25 and k_cut = 0.0547 q is z = 0.06
        for z in np.geomspace(1e-4, 0.3, 12):
            rho = np.linspace(0.0, 2.0 * z / k_cut, 3)
            self._check(rho, k_cut, range(rho.size))

    def test_phase_20000(self):
        # 1,000 radii at k_cut = 0.95 q out to phase 20,000: one panel of
        # degree 10,267 on 15,096 quadrature nodes; the largest radius too
        k_cut = 0.95 * Q
        rho = np.linspace(0.0, 20000.0 / k_cut, 1000)
        diagnostics = self._check(rho, k_cut, [0, 3, 50, rho.size - 1])
        assert diagnostics["chebyshev_degree"] * diagnostics["chebyshev_panels"] > 10000
        assert diagnostics["chebyshev_tail"] < 1e-14


def test_octant_index_matches_the_full_index():
    # the octant's radii are the lattice's, each octant offset keeps its
    # radius, and the orbit sizes count every displacement once
    for n_side in (1, 2, 7, 16, 31):
        lat = LatticeSpec(a=0.3, n_side=n_side)
        rho, inverse = lattice_radii(lat)
        octant_rho, (i, j), index, multiplicity = octant_radii(lat)
        np.testing.assert_array_equal(octant_rho, rho)
        assert index.size == n_side * (n_side + 1) // 2
        np.testing.assert_array_equal(index, inverse[i + n_side - 1, j + n_side - 1])
        assert multiplicity.sum() == (2 * n_side - 1) ** 2
        assert np.all(j <= i)


@settings(max_examples=40, deadline=None)
@given(n_side=st.integers(1, 300), a=st.floats(0.05, 1.0, exclude_max=True))
def test_radius_index_matches_a_sort(n_side, a):
    sq = np.arange(-(n_side - 1), n_side) ** 2
    radii2, inverse = np.unique(sq[:, None] + sq[None, :], return_inverse=True)
    rho, index = lattice_radii(LatticeSpec(a=a, n_side=n_side))
    np.testing.assert_array_equal(rho, a * np.sqrt(radii2))
    assert rho.dtype == np.float64 and index.dtype == inverse.dtype
    np.testing.assert_array_equal(index, inverse.reshape(sq.size, sq.size))


class TestKernelTables:
    @settings(max_examples=25, deadline=None)
    @given(n_side=st.integers(2, 64),
           a=st.floats(0.2, 1.0, exclude_min=True, exclude_max=True),
           derivative=st.sampled_from([0, 2]))
    def test_radial_free_space_matches_meshes(self, n_side, a, derivative):
        # the closed form at the lattice radii, gathered, against the closed
        # form at every displacement; free_space_kernel is the first table
        lat = LatticeSpec(a=a, n_side=n_side)
        rho, inverse = lattice_radii(lat)
        table = kernel_fs_plane_profiles(rho)[derivative // 2][inverse]
        if derivative == 0:
            np.testing.assert_array_equal(free_space_kernel(lat).table, table)
        ref = kernel_fs_plane_profiles(np.hypot(*_displacement_meshes(lat)))[derivative // 2]
        assert table.shape == ref.shape == (2 * n_side - 1, 2 * n_side - 1)
        assert np.max(np.abs(table - ref)) <= 1e-15 * np.max(np.abs(ref))
        np.testing.assert_array_equal(table, table[::-1, ::-1])     # d -> -d
        np.testing.assert_array_equal(table, table.T)               # x <-> y

    @settings(max_examples=20, deadline=None)
    @given(n_side=st.integers(2, 20), a=st.floats(0.2, 1.0),
           derivative=st.sampled_from([0, 2]), seed=st.integers(0, 2**32 - 1))
    def test_dense_matches_point_kernel(self, n_side, a, derivative, seed):
        # dense(k)[n, m] is the kernel at r_n - r_m, row-major sites
        lat = LatticeSpec(a=a, n_side=n_side)
        rho, inverse = lattice_radii(lat)
        matrix = dense(KernelMatrix(table=kernel_fs_plane_profiles(rho)[derivative // 2][inverse],
                                    kind="fs" if derivative == 0 else "fs_d2z"))
        point = kernel_fs if derivative == 0 else kernel_fs_d2z
        pos = lat.positions
        last = lat.n_sites - 1
        pairs = [(0, 0), (0, last), (last, 0)]
        pairs += [tuple(p) for p in np.random.default_rng(seed).integers(0, last + 1, (40, 2))]
        for n, m in pairs:
            want = point(pos[n] - pos[m])
            assert abs(matrix[n, m] - want) <= 1e-12 * abs(want)

    @settings(max_examples=20, deadline=None)
    @given(n_side=st.integers(2, 20), a=st.floats(0.2, 1.0),
           derivative=st.sampled_from([0, 2]), seed=st.integers(0, 2**32 - 1))
    def test_decay_rate_matches_dense_contraction(self, n_side, a, derivative, seed):
        lat = LatticeSpec(a=a, n_side=n_side)
        proj = projected_kernels(lat, 0.0, 0.3 * Q)[derivative // 2]
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(lat.n_sites) + 1j * rng.standard_normal(lat.n_sites)
        u /= np.linalg.norm(u)
        want = np.real(np.conj(u) @ (2.0 * dense(proj).real) @ u)
        got = mode_decay_rate(ModeProfile(weights=u), proj)
        assert abs(got - want) <= 1e-12 * np.max(np.abs(proj.table))

    def test_builders_work_beyond_the_dense_limit(self):
        lat = LatticeSpec(a=0.25, n_side=128)
        tracemalloc.start()
        try:
            proj = projected_kernel(free_space_kernel(lat),
                                    confined_kernel_paraxial(lat, 0.125, 0.75))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6            # the dense N x N matrix alone is 4.3 GB
        assert proj.table.shape == (255, 255)


class TestProjectedKernel:
    def test_zero_channel_is_identity(self, lat32, kernels32):
        fs, _, _ = kernels32
        zero = KernelMatrix(table=np.zeros(fs.table.shape), kind="confined",
                            provenance={"a": lat32.a, "n_side": lat32.n_side,
                                        "z0": 0.0, "k_cut": 0.0})
        proj = projected_kernel(fs, zero)
        assert np.array_equal(dense(proj), dense(fs))

    def test_imaginary_part_untouched(self, kernels32):
        fs, _, proj = kernels32
        assert np.array_equal(dense(proj).imag, dense(fs).imag)

    def test_real_part_psd(self, kernels32):
        _, _, proj = kernels32
        lam = np.linalg.eigvalsh(dense(proj).real)
        assert lam.min() >= -1e-8 * GAMMA

    def test_projection_idempotent(self, kernels32):
        # the confined part is removed once: projecting a projected kernel
        # against its own channel is refused, not subtracted a second time
        fs, conf, proj = kernels32
        np.testing.assert_array_equal(proj.table, remove_confined(fs.table, conf.table))
        with pytest.raises(ValueError, match="cannot project a 'projected' kernel"):
            projected_kernel(proj, conf)

    def test_projection_against_other_channel_rejected(self, lat32, kernels32):
        _, _, proj = kernels32
        other = confined_kernel_paraxial(lat32, 0.125, 0.5 * KCUT)
        with pytest.raises(ValueError, match="cannot project a 'projected' kernel"):
            projected_kernel(proj, other)

    @pytest.mark.parametrize("n_side", [1, 2, 7, 32])
    def test_pair_from_one_pass_matches_separate_builders(self, n_side):
        # same tables to the bit, kinds and provenance as projected_kernel on
        # the separate free-space and confined builders; the d2z kernel as
        # the projection rule on the gathered free-space and confined tables
        lat = LatticeSpec(a=0.5, n_side=n_side)
        proj, proj_d2 = projected_kernels(lat, 0.125, KCUT)
        want = projected_kernel(free_space_kernel(lat),
                                confined_kernel_paraxial(lat, 0.125, KCUT))
        np.testing.assert_array_equal(proj.table, want.table)
        assert proj.kind == want.kind
        assert proj.provenance == want.provenance
        rho, inverse = lattice_radii(lat)
        fs_d2 = kernel_fs_plane_profiles(rho)[1][inverse]
        np.testing.assert_array_equal(
            proj_d2.table, remove_confined(fs_d2, _confined_tables(lat, KCUT)[1]))
        assert proj_d2.kind == "projected_d2z"
        assert proj_d2.provenance == {"a": 0.5, "n_side": n_side, "derivative": 2,
                                      "z0": 0.125, "k_cut": KCUT}

    @staticmethod
    def _d2z(lat, kind, table):
        # a d2z table in a KernelMatrix of a kind no builder makes
        return KernelMatrix(table=table, kind=kind,
                            provenance={"a": lat.a, "n_side": lat.n_side, "z0": 0.125,
                                        "k_cut": KCUT, "derivative": 2})

    @pytest.mark.parametrize("case", ["fs_with_confined_d2z", "fs_d2z_with_confined",
                                      "fs_with_fs", "lattice_constant_differs"])
    def test_pair_is_validated(self, lat32, kernels32, case):
        # only the pair ('fs', 'confined') on one lattice (a and n_side) is
        # projected, else ValueError
        fs, conf, _ = kernels32
        other = LatticeSpec(a=0.6, n_side=lat32.n_side)
        rho, inverse = lattice_radii(lat32)
        pair = {"fs_with_confined_d2z": (fs, self._d2z(
                    lat32, "confined_d2z", _confined_tables(lat32, KCUT)[1])),
                "fs_d2z_with_confined": (self._d2z(
                    lat32, "fs_d2z", kernel_fs_plane_profiles(rho)[1][inverse]), conf),
                "fs_with_fs": (fs, fs),
                "lattice_constant_differs":
                    (fs, confined_kernel_paraxial(other, 0.125, KCUT))}[case]
        with pytest.raises(ValueError, match="cannot project|mismatch"):
            projected_kernel(*pair)


class TestModeDecayRate:
    def test_cavity_profile_free_space(self, lat32, kernels32):
        fs, _, _ = kernels32
        rate = mode_decay_rate(cavity_profile(lat32, W), fs)
        assert rate == pytest.approx(GPLUSG, rel=0.02)

    def test_cavity_profile_dark_under_projection(self, lat32, kernels32):
        _, _, proj = kernels32
        rate = mode_decay_rate(cavity_profile(lat32, W), proj)
        assert rate <= 0.02 * GPLUSG

    def test_uniform_profile_approaches_k0_rate(self):
        errs = []
        for n in (24, 48):
            lat = LatticeSpec(a=0.5, n_side=n)
            u = np.full(lat.n_sites, 1.0 / math.sqrt(lat.n_sites), dtype=complex)
            rate = mode_decay_rate(ModeProfile(weights=u),
                                   free_space_kernel(lat))
            errs.append(abs(rate - GPLUSG))
        assert errs[1] < errs[0]
        assert errs[1] < 0.01

    def test_orthogonal_spectrum_unaffected(self):
        # profile with no Fourier content inside the confined disc: projection
        # cannot change its emission
        lat = LatticeSpec(a=0.5, n_side=48)
        fs = free_space_kernel(lat)
        proj = projected_kernel(fs, confined_kernel_paraxial(lat, 0.125, 6.0 / W))
        X, Y = lat.meshes()
        u = (np.exp(1j * 0.8 * Q * X) * np.exp(-(X**2 + Y**2) / W**2)).ravel()
        prof = ModeProfile(weights=u / np.linalg.norm(u))
        assert abs(mode_decay_rate(prof, fs)
                   - mode_decay_rate(prof, proj)) < 1e-6 * GAMMA

    def test_profile_weighted_zero_sums(self):
        # the projected decay matrix annihilates the cavity profile against
        # constant, ramp, and quadratic site weightings
        lat = LatticeSpec(a=0.5, n_side=48)
        fs = free_space_kernel(lat)
        proj = projected_kernel(fs, confined_kernel_paraxial(lat, 0.125, 6.0 / W))
        g = cavity_profile(lat, W).weights
        gam = 2.0 * dense(proj).real
        x = lat.positions[:, 0] / lat.positions[:, 0].max()
        for K in (np.ones_like(x), 0.5 + 0.5 * x, x**2):
            val = abs(np.conj(g) @ gam @ (g * K))
            assert val <= 1e-6 * GAMMA * np.sum(np.abs(g) ** 2) * np.max(np.abs(K))


class TestHermiteGaussOracle:
    def test_fundamental_rank_one(self):
        lat = LatticeSpec(a=0.8, n_side=20)
        hg = confined_kernel_hg(lat, W, p_max=0)
        assert np.linalg.matrix_rank(hg, tol=1e-8) <= 2

    def test_trace_monotone_in_mode_count(self):
        lat = LatticeSpec(a=0.8, n_side=20)
        traces = [np.trace(confined_kernel_hg(lat, W, p_max=p)) for p in range(4)]
        assert all(b > a for a, b in zip(traces, traces[1:]))

    def test_fundamental_contraction_matches_momentum_route(self):
        lat = LatticeSpec(a=0.8, n_side=20)
        u = cavity_profile(lat, W)
        w = u.weights
        r_hg = np.real(np.conj(w) @ (2.0 * confined_kernel_hg(lat, W, p_max=0)) @ w)
        r_px = mode_decay_rate(u, confined_kernel_paraxial(lat, 0.0, KCUT))
        assert abs(r_hg - r_px) / r_px < 0.10
