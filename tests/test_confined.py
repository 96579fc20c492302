import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from arraycav._numerics import displacement_grid, gl_interval
from arraycav.config import LatticeSpec, gamma_plus_Gamma0
from arraycav.confined import (KernelMatrix, ModeProfile, _quad_nodes,
                               cavity_profile, confined_kernel_hg,
                               confined_kernel_paraxial, confined_table,
                               free_space_kernel, mode_decay_rate,
                               projected_kernel, uniform_profile)
from arraycav.errors import ConfigError
from arraycav.greens import GAMMA, LAMBDA, Q

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
        assert np.max(np.abs(k.entries)) < 1e-8

    def test_full_light_cone_recovers_total_rate(self):
        # k_cut -> q: the whole radiative solid angle is confined; the limit
        # closes like sqrt(1 - (k_cut/q)^2)
        lat = LatticeSpec(a=0.5, n_side=8)
        k = confined_kernel_paraxial(lat, 0.0, Q * (1 - 1e-12), nodes=800)
        assert k.entries[0, 0].real == pytest.approx(0.5 * GAMMA, rel=1e-5)
        closer = confined_kernel_paraxial(lat, 0.0, Q * (1 - 1e-15), nodes=2000)
        assert abs(closer.entries[0, 0].real - 0.5) < \
            abs(k.entries[0, 0].real - 0.5)

    def test_symmetric(self, kernels32):
        _, conf, _ = kernels32
        assert np.max(np.abs(conf.entries - conf.entries.T)) < 1e-14

    def test_shape_mismatch(self, kernels32):
        fs, _, _ = kernels32
        small = confined_kernel_paraxial(LatticeSpec(a=0.5, n_side=4), 0.0, KCUT)
        with pytest.raises(ValueError, match="mismatch"):
            projected_kernel(fs, small)


def _full_grid_table(lattice, k_cut_abs, derivative):
    """Reference: the Bessel quadrature evaluated at every displacement."""
    dx, dy = displacement_grid(lattice.n_side, lattice.a)
    rho = np.hypot(dx, dy)
    nodes = _quad_nodes(k_cut_abs, float(rho.max()))
    umin = math.sqrt(Q * Q - k_cut_abs * k_cut_abs)
    u, wu = gl_interval(umin, Q, nodes)
    weight = (3.0 * GAMMA * LAMBDA / (16.0 * np.pi)) * (1.0 + u * u / (Q * Q)) * wu
    if derivative == 2:
        weight = -weight * u * u
    kk = np.sqrt(np.maximum(Q * Q - u * u, 0.0))
    return (j0(np.outer(rho.ravel(), kk)) @ weight).reshape(rho.shape)


class TestConfinedTable:
    @settings(max_examples=15, deadline=None)
    @given(n_side=st.integers(2, 40), a=st.floats(0.2, 1.0),
           k_cut=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
           derivative=st.sampled_from([0, 2]))
    def test_radial_table_matches_full_grid(self, n_side, a, k_cut, derivative):
        lat = LatticeSpec(a=a, n_side=n_side)
        table = confined_table(lat, k_cut * Q, derivative)
        ref = _full_grid_table(lat, k_cut * Q, derivative)
        assert table.shape == ref.shape == (2 * n_side - 1, 2 * n_side - 1)
        assert np.max(np.abs(table - ref)) <= 1e-14 * np.max(np.abs(ref))
        np.testing.assert_array_equal(table, table[::-1, ::-1])     # d -> -d
        np.testing.assert_array_equal(table, table.T)               # x <-> y

    def test_memory_stays_per_radius(self):
        # the full-grid J0 intermediate alone was ~400 MB at this size
        lat = LatticeSpec(a=0.25, n_side=256)
        tracemalloc.start()
        try:
            confined_table(lat, 0.75, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6


class TestProjectedKernel:
    def test_zero_channel_is_identity(self, lat32, kernels32):
        fs, _, _ = kernels32
        zero = KernelMatrix(entries=np.zeros_like(fs.entries), kind="confined",
                            provenance={"z0": 0.0, "k_cut": 0.0})
        proj = projected_kernel(fs, zero)
        assert np.array_equal(proj.entries, fs.entries)

    def test_imaginary_part_untouched(self, kernels32):
        fs, _, proj = kernels32
        assert np.array_equal(proj.entries.imag, fs.entries.imag)

    def test_real_part_psd(self, kernels32):
        _, _, proj = kernels32
        lam = np.linalg.eigvalsh(proj.entries.real)
        assert lam.min() >= -1e-8 * GAMMA

    def test_projection_idempotent(self, kernels32):
        _, conf, proj = kernels32
        again = projected_kernel(proj, conf)
        assert again is proj

    def test_projection_against_other_channel_rejected(self, lat32, kernels32):
        _, _, proj = kernels32
        other = confined_kernel_paraxial(lat32, 0.125, 0.5 * KCUT)
        with pytest.raises(ValueError, match="different channel"):
            projected_kernel(proj, other)


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
            rate = mode_decay_rate(uniform_profile(lat), free_space_kernel(lat))
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
        gam = 2.0 * proj.entries.real
        x = lat.positions[:, 0] / lat.positions[:, 0].max()
        for K in (np.ones_like(x), 0.5 + 0.5 * x, x**2):
            val = abs(np.conj(g) @ gam @ (g * K))
            assert val <= 1e-6 * GAMMA * np.sum(np.abs(g) ** 2) * np.max(np.abs(K))


class TestHermiteGaussOracle:
    def test_fundamental_rank_one(self):
        lat = LatticeSpec(a=0.8, n_side=20)
        hg = confined_kernel_hg(lat, 0.0, W, p_max=0)
        assert np.linalg.matrix_rank(hg.entries.real, tol=1e-8) <= 2

    def test_trace_monotone_in_mode_count(self):
        lat = LatticeSpec(a=0.8, n_side=20)
        traces = [np.trace(confined_kernel_hg(lat, 0.0, W, p_max=p).entries.real)
                  for p in range(4)]
        assert all(b > a for a, b in zip(traces, traces[1:]))

    def test_fundamental_contraction_matches_momentum_route(self):
        lat = LatticeSpec(a=0.8, n_side=20)
        u = cavity_profile(lat, W)
        r_hg = mode_decay_rate(u, confined_kernel_hg(lat, 0.0, W, p_max=0))
        r_px = mode_decay_rate(u, confined_kernel_paraxial(lat, 0.0, KCUT))
        assert abs(r_hg - r_px) / r_px < 0.10

    def test_size_limits(self):
        with pytest.raises(ConfigError):
            confined_kernel_hg(LatticeSpec(a=0.5, n_side=32), 0.0, W, p_max=0)
        with pytest.raises(ConfigError):
            confined_kernel_hg(LatticeSpec(a=0.8, n_side=10), 0.0, W, p_max=7)
