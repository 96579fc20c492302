import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arraycav._numerics import smoothstep
from arraycav.config import gamma_plus_Gamma0
from arraycav.errors import ArrayCavError, ConvergenceError, GrazingError
from arraycav.greens import GAMMA, Q, kernel_fs_plane
from arraycav.lattice_sums import (DEFAULT_EPS, DEFAULT_RADIUS, DEFAULT_TAPER,
                                   TOTAL_DECAY_TOL, DispersionGrid, cooperative_rates_real_space,
                                   cooperative_rates_reciprocal,
                                   diffraction_orders, dispersion_curve,
                                   dispersion_grid, _sum_table)


def direct_cosine_sums(k, a, radius=DEFAULT_RADIUS, eps=DEFAULT_EPS,
                       taper=DEFAULT_TAPER):
    """The damped, windowed lattice sums term by term over the whole disc:
    the Richardson extrapolant and the window-only sum."""
    m = int(np.floor(radius / a))
    d = np.arange(-m, m + 1)
    ii, jj = np.meshgrid(d, d, indexing="ij")
    x, y = ii.ravel() * a, jj.ravel() * a
    r = np.hypot(x, y)
    sel = (r > 0) & (r <= radius)
    x, y, r = x[sel], y[sel], r[sel]
    vals = kernel_fs_plane(x, y)
    base = (np.cos(k[0] * x + k[1] * y)
            * smoothstep((r - (1.0 - taper) * radius) / (taper * radius)))
    f = [np.sum(base * np.exp(-e * r) * vals) for e in eps]
    return (8.0 * f[0] - 6.0 * f[1] + f[2]) / 3.0, np.sum(base * vals)


class TestDiffractionOrders:
    def test_half_wavelength_spacing(self):
        orders = {o.m: o for o in diffraction_orders((0.0, 0.0), 0.5, m_max=2)}
        assert orders[(0, 0)].propagating
        assert orders[(0, 0)].k_z == pytest.approx(Q)
        for m in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            o = orders[m]
            assert not o.propagating
            # |k + Q| = 2 q at a = lambda/2
            assert abs(o.k_z) == pytest.approx(np.sqrt(3) * Q, rel=1e-12)

    def test_nearly_wavelength_spacing(self):
        orders = {o.m: o for o in diffraction_orders((0.0, 0.0), 0.9)}
        assert orders[(0, 0)].propagating
        assert not orders[(1, 0)].propagating          # |Q| = 1.11 q
        assert abs(orders[(1, 0)].q_vec[0]) == pytest.approx(2 * np.pi / 0.9)

    def test_eva_zeroth_order(self):
        orders = {o.m: o for o in diffraction_orders((1.2 * Q, 0.0), 0.4)}
        assert not orders[(0, 0)].propagating

    def test_kz_dispersion_identity(self):
        for o in diffraction_orders((0.3 * Q, 0.1 * Q), 0.6, m_max=3):
            ktot2 = (0.3 * Q + o.q_vec[0]) ** 2 + (0.1 * Q + o.q_vec[1]) ** 2
            assert o.k_z ** 2 == pytest.approx(Q * Q - ktot2, rel=1e-12)


class TestReciprocal:
    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_closed_form_k0(self, a):
        pt = cooperative_rates_reciprocal((0.0, 0.0), a)
        assert pt.gamma_k + GAMMA == pytest.approx(gamma_plus_Gamma0(a), rel=1e-6)
        assert pt.delta_k is None

    def test_k0_values(self):
        # 3 lambda^2/(4 pi a^2) - 1 at a = 0.2 and 0.5
        assert cooperative_rates_reciprocal((0, 0), 0.2).gamma_k == \
            pytest.approx(4.9683103659, rel=1e-9)
        assert cooperative_rates_reciprocal((0, 0), 0.5).gamma_k + 1 == \
            pytest.approx(3.0 / np.pi, rel=1e-12)

    def test_subradiant_band_exact_zero(self):
        for frac in (1.1, 1.25, 1.4):
            pt = cooperative_rates_reciprocal((frac * Q, 0.0), 0.4)
            assert pt.gamma_k + GAMMA == 0.0

    def test_grazing_raises_with_advice(self):
        # k = 1.5 q at a = 0.4 puts the (-1, 0) order exactly on the light line
        with pytest.raises(GrazingError, match="shift k_perp"):
            cooperative_rates_reciprocal((1.5 * Q, 0.0), 0.4)

    def test_inversion_symmetry(self):
        k = (0.4 * Q, 0.25 * Q)
        a = 0.55
        g1 = cooperative_rates_reciprocal(k, a).gamma_k
        g2 = cooperative_rates_reciprocal((-k[0], -k[1]), a).gamma_k
        assert abs(g1 - g2) < 1e-12


class TestRealSpace:
    def test_k0_a02_radius60(self):
        pt = cooperative_rates_real_space((0.0, 0.0), 0.2, radius=60.0)
        assert abs(pt.gamma_k - 4.9683103659) < 1e-3

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
    def test_route_agreement_random_k(self, a):
        # 10 seeded wavevectors inside the light cone, kept away from grazing
        rng = np.random.default_rng(hash(a) % 2**32)
        count = 0
        while count < 10:
            k = rng.uniform(-0.85 * Q, 0.85 * Q, 2)
            if np.hypot(*k) > 0.85 * Q:
                continue
            if any(abs(abs(o.k_z) ** 2) < (0.30 * Q) ** 2
                   for o in diffraction_orders(k, a, 3)):
                continue
            count += 1
            grec = cooperative_rates_reciprocal(k, a).gamma_k
            grs = cooperative_rates_real_space(k, a).gamma_k
            assert abs(grs - grec) <= 1e-3

    def test_subradiant_band(self):
        for frac in (1.1, 1.25, 1.4):
            pt = cooperative_rates_real_space((frac * Q, 0.0), 0.4)
            assert abs(pt.gamma_k + GAMMA) <= 1e-2

    def test_delta_inversion_symmetry(self):
        k = (0.31 * Q, -0.12 * Q)
        d1 = cooperative_rates_real_space(k, 0.5).delta_k
        d2 = cooperative_rates_real_space((-k[0], -k[1]), 0.5).delta_k
        assert abs(d1 - d2) < 1e-12

    def test_nonconvergence_near_grazing(self):
        with pytest.raises(ConvergenceError, match="mismatch"):
            cooperative_rates_real_space((1.495 * Q, 0.0), 0.4,
                                         residual_tol=1e-4)

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.2, 1.0, exclude_min=True, exclude_max=True),
           kx=st.floats(-2.0 * Q, 2.0 * Q), ky=st.floats(-2.0 * Q, 2.0 * Q))
    def test_separable_sum_matches_direct_cosine_sum(self, a, kx, ky):
        second, window_only = direct_cosine_sums((kx, ky), a)
        # in the subradiant band the sum's error can make the decay negative,
        # which DispersionPoint refuses by design
        assume(2.0 * second.real + GAMMA > -TOTAL_DECAY_TOL + 1e-9)
        pt = cooperative_rates_real_space((kx, ky), a, residual_tol=np.inf)
        got = 0.5 * pt.gamma_k + 1j * pt.delta_k
        # relative, with gamma as the floor of the scale where the sum cancels
        assert abs(got - second) <= 1e-13 * max(abs(second), GAMMA)
        # the residual rule |second - window-only| sees the same two sums
        residual = abs(second - window_only)
        with pytest.raises(ConvergenceError):
            cooperative_rates_real_space((kx, ky), a, residual_tol=residual - 1e-12)
        cooperative_rates_real_space((kx, ky), a, residual_tol=residual + 1e-12)

    def test_radius_precondition(self):
        with pytest.raises(ValueError, match="radius"):
            cooperative_rates_real_space((0.0, 0.0), 0.5, radius=10.0)


class TestDispersionCurve:
    def test_endpoints_match_point_calls(self):
        a = 0.4
        pts = dispersion_curve(["G", "X"], 2, a)
        lone = cooperative_rates_reciprocal((0.0, 0.0), a)
        assert pts[0].gamma_k == lone.gamma_k
        assert pts[0].delta_k == cooperative_rates_real_space((0, 0), a).delta_k
        x = (np.pi / a, 0.0)
        assert pts[-1].gamma_k == cooperative_rates_reciprocal(x, a).gamma_k

    def test_closed_path_endpoints_identical(self):
        # sample placement chosen clear of the diffraction thresholds
        pts = dispersion_curve(["G", "X", "M", "G"], 8, 0.6)
        assert pts[0].gamma_k == pts[-1].gamma_k
        assert pts[0].delta_k == pts[-1].delta_k

    def test_total_decay_nonnegative(self):
        for p in dispersion_curve(["G", "X", "M", "G"], 8, 0.6):
            assert p.gamma_k + GAMMA >= -1e-9

    def test_grazing_endpoint_propagates(self):
        # at a = 0.5 the X point sits exactly on the light line
        with pytest.raises(GrazingError):
            dispersion_curve(["G", "X"], 2, 0.5)
        # non-strict: the sample stays, with NaN and a warning
        with pytest.warns(UserWarning, match="grazing") as record:
            pts = dispersion_curve(["G", "X"], 2, 0.5, strict=False)
        assert np.isnan(pts[-1].gamma_k) and np.isfinite(pts[0].gamma_k)
        # the warning points at the caller of dispersion_curve
        assert record[0].filename == __file__

    def test_strict_subradiant_failure_is_library_error(self):
        # the README path at a = 0.5: the real-space sum makes Gamma_k + gamma
        # negative in the subradiant band
        with pytest.raises(ArrayCavError):
            dispersion_curve(["G", "X", "M", "G"], 60, 0.5)

    def test_curve_builds_the_sum_table_once(self):
        before = _sum_table.cache_info().misses
        dispersion_curve([(0.0, 0.0), (0.5, 0.0)], 4, 0.61)
        assert _sum_table.cache_info().misses == before + 1


class TestDispersionGrid:
    def test_matches_point_route(self):
        a, n = 0.5, 8
        grid = dispersion_grid(a, n)
        # compare a few grid wavevectors against the single-point machinery
        freqs = 2 * np.pi * np.fft.fftfreq(n, d=a)
        for (i, j) in [(0, 0), (1, 0), (3, 2), (4, 4)]:
            pt = cooperative_rates_real_space((freqs[i], freqs[j]), a)
            assert grid.delta_k[i, j] == pytest.approx(pt.delta_k, abs=1e-10)

    def test_inversion_symmetry(self):
        grid = dispersion_grid(0.4, 8)
        d = grid.delta_k
        flipped = np.roll(d[::-1, ::-1], 1, axis=(0, 1))   # k -> -k on the fft grid
        assert np.allclose(d, flipped, atol=1e-10)

    def test_delta0_stability_under_radius(self):
        g60 = dispersion_grid(0.5, 8, radius=60.0)
        g90 = dispersion_grid(0.5, 8, radius=90.0)
        assert g60.delta0 == pytest.approx(g90.delta0, abs=2e-5)
