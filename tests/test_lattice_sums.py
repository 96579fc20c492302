import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arraycav import lattice_sums
from arraycav.config import gamma_plus_Gamma0
from arraycav.errors import ArrayCavError, GrazingError
from arraycav.greens import GAMMA, Q
from arraycav.lattice_sums import (dispersion_curve, dispersion_grid,
                                   dispersion_point)

from lattice_reference import damped_lattice_sum


def light_line_margin(k, a, m_max=4):
    """min over diffraction orders of |k_z|^2 / q^2."""
    g = 2.0 * np.pi / a
    m = np.arange(-m_max, m_max + 1)
    px = k[0] + g * m[:, None]
    py = k[1] + g * m[None, :]
    return float(np.abs(Q * Q - px**2 - py**2).min() / (Q * Q))


def lattice_sum(k, a):
    """S(k) = Gamma_k/2 + i Delta_k from the point route."""
    pt = dispersion_point(k, a)
    return 0.5 * pt.gamma_k + 1j * pt.delta_k


class TestReciprocal:
    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_closed_form_k0(self, a):
        pt = dispersion_point((0.0, 0.0), a)
        assert pt.gamma_k + GAMMA == pytest.approx(gamma_plus_Gamma0(a), rel=1e-12)
        assert np.isfinite(pt.delta_k)

    def test_k0_values(self):
        # 3 lambda^2/(4 pi a^2) - 1 at a = 0.2 and 0.5
        assert dispersion_point((0, 0), 0.2).gamma_k == \
            pytest.approx(4.9683103659, rel=1e-9)
        assert dispersion_point((0, 0), 0.5).gamma_k + 1 == \
            pytest.approx(3.0 / np.pi, rel=1e-12)

    def test_subradiant_band_exact_zero(self):
        for frac in (1.1, 1.25, 1.4):
            pt = dispersion_point((frac * Q, 0.0), 0.4)
            assert pt.gamma_k + GAMMA == 0.0

    def test_grazing_raises_with_advice(self):
        # k = 1.5 q at a = 0.4 puts the (-1, 0) order exactly on the light line
        with pytest.raises(GrazingError, match="shift k_perp"):
            dispersion_point((1.5 * Q, 0.0), 0.4)

    def test_inversion_symmetry(self):
        k = (0.4 * Q, 0.25 * Q)
        a = 0.55
        s1 = lattice_sum(k, a)
        s2 = lattice_sum((-k[0], -k[1]), a)
        assert abs(s1 - s2) < 1e-12


class TestRealSpace:
    """The Ewald sum against the damped real-space reference."""

    def test_k0_a02_radius60(self):
        ref, _ = damped_lattice_sum((0.0, 0.0), 0.2)
        assert abs(2.0 * ref.real - 4.9683103659) < 1e-3
        assert abs(ref.imag - dispersion_point((0.0, 0.0), 0.2).delta_k) < 1e-5

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
    def test_route_agreement_random_k(self, a):
        # 10 seeded wavevectors inside the light cone, kept away from grazing
        rng = np.random.default_rng(hash(a) % 2**32)
        count = 0
        while count < 10:
            k = rng.uniform(-0.85 * Q, 0.85 * Q, 2)
            if np.hypot(*k) > 0.85 * Q or light_line_margin(k, a) < 0.3**2:
                continue
            count += 1
            ref, _ = damped_lattice_sum(k, a)
            pt = dispersion_point(k, a)
            assert abs(2.0 * ref.real - pt.gamma_k) <= 1e-3
            assert abs(ref.imag - pt.delta_k) <= 5e-3

    def test_subradiant_band(self):
        for frac in (1.1, 1.25, 1.4):
            k = (frac * Q, 0.0)
            ref, _ = damped_lattice_sum(k, 0.4)
            assert abs(2.0 * ref.real + GAMMA) <= 1e-2
            assert abs(ref.imag - dispersion_point(k, 0.4).delta_k) <= 5e-3

    def test_delta_inversion_symmetry(self):
        k = (0.31 * Q, -0.12 * Q)
        d1 = dispersion_point(k, 0.5).delta_k
        d2 = dispersion_point((-k[0], -k[1]), 0.5).delta_k
        assert abs(d1 - d2) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.2, 1.0, exclude_min=True),
           kx=st.floats(-2.0 * Q, 2.0 * Q), ky=st.floats(-2.0 * Q, 2.0 * Q))
    def test_separable_sum_matches_direct_cosine_sum(self, a, kx, ky):
        # the damped sum converges only algebraically, and slowly near a
        # grazing order: compare where every |k_z| >= q/2.  Radius 90 keeps
        # the oracle within 2.3e-4 at a <= 0.25 in the subradiant band, where
        # radius 60 is off by up to 2.4e-3
        assume(light_line_margin((kx, ky), a) >= 0.25)
        ref, _ = damped_lattice_sum((kx, ky), a, radius=90.0)
        assert abs(lattice_sum((kx, ky), a) - ref) <= 2e-3


class TestEwald:
    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.2, 1.0, exclude_min=True),
           kx=st.floats(-2.0 * Q, 2.0 * Q), ky=st.floats(-2.0 * Q, 2.0 * Q),
           scale=st.floats(0.8, 2.0))
    def test_independent_of_splitting_parameter(self, a, kx, ky, scale):
        assume(light_line_margin((kx, ky), a) >= 1e-6)
        s_default = lattice_sum((kx, ky), a)
        default = lattice_sums._ewald_parameter
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_sums, "_ewald_parameter",
                       lambda a_: scale * default(a_))
            s_scaled = lattice_sum((kx, ky), a)
        assert abs(s_scaled - s_default) <= 1e-12 * max(abs(s_default), GAMMA)

    @pytest.mark.parametrize("a", [0.95, 0.99])
    def test_finite_above_the_old_convergence_limit(self, a):
        pt = dispersion_point((0.0, 0.0), a)
        assert np.isfinite(pt.delta_k)
        assert pt.gamma_k + GAMMA == pytest.approx(gamma_plus_Gamma0(a), rel=1e-12)

    def test_shells_stop_at_round_off(self):
        for a in (0.2, 0.5, 1.0):
            assert dispersion_grid(a, 16).residual < 1e-11


class TestDispersionCurve:
    def test_endpoints_match_point_calls(self):
        a = 0.4
        pts = dispersion_curve(["G", "X"], 2, a)
        lone = dispersion_point((0.0, 0.0), a)
        assert pts[0].gamma_k == lone.gamma_k
        assert pts[0].delta_k == pytest.approx(lone.delta_k, rel=1e-13)
        x = dispersion_point((np.pi / a, 0.0), a)
        assert pts[-1].gamma_k == x.gamma_k
        assert pts[-1].delta_k == pytest.approx(x.delta_k, rel=1e-13)

    def test_closed_path_endpoints_identical(self):
        pts = dispersion_curve(["G", "X", "M", "G"], 8, 0.6)
        assert pts[0].gamma_k == pts[-1].gamma_k
        assert pts[0].delta_k == pts[-1].delta_k

    def test_total_decay_nonnegative(self):
        for p in dispersion_curve(["G", "X", "M", "G"], 8, 0.6):
            assert p.gamma_k + GAMMA >= -1e-9

    def test_grazing_endpoint_propagates(self):
        # at a = 0.5 the X point sits exactly on the light line: the sample
        # stays, with NaN and a warning
        with pytest.warns(UserWarning, match="grazing") as record:
            pts = dispersion_curve(["G", "X"], 2, 0.5)
        assert np.isnan(pts[-1].gamma_k) and np.isfinite(pts[0].gamma_k)
        assert np.isnan(pts[-1].delta_k) and np.isfinite(pts[0].delta_k)
        # the warning points at the caller of dispersion_curve: this frame's
        # code, whose file name survives a copied tree with stale bytecode
        assert record[0].filename == sys._getframe().f_code.co_filename

    def test_one_warning_per_call(self):
        # X = q at a = 0.5: samples 2 and 6 of G,X,G,X graze
        with pytest.warns(UserWarning) as record:
            pts = dispersion_curve(["G", "X", "G", "X"], 7, 0.5)
        assert len(record) == 1
        message = str(record[0].message)
        assert "2 of 7 samples" in message and str(pts[2].k_perp) in message
        assert record[0].filename == sys._getframe().f_code.co_filename
        assert [i for i, p in enumerate(pts) if np.isnan(p.gamma_k)] == [2, 6]

    def test_strict_subradiant_failure_is_library_error(self):
        # the subradiant band q < |k| < 2 pi/a - q ends at a grazing order:
        # k = 1.5 q at a = 0.4, where a point raises a library error and a
        # path keeps its last sample as NaN
        with pytest.raises(ArrayCavError):
            dispersion_point((1.5 * Q, 0.0), 0.4)
        with pytest.warns(UserWarning, match="1 of 5 samples"):
            pts = dispersion_curve(["G", "1.5:0"], 5, 0.4)
        assert np.isnan(pts[-1].gamma_k) and np.isfinite(pts[-2].gamma_k)

    def test_readme_path_is_finite(self):
        # the README example path at a = 0.5 never grazes; the shift is
        # finite on the whole path, the subradiant band included
        pts = dispersion_curve(["G", "X", "M", "G"], 60, 0.5)
        assert all(np.isfinite(p.gamma_k) and np.isfinite(p.delta_k) for p in pts)
        assert min(p.gamma_k for p in pts) + GAMMA == 0.0

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.2, 1.0, exclude_min=True),
           path=st.lists(st.one_of(
               st.sampled_from(["G", "X", "M"]),
               st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
                   lambda p: f"{p[0]!r}:{p[1]!r}")),
               min_size=2, max_size=4),
           samples=st.integers(2, 40))
    def test_non_strict_never_raises(self, a, path, samples):
        ks = np.array([lattice_sums.resolve_bz_point(p, a) for p in path])
        assume(np.linalg.norm(np.diff(ks, axis=0), axis=1).sum() > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pts = dispersion_curve(path, samples, a)
        assert len(pts) == samples
        for p in pts:
            assert np.isnan(p.gamma_k) == np.isnan(p.delta_k)
            assert np.isnan(p.gamma_k) or p.gamma_k + GAMMA >= 0.0


class TestDispersionGrid:
    def test_matches_point_route(self):
        a, n = 0.5, 8
        grid = dispersion_grid(a, n)
        freqs = 2 * np.pi * np.fft.fftfreq(n, d=a)
        compared = 0
        for i in range(n):
            for j in range(n):
                try:
                    pt = dispersion_point((freqs[i], freqs[j]), a)
                except GrazingError:
                    continue
                compared += 1
                assert abs(grid.delta_k[i, j] - pt.delta_k) <= \
                    1e-12 * max(abs(pt.delta_k), GAMMA)
        assert 0 < compared < n * n      # n a = 4: some grid points graze

    def test_inversion_symmetry(self):
        grid = dispersion_grid(0.4, 8)
        d = grid.delta_k
        flipped = np.roll(d[::-1, ::-1], 1, axis=(0, 1))   # k -> -k on the fft grid
        assert np.allclose(d, flipped, atol=1e-10)

    def test_grazing_grid_point_takes_the_limit_from_inside(self):
        # n a = 2 at a = 0.4: k = (q, 0) is a grid point, where only the
        # (0, 0) order grazes; approach it from inside the light cone
        grid = dispersion_grid(0.4, 5)
        inside = dispersion_point((Q * (1.0 - 1e-7), 0.0), 0.4).delta_k
        assert np.all(np.isfinite(grid.delta_k))
        assert grid.delta_k[2, 0] == pytest.approx(inside, abs=1e-5)

    @pytest.mark.parametrize("a, n", [(0.4, 8), (0.25, 33), (0.95, 16)])
    def test_mirror_symmetry_is_exact(self, a, n):
        # Delta_k is symmetric under kx <-> ky; the grid is summed on one
        # half and mirrored, so the symmetry holds bit for bit
        d = dispersion_grid(a, n).delta_k
        assert np.array_equal(d, d.T)


class TestSpecialFunctions:
    """The lattice sums' numpy erfc, erfi(x)/x and spatial-part integral
    against mpmath at 30 digits and scipy.special, the oracles here only."""

    @staticmethod
    def reference(f, xs):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            return np.array([float(f(mpmath, mpmath.mpf(float(x)))) for x in xs])

    def test_erfc_to_round_off(self):
        from scipy.special import erfc
        rng = np.random.default_rng(1)
        xs = np.concatenate([np.linspace(0.0, 6.5, 651), rng.uniform(0.0, 6.5, 650),
                             [1e-300, 1e-8, 3.0, 6.0, 6.5]])
        got = lattice_sums._erfc(xs)
        ref = self.reference(lambda mp, x: mp.erfc(x), xs)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-15
        # scipy's own erfc is good to ~4e-15 relative at x ~ 6
        assert np.max(np.abs(got / erfc(xs) - 1.0)) <= 5e-15

    def test_erfi_over_x_to_round_off(self):
        from scipy.special import erfi
        xs = np.concatenate([np.linspace(1e-6, np.sqrt(np.pi), 400), [np.sqrt(5.0)]])
        got = lattice_sums._erfi_over_x(xs)
        ref = self.reference(lambda mp, x: mp.erfi(x) / x, xs)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-15
        # scipy's own erfi is good to ~8e-15 relative at small x
        assert np.max(np.abs(got * xs / erfi(xs) - 1.0)) <= 1e-14
        assert lattice_sums._erfi_over_x(0.0) == 2.0 / np.sqrt(np.pi)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.95])
    def test_spatial_table_matches_complex_erfc(self, a):
        # the closed form of the spatial summand, Re[e^{iqr} erfc(rE + iq/2E)]
        # and its r-derivatives, on the table's own arguments
        from scipy.special import erfc
        E = lattice_sums._ewald_parameter(a)
        table, _ = lattice_sums._spatial_table(a, E)
        m = table.shape[0] - 1
        d = np.arange(m + 1) * a
        fold = np.where(d > 0, 2.0, 1.0)
        got = table / np.outer(fold, fold)

        # -(3/2) (g1 + (g1'' + g1'/r) / (2 q^2)) with 4 pi g1 = Re u / r, and
        # the r-derivatives of Re u from u' = iq u - c
        r = np.hypot(d[:, None], d[None, :])
        r[0, 0] = a
        u = np.exp(1j * Q * r) * erfc(r * E + 0.5j * Q / E)
        c = 2.0 * E / np.sqrt(np.pi) * np.exp(Q * Q / (4.0 * E * E) - E * E * r * r)
        U, U1, U2 = u.real, -Q * u.imag - c, -Q * Q * u.real + 2.0 * E * E * r * c
        lap = U2 / r - U1 / r**2 + U / r**3
        want = -1.5 * (U / r + lap / (2.0 * Q * Q)) / (4.0 * np.pi)
        want[0, 0] = 0.0
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-15 * scale
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            Em, Qm = mpmath.mpf(E), mpmath.mpf(Q)
            for i in range(m + 1):
                for j in range(i + 1):
                    if i == j == 0:
                        continue
                    rm = mpmath.sqrt(mpmath.mpf(d[i]) ** 2 + mpmath.mpf(d[j]) ** 2)
                    um = mpmath.exp(1j * Qm * rm) * mpmath.erfc(rm * Em + 0.5j * Qm / Em)
                    cm = 2 * Em / mpmath.sqrt(mpmath.pi) * mpmath.exp(
                        Qm**2 / (4 * Em**2) - Em**2 * rm**2)
                    U, U1 = um.real, -Qm * um.imag - cm
                    U2 = -Qm**2 * um.real + 2 * Em**2 * rm * cm
                    lap = U2 / rm - U1 / rm**2 + U / rm**3
                    ref = float(-1.5 * (U / rm + lap / (2 * Qm**2)) / (4 * mpmath.pi))
                    assert abs(got[i, j] - ref) <= 1e-15 * scale
