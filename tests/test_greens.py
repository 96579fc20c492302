import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import j0 as J0

from arraycav.errors import GrazingError
from arraycav.greens import (Q, kernel_fs, kernel_fs_d2z, kernel_fs_momentum,
                             kernel_fs_plane_profiles)

Q2G5 = Q * Q / 5.0


def dyadic_green_fs(r):
    """Free-space dyadic Green's tensor G(r), a complex 3x3 array, at a
    nonzero displacement r (units lambda): the oracle the scalar kernels are
    contracted from, D = -i (3/2) gamma lambda e_d^dag . G . e_d."""
    r = np.asarray(r, dtype=float)
    rn = float(np.linalg.norm(r))
    if rn == 0.0:
        raise ValueError("dyadic Green's function diverges at zero displacement")
    x = Q * rn
    e = np.exp(1j * x) / (4.0 * np.pi * rn)
    a = e * (1.0 + (1j * x - 1.0) / x**2)
    b = e * (-1.0 + (3.0 - 3j * x) / x**2)
    rhat = r / rn
    return a * np.eye(3) + b * np.outer(rhat, rhat)


class TestDyadic:
    def test_tensor_symmetry(self):
        r = np.array([0.3, 0.0, 0.0])
        G = dyadic_green_fs(r)
        assert np.max(np.abs(G - dyadic_green_fs(-r).T)) < 1e-15

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
           .filter(lambda r: np.hypot(np.hypot(r[0], r[1]), r[2]) > 0.05))
    def test_tensor_symmetry_property(self, r):
        r = np.array(r)
        G = dyadic_green_fs(r)
        assert np.allclose(G, G.T, atol=1e-14)
        assert np.allclose(G, dyadic_green_fs(-r).T, atol=1e-14)

    def test_far_field_transverse(self):
        # |G_yy| 4 pi r -> 1 up to O(1/(qr)) corrections
        G = dyadic_green_fs([100.0, 0.0, 0.0])
        assert abs(abs(G[1, 1]) * 4 * np.pi * 100.0 - 1.0) < 2e-3

    def test_near_field_cubed_growth(self):
        g1 = dyadic_green_fs([0.01, 0.0, 0.0])
        g2 = dyadic_green_fs([0.02, 0.0, 0.0])
        ratio = abs(g1[0, 0]) / abs(g2[0, 0])
        assert ratio == pytest.approx(8.0, rel=0.05)

    def test_zero_displacement_raises(self):
        with pytest.raises(ValueError, match="zero displacement"):
            dyadic_green_fs([0.0, 0.0, 0.0])


class TestKernelFs:
    def test_origin_convention(self):
        assert kernel_fs((0.0, 0.0)) == 0.5 + 0.0j

    def test_reciprocity_point(self):
        r = (0.7, 0.2)
        assert kernel_fs(r) == pytest.approx(kernel_fs((-0.7, -0.2)), abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 5.0), st.floats(0, 2 * np.pi))
    def test_reciprocity_property(self, rho, th):
        rp = (rho * np.cos(th), rho * np.sin(th))
        rm = (-rp[0], -rp[1])
        assert kernel_fs(rp, 0.1) == pytest.approx(kernel_fs(rm, -0.1), rel=1e-13)

    def test_contraction_identity_vs_dyadic(self):
        # circular polarization picks out (G_xx + G_yy)/2
        rp, dz = (0.4, 0.0), 0.3
        G = dyadic_green_fs([rp[0], rp[1], dz])
        expect = -1.5j * (G[0, 0] + G[1, 1]) / 2.0
        assert kernel_fs(rp, dz) == pytest.approx(expect, rel=1e-13)

    def test_radiative_positivity(self):
        # decay matrix over random point sets is PSD (gamma/2 diagonal)
        rng = np.random.default_rng(11)
        for _ in range(5):
            pts = rng.uniform(-4, 4, (30, 2))
            M = np.eye(30) * 0.5
            for i in range(30):
                for j in range(i + 1, 30):
                    M[i, j] = M[j, i] = kernel_fs(pts[i] - pts[j]).real
            lam = np.linalg.eigvalsh(M)
            assert lam.min() >= -1e-10 * 30


class TestKernelD2z:
    def test_origin_limit_value(self):
        assert kernel_fs_d2z((0.0, 0.0)) == -Q2G5 + 0.0j

    def test_origin_limit_high_precision(self):
        # independent oracle: 40-digit evaluation of the closed form,
        # Richardson-extrapolated rho -> 0
        import mpmath as mp
        mp.mp.dps = 40

        def re_d2(rho):
            x = 2 * mp.pi * rho
            val = mp.mpf(3) / 8 * (x**3 - 2j * x**2 + 9 * x + 9j) \
                * mp.e**(1j * x) / x**5 * (2 * mp.pi)**2
            return mp.re(val)

        vals = [re_d2(mp.mpf(10)**-3 / 2**k) for k in range(4)]
        for _ in range(3):
            vals = [(4 * b - a) / 3 for a, b in zip(vals, vals[1:])]
        assert abs(float(vals[0]) + Q2G5) / Q2G5 < 1e-8

    def test_tensor_limit_minus_4_15(self):
        # Im of the contracted derivative tensor: (4/(3 q^2)) Re[D''] -> -4/15
        val = 4.0 / (3.0 * Q * Q) * kernel_fs_d2z((0.0, 0.0)).real
        assert abs(val + 4.0 / 15.0) < 1e-8 * (4.0 / 15.0)
        small = 4.0 / (3.0 * Q * Q) * kernel_fs_d2z((1e-4, 0.0)).real
        assert small == pytest.approx(-4.0 / 15.0, rel=1e-6)

    def test_finite_difference_consistency(self):
        # Richardson-improved central second differences, steps 1e-3 and 5e-4
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = rng.uniform(0.2, 3.0)
            th = rng.uniform(0, 2 * np.pi)
            rp = (rho * np.cos(th), rho * np.sin(th))

            def fd(h):
                return (kernel_fs(rp, h) - 2 * kernel_fs(rp, 0.0)
                        + kernel_fs(rp, -h)) / h**2

            rich = (4 * fd(5e-4) - fd(1e-3)) / 3.0
            an = kernel_fs_d2z(rp)
            assert abs(rich - an) / abs(an) < 1e-6

    def test_first_derivative_vanishes(self):
        # even in dz: first central difference collapses to zero
        for rp in [(0.5, 0.0), (1.3, 0.7)]:
            h = 1e-4
            d1 = (kernel_fs(rp, h) - kernel_fs(rp, -h)) / (2 * h)
            assert abs(d1) < 1e-12


def test_plane_profiles_share_one_evaluation_bit_for_bit():
    # radii on both sides of the series crossover and the coincident point:
    # the point kernels in the plane are the profiles of the lattice tables
    rho = np.concatenate([[0.0], np.linspace(1e-3, 0.1, 50), np.linspace(0.1, 40.0, 500)])
    fs, fs_d2 = kernel_fs_plane_profiles(rho)
    rng = np.random.default_rng(5)
    for r, th, want, want_d2 in zip(rho, rng.uniform(0.0, 2 * np.pi, rho.size), fs, fs_d2):
        rp = (r * np.cos(th), r * np.sin(th))
        # the profiles at the point's own radius, which rounds from r
        got, got_d2 = kernel_fs_plane_profiles([np.hypot(*rp)])
        assert kernel_fs(rp) == got[0] and kernel_fs_d2z(rp) == got_d2[0]
        assert kernel_fs((r, 0.0)) == want and kernel_fs_d2z((0.0, r)) == want_d2
    assert fs[0] == 0.5 and fs_d2[0] == -Q2G5


class TestKernelMomentum:
    def test_normal_incidence(self):
        val = kernel_fs_momentum((0.0, 0.0), 0.0)
        assert val == pytest.approx(1.5 / (2 * Q), rel=1e-14)

    def test_evanescent_decay(self):
        k = (1.5 * Q, 0.0)
        kz = np.sqrt((1.5 * Q) ** 2 - Q * Q)
        v1 = kernel_fs_momentum(k, 0.1)
        v2 = kernel_fs_momentum(k, 0.3)
        assert abs(v2) / abs(v1) == pytest.approx(np.exp(-kz * 0.2), rel=1e-12)
        assert kernel_fs_momentum(k, 0.0).imag != 0  # evanescent branch is reactive

    def test_grazing_raises(self):
        with pytest.raises(GrazingError, match="grazing"):
            kernel_fs_momentum((Q, 0.0), 0.1)

    def test_circular_weight(self):
        k = (0.5 * Q, 0.3 * Q)
        k2 = k[0] ** 2 + k[1] ** 2
        kz = np.sqrt(Q * Q - k2)
        expect = 1.5 * np.exp(1j * kz * 0.2) / (2 * kz) * (1 - k2 / (2 * Q * Q))
        assert kernel_fs_momentum(k, 0.2) == pytest.approx(expect, rel=1e-14)

    def test_inverse_transform_reproduces_kernel(self):
        # radial (Bessel) quadrature over the k_perp disc of radius 8q with
        # 2048 nodes per branch; light-line handled by the kz substitution
        rho, dz = 1.0, 0.25
        x, w = leggauss(2048)
        u = 0.5 * Q * (x + 1)
        wu = w * 0.5 * Q
        k = np.sqrt(Q * Q - u * u)
        fp = np.array([kernel_fs_momentum((kk, 0.0), dz) for kk in k])
        val = np.sum(wu * u * J0(k * rho) * fp) / (2 * np.pi)
        vmax = np.sqrt((8 * Q) ** 2 - Q * Q)
        v = 0.5 * vmax * (x + 1)
        wv = w * 0.5 * vmax
        k = np.sqrt(Q * Q + v * v)
        fe = np.array([kernel_fs_momentum((kk, 0.0), dz) for kk in k])
        val += np.sum(wv * v * J0(k * rho) * fe) / (2 * np.pi)
        direct = kernel_fs((rho, 0.0), dz)
        assert abs(val - direct) / abs(direct) < 1e-3
