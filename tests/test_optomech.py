import numpy as np
import pytest

from arraycav.config import LatticeSpec, gamma_plus_Gamma0
from arraycav.confined import (confined_kernel_paraxial, free_space_kernel,
                               projected_kernel)
from arraycav.errors import ConfigError, RegimeError
from arraycav.greens import Q
from arraycav.lattice_sums import DispersionGrid, dispersion_grid
from arraycav.optomech import (closed_form_params, coupling_matrix_C,
                               coupling_matrix_M, favorable_ratio,
                               intensity_profile, k_sc_ground_state_average,
                               mechanical_basis, om_consistency)

from conftest import make_config

# frozen reference values at q z0 = pi/4, eta = 0.1, c/l = 100, delta-Delta = 100,
# w = 4, a = 0.5 (independent arithmetic on the closed forms)
GBAR_REF = 0.0673451707969375
G_REF = 6.73451707969375e-3
KSC_REF = 6.684507609859605e-5


@pytest.fixture(scope="module")
def grid16():
    return dispersion_grid(0.5, 16)


@pytest.fixture(scope="module")
def small_setup(grid16):
    """w = 2 lattice with projected kernels and a mechanical basis (N = 256)."""
    cfg = make_config(a=0.5, n_side=16, w=2.0, z0=0.125,
                      delta=grid16.delta0 + 100.0, omega_m=0.01, kappa_c=0.5,
                      Omega=0.01, eta=0.1, l_fsr=100.0)
    k_cut = 6.0 / 2.0
    fs = free_space_kernel(cfg.lattice)
    fs2 = free_space_kernel(cfg.lattice, derivative=2)
    conf = confined_kernel_paraxial(cfg.lattice, cfg.cavity.z0, k_cut)
    conf2 = confined_kernel_paraxial(cfg.lattice, cfg.cavity.z0, k_cut,
                                     derivative=2)
    proj = projected_kernel(fs, conf)
    proj2 = projected_kernel(fs2, conf2)
    basis = mechanical_basis(cfg.lattice, 2.0, completion_seed=3)
    return cfg, proj, proj2, basis, k_cut


class TestClosedForms:
    def test_antinode_values(self):
        # q z0 = pi/2: epsilon = 12/5, both anharmonic couplings vanish
        cfg = make_config(z0=0.25, delta=100.0, eta=0.1, l_fsr=100.0)
        p = closed_form_params(cfg, Delta=0.0)
        assert p.epsilon == pytest.approx(2.4, rel=1e-14)
        assert p.g == pytest.approx(0.0, abs=1e-16)
        assert p.g2 == pytest.approx(0.0, abs=1e-18)

    def test_quarter_wave_reference_point(self):
        cfg = make_config(z0=0.125, delta=100.0, eta=0.1, l_fsr=100.0)
        p = closed_form_params(cfg, Delta=0.0)
        assert p.N_a == pytest.approx(64 * np.pi, rel=1e-14)
        assert p.epsilon == pytest.approx(4.2, rel=1e-14)
        assert p.g_bar == pytest.approx(GBAR_REF, rel=1e-12)
        assert p.g == pytest.approx(G_REF, rel=1e-12)
        assert p.kappa_sc == pytest.approx(KSC_REF, rel=1e-12)
        assert p.Delta_AC == pytest.approx(
            0.5 * 100.0 * gamma_plus_Gamma0(0.5) / 100.0, rel=1e-14)

    def test_g_is_sin2qz0_eta_gbar(self):
        cfg = make_config(z0=0.07, delta=150.0, eta=0.22, l_fsr=60.0)
        p = closed_form_params(cfg, Delta=0.0)
        assert p.g == pytest.approx(np.sin(2 * cfg.qz0) * p.eta * p.g_bar,
                                    rel=1e-15)

    def test_epsilon_bounds(self):
        for z0 in np.linspace(0.0, 0.24, 9):
            cfg = make_config(z0=z0, delta=100.0)
            p = closed_form_params(cfg, Delta=0.0)
            assert 2.4 <= p.epsilon <= 6.0

    def test_regime_guard(self):
        cfg = make_config(delta=1.0)
        with pytest.raises(RegimeError, match="margin"):
            closed_form_params(cfg, Delta=0.0)

    def test_favorable_ratio_identity(self):
        cfg = make_config(z0=0.11, delta=80.0, eta=0.15, l_fsr=45.0)
        p = closed_form_params(cfg, Delta=0.0)
        expect = (p.eta * np.sqrt(p.N_a) * (1.0 / 80.0) * p.epsilon
                  / (6.0 * np.sin(2 * cfg.qz0)))
        assert favorable_ratio(p) == pytest.approx(expect, rel=1e-12)


class TestScalingLaws:
    def base(self, **kw):
        args = dict(z0=0.125, delta=100.0, eta=0.1, l_fsr=100.0)
        args.update(kw)
        return closed_form_params(make_config(**args), Delta=0.0)

    def test_g_linear_in_eta(self):
        assert self.base(eta=0.2).g / self.base(eta=0.1).g == \
            pytest.approx(2.0, rel=1e-12)

    def test_kappa_sc_quadratic_in_eta(self):
        assert self.base(eta=0.2).kappa_sc / self.base(eta=0.1).kappa_sc == \
            pytest.approx(4.0, rel=1e-12)

    def test_g2_quadratic_in_eta(self):
        assert self.base(eta=0.2).g2 / self.base(eta=0.1).g2 == \
            pytest.approx(4.0, rel=1e-12)

    def test_kappa_sc_inverse_square_detuning(self):
        assert self.base(delta=100.0).kappa_sc / self.base(delta=200.0).kappa_sc \
            == pytest.approx(4.0, rel=1e-12)

    def test_g_inverse_detuning(self):
        assert self.base(delta=100.0).g / self.base(delta=200.0).g == \
            pytest.approx(2.0, rel=1e-12)

    def test_g_proportional_sqrt_atoms_in_waist(self):
        # sqrt(N_a) scaling probed at fixed waist by the lattice constant
        pa = self.base(a=0.5)
        pb = self.base(a=0.25)
        assert pb.g / pa.g == pytest.approx(np.sqrt(pb.N_a / pa.N_a), rel=1e-12)
        assert pb.g / pa.g == pytest.approx(2.0, rel=1e-12)

    def test_favorable_ratio_scaling(self):
        # kappa_sc/g ~ eta gamma/(delta-Delta)
        r1 = favorable_ratio(self.base(eta=0.1, delta=100.0))
        r2 = favorable_ratio(self.base(eta=0.2, delta=100.0))
        r3 = favorable_ratio(self.base(eta=0.1, delta=200.0))
        assert r2 / r1 == pytest.approx(2.0, rel=1e-12)
        assert r3 / r1 == pytest.approx(0.5, rel=1e-12)


class TestMechanicalBasis:
    def test_orthonormal_and_anchored(self):
        lat = LatticeSpec(a=0.5, n_side=16)
        b = mechanical_basis(lat, 2.0, completion_seed=0)
        assert np.max(np.abs(b.V.T @ b.V - np.eye(256))) < 1e-10
        v0 = intensity_profile(lat, 2.0).ravel()
        assert np.max(np.abs(b.V[:, 0] - v0)) < 1e-12
        assert np.sum(v0**2) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        lat = LatticeSpec(a=0.5, n_side=8)
        b1 = mechanical_basis(lat, 1.0, completion_seed=42)
        b2 = mechanical_basis(lat, 1.0, completion_seed=42)
        assert np.array_equal(b1.V, b2.V)

    def test_continuum_profile_sums(self):
        # discrete sums approach the Gaussian integrals as a/w -> 0
        lat = LatticeSpec(a=0.25, n_side=128)
        v0 = intensity_profile(lat, 8.0)
        assert np.sum(v0) == pytest.approx(np.sqrt(np.pi) * 8.0 / 0.25, rel=0.01)
        assert np.sum(v0**3) == pytest.approx(
            4.0 * 0.25 / (3.0 * np.sqrt(np.pi) * 8.0), rel=0.01)

    def test_size_guard(self):
        with pytest.raises(ConfigError, match="trace route"):
            mechanical_basis(LatticeSpec(a=0.5, n_side=128), 8.0, 0)


class TestCouplingMatrices:
    def test_M_eta_independent(self, small_setup, grid16):
        cfg, proj, proj2, _, _ = small_setup
        other = make_config(a=0.5, n_side=16, w=2.0, z0=0.125,
                            delta=cfg.drive.delta, eta=0.25, l_fsr=100.0,
                            omega_m=0.01, kappa_c=0.5, Omega=0.01)
        m1 = coupling_matrix_M(cfg, proj, proj2, grid16)
        m2 = coupling_matrix_M(other, proj, proj2, grid16)
        assert np.array_equal(m1, m2)

    def test_M_flat_dispersion_collapse(self, small_setup, grid16):
        # forcing Delta_k = Delta collapses the Brillouin sums to identity
        # and to a cancelling conjugate pair
        cfg, proj, proj2, _, _ = small_setup
        flat = DispersionGrid(a=0.5, n_side=16,
                              delta_k=np.full((16, 16), grid16.delta0),
                              residual=0.0)
        got = coupling_matrix_M(cfg, proj, proj2, flat)
        dmd = cfg.drive.delta - grid16.delta0
        expect = (np.sin(cfg.qz0) ** 2 * 2.0 * proj2.dense().imag / (Q * Q * dmd)
                  - np.cos(cfg.qz0) ** 2 * 2.0 * np.eye(256))
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_M_derivative_term_symmetric(self, small_setup, grid16):
        # at an antinode only the derivative (symmetric) term survives
        _, proj, proj2, _, _ = small_setup
        cfg = make_config(a=0.5, n_side=16, w=2.0, z0=0.25,
                          delta=grid16.delta0 + 100.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
        m = coupling_matrix_M(cfg, proj, proj2, grid16)
        assert np.max(np.abs(m - m.T)) < 1e-14

    def test_C_eta_squared(self, small_setup, grid16):
        cfg, proj, proj2, basis, _ = small_setup
        other = make_config(a=0.5, n_side=16, w=2.0, z0=0.125,
                            delta=cfg.drive.delta, eta=0.2, l_fsr=100.0,
                            omega_m=0.01, kappa_c=0.5, Omega=0.01)
        c1 = coupling_matrix_C(cfg, basis, proj, proj2, grid16)
        c2 = coupling_matrix_C(other, basis, proj, proj2, grid16)
        assert np.max(np.abs(c2 / c1 - 4.0)) < 1e-12

    def test_C_trace_completion_independent(self, small_setup, grid16):
        cfg, proj, proj2, basis, _ = small_setup
        other = mechanical_basis(cfg.lattice, 2.0, completion_seed=99)
        c1 = coupling_matrix_C(cfg, basis, proj, proj2, grid16)
        c2 = coupling_matrix_C(cfg, other, proj, proj2, grid16)
        t1, t2 = np.trace(c1), np.trace(c2)
        assert abs(t1 - t2) / abs(t1) < 1e-10
        assert c1[0, 0] == pytest.approx(c2[0, 0], rel=1e-10)


class TestConsistencyRoutes:
    def test_explicit_matches_completeness(self, small_setup, grid16):
        cfg, proj, proj2, basis, k_cut = small_setup
        C = coupling_matrix_C(cfg, basis, proj, proj2, grid16)
        re = om_consistency(cfg, grid16, C=C)
        rc = om_consistency(cfg, grid16, k_cut_abs=k_cut)
        assert re.kappa_sc_trace == pytest.approx(rc.kappa_sc_trace, rel=1e-9)
        assert re.kappa_2 == pytest.approx(rc.kappa_2, rel=1e-6, abs=1e-18)
        assert re.g2_trace == pytest.approx(rc.g2_trace, rel=1e-9)
        assert re.Delta_sc == pytest.approx(rc.Delta_sc, rel=1e-9)

    def test_completeness_route_kappa(self, small_setup, grid16):
        cfg, _, _, _, k_cut = small_setup
        rep = om_consistency(cfg, grid16, k_cut_abs=k_cut)
        assert rep.kappa_sc_closed > 0 and rep.kappa_sc_trace > 0
        assert abs(rep.kappa_2) < 0.05 * rep.kappa_sc_closed

    def test_trace_eta_ratio_exact(self, grid16):
        vals = {}
        for eta in (0.1, 0.05):
            cfg = make_config(a=0.5, n_side=16, w=2.0, z0=0.125,
                              delta=grid16.delta0 + 100.0, eta=eta,
                              l_fsr=100.0, omega_m=0.01, kappa_c=0.5, Omega=0.01)
            vals[eta] = om_consistency(cfg, grid16, k_cut_abs=3.0).kappa_sc_trace
        assert vals[0.1] / vals[0.05] == pytest.approx(4.0, abs=1e-6)

    def test_delta_sc_order(self, small_setup, grid16):
        cfg, _, _, _, k_cut = small_setup
        rep = om_consistency(cfg, grid16, k_cut_abs=k_cut)
        params = closed_form_params(cfg, grid16.delta0)
        assert abs(rep.Delta_sc) <= 10.0 * cfg.trap.eta**2 * abs(params.Delta_AC)

    def test_g2_variants_agree_at_node(self, grid16):
        cfg = make_config(a=0.5, n_side=16, w=2.0, z0=0.0,
                          delta=grid16.delta0 + 100.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
        rep = om_consistency(cfg, grid16, k_cut_abs=3.0)
        assert rep.g2_closed == pytest.approx(rep.g2_flat_profile, rel=1e-14)
        assert rep.g2_trace > 0

    def test_mismatched_grid_rejected(self, small_setup):
        cfg, _, _, _, _ = small_setup
        with pytest.raises(ValueError, match="grid"):
            om_consistency(cfg, dispersion_grid(0.5, 8))


class TestGroundStateAverage:
    def test_matches_closed_form(self, small_setup, grid16):
        cfg, _, proj2, _, _ = small_setup
        total, terms = k_sc_ground_state_average(cfg, proj2, grid16)
        params = closed_form_params(cfg, grid16.delta0)
        assert total.real == pytest.approx(params.kappa_sc, rel=0.05)

    def test_antinode_term_budget(self, grid16):
        # q z0 = pi/2: only the derivative terms survive; eps/2 = 6/5
        cfg = make_config(a=0.5, n_side=16, w=2.0, z0=0.25,
                          delta=grid16.delta0 + 100.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
        fs2 = free_space_kernel(cfg.lattice, derivative=2)
        conf2 = confined_kernel_paraxial(cfg.lattice, 0.25, 3.0, derivative=2)
        proj2 = projected_kernel(fs2, conf2)
        total, terms = k_sc_ground_state_average(cfg, proj2, grid16)
        assert abs(terms["single_atom"]) < 1e-30
        n_a = np.pi * 4.0 / 0.25
        expect = 0.01 * n_a * 100.0 * 1e-4 * 1.2 / (Q * Q * 4.0)
        assert total.real == pytest.approx(expect, rel=0.05)


class TestGroundStateAverageAtScale:
    def test_middle_term_vanishes_under_projection(self):
        # w = 8, a = 0.25 lattice; k_cut = 6/w covers the profile spectrum
        grid = dispersion_grid(0.25, 128)
        cfg = make_config(a=0.25, n_side=128, w=8.0, z0=0.125,
                          delta=grid.delta0 + 100.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
        proj2 = projected_kernel(
            free_space_kernel(cfg.lattice, derivative=2),
            confined_kernel_paraxial(cfg.lattice, 0.125, 0.75, derivative=2))
        total, terms = k_sc_ground_state_average(cfg, proj2, grid)
        assert abs(terms["profile_derivative"].real) <= 1e-3 * terms["diagonal"].real
        params = closed_form_params(cfg, grid.delta0)
        assert total.real == pytest.approx(params.kappa_sc, rel=0.05)
