import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, lu_factor, lu_solve

from arraycav.cavity_dynamics import (TwoModeModel, bare_cavity_amplitude,
                                      build_two_mode, coupling_profile,
                                      evolve_full, spectrum_scan,
                                      steady_state_full, steady_state_two_mode)
from arraycav.confined import (cavity_profile, confined_kernel_paraxial,
                               free_space_kernel, projected_kernel)
from arraycav.errors import RegimeError
from arraycav.lattice_sums import DispersionPoint, dispersion_point
from arraycav.optomech import closed_form_params

from conftest import make_config
from dense_reference import full_system

DELTA0 = 0.4003319962564511       # cooperative shift at k = 0, a = 0.5 (frozen)
GPLUSG = 3.0 / np.pi


@pytest.fixture(scope="module")
def disp():
    return dispersion_point((0.0, 0.0), 0.5)


@pytest.fixture(scope="module")
def proj32(disp):
    cfg = make_config()
    fs = free_space_kernel(cfg.lattice)
    conf = confined_kernel_paraxial(cfg.lattice, cfg.cavity.z0,
                                    cfg.cavity.k_cut_abs)
    return projected_kernel(fs, conf)


class TestTwoModeModel:
    def test_delta0_frozen_value(self, disp):
        assert disp.delta_k == pytest.approx(DELTA0, abs=1e-9)

    def test_g_eff_antinode(self, disp):
        # q z0 = pi/2, c/l = 100, a = 0.5: g_eff = sqrt(100 (gamma+Gamma))
        cfg = make_config(z0=0.25, l_fsr=100.0)
        m = build_two_mode(cfg, disp)
        # identity against the constructor inputs holds to the accuracy of
        # the supplied dispersion point
        assert m.g_eff**2 == pytest.approx(100.0 * (1 + disp.gamma_k), rel=1e-12)
        assert m.g_eff == pytest.approx(np.sqrt(100.0 * GPLUSG), rel=1e-12)
        assert m.g_eff == pytest.approx(9.772, rel=1e-3)

    def test_g_eff_node(self, disp):
        cfg = make_config(z0=0.0)
        assert build_two_mode(cfg, disp).g_eff == 0.0

    def test_constructor_identity(self, disp):
        cfg = make_config(z0=0.1, l_fsr=37.0)
        m = build_two_mode(cfg, disp)
        expect = np.sin(cfg.qz0) ** 2 * 37.0 * (1 + disp.gamma_k)
        assert m.g_eff**2 == pytest.approx(expect, rel=1e-6)

    def test_adiabatic_shift_equals_Delta_AC(self, disp):
        cfg = make_config(z0=0.1, l_fsr=100.0, delta=DELTA0 + 100.0)
        m = build_two_mode(cfg, disp)
        shift = m.g_eff**2 / m.delta_minus_Delta
        params = closed_form_params(cfg, disp.delta_k)
        assert shift == pytest.approx(params.Delta_AC, rel=1e-12)


class TestSteadyState:
    def test_dark_state(self):
        m = TwoModeModel(g_eff=5.0, delta_c=0.7, delta_minus_Delta=0.0,
                         kappa_c=1.0, Omega=0.01)
        st = steady_state_two_mode(m)
        assert st.a == 0.0
        assert st.sigma == pytest.approx(-0.01 / 5.0, rel=1e-14)

    def test_empty_cavity_lorentzian(self):
        m = TwoModeModel(g_eff=0.0, delta_c=0.4, delta_minus_Delta=3.0,
                         kappa_c=1.2, Omega=0.02)
        st = steady_state_two_mode(m)
        assert st.a == pytest.approx(-1j * 0.02 / (0.6 - 0.4j), rel=1e-14)
        assert st.sigma == 0.0

    def test_compensated_resonance(self):
        # delta_c tuned to the dispersive shift: |a| = 2 Omega / kappa_c
        g, dmD, kc, Om = 4.0, 100.0, 1.0, 0.01
        m = TwoModeModel(g_eff=g, delta_c=g * g / dmD, delta_minus_Delta=dmD,
                         kappa_c=kc, Omega=Om)
        st = steady_state_two_mode(m)
        assert abs(st.a) == pytest.approx(2 * Om / kc, rel=1e-14)

    def test_no_steady_state(self):
        m = TwoModeModel(g_eff=0.0, delta_c=0.0, delta_minus_Delta=0.0,
                         kappa_c=1.0, Omega=0.01)
        with pytest.raises(RegimeError, match="no steady state"):
            steady_state_two_mode(m)


class TestSpectrumScan:
    def test_peak_height(self):
        g, dmD, kc, Om = 4.0, 100.0, 1.0, 0.01
        m = TwoModeModel(g_eff=g, delta_c=0.0, delta_minus_Delta=dmD,
                         kappa_c=kc, Omega=Om)
        peak = g * g / dmD
        scan = spectrum_scan(m, (peak - 0.5, peak + 0.5), 41)  # grid hits peak
        assert scan[:, 1].max() == pytest.approx((2 * Om / kc) ** 2, rel=1e-12)

    def test_linearity_in_drive(self):
        base = TwoModeModel(g_eff=3.0, delta_c=0.0, delta_minus_Delta=50.0,
                            kappa_c=1.0, Omega=0.01)
        doubled = TwoModeModel(g_eff=3.0, delta_c=0.0, delta_minus_Delta=50.0,
                               kappa_c=1.0, Omega=0.02)
        s1 = spectrum_scan(base, (-2, 2), 21)
        s2 = spectrum_scan(doubled, (-2, 2), 21)
        assert np.allclose(s2[:, 1], 4.0 * s1[:, 1], rtol=1e-13)

    def test_decoupling_limit_is_bare_lorentzian(self):
        m = TwoModeModel(g_eff=3.0, delta_c=0.0, delta_minus_Delta=1e6,
                         kappa_c=1.0, Omega=0.01)
        scan = spectrum_scan(m, (-3, 3), 31)
        bare = np.abs(-1j * 0.01 / (0.5 - 1j * scan[:, 0])) ** 2
        assert np.max(np.abs(scan[:, 1] - bare) / bare) < 0.01

    def test_dark_point_in_scan(self, disp):
        m = TwoModeModel(g_eff=5.0, delta_c=0.0, delta_minus_Delta=0.0,
                         kappa_c=1.0, Omega=0.01)
        scan = spectrum_scan(m, (-1, 1), 11)
        assert np.all(scan[:, 1] == 0.0)


class TestFullModel:
    def test_coupling_profile_sum(self):
        # discrete sum over the Gaussian couplings reproduces the analytic
        # (gamma+Gamma)(c/l)/4 to the profile-truncation accuracy
        cfg = make_config(l_fsr=100.0)
        g = coupling_profile(cfg)
        assert np.sum(g * g) == pytest.approx(GPLUSG * 100.0 / 4.0, rel=1e-3)

    def test_matrix_exponential_oracle(self):
        cfg = make_config(a=0.5, n_side=4, w=2.0, z0=0.125, delta_c=0.2,
                          delta=3.7, kappa_c=0.8, Omega=0.05, l_fsr=20.0)
        kernel = free_space_kernel(cfg.lattice)
        A, c = full_system(cfg, kernel)
        t_final = 2.0
        states = evolve_full(cfg, kernel, t_final, 0.5)
        ainv_c = np.linalg.solve(A, c)
        exact = expm(A * t_final) @ ainv_c - ainv_c
        got = np.concatenate([[states[-1].a], states[-1].sigma])
        assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < 1e-8

    @pytest.mark.parametrize("overrides, t_final, dt_out", [
        (dict(a=0.5, n_side=4, w=2.0, z0=0.125, delta_c=0.2, delta=3.7,
              kappa_c=0.8, Omega=0.05, l_fsr=20.0), 2.0, 0.5),
        (dict(a=0.5, n_side=16, w=2.0, delta=100.0, Omega=0.01), 10.0, 0.05),
    ], ids=["n_side4", "n_side16"])
    def test_eigendecomposition_oracle_every_output_time(self, overrides,
                                                         t_final, dt_out):
        # y(t) = V [e^{lt} z0 + (e^{lt} - 1)/l w] with A = V diag(l) V^-1,
        # z0 = V^-1 y0, w = V^-1 c: independent of expm and of the LU solve
        cfg = make_config(**overrides)
        kernel = free_space_kernel(cfg.lattice)
        A, c = full_system(cfg, kernel)
        states = evolve_full(cfg, kernel, t_final, dt_out)
        ts = np.array([s.t for s in states])
        lam, V = np.linalg.eig(A)
        w = np.linalg.solve(V, c)
        growth = np.exp(np.outer(ts, lam))
        exact = ((growth - 1.0) / lam * w) @ V.T
        a_got = np.array([s.a for s in states])
        s2_got = np.array([np.sum(np.abs(s.sigma) ** 2) for s in states])
        s2_exact = np.sum(np.abs(exact[:, 1:]) ** 2, axis=1)
        a_dev = np.max(np.abs(a_got - exact[:, 0])) / np.max(np.abs(exact[:, 0]))
        s2_dev = np.max(np.abs(s2_got - s2_exact)) / np.max(s2_exact)
        assert a_dev <= 1e-10
        assert s2_dev <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(n_side=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           z0=st.floats(0.0, 0.25), delta=st.floats(-5.0, 20.0),
           Omega=st.sampled_from([0.0, 0.01]), t_final=st.floats(0.5, 10.0))
    def test_chain_matches_eigendecomposition_oracle(self, n_side, seed, z0,
                                                     delta, Omega, t_final):
        # random initial state plus drive: both Krylov spaces, every output
        # time, against y(t) = V [e^{lt} z0 + (e^{lt} - 1)/l w].  The oracle
        # itself rounds the atom phases delta t to ~ delta t eps, which the
        # mixing into a amplifies: at delta t ~ 1000 it is off by ~1e-12
        # (against expm), so delta t stays <= 200 here.
        rng = np.random.default_rng(seed)
        cfg = make_config(a=0.5, n_side=n_side, w=2.0, z0=z0, delta_c=0.3,
                          delta=delta, kappa_c=1.0, Omega=Omega, l_fsr=100.0)
        kernel = projected_kernel(
            free_space_kernel(cfg.lattice),
            confined_kernel_paraxial(cfg.lattice, z0, cfg.cavity.k_cut_abs))
        n = cfg.lattice.n_sites
        a0 = 0.02 * complex(*rng.normal(size=2))
        sigma0 = 0.02 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        traj = evolve_full(cfg, kernel, t_final, t_final / 40, a0=a0,
                           sigma0=sigma0)
        A, c = full_system(cfg, kernel)
        y0 = np.concatenate([[a0], sigma0])
        lam, V = np.linalg.eig(A)
        z0_, w = np.linalg.solve(V, y0), np.linalg.solve(V, c)
        growth = np.exp(np.outer(traj.t, lam))
        exact = (growth * z0_ + (growth - 1.0) / lam * w) @ V.T
        s2_exact = np.sum(np.abs(exact[:, 1:]) ** 2, axis=1)
        a_dev = np.max(np.abs(traj.a - exact[:, 0])) / np.max(np.abs(exact[:, 0]))
        s2_dev = np.max(np.abs(traj.sum_sigma2 - s2_exact)) / np.max(s2_exact)
        assert a_dev <= 1e-12
        assert s2_dev <= 1e-12
        sigma_last = traj[-1].sigma
        assert (np.linalg.norm(sigma_last - exact[-1, 1:])
                <= 1e-12 * np.max(np.sqrt(s2_exact)))
        assert traj.diagnostics["krylov_error"] <= 1e-12

    def test_steady_state_matches_dense_lu_at_dark_state(self, proj32):
        cfg = make_config(z0=0.125, delta_c=0.3, delta=DELTA0, kappa_c=1.0,
                          Omega=0.01, l_fsr=100.0)
        st_ = steady_state_full(cfg, proj32)
        A, c = full_system(cfg, proj32)
        y = lu_solve(lu_factor(A), -c)
        assert abs(st_.a - y[0]) <= 1e-10 * abs(y[0])
        assert np.linalg.norm(st_.sigma - y[1:]) <= 1e-10 * np.linalg.norm(y[1:])

    def test_output_grid_and_initial_state(self):
        cfg = make_config(a=0.5, n_side=4, w=2.0, z0=0.125, Omega=0.05)
        kernel = free_space_kernel(cfg.lattice)
        a0 = 0.3 - 0.1j
        sigma0 = np.linspace(-0.02, 0.02, cfg.lattice.n_sites) * (1 + 0.5j)
        states = evolve_full(cfg, kernel, 1.0, 0.3, a0=a0, sigma0=sigma0)
        assert np.array_equal([s.t for s in states], np.linspace(0.0, 1.0, 4))
        assert states[0].a == a0
        assert np.array_equal(states[0].sigma, sigma0)

    def test_steady_state_matches_two_mode(self, disp, proj32):
        cfg = make_config(z0=0.125, delta_c=0.3, delta=DELTA0 + 20.0,
                          kappa_c=1.0, Omega=0.01, l_fsr=100.0)
        st2 = steady_state_two_mode(build_two_mode(cfg, disp))
        stf = steady_state_full(cfg, proj32)
        assert abs(stf.a - st2.a) / abs(st2.a) < 0.02

    def test_dark_state_pinning(self, proj32):
        cfg = make_config(z0=0.125, delta_c=0.3, delta=DELTA0, kappa_c=1.0,
                          Omega=0.01, l_fsr=100.0)
        st = steady_state_full(cfg, proj32)
        assert abs(st.a) <= 1e-3 * abs(bare_cavity_amplitude(cfg))

    def test_energy_leaves_only_through_mirror(self, proj32):
        # undriven: d/dt (|a|^2 + sum |s|^2) = -kappa_c |a|^2 under the
        # projected kernel (the collective dipole itself is dark)
        cfg = make_config(z0=0.125, delta_c=0.0, delta=DELTA0, kappa_c=2.0,
                          Omega=0.0, l_fsr=100.0)
        u = cavity_profile(cfg.lattice, cfg.cavity.w).weights
        states = evolve_full(cfg, proj32, 2.0, 0.005, sigma0=0.05 * u)
        ts = np.array([s.t for s in states])
        energy = np.array([abs(s.a) ** 2 + np.sum(np.abs(s.sigma) ** 2)
                           for s in states])
        flux = 2.0 * np.trapezoid([abs(s.a) ** 2 for s in states], ts)
        lost = energy[0] - energy[-1]
        assert abs(lost - flux) / lost < 0.01

    def test_free_space_kernel_decays_cooperatively(self, disp):
        # array at a field node: the cavity decouples and the profile mode
        # decays at ~ gamma + Gamma
        cfg = make_config(z0=0.0, delta_c=0.0, delta=0.0, kappa_c=1.0,
                          Omega=0.0, l_fsr=100.0)
        fs = free_space_kernel(cfg.lattice)
        u = cavity_profile(cfg.lattice, cfg.cavity.w).weights
        states = evolve_full(cfg, fs, 1.0, 0.02, sigma0=0.05 * u)
        ts = np.array([s.t for s in states])
        s2 = np.array([np.sum(np.abs(s.sigma) ** 2) for s in states])
        rate = -np.polyfit(ts, np.log(s2), 1)[0]
        assert rate == pytest.approx(1 + disp.gamma_k, rel=0.01)

    def test_steady_state_linearity(self, proj32):
        cfg1 = make_config(z0=0.125, delta_c=0.3, delta=DELTA0 + 20.0,
                           Omega=0.01, l_fsr=100.0)
        cfg2 = make_config(z0=0.125, delta_c=0.3, delta=DELTA0 + 20.0,
                           Omega=0.03, l_fsr=100.0)
        a1 = steady_state_full(cfg1, proj32).a
        a2 = steady_state_full(cfg2, proj32).a
        assert a2 == pytest.approx(3.0 * a1, rel=1e-12)


def test_full_vs_two_mode_spectrum_scan(disp, proj32):
    # reduction consistency across a detuning scan, not just one point
    devs = []
    for dc in (-1.0, -0.4, 0.0, 0.4, 1.0):
        cfg = make_config(z0=0.125, delta_c=dc, delta=DELTA0 + 20.0,
                          kappa_c=1.0, Omega=0.01, l_fsr=100.0)
        a_full = abs(steady_state_full(cfg, proj32).a) ** 2
        a_two = abs(steady_state_two_mode(build_two_mode(cfg, disp)).a) ** 2
        devs.append(abs(a_full - a_two) / a_two)
    assert max(devs) < 0.02

