import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, lu_factor, lu_solve

from arraycav.cavity_dynamics import (KRYLOV_TOL, TwoModeModel, _chain_propagation,
                                      _error_bound, _generator, _Krylov,
                                      build_two_mode, coupling_profile,
                                      evolve_full, spectrum_scan,
                                      steady_state_full, steady_state_two_mode)
from arraycav.confined import (confined_kernel_paraxial, free_space_kernel,
                               projected_kernel, projected_kernels)
from arraycav.errors import ConvergenceError, RegimeError
from arraycav.lattice_sums import DispersionPoint, dispersion_point
from arraycav.optomech import closed_form_params

from conftest import make_config
from dense_reference import (bare_cavity_amplitude, dense, full_system,
                             two_mode_steady_state)

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

    def test_undamped_cavity_on_dressed_resonance(self):
        # kappa_c = 0 and delta_c = g_eff^2/(delta - Delta): the denominator
        # vanishes, so there is no steady state, for one point and in a scan
        g, dmD = 4.0, 100.0
        m = TwoModeModel(g_eff=g, delta_c=g * g / dmD, delta_minus_Delta=dmD,
                         kappa_c=0.0, Omega=0.01)
        with pytest.raises(RegimeError, match="no steady state"):
            steady_state_two_mode(m)
        with pytest.raises(RegimeError, match="no steady state"):
            spectrum_scan(m, (g * g / dmD, 1.0), 11)
        assert spectrum_scan(m, (-1.0, 0.0), 11)[:, 1].all()


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

    @settings(max_examples=200, deadline=None)
    @given(g_eff=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
           dmD=st.one_of(st.just(0.0), st.floats(1e-3, 1e3),
                         st.floats(-1e3, -1e-3)),
           kappa_c=st.floats(1e-3, 10.0), Omega=st.floats(1e-4, 1.0),
           ends=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
           samples=st.integers(2, 101))
    def test_scan_matches_scalar_oracle(self, g_eff, dmD, kappa_c, Omega,
                                        ends, samples):
        # the array formula against the per-sample scalar one: numpy's
        # complex division and |z| are not CPython's, so rows agree to a few
        # ulp; dark rows are exact, and each row is steady_state_two_mode at
        # its delta_c bit for bit
        m = TwoModeModel(g_eff=g_eff, delta_c=0.0, delta_minus_Delta=dmD,
                         kappa_c=kappa_c, Omega=Omega)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # saturation
            if dmD == 0.0 and g_eff == 0.0:
                with pytest.raises(RegimeError, match="no steady state"):
                    spectrum_scan(m, ends, samples)
                return
            if dmD == 0.0 and not np.isfinite(Omega / g_eff):
                # the dark state's dipole -Omega/g_eff is beyond the float range
                with pytest.raises(ConvergenceError, match="non-finite amplitudes"):
                    spectrum_scan(m, ends, samples)
                return
            scan = spectrum_scan(m, ends, samples)
            for dc, abs_a2, phase in scan:
                model = dataclasses.replace(m, delta_c=dc)
                if dmD == 0.0:
                    assert abs_a2 == 0.0 and phase == 0.0
                    assert not np.signbit(phase)
                else:
                    a, _sigma = two_mode_steady_state(model)
                    want2, want_phase = abs(a) ** 2, np.angle(a)
                    assert abs(abs_a2 - want2) <= 8 * np.spacing(want2)
                    assert abs(phase - want_phase) <= 4 * np.spacing(abs(want_phase))
                st_ = steady_state_two_mode(model)
                assert abs_a2 == np.square(np.abs(st_.a))   # an array's ** 2
                assert phase == np.angle(st_.a)


def _energy_balance(cfg, kernel, t_final, dt_out):
    """The full model from rest with the energy E = |a|^2 + sum |s|^2 it
    gains from the drive, -2 Omega int Im a dt, and the part of that its atoms
    radiate, int s^+ (2 Re D) s dt: what neither E(t_final) nor the mirror,
    kappa_c int |a|^2 dt, holds.  Returns (trajectory, inflow, radiated);
    the integrals are trapezoid sums over the output times."""
    traj = evolve_full(cfg, kernel, t_final, dt_out)
    inflow = -2.0 * cfg.drive.Omega * np.trapezoid(traj.a.imag, traj.t)
    mirror = cfg.cavity.kappa_c * np.trapezoid(np.abs(traj.a) ** 2, traj.t)
    energy = abs(traj.a[-1]) ** 2 + traj.sum_sigma2[-1]
    return traj, inflow, inflow - mirror - energy


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
        # from rest y(t) = V (e^{lt} - 1)/l w with A = V diag(l) V^-1 and
        # w = V^-1 c: independent of expm and of the LU solve
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
    @given(n_side=st.integers(2, 12), z0=st.floats(0.0, 0.25),
           delta=st.floats(-5.0, 20.0), Omega=st.sampled_from([0.0, 0.01]),
           t_final=st.floats(0.5, 10.0))
    # the cavity couples to the atoms below KRYLOV_TOL of |A e_0|, so the
    # chain closes at m = 1; at z0 = 5e-15 its bound is above the tolerance
    # there and the chain resumes
    @example(n_side=12, z0=1e-15, delta=DELTA0, Omega=0.01, t_final=10.0)
    @example(n_side=12, z0=5e-15, delta=5.0, Omega=0.01, t_final=10.0)
    def test_chain_matches_eigendecomposition_oracle(self, n_side, z0, delta,
                                                     Omega, t_final):
        # from rest, every output time, against y(t) = V (e^{lt} - 1)/l w
        # with w = V^-1 c.  The oracle itself rounds the atom phases delta t
        # to ~ delta t eps, which the mixing into a amplifies: at delta t ~
        # 1000 it is off by ~1e-12 (against expm), so delta t stays <= 200
        # here.  It decomposes the generator with the atoms scaled by
        # 1/|sin q z0| (a diagonal similarity), so that its eigenvectors
        # resolve weakly coupled atoms to their own scale.
        cfg = make_config(a=0.5, n_side=n_side, w=2.0, z0=z0, delta_c=0.3,
                          delta=delta, kappa_c=1.0, Omega=Omega, l_fsr=100.0)
        kernel = projected_kernel(
            free_space_kernel(cfg.lattice),
            confined_kernel_paraxial(cfg.lattice, z0, cfg.cavity.k_cut_abs))
        traj = evolve_full(cfg, kernel, t_final, t_final / 40)
        if Omega == 0.0:
            # no drive: the state stays at rest, on an empty basis
            assert not traj.a.any() and not traj.sum_sigma2.any()
            assert traj.diagnostics["krylov_m"] == 0
            return
        A, c = full_system(cfg, kernel)
        alpha, b = A[0, 0], A[1:, 0].copy()
        sin, g = np.sin(cfg.qz0), coupling_profile(cfg)
        A[0, 1:], A[1:, 0] = -2j * sin * abs(sin) * g, -2j * np.sign(sin) * g
        lam, V = np.linalg.eig(A)
        w = np.linalg.solve(V, c)
        growth = np.exp(np.outer(traj.t, lam))
        exact = ((growth - 1.0) / lam * w) @ V.T
        exact[:, 1:] *= abs(sin)
        s2_exact = np.sum(np.abs(exact[:, 1:]) ** 2, axis=1)
        a_dev = np.max(np.abs(traj.a - exact[:, 0])) / np.max(np.abs(exact[:, 0]))
        assert a_dev <= 1e-12
        assert traj.diagnostics["krylov_error"] <= 1e-12
        if traj.diagnostics["krylov_m"] == 1:
            # the atoms couple below the chain's tolerance, |b| <= 1e-12 |A e_0|,
            # so the chain is the bare cavity; the dissipative atoms then hold
            # at most |b| t max|a|, and the reported bound covers what they hold
            assert np.linalg.norm(b) <= 1e-12 * np.hypot(abs(alpha), np.linalg.norm(b))
            assert not traj.sum_sigma2.any()
            a_peak = np.max(np.abs(exact[:, 0]))
            assert np.max(s2_exact) <= (np.linalg.norm(b) * t_final * a_peak) ** 2
            assert np.max(s2_exact) <= (traj.diagnostics["krylov_error"] * a_peak) ** 2
            return
        s2_dev = np.max(np.abs(traj.sum_sigma2 - s2_exact)) / np.max(s2_exact)
        assert s2_dev <= 1e-12
        sigma_last = traj[-1].sigma
        assert (np.linalg.norm(sigma_last - exact[-1, 1:])
                <= 1e-12 * np.max(np.sqrt(s2_exact)))

    def test_steady_state_matches_dense_lu_at_dark_state(self, proj32):
        cfg = make_config(z0=0.125, delta_c=0.3, delta=DELTA0, kappa_c=1.0,
                          Omega=0.01, l_fsr=100.0)
        st_ = steady_state_full(cfg, proj32)
        A, c = full_system(cfg, proj32)
        y = lu_solve(lu_factor(A), -c)
        assert abs(st_.a - y[0]) <= 1e-10 * abs(y[0])
        assert np.linalg.norm(st_.sigma - y[1:]) <= 1e-10 * np.linalg.norm(y[1:])

    def test_output_grid_and_initial_state(self):
        # every run starts from rest: the t = 0 state is exactly zero
        cfg = make_config(a=0.5, n_side=4, w=2.0, z0=0.125, Omega=0.05)
        kernel = free_space_kernel(cfg.lattice)
        traj = evolve_full(cfg, kernel, 1.0, 0.3)
        assert np.array_equal([s.t for s in traj], np.linspace(0.0, 1.0, 4))
        assert traj.a[0] == 0.0 and traj.sum_sigma2[0] == 0.0
        assert traj[0].a == 0.0 and not traj[0].sigma.any()
        assert traj[0].sigma.shape == (cfg.lattice.n_sites,)
        assert np.all(np.abs(traj.a[1:]) > 0.0)

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
        # driven from rest, E = |a|^2 + sum |s|^2 obeys
        # dE/dt = -kappa_c |a|^2 - 2 Omega Im a - s^+ (2 Re D) s: under the
        # projected kernel the collective dipole is dark, so what the atoms
        # radiate is at most 1 % of what the drive puts in
        for delta_c, delta in ((0.0, DELTA0), (0.3, DELTA0 + 20.0),
                               (-1.0, DELTA0 + 5.0)):
            cfg = make_config(z0=0.125, delta_c=delta_c, delta=delta,
                              kappa_c=2.0, Omega=0.01, l_fsr=100.0)
            _, inflow, radiated = _energy_balance(cfg, proj32, 2.0, 0.005)
            assert inflow > 0.0
            assert abs(radiated) <= 0.01 * inflow

    def test_free_space_kernel_decays_cooperatively(self, disp):
        # under the free-space kernel the driven cavity-profile dipole
        # radiates at gamma + Gamma: the energy balance's radiated part is
        # (gamma + Gamma) int sum |s|^2 dt
        fs = free_space_kernel(make_config().lattice)
        for delta_c, delta in ((0.0, DELTA0), (0.3, DELTA0 + 20.0),
                               (-1.0, DELTA0 + 5.0)):
            cfg = make_config(z0=0.125, delta_c=delta_c, delta=delta,
                              kappa_c=1.0, Omega=0.01, l_fsr=100.0)
            traj, _, radiated = _energy_balance(cfg, fs, 1.0, 0.005)
            excited = np.trapezoid(traj.sum_sigma2, traj.t)
            assert radiated == pytest.approx((1 + disp.gamma_k) * excited, rel=0.01)

    def test_saturation_warns_once_per_result(self, proj32):
        # a strong drive saturates the dipoles: the trajectory warns once,
        # at the caller, and forming its 201 states warns no more
        cfg = make_config(z0=0.125, Omega=30.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = evolve_full(cfg, proj32, 10.0, 0.05)
        here = self.test_saturation_warns_once_per_result.__code__.co_filename
        assert len(caught) == 1 and "strains" in str(caught[0].message)
        assert caught[0].filename == here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            states = list(traj)
        assert len(states) == 201 and caught == []

    @pytest.mark.parametrize("Omega", [1e308, -1e308])
    def test_overflowing_drive_is_one_convergence_error(self, proj32, Omega):
        # Omega^2 overflows, |Omega| does not: the chain starts from the unit
        # cavity mode, and the overflowing amplitudes raise the amplitude
        # check's error with no numpy warning (not a singular-matrix error)
        cfg = make_config(Omega=Omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite amplitudes"):
                steady_state_full(cfg, proj32)
            with pytest.raises(ConvergenceError, match="non-finite amplitudes"):
                evolve_full(cfg, proj32, 10.0, 0.5)

    def test_subnormal_drive_scales_the_unit_drive(self, proj32):
        # 1/|Omega| overflows at Omega = 1e-320; the chain starts from the
        # unit cavity mode all the same, and the answer is the Omega = 0.01
        # one scaled by 1e-318, to the subnormal spacing
        tiny = np.finfo(float).smallest_subnormal
        ref = make_config(Omega=0.01)
        cfg = make_config(Omega=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve_full(cfg, proj32, 10.0, 0.5)
            st_ = steady_state_full(cfg, proj32)
        want = evolve_full(ref, proj32, 10.0, 0.5)
        assert traj.diagnostics["krylov_m"] == want.diagnostics["krylov_m"]
        assert np.max(np.abs(traj.a)) > 0.0
        assert np.max(np.abs(traj.a - 1e-318 * want.a)) <= 64 * tiny
        assert abs(st_.a - 1e-318 * steady_state_full(ref, proj32).a) <= 64 * tiny

    def test_start_vector_keeps_its_bits(self):
        # the unit start vector is start / beta as numpy divides it wherever
        # beta is normal, and finite where beta is subnormal
        rng = np.random.default_rng(7)
        start = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        for beta in (np.linalg.norm(start), 1e-300, np.finfo(float).tiny, 1e300):
            got = _Krylov(None, start, beta).V[0]
            assert np.array_equal(got.view(float), (start / beta).view(float))
        for beta in (1e-320, np.finfo(float).smallest_subnormal):
            unit = np.array([0.0, -1j * beta, 0.0])
            got = _Krylov(None, unit, beta).V[0]
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - [0.0, -1j, 0.0])) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n_side", [8, 16, 32])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.8])
    def test_generator_is_dissipative(self, a, n_side):
        # the bound of the stopping rule needs the generator's Hermitian part
        # <= 0; the coupling is imaginary and the same in both off-diagonal
        # blocks, so that part is -kappa_c/2 and -Re D:
        # Re <y, A y> = -kappa_c/2 |y_0|^2 - <s, Re D s>
        cfg = make_config(a=a, n_side=n_side)
        kernel = projected_kernels(cfg.lattice, cfg.cavity.z0, cfg.cavity.k_cut_abs)[0]
        apply, _c = _generator(cfg, kernel)
        re_d = dense(kernel).real
        rng = np.random.default_rng(n_side)
        y = rng.standard_normal(n_side**2 + 1) + 1j * rng.standard_normal(n_side**2 + 1)
        s = y[1:]
        want = -cfg.cavity.kappa_c / 2.0 * abs(y[0]) ** 2 - np.vdot(s, re_d @ s).real
        assert abs(np.vdot(y, apply(y)).real - want) <= 1e-13 * np.vdot(y, y).real
        eig = np.linalg.eigvalsh(re_d)
        assert eig[0] >= -1e-13 * eig[-1]

    @pytest.mark.parametrize("t_final", [10.0, 100.0])
    def test_error_bound_holds_along_one_chain(self, proj32, t_final):
        # at every m up to the stop, the bound lies above the readouts'
        # deviation from the chain twice as long, to the readouts' round-off
        cfg = make_config()
        stop = evolve_full(cfg, proj32, t_final, t_final / 200).diagnostics["krylov_m"]
        apply, c = _generator(cfg, proj32)
        krylov = _Krylov(apply, c, abs(cfg.drive.Omega))
        assert krylov.extend(2 * stop) == 2 * stop
        h = t_final / 200
        propagate = _chain_propagation(h, 201)
        readouts = {}
        for m in sorted({*range(1, stop + 1), *range(2, 2 * stop + 1, 2)}):
            z = propagate(krylov.H[:m, :m])
            readouts[m] = (z, z @ krylov.V[:m, 0], np.sum(np.abs(z[:, 1:]) ** 2, axis=1))
        for m in range(1, stop + 1):
            z, a, s2 = readouts[m]
            _z, a_ref, s2_ref = readouts[2 * m]
            bound = _error_bound(krylov, z, lambda x: h * np.sum(np.maximum(x[:-1], x[1:])))
            deviation = max(np.max(np.abs(a - a_ref)) / np.max(np.abs(a_ref)),
                            np.max(np.abs(s2 - s2_ref)) / np.max(s2_ref))
            assert deviation <= bound + 1e-14, m
        assert bound <= KRYLOV_TOL

    @pytest.mark.parametrize("t_final, most", [(10.0, 32), (100.0, 128)])
    def test_chain_stops_below_the_doubling_rule(self, proj32, t_final, most):
        # on the README config the m/2m doubling rule ran to 64 at t 10, and
        # to 128 or 256 at t 100, where its m/2m deviation sat near the
        # tolerance
        traj = evolve_full(make_config(), proj32, t_final, t_final / 200)
        assert traj.diagnostics["krylov_m"] <= most
        assert traj.diagnostics["krylov_error"] <= KRYLOV_TOL

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

