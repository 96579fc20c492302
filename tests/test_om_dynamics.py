import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycav.confined import (confined_kernel_paraxial, free_space_kernel,
                               projected_kernel)
from arraycav.lattice_sums import dispersion_grid
from arraycav.om_dynamics import (CHAIN_TOL, evolve_chain, evolve_reduced,
                                  standard_model_report)
from arraycav.optomech import (MechanicalChain, closed_form_params,
                               intensity_profile)

from conftest import make_config
from dense_reference import (dense_C, energy_functional, evolve_multimode,
                             mechanical_basis)

K_CUT = 3.0      # absolute cutoff for the w = 2 test lattice


@pytest.fixture(scope="module")
def grid16():
    return dispersion_grid(0.5, 16)


def build_setup(grid, eta=0.1, **kw):
    args = dict(a=0.5, n_side=16, w=2.0, z0=0.125, delta=grid.delta0 + 100.0,
                omega_m=0.02, kappa_c=0.5, Omega=0.02, delta_c=0.0,
                eta=eta, l_fsr=100.0)
    args.update(kw)
    cfg = make_config(**args)
    C = dense_C(cfg, mechanical_basis(cfg.lattice, 2.0, 0), *kernels(cfg), grid)
    params = closed_form_params(cfg, grid.delta0)
    return cfg, params, C


def kernels(cfg):
    """The projected kernel pair (D, D'') at the test cutoff."""
    return tuple(projected_kernel(free_space_kernel(cfg.lattice, derivative=d),
                                  confined_kernel_paraxial(cfg.lattice, cfg.cavity.z0,
                                                           K_CUT, derivative=d))
                 for d in (0, 2))


class TestMultimode:
    def test_decoupled_cavity_relaxes_to_lorentzian(self, grid16):
        # g = 0 at a field node; C switched off by hand
        cfg, params, C = build_setup(grid16, z0=0.0)
        C0 = np.zeros((9, 9), dtype=complex)
        states = evolve_multimode(cfg, params, C0, 80.0, 0.5)
        expect = -1j * cfg.drive.Omega / (cfg.cavity.kappa_c / 2.0
                                          - 1j * (cfg.drive.delta_c - params.Delta_AC))
        assert states[-1].a == pytest.approx(expect, rel=1e-6)
        assert np.max(np.abs(states[-1].b)) < 1e-12

    def test_free_mechanical_precession(self, grid16):
        cfg, params, C = build_setup(grid16, Omega=0.0)
        b0 = np.zeros(C.shape[0], dtype=complex)
        b0[0], b0[3], b0[7] = 0.2, 0.1j, -0.05
        states = evolve_multimode(cfg, params, C, 30.0, 0.5, a0=0.0, b0=b0)
        for s in states:
            expect = b0 * np.exp(-1j * cfg.trap.omega_m * s.t)
            assert np.max(np.abs(s.b - expect)) < 1e-9
            assert s.a == 0.0

    def test_energy_conservation(self, grid16):
        # kappa = Omega = 0 with the conservative (Hamiltonian) coupling only
        cfg, params, C = build_setup(grid16, kappa_c=0.0, Omega=0.0)
        ch = 1j * 0.5 * (C.imag + C.imag.T)     # conservative part: i Im_s[C]
        b0 = np.zeros(C.shape[0], dtype=complex)
        b0[0], b0[5] = 0.3, 0.2j
        states = evolve_multimode(cfg, params, ch, 50.0, 0.05,
                                  a0=0.5 + 0.1j, b0=b0, rtol=1e-11)
        energies = [energy_functional(s, cfg, params, C) for s in states]
        drift = (max(energies) - min(energies)) / abs(energies[0])
        assert len(energies) >= 1000
        assert drift < 1e-8


class TestChain:
    def test_modes_orthonormal_and_im_c_tridiagonal(self, grid16):
        # Lanczos on the real symmetric site operator behind Im C from V0
        cfg, _, _ = build_setup(grid16)
        chain = MechanicalChain(cfg, *kernels(cfg), grid16)
        V = chain.modes(8)
        assert V.shape == (256, 8) and not chain.invariant
        assert np.max(np.abs(V.T @ V - np.eye(8))) < 1e-12
        v0 = intensity_profile(cfg.lattice, 2.0).ravel()
        assert np.max(np.abs(V[:, 0] - v0)) < 1e-15
        im_c = chain.couplings(8).imag
        off = np.abs(np.subtract.outer(np.arange(8), np.arange(8))) > 1
        assert np.max(np.abs(im_c[off])) < 1e-12 * np.max(np.abs(im_c))
        assert np.min(np.abs(np.diag(im_c, 1))) > 1e-3 * np.max(np.abs(im_c))

    def test_couplings_match_explicit_formula(self, grid16):
        # C from the chain's own steps (Im C = eta^2 gbar H, Re C from the
        # kept Re K_c fields) is the dense formula over the chain modes
        cfg, _, _ = build_setup(grid16)
        chain = MechanicalChain(cfg, *kernels(cfg), grid16)
        got = chain.couplings(8)
        ref = dense_C(cfg, chain.modes(8), *kernels(cfg), grid16)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(chain.couplings(4), got[:4, :4])

    def test_memory_limit_is_not_agreement(self, grid16, monkeypatch):
        # a chain held to 2 modes cannot double again: the last pair (1, 2)
        # is reported, not a 2-against-2 run that agrees trivially
        from arraycav import cavity_dynamics
        monkeypatch.setattr(cavity_dynamics, "KRYLOV_MAX_BYTES", 16 * 256 * 3)
        cfg, params, _ = build_setup(grid16, eta=0.3, z0=0.06, Omega=3.0)
        chain = MechanicalChain(cfg, *kernels(cfg), grid16)
        assert chain.max_modes == 2
        got = evolve_chain(cfg, params, chain, 10.0, 0.05).diagnostics
        assert got["chain_m"] == 2 and not got["chain_converged"]
        assert got["chain_deviation"] > CHAIN_TOL

    @settings(max_examples=4, deadline=None)
    @given(z0=st.sampled_from([0.0, 0.06, 0.125, 0.2]),
           Omega=st.floats(1.0, 3.0))
    def test_chain_matches_complete_basis(self, grid16, z0, Omega):
        # strong drive: the chain needs up to 16 of the 256 modes; from rest
        # it reproduces the complete basis to the stop rule's tolerance
        cfg, params, C = build_setup(grid16, eta=0.3, z0=z0, Omega=Omega)
        chain = MechanicalChain(cfg, *kernels(cfg), grid16)
        got = evolve_chain(cfg, params, chain, 50.0, 0.25)
        ref = evolve_multimode(cfg, params, C, 50.0, 0.25)
        assert got.diagnostics["chain_deviation"] <= CHAIN_TOL
        for part in (lambda s: s.a, lambda s: s.b[0]):
            x = np.array([part(s) for s in got])
            y = np.array([part(s) for s in ref])
            assert np.max(np.abs(x - y)) <= 1e-8 * np.max(np.abs(y))


class TestReduced:
    def test_bare_cavity_total_damping(self, grid16):
        # g = g2 = 0 at an antinode: pure cavity with kappa_c + kappa_sc
        cfg, params, _ = build_setup(grid16, z0=0.25)
        assert params.g == pytest.approx(0.0, abs=1e-17)
        states = evolve_reduced(cfg, params, 110.0, 1.0)
        kappa = cfg.cavity.kappa_c + params.kappa_sc
        expect = -1j * cfg.drive.Omega / (kappa / 2.0
                                          - 1j * (cfg.drive.delta_c - params.Delta_AC))
        assert states[-1].a == pytest.approx(expect, rel=1e-8)

    def test_adiabatic_spring_displacement(self, grid16):
        # stiff mechanics: b tracks -g |a|^2 / omega_m
        cfg, params, _ = build_setup(grid16, omega_m=2.0, Omega=0.05)
        states = evolve_reduced(cfg, params, 120.0, 0.25)
        a_inf = states[-1].a
        b_inf = np.mean([s.b[0] for s in states[-80:]])
        assert b_inf.real == pytest.approx(-params.g * abs(a_inf) ** 2 / 2.0,
                                           rel=0.02)

    def test_reduction_error_scales_as_eta_squared(self, grid16):
        devs = {}
        for eta in (0.1, 0.05):
            cfg, params, C = build_setup(grid16, eta=eta)
            mm = evolve_multimode(cfg, params, C, 100.0, 1.0)
            red = evolve_reduced(cfg, params, 100.0, 1.0)
            devs[eta] = max(abs(m.a - r.a) for m, r in zip(mm, red))
        assert devs[0.1] / devs[0.05] >= 3.5

    def test_linear_response_matches_two_mode_spectrum(self, grid16):
        # weak drive: reduced steady state = static two-oscillator spectrum
        # with the detuning shifted by Delta_AC
        from arraycav.cavity_dynamics import (TwoModeModel,
                                              steady_state_two_mode)
        cfg, params, _ = build_setup(grid16, Omega=0.001, kappa_c=1.0)
        for dc in (-0.6, -0.2, 0.3, 0.8):
            cfg_dc = make_config(a=0.5, n_side=16, w=2.0, z0=0.125,
                                 delta=grid16.delta0 + 100.0, omega_m=0.02,
                                 kappa_c=1.0, Omega=0.001, delta_c=dc,
                                 eta=0.1, l_fsr=100.0)
            states = evolve_reduced(cfg_dc, params, 80.0, 2.0)
            assert max(abs(s.b[0]) for s in states) < 1e-3
            model = TwoModeModel(g_eff=params.g_eff, delta_c=dc,
                                 delta_minus_Delta=100.0, kappa_c=1.0,
                                 Omega=0.001)
            static = steady_state_two_mode(model)
            assert abs(states[-1].a) ** 2 == pytest.approx(abs(static.a) ** 2,
                                                           rel=0.01)

    def test_determinism(self, grid16):
        cfg, params, C = build_setup(grid16)
        r1 = evolve_multimode(cfg, params, C, 20.0, 0.5)
        r2 = evolve_multimode(cfg, params, C, 20.0, 0.5)
        assert all(s1.a == s2.a and np.array_equal(s1.b, s2.b)
                   for s1, s2 in zip(r1, r2))


class TestStandardModelReport:
    def test_kappa_is_total(self, grid16):
        cfg, params, _ = build_setup(grid16)
        rep = standard_model_report(params, cfg)
        assert rep["kappa"] == cfg.cavity.kappa_c + params.kappa_sc

    def test_noise_contract_rate_equals_kappa(self, grid16):
        cfg, params, _ = build_setup(grid16)
        rep = standard_model_report(params, cfg)
        assert rep["noise_contract"]["F_total"]["rate"] == rep["kappa"]
        assert rep["noise_contract"]["F_total"]["delta_correlated"] is True

    def test_membrane_figure_of_merit(self, grid16):
        cfg, params, _ = build_setup(grid16)
        rep = standard_model_report(params, cfg)
        expect = (params.eta * np.sqrt(params.N_a) * (1.0 / 100.0)
                  * params.epsilon / (6.0 * np.sin(2 * cfg.qz0)))
        assert rep["membrane_in_the_middle"]["kappa_sc_over_g"] == \
            pytest.approx(expect, rel=1e-12)
