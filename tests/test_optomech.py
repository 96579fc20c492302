import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycav.config import LatticeSpec, gamma_plus_Gamma0, validate_regime
from arraycav.confined import (confined_kernel_paraxial, free_space_kernel,
                               projected_kernel, projected_kernels)
from arraycav.errors import RegimeError
from arraycav.greens import Q
from arraycav.lattice_sums import dispersion_grid
from arraycav.om_dynamics import standard_model_report
from arraycav._numerics import padded_shape
from arraycav.optomech import (MechanicalChain, _intensity_factor,
                               closed_form_params, intensity_profile,
                               om_consistency)

from conftest import make_config
from dense_reference import (dense_C, k_sc_ground_state_average, mechanical_basis,
                             trace_C_box_sum, trace_terms_full_index)

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
    """w = 2 lattice with projected kernels and a seeded complete mechanical
    basis (N = 256)."""
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

    @pytest.mark.parametrize("rates", [{}, {"kappa_c": 3.0}, {"Omega": 2.5},
                                       {"omega_m": 1.7}])
    def test_regime_guard_is_the_validate_check(self, rates):
        # the closed forms refuse exactly where validate's large_detuning
        # check fails, on both sides of the threshold ratio MARGIN = 10
        rate = max([gamma_plus_Gamma0(0.5), *rates.values()])
        edge = 10.0 * rate
        for delta in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf),
                      -edge, 0.5 * edge, 2.0 * edge):
            cfg = make_config(delta=float(delta), **rates)
            passed = validate_regime(cfg, Delta=0.0)["large_detuning"].passed
            try:
                closed_form_params(cfg, Delta=0.0)
                raised = False
            except RegimeError:
                raised = True
            assert raised != passed


class TestScalingLaws:
    def config(self, **kw):
        args = dict(z0=0.125, delta=100.0, eta=0.1, l_fsr=100.0)
        args.update(kw)
        return make_config(**args)

    def base(self, **kw):
        return closed_form_params(self.config(**kw), Delta=0.0)

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
        # kappa_sc/g ~ eta gamma/(delta-Delta), as the standard-model report
        # gives it
        def ratio(**kw):
            cfg = self.config(**kw)
            report = standard_model_report(closed_form_params(cfg, Delta=0.0), cfg)
            return report["membrane_in_the_middle"]["kappa_sc_over_g"]

        r1 = ratio(eta=0.1, delta=100.0)
        r2 = ratio(eta=0.2, delta=100.0)
        r3 = ratio(eta=0.1, delta=200.0)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-12)
        assert r3 / r1 == pytest.approx(0.5, rel=1e-12)


class TestMechanicalBasis:
    def test_orthonormal_and_anchored(self):
        lat = LatticeSpec(a=0.5, n_side=16)
        v0 = intensity_profile(lat, 2.0).ravel()
        for n_modes in (None, 40):      # full and thin basis
            b = mechanical_basis(lat, 2.0, completion_seed=0, n_modes=n_modes)
            m = 256 if n_modes is None else n_modes
            assert b.shape == (256, m)
            assert np.max(np.abs(b.T @ b - np.eye(m))) < 1e-10
            assert np.max(np.abs(b[:, 0] - v0)) < 1e-12
        assert np.sum(v0**2) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        lat = LatticeSpec(a=0.5, n_side=8)
        b1 = mechanical_basis(lat, 1.0, completion_seed=42)
        b2 = mechanical_basis(lat, 1.0, completion_seed=42)
        assert np.array_equal(b1, b2)

    @pytest.mark.parametrize("n_side", [16, 31, 45, 256])
    def test_profile_is_the_outer_product_of_its_factor(self, n_side):
        # om_consistency's separable route relies on V0 = v (x) v exactly;
        # the product is the Gaussian e^{-2 r^2/w^2} to a few ulp
        lat = LatticeSpec(a=0.25, n_side=n_side)
        w = n_side * 0.25 / 4.0
        v = _intensity_factor(lat, w)
        v0 = intensity_profile(lat, w)
        assert np.array_equal(v0, np.outer(v, v))
        assert np.array_equal(v, v[::-1])
        X, Y = lat.meshes()
        direct = np.exp(-2.0 * (X**2 + Y**2) / (w * w))
        direct /= np.linalg.norm(direct)
        assert np.max(np.abs(v0 - direct) / direct) <= 8 * np.finfo(float).eps

    def test_continuum_profile_sums(self):
        # discrete sums approach the Gaussian integrals as a/w -> 0
        lat = LatticeSpec(a=0.25, n_side=128)
        v0 = intensity_profile(lat, 8.0)
        assert np.sum(v0) == pytest.approx(np.sqrt(np.pi) * 8.0 / 0.25, rel=0.01)
        assert np.sum(v0**3) == pytest.approx(
            4.0 * 0.25 / (3.0 * np.sqrt(np.pi) * 8.0), rel=0.01)


class TestCouplingMatrices:
    def test_C_eta_squared(self, small_setup, grid16):
        # the chain's modes do not depend on eta; C over them scales as eta^2
        cfg, proj, proj2, _, _ = small_setup
        other = make_config(a=0.5, n_side=16, w=2.0, z0=0.125,
                            delta=cfg.drive.delta, eta=0.2, l_fsr=100.0,
                            omega_m=0.01, kappa_c=0.5, Omega=0.01)
        c1 = MechanicalChain(cfg, proj, proj2, grid16).couplings(16)
        c2 = MechanicalChain(other, proj, proj2, grid16).couplings(16)
        assert c1.shape == (16, 16)
        assert np.max(np.abs(c2 / c1 - 4.0)) < 1e-12

    def test_C_trace_completion_independent(self, small_setup, grid16):
        cfg, proj, proj2, basis, _ = small_setup
        other = mechanical_basis(cfg.lattice, 2.0, completion_seed=99)
        c1 = dense_C(cfg, basis, proj, proj2, grid16)
        c2 = dense_C(cfg, other, proj, proj2, grid16)
        t1, t2 = np.trace(c1), np.trace(c2)
        assert abs(t1 - t2) / abs(t1) < 1e-10
        assert c1[0, 0] == pytest.approx(c2[0, 0], rel=1e-10)

    @pytest.mark.parametrize("n_modes", [32, 96, 256])
    def test_table_transforms_formed_once(self, small_setup, grid16,
                                          monkeypatch, n_modes):
        # the three tables take one padded rfft2 per chain, however long; a
        # chain step takes one padded rfft2, three padded irfft2 and one
        # n x n rfft2/irfft2 pair; no complex transform runs
        cfg, proj, proj2, _, _ = small_setup
        n = cfg.lattice.n_side
        calls = Counter()       # (transform, padded)
        for name in ("rfft2", "irfft2", "fft2", "ifft2"):
            def counting(x, *args, _f=getattr(np.fft, name), _name=name, **kw):
                calls[_name, kw.get("s") not in (None, (n, n))] += 1
                return _f(x, *args, **kw)
            monkeypatch.setattr(np.fft, name, counting)
        steps = len(MechanicalChain(cfg, proj, proj2, grid16).couplings(n_modes))
        assert 1 < steps <= n_modes
        assert calls == {("rfft2", True): 1 + steps, ("irfft2", True): 3 * steps,
                         ("rfft2", False): steps, ("irfft2", False): steps}


class TestDenseReference:
    """The FFT coupling operator against the explicit N x N formulas."""

    @settings(max_examples=12, deadline=None)
    @given(n_side=st.integers(4, 12), a=st.floats(0.2, 1.0, exclude_max=True),
           z0=st.floats(0.0, 0.25), thin=st.floats(0.05, 1.0))
    def test_C_M_and_C00_match(self, n_side, a, z0, thin):
        # C over the first m chain modes, and the trace route's C_00, against
        # the dense formula over the same modes
        grid = dispersion_grid(a, n_side)
        cfg = make_config(a=a, n_side=n_side, w=2.0, z0=z0,
                          delta=grid.delta0 + 200.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
        # the waist the lattice can hold: small lattices get w < 2
        w = n_side * a / 4.0
        cfg = dataclasses.replace(cfg, cavity=dataclasses.replace(cfg.cavity, w=w))
        k_cut = 0.5 * Q
        lat = cfg.lattice
        proj = projected_kernel(free_space_kernel(lat),
                                confined_kernel_paraxial(lat, z0, k_cut))
        proj2 = projected_kernel(free_space_kernel(lat, 2),
                                 confined_kernel_paraxial(lat, z0, k_cut, 2))
        chain = MechanicalChain(cfg, proj, proj2, grid)
        C = chain.couplings(max(1, int(thin * lat.n_sites)))
        ref = dense_C(cfg, chain.modes(len(C)), proj, proj2, grid)
        assert np.max(np.abs(C - ref)) <= 1e-12 * np.max(np.abs(ref))
        c00 = om_consistency(cfg, grid, k_cut_abs=k_cut).C00
        assert abs(c00 - C[0, 0]) <= 1e-12 * np.max(np.abs(ref))


class TestConsistencyRoutes:
    def test_explicit_matches_completeness(self, small_setup, grid16):
        # the traces read off an explicit C over the full basis against the
        # completeness route
        cfg, proj, proj2, basis, k_cut = small_setup
        C = dense_C(cfg, basis, proj, proj2, grid16)
        trace_c, c00 = complex(np.trace(C)), complex(C[0, 0])
        rc = om_consistency(cfg, grid16, k_cut_abs=k_cut)
        assert -2.0 * (trace_c.real - c00.real) == \
            pytest.approx(rc.kappa_sc_trace, rel=1e-9)
        assert -2.0 * c00.real == pytest.approx(rc.kappa_2, rel=1e-6, abs=1e-18)
        assert -c00.imag == pytest.approx(rc.g2_trace, rel=1e-9)
        assert -(trace_c.imag - c00.imag) == pytest.approx(rc.Delta_sc, rel=1e-9)

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

    def test_one_bessel_pass_per_call(self, small_setup, grid16, monkeypatch):
        # D_c and its d2z share one J0 pass, one evaluation per (Chebyshev
        # point of a panel, node) pair
        from arraycav import confined
        j0, shapes = confined.j0, []

        def counting_j0(x):
            shapes.append(x.shape)
            return j0(x)

        monkeypatch.setattr(confined, "j0", counting_j0)
        cfg, _, _, _, k_cut = small_setup
        diag = om_consistency(cfg, grid16, k_cut_abs=k_cut).diagnostics
        nodes, radii = diag["confined_nodes"], diag["distinct_radii"]
        assert shapes == [(diag["chebyshev_panels"] * (diag["chebyshev_degree"] + 1),
                           nodes)]
        assert diag["chebyshev_tail"] < 1e-13
        # the lattice sums run over the octant 0 <= j <= i < 16
        assert diag["octant_offsets"] == 16 * 17 // 2 >= radii
        assert diag["dispersion_residual"] == grid16.residual

    def test_mismatched_grid_rejected(self, small_setup):
        cfg, _, _, _, _ = small_setup
        with pytest.raises(ValueError, match="grid"):
            om_consistency(cfg, dispersion_grid(0.5, 8))


class TestTraceEngine:
    """om_consistency's quadratic forms on radial profiles against the table
    routes: C_00 from K_c applied to V0 (the chain's first step), and the trace
    with Z as the box sum of the (2n-1, 2n-1) product table; and its octant
    sums against the same forms over every displacement."""

    @pytest.mark.parametrize("n_side", [16, 31, 32, 45, 64])
    def test_octant_matches_the_full_index(self, n_side):
        # the settled rule: C_00's real part (kappa_2) absolutely against
        # kappa_sc_closed, its imaginary part (the g2 residue) against
        # g2_closed, the trace relative, all to 1e-13
        a = 0.5
        grid = dispersion_grid(a, n_side)
        w = n_side * a / 4.0
        cfg = make_config(a=a, n_side=n_side, w=w, z0=0.07,
                          delta=grid.delta0 + 100.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
        rep = om_consistency(cfg, grid, k_cut_abs=4.0 / w)
        trace, c00 = trace_terms_full_index(cfg, grid, 4.0 / w)
        assert abs(rep.trace_C - trace) <= 1e-13 * abs(trace)
        assert abs(rep.kappa_2 + 2.0 * c00.real) <= 1e-13 * rep.kappa_sc_closed
        assert abs(rep.g2_trace + c00.imag) <= 1e-13 * rep.g2_closed

    @settings(max_examples=25, deadline=None)
    @given(n_side=st.integers(2, 40), a=st.floats(0.2, 1.0, exclude_max=True),
           z0=st.floats(0.0, 0.25), k_cut=st.floats(0.05, 0.95))
    def test_C00_and_Z_match_the_table_routes(self, n_side, a, z0, k_cut):
        grid = dispersion_grid(a, n_side)
        cfg = make_config(a=a, n_side=n_side, w=2.0, z0=z0,
                          delta=grid.delta0 + 200.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
        w = n_side * a / 4.0
        cfg = dataclasses.replace(cfg, cavity=dataclasses.replace(cfg.cavity, w=w))
        k_cut_abs = k_cut * Q
        rep = om_consistency(cfg, grid, k_cut_abs=k_cut_abs)
        v0 = intensity_profile(cfg.lattice, w)
        c00 = MechanicalChain(cfg, *projected_kernels(cfg.lattice, z0, k_cut_abs),
                              grid).couplings(1)[0, 0]
        # C_00's terms cancel (kappa_2 = -2 Re C_00 vanishes analytically, and
        # Im C_00 ~ cos^2 - sin^2 at the profile scale), so its deviation is
        # bounded by the operand scale eta^2 gbar sum f^2, f = sqrt(V0) V0
        operand = cfg.trap.eta**2 * closed_form_params(cfg, grid.delta0).g_bar \
            * np.sum(v0**3)
        assert abs(rep.C00 - c00) <= 1e-13 * operand
        assert abs(rep.kappa_2 + 2.0 * c00.real) <= 1e-13 * rep.kappa_sc_closed
        trace = trace_C_box_sum(cfg, grid, k_cut_abs)
        assert abs(rep.trace_C - trace) <= 1e-13 * abs(trace)

    def test_no_table_transform(self, small_setup, grid16, monkeypatch):
        # no 2-D transform on the padded grid and no table transformed: one
        # n x n real inverse (p2 and P2 f, stacked), the length-n fft of u,
        # and 1-D transforms of the padded length: u's pair and two batched
        # passes of n rows each (P2 f correlated with u along each axis)
        cfg, _, _, _, k_cut = small_setup
        n = cfg.lattice.n_side
        nf = padded_shape(n)[0]
        calls = []
        for name in ("fft", "rfft", "irfft", "ifft", "fft2", "ifft2", "rfft2",
                     "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
            def counting(x, *args, _f=getattr(np.fft, name), _name=name, **kw):
                x = np.asarray(x)
                if _name.endswith("2") or _name.endswith("n"):
                    calls.append((_name, int(np.prod(x.shape[:-2])), kw.get("s")))
                else:
                    length = args[0] if args else kw.get("n", x.shape[-1])
                    calls.append((_name, int(np.prod(x.shape[:-1])), length))
                return _f(x, *args, **kw)
            monkeypatch.setattr(np.fft, name, counting)
        om_consistency(cfg, grid16, k_cut_abs=k_cut)
        assert sorted(calls) == sorted([
            ("irfft2", 2, (n, n)), ("fft", 1, n),
            ("rfft", 1, nf), ("irfft", 1, nf),
            ("rfft", n, nf), ("irfft", n, nf), ("rfft", n, nf), ("irfft", n, nf)])

    def test_memory_at_acceptance_scale(self):
        # no displacement-table transform: the peak is a few padded-grid
        # arrays and the radius index (the table route peaked at 37 MB)
        import tracemalloc
        grid = dispersion_grid(0.25, 256)
        cfg = make_config(a=0.25, n_side=256, w=8.0, z0=0.1,
                          delta=grid.delta0 + 100.0, kappa_c=0.5)
        tracemalloc.start()
        try:
            om_consistency(cfg, grid, k_cut_abs=0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20


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
