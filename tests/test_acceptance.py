"""Acceptance suite: closed-form reproduction and cross-route consistency.

Each test prints one PASS/FAIL line (run with -s to see them inline).  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from arraycav.config import LatticeSpec, gamma_plus_Gamma0
from arraycav.cavity_dynamics import (evolve_full, steady_state_full,
                                      steady_state_two_mode, TwoModeModel)
from arraycav.confined import (cavity_profile, confined_kernel_paraxial,
                               free_space_kernel, mode_decay_rate,
                               projected_kernel)
from arraycav.greens import GAMMA, Q, kernel_fs_d2z
from arraycav.lattice_sums import dispersion_grid, dispersion_point
from arraycav.om_dynamics import evolve_reduced
from arraycav.optomech import (closed_form_params, intensity_profile,
                               om_consistency)

from conftest import make_config
from dense_reference import (bare_cavity_amplitude, dense_C, energy_functional,
                             evolve_multimode, full_system, mechanical_basis)
from lattice_reference import damped_lattice_sum


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------- 1
@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_criterion_1_cooperative_decay_closed_form(a):
    closed = gamma_plus_Gamma0(a)
    t0 = time.perf_counter()
    pt = dispersion_point((0.0, 0.0), a)
    dt = time.perf_counter() - t0
    ref, _ = damped_lattice_sum((0.0, 0.0), a)
    dev_gamma = abs(pt.gamma_k + GAMMA - closed) / closed
    dev_ref = abs(2.0 * ref.real + GAMMA - closed)
    dev_delta = abs(pt.delta_k - ref.imag)
    ok = dev_gamma <= 1e-12 and dev_ref <= 1e-3 and dev_delta <= 5e-3 and dt < 1.0
    report(1, ok, f"a={a}: Gamma0+gamma Ewald dev {dev_gamma:.1e} (<=1e-12), "
                  f"damped real-space dev {dev_ref:.1e} gamma (<=1e-3); "
                  f"Delta0 Ewald vs real-space {dev_delta:.1e} gamma (<=5e-3); "
                  f"{dt:.2f} s (<1 s)")


# ---------------------------------------------------------------------- 2
def test_criterion_2_derivative_limits():
    import mpmath as mp
    mp.mp.dps = 40
    t0 = time.perf_counter()

    def re_d2(rho):
        x = 2 * mp.pi * rho
        val = mp.mpf(3) / 8 * (x**3 - 2j * x**2 + 9 * x + 9j) \
            * mp.e**(1j * x) / x**5 * (2 * mp.pi) ** 2
        return mp.re(val)

    vals = [re_d2(mp.mpf(10) ** -3 / 2**k) for k in range(4)]
    for _ in range(3):
        vals = [(4 * b - a) / 3 for a, b in zip(vals, vals[1:])]
    limit = float(vals[0])
    target = -Q * Q * GAMMA / 5.0
    dev1 = abs(limit - target) / abs(target)
    impl = kernel_fs_d2z((0.0, 0.0))
    dev_impl = abs(impl.real - target) / abs(target)
    tensor = 4.0 / (3.0 * Q * Q) * limit
    dev2 = abs(tensor + 4.0 / 15.0) / (4.0 / 15.0)
    dt = time.perf_counter() - t0
    ok = dev1 <= 1e-8 and dev2 <= 1e-8 and dev_impl <= 1e-12 and dt < 1.0
    report(2, ok, f"Re[d2z D]|0 -> -q^2/5 dev {dev1:.1e}, tensor limit -4/15 "
                  f"dev {dev2:.1e} (<=1e-8), implementation dev {dev_impl:.1e}, "
                  f"{dt:.2f} s (<1 s)")


# ---------------------------------------------------------------------- 3
def test_criterion_3_cavity_profile_darkness():
    t0 = time.perf_counter()
    a = 0.5
    closed = gamma_plus_Gamma0(a)
    # primary check at the stated scale: w = 4, n_side = 32, k_cut = 4/w
    lat = LatticeSpec(a=a, n_side=32)
    proj = projected_kernel(free_space_kernel(lat),
                            confined_kernel_paraxial(lat, 0.125, 4.0 / 4.0))
    frac = mode_decay_rate(cavity_profile(lat, 4.0), proj) / closed
    # monotonicity in w with the profile converged on the lattice (extent 8w)
    rates = {}
    for w in (2.0, 4.0, 8.0):
        n = int(round(8 * w / a))
        big = LatticeSpec(a=a, n_side=n)
        big_proj = projected_kernel(free_space_kernel(big),
                                    confined_kernel_paraxial(big, 0.125, 4.0 / w))
        rates[w] = mode_decay_rate(cavity_profile(big, w), big_proj)
    mono = rates[2.0] > rates[4.0] > rates[8.0]
    dt = time.perf_counter() - t0
    ok = frac <= 0.02 and mono and dt < 30.0
    report(3, ok, f"cavity-profile decay {frac:.2e} of gamma+Gamma (<=0.02); "
                  f"monotone over w=2,4,8: {rates[2.0]:.3e} > {rates[4.0]:.3e} "
                  f"> {rates[8.0]:.3e} = {mono}; {dt:.1f} s (<30 s)")


# ---------------------------------------------------------------------- 4
def test_criterion_4_dark_state():
    t0 = time.perf_counter()
    # exact dark state of the two-oscillator model
    model = TwoModeModel(g_eff=5.0, delta_c=0.3, delta_minus_Delta=0.0,
                         kappa_c=1.0, Omega=0.01)
    st = steady_state_two_mode(model)
    two_mode_exact = st.a == 0.0
    # full N-atom model pinned to |a| <= 1e-3 |a_bare| at w = 4
    delta0 = 0.4003319962564511
    cfg = make_config(a=0.5, n_side=32, w=4.0, z0=0.125, delta_c=0.3,
                      delta=delta0, kappa_c=1.0, Omega=0.01, l_fsr=100.0)
    proj = projected_kernel(
        free_space_kernel(cfg.lattice),
        confined_kernel_paraxial(cfg.lattice, 0.125, cfg.cavity.k_cut_abs))
    ratio = abs(steady_state_full(cfg, proj).a) / abs(bare_cavity_amplitude(cfg))
    # integrator vs matrix-exponential oracle at N = 16
    from scipy.linalg import expm
    cfg16 = make_config(a=0.5, n_side=4, w=2.0, z0=0.125, delta_c=0.2,
                        delta=3.7, kappa_c=0.8, Omega=0.05, l_fsr=20.0)
    kernel = free_space_kernel(cfg16.lattice)
    A, c = full_system(cfg16, kernel)
    states = evolve_full(cfg16, kernel, 2.0, 0.5)
    ainv_c = np.linalg.solve(A, c)
    exact = expm(A * 2.0) @ ainv_c - ainv_c
    got = np.concatenate([[states[-1].a], states[-1].sigma])
    oracle_dev = np.linalg.norm(got - exact) / np.linalg.norm(exact)
    dt = time.perf_counter() - t0
    ok = two_mode_exact and ratio <= 1e-3 and oracle_dev <= 1e-8 and dt < 60.0
    report(4, ok, f"two-mode a = 0 exactly: {two_mode_exact}; full-model "
                  f"|a|/|a_bare| = {ratio:.1e} (<=1e-3); expm oracle dev "
                  f"{oracle_dev:.1e} (<=1e-8); {dt:.1f} s (<60 s)")


# ------------------------------------------------------------------- 5, 6
@pytest.fixture(scope="module")
def consistency_128():
    """Trace-route consistency at w = 8, a = 0.25, n_side = 128."""
    grid = dispersion_grid(0.25, 128)
    out = {}
    for tag, z0 in (("qz0_pi4", 0.125), ("qz0_0", 0.0)):
        t0 = time.perf_counter()
        cfg = make_config(a=0.25, n_side=128, w=8.0, z0=z0,
                          delta=grid.delta0 + 100.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
        rep = om_consistency(cfg, grid, k_cut_abs=6.0 / 8.0)
        out[tag] = (cfg, rep, time.perf_counter() - t0)
    return out


def test_criterion_5_kappa_sc_consistency(consistency_128):
    cfg, rep, dt = consistency_128["qz0_pi4"]
    dev = rep.kappa_rel_dev()
    frac2 = rep.kappa2_fraction()
    ok = dev <= 0.10 and frac2 <= 0.05 and dt < 300.0
    report(5, ok, f"kappa_sc trace {rep.kappa_sc_trace:.4e} vs closed "
                  f"{rep.kappa_sc_closed:.4e}: dev {dev:.3f} (<=0.10); "
                  f"|kappa_2|/kappa_sc = {frac2:.1e} (<=0.05); "
                  f"{dt:.1f} s (<300 s)")


def test_criterion_6_g2_consistency(consistency_128):
    cfg, rep, dt = consistency_128["qz0_0"]
    dev = abs(rep.g2_trace - rep.g2_closed) / rep.g2_closed
    ok = dev <= 0.03 and dt < 300.0
    report(6, ok, f"-Im[C00] = {rep.g2_trace:.5e} vs closed g2 = "
                  f"{rep.g2_closed:.5e} at sin(qz0)=0: dev {dev:.4f} (<=0.03); "
                  f"{dt:.1f} s")


# ---------------------------------------------------------------------- 7
def test_criterion_7_scaling_laws(consistency_128):
    def params(**kw):
        args = dict(z0=0.125, delta=100.0, eta=0.1, l_fsr=100.0)
        args.update(kw)
        return closed_form_params(make_config(**args), Delta=0.0)

    base = params()
    checks = {
        "g ~ eta": params(eta=0.2).g / base.g / 2.0,
        "kappa_sc ~ eta^2": params(eta=0.2).kappa_sc / base.kappa_sc / 4.0,
        "g2 ~ eta^2": params(eta=0.2).g2 / base.g2 / 4.0,
        "kappa_sc ~ 1/det^2": base.kappa_sc / params(delta=200.0).kappa_sc / 4.0,
        "kappa_sc/g ~ eta/det":
            (params(eta=0.2).kappa_sc / params(eta=0.2).g)
            / (base.kappa_sc / base.g) / 2.0,
    }
    closed_ok = all(abs(v - 1.0) <= 1e-6 for v in checks.values())
    # numerical-trace versions: eta ratio on the n = 128 report plus a
    # detuning rescan at small scale
    grid = dispersion_grid(0.25, 128)
    cfg, rep, _ = consistency_128["qz0_pi4"]
    cfg_half = make_config(a=0.25, n_side=128, w=8.0, z0=0.125,
                           delta=grid.delta0 + 100.0, eta=0.05, l_fsr=100.0,
                           omega_m=0.01, kappa_c=0.5, Omega=0.01)
    rep_half = om_consistency(cfg_half, grid, k_cut_abs=0.75)
    eta_ratio = rep.kappa_sc_trace / rep_half.kappa_sc_trace
    cfg_det = make_config(a=0.25, n_side=128, w=8.0, z0=0.125,
                          delta=grid.delta0 + 200.0, eta=0.1, l_fsr=100.0,
                          omega_m=0.01, kappa_c=0.5, Omega=0.01)
    rep_det = om_consistency(cfg_det, grid, k_cut_abs=0.75)
    det_ratio = rep.kappa_sc_trace / rep_det.kappa_sc_trace
    trace_ok = abs(eta_ratio - 4.0) <= 1e-6 and abs(det_ratio - 4.0) <= 0.4
    ok = closed_ok and trace_ok
    report(7, ok, "closed-form ratios "
           + ", ".join(f"{k}: {v:.8f}" for k, v in checks.items())
           + f" (each within 1e-6); trace eta-ratio {eta_ratio:.6f} "
           f"(4 +- 1e-6), trace detuning-ratio {det_ratio:.3f} (4 +- 10%)")


# ---------------------------------------------------------------------- 8
def test_criterion_8_profile_continuum_sums():
    lat = LatticeSpec(a=0.25, n_side=128)
    v0 = intensity_profile(lat, 8.0)
    s1 = float(np.sum(v0))
    s3 = float(np.sum(v0**3))
    t1 = np.sqrt(np.pi) * 8.0 / 0.25
    t3 = 4.0 * 0.25 / (3.0 * np.sqrt(np.pi) * 8.0)
    d1 = abs(s1 - t1) / t1
    d3 = abs(s3 - t3) / t3
    ok = d1 <= 0.01 and d3 <= 0.01
    report(8, ok, f"sum V0 = {s1:.4f} vs sqrt(pi) w/a = {t1:.4f} "
                  f"(dev {d1:.1e}); sum V0^3 = {s3:.6f} vs 4a/(3 sqrt(pi) w) "
                  f"= {t3:.6f} (dev {d3:.1e}); both <=1%")


# ---------------------------------------------------------------------- 9
def test_criterion_9_reduction_fidelity():
    t0 = time.perf_counter()
    grid = dispersion_grid(0.5, 16)

    def build(eta, **kw):
        args = dict(a=0.5, n_side=16, w=2.0, z0=0.125,
                    delta=grid.delta0 + 100.0, omega_m=0.02, kappa_c=0.5,
                    Omega=0.02, delta_c=0.0, eta=eta, l_fsr=100.0)
        args.update(kw)
        cfg = make_config(**args)
        proj = projected_kernel(free_space_kernel(cfg.lattice),
                                confined_kernel_paraxial(cfg.lattice, 0.125, 3.0))
        proj2 = projected_kernel(
            free_space_kernel(cfg.lattice, derivative=2),
            confined_kernel_paraxial(cfg.lattice, 0.125, 3.0, derivative=2))
        C = dense_C(cfg, mechanical_basis(cfg.lattice, 2.0, 0), proj, proj2, grid)
        return cfg, closed_form_params(cfg, grid.delta0), C

    devs = {}
    for eta in (0.1, 0.05):
        cfg, params, C = build(eta)
        mm = evolve_multimode(cfg, params, C, 100.0, 1.0)
        red = evolve_reduced(cfg, params, 100.0, 1.0)
        devs[eta] = max(abs(m.a - r.a) for m, r in zip(mm, red))
    shrink = devs[0.1] / devs[0.05]
    # conservative-part energy audit
    cfg, params, C = build(0.1, kappa_c=0.0, Omega=0.0)
    ch = 1j * 0.5 * (C.imag + C.imag.T)     # conservative part: i Im_s[C]
    b0 = np.zeros(C.shape[0], dtype=complex)
    b0[0], b0[5] = 0.3, 0.2j
    states = evolve_multimode(cfg, params, ch, 50.0, 0.05,
                              a0=0.5 + 0.1j, b0=b0, rtol=1e-11)
    energies = [energy_functional(s, cfg, params, C) for s in states]
    drift = (max(energies) - min(energies)) / abs(energies[0])
    dt = time.perf_counter() - t0
    ok = shrink >= 3.5 and drift <= 1e-8 and len(energies) >= 1000 and dt < 120.0
    report(9, ok, f"reduced-vs-multimode deviation shrinks x{shrink:.3f} when "
                  f"eta halves (>=3.5); energy drift {drift:.1e} over "
                  f"{len(energies)} steps (<=1e-8); {dt:.1f} s (<120 s)")


# --------------------------------------------------------------------- 10
def test_criterion_10_subradiance_band():
    a = 0.4
    devs, devs_ref = [], []
    for frac in (1.1, 1.25, 1.4):
        k = (frac * Q, 0.0)
        devs.append(abs(dispersion_point(k, a).gamma_k + GAMMA))
        ref, _ = damped_lattice_sum(k, a)
        devs_ref.append(abs(2.0 * ref.real + GAMMA))
    ok = max(devs) == 0.0 and max(devs_ref) <= 1e-2
    report(10, ok, f"Gamma_k + gamma inside q < |k| < 2 pi/a - q at a = 0.4: "
                   f"Ewald exactly 0 (max {max(devs):.1e}), "
                   f"damped real-space max {max(devs_ref):.1e} (<=1e-2)")
