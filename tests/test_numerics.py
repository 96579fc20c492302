import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from arraycav._numerics import (expm, gauss_legendre, integrate_linear,
                                open_convolve, open_convolve_real, output_times,
                                padded_rfft)
from arraycav.cavity_dynamics import _generator, _Krylov
from arraycav.confined import projected_kernels
from arraycav.errors import ConvergenceError
from arraycav.lattice_sums import dispersion_grid
from arraycav.om_dynamics import RTOL, _multimode_rhs, _reduced_rhs
from arraycav.optomech import MechanicalChain, closed_form_params

from conftest import make_config
from dense_reference import box_sum

# 1-norms from well inside theta_13 (no squaring) to 8 squarings
NORMS = (1e-3, 1e-2, 1e-1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3)


def _rel_dev(x, ref):
    return np.linalg.norm(x - ref, 1) / np.linalg.norm(ref, 1)


class TestGaussLegendre:
    """The one Gauss-Legendre rule against mpmath at 30 digits, on both
    seeds: leggauss up to 128 nodes, Tricomi's guesses beyond."""

    @pytest.mark.parametrize("degree", [6, 7])
    def test_nodes_and_weights(self, degree):
        # mpmath's rule of degree m has 3 2^(m - 1) nodes: 96 and 192
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(
                degree, mpmath.mp.prec)
        ref = np.array(sorted((float(x), float(w)) for x, w in ref))
        x, w = gauss_legendre(len(ref))
        assert np.max(np.abs(x - ref[:, 0])) <= 2.3e-16
        assert np.max(np.abs(w - ref[:, 1])) <= 2e-16
        # relative: the end weights carry the conditioning of their nodes
        assert np.max(np.abs(w / ref[:, 1] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [64, 192, 1536])
    def test_integrates_cosines_to_round_off(self, n):
        # numpy's leggauss reaches only ~2e-13 at 1,536 nodes
        mpmath = pytest.importorskip("mpmath")
        x, w = gauss_legendre(n)
        assert gauss_legendre(n) is gauss_legendre(n)          # cached
        assert not x.flags.writeable and not w.flags.writeable
        for omega in (0.0, 1.0, n / 4, n / 2, 3 * n / 4):
            with mpmath.workdps(30):
                exact = float(2 * mpmath.sin(omega) / omega) if omega else 2.0
            assert abs(w @ np.cos(omega * x) - exact) <= 4e-15


class TestExpm:
    """The numpy scaling-and-squaring expm against scipy.linalg.expm, which
    serves as the oracle here only."""

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("n", [9, 33, 65])
    def test_matches_scipy_on_random_matrices(self, n, norm):
        # sizes of the augmented chain matrices (m = 8, 32, 64); the spectrum
        # is shifted into the left half plane, as the dissipative generator's
        # is, so that e^A stays finite at norm 1e3
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A -= np.max(np.linalg.eigvals(A).real) * np.eye(n)
        A *= norm / np.max(np.sum(np.abs(A), axis=0))
        assert _rel_dev(expm(A), scipy.linalg.expm(A)) <= 1e-13

    def test_matches_scipy_on_the_default_chain(self):
        # the augmented (m+1)^2 Hessenberg matrices evolve_full exponentiates
        # at the default config, t_final 10 over 200 output spacings
        cfg = make_config()
        kernel = projected_kernels(cfg.lattice, cfg.cavity.z0, cfg.cavity.k_cut_abs)[0]
        apply, c = _generator(cfg, kernel)
        krylov = _Krylov(apply, c, abs(cfg.drive.Omega))
        h = 10.0 / 200
        for m in (2, 4, 8, 16, 32, 64):
            m = krylov.extend(m)
            aug = np.zeros((m + 1, m + 1), dtype=complex)
            aug[:m, :m] = h * krylov.H[:m, :m]
            aug[0, m] = h
            assert _rel_dev(expm(aug), scipy.linalg.expm(aug)) <= 1e-13

    @pytest.mark.parametrize("norm", NORMS[:-1])
    def test_oscillations_match_closed_form(self, norm):
        # spectral radius = 1-norm, so each scaling is used up to its bound
        # (random matrices have spectra well inside their norm);
        # at norm 1e3 the phases alone carry ~1e-13 of round-off
        w = norm * np.linspace(-1.0, 1.0, 5)
        assert np.max(np.abs(expm(np.diag(1j * w)) - np.diag(np.exp(1j * w)))) <= 1e-13
        c, s = np.cos(norm), np.sin(norm)
        rotation = expm(np.array([[0.0, norm], [-norm, 0.0]]))
        assert np.max(np.abs(rotation - np.array([[c, s], [-s, c]]))) <= 1e-13

    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_real_open_convolution_matches_complex_path(n):
    # one transformed field against a stack of transformed tables
    rng = np.random.default_rng(n)
    tables = rng.standard_normal((3, 2 * n - 1, 2 * n - 1))
    fields = rng.standard_normal((4, n, n))
    got = open_convolve_real(padded_rfft(tables, n)[:, None], padded_rfft(fields, n), n)
    for table, conv in zip(tables, got):
        want = open_convolve(table, fields)
        assert np.max(np.abs(conv - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 128])
def test_box_sum_matches_open_convolution_with_ones(n):
    # the summed-area oracle of om_consistency's folded Z (dense_reference)
    rng = np.random.default_rng(n)
    table = rng.standard_normal((2 * n - 1, 2 * n - 1, 2)) @ np.array([1.0, 1j])
    got = box_sum(table)
    want = open_convolve(table, np.ones((n, n)))
    assert got.shape == want.shape == (n, n)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_integrate_linear_counts_rhs_evaluations():
    calls = []

    def rhs(_t, y):
        calls.append(1)
        return -y

    times, states, rhs_evals = integrate_linear(rhs, [1.0], 2.0, 0.5)
    assert rhs_evals == len(calls) > 0
    assert np.allclose(states[:, 0], np.exp(-times), rtol=1e-8)


def test_integrate_linear_failure_is_a_convergence_error():
    # a NaN right-hand side shrinks the step below the spacing of t; the
    # CLI reports a ConvergenceError as one line and exit 3
    with pytest.raises(ConvergenceError, match="RK45 step size"):
        integrate_linear(lambda _t, y: np.full_like(y, np.nan), [1.0, 0.5j], 1.0, 0.1)


@pytest.fixture(scope="module")
def chain_stack():
    """The m = 2 and m = 4 mechanical-chain couplings side by side, as
    evolve_chain integrates them, at n_side 16."""
    cfg = make_config(a=0.5, n_side=16, w=2.0)
    grid = dispersion_grid(cfg.lattice.a, cfg.lattice.n_side)
    chain = MechanicalChain(cfg, *projected_kernels(cfg.lattice, cfg.cavity.z0,
                                                    cfg.cavity.k_cut_abs), grid)
    C = chain.couplings(4)
    stack = np.zeros((2,) + C.shape, dtype=complex)
    stack[0, :2, :2] = C[:2, :2]
    stack[1] = C
    return grid, stack


class TestRK45MatchesSolveIvp:
    """integrate_linear repeats scipy's solve_ivp(method="RK45"), the oracle
    here only, step for step: the same samples bit for bit and the same
    right-hand-side count."""

    @staticmethod
    def check(rhs, y0, t_final, dt_out):
        times, states, rhs_evals = integrate_linear(rhs, y0, t_final, dt_out, rtol=RTOL)
        sol = solve_ivp(rhs, (0.0, t_final), y0, method="RK45",
                        t_eval=output_times(t_final, dt_out), rtol=RTOL,
                        atol=RTOL * 1e-2)
        assert sol.success
        assert np.array_equal(times, sol.t)
        assert np.array_equal(states, sol.y.T)
        assert rhs_evals == sol.nfev

    @settings(max_examples=8, deadline=None)
    @given(Omega=st.floats(0.002, 0.05), eta=st.floats(0.02, 0.3),
           z0=st.floats(0.02, 0.23), t_final=st.floats(5.0, 120.0))
    def test_reduced_model(self, std_grid, Omega, eta, z0, t_final):
        cfg = make_config(Omega=Omega, eta=eta, z0=z0)
        params = closed_form_params(cfg, std_grid.delta0)
        self.check(_reduced_rhs(cfg, params), np.zeros(2, dtype=complex),
                   t_final, t_final / 200.0)

    @settings(max_examples=6, deadline=None)
    @given(Omega=st.floats(0.002, 0.05), eta=st.floats(0.02, 0.3),
           z0=st.floats(0.02, 0.23), t_final=st.floats(1.0, 15.0))
    def test_stacked_chain(self, chain_stack, Omega, eta, z0, t_final):
        grid, stack = chain_stack
        cfg = make_config(a=0.5, n_side=16, w=2.0, Omega=Omega, eta=eta, z0=z0)
        params = closed_form_params(cfg, grid.delta0)
        y0 = np.zeros(stack.shape[0] * (stack.shape[1] + 1), dtype=complex)
        self.check(_multimode_rhs(cfg, params, stack), y0, t_final, t_final / 200.0)
