"""Mean-field optomechanical dynamics: multimode and reduced single-mode models.

Multimode (amplitudes a, b_nu; noise dropped at mean-value level):

    da/dt    = [i(delta_c - D_AC) - kappa_c/2] a - i g (b_0 + b_0*) a
               + sum_{nu nu'} C_{nu nu'} (b_nu + b_nu*)(b_nu' + b_nu'*) a - i Omega
    db_nu/dt = -i omega_m b_nu - i g delta_{nu 0} |a|^2
               + 2 i sum_{nu'} Im[C_{nu nu'}] (b_nu' + b_nu'*) |a|^2

Reduced single mode (the nu != 0 modes eliminated as weakly coupled reservoir):

    da/dt = [i(delta_c - D_AC) - (kappa_c + kappa_sc)/2] a - i g (b + b*) a
            - i g2 (b + b*)^2 a - i Omega
    db/dt = -i omega_m b - i g |a|^2 - 2 i g2 (b + b*) |a|^2

The conservative part of the multimode model derives from the Hamiltonian
functional

    H = -(delta_c - D_AC)|a|^2 + omega_m sum |b_nu|^2 + g (b_0 + b_0*)|a|^2
        - sum Im_s[C]_{nu nu'} (b_nu + b_nu*)(b_nu' + b_nu'*) |a|^2

(Im_s the symmetrized imaginary part), conserved when kappa = Omega = 0 and
the non-conservative Re[C] is dropped.

The multimode model runs from rest (b = 0), where it needs only the modes of
the mechanical chain (``optomech.MechanicalChain``): ``evolve_chain``
lengthens the chain until two lengths give the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import integrate_linear
from .cavity_dynamics import _rel_dev
from .config import FullConfig
from .errors import MAX_MODES
from .optomech import MechanicalChain, OmParams

RTOL = 1e-10         # RK45 relative tolerance of both models
CHAIN_TOL = 1e-8     # agreement of the m- and 2m-mode chain trajectories,
                     # above the RK45 error at RTOL (~1e-9)


@dataclass(frozen=True, eq=False)
class OmState:
    a: complex
    b: np.ndarray               # mechanical amplitudes <b_nu> (1 entry if reduced)
    t: float


class OmTrajectory(list):
    """OmStates at the output times, with the integrator's work: ``rhs_evals``
    right-hand-side evaluations, and ``diagnostics`` of the route taken."""

    def __init__(self, states, rhs_evals: int, diagnostics=None):
        super().__init__(states)
        self.rhs_evals = rhs_evals
        self.diagnostics = diagnostics or {}


def _multimode_rhs(cfg: FullConfig, params: OmParams, stack):
    """Right-hand side for a stack of k independent multimode systems, the
    (k, n, n) coupling matrices ``stack``; the state is k blocks (a, b_1..b_n)."""
    drive = 1j * (cfg.drive.delta_c - params.Delta_AC) - cfg.cavity.kappa_c / 2.0
    g = params.g
    om = cfg.trap.omega_m
    Omega = cfg.drive.Omega
    k, n = stack.shape[:2]
    # x is real, so C x is the real products Re C x and Im C x, stacked in one
    # contiguous (k, 2n, n) array
    parts = np.ascontiguousarray(np.concatenate([stack.real, stack.imag], axis=1))
    re_im = np.array([1.0, 1j])

    def rhs(_t, y):
        y = y.reshape(k, n + 1)
        a = y[:, 0]
        x = 2.0 * y[:, 1:].real[:, :, None]    # b_nu + b_nu*
        cx = parts @ x
        quad = (cx.reshape(k, 2, n) @ x)[:, :, 0] @ re_im      # x.C.x
        n_ph = (a * a.conj()).real
        out = np.empty_like(y)
        out[:, 0] = (drive - 1j * g * x[:, 0, 0] + quad) * a - 1j * Omega
        out[:, 1:] = -1j * om * y[:, 1:] + 2j * cx[:, n:, 0] * n_ph[:, None]
        out[:, 1] -= 1j * g * n_ph
        return out.ravel()

    return rhs


def _integrate(cfg: FullConfig, params: OmParams, stack, t_final, dt_out, y0,
               rtol=RTOL):
    """One RK45 run of the systems of ``stack`` from the (k, n + 1) states y0;
    returns (times, states of shape (len(times), k, n + 1), rhs_evals)."""
    times, states, rhs_evals = integrate_linear(_multimode_rhs(cfg, params, stack),
                                                y0.ravel(), t_final, dt_out, rtol=rtol)
    return times, states.reshape((len(times),) + y0.shape), rhs_evals


def _trajectory(times, states, rhs_evals, diagnostics=None):
    return OmTrajectory((OmState(a=complex(y[0]), b=y[1:].copy(), t=float(t))
                         for t, y in zip(times, states)), rhs_evals, diagnostics)


def evolve_chain(cfg: FullConfig, params: OmParams, chain: MechanicalChain,
                 t_final, dt_out, max_modes=MAX_MODES):
    """Multimode model from rest (b = 0) on the mechanical chain.

    Integrates the chain of m and of 2m modes side by side, in one RK45 run
    with shared steps: first m = 2, then m = 8, 32, ..., so that each chain
    length is integrated once.  It stops when a and b_0 of the two agree to
    CHAIN_TOL of max|a| and of max|b_0|, when the chain closes (the span is
    invariant, so the run is exact), or when 2m reaches ``max_modes`` or the
    chain's memory limit (the last pair is then (cap // 2, cap)).  Returns
    the 2m-mode trajectory as an OmTrajectory; ``rhs_evals`` sums all runs,
    and ``diagnostics`` hold its mode count ``chain_m``, the deviation
    ``chain_deviation`` from the m-mode run (None if a cap of 1 allowed no
    second length), ``chain_tolerance``, ``chain_invariant``,
    ``chain_converged`` (agreement or a closed chain) and ``rtol``.
    """
    cap = min(max_modes, chain.max_modes)
    top, rhs_evals = min(4, cap), 0
    while True:
        C = chain.couplings(top)
        n = len(C)                   # fewer than top once the chain closes
        m = min(max(1, top // 2), n)
        stack = np.zeros((2 if n > m else 1, n, n), dtype=complex)
        stack[0, :m, :m] = C[:m, :m]
        stack[-1] = C
        times, states, evals = _integrate(cfg, params, stack, t_final, dt_out,
                                          np.zeros((len(stack), n + 1), dtype=complex))
        rhs_evals += evals
        deviation = None if n == m else max(
            _rel_dev(states[:, 0, 0], states[:, 1, 0]),
            _rel_dev(states[:, 0, 1], states[:, 1, 1]))
        converged = chain.invariant or (deviation is not None
                                        and deviation <= CHAIN_TOL)
        if converged or n >= cap:
            break
        top = min(4 * n, cap)
    return _trajectory(times, states[:, -1], rhs_evals, {
        "chain_m": n, "chain_deviation": deviation, "chain_tolerance": CHAIN_TOL,
        "chain_invariant": chain.invariant, "chain_converged": converged,
        "rtol": RTOL})


def _reduced_rhs(cfg: FullConfig, params: OmParams):
    """Right-hand side of the reduced model; the state is (a, b)."""
    det = cfg.drive.delta_c - params.Delta_AC
    kappa = cfg.cavity.kappa_c + params.kappa_sc
    g, g2 = params.g, params.g2
    om = cfg.trap.omega_m
    Omega = cfg.drive.Omega

    def rhs(_t, y):
        a, b = y
        x = 2.0 * b.real
        da = ((1j * det - kappa / 2.0) * a - 1j * g * x * a
              - 1j * g2 * x * x * a - 1j * Omega)
        n_ph = abs(a) ** 2
        db = -1j * om * b - 1j * g * n_ph - 2j * g2 * x * n_ph
        return np.array([da, db])

    return rhs


def evolve_reduced(cfg: FullConfig, params: OmParams, t_final, dt_out,
                   a0=0.0 + 0.0j, b0=0.0 + 0.0j, rtol=RTOL):
    """Integrate the reduced standard-optomechanics model (cavity + one mode);
    returns an OmTrajectory."""
    y0 = np.array([a0, b0], dtype=complex)
    return _trajectory(*integrate_linear(_reduced_rhs(cfg, params), y0, t_final,
                                         dt_out, rtol=rtol))


def standard_model_report(params: OmParams, cfg: FullConfig) -> dict:
    """Mapping onto the standard single-mode cavity-optomechanics model.

    Emits the shifted cavity frequency (as the shift D_AC over the bare
    omega_c), the total damping kappa = kappa_c + kappa_sc with its
    delta-correlated noise contract, the couplings, and the membrane-in-the-
    middle figure of merit kappa_sc/g (None where g = 0).  The ratio is
    algebraically eta sqrt(N_a) (gamma/(delta-Delta)) eps / (6 sin 2 q z0):
    the motion-induced loss stays a factor ~ eta gamma/(delta-Delta) below the
    coupling, the membrane advantage of the ordered array.
    """
    kappa_c = cfg.cavity.kappa_c
    kappa = kappa_c + params.kappa_sc
    ratio = None if params.g == 0 else params.kappa_sc / params.g
    return {
        "omega_c_shift": params.Delta_AC,
        "kappa": kappa,
        "kappa_c": kappa_c,
        "kappa_sc": params.kappa_sc,
        "g": params.g,
        "g2": params.g2,
        "omega_m": cfg.trap.omega_m,
        "noise_contract": {name: {"rate": rate, "delta_correlated": True}
                           for name, rate in (("F_c", kappa_c),
                                              ("F_sc", params.kappa_sc),
                                              ("F_total", kappa))},
        "membrane_in_the_middle": {
            "kappa_sc_over_g": ratio,
            "eta": params.eta,
            "atoms_in_waist": params.N_a,
            "epsilon": params.epsilon,
        },
    }
