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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import integrate_linear
from .config import FullConfig, NoiseContract
from .optomech import MAX_MODES, OmParams


@dataclass(frozen=True, eq=False)
class OmState:
    a: complex
    b: np.ndarray               # mechanical amplitudes <b_nu> (1 entry if reduced)
    t: float


class OmTrajectory(list):
    """OmStates at the output times, with the integrator's work: ``rhs_evals``
    right-hand-side evaluations."""

    def __init__(self, states, rhs_evals: int):
        super().__init__(states)
        self.rhs_evals = rhs_evals


def _multimode_rhs(cfg: FullConfig, params: OmParams, C):
    det = cfg.drive.delta_c - params.Delta_AC
    kappa_c = cfg.cavity.kappa_c
    g = params.g
    om = cfg.trap.omega_m
    Omega = cfg.drive.Omega
    # contiguous real parts: C.real and C.imag are strided views, and x is
    # real, so both products are real matrix-vector products
    rec, imc = np.ascontiguousarray(C.real), np.ascontiguousarray(C.imag)

    def rhs(_t, y):
        a = y[0]
        b = y[1:]
        x = 2.0 * b.real                     # b_nu + b_nu*
        imcx = imc @ x
        quad = x @ (rec @ x) + 1j * (x @ imcx)
        da = (1j * det - kappa_c / 2.0) * a - 1j * g * x[0] * a + quad * a - 1j * Omega
        n_ph = abs(a) ** 2
        db = -1j * om * b + 2j * imcx * n_ph
        db[0] -= 1j * g * n_ph
        out = np.empty_like(y)
        out[0] = da
        out[1:] = db
        return out

    return rhs


def evolve_multimode(cfg: FullConfig, params: OmParams, C, t_final, dt_out,
                     a0=0.0 + 0.0j, b0=None, rtol=1e-10):
    """Integrate the multimode mean-field model; returns an OmTrajectory."""
    C = np.asarray(C, dtype=complex)
    n_modes = C.shape[0]
    if n_modes > MAX_MODES:
        raise ValueError("multimode integration limited to MAX_MODES = "
                         f"{MAX_MODES} modes")
    y0 = np.zeros(n_modes + 1, dtype=complex)
    y0[0] = a0
    if b0 is not None:
        y0[1:] = np.asarray(b0, dtype=complex)
    times, states, rhs_evals = integrate_linear(_multimode_rhs(cfg, params, C), y0,
                                                t_final, dt_out, rtol=rtol)
    return OmTrajectory((OmState(a=complex(y[0]), b=y[1:].copy(), t=float(t))
                         for t, y in zip(times, states)), rhs_evals)


def evolve_reduced(cfg: FullConfig, params: OmParams, t_final, dt_out,
                   a0=0.0 + 0.0j, b0=0.0 + 0.0j, rtol=1e-10):
    """Integrate the reduced standard-optomechanics model (cavity + one mode);
    returns an OmTrajectory."""
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

    y0 = np.array([a0, b0], dtype=complex)
    times, states, rhs_evals = integrate_linear(rhs, y0, t_final, dt_out, rtol=rtol)
    return OmTrajectory((OmState(a=complex(y[0]), b=np.array([y[1]]), t=float(t))
                         for t, y in zip(times, states)), rhs_evals)


def energy_functional(state: OmState, cfg: FullConfig, params: OmParams, C):
    """Hamiltonian functional of the conservative multimode subsystem: only
    the symmetrized Im[C] enters, so C may be the full coupling matrix."""
    a = state.a
    b = state.b
    x = 2.0 * b.real
    n_ph = abs(a) ** 2
    im_s = 0.5 * (np.asarray(C).imag + np.asarray(C).imag.T)
    return float(
        -(cfg.drive.delta_c - params.Delta_AC) * n_ph
        + cfg.trap.omega_m * np.sum(np.abs(b) ** 2)
        + params.g * x[0] * n_ph
        - (x @ im_s @ x) * n_ph
    )


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
    contract = NoiseContract.for_cavity(kappa_c, params.kappa_sc)
    ratio = None if params.g == 0 else params.kappa_sc / params.g
    report = {
        "omega_c_shift": params.Delta_AC,
        "kappa": kappa,
        "kappa_c": kappa_c,
        "kappa_sc": params.kappa_sc,
        "g": params.g,
        "g2": params.g2,
        "omega_m": cfg.trap.omega_m,
        "noise_contract": {name: {"rate": rate, "delta_correlated": flag}
                           for name, (rate, flag) in contract.correlators.items()},
        "membrane_in_the_middle": {
            "kappa_sc_over_g": ratio,
            "eta": params.eta,
            "atoms_in_waist": params.N_a,
            "epsilon": params.epsilon,
        },
    }
    return report
