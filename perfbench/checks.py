"""Output checks per job kind, at the acceptance tolerances of the test suite.

A check raises CheckFailed with a one-line reason when a job's output is
wrong.  Any other exception means the check itself could not run; the
benchmark then stops without a result.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from jobs import Q, Job

TOL_GAMMA0 = 1e-6        # criterion 1: reciprocal Gamma_0 + gamma vs closed form
TOL_TOTAL_DECAY = 1e-3   # Gamma_k + gamma >= -this on every sample
TOL_DARK = 1e-3          # criterion 4: |a| <= 1e-3 |a_bare| at delta = Delta
TOL_DARKNESS = 0.02      # criterion 3: cavity-profile decay share of gamma + Gamma
TOL_KAPPA_TRACE = 0.10   # criterion 5
TOL_KAPPA2 = 0.05        # criterion 5
TOL_STEADY = 1e-3        # steady-state agreement of the models
TOL_LORENTZ = 1e-9       # spectrum vs the two-oscillator closed form
TOL_EXACT = 1e-12        # criterion 2: coincident-point kernel limits


class CheckFailed(Exception):
    """The job ran but its output is wrong or missing."""


@dataclass
class Outcome:
    rc: int | None              # exit code; None when the job raised
    error: str | None           # "<ExceptionType>: <message>" when it raised
    stdout: str
    stderr: str
    directory: Path
    value: object = None        # what a library job returned


def _require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def _rows(path, columns):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError:
        raise CheckFailed(f"missing output {path.name}") from None
    _require(rows, f"{path.name} has no rows")
    _require(set(columns) <= set(rows[0]), f"{path.name} lacks columns {columns}")
    return [{c: float(r[c]) for c in columns} for r in rows]


def _finite(rows, columns, name):
    for c in columns:
        _require(all(math.isfinite(r[c]) for r in rows), f"{name}: non-finite {c}")


def _gamma_coop(a):
    return 3.0 / (4.0 * math.pi * a * a)


def _config(job):
    from arraycav import parse_config
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_config(job.config)


# ---------------------------------------------------------------- per kind

def _dispersion(job, out):
    a = job.expect["a"]
    rows = _rows(out.directory / "disp.csv", ("k_x/q", "k_y/q", "gamma_k/gamma"))
    _require(len(rows) == job.expect["samples"],
             f"{len(rows)} samples, expected {job.expect['samples']}")
    _finite(rows, ("gamma_k/gamma",), "dispersion")
    worst = min(r["gamma_k/gamma"] for r in rows) + 1.0
    _require(worst >= -TOL_TOTAL_DECAY, f"Gamma_k + gamma = {worst:.3e} < 0")
    at_g = [r for r in rows if math.hypot(r["k_x/q"], r["k_y/q"]) <= 1e-9]
    _require(at_g, "no sample at G")
    closed = _gamma_coop(a)
    dev = max(abs(r["gamma_k/gamma"] + 1.0 - closed) / closed for r in at_g)
    _require(dev <= TOL_GAMMA0, f"Gamma_0 + gamma off the closed form by {dev:.1e}")


def _omparams(job, out):
    try:
        data = json.loads((out.directory / "om.json").read_text())
    except FileNotFoundError:
        raise CheckFailed("missing output om.json") from None
    tol = data.get("tolerances_met")
    _require(tol, "no tolerances_met in the output")
    bad = [k for k, v in tol.items() if k.endswith("_ok") and v is not True]
    _require(not bad, f"tolerances not met: {','.join(bad)}")
    if job.expect.get("z0") == 0.0:
        _require("g2_ok" in tol, "g2 check missing at sin(q z0) = 0")
    vals = list(data["closed_form"].values()) + list(data["numerical"].values())
    _require(all(math.isfinite(v) for v in vals), "non-finite parameter")


def _spectrum_rows(job, out):
    rows = _rows(out.directory / "spec.csv", ("delta_c", "abs_a2"))
    _finite(rows, ("delta_c", "abs_a2"), "spectrum")
    samples = int(job.argv[job.argv.index("--samples") + 1])
    _require(len(rows) == samples, f"{len(rows)} samples, expected {samples}")
    return rows


def _spectrum(job, out):
    """At delta = Delta the cavity is dark at every delta_c."""
    if not job.expect["dark"]:
        return _spectrum_lorentzian(job, out)
    cfg = _config(job)
    omega, kappa = cfg.drive.Omega, cfg.cavity.kappa_c
    for r in _spectrum_rows(job, out):
        bare2 = omega**2 / ((kappa / 2.0) ** 2 + r["delta_c"] ** 2)
        _require(r["abs_a2"] <= TOL_DARK**2 * bare2,
                 f"|a|^2 = {r['abs_a2']:.3e} at delta_c = {r['delta_c']:.3g}, not dark")


def _spectrum_lorentzian(job, out):
    """Away from delta = Delta the response is the dressed-cavity Lorentzian."""
    cfg = _config(job)
    omega, kappa = cfg.drive.Omega, cfg.cavity.kappa_c
    man = json.loads((out.directory / "spec.csv.manifest.json").read_text())
    g2_dmd = man["g_eff"] ** 2 / man["delta_minus_Delta"]
    for r in _spectrum_rows(job, out):
        want = omega**2 / ((kappa / 2.0) ** 2 + (r["delta_c"] - g2_dmd) ** 2)
        _require(abs(r["abs_a2"] - want) <= TOL_LORENTZ * want,
                 f"|a|^2 off the Lorentzian at delta_c = {r['delta_c']:.3g}")


def _amplitudes(out, columns):
    rows = _rows(out.directory / "dyn.csv", columns)
    _finite(rows, columns, "dynamics")
    return rows


def _dyn_full(job, out):
    """The cavity relaxes at kappa_c/2 towards the two-oscillator steady state."""
    from arraycav import build_two_mode, dispersion_point, steady_state_two_mode
    rows = _amplitudes(out, ("t", "re_a", "im_a", "sum_abs_sigma2"))
    _require(len(rows) == 201, f"{len(rows)} output times, expected 201")
    cfg = _config(job)
    a_ss = steady_state_two_mode(build_two_mode(
        cfg, dispersion_point((0.0, 0.0), cfg.lattice.a))).a
    t, a_t = rows[-1]["t"], complex(rows[-1]["re_a"], rows[-1]["im_a"])
    tol = 2.0 * math.exp(-cfg.cavity.kappa_c * t / 2.0) + TOL_STEADY
    dev = abs(a_t - a_ss) / abs(a_ss)
    _require(dev <= tol, f"a(t={t:g}) is {dev:.2e} from the steady state (tol {tol:.2e})")


def _closed_params(cfg):
    from arraycav import closed_form_params, dispersion_grid
    return closed_form_params(cfg, dispersion_grid(cfg.lattice.a,
                                                   cfg.lattice.n_side).delta0)


def _dyn_multimode(job, out):
    """The multimode cavity amplitude follows the reduced single-mode model."""
    from arraycav import evolve_reduced
    rows = _amplitudes(out, ("t", "re_a", "im_a", "re_b0", "im_b0"))
    cfg = _config(job)
    t_final = rows[-1]["t"]
    ref = evolve_reduced(cfg, _closed_params(cfg), t_final, t_final / (len(rows) - 1))
    _require(len(ref) == len(rows), "output times differ from the reduced model's")
    scale = max(abs(s.a) for s in ref)
    dev = max(abs(complex(r["re_a"], r["im_a"]) - s.a) for r, s in zip(rows, ref))
    _require(dev <= TOL_STEADY * scale,
             f"multimode a(t) is {dev / scale:.2e} from the reduced model")


def _dyn_reduced(job, out):
    """After many cavity lifetimes a(t) sits at the closed-form steady state."""
    rows = _amplitudes(out, ("t", "re_a", "im_a", "re_b0", "im_b0"))
    cfg = _config(job)
    p = _closed_params(cfg)
    kappa = cfg.cavity.kappa_c + p.kappa_sc
    a_ss = -1j * cfg.drive.Omega / (kappa / 2.0 - 1j * (cfg.drive.delta_c - p.Delta_AC))
    a_t = complex(rows[-1]["re_a"], rows[-1]["im_a"])
    _require(kappa * rows[-1]["t"] / 2.0 >= 20.0, "run too short to relax")
    dev = abs(a_t - a_ss) / abs(a_ss)
    _require(dev <= TOL_STEADY, f"a(T) is {dev:.2e} from the closed-form steady state")


def _validate(job, out):
    lines = out.stdout.strip().splitlines()
    _require(lines, "empty report")
    bad = [ln.split(":")[0] for ln in lines if not ln.startswith(("PASS", "WARN"))]
    _require(not bad, f"regime checks failed: {'; '.join(bad)}")
    _require(any("large_detuning" in ln for ln in lines), "no large_detuning line")


def _kernel_value(out):
    try:
        re_s, im_s = out.stdout.split()
        return complex(float(re_s), float(im_s.rstrip("j")))
    except ValueError:
        raise CheckFailed(f"unparseable kernel output {out.stdout.strip()!r}") from None


def _kernel(job, out):
    """Coincident-point limits D(0) = gamma/2 and Re d2z D(0) = -q^2 gamma/5."""
    value = _kernel_value(out)
    if job.expect["at_origin"] == "fs":
        dev = abs(value - 0.5) / 0.5
    else:
        dev = abs(value.real + Q * Q / 5.0) / (Q * Q / 5.0)
    _require(dev <= TOL_EXACT, f"kernel at r = 0 off its limit by {dev:.1e}")


def _kernel_readme(job, out):
    from arraycav import kernel_fs
    value = _kernel_value(out)
    want = complex(kernel_fs((0.5, 0.0), 0.0))
    _require(value == want, f"kernel printed {value}, library gives {want}")


def _quickstart(job, out):
    v = out.value
    closed = _gamma_coop(v["a"])
    _require(abs(v["gamma0"] + 1.0 - closed) <= TOL_GAMMA0 * closed,
             "Gamma_0 + gamma off the closed form")
    _require(v["profile_decay"] <= TOL_DARKNESS * closed,
             f"cavity profile decays at {v['profile_decay']:.2e}")
    dev = abs(v["a_full"] - v["a_two_mode"]) / abs(v["a_two_mode"])
    _require(dev <= TOL_STEADY, f"full and two-mode steady states differ by {dev:.2e}")
    kdev = abs(v["kappa_sc_trace"] - v["kappa_sc"]) / v["kappa_sc"]
    _require(kdev <= TOL_KAPPA_TRACE, f"kappa_sc trace deviates by {kdev:.3f}")
    _require(abs(v["kappa_2"]) <= TOL_KAPPA2 * v["kappa_sc"], "kappa_2 not negligible")


CHECKS = {
    "omparams_n128": _omparams,
    "omparams_n256": _omparams,
    "dyn_full": _dyn_full,
    "dyn_multimode": _dyn_multimode,
    "quickstart": _quickstart,
    "validate": _validate,
    "dispersion": _dispersion,
    "spectrum": _spectrum,
    "dyn_reduced": _dyn_reduced,
    "kernel": _kernel,
    "readme_validate": _validate,
    "readme_dispersion": _dispersion,
    "readme_spectrum": _spectrum_lorentzian,
    "readme_omparams": _omparams,
    "readme_dynamics": _dyn_reduced,
    "readme_kernel": _kernel_readme,
}


def check(job: Job, out: Outcome):
    """Raise CheckFailed unless ``job`` exited 0 with correct output."""
    if out.error is not None:
        raise CheckFailed(out.error)
    if out.rc != 0:
        last = (out.stderr.strip().splitlines() or [""])[-1]
        raise CheckFailed(f"exit code {out.rc}: {last[:160]}")
    CHECKS[job.kind](job, out)
