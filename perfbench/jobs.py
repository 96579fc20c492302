"""Seeded job generator for the arraycav benchmark.

A job is one subcommand run, ``arraycav.cli.main(argv)`` on a generated config
file, or the README library quickstart.  Jobs come in rounds: one round is the
workload's full job list, drawn from ``(workload, seed, round index)`` alone,
so the same seed always gives the same jobs.  The program only ever sees the
config files and argument lists built here.

The timed rounds stay where the program works at the commit this benchmark
was written for.  Inputs that hit a known defect are a fixed list of defect
probes instead, the same for every seed: the benchmark runs them once per run
and counts their failures, so the failure count does not follow the run's
length or its seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

THREADS = 2                     # --threads for every job; at most nproc on 2 cores
Q = 2.0 * math.pi               # optical wavenumber, units 1/lambda
SUM_TABLE_SLOTS = 8             # real-space table cache size the dispersion jobs overflow

# The config block of README.md ("Config format"), verbatim.
README_CONFIG = """\
[physical]
lambda = 1.0          # internal unit, fixed
gamma = 1.0           # internal unit, fixed
polarization = circular

[lattice]
a = 0.5               # lattice constant (lambda); 0 < a <= 1
n_side = 32           # sites per edge, N = n_side^2, centered grid

[cavity]
w = 4.0               # waist (lambda); w >= 2
l_fsr = 100.0         # c/l rate (gamma)
kappa_c = 1.0         # mirror out-coupling (gamma)
z0 = 0.125            # array offset from focus (lambda); q z0 = pi/4 here
k_cut = 0.159         # confinement cutoff (units q); default 4/(q w)

[trap]
omega_m = 0.01        # mechanical frequency (gamma)
eta = 0.1             # Lamb-Dicke parameter q x0

[drive]
Omega = 0.01          # drive amplitude (gamma)
delta_c = 0.0         # omega_L - omega_c (gamma)
delta = 100.0         # omega_c - omega_a (gamma)
"""

# The CLI examples of README.md, verbatim, run on README_CONFIG saved as run.cfg.
README_EXAMPLES = (
    "validate   --config run.cfg",
    "dispersion --config run.cfg --path G,X,M,G --samples 60 --out disp.csv",
    "spectrum   --config run.cfg --dc-min -5 --dc-max 5 --samples 201 --out spec.csv",
    "omparams   --config run.cfg --consistency --out om.json",
    "dynamics   --config run.cfg --model reduced --t-final 100 --out dyn.csv",
    "kernel     --config run.cfg --kind fs --r-perp 0.5,0.0",
)

_DEFAULTS = dict(a=0.5, n_side=32, w=4.0, l_fsr=100.0, kappa_c=1.0, z0=0.125,
                 omega_m=0.01, eta=0.1, Omega=0.01, delta_c=0.0, delta=100.0)


def config_text(**overrides) -> str:
    """Config document in the README format; k_cut is left to its default 4/(q w)."""
    v = dict(_DEFAULTS, **overrides)
    f = lambda key: repr(float(v[key]))
    return (f"[physical]\npolarization = circular\n\n"
            f"[lattice]\na = {f('a')}\nn_side = {int(v['n_side'])}\n\n"
            f"[cavity]\nw = {f('w')}\nl_fsr = {f('l_fsr')}\nkappa_c = {f('kappa_c')}\n"
            f"z0 = {f('z0')}\n\n"
            f"[trap]\nomega_m = {f('omega_m')}\neta = {f('eta')}\n\n"
            f"[drive]\nOmega = {f('Omega')}\ndelta_c = {f('delta_c')}\n"
            f"delta = {f('delta')}\n")


@dataclass(frozen=True)
class Job:
    kind: str                   # job kind; failures and per-kind times use it
    config: str                 # config document, saved as run.cfg in the job directory
    argv: tuple = ()            # subcommand and its options; empty for the quickstart
    expect: dict = field(default_factory=dict)   # generator-side values the check uses
    n_sites: int | None = None  # lattice size N, None for the infinite-array commands

    def cli_argv(self):
        return ["--threads", str(THREADS), *self.argv]


def _cli(kind, argv, expect=None, n_sites=None, **cfg):
    return Job(kind=kind, config=config_text(**cfg), argv=tuple(argv),
               expect=dict(expect or {}, **cfg), n_sites=n_sites)


# ---------------------------------------------------------------- workloads

def membrane_trace(rng, shift_at_gamma):
    """omparams --consistency at the acceptance scale (a = 0.25, w = 8,
    k_cut = 0.75/lambda); the first job sits at sin(q z0) = 0 so that the g2
    tolerance applies too."""
    k_cut_over_q = repr(0.75 / Q)
    jobs = []
    for kind, n_side, z0 in (("omparams_n128", 128, 0.0),
                             ("omparams_n128", 128, rng.uniform(0.02, 0.23)),
                             ("omparams_n256", 256, rng.uniform(0.02, 0.23))):
        jobs.append(_cli(kind, ["omparams", "--config", "run.cfg", "--consistency",
                                "--k-cut-over-q", k_cut_over_q, "--out", "om.json"],
                         n_sites=n_side * n_side, a=0.25, n_side=n_side, w=8.0,
                         z0=z0, kappa_c=0.5, delta=rng.uniform(60.0, 150.0)))
    return jobs


def site_dynamics(rng, shift_at_gamma):
    """Default scale (n_side 32, N = 1024).  The drive amplitude stays within
    +-5 %: the integrators' absolute tolerance makes their step count follow
    it, and a wider band would turn seed noise into timing noise."""
    n = 32 * 32
    drive = lambda: rng.uniform(0.0095, 0.0105)
    return [
        _cli("dyn_full", ["dynamics", "--config", "run.cfg", "--model", "full",
                          "--t-final", "10", "--out", "dyn.csv"],
             n_sites=n, Omega=drive()),
        _cli("dyn_multimode", ["dynamics", "--config", "run.cfg", "--model",
                               "multimode", "--t-final", "10", "--seed",
                               str(rng.randrange(2**31)), "--out", "dyn.csv"],
             n_sites=n, Omega=drive()),
        Job(kind="quickstart", config="", n_sites=n,
            expect={"a": 0.5, "n_side": 32, "w": 4.0, "delta": 100.0,
                    "Omega": drive()}),
    ]


def _bz_path(rng, labels):
    """2-4 high-symmetry labels from ``labels`` starting or ending at G: the
    CLI samples path ends exactly, so the closed form at G can be checked."""
    path = ["G"]
    for _ in range(rng.randint(1, 3)):
        path.append(rng.choice([p for p in labels if p != path[-1]]))
    if rng.random() < 0.5:
        path.reverse()
    return ",".join(path)


# Where the timed rounds stay (see DEFECT_PROBES for what lies outside):
# - dispersion samples in the subradiant band, where every diffraction order
#   is evanescent and Gamma_k + gamma = 0, crash, because the real-space sum's
#   error makes the decay negative.  Above a = 0.5 the G-X segment is
#   radiative throughout, and above a = 1/sqrt(2) the whole zone is.
# - above a = 0.938 the real-space sum at k = 0 does not converge, so
#   validate and spectrum exit 3; they stay below A_K0_CONVERGES.
A_RADIATIVE_GX = 0.52
A_RADIATIVE_ALL = 0.72
A_K0_CONVERGES = 0.9


def band_scan(rng, shift_at_gamma):
    """Many short jobs.  The dispersion jobs draw one lattice constant per
    twelfth of (A_RADIATIVE_GX, 1), more than the real-space table cache
    holds."""
    jobs = []
    big_delta = lambda: rng.uniform(300.0, 600.0)   # large-detuning margin at a >= 0.2
    # Validate sits at the smallest lattice constant, whose real-space table
    # is the largest; the other jobs keep a >= 0.5.  The table cache holds
    # tables of earlier jobs, so a drawn small a would make the run's memory
    # peak follow the seed.
    jobs.append(_cli("validate", ["validate", "--config", "run.cfg"],
                     a=0.2, delta=big_delta(), z0=rng.uniform(0.02, 0.23)))
    strata = 12
    for i in range(strata):
        a = A_RADIATIVE_GX + (1.0 - A_RADIATIVE_GX) * (i + rng.random()) / strata
        path = _bz_path(rng, "GXM" if a >= A_RADIATIVE_ALL else "GX")
        jobs.append(_cli("dispersion", ["dispersion", "--config", "run.cfg",
                                        "--path", path, "--samples", "60",
                                        "--out", "disp.csv"],
                         expect={"path": path, "samples": 60}, a=a))
    # at delta = Delta the cavity is dark; where the program cannot give Delta
    # the job runs at delta = 100 and its failure is recorded
    a = rng.uniform(0.5, A_K0_CONVERGES)
    dc = rng.uniform(2.0, 8.0)
    shift = shift_at_gamma(a)
    jobs.append(_cli("spectrum", ["spectrum", "--config", "run.cfg", "--dc-min",
                                  repr(-dc), "--dc-max", repr(dc), "--samples",
                                  "201", "--out", "spec.csv"],
                     expect={"dark": shift is not None}, a=a,
                     delta=100.0 if shift is None else shift))
    jobs.append(_cli("dyn_reduced", ["dynamics", "--config", "run.cfg", "--model",
                                     "reduced", "--t-final",
                                     repr(rng.uniform(60.0, 120.0)), "--out",
                                     "dyn.csv"],
                     n_sites=32 * 32, a=rng.uniform(0.5, 1.0), delta=big_delta(),
                     Omega=rng.uniform(0.005, 0.02)))
    kind = rng.choice(["fs", "fs-d2z"])
    jobs.append(_cli("kernel", ["kernel", "--config", "run.cfg", "--kind", kind,
                                "--r-perp", "0.0,0.0"], expect={"at_origin": kind}))
    jobs.extend(_readme_job(example) for example in README_EXAMPLES
                if example not in DEFECT_PROBE_EXAMPLES)
    return jobs


def _readme_job(example):
    argv = tuple(example.split())
    return Job(kind="readme_" + argv[0], config=README_CONFIG, argv=argv,
               expect={"a": 0.5, "samples": 60},
               n_sites=32 * 32 if argv[0] in ("omparams", "dynamics") else None)


# README examples that hit a known defect: at a = 0.5 the G,X,M,G path runs
# through the subradiant band.
DEFECT_PROBE_EXAMPLES = (README_EXAMPLES[1],)


def band_scan_probes():
    """One input per known defect, fixed and independent of the seed."""
    probes = [_readme_job(example) for example in DEFECT_PROBE_EXAMPLES]
    # --help documents explicit kx:ky waypoints next to the labels
    path = "G,0.25:0.5"
    probes.append(_cli("dispersion", ["dispersion", "--config", "run.cfg", "--path",
                                      path, "--samples", "60", "--out", "disp.csv"],
                       expect={"path": path, "samples": 60}, a=0.6))
    # the real-space sum at k = 0 above A_K0_CONVERGES
    probes.append(_cli("validate", ["validate", "--config", "run.cfg"], a=0.95,
                       delta=400.0, z0=0.125))
    return probes


WORKLOADS = {
    "membrane-trace": membrane_trace,
    "site-dynamics": site_dynamics,
    "band-scan": band_scan,
}


DEFECT_PROBES = {"band-scan": band_scan_probes}


def defect_probes(workload):
    """The workload's fixed known-defect inputs; the same for every seed."""
    return DEFECT_PROBES.get(workload, list)()


def make_round(workload, seed, index, shift_at_gamma):
    """Jobs of round ``index`` of ``workload`` for ``seed``.

    ``shift_at_gamma(a)`` returns the program's cooperative shift at k = 0, or
    None where the program cannot compute it; the spectrum job sits at
    delta = Delta, where the cavity must be dark.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    return WORKLOADS[workload](rng, shift_at_gamma)


# ------------------------------------------------------- input properties

def path_wavevectors(path, samples, a):
    """Sample wavevectors of a label path, spaced by arc length as the CLI does."""
    corners = {"G": (0.0, 0.0), "X": (1.0, 0.0), "M": (1.0, 1.0)}
    pts = [tuple(c * math.pi / a for c in corners[p]) for p in path.split(",")]
    seg = [math.dist(p, q) for p, q in zip(pts, pts[1:])]
    total = sum(seg)
    out = []
    for i in range(samples):
        s = total * i / (samples - 1)
        for (p, q), length in zip(zip(pts, pts[1:]), seg):
            if s <= length or q is pts[-1]:
                f = 0.0 if length == 0 else min(max(s / length, 0.0), 1.0)
                out.append((p[0] + f * (q[0] - p[0]), p[1] + f * (q[1] - p[1])))
                break
            s -= length
    return out


def near_threshold(k, a, margin):
    """Whether some diffraction order k + Q lies within ``margin`` (units q) of
    the light line |k + Q| = q."""
    g = 2.0 * math.pi / a
    return any(abs(math.hypot(k[0] + g * mx, k[1] + g * my) / Q - 1.0) < margin
               for mx in range(-3, 4) for my in range(-3, 4))


def round_properties(jobs, margin=0.01):
    """Properties of one round's inputs that later changes may rely on."""
    disp = [j for j in jobs if j.kind == "dispersion"]
    samples = near = 0
    for j in disp:
        if ":" in j.expect["path"]:
            continue
        ks = path_wavevectors(j.expect["path"], j.expect["samples"], j.expect["a"])
        samples += len(ks)
        near += sum(near_threshold(k, j.expect["a"], margin) for k in ks)
    return {
        "jobs": len(jobs),
        "distinct_a_dispersion": len({j.expect["a"] for j in disp}),
        "sum_table_slots": SUM_TABLE_SLOTS,
        "dispersion_samples": samples,
        "near_threshold_share": near / samples if samples else 0.0,
        "threshold_margin_q": margin,
        "n_sites_per_job": [j.n_sites for j in jobs],
    }


def quickstart(expect):
    """The README library quickstart, plus the full-model steady state; returns
    the values its check needs."""
    from arraycav import (build_two_mode, cavity_profile, closed_form_params,
                          confined_kernel_paraxial, default_config_text,
                          dispersion_grid, dispersion_point, free_space_kernel,
                          mode_decay_rate, om_consistency, parse_config,
                          projected_kernel, steady_state_full,
                          steady_state_two_mode)

    cfg = parse_config(default_config_text(a=expect["a"], n_side=expect["n_side"],
                                           w=expect["w"], delta=expect["delta"],
                                           Omega=expect["Omega"]))
    disp = dispersion_point((0.0, 0.0), cfg.lattice.a)
    fs = free_space_kernel(cfg.lattice)
    conf = confined_kernel_paraxial(cfg.lattice, cfg.cavity.z0, cfg.cavity.k_cut_abs)
    proj = projected_kernel(fs, conf)
    decay = mode_decay_rate(cavity_profile(cfg.lattice, cfg.cavity.w), proj)
    model = build_two_mode(cfg, disp)
    a_two = steady_state_two_mode(model).a
    a_full = steady_state_full(cfg, proj).a
    grid = dispersion_grid(cfg.lattice.a, cfg.lattice.n_side)
    params = closed_form_params(cfg, grid.delta0)
    report = om_consistency(cfg, grid)
    return {"a": cfg.lattice.a, "gamma0": disp.gamma_k, "profile_decay": decay,
            "a_two_mode": a_two, "a_full": a_full, "kappa_sc": params.kappa_sc,
            "kappa_sc_trace": report.kappa_sc_trace, "kappa_2": report.kappa_2}
