"""arraycav command-line interface.

Subcommands: validate, dispersion, spectrum, omparams, dynamics, kernel.
Every output file is accompanied by a ``<name>.manifest.json`` recording the
command, the resolved configuration snapshot, tool version and output
digests, so any run can be reproduced byte-for-byte.

Exit codes: 0 ok, 2 configuration error, 3 numerical/convergence error,
4 consistency tolerance failure.

Starting loads no numerics: each ``cmd_*`` imports the modules it runs when
it is called, and ``main`` builds its parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .errors import MAX_MODES, ArrayCavError, ConfigError, ConvergenceError, RegimeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CONSISTENCY = 4

# consistency tolerances, pinned
TOL_KAPPA_TRACE = 0.10
TOL_KAPPA2 = 0.05
TOL_G2 = 0.03


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _sha256(path) -> str:
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_manifest(command, args, cfg_text, outputs, extra=None):
    """Everything needed to reproduce a run byte-for-byte: ``argv`` is what
    ``main`` parsed, ``config`` the resolved canonical config snapshot,
    ``extra`` the command's diagnostics."""
    import json
    payload = {
        "command": command,
        "argv": args.argv,
        "version": __version__,
        "config": cfg_text,
        "outputs": [{"path": str(p), "sha256": _sha256(p)} for p in outputs],
        **(extra or {}),
    }
    path = str(outputs[0]) + ".manifest.json" if outputs else "run.manifest.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _require(ok, option, rule):
    """A ConfigError naming the command-line ``option`` unless ``ok``: every
    command checks its options before any work."""
    if not ok:
        raise ConfigError(f"{option}: {rule}")


def _load_config(path):
    from .config import emit_config, parse_config
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    cfg = parse_config(text)
    return cfg, emit_config(cfg)


def cmd_validate(args):
    from .config import validate_regime
    cfg, _text = _load_config(args.config)
    report = validate_regime(cfg)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_CONSISTENCY


def cmd_dispersion(args):
    import numpy as np
    from .lattice_sums import dispersion_curve
    cfg, text = _load_config(args.config)
    path = [p.strip() for p in args.path.split(",") if p.strip()]
    pts = dispersion_curve(path, args.samples, cfg.lattice.a, strict=False)
    q = 2.0 * np.pi
    rows = [(p.k_perp[0] / q, p.k_perp[1] / q, p.gamma_k, p.delta_k) for p in pts]
    _write_csv(args.out, ["k_x/q", "k_y/q", "gamma_k/gamma", "delta_k/gamma"], rows)
    _write_manifest("dispersion", args, text, [args.out],
                    {"path": path, "samples": args.samples})
    return EXIT_OK


def cmd_spectrum(args):
    import numpy as np
    from .cavity_dynamics import build_two_mode, spectrum_scan
    from .lattice_sums import dispersion_point
    cfg, text = _load_config(args.config)
    for option, value in (("--dc-min", args.dc_min), ("--dc-max", args.dc_max)):
        _require(np.isfinite(value), option, "must be finite")
    _require(np.isfinite(args.dc_max - args.dc_min), "--dc-max",
             "the scan width --dc-max - --dc-min must be finite")
    _require(args.samples >= 2, "--samples",
             f"need at least 2 samples, got {args.samples}")
    disp = dispersion_point((0.0, 0.0), cfg.lattice.a)
    model = build_two_mode(cfg, disp)
    scan = spectrum_scan(model, (args.dc_min, args.dc_max), args.samples)
    _write_csv(args.out, ["delta_c", "abs_a2", "phase"], scan)
    _write_manifest("spectrum", args, text, [args.out],
                    {"g_eff": model.g_eff,
                     "delta_minus_Delta": model.delta_minus_Delta})
    return EXIT_OK


def cmd_omparams(args):
    import json
    import numpy as np
    from .config import _KEYS
    from .lattice_sums import dispersion_grid
    from .om_dynamics import standard_model_report
    from .optomech import closed_form_params, om_consistency
    cfg, text = _load_config(args.config)
    k_cut_abs = None
    if args.k_cut_over_q is not None:
        k_cut_abs = _KEYS["k_cut"].check(args.k_cut_over_q, "--k-cut-over-q") * 2 * np.pi
    grid = dispersion_grid(cfg.lattice.a, cfg.lattice.n_side)
    params = closed_form_params(cfg, grid.delta0)
    result = {"closed_form": {
        "g": params.g, "g_bar": params.g_bar, "g2": params.g2,
        "kappa_sc": params.kappa_sc, "Delta_AC": params.Delta_AC,
        "eta": params.eta, "N_a": params.N_a, "epsilon": params.epsilon,
        "g_eff": params.g_eff, "Delta": grid.delta0,
    }}
    result["standard_model"] = standard_model_report(params, cfg)
    result["ratios"] = {
        "kappa_sc_over_g":
            result["standard_model"]["membrane_in_the_middle"]["kappa_sc_over_g"],
        "g_over_eta": params.g / params.eta,
        "kappa_sc_over_eta2": params.kappa_sc / params.eta**2,
        "g2_over_eta2": params.g2 / params.eta**2,
    }
    exit_code = EXIT_OK
    if args.consistency:
        rep = om_consistency(cfg, grid, k_cut_abs=k_cut_abs)
        checks = {
            "kappa_trace_rel_dev": rep.kappa_rel_dev(),
            "kappa_trace_ok": rep.kappa_rel_dev() <= TOL_KAPPA_TRACE,
            "kappa2_fraction": rep.kappa2_fraction(),
            "kappa2_ok": rep.kappa2_fraction() <= TOL_KAPPA2,
        }
        g2_applicable = abs(np.sin(cfg.qz0)) < 1e-12
        if g2_applicable:
            g2_dev = abs(rep.g2_trace - rep.g2_closed) / rep.g2_closed
            checks["g2_rel_dev"] = g2_dev
            checks["g2_ok"] = bool(g2_dev <= TOL_G2)
        result["numerical"] = {
            "kappa_sc_trace": rep.kappa_sc_trace, "kappa_1": rep.kappa_1,
            "kappa_2": rep.kappa_2, "Delta_sc": rep.Delta_sc,
            "g2_trace": rep.g2_trace, "g2_closed_cos2": rep.g2_closed,
            "g2_flat_profile_variant": rep.g2_flat_profile,
        }
        result["tolerances_met"] = checks
        if not all(v for k, v in checks.items() if k.endswith("_ok")):
            exit_code = EXIT_CONSISTENCY
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    extra = {"diagnostics": rep.diagnostics} if args.consistency else None
    _write_manifest("omparams", args, text, [args.out], extra)
    return exit_code


def cmd_dynamics(args):
    import numpy as np
    from ._numerics import output_count
    from .cavity_dynamics import evolve_full
    from .confined import (confined_kernel_paraxial, free_space_kernel,
                           projected_kernel, projected_kernels)
    from .lattice_sums import dispersion_grid
    from .om_dynamics import evolve_chain, evolve_reduced
    from .optomech import MechanicalChain, closed_form_params
    cfg, text = _load_config(args.config)
    for option, value in (("--t-final", args.t_final), ("--dt-out", args.dt_out)):
        _require(np.isfinite(value) and value > 0, option, "must be a finite time > 0")
    try:
        output_count(args.t_final, args.dt_out)
    except ValueError as exc:
        raise ConfigError(f"--dt-out: {exc}") from None
    if args.model == "multimode":
        _require(1 <= args.modes <= MAX_MODES, "--modes",
                 f"the mechanical chain takes 1 to {MAX_MODES} modes, got {args.modes}")
        _require(args.seed >= 0, "--seed", f"must be >= 0, got {args.seed}")
    channel = (cfg.lattice, cfg.cavity.z0, cfg.cavity.k_cut_abs)
    if args.model == "full":
        kernel = projected_kernel(free_space_kernel(cfg.lattice),
                                  confined_kernel_paraxial(*channel))
        traj = evolve_full(cfg, kernel, args.t_final, args.dt_out)
        rows = zip(traj.t, traj.a.real, traj.a.imag, traj.sum_sigma2)
        _write_csv(args.out, ["t", "re_a", "im_a", "sum_abs_sigma2"], rows)
        extra = traj.diagnostics
    else:
        grid = dispersion_grid(cfg.lattice.a, cfg.lattice.n_side)
        params = closed_form_params(cfg, grid.delta0)
        if args.model == "reduced":
            states = evolve_reduced(cfg, params, args.t_final, args.dt_out)
        else:
            chain = MechanicalChain(cfg, *projected_kernels(*channel), grid)
            states = evolve_chain(cfg, params, chain, args.t_final, args.dt_out,
                                  args.modes)
            report = states.diagnostics
            if not report["chain_converged"]:
                deviation = report["chain_deviation"]
                found = "not measured" if deviation is None else f"{deviation:.2g}"
                print(f"warning: the mechanical chain stops at m = {report['chain_m']} "
                      f"modes (--modes {args.modes}) before agreement to "
                      f"{report['chain_tolerance']:g} (deviation {found})", file=sys.stderr)
        rows = [(s.t, s.a.real, s.a.imag, s.b[0].real, s.b[0].imag,
                 abs(s.a) ** 2) for s in states]
        _write_csv(args.out, ["t", "re_a", "im_a", "re_b0", "im_b0", "abs_a2"], rows)
        extra = {"rhs_evals": states.rhs_evals, **states.diagnostics}
    _write_manifest("dynamics", args, text, [args.out], {"model": args.model, **extra})
    return EXIT_OK


def cmd_kernel(args):
    import numpy as np
    from .greens import kernel_fs, kernel_fs_d2z, kernel_fs_momentum
    _load_config(args.config)
    try:
        rx, ry = (float(x) for x in args.r_perp.split(","))
        ok = np.isfinite(rx) and np.isfinite(ry)
    except ValueError:
        ok = False
    _require(ok, "--r-perp",
             f"expected two finite numbers 'x,y', got {args.r_perp!r}")
    _require(np.isfinite(args.dz), "--dz", "must be finite")
    if args.kind == "fs":
        value = kernel_fs((rx, ry), args.dz)
    elif args.kind == "fs-d2z":
        value = kernel_fs_d2z((rx, ry))
    else:
        value = kernel_fs_momentum((rx * 2 * np.pi, ry * 2 * np.pi), args.dz)
    print(f"{value.real:.17g} {value.imag:+.17g}j")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraycav",
        description="2D atom-array cavity QED: dispersion, spectra, "
                    "optomechanical parameters and dynamics")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect (every "
                             "subcommand runs serially)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="evaluate physical-regime checks")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dispersion", help="collective-mode dispersion along a BZ path")
    p.add_argument("--config", required=True)
    p.add_argument("--path", default="G,X,M,G",
                   help="comma-separated waypoints: G, X, M or kx:ky pairs "
                        "(units of q)")
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("spectrum", help="two-oscillator steady-state drive scan")
    p.add_argument("--config", required=True)
    p.add_argument("--dc-min", type=float, required=True, dest="dc_min")
    p.add_argument("--dc-max", type=float, required=True, dest="dc_max")
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("omparams", help="optomechanical parameters and consistency")
    p.add_argument("--config", required=True)
    p.add_argument("--consistency", action="store_true")
    p.add_argument("--k-cut-over-q", type=float, default=None, dest="k_cut_over_q",
                   help="override confinement cutoff (units q) for the checks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_omparams)

    p = sub.add_parser("dynamics", help="time evolution of a chosen model")
    p.add_argument("--config", required=True)
    p.add_argument("--model", choices=("multimode", "reduced", "full"),
                   default="reduced")
    p.add_argument("--t-final", type=float, required=True, dest="t_final")
    p.add_argument("--dt-out", type=float, default=None, dest="dt_out")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility (>= 0); has no effect: the "
                        "multimode model's modes come from the mechanical chain")
    p.add_argument("--modes", type=int, default=256,
                   help="largest mechanical chain of the multimode model "
                        f"(at most {MAX_MODES}); the chain stops earlier once "
                        "m and 2m modes agree")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("kernel", help="evaluate a dipole kernel at one point")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", choices=("fs", "fs-d2z", "momentum"), default="fs")
    p.add_argument("--r-perp", default="0.5,0.0", dest="r_perp",
                   help="transverse displacement (lambda) or wavevector (q)")
    p.add_argument("--dz", type=float, default=0.0)
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args.argv = argv
    if getattr(args, "dt_out", None) is None and args.command == "dynamics":
        args.dt_out = args.t_final / 200.0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, RegimeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArrayCavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
