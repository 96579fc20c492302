"""Output identity: the README commands and the library quickstart against a
committed ledger, ``golden_outputs.json``.

The ledger holds the sha256 of every output file, manifest and stdout of the
README commands (``test_cli.README_COMMANDS``) run on the README's config
block, the quickstart's values, and the environment that wrote them: the
numpy version, the platform and the SIMD targets numpy dispatches to.  In
that environment every hash must match and every quickstart value must be
equal.  In any environment the outputs are also compared by value: CSV
columns to a tolerance of their largest |x|, JSON and stdout numbers and the
quickstart values to the tolerance relative, or to ROUND_OFF absolute (a
residual of cancellation, such as g2_flat_profile_variant, is round-off).
The tolerance is the closed forms' 1e-12 for the static outputs, the Krylov
chain's for ``dynamics --model full`` and the mechanical chain's for the two
RK45 models.  Manifests hold work counts and residuals that may move with
the platform, so only their hashes are compared.

After an intended output change, rewrite the ledger with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np

from arraycav.cavity_dynamics import KRYLOV_TOL
from arraycav.cli import main
from arraycav.om_dynamics import CHAIN_TOL

from test_cli import README_COMMANDS

LEDGER = Path(__file__).with_name("golden_outputs.json")
README = Path(__file__).parents[1] / "README.md"

STATIC_TOL = 1e-12
ROUND_OFF = 1e-15      # absolute floor of the numbers outside CSV columns
TOLERANCE = {"reduced": CHAIN_TOL, "multimode": CHAIN_TOL, "full": KRYLOV_TOL}
ROW_STEP = 10          # every tenth CSV row, and the last, enter the ledger
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b)")


def environment():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:                                  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}",
            "simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}


def readme_config():
    """The config block under the README's "Config format" heading."""
    section = README.read_text().split("## Config format", 1)[1]
    return section.split("```", 2)[1].lstrip("\n")


def run_commands(directory):
    """{output name: bytes} of every README command run in ``directory``:
    each command's output file and manifest, or its stdout."""
    os.chdir(directory)
    Path("run.cfg").write_text(readme_config())
    outputs = {}
    for name, argv in README_COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings(record=True):
            assert main(argv[:1] + ["--config", "run.cfg"] + argv[1:]) == 0, name
        if "--out" in argv:
            out = argv[argv.index("--out") + 1]
            for path in (out, out + ".manifest.json"):
                outputs[f"{name}/{path}"] = Path(path).read_bytes()
        else:
            outputs[f"{name}/stdout"] = stdout.getvalue().encode()
    return outputs


def quickstart():
    """The README library quickstart, plus the full model's steady state."""
    from arraycav import (build_two_mode, cavity_profile, closed_form_params,
                          confined_kernel_paraxial, default_config_text,
                          dispersion_grid, dispersion_point, free_space_kernel,
                          mode_decay_rate, om_consistency, parse_config,
                          projected_kernel, steady_state_full, steady_state_two_mode)
    cfg = parse_config(default_config_text(a=0.5, n_side=32, w=4.0, delta=100.0))
    disp = dispersion_point((0.0, 0.0), cfg.lattice.a)
    proj = projected_kernel(free_space_kernel(cfg.lattice), confined_kernel_paraxial(
        cfg.lattice, cfg.cavity.z0, cfg.cavity.k_cut_abs))
    a_two = steady_state_two_mode(build_two_mode(cfg, disp)).a
    a_full = steady_state_full(cfg, proj).a
    grid = dispersion_grid(cfg.lattice.a, cfg.lattice.n_side)
    report = om_consistency(cfg, grid)
    return {"gamma0": disp.gamma_k,
            "profile_decay": mode_decay_rate(cavity_profile(cfg.lattice, cfg.cavity.w), proj),
            "a_two_mode": [a_two.real, a_two.imag], "a_full": [a_full.real, a_full.imag],
            "kappa_sc": closed_form_params(cfg, grid.delta0).kappa_sc,
            "kappa_sc_trace": report.kappa_sc_trace, "kappa_2": report.kappa_2}


def _leaves(node, prefix=""):
    if isinstance(node, dict):
        return {k: v for key in node for k, v in _leaves(node[key], f"{prefix}{key}.").items()}
    return {prefix.rstrip("."): node}


def fingerprint(name, data):
    """What the value comparison reads of one output file or stdout."""
    text = data.decode()
    if name.endswith(".csv"):
        header, body = text.split("\n", 1)
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        kept = np.r_[0:len(rows):ROW_STEP, len(rows) - 1]
        return {"header": header, "rows": len(rows),
                "scale": np.nanmax(np.abs(rows), axis=0).tolist(),
                "sample": rows[kept].tolist()}
    if name.endswith(".json"):
        return _leaves(json.loads(text))
    return {"text": NUMBER.sub("#", text), "numbers": [float(x) for x in NUMBER.findall(text)]}


def _differences(want, got, tol, floor, where=""):
    """The places where ``got`` departs from ``want``: numbers by more than
    ``tol`` relative and ``floor`` absolute (one floor per list entry, if a
    list), anything else unless equal."""
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [where]
        floors = floor if isinstance(floor, list) else [floor] * len(want)
        return [d for i, (w, g, f) in enumerate(zip(want, got, floors))
                for d in _differences(w, g, tol, f, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        same = (math.isnan(want) and math.isnan(got)) or \
            math.isclose(got, want, rel_tol=tol, abs_tol=floor)
        return [] if same else [f"{where}: {got!r} against {want!r}"]
    return [] if want == got else [f"{where}: {got!r} against {want!r}"]


def compare_values(ledger, outputs, values):
    """Every difference of the outputs' and quickstart's values from the
    ledger, beyond the tolerance of the command that made them."""
    found = []
    for name, want in ledger["values"].items():
        tol = TOLERANCE.get(name.split("/")[0], STATIC_TOL)
        got = fingerprint(name, outputs[name])
        for key in want:
            # each row of a CSV sample is held to tol of its column scales
            floor = [[tol * x for x in want["scale"]]] * len(want[key]) \
                if key == "sample" else ROUND_OFF
            found += _differences(want[key], got.get(key), tol, floor, f"{name} {key}")
    for key, want in ledger["quickstart"].items():
        found += _differences(want, values[key], STATIC_TOL, ROUND_OFF, f"quickstart {key}")
    return found


def ledger_of(outputs, values):
    return {**environment(),
            "sha256": {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()},
            "values": {k: fingerprint(k, v) for k, v in outputs.items()
                       if not k.endswith(".manifest.json")},
            "quickstart": values}


def test_outputs_match_the_ledger(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ledger = json.loads(LEDGER.read_text())
    outputs, values = run_commands(tmp_path), quickstart()
    assert sorted(outputs) == sorted(ledger["sha256"])
    assert compare_values(ledger, outputs, values) == []
    recorded = {k: ledger[k] for k in environment()}
    if recorded == environment():
        print("compared sha256 of every output and the quickstart values exactly")
        got = ledger_of(outputs, values)
        assert got["sha256"] == ledger["sha256"]
        assert got["quickstart"] == ledger["quickstart"]
    else:
        print(f"compared values within tolerance only: the ledger was written on "
              f"{recorded}, this is {environment()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        try:
            ledger = ledger_of(run_commands(scratch), quickstart())
        finally:
            os.chdir(home)
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
