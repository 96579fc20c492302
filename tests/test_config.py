import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycav.config import (_KEYS, default_config_text, emit_config,
                             gamma_plus_Gamma0, parse_config, validate_regime,
                             FullConfig, LatticeSpec, TrapSpec)
from arraycav.errors import ConfigError

from conftest import make_config


def test_centered_square_lattice():
    cfg = make_config(a=0.5, n_side=20, w=2.0)
    lat = cfg.lattice
    assert lat.n_sites == 400
    pos = lat.positions
    # centered grid: coordinates (i - (n-1)/2) a
    assert pos[0, 0] == pytest.approx(-9.5 * 0.5)
    assert pos[-1, 1] == pytest.approx(9.5 * 0.5)
    assert abs(pos.sum()) < 1e-12


def test_positions_inversion_symmetric():
    pos = make_config(n_side=8, w=2.0, a=0.5).lattice.positions
    keys = {tuple(np.round(p, 12)) for p in pos}
    assert all(tuple(np.round(-p, 12)) in keys for p in pos)


def test_waist_below_paraxial_bound_rejected():
    with pytest.raises(ConfigError, match="paraxial bound"):
        parse_config(default_config_text(w=1.0))


def test_empty_drive_section_names_omega():
    text = default_config_text()
    head, _, _ = text.partition("[drive]")
    with pytest.raises(ConfigError, match="Omega"):
        parse_config(head + "[drive]\n")


def test_missing_section():
    text = default_config_text().replace("[trap]", "[trapx]")
    with pytest.raises(ConfigError, match=r"\[trap\]"):
        parse_config(text)


def test_non_numeric_value_names_key():
    text = default_config_text().replace("a = 0.5", "a = half")
    with pytest.raises(ConfigError, match="'a'"):
        parse_config(text)


@pytest.mark.parametrize("key,value,frag", [
    ("a = 0.5", "a = 1.4", "subwavelength"),
    ("eta = 0.1", "eta = 0.5", "Lamb-Dicke"),
    ("omega_m = 0.01", "omega_m = -1.0", "omega_m"),
    ("k_cut = ", "k_cut = 1.5 #", "k_cut"),
])
def test_invariant_violations(key, value, frag):
    text = default_config_text().replace(key, value, 1)
    with pytest.raises(ConfigError, match=frag):
        parse_config(text)


def test_wavelength_spacing_refused():
    # a = 1 puts the (+-1, 0) and (0, +-1) orders on the light line at k = 0
    text = default_config_text().replace("a = 0.5", "a = 1.0", 1)
    with pytest.raises(ConfigError, match=r"0 < a < 1.*graze") as exc:
        parse_config(text)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("value", ["linear_x", "linear_y", "elliptic"])
def test_only_circular_polarization(value):
    text = default_config_text().replace("polarization = circular",
                                         f"polarization = {value}")
    with pytest.raises(ConfigError, match="'polarization'"):
        parse_config(text)


@pytest.mark.parametrize("edit, name", [
    (lambda t: t.replace("[cavity]\n", "[cavity]\nk_cutt = 0.5\n"), "'k_cutt'"),
    (lambda t: t + "\n[drve]\nOmega = 0.5\n", "[drve]"),
    (lambda t: t.replace("[drive]\n", "[drive]\neta = 0.1\n"), "'eta'"),
    (lambda t: t.replace("Omega = ", "omega = "), "'omega'"),
], ids=["misspelt-key", "misspelt-section", "key-in-wrong-section", "key-case"])
def test_unknown_key_or_section_refused(edit, name):
    with pytest.raises(ConfigError, match="unknown") as exc:
        parse_config(edit(default_config_text()))
    assert name in str(exc.value)


def test_percent_sign_is_a_non_numeric_value():
    # no interpolation: '%' is a character of the value, not a syntax error
    text = default_config_text().replace("a = 0.5", "a = 50%")
    with pytest.raises(ConfigError, match="'a': non-numeric"):
        parse_config(text)


# Values just outside each key's range, one entry for every key of the table
# (the [drive] keys need only be finite)
_Z0_MAX = 0.1 * (np.pi * 4.0 * 4.0)      # 0.1 z_R of the default waist w = 4
OUTSIDE = {
    "lambda": [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)],
    "gamma": [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)],
    "polarization": ["linear"],
    "omega_l": [0.0],
    "a": [0.0, 1.0],
    "n_side": [1, 2.5],
    "w": [np.nextafter(2.0, 0.0)],
    "l_fsr": [0.0],
    "kappa_c": [-5e-324],
    "z0": [np.nextafter(_Z0_MAX, 6.0), -np.nextafter(_Z0_MAX, 6.0)],
    "k_cut": [0.0, 1.0],
    "omega_m": [0.0],
    "eta": [0.0, np.nextafter(0.3, 1.0)],
    "Omega": [], "delta_c": [], "delta": [],
}


@pytest.mark.parametrize("key, value", [
    (key, value) for key in _KEYS
    for value in ("nan", "inf", "-inf", *map(str, OUTSIDE[key]))])
def test_non_finite_or_outside_value_names_the_key(key, value):
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", default_config_text(),
                  count=1, flags=re.M)
    assert f"{key} = {value}\n" in text
    with pytest.raises(ConfigError, match=f"key '{key}'") as exc:
        parse_config(text)
    assert "\n" not in str(exc.value)


GOLDEN = """\
[physical]
lambda = 1.0
gamma = 1.0
polarization = circular
omega_l = 100000000.0

[lattice]
a = 0.5
n_side = 32

[cavity]
w = 4.0
l_fsr = 100.0
kappa_c = 1.0
z0 = 0.125
k_cut = 0.15915494309189535

[trap]
omega_m = 0.01
eta = 0.1

[drive]
Omega = 0.01
delta_c = 0.0
delta = 100.0
"""


def test_emitted_default_text_is_pinned():
    # every manifest embeds this text: its bytes are part of the output
    assert emit_config(parse_config(default_config_text())) == GOLDEN
    assert default_config_text() == GOLDEN


def test_readme_config_block_lists_every_key():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Config format", 1)[1].split("```")[1]
    parse_config(block)
    assert re.findall(r"^(\w+) *=", block, flags=re.M) == list(_KEYS)


def test_roundtrip_bit_for_bit():
    cfg = make_config(a=0.37, n_side=28, w=2.5, delta=33.25)
    text = emit_config(cfg)
    again = emit_config(parse_config(text))
    assert text == again


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.2, 1.0, exclude_max=True), w=st.floats(2.0, 6.0),
       eta=st.floats(0.01, 0.3), delta=st.floats(-500, 500))
def test_roundtrip_property(a, w, eta, delta):
    n_side = int(np.ceil(4 * w / a))
    text = default_config_text(a=a, n_side=n_side, w=w, eta=eta, delta=delta)
    cfg = parse_config(text)
    assert emit_config(parse_config(emit_config(cfg))) == emit_config(cfg)


def test_small_lattice_warns():
    with pytest.warns(UserWarning, match="extent"):
        parse_config(default_config_text(w=4.0, n_side=16))


def test_derived_quantities():
    cfg = make_config(w=4.0, eta=0.1)
    assert cfg.cavity.z_rayleigh == pytest.approx(np.pi * 16)
    assert cfg.trap.x0 == pytest.approx(0.1 / (2 * np.pi))
    assert cfg.cavity.k_cut_abs == pytest.approx(1.0)   # default 4/w at w=4


def test_regime_large_detuning_margin():
    # gamma + Gamma dominates the competing rates; margin = |delta - Delta|/(gamma+Gamma)
    cfg = make_config(delta=100.0, omega_m=0.01, kappa_c=0.5, Omega=0.01)
    rep = validate_regime(cfg, Delta=0.0)
    chk = rep["large_detuning"]
    assert chk.passed
    assert chk.ratio == pytest.approx(100.0 / gamma_plus_Gamma0(0.5))


def test_regime_small_motion_fails_at_large_eta():
    cfg = make_config()
    loose = FullConfig(physical=cfg.physical, lattice=cfg.lattice,
                       cavity=cfg.cavity, trap=TrapSpec(omega_m=0.01, eta=0.5),
                       drive=cfg.drive)
    rep = validate_regime(loose, Delta=0.0)
    assert not rep["small_motion"].passed
    # eta = 0.1 sits exactly at the order-of-magnitude threshold
    assert validate_regime(cfg, Delta=0.0)["small_motion"].passed


def test_regime_paraxial_ratio():
    rep = validate_regime(make_config(w=4.0, a=0.5), Delta=0.0)
    chk = rep["paraxial_waist"]
    assert chk.passed and chk.ratio == pytest.approx(4.0)
    assert rep["subwavelength"].passed


def test_regime_fails_on_resonance():
    cfg = make_config(delta=0.0)
    rep = validate_regime(cfg, Delta=0.0)
    assert not rep["large_detuning"].passed
    assert not rep.ok


def test_regime_pure():
    cfg = make_config()
    assert validate_regime(cfg, Delta=0.0) == validate_regime(cfg, Delta=0.0)
