import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycav.config import (default_config_text, emit_config,
                             gamma_plus_Gamma0, parse_config, validate_regime,
                             FullConfig, LatticeSpec, NoiseContract, TrapSpec)
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


@pytest.mark.parametrize("value", ["linear_x", "linear_y", "elliptic"])
def test_only_circular_polarization(value):
    text = default_config_text().replace("polarization = circular",
                                         f"polarization = {value}")
    with pytest.raises(ConfigError, match="'polarization'"):
        parse_config(text)


def test_roundtrip_bit_for_bit():
    cfg = make_config(a=0.37, n_side=28, w=2.5, delta=33.25)
    text = emit_config(cfg)
    again = emit_config(parse_config(text))
    assert text == again


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.2, 1.0), w=st.floats(2.0, 6.0),
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
    assert cfg.physical.q == pytest.approx(2 * np.pi)
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


def test_noise_contract():
    c = NoiseContract.for_cavity(1.0, 0.25)
    assert c.correlators["F_total"][0] == pytest.approx(1.25)
    with pytest.raises(ConfigError):
        NoiseContract({"F_c": (-1.0, True)})
    with pytest.raises(ConfigError):
        NoiseContract({"F_c": (1.0, True), "F_total": (3.0, True)})
