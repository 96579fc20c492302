"""Configuration, nondimensionalization, lattice/cavity geometry, regime checks.

Internal units: lambda = 1, gamma = 1, hbar = 1, time in 1/gamma.  The free
spectral range rate c/l enters directly as ``l_fsr`` (units gamma); the optical
frequency only matters for retardation checks and is supplied as the optional
``omega_l`` key (default 1e8 gamma).

Config files are INI-style with sections [physical], [lattice], [cavity],
[trap], [drive], ``key = value`` pairs and ``#`` comments.  One key table
(``_KEYS``) drives parsing, emission and the canonical document: a section or
key outside it, or a number that is not finite, is a ConfigError.  All records
are immutable after construction.  ``polarization`` accepts only ``circular``,
the dipole orientation for which every kernel and lattice sum is built.
"""

from __future__ import annotations

import configparser
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .greens import GAMMA, LAMBDA, Q

# threshold for the ">>" inequalities: order-of-magnitude separation
MARGIN = 10.0


@dataclass(frozen=True, eq=False)
class PhysicalConfig:
    """The [physical] section's one free value.  Its other keys are fixed:
    lambda and gamma are the internal units (1), polarization is circular."""

    omega_l: float                # laser frequency in units gamma (retardation checks)


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    a: float                      # lattice constant, units lambda
    n_side: int                   # sites per edge; N = n_side^2

    @property
    def n_sites(self) -> int:
        return self.n_side * self.n_side

    @property
    def extent(self) -> float:
        return self.n_side * self.a

    def axis(self):
        """Centered 1D site coordinates (n_side,)."""
        return (np.arange(self.n_side) - (self.n_side - 1) / 2.0) * self.a

    def meshes(self):
        """Centered coordinate meshes X, Y of shape (n_side, n_side)."""
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")

    @property
    def positions(self):
        """Site coordinates as an (N, 2) array, row-major over the grid."""
        X, Y = self.meshes()
        return np.column_stack([X.ravel(), Y.ravel()])


@dataclass(frozen=True, eq=False)
class CavitySpec:
    w: float                      # waist, units lambda
    l_fsr: float                  # c/l rate, units gamma
    kappa_c: float                # mirror out-coupling rate, units gamma
    z0: float                     # array offset from focus, units lambda
    k_cut: float                  # confinement cutoff, units q (0 < k_cut < 1)

    @property
    def z_rayleigh(self) -> float:
        return np.pi * self.w * self.w / LAMBDA

    @property
    def k_cut_abs(self) -> float:
        """Cutoff wavenumber in absolute units (1/lambda)."""
        return self.k_cut * Q


@dataclass(frozen=True, eq=False)
class TrapSpec:
    omega_m: float                # mechanical frequency, units gamma
    eta: float                    # Lamb-Dicke parameter q*x0

    @property
    def x0(self) -> float:
        return self.eta / Q


@dataclass(frozen=True, eq=False)
class DriveSpec:
    Omega: float                  # drive amplitude, units gamma
    delta_c: float                # omega_L - omega_c, units gamma
    delta: float                  # omega_c - omega_a, units gamma


@dataclass(frozen=True, eq=False)
class FullConfig:
    physical: PhysicalConfig
    lattice: LatticeSpec
    cavity: CavitySpec
    trap: TrapSpec
    drive: DriveSpec

    @property
    def qz0(self) -> float:
        return Q * self.cavity.z0


_REQUIRED = object()              # default of a key that every config must give


@dataclass(frozen=True)
class _Key:
    """One config key: where it lives, its type, its default and the rule its
    value obeys.  ``ok`` sees a finite number (or the stripped string), and
    each rule is a comparison that NaN fails."""

    section: str
    name: str
    kind: type = float            # float, int or str
    default: object = _REQUIRED   # value of an absent key; None: set from w below
    ok: object = None             # value -> bool; None: any finite value
    rule: str = ""                # what ``ok`` asks, for the error message

    def check(self, value, source):
        """``value`` as this key's type if it obeys the key's rule, else a
        ConfigError naming ``source``."""
        if self.kind is not str:
            if not np.isfinite(value):
                raise ConfigError(f"{source}: must be finite, got {value!r}")
            if self.kind is int and value != int(value):
                raise ConfigError(f"{source}: expected integer, got {value}")
            value = self.kind(value)
        if self.ok is not None and not self.ok(value):
            raise ConfigError(f"{source}: {self.rule}, got {value!r}")
        return value

    def read(self, sec):
        """This key's checked value in the config section ``sec``, or its
        default when the key is absent."""
        if self.name not in sec:
            if self.default is _REQUIRED:
                raise ConfigError(f"[{self.section}] missing key '{self.name}'")
            return self.default
        source = f"[{self.section}] key '{self.name}'"
        raw = sec[self.name].strip()
        if self.kind is str:
            return self.check(raw, source)
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{source}: non-numeric value {raw!r}") from None
        return self.check(value, source)


# Every key a config may hold, in the emitted order.  Three rules span keys
# and live in parse_config: |z0| <= 0.1 z_R, the default k_cut = 4/(q w) and
# the warning when the lattice extent is below 4 w.
_KEYS = {key.name: key for key in (
    _Key("physical", "lambda", default=LAMBDA, ok=lambda v: v == LAMBDA,
         rule="internal unit, must be 1"),
    _Key("physical", "gamma", default=GAMMA, ok=lambda v: v == GAMMA,
         rule="internal unit, must be 1"),
    _Key("physical", "polarization", str, "circular", lambda v: v == "circular",
         "only 'circular' is supported"),
    _Key("physical", "omega_l", default=1e8, ok=lambda v: v > 0, rule="must be > 0"),
    _Key("lattice", "a", ok=lambda v: 0 < v < 1,
         rule="subwavelength spacing requires 0 < a < 1 (at a = 1 the (+-1, 0) "
              "and (0, +-1) diffraction orders graze the light line at k = 0)"),
    _Key("lattice", "n_side", int, ok=lambda v: v >= 2,
         rule="need at least 2 sites per edge"),
    _Key("cavity", "w", ok=lambda v: v >= 2,
         rule="paraxial bound requires w >= 2 lambda"),
    _Key("cavity", "l_fsr", ok=lambda v: v > 0, rule="must be > 0"),
    _Key("cavity", "kappa_c", ok=lambda v: v >= 0, rule="must be >= 0"),
    _Key("cavity", "z0"),
    _Key("cavity", "k_cut", default=None, ok=lambda v: 0 < v < 1,
         rule="must lie in (0, 1) in units of q"),
    _Key("trap", "omega_m", ok=lambda v: v > 0, rule="must be > 0"),
    _Key("trap", "eta", ok=lambda v: 0 < v <= 0.3,
         rule="Lamb-Dicke regime requires 0 < eta <= 0.3"),
    _Key("drive", "Omega"),
    _Key("drive", "delta_c"),
    _Key("drive", "delta"),
)}

# section -> its typed record; a key the record lacks is fixed at its default
_RECORDS = {"physical": PhysicalConfig, "lattice": LatticeSpec, "cavity": CavitySpec,
            "trap": TrapSpec, "drive": DriveSpec}


def parse_config(text: str) -> FullConfig:
    """Parse an INI-style configuration document into typed records.

    Every derived quantity (q, z_R, x0, N) is available through the record
    properties.  A missing, unknown, non-finite or out-of-range value raises
    ConfigError naming the key.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   comment_prefixes=("#",), interpolation=None)
    cp.optionxform = str          # key names are case-sensitive, like the table's
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None
    for section in _RECORDS:
        if section not in cp:
            raise ConfigError(f"missing section [{section}]")
    for section in cp.sections():
        if section not in _RECORDS:
            raise ConfigError(f"unknown section [{section}]")
        for name in cp[section]:
            if name not in _KEYS or _KEYS[name].section != section:
                raise ConfigError(f"[{section}] unknown key '{name}'")
    values = {name: key.read(cp[key.section]) for name, key in _KEYS.items()}

    w, z0 = values["w"], values["z0"]
    z_r = np.pi * w * w
    if not abs(z0) <= 0.1 * z_r:
        raise ConfigError("[cavity] key 'z0': array must sit well inside the Rayleigh "
                          f"range (|z0| <= 0.1 z_R = {0.1 * z_r:g})")
    if values["k_cut"] is None:   # covers the Gaussian mode spectrum to e^-8
        values["k_cut"] = _KEYS["k_cut"].check(4.0 / (w * Q), "[cavity] key 'k_cut'")
    if values["n_side"] * values["a"] < 4.0 * w:
        warnings.warn(
            f"lattice extent {values['n_side'] * values['a']:g} < 4 w = {4 * w:g}: "
            "the Gaussian mode is not negligible at the array boundary", stacklevel=2)

    return FullConfig(**{section: record(**{f.name: values[f.name]
                                            for f in fields(record)})
                         for section, record in _RECORDS.items()})


def _emit(values) -> str:
    """Canonical text of the key -> value map ``values``; an absent key takes
    its default."""
    blocks = []
    for section in _RECORDS:
        lines = [f"[{section}]\n"]
        for key in _KEYS.values():
            if key.section == section:
                value = values.get(key.name, key.default)
                lines.append(f"{key.name} = "
                             f"{repr(float(value)) if key.kind is float else value}\n")
        blocks.append("".join(lines))
    return "\n".join(blocks)


def emit_config(cfg: FullConfig) -> str:
    """Canonical text form; parse(emit(cfg)) reproduces cfg bit-for-bit."""
    return _emit({name: value for section in _RECORDS
                  for name, value in vars(getattr(cfg, section)).items()})


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    description: str
    lhs: float                   # the "large" side, internal units
    rhs: float                   # the "small" side
    ratio: float
    passed: bool
    severity: str = "required"   # required | warning


@dataclass(frozen=True)
class RegimeReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "required")

    def __getitem__(self, name: str) -> RegimeCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            flag = "PASS" if c.passed else ("WARN" if c.severity == "warning" else "FAIL")
            lines.append(f"{flag:4s} {c.name}: {c.description} "
                         f"(lhs={c.lhs:.6g}, rhs={c.rhs:.6g}, ratio={c.ratio:.3g})")
        return "\n".join(lines)


def validate_regime(cfg: FullConfig, Delta: float | None = None) -> RegimeReport:
    """Evaluate every physical-regime inequality and report margins.

    ">>" conditions pass at ratio >= 10; the paraxial and subwavelength bounds
    pass at their enforced limits (w >= 2 lambda, a < lambda).  ``Delta`` is
    the cooperative shift at k = 0; when omitted it is computed from the
    lattice constant.  Report-only: callers decide what is fatal.
    """
    if Delta is None:
        from .lattice_sums import dispersion_point
        Delta = dispersion_point((0.0, 0.0), cfg.lattice.a).delta_k

    gamma_coop = gamma_plus_Gamma0(cfg.lattice.a)
    d = cfg.drive
    t = cfg.trap
    c = cfg.cavity
    # timescale of the internal-state envelopes in the laser frame
    rate_s = max(gamma_coop, abs(d.delta), abs(d.delta_c), c.kappa_c,
                 abs(d.Omega), t.omega_m, 1.0)
    omega_l = cfg.physical.omega_l
    c_light = omega_l / Q                       # c in lambda*gamma units
    l_atoms = cfg.lattice.a * np.sqrt(cfg.lattice.n_sites)

    checks = []

    def add(name, desc, lhs, rhs, threshold=MARGIN, severity="required"):
        ratio = np.inf if rhs == 0 else lhs / rhs
        checks.append(RegimeCheck(name, desc, float(lhs), float(rhs),
                                  float(ratio), bool(ratio >= threshold), severity))

    add("markov_frequency", "optical period short vs internal dynamics",
        omega_l, rate_s)
    add("markov_retardation", "light crossing time short vs internal dynamics",
        c_light / l_atoms, rate_s)
    add("small_motion", "zero-point motion small vs wavelength (q x0 << 1)",
        1.0, t.eta)
    add("large_detuning", "atom-cavity detuning dominates dynamical rates",
        *large_detuning(cfg, Delta))
    add("paraxial_waist", "paraxial beam: w above the enforced bound",
        c.w, LAMBDA, threshold=2.0)
    add("subwavelength", "lattice spacing below the wavelength",
        LAMBDA, cfg.lattice.a, threshold=1.0)
    add("rayleigh", "array well inside the Rayleigh range",
        c.z_rayleigh, abs(c.z0))
    add("waist_coverage", "lattice extent covers the mode (n_side a >= 4w)",
        cfg.lattice.extent, c.w, threshold=4.0, severity="warning")

    return RegimeReport(checks=tuple(checks))


def large_detuning(cfg: FullConfig, Delta: float) -> tuple[float, float]:
    """The two sides of the large-detuning inequality: |delta - Delta| and the
    fastest competing rate max(gamma + Gamma, omega_m, kappa_c, |Omega|), which
    is at least gamma + Gamma > 0.  The inequality holds, and the internal
    states may be eliminated, at a ratio >= MARGIN."""
    rate = max(gamma_plus_Gamma0(cfg.lattice.a), cfg.trap.omega_m,
               cfg.cavity.kappa_c, abs(cfg.drive.Omega))
    return abs(cfg.drive.delta - Delta), rate


def gamma_plus_Gamma0(a: float) -> float:
    """Total cooperative emission rate gamma + Gamma of the k = 0 mode.

    Closed form 3 lambda^2 gamma / (4 pi a^2), exact for the infinite array.
    """
    return 3.0 * LAMBDA * LAMBDA * GAMMA / (4.0 * np.pi * a * a)


def cavity_dipole_coupling(cfg: FullConfig) -> float:
    """Motionless coupling g_eff = |sin q z0| sqrt((c/l)(gamma + Gamma)) of the
    cavity to the cavity-matched collective dipole."""
    gamma_coop = gamma_plus_Gamma0(cfg.lattice.a)
    return float(abs(np.sin(cfg.qz0)) * np.sqrt(cfg.cavity.l_fsr * gamma_coop))


def default_config_text(a=0.5, n_side=32, w=4.0, l_fsr=100.0, kappa_c=1.0,
                        z0=0.125, omega_m=0.01, eta=0.1, Omega=0.01,
                        delta_c=0.0, delta=100.0) -> str:
    """The canonical config document at these values, with k_cut at its
    default 4/(q w) and the [physical] keys at theirs.  Nothing is checked:
    parse_config judges the text."""
    return _emit(dict(locals(), k_cut=4.0 / (w * Q)))
