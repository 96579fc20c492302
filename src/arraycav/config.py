"""Configuration, nondimensionalization, lattice/cavity geometry, regime checks.

Internal units: lambda = 1, gamma = 1, hbar = 1, time in 1/gamma.  The free
spectral range rate c/l enters directly as ``l_fsr`` (units gamma); the optical
frequency only matters for retardation checks and is supplied as the optional
``omega_l`` key (default 1e8 gamma).

Config files are INI-style with sections [physical], [lattice], [cavity],
[trap], [drive], ``key = value`` pairs and ``#`` comments.  All records are
immutable after construction.  ``polarization`` accepts only ``circular``, the
dipole orientation for which every kernel and lattice sum is built.
"""

from __future__ import annotations

import configparser
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .greens import GAMMA, LAMBDA, Q

# threshold for the ">>" inequalities: order-of-magnitude separation
MARGIN = 10.0


@dataclass(frozen=True, eq=False)
class PhysicalConfig:
    """The [physical] section's one free value.  Its other keys are fixed:
    lambda and gamma are the internal units (1), polarization is circular."""

    omega_l: float = 1e8          # laser frequency in units gamma (retardation checks)


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


def _getfloat(sec, section, key):
    if key not in sec:
        raise ConfigError(f"[{section}] missing key '{key}'")
    raw = sec[key]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] key '{key}': non-numeric value {raw!r}") from None


def _getint(sec, section, key):
    val = _getfloat(sec, section, key)
    if val != int(val):
        raise ConfigError(f"[{section}] key '{key}': expected integer, got {val}")
    return int(val)


def check_k_cut(k_cut: float, source: str) -> float:
    """The confinement cutoff (units q) if it lies in (0, 1), else a
    ConfigError naming ``source``."""
    if not 0.0 < k_cut < 1.0:
        raise ConfigError(f"{source}: must lie in (0, 1) in units of q")
    return k_cut


def parse_config(text: str) -> FullConfig:
    """Parse an INI-style configuration document into typed records.

    Every derived quantity (q, z_R, x0, N) is available through the record
    properties.  Violated invariants raise ConfigError naming the key.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None
    for section in ("physical", "lattice", "cavity", "trap", "drive"):
        if section not in cp:
            raise ConfigError(f"missing section [{section}]")

    phys_sec = cp["physical"]
    lam = _getfloat(phys_sec, "physical", "lambda") if "lambda" in phys_sec else 1.0
    gam = _getfloat(phys_sec, "physical", "gamma") if "gamma" in phys_sec else 1.0
    if lam != 1.0:
        raise ConfigError("[physical] key 'lambda': internal unit, must be 1")
    if gam != 1.0:
        raise ConfigError("[physical] key 'gamma': internal unit, must be 1")
    pol = phys_sec.get("polarization", "circular").strip()
    if pol != "circular":
        raise ConfigError(f"[physical] key 'polarization': {pol!r} not supported; "
                          "only 'circular' is")
    omega_l = _getfloat(phys_sec, "physical", "omega_l") if "omega_l" in phys_sec else 1e8
    if omega_l <= 0:
        raise ConfigError("[physical] key 'omega_l': must be > 0")
    physical = PhysicalConfig(omega_l=omega_l)

    lat_sec = cp["lattice"]
    a = _getfloat(lat_sec, "lattice", "a")
    n_side = _getint(lat_sec, "lattice", "n_side")
    if not 0.0 < a < 1.0:
        raise ConfigError("[lattice] key 'a': subwavelength spacing requires 0 < a < 1 "
                          "(at a = 1 the (+-1, 0) and (0, +-1) diffraction orders "
                          "graze the light line at k = 0)")
    if n_side < 2:
        raise ConfigError("[lattice] key 'n_side': need at least 2 sites per edge")
    lattice = LatticeSpec(a=a, n_side=n_side)

    cav_sec = cp["cavity"]
    w = _getfloat(cav_sec, "cavity", "w")
    if w < 2.0:
        raise ConfigError("[cavity] key 'w': w below paraxial bound (w >= 2 lambda)")
    l_fsr = _getfloat(cav_sec, "cavity", "l_fsr")
    if l_fsr <= 0:
        raise ConfigError("[cavity] key 'l_fsr': must be > 0")
    kappa_c = _getfloat(cav_sec, "cavity", "kappa_c")
    if kappa_c < 0:
        raise ConfigError("[cavity] key 'kappa_c': must be >= 0")
    z0 = _getfloat(cav_sec, "cavity", "z0")
    z_r = np.pi * w * w
    if abs(z0) > 0.1 * z_r:
        raise ConfigError("[cavity] key 'z0': array must sit well inside the Rayleigh "
                          f"range (|z0| <= 0.1 z_R = {0.1 * z_r:g})")
    if "k_cut" in cav_sec:
        k_cut = _getfloat(cav_sec, "cavity", "k_cut")
    else:
        k_cut = 4.0 / (w * Q)     # covers the Gaussian mode spectrum to e^-8
    check_k_cut(k_cut, "[cavity] key 'k_cut'")
    cavity = CavitySpec(w=w, l_fsr=l_fsr, kappa_c=kappa_c, z0=z0, k_cut=k_cut)

    trap_sec = cp["trap"]
    omega_m = _getfloat(trap_sec, "trap", "omega_m")
    if omega_m <= 0:
        raise ConfigError("[trap] key 'omega_m': must be > 0")
    eta = _getfloat(trap_sec, "trap", "eta")
    if not 0.0 < eta <= 0.3:
        raise ConfigError("[trap] key 'eta': Lamb-Dicke regime requires 0 < eta <= 0.3")
    trap = TrapSpec(omega_m=omega_m, eta=eta)

    drv_sec = cp["drive"]
    Omega = _getfloat(drv_sec, "drive", "Omega")
    delta_c = _getfloat(drv_sec, "drive", "delta_c")
    delta = _getfloat(drv_sec, "drive", "delta")
    for key, val in (("Omega", Omega), ("delta_c", delta_c), ("delta", delta)):
        if not np.isfinite(val):
            raise ConfigError(f"[drive] key '{key}': must be finite")
    drive = DriveSpec(Omega=Omega, delta_c=delta_c, delta=delta)

    if lattice.extent < 4.0 * w:
        warnings.warn(
            f"lattice extent {lattice.extent:g} < 4 w = {4 * w:g}: the Gaussian "
            "mode is not negligible at the array boundary", stacklevel=2)

    return FullConfig(physical=physical, lattice=lattice, cavity=cavity,
                      trap=trap, drive=drive)


def emit_config(cfg: FullConfig) -> str:
    """Canonical text form; parse(emit(cfg)) reproduces cfg bit-for-bit."""
    out = io.StringIO()
    fmt = lambda x: repr(float(x))
    out.write("[physical]\n")
    out.write(f"lambda = {fmt(LAMBDA)}\n")
    out.write(f"gamma = {fmt(GAMMA)}\n")
    out.write("polarization = circular\n")
    out.write(f"omega_l = {fmt(cfg.physical.omega_l)}\n")
    out.write("\n[lattice]\n")
    out.write(f"a = {fmt(cfg.lattice.a)}\n")
    out.write(f"n_side = {cfg.lattice.n_side}\n")
    out.write("\n[cavity]\n")
    out.write(f"w = {fmt(cfg.cavity.w)}\n")
    out.write(f"l_fsr = {fmt(cfg.cavity.l_fsr)}\n")
    out.write(f"kappa_c = {fmt(cfg.cavity.kappa_c)}\n")
    out.write(f"z0 = {fmt(cfg.cavity.z0)}\n")
    out.write(f"k_cut = {fmt(cfg.cavity.k_cut)}\n")
    out.write("\n[trap]\n")
    out.write(f"omega_m = {fmt(cfg.trap.omega_m)}\n")
    out.write(f"eta = {fmt(cfg.trap.eta)}\n")
    out.write("\n[drive]\n")
    out.write(f"Omega = {fmt(cfg.drive.Omega)}\n")
    out.write(f"delta_c = {fmt(cfg.drive.delta_c)}\n")
    out.write(f"delta = {fmt(cfg.drive.delta)}\n")
    return out.getvalue()


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
    detuning = abs(d.delta - Delta)
    add("large_detuning", "atom-cavity detuning dominates dynamical rates",
        detuning, max(gamma_coop, t.omega_m, c.kappa_c, abs(d.Omega)))
    add("paraxial_waist", "paraxial beam: w above the enforced bound",
        c.w, LAMBDA, threshold=2.0)
    add("subwavelength", "lattice spacing below the wavelength",
        LAMBDA, cfg.lattice.a, threshold=1.0)
    add("rayleigh", "array well inside the Rayleigh range",
        c.z_rayleigh, abs(c.z0))
    add("waist_coverage", "lattice extent covers the mode (n_side a >= 4w)",
        cfg.lattice.extent, c.w, threshold=4.0, severity="warning")

    return RegimeReport(checks=tuple(checks))


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
    """Convenience builder for a canonical config document."""
    cfg = FullConfig(
        physical=PhysicalConfig(),
        lattice=LatticeSpec(a=a, n_side=n_side),
        cavity=CavitySpec(w=w, l_fsr=l_fsr, kappa_c=kappa_c, z0=z0,
                          k_cut=4.0 / (w * Q)),
        trap=TrapSpec(omega_m=omega_m, eta=eta),
        drive=DriveSpec(Omega=Omega, delta_c=delta_c, delta=delta),
    )
    return emit_config(cfg)
