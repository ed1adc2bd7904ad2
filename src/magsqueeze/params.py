"""Physical constants, unit conversions, and configuration parsing.

All quantities are stored in the units the configuration file uses (so a
serialize/load round trip is bit-exact) and converted to internal CGS-Gaussian
angular-frequency units through the properties below.  The single convention
everything else relies on: a frequency quoted in Hz-like units is multiplied
by 2*pi when it enters a formula as an angular frequency.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

HBAR_CGS = 1.054571817e-27  # erg s

_TWO_PI = 2.0 * np.pi

# Effective action scale for the strain -> pair-drive conversion.  The printed
# CGS values of the magnetoelastic constant (GHz) and the surface spin density
# (G^2 cm s) are not mutually consistent under any plain hbar bookkeeping, so
# the overall scale is pinned by the quoted YIG operating point:
# strain 1e-4 <-> |g| = 0.1 MHz.  The formula structure (linearity in strain,
# thickness, site density, magnetoelastic constant; 1/s scaling) is untouched.
DRIVE_CALIBRATION_ERG_S = 1.1232597585513078e-28


@dataclass(frozen=True)
class PhysicalParams:
    """Material, drive, and qubit constants.

    Fields are in config-file units (suffix of the corresponding key);
    angular/CGS values come from the properties.  Immutable; safe to share.
    """

    spin_stiffness_D: float = 5.1e-28        # erg cm^2
    surface_spin_density_s: float = 1.2e-10  # G^2 cm s (opaque CGS bookkeeping)
    anisotropy_gap_2As: float = 3.6e-18      # erg (consumed as energy)
    film_thickness_L: float = 20.0           # nm
    lattice_const_a0: float = 12.3           # Angstrom
    magnetoelastic_Bxy: float = 1988.0       # GHz
    bias_field_B0: float = 40.0              # mT
    gyromagnetic_gamma: float = 2.8          # MHz/G, bath
    gyromagnetic_gamma_tilde: float = 2.8    # MHz/G, qubit
    zero_field_splitting_D0: float = 2.87    # GHz
    strain_Exy: float = 1e-4                 # dimensionless
    squeeze_bandwidth_Dbar: float = 0.25     # MHz
    qubit_film_distance_d: float = 20.0      # nm
    nu_characteristic: float = 75.0          # Hz
    detuning_wq_minus_DF: float = 100.0      # MHz

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        positive = [
            "spin_stiffness_D", "surface_spin_density_s", "anisotropy_gap_2As",
            "film_thickness_L", "lattice_const_a0", "magnetoelastic_Bxy",
            "bias_field_B0", "gyromagnetic_gamma", "gyromagnetic_gamma_tilde",
            "zero_field_splitting_D0", "squeeze_bandwidth_Dbar",
            "nu_characteristic",
        ]
        for name in positive:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be strictly positive")
        if self.strain_Exy < 0:
            raise ConfigError("strain_Exy must be non-negative")
        if self.qubit_film_distance_d < 0:
            raise ConfigError("qubit_film_distance_d must be non-negative")
        if not self.detuning_wq_minus_DF > 0:
            raise ConfigError(
                "detuning_wq_minus_DF must be positive: "
                "the regime omega_q <= Delta_F is not supported"
            )

    # -- internal (angular, CGS) values ------------------------------------

    @property
    def stiffness_over_hbar(self):
        """Spin stiffness D/hbar in rad/s cm^2."""
        return self.spin_stiffness_D / HBAR_CGS

    @property
    def gap_angular(self):
        """Anisotropy gap 2As/hbar in rad/s."""
        return self.anisotropy_gap_2As / HBAR_CGS

    @property
    def gamma_bath(self):
        """Bath gyromagnetic ratio in rad/(s G)."""
        return _TWO_PI * self.gyromagnetic_gamma * 1e6

    @property
    def bias_field_G(self):
        return self.bias_field_B0 * 10.0

    @property
    def spin_wave_gap(self):
        """Delta_F = 2As/hbar + gamma*B0 in rad/s (magnon frequency at k=0)."""
        return self.gap_angular + self.gamma_bath * self.bias_field_G

    @property
    def detuning_angular(self):
        """omega_q - Delta_F in rad/s."""
        return _TWO_PI * self.detuning_wq_minus_DF * 1e6

    @property
    def omega_q(self):
        """Qubit resonance in rad/s (gap plus the configured detuning)."""
        return self.spin_wave_gap + self.detuning_angular

    @property
    def zero_field_splitting_angular(self):
        return _TWO_PI * self.zero_field_splitting_D0 * 1e9

    @property
    def bandwidth_angular(self):
        return _TWO_PI * self.squeeze_bandwidth_Dbar * 1e6

    @property
    def thickness_cm(self):
        return self.film_thickness_L * 1e-7

    @property
    def lattice_cm(self):
        return self.lattice_const_a0 * 1e-8

    @property
    def distance_cm(self):
        return self.qubit_film_distance_d * 1e-7

    @property
    def site_density(self):
        """Cubic-cell number density 1/a0^3 in cm^-3."""
        return 1.0 / self.lattice_cm ** 3


@dataclass(frozen=True)
class ArrayGeometry:
    """Qubit positions in the plane, in units of the resonant wavelength."""

    positions: np.ndarray  # shape (N, 2), units of lambda
    lattice_const_a_over_lambda: float = 0.0

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ConfigError("positions must be an (N, 2) array with N >= 1")
        if not np.all(np.isfinite(pos)):
            raise ConfigError("qubit positions must be finite")
        if not np.isfinite(self.lattice_const_a_over_lambda):
            raise ConfigError("lattice_const_a_over_lambda must be finite")
        object.__setattr__(self, "positions", pos)
        if self.n_qubits > 1:
            d = self.separations()
            off = d[~np.eye(self.n_qubits, dtype=bool)]
            if np.any(off <= 0):
                raise ConfigError("coincident qubit positions are not allowed")

    @classmethod
    def chain(cls, n_qubits, a_over_lambda):
        """Equally spaced 1-d chain along x-hat (the default layout)."""
        if n_qubits < 1:
            raise ConfigError("n_qubits must be >= 1")
        if n_qubits > 1 and not a_over_lambda > 0:
            raise ConfigError("a_over_lambda must be positive for N > 1")
        if not np.isfinite(a_over_lambda):
            raise ConfigError("a_over_lambda must be finite")
        xs = a_over_lambda * np.arange(n_qubits, dtype=float)
        pos = np.column_stack([xs, np.zeros(n_qubits)])
        return cls(positions=pos, lattice_const_a_over_lambda=float(a_over_lambda))

    @property
    def n_qubits(self):
        return self.positions.shape[0]

    def separations(self):
        """Pairwise distance matrix rho_ab / lambda, shape (N, N)."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        return np.sqrt(np.sum(diff ** 2, axis=-1))

    def digest(self):
        """Stable hash of the layout, for provenance records."""
        h = hashlib.sha256(np.ascontiguousarray(self.positions).tobytes())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

# config key -> PhysicalParams field
_PARAM_KEYS = {
    "D_erg_cm2": "spin_stiffness_D",
    "s_G2_cm_s": "surface_spin_density_s",
    "gap_2As_erg": "anisotropy_gap_2As",
    "L_nm": "film_thickness_L",
    "a0_angstrom": "lattice_const_a0",
    "Bxy_GHz": "magnetoelastic_Bxy",
    "B0_mT": "bias_field_B0",
    "gamma_MHz_per_G": "gyromagnetic_gamma",
    "gamma_tilde_MHz_per_G": "gyromagnetic_gamma_tilde",
    "Delta0_GHz": "zero_field_splitting_D0",
    "strain_Exy": "strain_Exy",
    "Dbar_MHz": "squeeze_bandwidth_Dbar",
    "d_nm": "qubit_film_distance_d",
    "nu_Hz": "nu_characteristic",
    "detuning_MHz": "detuning_wq_minus_DF",
}
_GEOMETRY_KEYS = ("n_qubits", "a_over_lambda")
_DRIVE_KEY = "omega_s_MHz"  # accepted only at exact pair resonance; never stored


def _parse_value(key, val, where):
    """Value of config key `key` from its text: int for n_qubits, else float.
    Unknown keys and empty or unreadable values raise ConfigError naming
    `where`."""
    if key not in _PARAM_KEYS and key not in _GEOMETRY_KEYS and key != _DRIVE_KEY:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if not val:
        raise ConfigError(f"{where}: missing value for key {key!r}")
    try:
        return int(val) if key == "n_qubits" else float(val)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {val!r}") from exc


def parse_config_text(text):
    """Parse `key = value` lines; '#' starts a comment.  Unknown keys error."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        value = _parse_value(key, val.strip(), f"line {lineno}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def config_from_values(values):
    """Build (PhysicalParams, ArrayGeometry) from a parsed key/value map."""
    kwargs = {
        _PARAM_KEYS[k]: v for k, v in values.items() if k in _PARAM_KEYS
    }
    params = PhysicalParams(**kwargs)
    if _DRIVE_KEY in values:
        want = 2.0 * params.omega_q / (_TWO_PI * 1e6)
        got = values[_DRIVE_KEY]
        if abs(got - want) > 1e-9 * want:
            raise ConfigError(
                f"{_DRIVE_KEY}={got!r} violates the pair-resonance condition "
                f"omega_s = 2*omega_q (expected {want!r} MHz)"
            )
    n = int(values.get("n_qubits", 2))
    a = float(values.get("a_over_lambda", 0.5))
    return params, ArrayGeometry.chain(n, a)


def load_config(path):
    """Load a plain-text config file; returns (PhysicalParams, ArrayGeometry).

    Every key is optional; omitted keys fall back to the YIG/NV defaults.
    Unknown keys are rejected (fail-closed).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return config_from_values(parse_config_text(text))


def serialize_config(params, geometry):
    """Render params + geometry as config text; load() of it is bit-exact.

    Config text describes only `ArrayGeometry.chain` layouts; any other
    geometry raises ConfigError instead of reloading as a different one.
    """
    n, a = geometry.n_qubits, geometry.lattice_const_a_over_lambda
    if (n > 1 and not a > 0) or not np.array_equal(
        geometry.positions, ArrayGeometry.chain(n, a).positions
    ):
        raise ConfigError("only ArrayGeometry.chain layouts can be written as config text")
    lines = []
    for key, name in _PARAM_KEYS.items():
        lines.append(f"{key} = {getattr(params, name)!r}")
    lines.append(f"n_qubits = {geometry.n_qubits}")
    lines.append(f"a_over_lambda = {geometry.lattice_const_a_over_lambda!r}")
    return "\n".join(lines) + "\n"


def apply_overrides(params, geometry, overrides):
    """Apply `key=value` override strings (same keys as the config file,
    but no comments: the whole text after '=' is the value)."""
    merged = parse_config_text(serialize_config(params, geometry))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        merged[key] = _parse_value(key, val.strip(), f"override {item!r}")
    return config_from_values(merged)
