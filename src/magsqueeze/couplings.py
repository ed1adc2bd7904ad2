"""Inter-qubit coupling matrices and their spectral-integral oracle.

``closed_form_channels`` evaluates the closed-form kernels (Y0 for the
coherent exchange, J0 for the four dissipative channels) at given
separations; ``build_couplings`` applies it to a qubit geometry.
``coupling_oracle`` recomputes single channel strengths from the underlying
bath-correlator representation: the time integral is done analytically (a
resonance delta for the dissipative channels, a principal value for the
exchange), the radial momentum integral numerically.  The two routes share
only the Bessel J0 kernel evaluation and the overall normalization, which is
carried by the characteristic rate ``nu`` because the bare correlator
prefactor inherits the unit ambiguity of the printed material constants.
The exchange principal-value integral does not depend on the bath, so each
process computes it once per (separation, params, density) and keeps it in a
bounded cache (``_pv_extrapolated.cache_clear()`` empties it).

Channel labels follow the superscripts of the dissipator weights:

* ``pm`` (+-)  correlated emission, weight (N+1)
* ``mp`` (-+)  correlated absorption, weight N
* ``pp`` (++)  pair emission, weight conj(M)
* ``mm`` (--)  pair absorption, weight M
* ``J``        coherent exchange; ``Jpp``/``Jmm`` are the pair-exchange
  coefficients, which vanish identically at pair resonance.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .bath import resonant_wavelength
from .errors import ConfigError
from .numerics import bessel_j0, bessel_y0, gauss_legendre_panels

GAMMA_CHANNELS = ("mp", "pm", "pp", "mm")
ORACLE_CHANNELS = GAMMA_CHANNELS + ("J", "Jpp", "Jmm")


@dataclass(frozen=True, eq=False)
class CouplingSet:
    """The five N x N coupling matrices, in Hz (same convention as nu).

    All matrices are symmetric functions of the separations; gamma_pp is the
    elementwise conjugate of gamma_mm; the diagonal of j is zero (the
    exchange Hamiltonian has no on-site term).  The 2N x 2N block matrix
    [[gamma_pm, gamma_pp], [gamma_mm, gamma_mp]] is positive semidefinite,
    which is what makes the four channels a valid dissipator.
    """

    j: np.ndarray          # real, coherent exchange
    gamma_mp: np.ndarray   # real, absorption
    gamma_pm: np.ndarray   # real, emission
    gamma_pp: np.ndarray   # complex, pair emission
    gamma_mm: np.ndarray   # complex, pair absorption
    nu: float              # characteristic rate, Hz
    prefactor: float       # pi (omega_q - Delta_F) / Delta_0, dimensionless
    geometry_digest: str = ""

    @property
    def n_qubits(self):
        return self.j.shape[0]

    @property
    def gamma0(self):
        """Vacuum relaxation rate of an isolated qubit, nu * prefactor (Hz)."""
        return self.nu * self.prefactor

    def dissipation_block(self):
        """The Hermitian 2N x 2N channel-weight block matrix."""
        top = np.hstack([self.gamma_pm, self.gamma_pp])
        bot = np.hstack([self.gamma_mm, self.gamma_mp])
        return np.vstack([top, bot])


def closed_form_channels(sep, params, bath, finite_distance=False):
    """Rate scale Gamma_0 = nu pi (omega_q - Delta_F) / Delta_0 (Hz) and the
    channels (J, gamma_mp, gamma_pm, gamma_pp, gamma_mm) at an array of
    separations `sep` (units of lambda): J = -Gamma_0 Y0 / 2 (0 at zero
    separation: no on-site exchange) and gamma = bath moment * Gamma_0 J0.
    `finite_distance` multiplies Gamma_0 by the evanescent factor
    exp(-2 d / lambda) of the stray field at the resonant mode.
    """
    base = params.nu_characteristic * np.pi * (
        params.detuning_angular / params.zero_field_splitting_angular
    )
    if finite_distance:
        if bath.lam <= 0:
            raise ConfigError("finite-distance correction needs the resonant wavelength")
        base = base * np.exp(-2.0 * params.distance_cm / bath.lam)
    j0 = bessel_j0(sep)
    j = np.zeros(sep.shape)
    apart = sep > 0
    j[apart] = -0.5 * base * bessel_y0(sep[apart])
    moments = (bath.N_kq, bath.N_kq + 1.0, np.conj(bath.M_kq), bath.M_kq)
    return base, (j,) + tuple(base * m * j0 for m in moments)


def build_couplings(geometry, params, bath, finite_distance=False):
    """Closed-form coupling matrices for a qubit layout sharing the bath.

    Separations enter in units of the resonant wavelength; `finite_distance`
    is as in `closed_form_channels` (off by default, matching the near-film
    closed forms).
    """
    sep = geometry.separations()
    n = geometry.n_qubits
    if n > 1 and np.any(sep[~np.eye(n, dtype=bool)] <= 0):
        raise ConfigError("coincident qubit positions are not allowed")

    base, channels = closed_form_channels(sep, params, bath, finite_distance)
    couplings = CouplingSet(
        *channels,
        nu=params.nu_characteristic,
        prefactor=base / params.nu_characteristic,
        geometry_digest=geometry.digest(),
    )
    block = couplings.dissipation_block()
    floor = -1e-10 * np.linalg.norm(block)
    if np.min(np.linalg.eigvalsh(block)) < floor:
        raise ConfigError("dissipation block lost positive semidefiniteness")
    return couplings


# ---------------------------------------------------------------------------
# Oracle: resonance-delta / principal-value reduction of the correlator route
# ---------------------------------------------------------------------------


def _oracle_norm(params):
    """Overall scale nu (D/hbar)^2 / Delta_0 replacing the bare correlator
    prefactor (whose printed units are not self-consistent); all channel
    shapes, Jacobians, and moments are computed independently of it."""
    return (
        params.nu_characteristic
        * params.stiffness_over_hbar ** 2
        / params.zero_field_splitting_angular
    )


def _delta_channel(rho_cm, moment, params, distance_cm):
    """K * integral dk k^3 e^{-2kd} J0(k rho) * moment * 2 pi delta(omega_k - omega_q),
    with the delta smeared to a narrow Gaussian well inside the squeezing band."""
    dh = params.stiffness_over_hbar
    k_q, _ = resonant_wavelength(params)
    eps = params.bandwidth_angular / 20.0
    sigma_k = eps / (2.0 * dh * k_q)
    lo = max(k_q - 8.0 * sigma_k, 0.0)
    hi = k_q + 8.0 * sigma_k
    omega_q = params.omega_q

    def integrand(k):
        omega = dh * k ** 2 + params.spin_wave_gap
        delta = np.exp(-0.5 * ((omega - omega_q) / eps) ** 2) / (eps * np.sqrt(2 * np.pi))
        return (
            k ** 3
            * np.exp(-2.0 * k * distance_cm)
            * bessel_j0(k * rho_cm)
            * delta
        )

    edges = np.linspace(lo, hi, 61)
    return _oracle_norm(params) * moment * 2.0 * np.pi * gauss_legendre_panels(integrand, edges)


def _neville_at_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    y = list(ys)
    n = len(y)
    for level in range(1, n):
        for i in range(n - level):
            y[i] = y[i + 1] + (y[i] - y[i + 1]) * xs[i + level] / (
                xs[i + level] - xs[i]
            )
    return y[0]


@functools.lru_cache(maxsize=256)
def _pv_extrapolated(rho_cm, params, n_scale):
    """Abel limit of PV integral dk k^3 e^{-2kd} J0(k rho) / (k_q^2 - k^2).

    Split algebraically as -k + k_q^2 k/(k_q^2 - k^2).  The first (pure
    Hankel) term needs the evanescent regulator and is extrapolated d -> 0
    on a separation-scaled sequence; the second converges absolutely without
    a regulator: the pole is folded symmetrically and the oscillatory tail is
    summed with half-period averaging.  `n_scale` multiplies panel densities
    (used by convergence checks).  Memoized: call it with float arguments,
    positionally, so that equal inputs share one cache entry.
    """
    if rho_cm <= 0:
        raise ConfigError("exchange oracle needs a positive separation")
    k_q, _ = resonant_wavelength(params)

    # regulated Hankel term: 4-point extrapolation captures through d^3
    d0 = rho_cm / 40.0
    ds = [d0, 0.5 * d0, 0.25 * d0, 0.125 * d0]
    t1s = []
    for d in ds:
        k_max = 0.5 * np.log(1e12) / d
        n = int(np.ceil(n_scale * (32 + 2.0 * k_max * rho_cm / np.pi)))
        t1s.append(
            -gauss_legendre_panels(
                lambda k: k * np.exp(-2.0 * k * d) * bessel_j0(k * rho_cm),
                np.linspace(0.0, k_max, n + 1),
            )
        )
    t1 = _neville_at_zero(ds, t1s)

    # pole term at d = 0
    w = 0.5 * k_q

    def g(k):
        return k * bessel_j0(k * rho_cm) / (k_q + k)

    def folded(u):
        return (g(k_q - u) - g(k_q + u)) / u

    def pole_int(k):
        return k * bessel_j0(k * rho_cm) / (k_q ** 2 - k ** 2)

    n_in = int(np.ceil(n_scale * (24 + 8.0 * w * rho_cm / np.pi)))
    inner = gauss_legendre_panels(folded, np.linspace(w * 1e-9, w, n_in + 1))
    left = gauss_legendre_panels(pole_int, np.linspace(0.0, w, n_in + 1))

    # oscillatory tail: integrate to ~4000 radians of Bessel phase, then
    # average the partial integrals half a period apart
    half = np.pi / rho_cm
    k_end = 1.5 * k_q + max(np.ceil(4000.0 / (rho_cm * 2 * half)), 4) * 2 * half
    dk = min(0.5 * half, 0.5 * k_q) / n_scale
    n_r = int(np.ceil((k_end - 1.5 * k_q) / dk))
    right_a = gauss_legendre_panels(pole_int, np.linspace(1.5 * k_q, k_end, n_r + 1))
    extra = gauss_legendre_panels(
        pole_int, np.linspace(k_end, k_end + half, max(4, int(np.ceil(n_scale * 8))))
    )
    right = right_a + 0.5 * extra

    return t1 + k_q ** 2 * (inner + left + right)


def coupling_oracle(channel, rho_ab, params, bath, n_scale=1.0):
    """Channel strength recomputed from the correlator representation (Hz).

    `rho_ab` is the qubit separation in units of the resonant wavelength.
    Dissipative channels reduce to the on-shell residue (delta at
    omega_k = omega_q) and are integrated over the smeared delta; the
    exchange channel J keeps the principal-value part, whose Abel-regulated
    radial integral reproduces the Y0 kernel.  The counter-rotating pole at
    omega_k = -omega_q (a static near-field contribution) is excluded, as it
    is in the closed forms.  ``Jpp``/``Jmm`` return the difference of the two
    identical time-orderings evaluated on different grids: a quadrature-level
    zero.  A separation that is negative or not finite, or a panel density
    `n_scale` that is not positive and finite, raises ConfigError.
    """
    if channel not in ORACLE_CHANNELS:
        raise ConfigError(f"unknown oracle channel {channel!r}")
    rho_ab = float(rho_ab)
    if not np.isfinite(rho_ab) or rho_ab < 0:
        raise ConfigError(f"oracle separation must be finite and >= 0, got {rho_ab!r}")
    n_scale = float(n_scale)
    if not np.isfinite(n_scale) or n_scale <= 0:
        raise ConfigError(f"oracle panel density must be finite and > 0, got {n_scale!r}")
    dh = params.stiffness_over_hbar
    rho_cm = rho_ab * resonant_wavelength(params)[1]

    if channel in GAMMA_CHANNELS:
        moment = {
            "mp": bath.N_kq,
            "pm": bath.N_kq + 1.0,
            "pp": np.conj(bath.M_kq),
            "mm": bath.M_kq,
        }[channel]
        return _delta_channel(rho_cm, moment, params, 0.0)

    if channel == "J":
        pv = _pv_extrapolated(rho_cm, params, n_scale)
        return -_oracle_norm(params) * pv / dh

    # pair-exchange coefficients: the two time-orderings give identical
    # integrands at pair resonance; evaluate them at different quadrature
    # densities so the reported zero carries honest numerical content
    moment = np.conj(bath.M_kq) if channel == "Jpp" else bath.M_kq
    half_delta = _delta_channel(rho_cm, moment, params, 0.0) / 2.0
    pv_weight = 0.5j * _oracle_norm(params) * moment
    term_a = half_delta + pv_weight * _pv_extrapolated(rho_cm, params, n_scale) / dh
    term_b = half_delta + pv_weight * _pv_extrapolated(rho_cm, params, 1.5 * n_scale) / dh
    return 0.5j * (term_a - term_b)
