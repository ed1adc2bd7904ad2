"""Inter-qubit coupling matrices and their spectral-integral oracle.

``closed_form_channels`` evaluates the closed-form kernels (Y0 for the
coherent exchange, J0 for the four dissipative channels) at given
separations; ``build_couplings`` applies it to a qubit geometry.
``coupling_oracle`` recomputes single channel strengths from the underlying
bath-correlator representation: the time integral is done analytically (a
resonance delta for the dissipative channels, a principal value for the
exchange), the radial momentum integral numerically.  Of the exchange split
k^3/(k_q^2 - k^2) = -k + k_q^2 k/(k_q^2 - k^2) only the pole term is
integrated: the first term's Hankel transform has Abel limit exactly 0
(Gradshteyn & Ryzhik 6.621.4).  The two routes share only the Bessel J0
kernel evaluation and the overall normalization, which is carried by the
characteristic rate ``nu`` because the bare correlator prefactor inherits
the unit ambiguity of the printed material constants.
The exchange principal-value integral and the dissipative channels' resonant
integral do not depend on the bath, so each process computes them once per
(separation, params[, density]) and keeps them in bounded caches
(``_principal_value.cache_clear()`` and ``_resonant_integral.cache_clear()``
empty them).

Channel labels follow the superscripts of the dissipator weights:

* ``pm`` (+-)  correlated emission, weight (N+1)
* ``mp`` (-+)  correlated absorption, weight N
* ``pp`` (++)  pair emission, weight conj(M)
* ``mm`` (--)  pair absorption, weight M
* ``J``        coherent exchange; ``Jpp``/``Jmm`` are the pair-exchange
  coefficients, which vanish identically at pair resonance.
"""

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .bath import magnon_dispersion, pair_moments, resonant_wavelength
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


def _channel_moments(bath):
    """The bath moment weighting each dissipative channel (module docstring),
    keyed by channel in the order of GAMMA_CHANNELS: mp, pm, pp and mm read
    the magnon orderings mdm, mmd, mdmd and mm of `bath.pair_moments`."""
    moments = pair_moments(bath.N_kq, bath.M_kq)
    return dict(zip(GAMMA_CHANNELS, (moments[k] for k in ("mdm", "mmd", "mdmd", "mm"))))


def closed_form_channels(sep, params, bath):
    """Rate scale Gamma_0 = nu pi (omega_q - Delta_F) / Delta_0 (Hz) and the
    channels (J, gamma_mp, gamma_pm, gamma_pp, gamma_mm) at an array of
    separations `sep` (units of lambda): J = -Gamma_0 Y0 / 2 (0 at zero
    separation: no on-site exchange) and gamma = bath moment * Gamma_0 J0.
    These are the near-film closed forms (d = 0, no evanescent factor).

    Raises ConfigError, before any channel is computed, unless Gamma_0 is a
    finite, normal, positive float (the generator is scaled by 1/Gamma_0)
    and Gamma_0 (N + 1) is finite: it bounds every channel, as |M| <= N + 1.
    """
    base = params.nu_characteristic * np.pi * (
        params.detuning_angular / params.zero_field_splitting_angular
    )
    if not (np.isfinite(base) and base >= sys.float_info.min  # smallest normal float
            and np.isfinite(float(base) * (float(bath.N_kq) + 1.0))):
        raise ConfigError(
            f"rate scale Gamma_0 = nu pi (omega_q - Delta_F) / Delta_0 = {base!r} Hz "
            f"is not a finite, normal, positive number, or Gamma_0 (N + 1) with "
            f"N = {bath.N_kq!r} overflows"
        )
    j0 = bessel_j0(sep)
    j = np.zeros(sep.shape)
    apart = sep > 0
    j[apart] = -0.5 * base * bessel_y0(sep[apart])
    return base, (j,) + tuple(base * m * j0 for m in _channel_moments(bath).values())


def build_couplings(geometry, params, bath):
    """Closed-form coupling matrices (`closed_form_channels`) for a qubit
    layout sharing the bath; separations enter in units of the resonant
    wavelength.
    """
    sep = geometry.separations()
    n = geometry.n_qubits
    if n > 1 and np.any(sep[~np.eye(n, dtype=bool)] <= 0):
        raise ConfigError("coincident qubit positions are not allowed")

    base, channels = closed_form_channels(sep, params, bath)
    couplings = CouplingSet(
        *channels,
        nu=params.nu_characteristic,
        prefactor=base / params.nu_characteristic,
    )
    block = couplings.dissipation_block()
    # at unit scale, so that neither the norm nor eigvalsh overflows at any
    # finite Gamma_0
    block = block / np.max(np.abs(block))
    if np.min(np.linalg.eigvalsh(block)) < -1e-10 * np.linalg.norm(block):
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


def _delta_channel(rho_cm, moment, params):
    """K * integral dk k^3 J0(k rho) * moment * 2 pi delta(omega_k - omega_q)
    (`_resonant_integral` holds the integral)."""
    return _oracle_norm(params) * moment * 2.0 * np.pi * _resonant_integral(rho_cm, params)


@functools.lru_cache(maxsize=256)
def _resonant_integral(rho_cm, params):
    """integral dk k^3 J0(k rho) delta(omega_k - omega_q), with the delta
    smeared to a narrow Gaussian well inside the squeezing band (at d = 0, as
    in the closed forms).  It does not depend on the bath or the channel, so
    it is memoized like `_principal_value`."""
    dh = params.stiffness_over_hbar
    k_q, _ = resonant_wavelength(params)
    eps = params.bandwidth_angular / 20.0
    sigma_k = eps / (2.0 * dh * k_q)
    lo = max(k_q - 8.0 * sigma_k, 0.0)
    hi = k_q + 8.0 * sigma_k
    omega_q = params.omega_q

    def integrand(k):
        omega = magnon_dispersion(k, params)
        delta = np.exp(-0.5 * ((omega - omega_q) / eps) ** 2) / (eps * np.sqrt(2 * np.pi))
        return k ** 3 * bessel_j0(k * rho_cm) * delta

    return gauss_legendre_panels(integrand, np.linspace(lo, hi, 61))


# The exchange tail's window, in Bessel periods, and its rounds of half-period
# averaging: the cheapest pair whose worst deviation from a 400-period,
# 14-round run, over separations 1e-6 to 3 lambda and densities 1 to 2, is
# round-off (1.1e-15 Gamma_0).  A 12-period window, or 9 rounds, stays
# below 8e-15 Gamma_0.
_TAIL_PERIODS = 16
_TAIL_ROUNDS = 10

# The smallest separation of the exchange oracle, in units of lambda: the
# tail's end, about 21 Bessel periods out, has a square that overflows
# below about 1e-148 lambda
_MIN_SEPARATION = 1e-140


@functools.lru_cache(maxsize=256)
def _principal_value(rho_cm, params, n_scale):
    """PV integral dk k^3 J0(k rho) / (k_q^2 - k^2), as its Abel limit.

    Split algebraically as -k + k_q^2 k/(k_q^2 - k^2).  The first (pure
    Hankel) term regulated by e^{-2kd} integrates to -2d/(4d^2 + rho^2)^{3/2}
    (Gradshteyn & Ryzhik 6.621.4), whose limit d -> 0 is exactly 0 at
    rho > 0, so only the second term is computed.  It converges absolutely
    without a regulator: the pole is folded symmetrically, and the
    oscillatory tail, which falls as k^{-3/2}, is integrated over a window of
    _TAIL_PERIODS Bessel periods whose end is extrapolated by _TAIL_ROUNDS
    rounds of averaging partial integrals half a period apart (Longman, Proc.
    Camb. Phil. Soc. 52, 764 (1956)).  The tail's panels grow geometrically
    away from the pole up to a quarter period, so the node count grows only
    as log(1 / rho) at small separations.  `n_scale` multiplies panel
    densities (used by convergence checks).  A separation below
    _MIN_SEPARATION lambda raises ConfigError.  Memoized: call it with float
    arguments, positionally, so that equal inputs share one cache entry.
    """
    k_q, _ = resonant_wavelength(params)
    if not k_q * rho_cm >= _MIN_SEPARATION:
        raise ConfigError("exchange oracle needs a positive separation of at least "
                          f"{_MIN_SEPARATION:g} lambda, got {k_q * rho_cm:.3g} lambda")
    w = 0.5 * k_q

    def g(k):
        return k * bessel_j0(k * rho_cm) / (k_q + k)

    def folded(u):
        return (g(k_q - u) - g(k_q + u)) / u

    def pole_int(k):
        return k * bessel_j0(k * rho_cm) / (k_q ** 2 - k ** 2)

    n_in = int(np.ceil(n_scale * (24 + 8.0 * w * rho_cm / np.pi)))
    inner = gauss_legendre_panels(folded, np.linspace(0.0, w, n_in + 1))
    left = gauss_legendre_panels(pole_int, np.linspace(0.0, w, n_in + 1))

    # oscillatory tail from 1.5 k_q: panels as wide as their distance from
    # the pole (at n_scale 1), doubling every n_scale panels until they reach
    # a quarter Bessel period / n_scale, then _TAIL_PERIODS periods of such
    # panels
    half = np.pi / rho_cm
    quarter = 0.5 * half / n_scale
    growth = 2.0 ** (1.0 / n_scale)
    n_geo = max(0, int(np.ceil(np.log(quarter / (w * (growth - 1.0))) / np.log(growth))))
    geo = k_q + w * growth ** np.arange(n_geo + 1)
    k_end = geo[-1] + _TAIL_PERIODS * 2 * half
    n_win = int(np.ceil(_TAIL_PERIODS * 2 * half / quarter))
    edges = np.concatenate([geo[:-1], np.linspace(geo[-1], k_end, n_win + 1)])
    # partial integrals to k_end + j half (j = 0.._TAIL_ROUNDS), then as many
    # rounds of averaging neighbours half a period apart (Longman's Euler
    # transform of the alternating half-period terms)
    partial = [gauss_legendre_panels(pole_int, edges)]
    n_half = int(np.ceil(half / quarter))
    for j in range(_TAIL_ROUNDS):
        lo = k_end + j * half
        partial.append(partial[-1] + gauss_legendre_panels(
            pole_int, np.linspace(lo, lo + half, n_half + 1)))
    for _ in range(_TAIL_ROUNDS):
        partial = [0.5 * (a + b) for a, b in zip(partial[:-1], partial[1:])]
    right = partial[0]

    return k_q ** 2 * (inner + left + right)


def coupling_oracle(channel, rho_ab, params, bath, n_scale=1.0):
    """Channel strength recomputed from the correlator representation (Hz).

    `rho_ab` is the qubit separation in units of the resonant wavelength.
    Dissipative channels reduce to the on-shell residue (delta at
    omega_k = omega_q) and are integrated over the smeared delta; the
    exchange channel J keeps the principal-value part, whose radial pole term
    (`_principal_value`) reproduces the Y0 kernel.  The counter-rotating pole
    at omega_k = -omega_q (a static near-field contribution) is excluded, as
    it is in the closed forms.  ``Jpp``/``Jmm`` return the difference of the
    principal values of the two identical time-orderings evaluated on
    different grids: a quadrature-level zero.  A separation that is negative
    or not finite, or a panel density `n_scale` that is not positive and
    finite, raises ConfigError.
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

    moments = _channel_moments(bath)
    if channel in GAMMA_CHANNELS:
        return _delta_channel(rho_cm, moments[channel], params)

    if channel == "J":
        pv = _principal_value(rho_cm, params, n_scale)
        return -_oracle_norm(params) * pv / dh

    # pair-exchange coefficients: the two time-orderings give identical
    # integrands at pair resonance, so their on-shell halves cancel exactly;
    # evaluate the principal values at different quadrature densities so the
    # reported zero carries honest numerical content
    pv_weight = 0.5j * _oracle_norm(params) * moments[channel[1:]]
    term_a = pv_weight * _principal_value(rho_cm, params, n_scale) / dh
    term_b = pv_weight * _principal_value(rho_cm, params, 1.5 * n_scale) / dh
    return 0.5j * (term_a - term_b)
