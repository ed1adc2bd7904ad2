"""Squeezed magnon reservoir: dispersion, drive-induced pair coupling,
squeezing moments, and the time-domain magnon / stray-field correlators.

Conventions fixed here and relied on elsewhere:

* the parametric drive sits exactly at twice the qubit frequency, so the
  resonant magnon mode satisfies omega(k_q) = omega_q and k_q = 1/lambda;
* squeezing lives on a flat band of modes with |omega_k - omega_q| <= Dbar
  (half-width equal to the configured bandwidth);
* the drive wavevector is negligible against k_q, so pair partners are
  treated as (k, -k) and the dispersion as isotropic.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnstableSqueezingError
from .numerics import bessel_j0, quad_adaptive
from .params import DRIVE_CALIBRATION_ERG_S

DEFAULT_SQUEEZING_PHASE = -0.5 * np.pi  # phase of g = -i * (positive drive)


@dataclass(frozen=True)
class BathState:
    """Squeezed-vacuum state of the resonant magnon band.

    N_kq and M_kq are the occupation and anomalous moment of the band,
    |M|^2 = N(N+1) exactly (pure squeezed vacuum at zero temperature).
    """

    r_kq: float            # squeezing parameter, >= 0
    phi: float             # squeezing phase (rad)
    N_kq: float            # sinh^2(r)
    M_kq: complex          # -cosh(r) sinh(r) e^{i phi}
    lam: float             # resonant wavelength, cm

    @classmethod
    def from_squeezing(cls, r, phi=DEFAULT_SQUEEZING_PHASE, lam=0.0):
        if not (np.isfinite(r) and r >= 0):
            raise ConfigError(f"squeezing parameter must be finite and >= 0, got {r!r}")
        if not np.isfinite(phi):
            raise ConfigError(f"squeezing phase must be finite, got {phi!r}")
        with np.errstate(over="ignore"):
            n = np.sinh(r) ** 2
        if not np.isfinite(n):
            raise ConfigError(f"squeezing parameter {r!r} overflows the occupation sinh^2(r)")
        m = -np.cosh(r) * np.sinh(r) * np.exp(1j * phi)
        return cls(r_kq=float(r), phi=float(phi), N_kq=float(n), M_kq=complex(m),
                   lam=float(lam))


def magnon_dispersion(k, params):
    """Spin-wave frequency omega_k = (D/hbar) k^2 + Delta_F, in rad/s.

    Vectorized in k (1/cm); k must be >= 0.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("wavevector magnitude must be >= 0")
    return params.stiffness_over_hbar * k ** 2 + params.spin_wave_gap


def resonant_wavelength(params):
    """(k_q, lambda) of the magnon mode resonant with the qubit.

    lambda = sqrt((D/hbar) / (omega_q - Delta_F)); with the YIG/NV defaults
    this is 277 nm.  Requires omega_q > Delta_F, which the params validate.
    """
    det = params.detuning_angular
    if not det > 0:
        raise ConfigError("resonant wavelength undefined for omega_q <= Delta_F")
    lam = np.sqrt(params.stiffness_over_hbar / det)
    return 1.0 / lam, lam


def saw_coupling(params):
    """Pair-drive amplitude g induced by the surface-acoustic-wave strain.

    g = -i n L B_xy E_xy / (2 s), returned in rad/s: purely imaginary with
    phase -pi/2 for a positive drive, linear in the strain.  The absolute
    scale of the printed constants is fixed by the calibration constant in
    params (see the note there).
    """
    mag_hz = (
        DRIVE_CALIBRATION_ERG_S
        * params.site_density
        * params.thickness_cm
        * (params.magnetoelastic_Bxy * 1e9)
        * params.strain_Exy
        / (2.0 * params.surface_spin_density_s)
    )
    return -1j * 2.0 * np.pi * mag_hz


def squeezing_parameter(g, bandwidth, lam=0.0):
    """BathState produced by a pair drive of amplitude g within `bandwidth`.

    r = (1/2) arctanh(|g| / Dbar); the squeezing phase is the phase angle of
    g.  Only |g| < Dbar is stable; at or beyond the bandwidth the squeezed
    vacuum does not exist and UnstableSqueezingError is raised.
    """
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    gmag = abs(g)
    if gmag >= bandwidth:
        raise UnstableSqueezingError(
            f"|g| = {gmag:.6g} >= bandwidth {bandwidth:.6g}: outside the stable domain"
        )
    r = 0.5 * np.arctanh(gmag / bandwidth)
    phi = DEFAULT_SQUEEZING_PHASE if gmag == 0 else float(np.angle(g))
    return BathState.from_squeezing(r, phi, lam=lam)


def bath_from_params(params, r_override=None):
    """Convenience: resonant geometry plus squeezing from the configured drive.

    `r_override` bypasses the strain-derived drive and sets the squeezing
    parameter directly (used by the scenario runner).
    """
    _, lam = resonant_wavelength(params)
    if r_override is None:
        return squeezing_parameter(saw_coupling(params), params.bandwidth_angular, lam=lam)
    return BathState.from_squeezing(r_override, DEFAULT_SQUEEZING_PHASE, lam=lam)


# ---------------------------------------------------------------------------
# Correlators
# ---------------------------------------------------------------------------

#: magnon correlator kinds: 'm' annihilation, 'md' creation, read left-to-right
MAGNON_KINDS = ("mm", "mdmd", "mdm", "mmd")

#: stray-field correlator kinds, by the (+/-) field components correlated
FIELD_KINDS = ("-+", "+-", "--", "++")


def pair_moments(n, m):
    """Moment of each magnon ordering of MAGNON_KINDS for occupation n and
    anomalous moment m: <m m> = M, <m^dag m^dag> = M*, <m^dag m> = N and
    <m m^dag> = N + 1.  The correlators and the coupling channels all read
    the bath through this table."""
    return {"mm": m, "mdmd": np.conj(m), "mdm": n, "mmd": n + 1.0}


def magnon_correlator(kind, k, t, t_prime, bath, params):
    """Two-time correlator of the resonant-band magnon pair modes.

    Returns the moment-weighted phase factor; the momentum delta function is
    the caller's integration measure.  Kinds ('m' = annihilation, 'md' =
    creation, left to right), with the moments of `pair_moments`:

    * ``mm``   -> M_k  exp(-i omega_k (t + t'))
    * ``mdmd`` -> M_k* exp(+i omega_k (t + t'))
    * ``mdm``  -> N_k  exp(+i omega_k (t - t'))
    * ``mmd``  -> (N_k + 1) exp(-i omega_k (t - t'))

    N_k, M_k take their band values for |omega_k - omega_q| <= Dbar and are
    zero (vacuum) outside.
    """
    if kind not in MAGNON_KINDS:
        raise ValueError(f"unknown magnon correlator kind {kind!r}")
    omega = magnon_dispersion(k, params)
    inside = np.abs(omega - params.omega_q) <= params.bandwidth_angular
    moment = pair_moments(bath.N_kq * inside, bath.M_kq * inside)[kind]
    # pair kinds run on t + t', normal ones on t - t'; a leading m on -i omega
    lag = t + t_prime if kind in ("mm", "mdmd") else t - t_prime
    sign = -1j if kind in ("mm", "mmd") else 1j
    return moment * np.exp(sign * omega * lag)


def _radial_weight(k, rho_cm, params):
    """Common radial kernel pi gamma^2 s k^3 e^{-2kd} J0(k rho) of the
    stray-field correlators (equilibrium spin density along z-hat)."""
    pref = np.pi * params.gamma_bath ** 2 * params.surface_spin_density_s
    return pref * k ** 3 * np.exp(-2.0 * k * params.distance_cm) * bessel_j0(k * rho_cm)


def field_correlator(kind, rho_ab, t, t_prime, params, bath, tol=1e-8):
    """Two-time stray-field correlator <B^mu_a(t) B^nu_b(t')> at separation
    rho_ab (cm), as a radial spectral integral over the magnon continuum.

    kind selects the (mu, nu) field components: '-+', '+-', '--', '++'.
    The anomalous kinds ('--', '++') are supported on the squeezed band only;
    the normal kinds also carry the broadband vacuum term, which requires a
    positive film-qubit distance for ultraviolet convergence.  `tol` is the
    relative quadrature tolerance; failure raises QuadratureConvergenceError
    with the achieved estimate.  A separation that is negative or not finite,
    a time that is not finite, or a tolerance that is not positive and finite
    raises ConfigError.
    """
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field correlator kind {kind!r}")
    rho_ab, t, t_prime = float(rho_ab), float(t), float(t_prime)
    if not np.isfinite(rho_ab) or rho_ab < 0:
        raise ConfigError(f"correlator separation must be finite and >= 0, got {rho_ab!r}")
    if not (np.isfinite(t) and np.isfinite(t_prime)):
        raise ConfigError(f"correlator times must be finite, got t={t!r}, t'={t_prime!r}")
    tol = float(tol)
    if not np.isfinite(tol) or tol <= 0:
        raise ConfigError(f"correlator tolerance must be finite and > 0, got {tol!r}")
    d = params.distance_cm
    dh = params.stiffness_over_hbar
    omega_q = params.omega_q
    bw = params.bandwidth_angular
    k_q, _ = resonant_wavelength(params)

    # band edges in k for the squeezed modes
    lo = max(omega_q - bw - params.spin_wave_gap, 0.0)
    k_lo = np.sqrt(lo / dh)
    k_hi = np.sqrt((omega_q + bw - params.spin_wave_gap) / dh)

    def band_part(moment_phase):
        def f(k):
            omega = magnon_dispersion(k, params)
            return _radial_weight(k, rho_ab, params) * moment_phase(omega)
        scale = abs(_radial_weight(k_q, 0.0, params)) * (k_hi - k_lo)
        return quad_adaptive(f, [k_lo, k_hi], tol * max(scale, 1e-300)).value

    moments = pair_moments(bath.N_kq, bath.M_kq)
    if kind == "--":
        return band_part(lambda w: moments["mm"] * np.exp(1j * w * (t + t_prime)))
    if kind == "++":
        return band_part(lambda w: moments["mdmd"] * np.exp(-1j * w * (t + t_prime)))

    # normal kinds: broadband vacuum emission term + band-limited occupation.
    # Both '-+' and '+-' carry (N+1) on exp(-i omega tau) and N on
    # exp(+i omega tau); they differ only through the band moments on a
    # thermal bath, which is out of scope here (T -> 0).
    if not d > 0:
        raise ConfigError(
            "field_correlator needs qubit_film_distance_d > 0 for the "
            "broadband vacuum term"
        )
    tau = t - t_prime
    vac = _vacuum_term(rho_ab, tau, params, tol)
    if moments["mdm"] == 0.0:
        return vac
    occ_minus = band_part(lambda w: moments["mdm"] * np.exp(-1j * w * tau))
    occ_plus = band_part(lambda w: moments["mdm"] * np.exp(1j * w * tau))
    return vac + occ_minus + occ_plus


@functools.lru_cache(maxsize=256)
def _vacuum_term(rho_ab, tau, params, tol):
    """Broadband vacuum emission term of the normal correlators at separation
    rho_ab (cm) and lag tau (s): the radial weight times exp(-i omega tau)
    over the whole continuum, cut where e^{-2kd} falls below 1e-12.

    It does not depend on the bath, and '-+' and '+-' share it, so it is
    memoized per process; call it with float arguments, positionally, so
    that equal inputs share one cache entry.
    """
    d = params.distance_cm
    k_cut = 0.5 * np.log(1e12) / d  # e^{-2kd} below 1e-12 past here

    def vacuum(k):
        omega = magnon_dispersion(k, params)
        return _radial_weight(k, rho_ab, params) * np.exp(-1j * omega * tau)

    # scale for the relative tolerance: |integrand| <= pi gamma^2 s * 3/(8 d^4)
    vac_scale = np.pi * params.gamma_bath ** 2 * params.surface_spin_density_s * 0.375 / d ** 4
    # seed the partition from the known phase count (dispersion + Bessel)
    n_osc = abs(tau) * magnon_dispersion(k_cut, params) + k_cut * rho_ab
    n_panels = min(200000, int(32 + 2.0 * n_osc))
    seed = np.linspace(0.0, k_cut, n_panels + 1)
    return quad_adaptive(vacuum, seed, tol * vac_scale).value
