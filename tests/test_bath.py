import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze.bath import (
    BathState,
    _vacuum_term,
    bath_from_params,
    field_correlator,
    magnon_correlator,
    magnon_dispersion,
    resonant_wavelength,
    saw_coupling,
    squeezing_parameter,
)
from magsqueeze.errors import ConfigError, UnstableSqueezingError
from magsqueeze.params import PhysicalParams

P = PhysicalParams()
K_Q, LAMBDA = resonant_wavelength(P)


class TestDispersion:
    def test_gap_at_zero(self):
        assert magnon_dispersion(0.0, P) == P.spin_wave_gap

    def test_resonance_at_kq(self):
        assert magnon_dispersion(K_Q, P) == pytest.approx(P.omega_q, rel=1e-14)

    def test_reference_wavelength(self):
        # D/hbar = 0.4836 cm^2/s and 100 MHz detuning give 277.4 nm
        assert P.stiffness_over_hbar == pytest.approx(0.4836, abs=2e-4)
        assert LAMBDA * 1e7 == pytest.approx(277.4, abs=0.1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            magnon_dispersion(-1.0, P)

    def test_quadratic_in_k(self):
        k = np.array([1e4, 2e4])
        w = magnon_dispersion(k, P) - P.spin_wave_gap
        assert w[1] == pytest.approx(4 * w[0])


class TestResonantWavelength:
    def test_default_anchor(self):
        assert LAMBDA * 1e7 == pytest.approx(277.0, abs=3.0)
        assert K_Q == pytest.approx(1.0 / LAMBDA)

    def test_sqrt_scaling(self):
        _, lam4 = resonant_wavelength(PhysicalParams(detuning_wq_minus_DF=400.0))
        assert lam4 == pytest.approx(LAMBDA / 2.0, rel=1e-12)

    def test_400mhz_value(self):
        # closed-form evaluation cross-checked against the 277 nm anchor
        _, lam4 = resonant_wavelength(PhysicalParams(detuning_wq_minus_DF=400.0))
        assert lam4 * 1e7 == pytest.approx(138.7, abs=0.1)


class TestSawCoupling:
    def test_reference_drive_strength(self):
        g = saw_coupling(P)
        assert abs(g) / (2 * np.pi) == pytest.approx(0.1e6, rel=1e-4)

    def test_phase_is_minus_i(self):
        g = saw_coupling(P)
        assert np.angle(g) == pytest.approx(-np.pi / 2)
        assert g.real == pytest.approx(0.0, abs=1e-12 * abs(g))

    def test_zero_drive(self):
        assert saw_coupling(PhysicalParams(strain_Exy=0.0)) == 0

    def test_linearity_in_strain(self):
        g1 = saw_coupling(PhysicalParams(strain_Exy=1e-4))
        g2 = saw_coupling(PhysicalParams(strain_Exy=2e-4))
        assert g2 == pytest.approx(2 * g1)


class TestSqueezingParameter:
    def test_reference_point(self):
        bs = squeezing_parameter(-0.1e6j * 2 * np.pi, 2 * np.pi * 0.25e6)
        assert bs.r_kq == pytest.approx(0.21182, abs=1e-5)
        assert bs.N_kq == pytest.approx(0.0455, abs=1e-4)
        assert abs(bs.M_kq) == pytest.approx(0.2182, abs=1e-4)

    def test_zero_drive(self):
        bs = squeezing_parameter(0.0, 1.0)
        assert bs.r_kq == 0 and bs.N_kq == 0 and bs.M_kq == 0

    def test_instability_at_bandwidth(self):
        with pytest.raises(UnstableSqueezingError):
            squeezing_parameter(1.0, 1.0)
        with pytest.raises(UnstableSqueezingError):
            squeezing_parameter(1.5j, 1.0)

    @given(st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=80, deadline=None)
    def test_moment_identity(self, r):
        bs = BathState.from_squeezing(r, phi=0.7)
        assert abs(bs.M_kq) ** 2 == pytest.approx(
            bs.N_kq * (bs.N_kq + 1.0), rel=1e-13, abs=1e-13
        )
        assert bs.N_kq >= 0

    @pytest.mark.parametrize(
        "r,phi",
        [(-0.5, 0.0), (np.nan, 0.0), (np.inf, 0.0), (400.0, 0.0),
         (0.25, np.nan), (0.25, -np.inf)],
    )
    def test_bad_squeezing_rejected(self, r, phi):
        with pytest.raises(ConfigError):
            BathState.from_squeezing(r, phi=phi)

    def test_monotone_in_drive(self):
        gs = np.linspace(0.0, 0.99, 40)
        rs = [squeezing_parameter(g, 1.0).r_kq for g in gs]
        assert np.all(np.diff(rs) > 0)

    def test_weak_drive_limit(self):
        # r -> |g| / (2 Dbar), within 1% for |g|/Dbar < 0.1
        for ratio in (0.01, 0.05, 0.099):
            bs = squeezing_parameter(ratio, 1.0)
            assert bs.r_kq == pytest.approx(ratio / 2.0, rel=1e-2)

    def test_phase_follows_drive(self):
        bs = squeezing_parameter(0.3 * np.exp(0.4j), 1.0)
        assert bs.phi == pytest.approx(0.4)
        assert np.angle(-bs.M_kq) == pytest.approx(0.4)


class TestBathFromParams:
    def test_default_uses_strain_drive(self):
        bs = bath_from_params(P)
        assert bs.r_kq == pytest.approx(0.21182, abs=1e-5)
        assert bs.lam == pytest.approx(LAMBDA)

    def test_override_sets_r_directly(self):
        bs = bath_from_params(P, r_override=0.25)
        assert bs.r_kq == 0.25
        assert bs.g_mag == pytest.approx(P.bandwidth_angular * np.tanh(0.5))


class TestMagnonCorrelator:
    def test_pair_moment_vanishes_unsqueezed(self):
        bs = BathState.from_squeezing(0.0, k_q=K_Q, lam=LAMBDA)
        assert magnon_correlator("mm", K_Q, 0.3, 0.1, bs, P) == 0

    def test_vacuum_equal_time(self):
        bs = BathState.from_squeezing(0.0, k_q=K_Q, lam=LAMBDA)
        assert magnon_correlator("mmd", K_Q, 0.2, 0.2, bs, P) == pytest.approx(1.0)

    def test_pair_symmetric_in_time_sum(self):
        bs = BathState.from_squeezing(0.3, k_q=K_Q, lam=LAMBDA)
        a = magnon_correlator("mm", K_Q, 1e-9, 3e-9, bs, P)
        b = magnon_correlator("mm", K_Q, 3e-9, 1e-9, bs, P)
        assert a == pytest.approx(b)

    def test_occupation_outside_band_is_vacuum(self):
        bs = BathState.from_squeezing(0.5, k_q=K_Q, lam=LAMBDA)
        assert magnon_correlator("mdm", 2.0 * K_Q, 0.0, 0.0, bs, P) == 0

    def test_unknown_kind(self):
        bs = BathState.from_squeezing(0.1)
        with pytest.raises(ValueError):
            magnon_correlator("xx", K_Q, 0, 0, bs, P)


class TestFieldCorrelator:
    BS = bath_from_params(P, r_override=0.25)
    VACUUM = BathState.from_squeezing(0.0, k_q=K_Q, lam=LAMBDA)

    def test_anomalous_vanish_unsqueezed(self):
        for kind in ("--", "++"):
            assert field_correlator(kind, 0.3 * LAMBDA, 1e-9, 2e-9, P, self.VACUUM) == 0

    def test_on_site_vacuum_weight(self):
        # equal times, r = 0: integral of k^3 e^{-2kd} has the closed form
        # 3! / (2d)^4, up to the correlator prefactor
        got = field_correlator("+-", 0.0, 0.0, 0.0, P, self.VACUUM)
        expected = (
            np.pi * P.gamma_bath ** 2 * P.surface_spin_density_s
            * 6.0 / (2.0 * P.distance_cm) ** 4
        )
        assert got.imag == pytest.approx(0.0, abs=1e-8 * abs(got))
        assert got.real == pytest.approx(expected, rel=1e-7)
        assert got.real > 0

    def test_hermitian_pair(self):
        a = field_correlator("+-", 0.5 * LAMBDA, 1e-9, 3e-9, P, self.BS)
        b = field_correlator("-+", 0.5 * LAMBDA, 3e-9, 1e-9, P, self.BS)
        assert a == pytest.approx(np.conj(b), rel=1e-9)

    def test_quadrature_convergence(self):
        # tightening the tolerance by 100x moves the value by < the loose tol
        loose = field_correlator("+-", 0.4 * LAMBDA, 0.0, 1e-9, P, self.BS, tol=1e-6)
        tight = field_correlator("+-", 0.4 * LAMBDA, 0.0, 1e-9, P, self.BS, tol=1e-8)
        scale = (
            np.pi * P.gamma_bath ** 2 * P.surface_spin_density_s
            * 0.375 / P.distance_cm ** 4
        )
        assert abs(loose - tight) < 1e-6 * scale

    def test_zero_distance_rejected_for_broadband(self):
        p0 = PhysicalParams(qubit_film_distance_d=0.0)
        with pytest.raises(ConfigError, match="distance"):
            field_correlator("+-", 0.0, 0.0, 0.0, p0, self.VACUUM)

    def test_anomalous_at_zero_distance_ok(self):
        # band-limited integral needs no evanescent regulator
        p0 = PhysicalParams(qubit_film_distance_d=0.0)
        val = field_correlator("--", 0.5 * LAMBDA, 0.0, 0.0, p0, self.BS)
        assert val != 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            field_correlator("+z", 0.0, 0.0, 0.0, P, self.VACUUM)

    @pytest.mark.parametrize(
        "rho, t, t_prime, tol, match",
        [
            (np.nan, 0.0, 0.0, 1e-8, "separation"),
            (np.inf, 0.0, 0.0, 1e-8, "separation"),
            (-0.5 * LAMBDA, 0.0, 0.0, 1e-8, "separation"),
            (0.5 * LAMBDA, np.nan, 0.0, 1e-8, "times"),
            (0.5 * LAMBDA, np.inf, 0.0, 1e-8, "times"),
            (0.5 * LAMBDA, 0.0, -np.inf, 1e-8, "times"),
            (0.5 * LAMBDA, 0.0, 0.0, np.nan, "tolerance"),
            (0.5 * LAMBDA, 0.0, 0.0, 0.0, "tolerance"),
        ],
    )
    @pytest.mark.parametrize("kind", ["+-", "--"])
    def test_bad_arguments_rejected(self, kind, rho, t, t_prime, tol, match):
        with pytest.raises(ConfigError, match=match):
            field_correlator(kind, rho, t, t_prime, P, self.BS, tol=tol)

    def test_zero_dim_array_arguments(self):
        want = field_correlator("+-", 0.5 * LAMBDA, 0.0, 1e-10, P, self.BS)
        got = field_correlator(
            "+-", np.array(0.5 * LAMBDA), np.array(0.0), np.float64(1e-10), P, self.BS
        )
        assert got == want


class TestVacuumTermCache:
    BS = bath_from_params(P, r_override=0.25)

    def test_normal_kinds_share_one_entry(self):
        _vacuum_term.cache_clear()
        for kind in ("-+", "+-"):
            field_correlator(kind, 0.5 * LAMBDA, 1e-10, 0.0, P, self.BS)
        info = _vacuum_term.cache_info()
        assert info.misses == 1
        assert info.hits == 1
        assert info.maxsize is not None

    def test_cached_value_is_exact(self):
        _vacuum_term.cache_clear()
        cached = _vacuum_term(0.5 * LAMBDA, 1e-10, P, 1e-8)
        assert _vacuum_term(0.5 * LAMBDA, 1e-10, P, 1e-8) is cached
        assert _vacuum_term.__wrapped__(0.5 * LAMBDA, 1e-10, P, 1e-8) == cached

    def test_bath_does_not_enter(self):
        # on the vacuum the correlator is the vacuum term alone
        vacuum = BathState.from_squeezing(0.0, k_q=K_Q, lam=LAMBDA)
        _vacuum_term.cache_clear()
        squeezed = field_correlator("+-", 0.5 * LAMBDA, 1e-10, 0.0, P, self.BS)
        bare = field_correlator("+-", 0.5 * LAMBDA, 1e-10, 0.0, P, vacuum)
        assert _vacuum_term.cache_info().misses == 1
        assert bare == _vacuum_term.__wrapped__(0.5 * LAMBDA, 1e-10, P, 1e-8)
        assert squeezed != bare
