import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from magsqueeze import bath as bath_module
from magsqueeze.bath import (
    BathState,
    bath_from_params,
    field_correlator,
    magnon_correlator,
    pair_moments,
    resonant_wavelength,
)
from magsqueeze import couplings
from magsqueeze.couplings import (
    GAMMA_CHANNELS,
    _channel_moments,
    _oracle_norm,
    _principal_value,
    _resonant_integral,
    build_couplings,
    coupling_oracle,
)
from magsqueeze import numerics
from magsqueeze.errors import ConfigError
from magsqueeze.numerics import bessel_j0, bessel_y0
from magsqueeze.params import ArrayGeometry, PhysicalParams

import oracles

P = PhysicalParams()
K_Q, LAMBDA = resonant_wavelength(P)
J0_FIRST_ZERO = 2.404825557695773


def couplings_for(n=2, a=0.5, r=0.25, params=P):
    bs = bath_from_params(params, r_override=r)
    return build_couplings(ArrayGeometry.chain(n, a), params, bs)


class TestClosedForms:
    def test_isolated_relaxation_rate(self):
        # nu = 75 Hz and 100 MHz detuning give the 8.2 Hz on-site rate
        cs = couplings_for(r=0.0)
        assert cs.gamma_pm[0, 0] == pytest.approx(8.2, abs=0.4)
        assert cs.gamma0 == cs.gamma_pm[0, 0]

    def test_pair_channels_vanish_unsqueezed(self):
        cs = couplings_for(r=0.0)
        assert np.all(cs.gamma_pp == 0)
        assert np.all(cs.gamma_mm == 0)
        assert np.all(cs.gamma_mp == 0)

    def test_emission_zero_at_bessel_node(self):
        cs = couplings_for(a=J0_FIRST_ZERO)
        assert cs.gamma_pm[0, 1] == pytest.approx(0.0, abs=1e-10 * cs.gamma0)

    def test_j_diagonal_zero(self):
        cs = couplings_for(n=4, a=0.7)
        assert np.all(np.diag(cs.j) == 0)

    def test_exchange_matches_kernel(self):
        cs = couplings_for(a=0.8)
        assert cs.j[0, 1] == pytest.approx(-0.5 * cs.gamma0 * bessel_y0(0.8))

    def test_coincident_qubits_rejected(self):
        bs = bath_from_params(P, r_override=0.1)
        geo = ArrayGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0]]))
        object.__setattr__(geo, "positions", np.zeros((2, 2)))  # bypass ctor check
        with pytest.raises(ConfigError, match="coincident"):
            build_couplings(geo, P, bs)


class TestPositiveSemidefiniteCheck:
    HUGE = PhysicalParams(detuning_wq_minus_DF=1e300)  # Gamma_0 = 8.6e298 Hz

    def test_huge_rate_scale_without_warning(self):
        # the norm of the unscaled block overflowed and passed any block
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = couplings_for(n=3, params=self.HUGE)
        assert np.all(np.isfinite(cs.dissipation_block()))

    def test_negative_eigenvalue_raises_at_huge_rate_scale(self, monkeypatch):
        # pair channels three times too strong break |M|^2 <= N (N + 1)
        closed_form = couplings.closed_form_channels

        def too_strong(sep, params, bath):
            base, (j, mp, pm, pp, mm) = closed_form(sep, params, bath)
            return base, (j, mp, pm, 3.0 * pp, 3.0 * mm)

        monkeypatch.setattr(couplings, "closed_form_channels", too_strong)
        for params in (P, self.HUGE):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match="semidefinite"):
                    couplings_for(n=3, params=params)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("r", [0.0, 0.25, 1.0])
    def test_random_geometries(self, seed, r):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        geo = ArrayGeometry(positions=rng.uniform(0.0, 3.0, size=(n, 2)))
        bs = bath_from_params(P, r_override=r)
        cs = build_couplings(geo, P, bs)

        for mat in (cs.j, cs.gamma_mp, cs.gamma_pm, cs.gamma_pp, cs.gamma_mm):
            assert np.allclose(mat, mat.T, atol=0)
        assert np.array_equal(cs.gamma_pp, np.conj(cs.gamma_mm))
        if bs.N_kq > 0:
            ratio = cs.gamma_pm / cs.gamma_mp
            assert np.allclose(ratio, (bs.N_kq + 1.0) / bs.N_kq)
        assert np.all(np.diag(cs.j) == 0)
        block = cs.dissipation_block()
        assert np.allclose(block, block.conj().T)
        floor = -1e-10 * np.linalg.norm(block)
        assert np.min(np.linalg.eigvalsh(block)) >= floor

    def test_scaling_linear_in_nu(self):
        cs1 = couplings_for()
        cs3 = couplings_for(params=PhysicalParams(nu_characteristic=3 * 75.0))
        for a, b in [
            (cs1.j, cs3.j), (cs1.gamma_pm, cs3.gamma_pm),
            (cs1.gamma_mp, cs3.gamma_mp), (cs1.gamma_pp, cs3.gamma_pp),
        ]:
            assert np.allclose(3.0 * a, b, rtol=1e-13)


class TestMomentTable:
    @pytest.mark.parametrize("r, phi", [(0.0, -0.5 * np.pi), (0.5, 0.7)])
    def test_correlator_and_channels_read_the_table(self, r, phi):
        # on resonance at t = t' = 0 the magnon correlator is its moment
        bs = BathState.from_squeezing(r, phi, lam=LAMBDA)
        table = pair_moments(bs.N_kq, bs.M_kq)
        for kind, moment in table.items():
            assert magnon_correlator(kind, K_Q, 0.0, 0.0, bs, P) == moment
        assert table == {"mm": bs.M_kq, "mdmd": np.conj(bs.M_kq),
                         "mdm": bs.N_kq, "mmd": bs.N_kq + 1.0}
        # the channel weights of the module docstring, in GAMMA_CHANNELS order
        channels = _channel_moments(bs)
        assert tuple(channels) == GAMMA_CHANNELS
        assert channels == {"mp": table["mdm"], "pm": table["mmd"],
                            "pp": table["mdmd"], "mm": table["mm"]}


class TestOracle:
    @pytest.mark.parametrize("r", [0.0, 0.25, 1.0])
    def test_dissipative_channels(self, r):
        bs = bath_from_params(P, r_override=r)
        cs = couplings_for(r=r)
        g0 = cs.gamma0
        closed = {
            "pm": lambda rho: g0 * (bs.N_kq + 1.0) * bessel_j0(rho),
            "mp": lambda rho: g0 * bs.N_kq * bessel_j0(rho),
            "pp": lambda rho: g0 * np.conj(bs.M_kq) * bessel_j0(rho),
            "mm": lambda rho: g0 * bs.M_kq * bessel_j0(rho),
        }
        rng = np.random.default_rng(17)
        for rho in np.concatenate([[0.0], rng.uniform(0.05, 3.0, 4)]):
            for ch, form in closed.items():
                got = coupling_oracle(ch, rho, P, bs)
                want = form(rho)
                assert abs(got - want) <= max(0.01 * abs(want), 1e-3 * g0)

    def test_exchange_channel(self):
        bs = bath_from_params(P, r_override=0.25)
        cs = couplings_for()
        g0 = cs.gamma0
        for rho in (0.05, 0.9, 2.3):
            got = coupling_oracle("J", rho, P, bs)
            want = -0.5 * g0 * bessel_y0(rho)
            assert abs(got - want) <= 1e-8 * g0  # measured <= 1.9e-10 g0
            # one ulp of separation moves J by round-off only: measured
            # <= 1.8e-14 g0
            nudged = coupling_oracle("J", np.nextafter(rho, np.inf), P, bs)
            assert abs(nudged - got) <= 1e-13 * g0

    def test_exchange_independent_of_squeezing(self):
        # clear the principal-value cache so that both values are computed
        _principal_value.cache_clear()
        a = coupling_oracle("J", 0.6, P, bath_from_params(P, r_override=0.0))
        _principal_value.cache_clear()
        b = coupling_oracle("J", 0.6, P, bath_from_params(P, r_override=1.0))
        assert a == b

    def test_values_equal_the_reference_kernel_bit_for_bit(self, monkeypatch):
        # the radial quadratures here evaluate J0 at up to x ~ 140, where the
        # Hankel sums stop after 11 of 26 terms; every value is still the
        # reference kernel's.  Shorter sums, at larger x, are covered by the
        # kernel tests alone
        bs = bath_from_params(P, r_override=0.25)

        def values():
            _principal_value.cache_clear()
            _resonant_integral.cache_clear()
            bath_module._vacuum_term.cache_clear()
            return ([coupling_oracle(ch, 3.0, P, bs) for ch in ("J", "Jpp", "pm")],
                    field_correlator("-+", LAMBDA, 0.0, 0.0, P, bs))

        got = values()
        monkeypatch.setattr(numerics, "_bessel0", oracles.bessel0)
        want = values()
        _principal_value.cache_clear()
        _resonant_integral.cache_clear()
        bath_module._vacuum_term.cache_clear()
        assert got == want

    def test_pair_exchange_vanishes(self):
        bs = bath_from_params(P, r_override=1.0)
        g0 = couplings_for(r=1.0).gamma0
        for ch in ("Jpp", "Jmm"):
            assert abs(coupling_oracle(ch, 0.8, P, bs)) < 1e-3 * g0

    def test_on_site_rate_matches(self):
        bs = bath_from_params(P, r_override=0.0)
        g0 = couplings_for(r=0.0).gamma0
        got = coupling_oracle("pm", 0.0, P, bs)
        assert abs(got - g0) < 0.01 * g0

    def test_unknown_channel(self):
        bs = BathState.from_squeezing(0.1)
        with pytest.raises(ConfigError):
            coupling_oracle("zz", 0.5, P, bs)

    @pytest.mark.parametrize(
        "rho, n_scale, match",
        [
            (np.nan, 1.0, "separation"),
            (np.inf, 1.0, "separation"),
            (-np.inf, 1.0, "separation"),
            (-0.1, 1.0, "separation"),
            (0.5, np.nan, "density"),
            (0.5, 0.0, "density"),
            (0.5, -1.0, "density"),
        ],
    )
    @pytest.mark.parametrize("channel", ["pm", "J", "Jpp"])
    def test_bad_arguments_rejected(self, channel, rho, n_scale, match):
        bs = bath_from_params(P, r_override=0.25)
        with pytest.raises(ConfigError, match=match):
            coupling_oracle(channel, rho, P, bs, n_scale=n_scale)

    def test_exchange_oracle_needs_a_positive_separation(self):
        # the on-site rates are finite, the exchange kernel Y0 diverges there
        bs = bath_from_params(P, r_override=0.25)
        with pytest.raises(ConfigError, match="positive separation"):
            coupling_oracle("J", 0.0, P, bs)

    @pytest.mark.parametrize("channel", ["pm", "J"])
    def test_zero_dim_array_separation(self, channel):
        bs = bath_from_params(P, r_override=0.25)
        want = coupling_oracle(channel, 1.5, P, bs)
        assert coupling_oracle(channel, np.array(1.5), P, bs) == want
        assert coupling_oracle(channel, np.float64(1.5), P, bs) == want

    def test_cold_oracle_leaves_numpy_polynomial_out(self):
        # the panel rule's Gauss-Legendre nodes are literals, not leggauss
        import magsqueeze

        src = os.path.dirname(os.path.dirname(magsqueeze.__file__))
        code = ("import sys; from magsqueeze.bath import bath_from_params; "
                "from magsqueeze.couplings import coupling_oracle; "
                "from magsqueeze.params import PhysicalParams; "
                "p = PhysicalParams(); bs = bath_from_params(p, r_override=0.25); "
                "[coupling_oracle(ch, 0.9, p, bs) for ch in ('J', 'Jpp', 'pm')]; "
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True)
        assert run.stdout.strip() == "[]"

    def test_pv_quadrature_density_converged(self):
        bs = bath_from_params(P, r_override=0.0)
        a = coupling_oracle("J", 0.45, P, bs, n_scale=1.0)
        b = coupling_oracle("J", 0.45, P, bs, n_scale=2.0)
        assert abs(a - b) < 1e-4 * abs(a)


class TestPrincipalValueCache:
    def test_bath_independent_misses(self):
        _principal_value.cache_clear()
        for r in (0.0, 0.25, 1.0):
            bs = bath_from_params(P, r_override=r)
            for ch in ("J", "Jpp", "Jmm"):
                coupling_oracle(ch, 1.25, P, bs)
        # one entry per quadrature density: n_scale 1 and 1.5
        info = _principal_value.cache_info()
        assert info.misses == 2
        assert info.hits == 13
        assert info.maxsize is not None

    def test_cached_value_is_exact(self):
        rho_cm = 1.25 * LAMBDA
        _principal_value.cache_clear()
        cached = _principal_value(rho_cm, P, 1.0)
        assert _principal_value(rho_cm, P, 1.0) is cached
        assert _principal_value.__wrapped__(rho_cm, P, 1.0) == cached

    def test_keyed_on_params(self):
        # same separation in cm, other detuning: a new entry, not a stale hit
        rho_cm = 1.25 * LAMBDA
        other = PhysicalParams(detuning_wq_minus_DF=150.0)
        a = _principal_value(rho_cm, P, 1.0)
        b = _principal_value(rho_cm, other, 1.0)
        assert b == _principal_value.__wrapped__(rho_cm, other, 1.0)
        assert b != a

    def test_cold_call_memory(self):
        # each panel sum is taken block by block, and the oscillatory tail
        # has about 150 panels at any separation: measured peak 0.08 MiB
        _principal_value.cache_clear()
        tracemalloc.start()
        try:
            _principal_value(0.205 * LAMBDA, P, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


def exchange_in_gamma0(pv):
    """J of a principal value, in units of Gamma_0 (as `coupling_oracle`)."""
    return -_oracle_norm(P) * pv / P.stiffness_over_hbar / couplings_for().gamma0


class TestExchangeTail:
    @pytest.mark.parametrize("n_scale", [1.0, 1.5])
    @pytest.mark.parametrize("rho", [0.2, 0.9, 2.3])
    def test_agrees_with_the_637_period_rule(self, rho, n_scale):
        # measured <= 3.2e-10 Gamma_0: mostly the brute-force rule's own error
        got = _principal_value.__wrapped__(rho * LAMBDA, P, n_scale)
        want = oracles.principal_value_637(rho * LAMBDA, P, n_scale)
        assert abs(exchange_in_gamma0(got) - exchange_in_gamma0(want)) <= 1e-9

    @pytest.mark.parametrize("rho", [1e-6, 0.2, 0.9])
    def test_window_and_rounds_converged(self, rho, monkeypatch):
        # an 8 times longer window and 4 more averaging rounds move J by
        # round-off only: measured <= 1.7e-15 Gamma_0 (half the window: 2.6e-13)
        got = _principal_value.__wrapped__(rho * LAMBDA, P, 1.0)
        monkeypatch.setattr(couplings, "_TAIL_PERIODS", 8 * couplings._TAIL_PERIODS)
        monkeypatch.setattr(couplings, "_TAIL_ROUNDS", couplings._TAIL_ROUNDS + 4)
        longer = _principal_value.__wrapped__(rho * LAMBDA, P, 1.0)
        assert abs(exchange_in_gamma0(got) - exchange_in_gamma0(longer)) <= 1e-14

    @pytest.mark.parametrize("rho", [1e-6, 1e-3])
    def test_tiny_separations_stay_small(self, rho, monkeypatch):
        # the 637-period rule needed about 8,000 / rho panels (6.4 GB of
        # panel edges at 1e-5 lambda); the geometric panels need log(1 / rho)
        points = []

        def counting_j0(x):
            points.append(np.size(x))
            return bessel_j0(x)

        monkeypatch.setattr(couplings, "bessel_j0", counting_j0)
        tracemalloc.start()
        try:
            pv = _principal_value.__wrapped__(rho * LAMBDA, P, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(exchange_in_gamma0(pv) + 0.5 * bessel_y0(rho)) <= 1e-8  # measured 8e-11
        assert peak <= 8 * 2 ** 20
        assert sum(points) <= 4000  # measured 2172 at 1e-6, 2052 at 1e-3


class TestResonantIntegralCache:
    def test_bath_and_channel_independent_misses(self):
        _resonant_integral.cache_clear()
        for r in (0.0, 0.25, 1.0):
            bs = bath_from_params(P, r_override=r)
            for ch in GAMMA_CHANNELS:
                coupling_oracle(ch, 1.25, P, bs)
        # one entry for the one separation
        info = _resonant_integral.cache_info()
        assert info.misses == 1
        assert info.hits == 11
        assert info.maxsize is not None

    def test_channels_equal_the_uncached_product(self):
        # the cached integral enters the product in the same place, so every
        # channel keeps its bits
        bs = bath_from_params(P, r_override=0.25)
        rho_cm = 0.7 * LAMBDA
        integral = _resonant_integral.__wrapped__(rho_cm, P)
        for ch, moment in _channel_moments(bs).items():
            want = _oracle_norm(P) * moment * 2.0 * np.pi * integral
            assert coupling_oracle(ch, 0.7, P, bs) == want
