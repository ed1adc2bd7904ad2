import numpy as np
import pytest

from magsqueeze import numerics
from magsqueeze.errors import QuadratureConvergenceError, StepSizeUnderflowError
from magsqueeze.numerics import (
    EULER_GAMMA,
    bessel_j0,
    bessel_y0,
    eig_smallest,
    gauss_legendre_panels,
    integrate_ode,
    quad_adaptive,
)

from oracles import matrix_exp

J0_FIRST_ZERO = 2.404825557695773  # published value

# 10-digit table values (Abramowitz & Stegun style anchors)
J0_TABLE = {
    0.5: 0.9384698072,
    1.0: 0.7651976866,
    2.0: 0.2238907791,
    5.0: -0.1775967713,
    10.0: -0.2459357645,
}
Y0_TABLE = {
    0.5: -0.4445187335,
    1.0: 0.0882569642,
    2.0: 0.5103756726,
    5.0: -0.3085176252,
    10.0: 0.0556711673,
}


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_j0_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-10

    def test_first_zero_by_bisection(self):
        # re-locate the zero from the implemented series itself
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_j0(lo) * bessel_j0(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - J0_FIRST_ZERO) < 1e-10

    @pytest.mark.parametrize("x,val", sorted(J0_TABLE.items()))
    def test_j0_table(self, x, val):
        assert bessel_j0(x) == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("x,val", sorted(Y0_TABLE.items()))
    def test_y0_table(self, x, val):
        assert bessel_y0(x) == pytest.approx(val, abs=1e-9)

    def test_y0_small_argument_log_form(self):
        x = 1e-4
        expected = (2.0 / np.pi) * (np.log(0.5 * x) + EULER_GAMMA)
        assert bessel_y0(x) == pytest.approx(expected, rel=1e-6)

    def test_y0_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bessel_y0(0.0)
        with pytest.raises(ValueError):
            bessel_y0(-1.0)

    def test_j0_even(self):
        x = np.linspace(0.1, 30, 50)
        assert np.allclose(bessel_j0(-x), bessel_j0(x), atol=0)

    def test_branch_consistency_at_split(self):
        # series and asymptotic branches must agree where they meet
        from magsqueeze import numerics

        x = np.linspace(12.2, 13.8, 33)
        series = np.array([numerics._power_series(np.atleast_1d(v))[0][0] for v in x])
        p, q = numerics._hankel_pq(x)
        chi = x - 0.25 * np.pi
        asym = np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) + q * np.sin(chi))
        assert np.max(np.abs(series - asym)) < 2e-10

    def test_wronskian_identity(self):
        # J0 Y0' - J0' Y0 = 2/(pi x); five-point stencils sized so neither
        # the truncation term (large Y0 derivatives at small x) nor the
        # function's own ~1e-12 noise exceeds the 1e-8 bound
        for x, h in [
            (np.linspace(0.1, 1.0, 60), 2e-4),
            (np.linspace(1.0, 50.0, 250), 1e-3),
        ]:
            def deriv(f):
                return (
                    -f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)
                ) / (12 * h)

            wron = bessel_j0(x) * deriv(bessel_y0) - deriv(bessel_j0) * bessel_y0(x)
            assert np.max(np.abs(wron - 2.0 / (np.pi * x))) < 1e-8


class TestIntegrateOde:
    def test_scalar_exponential(self):
        t = np.linspace(0.0, 5.0, 6)
        ys = integrate_ode(lambda _t, y: -y, np.array([1.0 + 0j]), t, 1e-10, 1e-12)
        assert np.max(np.abs(ys[:, 0] - np.exp(-t))) < 1e-9

    def test_phase_preserves_modulus(self):
        omega = 2 * np.pi
        rtol = 1e-8
        ys = integrate_ode(
            lambda _t, y: 1j * omega * y, np.array([1.0 + 0j]),
            np.array([0.0, 1000.0]), rtol, 1e-10,
        )
        assert abs(abs(ys[-1, 0]) - 1.0) < 10 * rtol * 1000

    def test_rabi_against_closed_form(self):
        # two-level drive: excited-state population (Omega/W)^2 sin^2(W t / 2)
        delta, omega = 0.7, 1.3
        h = 0.5 * np.array([[delta, omega], [omega, -delta]], dtype=complex)
        w = np.hypot(delta, omega)
        t = np.linspace(0.0, 12.0, 25)
        ys = integrate_ode(
            lambda _t, y: -1j * (h @ y), np.array([0.0, 1.0], dtype=complex),
            t, 1e-10, 1e-12,
        )
        pop = np.abs(ys[:, 0]) ** 2
        exact = (omega / w) ** 2 * np.sin(0.5 * w * t) ** 2
        assert np.max(np.abs(pop - exact)) < 1e-8

    def test_fixed_step_order_at_least_four(self):
        # one call per step: at tolerances this loose every call over
        # [i h, (i+1) h] accepts its first step, which costs 8 evaluations
        # of f (k0, the initial-step probe, six stages)
        delta, omega = 0.7, 1.3
        h = 0.5 * np.array([[delta, omega], [omega, -delta]], dtype=complex)
        w = np.hypot(delta, omega)
        t_end = 8.0

        def err(step):
            calls = []

            def f(_t, y):
                calls.append(1)
                return -1j * (h @ y)

            y = np.array([0.0, 1.0], dtype=complex)
            for i in range(round(t_end / step)):
                calls.clear()
                y = integrate_ode(f, y, np.array([i * step, (i + 1) * step]), 1.0, 1.0)[-1]
                assert len(calls) == 8
            exact = (omega / w) ** 2 * np.sin(0.5 * w * t_end) ** 2
            return abs(abs(y[0]) ** 2 - exact)

        e1, e2 = err(0.05), err(0.025)
        order = np.log2(e1 / e2)
        assert order >= 4.0

    def test_dense_output_matches_restart(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mat = mat - mat.conj().T  # anti-Hermitian: bounded dynamics
        y0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        t = np.linspace(0.0, 2.0, 17)
        dense = integrate_ode(lambda _t, y: mat @ y, y0, t, 1e-10, 1e-12)
        for i in [5, 11, 16]:
            direct = integrate_ode(
                lambda _t, y: mat @ y, y0, np.array([0.0, t[i]]), 1e-10, 1e-12
            )
            assert np.max(np.abs(dense[i] - direct[-1])) < 1e-7

    def test_stepping_independent_of_grid_density(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mat = mat - mat.conj().T
        y0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        fine = np.linspace(0.0, 2.0, 2001)
        coarse = fine[[0, 700, 2000]]
        calls = []

        def f(_t, y):
            calls.append(1)
            return mat @ y

        out_coarse = integrate_ode(f, y0, coarse, 1e-10, 1e-12)
        n_coarse = len(calls)
        out_fine = integrate_ode(f, y0, fine, 1e-10, 1e-12)
        assert len(calls) - n_coarse == n_coarse
        assert np.array_equal(out_fine[[0, 700, 2000]], out_coarse)

    def test_zero_length_grid_is_identity(self):
        y0 = np.array([1.0 + 2.0j, -0.5j])
        ys = integrate_ode(lambda _t, y: -y, y0, np.array([0.0]), 1e-8, 1e-10)
        assert np.array_equal(ys[0], y0)

    def test_step_underflow_raises(self):
        # derivative blows up at t = 1: forces h -> 0
        def f(t, y):
            return y / (1.0 - t)

        with pytest.raises(StepSizeUnderflowError):
            integrate_ode(f, np.array([1.0 + 0j]), np.array([0.0, 2.0]), 1e-8, 1e-10)

    def test_rejects_bad_grid_and_tolerances(self):
        y0 = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            integrate_ode(lambda _t, y: -y, y0, np.array([0.0, -1.0]), 1e-8, 1e-10)
        with pytest.raises(ValueError):
            integrate_ode(lambda _t, y: -y, y0, np.array([0.0, 1.0]), -1e-8, 1e-10)

    @pytest.mark.parametrize("rtol, atol", [
        (np.nan, 1e-10), (np.inf, 1e-10), (1e-8, np.nan), (1e-8, np.inf),
    ])
    def test_rejects_non_finite_tolerance(self, rtol, atol):
        # a NaN tolerance used to give a NaN first step that was rejected forever
        with pytest.raises(ValueError, match="tolerances"):
            integrate_ode(lambda _t, y: -y, np.array([1.0 + 0j]), np.array([0.0, 1.0]),
                          rtol, atol)

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, np.inf], [np.nan, 1.0],
                                      [-np.inf, 0.0]])
    def test_rejects_non_finite_grid(self, grid):
        # such a grid used to return uninitialized rows
        with pytest.raises(ValueError, match="finite"):
            integrate_ode(lambda _t, y: -y, np.array([1.0 + 0j]), np.array(grid), 1e-8, 1e-10)


class TestEig:
    def test_diagonal_smallest(self):
        val, vec = eig_smallest(np.diag([0.0, -1.0, -2.0]))
        assert val == 0.0
        assert np.argmax(np.abs(vec)) == 0


class TestMatrixExp:
    def test_zero_matrix(self):
        v = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.array_equal(matrix_exp(np.zeros((3, 3)) * 1.7) @ v, v)

    def test_diagonal(self):
        d = np.diag([1.0j, -0.3, 0.2 - 0.1j])
        got = matrix_exp(d * 2.0)
        assert np.allclose(np.diag(got), np.exp(2.0 * np.diag(d)), atol=1e-13)

    def test_against_taylor_series(self):
        rng = np.random.default_rng(11)
        a = 0.5 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        series = np.eye(8, dtype=complex)
        term = np.eye(8, dtype=complex)
        for k in range(1, 40):
            term = term @ a / k
            series += term
        assert np.max(np.abs(matrix_exp(a) - series)) < 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        one = matrix_exp(a)
        half = matrix_exp(0.5 * a)
        assert np.max(np.abs(half @ half - one)) < 1e-9 * np.max(np.abs(one))


class TestQuadrature:
    def test_gamma_integrand(self):
        # integral of k^3 e^{-2k} over [0, inf) = 3! / 2^4
        res = quad_adaptive(lambda k: k ** 3 * np.exp(-2 * k), 0.0, 40.0, 1e-12)
        assert res.value == pytest.approx(0.375, abs=1e-11)
        assert res.abs_error_estimate <= 1e-12
        assert res.evaluations >= 15

    def test_one_integrand_call_per_bisection(self):
        # the start interval and then both halves of each bisected interval
        # are evaluated by one call of the 15-point rule
        calls = []

        def f(k):
            calls.append(k.size)
            return k ** 3 * np.exp(-2 * k)

        res = quad_adaptive(f, 0.0, 40.0, 1e-12)
        assert len(calls) > 1
        assert calls == [15] + [30] * (len(calls) - 1)
        assert res.evaluations == sum(calls)

    def test_complex_integrand(self):
        res = quad_adaptive(lambda x: np.exp(1j * x), 0.0, np.pi, 1e-12)
        assert res.value == pytest.approx(2.0j, abs=1e-10)

    def test_nonconvergence_reports_estimate(self, monkeypatch):
        # |x - 1/3|^{-1/2} is integrable but slow; starve the budget
        monkeypatch.setattr(numerics, "QUAD_MAX_SUBDIVISIONS", 5)
        f = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0) + 1e-300)
        with pytest.raises(QuadratureConvergenceError) as info:
            quad_adaptive(f, 0.0, 1.0, 1e-14)
        assert info.value.achieved > info.value.requested

    def test_seeded_edges(self):
        res = quad_adaptive(
            lambda x: np.sin(50 * x), 0.0, np.pi, 1e-10,
            edges=np.linspace(0.0, np.pi, 101),
        )
        exact = (1 - np.cos(50 * np.pi)) / 50
        assert res.value == pytest.approx(exact, abs=1e-10)

    def test_panels_match_adaptive(self):
        f = lambda x: np.cos(3 * x) * np.exp(-x)
        panels = gauss_legendre_panels(f, np.linspace(0.0, 4.0, 33))
        adaptive = quad_adaptive(f, 0.0, 4.0, 1e-12).value
        assert panels == pytest.approx(adaptive, abs=1e-12)
