import numpy as np
import pytest

from magsqueeze import numerics
from magsqueeze.errors import QuadratureConvergenceError, StepSizeUnderflowError
from magsqueeze.numerics import (
    EULER_GAMMA,
    MIN_ATOL,
    MIN_RTOL,
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

    def test_kernels_keep_their_arithmetic(self):
        # J0 alone sums the same terms as J0 with Y0, and the in-place
        # Hankel sums are the out-of-place loop's, bit for bit
        x = np.linspace(0.05, 12.95, 301)
        assert np.array_equal(numerics._power_series(x, want_y=False)[0],
                              numerics._power_series(x)[0])
        x = np.linspace(13.0, 400.0, 301)
        p, q, a = np.ones_like(x), np.zeros_like(x), np.ones_like(x)
        for k in range(1, numerics._ASYMP_KMAX + 1):
            a = a * ((2 * k - 1) ** 2 / (8.0 * k)) * (1.0 / x)
            sign = -1.0 if (k // 2) % 2 else 1.0
            if k % 2 == 1:
                q = q + sign * a
            else:
                p = p + sign * a
        got_p, got_q = numerics._hankel_pq(x)
        assert np.array_equal(got_p, p) and np.array_equal(got_q, q)

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


def integrate(f, y0, t_grid, rtol, atol, layout=None):
    """The grid states that `integrate_ode` emits for the one-member stack
    of `y0`, with `f` on one state, stacked into one (m, n) array; the
    emitted chunks must arrive in grid order, none skipped."""
    chunks = []

    def emit(member, first, states):
        assert member == 0 and first == sum(map(len, chunks))
        chunks.append(states.copy())

    stats = integrate_ode(lambda y, members: f(y[0])[None], np.asarray(y0)[None], t_grid,
                          rtol, atol, emit, layout=layout)
    assert len(stats) == 1
    return np.concatenate(chunks)


class TestIntegrateOde:
    def test_scalar_exponential(self):
        t = np.linspace(0.0, 5.0, 6)
        ys = integrate(lambda y: -y, np.array([1.0 + 0j]), t, 1e-10, 1e-12)
        assert np.max(np.abs(ys[:, 0] - np.exp(-t))) < 1e-9

    def test_phase_preserves_modulus(self):
        omega = 2 * np.pi
        rtol = 1e-8
        ys = integrate(
            lambda y: 1j * omega * y, np.array([1.0 + 0j]),
            np.array([0.0, 1000.0]), rtol, 1e-10,
        )
        assert abs(abs(ys[-1, 0]) - 1.0) < 10 * rtol * 1000

    def test_rabi_against_closed_form(self):
        # two-level drive: excited-state population (Omega/W)^2 sin^2(W t / 2)
        delta, omega = 0.7, 1.3
        h = 0.5 * np.array([[delta, omega], [omega, -delta]], dtype=complex)
        w = np.hypot(delta, omega)
        t = np.linspace(0.0, 12.0, 25)
        ys = integrate(
            lambda y: -1j * (h @ y), np.array([0.0, 1.0], dtype=complex),
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

            def f(y):
                calls.append(1)
                return -1j * (h @ y)

            y = np.array([0.0, 1.0], dtype=complex)
            for i in range(round(t_end / step)):
                calls.clear()
                y = integrate(f, y, np.array([i * step, (i + 1) * step]), 1.0, 1.0)[-1]
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
        dense = integrate(lambda y: mat @ y, y0, t, 1e-10, 1e-12)
        for i in [5, 11, 16]:
            direct = integrate(
                lambda y: mat @ y, y0, np.array([0.0, t[i]]), 1e-10, 1e-12
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

        def f(y):
            calls.append(1)
            return mat @ y

        out_coarse = integrate(f, y0, coarse, 1e-10, 1e-12)
        n_coarse = len(calls)
        out_fine = integrate(f, y0, fine, 1e-10, 1e-12)
        assert len(calls) - n_coarse == n_coarse
        assert np.array_equal(out_fine[[0, 700, 2000]], out_coarse)

    def test_layout_takes_the_steps_of_the_whole_vector(self):
        # y' = M y on a vector whose entries outside `positions` stay 0; f
        # computes the entries at `positions` by the same product either way.
        # Both lengths are multiples of 8, as 4^N and 4^N / 2 are: the
        # stage sums then run every entry through the same vectorized loop
        # of OpenBLAS, which treats a short tail otherwise
        rng = np.random.default_rng(6)
        size, count = 64, 32
        positions = rng.permutation(size)[:count]
        mat = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
        mat = mat - mat.conj().T - 0.5 * np.eye(count)
        y0 = rng.normal(size=count) + 1j * rng.normal(size=count)
        t = np.linspace(0.0, 3.0, 31)
        calls = []

        def compressed(y):
            calls.append(1)
            return mat @ y

        def whole(y):
            out = np.zeros(size, dtype=complex)
            out[positions] = compressed(y[positions])
            return out

        full0 = np.zeros(size, dtype=complex)
        full0[positions] = y0
        want = integrate(whole, full0, t, 1e-8, 1e-10)
        n_whole = len(calls)
        got = integrate(compressed, y0, t, 1e-8, 1e-10, layout=(positions, size))
        assert len(calls) - n_whole == n_whole
        assert np.array_equal(got, want[:, positions])
        assert not np.any(np.delete(want, positions, axis=1))
        # the norms of the compressed vector alone take other steps
        alone = integrate(compressed, y0, t, 1e-8, 1e-10)
        assert len(calls) - 2 * n_whole != n_whole or not np.array_equal(alone, got)

    @pytest.mark.parametrize("positions, size", [
        ([0, 1], 4), ([0, 1, 2, 3], 4),       # wrong length
        ([0, 1, 1], 4),                       # repeated
        ([0, 1, 4], 4), ([-1, 0, 1], 4),      # outside the vector
    ])
    def test_rejects_a_bad_layout(self, positions, size):
        with pytest.raises(ValueError, match="layout"):
            integrate(lambda y: -y, np.ones(3, dtype=complex), np.array([0.0, 1.0]),
                          1e-8, 1e-10, layout=(np.array(positions), size))

    def test_zero_length_grid_is_identity(self):
        y0 = np.array([1.0 + 2.0j, -0.5j])
        ys = integrate(lambda y: -y, y0, np.array([0.0]), 1e-8, 1e-10)
        assert np.array_equal(ys[0], y0)

    def test_emits_full_chunks_in_grid_order(self):
        # a state of half the output chunk: every chunk but the last holds
        # two states, the last the one left, and none is larger than the
        # constant
        y0 = np.ones(numerics.OUTPUT_CHUNK_BYTES // 32, dtype=complex)
        t = np.linspace(0.0, 5.0, 41)
        seen = []

        def emit(member, first, states):
            assert states.nbytes <= numerics.OUTPUT_CHUNK_BYTES
            seen.append((first, len(states)))

        integrate_ode(lambda y, _: -y, y0[None], t, 1e-10, 1e-12, emit)
        assert seen == [(first, 2) for first in range(0, 40, 2)] + [(40, 1)]

    def test_a_grid_within_one_chunk_is_emitted_once(self):
        seen = []
        integrate_ode(lambda y, _: -y, np.array([[1.0 + 0j]]), np.linspace(0.0, 5.0, 41),
                      1e-10, 1e-12, lambda _, first, states: seen.append((first, len(states))))
        assert seen == [(0, 41)]

    def test_an_error_from_emit_ends_the_integration(self):
        # the first chunk of two states fills at the second grid point; no
        # right-hand side is evaluated after emit raises
        calls = []

        def f(y, members):
            calls.append(1)
            return -y

        def emit(member, first, states):
            stopped.append((first, len(states), len(calls)))
            raise ArithmeticError("stop")

        stopped = []
        y0 = np.ones((1, numerics.OUTPUT_CHUNK_BYTES // 32), dtype=complex)
        with pytest.raises(ArithmeticError, match="stop"):
            integrate_ode(f, y0, np.linspace(0.0, 50.0, 101), 1e-10, 1e-12, emit)
        assert stopped == [(0, 2, len(calls))]

    def test_stack_members_equal_their_solo_runs(self):
        # four damped oscillators of different speeds, each row of the stack
        # evaluated by itself: every member emits the states and counts the
        # steps of its own run, and the faster ones leave the stack first
        rng = np.random.default_rng(7)
        mats = []
        for speed in (0.5, 2.0, 8.0, 1.0):
            mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            mats.append(speed * (mat - mat.conj().T) - 0.3 * np.eye(8))
        y0 = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        t = np.linspace(0.25, 3.0, 23)
        stacks, chunks = [], [[] for _ in mats]

        def f(y, members):
            stacks.append(members)
            return np.stack([mats[i] @ row for i, row in zip(members, y)])

        def emit(member, first, states):
            assert first == sum(map(len, chunks[member]))
            chunks[member].append(states.copy())

        stats = integrate_ode(f, y0, t, 1e-9, 1e-11, emit)
        assert stacks[0] == (0, 1, 2, 3) and len(set(stacks)) > 2
        assert all(set(later) < set(earlier) for earlier, later in zip(stacks, stacks[1:])
                   if later != earlier)
        for i, (mat, record) in enumerate(zip(mats, stats)):
            assert np.array_equal(np.concatenate(chunks[i]),
                                  integrate(lambda y: mat @ y, y0[i], t, 1e-9, 1e-11))
            solo = integrate_ode(lambda y, _: (mat @ y[0])[None], y0[i:i + 1], t, 1e-9, 1e-11,
                                 lambda *_: None)
            assert solo == [record]
            assert record.nfev == 2 + 6 * (record.accepted + record.rejected)
            assert record.nfev == sum(i in members for members in stacks)
            assert 0 < record.min_step <= record.max_step < t[-1] - t[0]
        assert max(record.nfev for record in stats) == len(stacks)
        assert any(record.rejected for record in stats)

    def test_one_point_grid_emits_each_member_once(self):
        seen = []
        stats = integrate_ode(lambda y, _: -y, np.ones((3, 4), dtype=complex), np.array([2.0]),
                              1e-8, 1e-10, lambda *args: seen.append(args))
        assert [(member, first) for member, first, _ in seen] == [(0, 0), (1, 0), (2, 0)]
        assert all(states.shape == (1, 4) and np.all(states == 1.0) for *_, states in seen)
        assert all(record.nfev == record.accepted == record.rejected == 0 for record in stats)

    @pytest.mark.parametrize("y0", [np.ones(3, dtype=complex), np.ones((0, 3), dtype=complex)])
    def test_rejects_a_start_that_is_not_a_stack(self, y0):
        with pytest.raises(ValueError, match="stack"):
            integrate_ode(lambda y, _: -y, y0, np.array([0.0, 1.0]), 1e-8, 1e-10,
                          lambda *_: None)

    def test_step_underflow_raises(self):
        # y' = y^2 from y = 1 blows up at t = 1: forces h -> 0
        with pytest.raises(StepSizeUnderflowError, match="underflow"):
            integrate(lambda y: y * y, np.array([1.0 + 0j]), np.array([0.0, 2.0]),
                          1e-8, 1e-10)

    def test_nan_right_hand_side_raises(self):
        # a NaN step size passes every step-size check, so each step used
        # to be rejected forever
        calls = []

        def f(y):
            calls.append(1)
            if len(calls) > 1000:
                raise AssertionError("the integrator kept stepping")
            return y * np.nan

        with pytest.raises(StepSizeUnderflowError, match="NaN"), np.errstate(invalid="ignore"):
            integrate(f, np.array([1.0 + 0j]), np.array([0.0, 1.0]), 1e-8, 1e-10)
        assert len(calls) == 8  # two to choose h, six stages of the first step

    def test_rejects_bad_grid_and_tolerances(self):
        y0 = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            integrate(lambda y: -y, y0, np.array([0.0, -1.0]), 1e-8, 1e-10)
        with pytest.raises(ValueError):
            integrate(lambda y: -y, y0, np.array([0.0, 1.0]), -1e-8, 1e-10)
        with pytest.raises(ValueError, match="non-empty"):
            integrate(lambda y: -y, y0, np.array([]), 1e-8, 1e-10)

    @pytest.mark.parametrize("rtol, atol", [
        (np.nan, 1e-10), (np.inf, 1e-10), (1e-8, np.nan), (1e-8, np.inf),
        (1e-30, 1e-30), (0.99 * MIN_RTOL, 1e-10), (1e-8, 1e-200), (1e-8, 0.99 * MIN_ATOL),
    ])
    def test_rejects_non_finite_tolerance(self, rtol, atol):
        # a NaN tolerance used to give a NaN first step that was rejected
        # forever; below MIN_RTOL the step shrinks without bound; below
        # MIN_ATOL a start with zero entries takes no first step, and at
        # 1e-200 the error norm's squares overflowed with a RuntimeWarning
        with pytest.raises(ValueError, match="tolerances"):
            integrate(lambda y: -y, np.array([1.0 + 0j]), np.array([0.0, 1.0]),
                          rtol, atol)

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, np.inf], [np.nan, 1.0],
                                      [-np.inf, 0.0]])
    def test_rejects_non_finite_grid(self, grid):
        # such a grid used to return uninitialized rows
        with pytest.raises(ValueError, match="finite"):
            integrate(lambda y: -y, np.array([1.0 + 0j]), np.array(grid), 1e-8, 1e-10)


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
        res = quad_adaptive(lambda k: k ** 3 * np.exp(-2 * k), [0.0, 40.0], 1e-12)
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

        res = quad_adaptive(f, [0.0, 40.0], 1e-12)
        assert len(calls) > 1
        assert calls == [15] + [30] * (len(calls) - 1)
        assert res.evaluations == sum(calls)

    def test_complex_integrand(self):
        res = quad_adaptive(lambda x: np.exp(1j * x), [0.0, np.pi], 1e-12)
        assert res.value == pytest.approx(2.0j, abs=1e-10)

    def test_nonconvergence_reports_estimate(self, monkeypatch):
        # |x - 1/3|^{-1/2} is integrable but slow; starve the budget
        monkeypatch.setattr(numerics, "QUAD_MAX_SUBDIVISIONS", 5)
        f = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0) + 1e-300)
        with pytest.raises(QuadratureConvergenceError) as info:
            quad_adaptive(f, [0.0, 1.0], 1e-14)
        assert info.value.achieved > info.value.requested

    def test_seeded_edges(self):
        res = quad_adaptive(lambda x: np.sin(50 * x), np.linspace(0.0, np.pi, 101), 1e-10)
        exact = (1 - np.cos(50 * np.pi)) / 50
        assert res.value == pytest.approx(exact, abs=1e-10)

    def test_panels_match_adaptive(self):
        f = lambda x: np.cos(3 * x) * np.exp(-x)
        panels = gauss_legendre_panels(f, np.linspace(0.0, 4.0, 33))
        adaptive = quad_adaptive(f, [0.0, 4.0], 1e-12).value
        assert panels == pytest.approx(adaptive, abs=1e-12)

    def test_equal_errors_bisect_oldest_first(self):
        # nonzero only at the three seed midpoints (the centre node of each
        # rule): three bit-equal errors; the halves have none
        calls = []

        def f(x):
            calls.append(x)
            return np.isin(x, [-0.5, 0.5, 1.5]).astype(float)

        res = quad_adaptive(f, [-1.0, 0.0, 1.0, 2.0], 1e-3)
        assert len(calls) == 4 and res.evaluations == 15 * 9
        spans = [(x.min(), x.max()) for x in calls[1:]]
        for (lo, hi), (a, b) in zip(spans, [(-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)]):
            assert a < lo < hi < b

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_integrand_raises(self, bad):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x > 0.3, bad, x)

        with np.errstate(invalid="ignore"):
            with pytest.raises(QuadratureConvergenceError) as info:
                quad_adaptive(f, [0.0, 1.0], 1e-10)
            with pytest.raises(QuadratureConvergenceError):
                quad_adaptive(f, np.linspace(0.0, 1.0, 5), 1e-10)
        assert calls == [15, 60]
        assert not np.isfinite(info.value.achieved)

    @pytest.mark.parametrize("edges", [[0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0],
                                       [0.0, 0.5, 0.5, 1.0], [1.0, 0.0], [0.0]])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="edges"):
            quad_adaptive(np.exp, edges, 1e-10)

    @pytest.mark.parametrize("tail", [1, 7])
    def test_gk15_blocks_match_one_call(self, tail):
        # 3 full blocks plus a tail; each block is one integrand call of at
        # most QUAD_BLOCK_NODES abscissae, and each interval's rule gives
        # the same bits as when the whole partition is one call
        n = 3 * (numerics.QUAD_BLOCK_NODES // 15) + tail
        edges = np.linspace(0.0, 30.0, n + 1)
        lows, highs = edges[:-1], edges[1:]
        half, mid = 0.5 * (highs - lows), 0.5 * (highs + lows)
        x = mid[:, None] + half[:, None] * numerics._GK_NODES[None, :]
        sizes = []

        def f(k):
            sizes.append(k.size)
            return np.exp(-0.1 * k) * np.exp(1j * k * k)

        fx = f(x.ravel()).reshape(x.shape)
        want = half * (fx @ numerics._GK_WK)
        want_err = np.abs(want - half * (fx[:, 1::2] @ numerics._GK_WG))
        sizes.clear()
        vals, errs = numerics._gk15_batch(f, lows, highs)
        assert len(sizes) == 4 and max(sizes) <= numerics.QUAD_BLOCK_NODES
        assert sum(sizes) == 15 * n
        assert np.array_equal(vals, want) and np.array_equal(errs, want_err)

        real_vals, real_errs = numerics._gk15_batch(lambda k: np.exp(-0.1 * k), lows, highs)
        assert real_vals.dtype == real_errs.dtype == np.float64
        assert np.allclose(real_vals, half * (np.exp(-0.1 * x) @ numerics._GK_WK),
                           rtol=1e-14, atol=0)

    def test_panel_blocks_sum_to_one_call(self):
        edges = np.linspace(0.0, 40.0, 5 * (numerics.QUAD_BLOCK_NODES // 12) + 3)
        sizes = []

        def f(k):
            sizes.append(k.size)
            return k * np.exp(-0.2 * k) * np.cos(3.0 * k)

        got = gauss_legendre_panels(f, edges)
        assert len(sizes) == 6 and max(sizes) <= numerics.QUAD_BLOCK_NODES
        x, w = np.polynomial.legendre.leggauss(12)
        half = 0.5 * np.diff(edges)
        nodes = (edges[:-1, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
        want = np.sum((half[:, None] * w[None, :]).ravel() * f(nodes))
        assert abs(got - want) <= 1e-13 * abs(want)
