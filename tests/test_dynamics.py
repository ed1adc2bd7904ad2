import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magsqueeze.bath import bath_from_params
from magsqueeze.couplings import build_couplings
from magsqueeze.dynamics import (
    CHECK_CHUNK_BYTES,
    Generator,
    QubitState,
    build_generator,
    evolve,
    steady_state,
)
from magsqueeze.errors import (
    DegenerateSteadyStateError,
    StateInvariantError,
)
from magsqueeze.numerics import eig_smallest, matrix_exp_apply
from magsqueeze.observables import collective_spin, initial_state
from magsqueeze.operators import site_lower
from magsqueeze.params import ArrayGeometry, PhysicalParams

P = PhysicalParams()


def generator_for(n, a, r, mode="jump_operator"):
    bs = bath_from_params(P, r_override=r)
    cs = build_couplings(ArrayGeometry.chain(n, a), P, bs)
    return build_generator(cs, mode)


def random_density(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def per_term_action(gen, rho):
    """The generator's action written term by term from `h_eff` and `terms`."""
    h = gen.h_eff
    g = np.zeros_like(h)
    for w, a_op, b_op in gen.terms:
        g += w * (b_op @ a_op)
    out = -1j * (h @ rho - rho @ h)
    for w, a_op, b_op in gen.terms:
        out += w * (a_op @ rho @ b_op)
    out -= 0.5 * (g @ rho + rho @ g)
    return out


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


class TestQubitState:
    def test_valid_state_passes(self):
        s = initial_state("all_excited", 2)
        assert s.check() is s

    def test_nonhermitian_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.3
        with pytest.raises(StateInvariantError, match="Hermiticity"):
            QubitState(rho, 2).check()

    def test_trace_rejected(self):
        with pytest.raises(StateInvariantError, match="trace"):
            QubitState(np.eye(4, dtype=complex), 2).check()

    def test_negative_eigenvalue_rejected(self):
        rho = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateInvariantError, match="eigenvalue"):
            QubitState(rho, 2).check()

    def test_trace_reported_before_eigenvalue_with_time(self):
        # one state breaking both: the trace test comes first, at its time
        rho = np.diag([1.5, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateInvariantError, match=r"Gamma_0 t = 2\.5: trace error 3"):
            QubitState(rho, 2, time=2.5).check()

    def test_marginal_negativity_warns(self):
        rho = np.diag([1.0 + 1e-9, -1e-9, 0.0, 0.0]).astype(complex)
        with pytest.warns(RuntimeWarning, match="non-positive"):
            QubitState(rho, 2).check()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pure_css_start_is_silent(self, n):
        # eigvalsh round-off puts the zero eigenvalues of a pure state at
        # -1e-21..-1e-16, inside the relative band that does not warn
        gen = generator_for(n, 0.5, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (np.pi / 3, np.pi / 2, 0.005):
                s0 = initial_state("css", n, theta=theta, phi=0.3)
                s0.check()
                evolve(s0, gen, np.linspace(0.0, 0.2, 3))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            QubitState(np.eye(3, dtype=complex), 2)


class TestGenerator:
    @pytest.mark.parametrize("r", [0.0, 0.25, 1.0])
    def test_four_channel_equals_jump(self, r):
        g1 = generator_for(2, 0.5, r, "four_channel")
        g2 = generator_for(2, 0.5, r, "jump_operator")
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = random_density(rng, 4)
            assert np.max(np.abs(g1.action(rho) - g2.action(rho))) < 1e-9

    def test_action_is_traceless(self):
        gen = generator_for(3, 0.6, 0.3)
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = random_density(rng, 8)
            out = gen.action(rho)
            assert abs(np.trace(out)) < 1e-10 * np.linalg.norm(out)

    @pytest.mark.parametrize("mode", ["jump_operator", "four_channel"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_action_equals_per_term_formula(self, mode, n):
        # the stacked products do the per-term arithmetic in the same order
        gen = generator_for(n, 0.5, 0.3, mode)
        rng = np.random.default_rng(n)
        for _ in range(5):
            rho = random_matrix(rng, 2 ** n)
            assert np.array_equal(gen.action(rho), per_term_action(gen, rho))

    def test_action_result_is_not_a_work_array(self):
        gen = generator_for(3, 0.5, 0.3)
        rng = np.random.default_rng(5)
        out = gen.action(random_matrix(rng, 8))
        kept = out.copy()
        owned = [v for v in vars(gen).values() if isinstance(v, np.ndarray)]
        assert owned and not any(np.shares_memory(out, v) for v in owned)
        gen.action(random_matrix(rng, 8))
        assert np.array_equal(out, kept)

    def test_h_eff_hermitian(self):
        gen = generator_for(3, 0.5, 0.25)
        assert np.max(np.abs(gen.h_eff - gen.h_eff.conj().T)) < 1e-12

    def test_single_qubit_unsqueezed_is_amplitude_damping(self):
        gen = generator_for(1, 1.0, 0.0)
        # only jump: sigma^- at unit (scaled) weight
        assert len(gen.terms) == 1
        w, a_op, b_op = gen.terms[0]
        assert w == pytest.approx(1.0)
        assert np.allclose(a_op, [[0, 0], [1, 0]])
        assert np.array_equal(b_op, a_op.conj().T)

    def test_liouvillian_matches_action(self):
        gen = generator_for(2, 0.5, 0.25)
        lmat = gen.liouvillian()
        rng = np.random.default_rng(7)
        rho = random_density(rng, 4)
        direct = gen.action(rho)
        via_l = (lmat @ rho.ravel()).reshape(4, 4)
        assert np.max(np.abs(direct - via_l)) < 1e-12

    @pytest.mark.parametrize("mode", ["jump_operator", "four_channel"])
    def test_adjoint_is_dual_of_action(self, mode):
        rng = np.random.default_rng(11)
        geometry = ArrayGeometry(positions=rng.uniform(0.0, 1.5, size=(3, 2)))
        bs = bath_from_params(P, r_override=0.3)
        gen = build_generator(build_couplings(geometry, P, bs), mode)
        for _ in range(5):
            rho = random_density(rng, 8)
            x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            lhs = np.trace(x @ gen.action(rho))
            rhs = np.trace(gen.adjoint(x) @ rho)
            assert abs(lhs - rhs) < 1e-12 * np.linalg.norm(x) * np.linalg.norm(gen.liouvillian())

    def test_mode_and_size_validation(self):
        bs = bath_from_params(P, r_override=0.1)
        cs = build_couplings(ArrayGeometry.chain(2, 0.5), P, bs)
        with pytest.raises(ValueError, match="mode"):
            build_generator(cs, "nope")
        cs9 = build_couplings(ArrayGeometry.chain(9, 0.5), P, bs)
        with pytest.raises(ValueError, match="limited"):
            build_generator(cs9)


# random 2-d layouts: N = 2-4 qubits in a 2 x 2 lambda square, random (r, phi)
LAYOUTS = st.lists(
    st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)), min_size=2, max_size=4
)
SQUEEZING_R = st.floats(0.0, 1.5)
SQUEEZING_PHI = st.floats(0.0, 2 * np.pi, exclude_max=True)


def layout_couplings(points, r, phi):
    """Couplings of a random layout; examples with a separation below
    0.05 lambda are discarded."""
    positions = np.array(points)
    diff = positions[:, None, :] - positions[None, :, :]
    sep = np.sqrt(np.sum(diff ** 2, axis=-1))
    assume(np.min(sep[~np.eye(len(points), dtype=bool)]) >= 0.05)
    bs = bath_from_params(P, r_override=r, phi_override=phi)
    return build_couplings(ArrayGeometry(positions=positions), P, bs)


class TestRandomLayoutProperties:
    @given(LAYOUTS, SQUEEZING_R, SQUEEZING_PHI)
    @settings(max_examples=25, deadline=None)
    def test_dissipation_block_psd(self, points, r, phi):
        # J0(|r_a - r_b|) is positive definite in 2-d and the moment matrix
        # [[N+1, M*], [M, N]] is PSD, so their Kronecker product is PSD
        block = layout_couplings(points, r, phi).dissipation_block()
        assert np.min(np.linalg.eigvalsh(block)) >= -1e-10 * np.linalg.norm(block)

    @pytest.mark.parametrize("mode", ["jump_operator", "four_channel"])
    @given(LAYOUTS, SQUEEZING_R, SQUEEZING_PHI, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_and_hermiticity_preserved(self, mode, points, r, phi, seed):
        gen = build_generator(layout_couplings(points, r, phi), mode)
        rho = random_density(np.random.default_rng(seed), 2 ** len(points))
        out = gen.action(rho)
        scale = np.linalg.norm(out)
        assert abs(np.trace(out)) <= 1e-10 * scale
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10 * scale


class TestEvolve:
    def test_zero_time_grid_returns_input(self):
        gen = generator_for(2, 0.5, 0.25)
        s0 = initial_state("all_excited", 2)
        traj = evolve(s0, gen, np.array([0.0]))
        assert np.array_equal(traj.final_state.rho, s0.rho)

    def test_single_qubit_decay_closed_form(self):
        gen = generator_for(1, 1.0, 0.0)
        t = np.linspace(0.0, 6.0, 25)
        traj = evolve(initial_state("all_excited", 1), gen, t)
        sz = traj.mean_spin[:, 2]
        assert np.max(np.abs(sz - (-1.0 + 2.0 * np.exp(-t)))) < 1e-7

    @pytest.mark.parametrize("r", [0.25, 1.0])
    def test_single_qubit_squeezed_steady_value(self, r):
        gen = generator_for(1, 1.0, r)
        n_occ = np.sinh(r) ** 2
        traj = evolve(initial_state("all_excited", 1), gen, np.array([0.0, 40.0]))
        assert traj.mean_spin[-1, 2] == pytest.approx(-1.0 / (2 * n_occ + 1), abs=1e-6)

    def test_trace_and_hermiticity_along_trajectory(self):
        atol = 1e-10
        gen = generator_for(2, 0.5, 0.25)
        traj = evolve(
            initial_state("all_excited", 2), gen, np.linspace(0, 20, 81), atol=atol
        )
        assert np.max(traj.trace_err) < 10 * atol
        assert np.max(traj.herm_err) < 10 * atol
        assert np.min(traj.min_eig) > -1e-8

    def test_matrix_exponential_oracle(self):
        # adaptive integration against direct propagation of the vectorized
        # generator, ten checkpoints, three qubits
        gen = generator_for(3, 0.7, 0.25)
        lmat = gen.liouvillian()
        rho0 = initial_state("all_excited", 3).rho
        t = np.linspace(0.0, 5.0, 11)
        traj = evolve(initial_state("all_excited", 3), gen, t, keep_states=True)
        for i in range(1, 11):
            ref = matrix_exp_apply(lmat, rho0.ravel(), t[i]).reshape(8, 8)
            assert np.max(np.abs(traj.states[i].rho - ref)) < 1e-6

    def test_initial_state_independence(self):
        # the slowest mode of this layout relaxes at ~0.04 Gamma_0, so the
        # two initializations meet well below 1e-5 by Gamma_0 t = 400
        gen = generator_for(2, 0.5, 0.25)
        grid = np.array([0.0, 400.0])
        exc = evolve(initial_state("all_excited", 2), gen, grid)
        gnd = evolve(initial_state("all_ground", 2), gen, grid)
        assert trace_distance(exc.final_state.rho, gnd.final_state.rho) < 1e-5

    @pytest.mark.parametrize(
        "a_over_lambda,tol",
        [
            # residual correlations are second order in the J0 tail at the
            # chain separation, ~ 2e-4 at 1e3 and ~ 2e-5 at 1e4
            (1e3, 1e-3),
            (1e4, 1e-4),
        ],
    )
    def test_uncorrelated_limit_factorizes(self, a_over_lambda, tol):
        r = 0.3
        gen4 = generator_for(4, a_over_lambda, r)
        gen1 = generator_for(1, 1.0, r)
        t = np.linspace(0.0, 4.0, 17)
        traj4 = evolve(initial_state("all_excited", 4), gen4, t)
        traj1 = evolve(initial_state("all_excited", 1), gen1, t)
        assert np.max(np.abs(traj4.mean_spin[:, 2] / 4 - traj1.mean_spin[:, 2])) < tol
        assert np.max(np.abs(traj4.relaxation - traj1.relaxation)) < tol

    def test_invariant_columns_equal_state_methods(self):
        # 400 states of 8 x 8 are checked in two chunks
        t = np.linspace(0.0, 5.0, 400)
        assert 64 * 16 * t.size > CHECK_CHUNK_BYTES >= 64 * 16 * t.size / 2
        gen = generator_for(3, 0.5, 0.25)
        s0 = initial_state("css", 3, theta=np.pi / 2, phi=0.3)
        traj = evolve(s0, gen, t, keep_states=True)
        for i, state in enumerate(traj.states):
            assert traj.trace_err[i] == state.trace_error()
            assert traj.herm_err[i] == state.hermiticity_error()
            assert traj.min_eig[i] == state.min_eigenvalue()

    def test_hermiticity_break_aborts_at_first_bad_grid_time(self):
        # the single term s rho s (s = sigma^- of qubit 0) gives
        # rho(t) = rho0 + t X, X = s rho0 s, so the Hermiticity error is c t;
        # the negative eigenvalue it also opens is ~ -c^2 t, which the small
        # polar angle keeps above the positivity floor past the abort
        n, dim = 3, 8
        lower = site_lower(0, n)
        gen = Generator(n, np.zeros((dim, dim), dtype=complex), [(1.0, lower, lower)],
                        "jump_operator")
        s0 = initial_state("css", n, theta=0.005)
        x = lower @ s0.rho @ lower
        c = np.max(np.abs(x - x.conj().T))
        abort_tol = 1e-6  # max(1e-6, 1e4 atol) at the default atol
        # the error crosses the tolerance half-way between points 300 and
        # 301, in the second chunk of 256 states
        grid = np.linspace(0.0, abort_tol / c * 399 / 300.5, 400)
        with pytest.raises(StateInvariantError,
                           match=re.escape(f"Gamma_0 t = {grid[301]:.6g}: ")):
            evolve(s0, gen, grid)

    def test_mismatched_generator_rejected(self):
        gen = generator_for(2, 0.5, 0.0)
        with pytest.raises(ValueError, match="qubit counts"):
            evolve(initial_state("all_excited", 3), gen, np.array([0.0, 1.0]))


class TestSteadyState:
    def test_single_qubit_vacuum_ground_state(self):
        gen = generator_for(1, 1.0, 0.0)
        ss = steady_state(gen)
        assert np.allclose(ss.rho, np.diag([0.0, 1.0]), atol=1e-10)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
    def test_single_qubit_squeezed_occupation(self, r):
        gen = generator_for(1, 1.0, r)
        sz = collective_spin(steady_state(gen))[2]
        n_occ = np.sinh(r) ** 2
        assert sz == pytest.approx(-1.0 / (2 * n_occ + 1), abs=1e-10)

    def test_two_qubit_squeezed_steady_state(self):
        from magsqueeze.observables import wineland_xi2

        gen = generator_for(2, 0.5, 0.25)
        summary = wineland_xi2(steady_state(gen))
        assert 1.0 / summary.xi_r_squared > 1.0

    def test_consistent_with_long_time_evolution(self):
        gen = generator_for(2, 0.5, 0.25)
        ss = steady_state(gen)
        traj = evolve(initial_state("all_ground", 2), gen, np.array([0.0, 400.0]))
        assert trace_distance(ss.rho, traj.final_state.rho) < 1e-6

    def test_dicke_degenerate_layout_detected(self):
        # nearly coincident qubits leave a dark state: null space not unique
        gen = generator_for(2, 1e-7, 0.0)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)

    @pytest.mark.parametrize("a_over_lambda", [1e-7, 1e-5, 1e-4, 3e-4, 1e-3, 1e-2, 0.5])
    def test_degeneracy_decision_matches_dense_eig(self, a_over_lambda):
        # the bordered solve flags a degenerate null space exactly when the
        # dense spectrum has |lambda_2| < 1e-8 * spectral radius
        gen = generator_for(2, a_over_lambda, 0.0)
        vals, _, radius = eig_smallest(gen.liouvillian(), n=2, return_radius=True)
        if abs(vals[1]) < 1e-8 * radius:
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(gen)
        else:
            steady_state(gen)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_eig_null_vector_on_2d_layouts(self, seed):
        rng = np.random.default_rng(seed)
        geometry = ArrayGeometry(positions=rng.uniform(0.0, 1.5, size=(3, 2)))
        bs = bath_from_params(P, r_override=0.3)
        gen = build_generator(build_couplings(geometry, P, bs))
        _, vec = eig_smallest(gen.liouvillian())
        ref = vec.reshape(8, 8)
        ref = 0.5 * (ref + ref.conj().T)
        ref = ref / np.trace(ref)
        assert trace_distance(steady_state(gen).rho, ref) <= 1e-10

    def test_size_limit(self):
        gen = generator_for(7, 0.5, 0.0)
        with pytest.raises(ValueError, match="limited"):
            steady_state(gen)


class TestCouplingSetEdits:
    def test_generator_recovers_bath_moments(self):
        # the jump construction reads N and M back from the matrices; check
        # it is insensitive to an overall rescale of nu
        bs = bath_from_params(P, r_override=0.4)
        cs = build_couplings(ArrayGeometry.chain(2, 0.8), P, bs)
        cs2 = dataclasses.replace(
            cs, j=2 * cs.j, gamma_mp=2 * cs.gamma_mp, gamma_pm=2 * cs.gamma_pm,
            gamma_pp=2 * cs.gamma_pp, gamma_mm=2 * cs.gamma_mm,
            nu=2 * cs.nu,
        )
        g1 = build_generator(cs)
        g2 = build_generator(cs2)
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        assert np.max(np.abs(g1.action(rho) - g2.action(rho))) < 1e-12
