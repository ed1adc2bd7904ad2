import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magsqueeze import dynamics, numerics
from magsqueeze.bath import BathState, bath_from_params, resonant_wavelength
from magsqueeze.cli import (
    EXIT_OK,
    FIG2B_SETS,
    FIG2B_TGRID,
    FIG2C_TGRID,
    UNCORRELATED_A,
    main,
)
from magsqueeze.couplings import build_couplings
from magsqueeze.dynamics import (
    BLOCK_MIN_QUBITS,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    REVERSAL_MIN_QUBITS,
    Generator,
    QubitState,
    _invariants,
    build_generator,
    evolve,
    evolve_many,
    steady_state,
)
from magsqueeze.errors import (
    ConfigError,
    DegenerateSteadyStateError,
    StateInvariantError,
)
from magsqueeze.numerics import (
    OUTPUT_CHUNK_BYTES,
    eig_smallest,
    integrate_ode,
    spectral_radius_estimate,
)
from magsqueeze.observables import collective_spin, initial_state, wineland_xi2
from magsqueeze.operators import site_lower
from magsqueeze.params import ArrayGeometry, PhysicalParams

from oracles import collective_steady_state, four_channel_generator, matrix_exp, site_pauli

P = PhysicalParams()
# the generator's jump-operator form and the channel-sum reference, by name
FORMS = {"jump_operator": build_generator, "four_channel": four_channel_generator}
MODES = list(FORMS)


def generator_for(n, a, r, mode="jump_operator"):
    bs = bath_from_params(P, r_override=r)
    cs = build_couplings(ArrayGeometry.chain(n, a), P, bs)
    return FORMS[mode](cs)


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


def kron_frobenius_norm(gen):
    """||L||_F of the Kronecker form of `Generator.liouvillian`,
    L = sum_s X_s kron Y_s, from <X kron Y, X' kron Y'> = <X, X'> <Y, Y'>,
    so that no 4^N x 4^N matrix is built."""
    h, eye = gen.h_eff, np.eye(len(gen.h_eff))
    g = sum(w * (b_op @ a_op) for w, a_op, b_op in gen.terms)
    lefts = [-1j * h - 0.5 * g, eye] + [w * a_op for w, a_op, _ in gen.terms]
    rights = [eye, (1j * h - 0.5 * g).T] + [b_op.T for _, _, b_op in gen.terms]
    x, y = (np.reshape(ops, (len(ops), -1)) for ops in (lefts, rights))
    return float(np.sqrt(np.sum((x.conj() @ x.T) * (y.conj() @ y.T)).real))


def arnoldi_radius(gen):
    """The spectral-radius estimate that `steady_state` takes of `action`."""
    dim = 2 ** gen.n_qubits
    return spectral_radius_estimate(lambda vec: gen.action(vec.reshape(dim, dim)).ravel(),
                                    dim * dim)


def radius_calls(monkeypatch):
    """Record every spectral-radius estimate `steady_state` runs, and the
    Ritz estimates of its blocks."""
    calls = {"radii": [], "estimates": []}
    estimate, solve = dynamics.spectral_radius_estimate, dynamics._solve_sector

    def spy_estimate(apply, size):
        calls["radii"].append(estimate(apply, size))
        return calls["radii"][-1]

    def spy_solve(mat, rhs, name):
        sol, lam = solve(mat, rhs, name)
        calls["estimates"].append(lam)
        return sol, lam

    monkeypatch.setattr(dynamics, "spectral_radius_estimate", spy_estimate)
    monkeypatch.setattr(dynamics, "_solve_sector", spy_solve)
    return calls


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

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_qubits_rejected(self, n):
        # a 1 x 1 "state" of no qubits used to pass and give a zero spin
        with pytest.raises(ValueError, match="n_qubits >= 1"):
            QubitState(np.eye(1, dtype=complex), n)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("entry, value", [
        pytest.param((0, 1), np.nan, id="nan-offdiag"),
        pytest.param((0, 0), np.nan, id="nan-diag"),
        pytest.param(None, np.nan, id="nan-all"),
        pytest.param((0, 1), np.inf, id="inf-offdiag"),
    ])
    def test_non_finite_state_rejected(self, n, entry, value):
        # a NaN error compares False against any tolerance, so a state must
        # pass only when its errors are <= their tolerances; the skipped
        # eigenvalues read NaN, and eigvalsh never sees a non-finite matrix
        rho = initial_state("css", n, theta=np.pi / 3).rho.copy()
        if entry is None:
            rho[...] = value
        else:
            rho[entry] = value
        state = QubitState(rho, n)
        with pytest.raises(StateInvariantError, match="invariant violation"):
            state.check()
        with pytest.raises(StateInvariantError, match="invariant violation"):
            evolve(state, generator_for(n, 0.5, 0.25), np.array([0.0, 0.1]))
        _, herm_err, min_eig = _invariants(state.rho[None])
        assert np.isnan(min_eig[0])
        assert not herm_err[0] <= 1.0


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

    @pytest.mark.parametrize("mode", ["jump_operator", "four_channel"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sandwich_form_equals_action(self, mode, n):
        # the stacks the steady-state sectors are built from: in the parity
        # order, block (x, y) of L(X) takes the terms [:2] from the block X_xy
        # and the jump terms [2:] from X_{1-x,1-y}
        gen = generator_for(n, 0.5, 0.3, mode)
        lefts, rights = gen._sandwich()
        order = parity_order(n)
        half = 2 ** (n - 1)
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = random_matrix(rng, 2 ** n)
            want = per_term_action(gen, x)[order[:, None], order].reshape(2, half, 2, half)
            blocks = x[order[:, None], order].reshape(2, half, 2, half)
            for bx, by in ((0, 0), (0, 1), (1, 0), (1, 1)):
                got = sum(l_op @ blocks[bx, :, by] @ r_op
                          for l_op, r_op in zip(lefts[bx, :2], rights[by, :2]))
                got += sum(l_op @ blocks[1 - bx, :, 1 - by] @ r_op
                           for l_op, r_op in zip(lefts[1 - bx, 2:], rights[by, 2:]))
                assert np.linalg.norm(got - want[bx, :, by]) <= 1e-12 * np.linalg.norm(want)

    def test_action_result_is_not_a_work_array(self):
        # the dense layout, and the parity layout on the blocks of a
        # parity-even state
        rng = np.random.default_rng(5)
        for n, even in ((3, False), (5, True)):
            gen = generator_for(n, 0.5, 0.3)

            def draw():
                if even:
                    return np.take(parity_even_density(rng, n), gen._parity.index)
                return random_matrix(rng, 2 ** n)

            def owned():
                # the arrays the generator keeps, and those of its layouts
                layouts = [v for v in vars(gen).values() if isinstance(v, dynamics._Layout)]
                return [v for obj in (gen, *layouts) for v in vars(obj).values()
                        if isinstance(v, np.ndarray)]

            before = len(owned())
            rho = draw()
            out = gen.action(rho)
            assert out.shape == rho.shape
            kept = out.copy()
            # the first call made the work arrays of the layout it ran
            assert len(owned()) > before
            assert not any(np.shares_memory(out, v) for v in owned())
            gen.action(draw())
            assert np.array_equal(out, kept)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_parity_layout_is_the_permuted_dense_layout(self, mode, n):
        # the one parity split: block p of the parity layout's sandwich stacks
        # is the stacks of the operators in the basis ordered by parity, the
        # terms [:2] within block p and the jump terms [2:] from the partner
        # q into p
        gen = generator_for(n, 0.5, 0.3, mode)
        order = parity_order(n)
        half = 2 ** (n - 1)
        blocks = (slice(None, half), slice(half, None))
        h = gen.h_eff
        g = np.zeros_like(h)
        for w, a_op, b_op in gen.terms:
            g += w * (b_op @ a_op)
        eye = np.eye(2 ** n)
        dense = ([-1j * h - 0.5 * g, eye, *(w * a_op for w, a_op, _ in gen.terms)],
                 [eye, 1j * h - 0.5 * g, *(b_op for _, _, b_op in gen.terms)])
        dense = [np.array(stack)[:, order[:, None], order] for stack in dense]
        for want, got in zip(dense, gen._sandwich()):
            assert got.shape == (2, want.shape[0], half, half)
            for p, q in ((0, 1), (1, 0)):
                bp, bq = blocks[p], blocks[q]
                assert np.array_equal(got[p, :2], want[:2, bp, bp])
                assert np.array_equal(got[p, 2:], want[2:, bq, bp])

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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_liouvillian_matches_action(self, mode, n):
        gen = generator_for(n, 0.5, 0.25, mode)
        lmat = gen.liouvillian()
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2 ** n)
        direct = gen.action(rho)
        via_l = (lmat @ rho.ravel()).reshape(rho.shape)
        assert np.max(np.abs(direct - via_l)) < 1e-12

    @pytest.mark.parametrize("mode", ["jump_operator", "four_channel"])
    def test_adjoint_is_dual_of_action(self, mode):
        rng = np.random.default_rng(11)
        geometry = ArrayGeometry(positions=rng.uniform(0.0, 1.5, size=(3, 2)))
        bs = bath_from_params(P, r_override=0.3)
        gen = FORMS[mode](build_couplings(geometry, P, bs))
        for _ in range(5):
            rho = random_density(rng, 8)
            x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            lhs = np.trace(x @ gen.action(rho))
            rhs = np.trace(gen.adjoint(x) @ rho)
            assert abs(lhs - rhs) < 1e-12 * np.linalg.norm(x) * np.linalg.norm(gen.liouvillian())

    def test_size_validation(self):
        bs = bath_from_params(P, r_override=0.1)
        cs9 = build_couplings(ArrayGeometry.chain(9, 0.5), P, bs)
        with pytest.raises(ValueError, match="limited"):
            build_generator(cs9)

    @pytest.mark.parametrize("n, h_eff, terms, match", [
        (2, np.ones(4), [], r"h_eff has shape \(4,\)"),
        (2, 1.0, [], r"h_eff has shape \(\)"),
        (2, np.zeros((4, 4)), [(1.0, np.ones(4), np.eye(4))], r"A_1 has shape \(4,\)"),
        (2, np.zeros((4, 4)), [(1.0, np.eye(4), np.eye(4)), (1.0, np.eye(4), np.ones(4))],
         r"B_2 has shape \(4,\)"),
        (2, np.zeros((8, 8)), [], r"h_eff has shape \(8, 8\), expected \(4, 4\)"),
        (0, np.ones((1, 1)), [], "n_qubits >= 1"),
    ])
    def test_misshaped_operators_rejected(self, n, h_eff, terms, match):
        # a scalar or a row would broadcast into the operator stacks
        with pytest.raises(ValueError, match=match):
            Generator(n, h_eff, terms)


# random 2-d layouts: N = 2-4 qubits in a 2 x 2 lambda square, random (r, phi)
POSITIONS = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
LAYOUTS = st.lists(POSITIONS, min_size=2, max_size=4)
SQUEEZING_R = st.floats(0.0, 1.5)
SQUEEZING_PHI = st.floats(0.0, 2 * np.pi, exclude_max=True)


def layout_couplings(points, r, phi):
    """Couplings of a random layout; examples with a separation below
    0.05 lambda are discarded."""
    positions = np.array(points)
    diff = positions[:, None, :] - positions[None, :, :]
    sep = np.sqrt(np.sum(diff ** 2, axis=-1))
    assume(np.min(sep[~np.eye(len(points), dtype=bool)]) >= 0.05)
    bs = BathState.from_squeezing(r, phi, lam=resonant_wavelength(P)[1])
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
        gen = FORMS[mode](layout_couplings(points, r, phi))
        rho = random_density(np.random.default_rng(seed), 2 ** len(points))
        out = gen.action(rho)
        scale = np.linalg.norm(out)
        assert abs(np.trace(out)) <= 1e-10 * scale
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10 * scale


def basis_parity(n):
    """Parity of each basis state, counted bit by bit."""
    return np.array([bin(i).count("1") % 2 for i in range(2 ** n)])


def parity_order(n):
    """The basis states of even parity, then those of odd parity, each
    ascending, as `dynamics` orders them; checked against `basis_parity`."""
    order = np.concatenate(dynamics._parity_states(n))
    parity = basis_parity(n)[order]
    assert np.array_equal(parity, np.repeat([0, 1], 2 ** (n - 1)))
    for part in (order[parity == 0], order[parity == 1]):
        assert np.all(np.diff(part) > 0)
    return order


def parity_even_density(rng, n):
    """Random density matrix with every cross-parity entry exactly 0."""
    parity = basis_parity(n)
    rho = random_density(rng, 2 ** n)
    rho[parity[:, None] != parity] = 0.0
    return rho


def block_action(gen, rho):
    """`action` of a parity-even d x d `rho` on its parity blocks, placed
    back into a d x d array."""
    parity = gen._parity
    blocks = np.take(rho, parity.index)
    out = gen.action(blocks)
    assert out.shape == blocks.shape
    return parity.scatter(out)


def dense_evolve(*args, **kwargs):
    """`evolve` with the parity blocks switched off: the full state is
    integrated."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BLOCK_MIN_QUBITS", dynamics.MAX_QUBITS + 1)
        return evolve(*args, **kwargs)


def spy_block_action(monkeypatch):
    """Count the calls of `action` on parity blocks: a (2, h, h) stack, or an
    (m, 2, h, h) stack of m members' blocks."""
    calls = []
    action = Generator.action

    def spy(self, rho, *rest):
        if rho.shape[-3:-2] == (2,):
            calls.append(rho.shape)
        return action(self, rho, *rest)

    monkeypatch.setattr(Generator, "action", spy)
    return calls


TRAJECTORY_COLUMNS = ("t", "mean_spin", "min_perp_var", "inv_xi2", "relaxation", "min_eig",
                      "trace_err", "herm_err")
# the columns that both paths compute from the same entries by the same arithmetic
EXACT_COLUMNS = ("t", "min_eig", "herm_err")
# the other columns sum the same nonzero products on the blocks as on the
# full states, in another order: a bound in eps of the column's largest
# magnitude (at most 16 measured), and an absolute one on trace_err, the
# error of a sum of O(1) terms (at most 2 eps measured)
SUM_EPS = 64
TRACE_EPS = 4
EPS = np.finfo(float).eps


def assert_same_trajectory(got, want):
    """Every column, the final state, every kept state and the integrator's
    counters bit for bit; a trajectory measured on the blocks against one
    measured on the full states only within the bounds above on the columns
    outside EXACT_COLUMNS."""
    summed = got.parity_blocks != want.parity_blocks
    for name in TRAJECTORY_COLUMNS:
        mine, theirs = getattr(got, name), getattr(want, name)
        if not summed or name in EXACT_COLUMNS:
            assert np.array_equal(mine, theirs), name
        elif name == "trace_err":
            assert np.max(np.abs(mine - theirs)) <= TRACE_EPS * EPS, name
        else:
            scale = np.max(np.abs(theirs), axis=0)
            assert np.all(np.abs(mine - theirs) <= SUM_EPS * EPS * scale), name
    assert np.array_equal(got.final_state.rho, want.final_state.rho)
    assert got.final_state.time == want.final_state.time
    assert len(got.states) == len(want.states)
    for mine, theirs in zip(got.states, want.states):
        assert mine.time == theirs.time
        assert np.array_equal(mine.rho, theirs.rho)
    assert got.stats == want.stats


# the custom trajectory CSV's columns of EXACT_COLUMNS, and its Sx and Sy:
# their operators have no entry inside the parity blocks
EXACT_CSV_COLUMNS = ("Gamma0_t", "Sx", "Sy", "min_eig_rho", "herm_error")


def printed_unit(cells):
    """One unit in the last digit of each CSV cell, written with 12 decimals
    after the point in e notation."""
    return 10.0 ** (np.array([int(cell.partition("e")[2]) for cell in cells]) - 12)


# N = BLOCK_MIN_QUBITS..7 qubits, on a chain or scattered in a 2 x 2 lambda square
BLOCK_QUBITS = st.integers(BLOCK_MIN_QUBITS, 7)
CHAIN_SPACING = st.floats(0.1, 1.5)


MIB = 1024 * 1024


def trajectory_peaks(n, *sizes):
    """tracemalloc peaks of `evolve` from all_excited over grids of `sizes`
    points on [0, 5], on a chain with a = 0.5 lambda and r = 0.5.  A first
    run builds the operator caches and the work arrays outside the traced
    ones."""
    gen = generator_for(n, 0.5, 0.5)
    evolve(initial_state("all_excited", n), gen, np.linspace(0.0, 5.0, 3))
    peaks = []
    for size in sizes:
        tracemalloc.start()
        try:
            evolve(initial_state("all_excited", n), gen, np.linspace(0.0, 5.0, size))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestParityBlocks:
    @pytest.mark.parametrize("mode", MODES)
    @given(BLOCK_QUBITS, st.booleans(), st.data(), SQUEEZING_R, SQUEEZING_PHI,
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_block_path_equals_dense_path(self, mode, n, chain, data, r, phi, seed):
        # the blocks keep the ascending index order of each parity, so the
        # parity layout sums the same nonzero products in the same order
        if chain:
            bs = BathState.from_squeezing(r, phi, lam=resonant_wavelength(P)[1])
            couplings = build_couplings(ArrayGeometry.chain(n, data.draw(CHAIN_SPACING)), P, bs)
        else:
            points = data.draw(st.lists(POSITIONS, min_size=n, max_size=n))
            couplings = layout_couplings(points, r, phi)
        gen = FORMS[mode](couplings)
        assert gen.parity_symmetric
        rng = np.random.default_rng(seed)
        for _ in range(3):
            rho = parity_even_density(rng, n)
            assert np.array_equal(block_action(gen, rho), gen.action(rho))

    def test_block_path_at_eight_qubits(self):
        # the half-size blocks split the inner sums into other panels at N = 8
        gen = generator_for(8, 0.5, 0.5)
        rho = parity_even_density(np.random.default_rng(8), 8)
        want = gen.action(rho)
        got = block_action(gen, rho)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_hamiltonian_only_generator(self):
        # no dissipator terms: empty jump stacks on the parity layout
        n = 5
        h_eff = generator_for(n, 0.5, 0.25).h_eff
        gen = Generator(n, h_eff, [])
        rho = parity_even_density(np.random.default_rng(0), n)
        assert np.array_equal(block_action(gen, rho), -1j * (h_eff @ rho - rho @ h_eff))

    def test_css_start_takes_the_dense_path(self, monkeypatch):
        # a coherent spin state has cross-parity entries: every call is dense,
        # and the trajectory is the one without the parity blocks
        n = 5
        gen = generator_for(n, 0.5, 0.25)
        start = initial_state("css", n, theta=1.0, phi=0.3)
        grid = np.linspace(0.0, 1.0, 6)
        want = dense_evolve(start, gen, grid)
        calls = spy_block_action(monkeypatch)
        got = evolve(start, gen, grid)
        assert calls == [] and not got.parity_blocks
        assert_same_trajectory(got, want)

    # N = 3-7 chains and a 2-d layout of 5 qubits; grids of 1, 2 and 33
    # points, the last not starting at 0, one of a chunk of full states and
    # one more, whose last state the dense path measures alone (one row
    # takes another BLAS kernel than two), and at N = 5 400 points over the
    # longest span without keep_states.  The blocks are checked and measured
    # at every N, so the columns outside EXACT_COLUMNS move within the
    # bounds of assert_same_trajectory
    @pytest.mark.parametrize("n, chain", [(5, True), (6, True), (7, True), (5, False),
                                          (3, True), (4, True)])
    @pytest.mark.parametrize("start", ["all_excited", "all_ground"])
    def test_block_trajectory_equals_the_dense_one(self, n, chain, start):
        if chain:
            gen = generator_for(n, 0.5, 0.5)
        else:
            gen = random_layout_generator(4, n, "jump_operator")
        assert gen.parity_symmetric
        end = {3: 20.0, 4: 20.0, 5: 20.0, 6: 5.0, 7: 0.1}[n]  # one dense action: 14 ms at N = 7
        grids = [(np.array([0.0]), True), (np.array([0.0, end / 40]), True),
                 (np.linspace(end / 80, end / 80 + end / 4, 33), True),
                 (np.linspace(0.0, end / 4, OUTPUT_CHUNK_BYTES // (16 * 4 ** n) + 1), False)]
        if n == 5:
            grids.append((np.linspace(0.0, end, 400), False))
        for grid, keep in grids:
            got = evolve(initial_state(start, n), gen, grid, keep_states=keep)
            want = dense_evolve(initial_state(start, n), gen, grid, keep_states=keep)
            assert got.parity_blocks and not want.parity_blocks
            assert len(got.states) == (grid.size if keep else 0)
            assert_same_trajectory(got, want)

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("keep", [False, True])
    def test_scatter_only_the_start_and_the_returned_states(self, monkeypatch, keep, n):
        # evolve checks and measures the blocks that it integrated, at every
        # N: it places blocks into full arrays once to test the start's
        # parity, and once for the states that it returns
        grid = np.linspace(0.0, 5.0, 400)
        shapes = []
        scatter = dynamics._Layout.scatter

        def spy(self, blocks, *rest):
            shapes.append(blocks.shape)
            return scatter(self, blocks, *rest)

        monkeypatch.setattr(dynamics._Layout, "scatter", spy)
        traj = evolve(initial_state("all_excited", n), generator_for(n, 0.5, 0.5), grid,
                      keep_states=keep)
        assert traj.parity_blocks
        half = 2 ** (n - 1)
        assert shapes == [(2, half, half), (grid.size if keep else 1, 2, half, half)]

    def test_block_trajectory_memory(self):
        # evolve checks and measures the blocks in the integrator's output
        # buffer of OUTPUT_CHUNK_BYTES as it fills, and copies only the
        # last: from 100 to 1600 points its peak grows by the columns (about
        # 17 floats a point), not by the 32 KiB of blocks a point
        small, large = trajectory_peaks(6, 100, 1600)
        assert large - small <= 0.5 * MIB
        assert large <= 4 * MIB

    @pytest.mark.parametrize("field", [0.0, 0.3])
    def test_symmetry_breaking_generator_takes_the_dense_path(self, monkeypatch, field):
        # a sigma_x field breaks the parity symmetry; at the qubit threshold,
        # only the symmetry check decides the path.  Either way evolve
        # matches the matrix exponential, as in criterion 7
        n = BLOCK_MIN_QUBITS
        base = generator_for(n, 0.6, 0.25)
        h_eff = base.h_eff + field * sum(site_pauli("x", i, n) for i in range(n))
        gen = Generator(n, h_eff, base.terms)
        assert gen.parity_symmetric == (field == 0.0)
        calls = spy_block_action(monkeypatch)
        rho0 = initial_state("all_excited", n).rho
        t = np.linspace(0.0, 5.0, 11)
        traj = evolve(initial_state("all_excited", n), gen, t, keep_states=True)
        assert traj.parity_blocks == bool(calls) == (field == 0.0)
        lmat = gen.liouvillian()
        for i in range(1, 11):
            ref = (matrix_exp(lmat * t[i]) @ rho0.ravel()).reshape(rho0.shape)
            assert np.max(np.abs(traj.states[i].rho - ref)) < 1e-6

    @pytest.mark.parametrize("start, blocks", [("all_excited", True), ("css", False)])
    def test_trajectory_records_the_path(self, monkeypatch, start, blocks):
        n = BLOCK_MIN_QUBITS
        gen = generator_for(n, 0.5, 0.25)
        calls = spy_block_action(monkeypatch)
        traj = evolve(initial_state(start, n, theta=1.0), gen, np.array([0.0, 0.2]))
        assert traj.parity_blocks is blocks
        assert bool(calls) is blocks

    @pytest.mark.parametrize("n", [3, 5])
    def test_invariants_of_a_parity_even_start(self, monkeypatch, n):
        # every state of a parity-even start is block-diagonal on either path
        # of action, so evolve takes the smallest eigenvalue from the two
        # parity blocks; the Hermiticity error is that of the full states, bit
        # for bit, and the checks read the blocks, so the trace is summed
        # block by block
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            shapes.append(a.shape[1:])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        traj = evolve(initial_state("all_excited", n), generator_for(n, 0.5, 0.25),
                      np.linspace(0.0, 2.0, 9), keep_states=True)
        assert traj.parity_blocks
        assert shapes[-1] == (2, 2 ** (n - 1), 2 ** (n - 1))
        trace_err, herm_err, min_eig = _invariants(np.array([s.rho for s in traj.states]))
        assert np.max(np.abs(traj.trace_err - trace_err)) <= TRACE_EPS * EPS
        assert np.array_equal(traj.herm_err, herm_err)
        assert np.max(np.abs(traj.min_eig - min_eig)) <= 2 ** n * EPS

    def test_custom_csvs_match_the_dense_path(self, tmp_path, monkeypatch):
        # the in-process CLI at the smallest N at which the checks read the
        # blocks writes the same coupling CSVs with the block path switched
        # off, and a trajectory CSV
        # whose EXACT_CSV_COLUMNS are the same cells; the others move within
        # the bounds of assert_same_trajectory plus one unit of the last
        # printed digit of either cell
        calls = spy_block_action(monkeypatch)
        argv = ["--scenario", "custom", "--set", f"n_qubits={BLOCK_MIN_QUBITS}", "--out"]
        assert main([*argv, str(tmp_path / "blocks")]) == EXIT_OK
        assert calls
        monkeypatch.setattr(dynamics, "BLOCK_MIN_QUBITS", BLOCK_MIN_QUBITS + 1)
        assert main([*argv, str(tmp_path / "dense")]) == EXIT_OK
        names = sorted(path.name for path in (tmp_path / "blocks").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "dense").iterdir())
        assert len(names) == 6
        for name in names:
            got = (tmp_path / "blocks" / name).read_text()
            want = (tmp_path / "dense" / name).read_text()
            if name != "custom_trajectory.csv":
                assert got == want, name
                continue
            got, want = (text.splitlines() for text in (got, want))
            body = next(i for i, line in enumerate(want) if not line.startswith("#")) + 1
            assert got[:body] == want[:body] and len(got) == len(want)
            cells = np.array([[line.split(",") for line in lines[body:]] for lines in (got, want)])
            for j, column in enumerate(want[body - 1].split(",")):
                mine, theirs = cells[:, :, j]
                if column in EXACT_CSV_COLUMNS:
                    assert np.array_equal(mine, theirs), column
                    continue
                bound = (TRACE_EPS * EPS if column == "trace_error"
                         else SUM_EPS * EPS * np.max(np.abs(theirs.astype(float))))
                moves = np.abs(mine.astype(float) - theirs.astype(float))
                assert np.all(moves <= bound + np.maximum(printed_unit(mine),
                                                          printed_unit(theirs))), column


class TestEvolve:
    def test_zero_time_grid_returns_input(self):
        gen = generator_for(2, 0.5, 0.25)
        s0 = initial_state("all_excited", 2)
        traj = evolve(s0, gen, np.array([0.0]))
        assert np.array_equal(traj.final_state.rho, s0.rho)

    def test_final_state_does_not_hold_the_trajectory(self):
        gen = generator_for(3, 0.5, 0.25)
        traj = evolve(initial_state("all_excited", 3), gen, np.linspace(0.0, 1.0, 200))
        assert traj.states == []
        assert traj.final_state.rho.flags.owndata

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
            ref = (matrix_exp(lmat * t[i]) @ rho0.ravel()).reshape(8, 8)
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
        assert 64 * 16 * t.size > OUTPUT_CHUNK_BYTES >= 64 * 16 * t.size / 2
        gen = generator_for(3, 0.5, 0.25)
        s0 = initial_state("css", 3, theta=np.pi / 2, phi=0.3)
        traj = evolve(s0, gen, t, keep_states=True)
        for i, state in enumerate(traj.states):
            trace_err, herm_err, min_eig = _invariants(state.rho[None])
            assert traj.trace_err[i] == trace_err[0]
            assert traj.herm_err[i] == herm_err[0]
            assert traj.min_eig[i] == min_eig[0]

    @pytest.mark.parametrize("n", [2, 4, 5])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_columns_do_not_depend_on_the_output_chunks(self, monkeypatch, n, rows):
        # full states at N = 2 and blocks at N = 4 and 5: with an output
        # chunk of one, two or three states
        # every column is that of one chunk for the whole grid, bit for bit
        gen = generator_for(n, 0.5, 0.25)
        grid = np.linspace(0.1, 2.0, 17)
        want = evolve(initial_state("all_excited", n), gen, grid, keep_states=True)
        width = 4 ** n // (2 if want.parity_blocks else 1)
        monkeypatch.setattr(numerics, "OUTPUT_CHUNK_BYTES", rows * 16 * width)
        got = evolve(initial_state("all_excited", n), gen, grid, keep_states=True)
        assert_same_trajectory(got, want)

    def test_hermiticity_break_aborts_at_first_bad_grid_time(self):
        # the single term s rho s (s = sigma^- of qubit 0) gives
        # rho(t) = rho0 + t X, X = s rho0 s, so the Hermiticity error is c t;
        # the negative eigenvalue it also opens is ~ -c^2 t, which the small
        # polar angle keeps above the positivity floor past the abort
        n, dim = 3, 8
        lower = site_lower(0, n)
        gen = Generator(n, np.zeros((dim, dim), dtype=complex), [(1.0, lower, lower)])
        s0 = initial_state("css", n, theta=0.005)
        x = lower @ s0.rho @ lower
        c = np.max(np.abs(x - x.conj().T))
        abort_tol = 1e-6  # max(1e-6, 1e4 atol) at the default atol
        # the error crosses the tolerance half-way between points 300 and
        # 301, in the second output chunk
        grid = np.linspace(0.0, abort_tol / c * 399 / 300.5, 400)
        rows = OUTPUT_CHUNK_BYTES // (dim * dim * 16)
        assert rows <= 301 < 2 * rows
        with pytest.raises(StateInvariantError,
                           match=re.escape(f"Gamma_0 t = {grid[301]:.6g}: ")):
            evolve(s0, gen, grid)

    def test_dense_trajectory_memory(self):
        # the full 16 x 16 states of N = 4: at 400 and at 1600 points the
        # output buffer holds its 64 states, and the peak grows as in
        # test_block_trajectory_memory
        small, large = trajectory_peaks(4, 400, 1600)
        assert large - small <= 0.5 * MIB
        assert large <= 4 * MIB

    def test_broken_state_stops_the_integration(self, monkeypatch):
        # an anti-Hermitian Hamiltonian part (i H_eff) keeps the parity and
        # the trace but breaks Hermiticity at once: the first chunk's check
        # raises before the integrator has made a quarter of the
        # right-hand-side calls of the whole grid
        n = 6
        base = generator_for(n, 0.5, 0.5)
        gen = Generator(n, 1j * base.h_eff, base.terms)
        start = initial_state("all_excited", n)
        grid = np.linspace(0.0, 20.0, 400)
        blocks, whole = np.take(start.rho, gen.parity_entries), []

        def rhs(y, members):
            whole.append(1)
            return gen.action(y[0].reshape(blocks.shape)).ravel()[None]

        integrate_ode(rhs, blocks.ravel()[None], grid, DEFAULT_RTOL, DEFAULT_ATOL,
                      lambda *_: None, layout=(gen.parity_entries.ravel(), 4 ** n))
        calls = spy_block_action(monkeypatch)
        with pytest.raises(StateInvariantError, match=re.escape(
                f"invariant violation at Gamma_0 t = {grid[1]:.6g}: trace error ")):
            evolve(start, gen, grid)
        assert 0 < len(calls) < len(whole) / 4

    def test_mismatched_generator_rejected(self):
        gen = generator_for(2, 0.5, 0.0)
        with pytest.raises(ValueError, match="qubit counts"):
            evolve(initial_state("all_excited", 3), gen, np.array([0.0, 1.0]))

    def test_atol_below_the_floor_rejected(self):
        # before the first step: from a basis state, the step at atol =
        # 1e-200 overflowed the error norm's squares (a RuntimeWarning)
        gen = generator_for(2, 0.5, 0.0)
        with pytest.raises(ValueError, match="tolerances"):
            evolve(initial_state("all_excited", 2), gen, np.linspace(0, 1, 5), atol=1e-200)


# stacks of evolve_many, each (starts, generators, grid) from a function so
# that the cases build nothing at collection
def fig2b_sets(grid=FIG2B_TGRID):
    return ([initial_state(init, 2) for *_, init in FIG2B_SETS],
            [generator_for(2, a, r) for _, r, a, _ in FIG2B_SETS], grid)


def fig2c_sets(grid=FIG2C_TGRID):
    gens = [generator_for(4, a, r) for r in (0.0, 0.5, 1.0) for a in (0.4, UNCORRELATED_A)]
    return [initial_state("all_excited", 4)] * len(gens), gens, grid


def block_sets():
    # N = 5 on the parity blocks: a chain and a random 2-d layout
    gens = [generator_for(5, 0.5, 0.5), random_layout_generator(4, 5, "jump_operator")]
    return ([initial_state("all_excited", 5), initial_state("all_ground", 5)], gens,
            np.linspace(0.0, 2.0, 41))


def mixed_start_sets():
    # a css start is integrated as the full state, apart from the parity-even ones
    gen = generator_for(3, 0.5, 0.25)
    return ([initial_state("all_excited", 3), initial_state("css", 3, theta=1.0, phi=0.3),
             initial_state("all_ground", 3)], [gen, gen, generator_for(3, 0.7, 0.5)],
            np.linspace(0.0, 3.0, 61))


def term_count_sets():
    gen = generator_for(3, 0.5, 0.25)
    fewer = Generator(3, gen.h_eff, gen.terms[:-1])
    return [initial_state("all_excited", 3)] * 3, [gen, fewer, gen], np.linspace(0.0, 3.0, 61)


# (stack case, sizes of the stacks that evolve_many integrates, in order)
STACK_CASES = {
    "fig2b": (fig2b_sets, [4]),
    "fig2c": (fig2c_sets, [6]),
    "n5_blocks": (block_sets, [2]),
    "css_among_parity_even": (mixed_start_sets, [2, 1]),
    "term_counts": (term_count_sets, [2, 1]),
    "one_point_grid": (lambda: fig2b_sets(np.array([0.7])), [4]),
    "grid_not_at_zero": (lambda: fig2c_sets(np.linspace(0.3, 4.0, 75)), [6]),
    # one state more than a member's output chunk: the last is measured alone
    "one_past_a_chunk": (lambda: fig2c_sets(np.linspace(0.0, 2.0, 129)), [6]),
}


def spy_stacks(monkeypatch):
    """Record the number of members of every stack that `integrate_ode`
    integrates, and of every `action` call."""
    stacks, calls = [], []
    integrate, action = dynamics.integrate_ode, Generator.action

    def spy_integrate(f, y0, *args, **kwargs):
        stacks.append(len(y0))
        return integrate(f, y0, *args, **kwargs)

    def spy_action(self, rho, *rest):
        calls.append(len(rho))
        return action(self, rho, *rest)

    monkeypatch.setattr(dynamics, "integrate_ode", spy_integrate)
    monkeypatch.setattr(Generator, "action", spy_action)
    return stacks, calls


class TestEvolveMany:
    @pytest.mark.parametrize("case", list(STACK_CASES))
    @pytest.mark.parametrize("keep", [False, True])
    def test_stack_equals_one_evolve_per_member(self, monkeypatch, case, keep):
        # every column, the final state, every kept state and the counters
        # are bit for bit those of one evolve per member
        make, sizes = STACK_CASES[case]
        starts, gens, grid = make()
        wants = [evolve(start, gen, grid, keep_states=keep) for start, gen in zip(starts, gens)]
        stacks, _ = spy_stacks(monkeypatch)
        gots = evolve_many(starts, gens, grid, keep_states=keep)
        assert stacks == sizes
        assert len(gots) == len(wants)
        for got, want in zip(gots, wants):
            assert got.parity_blocks == want.parity_blocks
            assert_same_trajectory(got, want)

    def test_one_action_call_per_step_for_the_whole_stack(self, monkeypatch):
        # fig2c's members take 476-890 right-hand-side calls, so they leave
        # the stack at different times; each step is one call on the members
        # still integrating
        starts, gens, grid = fig2c_sets()
        _, calls = spy_stacks(monkeypatch)
        trajs = evolve_many(starts, gens, grid)
        nfev = [traj.stats.nfev for traj in trajs]
        assert len(set(nfev)) > 2
        assert calls[0] == 6 and calls[-1] == 1 and calls == sorted(calls, reverse=True)
        assert len(calls) == max(nfev) and sum(calls) == sum(nfev)
        for traj in trajs:
            stats = traj.stats
            assert stats.nfev == 2 + 6 * (stats.accepted + stats.rejected)
            assert 0 < stats.min_step <= stats.max_step < grid[-1]
        assert any(traj.stats.rejected for traj in trajs)

    def test_broken_member_stops_the_stack(self, monkeypatch):
        # as in TestEvolve.test_broken_state_stops_the_integration: the
        # broken member's first chunk raises before the stack has made a
        # quarter of the calls of the intact one
        n, grid = 5, np.linspace(0.0, 20.0, 400)
        gens = [generator_for(n, 0.5, r) for r in (0.25, 0.5, 1.0)]
        starts = [initial_state("all_excited", n)] * len(gens)
        _, calls = spy_stacks(monkeypatch)
        evolve_many(starts, gens, grid)
        whole = len(calls)
        calls.clear()
        gens[1] = Generator(n, 1j * gens[1].h_eff, gens[1].terms)
        with pytest.raises(StateInvariantError, match=re.escape(
                f"invariant violation at Gamma_0 t = {grid[1]:.6g}: trace error ")):
            evolve_many(starts, gens, grid)
        assert 0 < len(calls) < whole / 4

    def test_stack_memory(self):
        # each member checks and measures the chunks of its own output
        # buffer, and the dense output is evaluated at most a buffer's rows
        # at a time: from 400 to 1600 points the peak of fig2c's six
        # trajectories grows by their columns (16 floats a point and member
        # while they are integrated, 0.88 MiB here), not by their states
        starts, gens, _ = fig2c_sets()
        columns = len(gens) * (1600 - 400) * 16 * 8
        evolve_many(starts, gens, np.linspace(0.0, 5.0, 3))
        peaks = []
        for size in (400, 1600):
            tracemalloc.start()
            try:
                evolve_many(starts, gens, np.linspace(0.0, 5.0, size))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= columns + 0.5 * MIB

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="generators"):
            evolve_many([initial_state("all_excited", 2)] * 2, [generator_for(2, 0.5, 0.0)],
                        np.array([0.0, 1.0]))


# (layout, mode): seeded random 3-qubit layouts and a 4-qubit chain; a case of
# the jump_operator mode is named by its layout alone
NULL_VECTOR_CASES = [
    pytest.param(layout, mode, id=str(layout) if mode == "jump_operator" else f"{mode}-{layout}")
    for mode in MODES
    for layout in (0, 1, 2, "chain4")
]


def eig_null_state(gen):
    """Unit-trace Hermitian part of the null vector of the dense Liouvillian."""
    dim = 2 ** gen.n_qubits
    _, vec = eig_smallest(gen.liouvillian())
    ref = vec.reshape(dim, dim)
    ref = 0.5 * (ref + ref.conj().T)
    return ref / np.trace(ref)


# the fully collective limit: every gamma_ab equal and J = 0 leave H = 0 and
# the one jump operator C = cosh r S^- + e^{i phi} sinh r S^+, which drives a
# symmetric start into the squeezed state of the Dicke-space oracle
COLLECTIVE_R, COLLECTIVE_PHI = 0.5, -np.pi / 2


def collective_generator(n):
    """The collective generator, built from the Kronecker-product operators."""
    c = sum(np.cosh(COLLECTIVE_R) * site_pauli("minus", i, n)
            + np.exp(1j * COLLECTIVE_PHI) * np.sinh(COLLECTIVE_R) * site_pauli("plus", i, n)
            for i in range(n))
    return Generator(n, np.zeros_like(c), [(1.0, c, c.conj().T)])


class TestCollectiveLimit:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_n_ends_in_the_pure_dark_state_of_c(self, n):
        want, xi2, _ = collective_steady_state(n, COLLECTIVE_R, COLLECTIVE_PHI)
        c = collective_generator(n).terms[0][1]
        assert abs(np.trace(want @ want) - 1.0) < 1e-10
        assert np.max(np.abs(c @ want)) < 1e-10
        assert xi2 < 1.0  # squeezed, hence entangled

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_evolve_converges_to_the_dicke_space_oracle(self, n):
        # from N = 3 on, evolve integrates the parity blocks
        want, xi2, rate = collective_steady_state(n, COLLECTIVE_R, COLLECTIVE_PHI)
        gen = collective_generator(n)
        # 25 of the slowest decay times: the distance left to the oracle
        # state is e^-25 ~ 1e-11 times the start's
        grid = np.array([0.0, 25.0 / rate])
        for start in ("all_excited", "all_ground"):
            traj = evolve(initial_state(start, n), gen, grid)
            assert traj.parity_blocks == (n >= BLOCK_MIN_QUBITS)
            assert trace_distance(traj.final_state.rho, want) < 1e-8
            assert abs(wineland_xi2(traj.final_state).xi_r_squared - xi2) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_steady_state_refuses_the_collective_generator(self, n):
        # every state outside the symmetric space is decoherence-free, so
        # the stationary state is not unique
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(collective_generator(n))


# (a/lambda, r) at N = 2.  Under the squeezed bath the dense |lambda_2| reads
# 1e-8 of the radius at about a = 3e-4 lambda (0.69e-8 at 2.5e-4, 1.8e-8 at
# 4e-4), so that case sits near the boundary of its estimates and is left out
DEGENERACY_CASES = [
    *(pytest.param(a, 0.0, id=str(a)) for a in (1e-7, 1e-5, 1e-4, 3e-4, 1e-3, 1e-2, 0.5)),
    *(pytest.param(a, 0.5, id=f"{a}-r0.5") for a in (1e-5, 1e-4, 2.5e-4, 4e-4, 1e-3, 0.5)),
]


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

    def test_degeneracy_message_names_both_estimates(self):
        # at a = 1e-4 lambda the steady state is unique, but its slowest
        # rate is 4e-10 of the radius: the message gives both numbers and
        # both readings
        gen = generator_for(2, 1e-4, 0.0)
        moduli = np.sort(np.abs(np.linalg.eig(gen.liouvillian())[0]))
        with pytest.raises(DegenerateSteadyStateError) as info:
            steady_state(gen)
        message = str(info.value)
        found = re.search(r"\|lambda_2\| estimate (\S+) .* spectral-radius estimate (\S+):",
                          message)
        assert float(found[1]) == pytest.approx(moduli[1], rel=1e-3)
        assert float(found[2]) == pytest.approx(moduli[-1], rel=1e-3)
        assert "not unique" in message and "slowest decay rate" in message

    @pytest.mark.parametrize("a_over_lambda, r", DEGENERACY_CASES)
    def test_degeneracy_decision_matches_dense_eig(self, a_over_lambda, r):
        # the bordered solve flags a degenerate null space exactly when the
        # dense spectrum has |lambda_2| < 1e-8 * spectral radius
        gen = generator_for(2, a_over_lambda, r)
        moduli = np.sort(np.abs(np.linalg.eig(gen.liouvillian())[0]))
        if moduli[1] < 1e-8 * moduli[-1]:
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(gen)
        else:
            steady_state(gen)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("a_over_lambda", [0.05, 0.5, 2.0, 1000.0])
    def test_arnoldi_radius_is_at_most_the_frobenius_norm(self, n, a_over_lambda):
        # every Ritz value lies in the field of values of L, so the estimate
        # is at most ||L||_2 <= ||L||_F, and a |lambda_2| estimate of at least
        # 1e-8 ||L||_F passes the degeneracy test without it (the ratio reads
        # at most 0.70 on these chains)
        for r in (0.0, 0.5, 1.0):
            gen = generator_for(n, a_over_lambda, r)
            norm = kron_frobenius_norm(gen)
            if n <= 4:
                assert norm == pytest.approx(np.linalg.norm(gen.liouvillian()), rel=1e-12)
            assert arnoldi_radius(gen) <= norm, r

    @pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1)])
    def test_arnoldi_radius_is_at_most_the_frobenius_norm_on_2d_layouts(self, n, seed):
        # about 0.34 of the norm at N = 3
        gen = random_layout_generator(seed, n, "jump_operator")
        assert arnoldi_radius(gen) <= np.linalg.norm(gen.liouvillian())

    @pytest.mark.parametrize("n", [1, 2])
    def test_arnoldi_radius_is_at_most_the_frobenius_norm_with_a_zero_mode(self, n):
        # the sigma_x generator of test_odd_sector_zero_mode_detected
        sx = [site_pauli("x", i, n) for i in range(n)]
        gen = Generator(n, np.zeros((2 ** n, 2 ** n), dtype=complex), [(1.0, op, op) for op in sx])
        assert arnoldi_radius(gen) <= np.linalg.norm(gen.liouvillian())

    def test_default_sweep_runs_no_arnoldi_radius(self, tmp_path, monkeypatch):
        # at each of the 27 default points (two parity blocks each) the
        # |lambda_2| estimate passes against ||L||_F alone
        calls = radius_calls(monkeypatch)
        assert main(["--scenario", "sweep", "--threads", "1", "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls["estimates"]) == 27 * 2
        assert calls["radii"] == []

    def test_five_qubit_chain_runs_no_arnoldi_radius(self, monkeypatch):
        calls = radius_calls(monkeypatch)
        steady_state(generator_for(5, 0.5, 0.25))
        assert len(calls["estimates"]) == 4 and calls["radii"] == []

    def test_degenerate_state_runs_the_arnoldi_radius_once(self, monkeypatch):
        # the case of test_degeneracy_message_names_both_estimates: the
        # message is built from the one radius and the smallest estimate
        calls = radius_calls(monkeypatch)
        with pytest.raises(DegenerateSteadyStateError) as info:
            steady_state(generator_for(2, 1e-4, 0.0))
        [radius] = calls["radii"]
        assert str(info.value) == (
            f"the |lambda_2| estimate {min(calls['estimates']):.3e} is below 1e-8 of the "
            f"spectral-radius estimate {radius:.3e}: either the steady state is not unique, "
            "or its slowest decay rate is below 1e-8 of the spectral radius"
        )

    @pytest.mark.parametrize("a_over_lambda, r", [(5.5e-4, 0.0), (3.8e-4, 0.5)])
    def test_window_between_radius_and_norm_runs_the_arnoldi_radius(
            self, monkeypatch, a_over_lambda, r):
        # 1e-8 radius <= lam2 < 1e-8 ||L||_F: ||L||_F cannot pass the test,
        # the radius does (each bound with a margin of about 1.5 at N = 2)
        gen = generator_for(2, a_over_lambda, r)
        ref = eig_null_state(gen)
        calls = radius_calls(monkeypatch)
        got = steady_state(gen)
        [radius], lam2 = calls["radii"], min(calls["estimates"])
        assert 1e-8 * radius <= lam2 < 1e-8 * np.linalg.norm(gen.liouvillian())
        assert trace_distance(got.rho, ref) <= 1e-9

    @pytest.mark.parametrize("layout, mode", NULL_VECTOR_CASES)
    def test_matches_eig_null_vector_on_2d_layouts(self, layout, mode):
        if layout == "chain4":
            geometry = ArrayGeometry.chain(4, 0.5)
        else:
            rng = np.random.default_rng(layout)
            geometry = ArrayGeometry(positions=rng.uniform(0.0, 1.5, size=(3, 2)))
        bs = bath_from_params(P, r_override=0.3)
        gen = FORMS[mode](build_couplings(geometry, P, bs))
        assert trace_distance(steady_state(gen).rho, eig_null_state(gen)) <= 1e-10

    @pytest.mark.parametrize("mode", MODES)
    @given(st.lists(POSITIONS, min_size=2, max_size=3), SQUEEZING_R, SQUEEZING_PHI)
    @settings(max_examples=25, deadline=None)
    def test_matches_eig_null_vector_on_random_layouts(self, mode, points, r, phi):
        gen = FORMS[mode](layout_couplings(points, r, phi))
        assert trace_distance(steady_state(gen).rho, eig_null_state(gen)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_odd_sector_zero_mode_detected(self, n):
        # L(rho) = sum_i (sx_i rho sx_i - rho) keeps every product of the
        # sx_i; the parity-odd sum_i sx_i is a zero mode that only the odd
        # block sees at n = 1 (at n = 2 the even sx_1 sx_2 is one as well)
        dim = 2 ** n
        sx = [site_pauli("x", i, n) for i in range(n)]
        gen = Generator(n, np.zeros((dim, dim), dtype=complex), [(1.0, op, op) for op in sx])
        assert np.allclose(gen.action(sum(sx)), 0.0)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)

    @pytest.mark.parametrize("breaking", ["transverse_field", "dephasing_jump"])
    def test_parity_breaking_generator_rejected(self, breaking):
        n = 2
        base = generator_for(n, 0.5, 0.25)
        h_eff, terms = base.h_eff.copy(), list(base.terms)
        if breaking == "transverse_field":
            h_eff += sum(site_pauli("x", i, n) for i in range(n))
        else:
            terms.append((0.1, site_pauli("z", 0, n), site_pauli("z", 0, n)))
        with pytest.raises(ValueError, match="parity"):
            steady_state(Generator(n, h_eff, terms))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_never_builds_the_liouvillian(self, monkeypatch, mode, n):
        gen = generator_for(n, 0.5, 0.25, mode)
        ref = eig_null_state(gen)

        def refuse(self):
            raise AssertionError("steady_state built the complex Liouvillian")

        monkeypatch.setattr(Generator, "liouvillian", refuse)
        assert trace_distance(steady_state(gen).rho, ref) <= 1e-10

    def test_size_limit(self):
        gen = generator_for(8, 0.5, 0.0)
        with pytest.raises(ValueError, match="limited"):
            steady_state(gen)

    @pytest.mark.parametrize("n", [5, 7])
    def test_huge_squeezing_refused(self, n):
        # at r = 350 the entries reach about 1e304, so the sums of squares
        # of L would overflow; the bound itself, times 16^N, overflowed at
        # N = 7 (a RuntimeWarning, an error under this suite's filter)
        with pytest.raises(ConfigError, match="too large"):
            steady_state(generator_for(n, 0.5, 350.0))

    @pytest.mark.parametrize("build", ["layout", "hand-built"])
    def test_seven_qubits_need_the_reversal_blocks(self, monkeypatch, build):
        # without the site-reversal split an N = 7 parity sector is 8192^2
        # float64; it is refused before any work.  A sigma_z field on qubit 0
        # keeps the parity of a chain's generator but breaks its reversal
        if build == "layout":
            gen = random_layout_generator(0, 7, "jump_operator")
        else:
            chain = generator_for(7, 0.5, 0.25)
            gen = Generator(7, chain.h_eff + site_pauli("z", 0, 7), chain.terms)
            assert gen.parity_symmetric
        assert not gen.reversal_symmetric

        def no_work(*args):
            raise AssertionError("steady_state started work")

        monkeypatch.setattr(dynamics, "spectral_radius_estimate", no_work)
        monkeypatch.setattr(dynamics, "_sector_block", no_work)
        with pytest.raises(ValueError, match="limited"):
            steady_state(gen)


def random_layout_generator(seed, n, mode):
    """Generator of a seeded random 2-d layout of n qubits."""
    rng = np.random.default_rng(seed)
    geometry = ArrayGeometry(positions=rng.uniform(0.0, 1.5, size=(n, 2)))
    return FORMS[mode](build_couplings(geometry, P, bath_from_params(P, r_override=0.3)))


def block_sizes(monkeypatch):
    """Record the size of every block `steady_state` solves."""
    sizes = []
    solve = dynamics._solve_sector

    def spy(mat, rhs, name):
        sizes.append(len(mat))
        return solve(mat, rhs, name)

    monkeypatch.setattr(dynamics, "_solve_sector", spy)
    return sizes


class TestReversalSectors:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_chain_is_reversal_symmetric(self, mode, n):
        # 0.4 and 0.8 are not short binary fractions: mirrored separations of
        # the chain differ by an ulp, and the couplings by a few; from N = 5
        # on, the couplings of the larger spacings differ from their mirrored
        # copies by up to about 1e-10 of their largest entry (at N = 7 by 75
        # ulps at 1.7 and by 3.2e4 ulps at 12.9742), and the measured
        # commutator with the reversal stays below 1e-12 of the action
        wide = (1.7, 2.1989, 4.2941, 12.9742) if n >= 5 else ()
        for a in (0.4, 0.5, 0.8, 1.25, *wide):
            assert generator_for(n, a, 0.25, mode).reversal_symmetric, a

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_layout_is_not(self, mode, n):
        for seed in range(3):
            assert not random_layout_generator(seed, n, mode).reversal_symmetric

    def test_displaced_qubit_breaks_the_symmetry(self):
        # the relative commutator is about 0.44 of the displacement in lambda,
        # 4.4e-8 at 1e-7: 44 times REVERSAL_RTOL
        for shift in (1e-3, 1e-7):
            positions = ArrayGeometry.chain(5, 0.5).positions.copy()
            positions[1, 0] += shift
            couplings = build_couplings(ArrayGeometry(positions=positions), P,
                                        bath_from_params(P, r_override=0.25))
            assert not build_generator(couplings).reversal_symmetric, shift

    def test_hand_built_copy_takes_the_four_blocks(self, monkeypatch):
        # the symmetry is measured on the generator, however it was built
        base = generator_for(5, 0.5, 0.25)
        copy = Generator(5, base.h_eff, base.terms)
        sizes = block_sizes(monkeypatch)
        got = steady_state(copy).rho
        assert sizes == [272, 240, 272, 240]
        assert trace_distance(got, steady_state(base).rho) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_chain_matches_the_parity_only_solve(self, monkeypatch, mode, n):
        # with the qubit threshold out of the way, the split runs at every N
        # (at a/lambda = 4.2703 and N = 6 the couplings differ from their
        # mirrored copies by 6.5e4 ulps of the largest entry)
        monkeypatch.setattr(dynamics, "REVERSAL_MIN_QUBITS", 1)
        for a in (0.8, 4.2703) if n >= 5 else (0.8,):
            gen = generator_for(n, a, 0.4, mode)
            assert gen.reversal_symmetric
            got = steady_state(gen).rho
            gen.reversal_symmetric = False
            assert trace_distance(got, steady_state(gen).rho) <= 1e-12, a

    def test_four_blocks_on_a_chain(self, monkeypatch):
        # each parity sector of 512 splits into 272 reversal-even and 240
        # reversal-odd coordinates at N = 5
        sizes = block_sizes(monkeypatch)
        steady_state(generator_for(5, 0.5, 0.25))
        assert sizes == [272, 240, 272, 240]

    def test_small_chain_takes_the_parity_blocks(self, monkeypatch):
        # below REVERSAL_MIN_QUBITS the split's fixed costs outweigh its gain
        n = REVERSAL_MIN_QUBITS - 1
        gen = generator_for(n, 0.5, 0.25)
        assert gen.reversal_symmetric
        sizes = block_sizes(monkeypatch)
        steady_state(gen)
        assert sizes == [2 ** (2 * n - 1)] * 2

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layout_without_symmetry_takes_the_parity_blocks(self, monkeypatch, mode, seed):
        gen = random_layout_generator(seed, REVERSAL_MIN_QUBITS, mode)
        sizes = block_sizes(monkeypatch)
        got = steady_state(gen).rho
        assert sizes == [2 ** (2 * REVERSAL_MIN_QUBITS - 1)] * 2
        gen.reversal_symmetric = False
        assert np.array_equal(got, steady_state(gen).rho)

    @pytest.mark.parametrize("block", [
        "even-parity, reversal-odd", "odd-parity, reversal-even", "odd-parity, reversal-odd"])
    def test_every_block_enters_the_degeneracy_test(self, monkeypatch, block):
        # a zero Ritz estimate in any one block reports a degenerate state
        solve = dynamics._solve_sector

        def zero_mode(mat, rhs, name):
            sol, lam = solve(mat, rhs, name)
            return sol, 0.0 if name == block else lam

        monkeypatch.setattr(dynamics, "_solve_sector", zero_mode)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(generator_for(REVERSAL_MIN_QUBITS, 0.5, 0.25))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (5, 2)])
    def test_wrong_reversal_claim_fails_closed(self, monkeypatch, mode, n, seed):
        # the blocks of a wrong claim drop real entries, and the residual on
        # the full action (or the degeneracy test) refuses the state
        monkeypatch.setattr(dynamics, "REVERSAL_MIN_QUBITS", 1)
        gen = random_layout_generator(seed, n, mode)
        gen.reversal_symmetric = True
        with pytest.raises((np.linalg.LinAlgError, DegenerateSteadyStateError)):
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
