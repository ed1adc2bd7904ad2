import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magsqueeze import dynamics
from magsqueeze.bath import bath_from_params
from magsqueeze.cli import EXIT_OK, main
from magsqueeze.couplings import build_couplings
from magsqueeze.dynamics import (
    CHECK_CHUNK_BYTES,
    SECTOR_MIN_QUBITS,
    Generator,
    QubitState,
    _invariants,
    build_generator,
    evolve,
    steady_state,
)
from magsqueeze.errors import (
    DegenerateSteadyStateError,
    StateInvariantError,
)
from magsqueeze.numerics import eig_smallest
from magsqueeze.observables import collective_spin, initial_state
from magsqueeze.operators import site_lower, site_pauli
from magsqueeze.params import ArrayGeometry, PhysicalParams

from oracles import four_channel_generator, matrix_exp

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
        # the dense path, and the block path of a parity-even state
        rng = np.random.default_rng(5)
        for n, even in ((3, False), (SECTOR_MIN_QUBITS, True)):
            gen = generator_for(n, 0.5, 0.3)

            def draw():
                return parity_even_density(rng, n) if even else random_matrix(rng, 2 ** n)

            def owned():
                # the arrays the generator keeps, and those of its layouts
                layouts = [v for v in vars(gen).values() if isinstance(v, dynamics._Layout)]
                return [v for obj in (gen, *layouts) for v in vars(obj).values()
                        if isinstance(v, np.ndarray)]

            before = len(owned())
            rho = draw()
            assert gen._takes_blocks(rho) is even
            out = gen.action(rho)
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


def dense_generator(couplings, mode):
    """The generator built with the parity-block path switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "SECTOR_MIN_QUBITS", couplings.n_qubits + 1)
        return FORMS[mode](couplings)


def spy_block_action(monkeypatch):
    """Count the calls of the parity-block path."""
    calls = []
    block_action = Generator._block_action

    def spy(self, rho):
        calls.append(rho.shape)
        return block_action(self, rho)

    monkeypatch.setattr(Generator, "_block_action", spy)
    return calls


# N = SECTOR_MIN_QUBITS..7 qubits, on a chain or scattered in a 2 x 2 lambda square
BLOCK_QUBITS = st.integers(SECTOR_MIN_QUBITS, 7)
CHAIN_SPACING = st.floats(0.1, 1.5)


class TestParityBlocks:
    @pytest.mark.parametrize("mode", MODES)
    @given(BLOCK_QUBITS, st.booleans(), st.data(), SQUEEZING_R, SQUEEZING_PHI,
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_block_path_equals_dense_path(self, mode, n, chain, data, r, phi, seed):
        # the blocks keep the ascending index order of each parity, so the
        # block path sums the same nonzero products in the same order
        if chain:
            bs = bath_from_params(P, r_override=r, phi_override=phi)
            couplings = build_couplings(ArrayGeometry.chain(n, data.draw(CHAIN_SPACING)), P, bs)
        else:
            points = data.draw(st.lists(POSITIONS, min_size=n, max_size=n))
            couplings = layout_couplings(points, r, phi)
        gen = FORMS[mode](couplings)
        dense = dense_generator(couplings, mode)
        assert gen.parity_symmetric
        rng = np.random.default_rng(seed)
        for _ in range(3):
            rho = parity_even_density(rng, n)
            assert gen._takes_blocks(rho) and not dense._takes_blocks(rho)
            assert np.array_equal(gen.action(rho), dense.action(rho))

    def test_block_path_at_eight_qubits(self):
        # the half-size blocks split the inner sums into other panels at N = 8
        bs = bath_from_params(P, r_override=0.5)
        couplings = build_couplings(ArrayGeometry.chain(8, 0.5), P, bs)
        gen = build_generator(couplings)
        rho = parity_even_density(np.random.default_rng(8), 8)
        assert gen._takes_blocks(rho)
        want = dense_generator(couplings, "jump_operator").action(rho)
        got = gen.action(rho)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_hamiltonian_only_generator(self):
        # no dissipator terms: empty jump stacks on the block path
        n = SECTOR_MIN_QUBITS
        h_eff = generator_for(n, 0.5, 0.25).h_eff
        gen = Generator(n, h_eff, [])
        rho = parity_even_density(np.random.default_rng(0), n)
        assert gen._takes_blocks(rho)
        assert np.array_equal(gen.action(rho), -1j * (h_eff @ rho - rho @ h_eff))

    def test_css_start_takes_the_dense_path(self, monkeypatch):
        # a coherent spin state has cross-parity entries: every call is dense,
        # and the trajectory is the one without the block path
        n = 5
        bs = bath_from_params(P, r_override=0.25)
        couplings = build_couplings(ArrayGeometry.chain(n, 0.5), P, bs)
        start = initial_state("css", n, theta=1.0, phi=0.3)
        grid = np.linspace(0.0, 1.0, 6)
        want = evolve(start, dense_generator(couplings, "jump_operator"), grid)
        calls = spy_block_action(monkeypatch)
        got = evolve(start, build_generator(couplings), grid)
        assert calls == [] and not got.parity_blocks
        for name in ("mean_spin", "min_perp_var", "inv_xi2", "relaxation", "min_eig",
                     "trace_err", "herm_err"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(got.final_state.rho, want.final_state.rho)

    @pytest.mark.parametrize("field", [0.0, 0.3])
    def test_symmetry_breaking_generator_takes_the_dense_path(self, monkeypatch, field):
        # a sigma_x field breaks the parity symmetry; with the qubit threshold
        # out of the way, only the symmetry check decides the path.  Either
        # way evolve matches the matrix exponential, as in criterion 7
        n = 3
        monkeypatch.setattr(dynamics, "SECTOR_MIN_QUBITS", 1)
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
        n = 6
        gen = generator_for(n, 0.5, 0.25)
        calls = spy_block_action(monkeypatch)
        traj = evolve(initial_state(start, n, theta=1.0), gen, np.array([0.0, 0.2]))
        assert traj.parity_blocks is blocks
        assert bool(calls) is blocks

    @pytest.mark.parametrize("n", [3, SECTOR_MIN_QUBITS])
    def test_invariants_of_a_parity_even_start(self, monkeypatch, n):
        # every state of a parity-even start is block-diagonal on either path
        # of action, so evolve takes the smallest eigenvalue from the two
        # parity blocks; the errors are those of the full states, bit for bit
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            shapes.append(a.shape[1:])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        traj = evolve(initial_state("all_excited", n), generator_for(n, 0.5, 0.25),
                      np.linspace(0.0, 2.0, 9), keep_states=True)
        assert traj.parity_blocks is (n >= SECTOR_MIN_QUBITS)
        assert shapes[-1] == (2, 2 ** (n - 1), 2 ** (n - 1))
        trace_err, herm_err, min_eig = _invariants(np.array([s.rho for s in traj.states]))
        assert np.array_equal(traj.trace_err, trace_err)
        assert np.array_equal(traj.herm_err, herm_err)
        assert np.max(np.abs(traj.min_eig - min_eig)) <= 2 ** n * np.finfo(float).eps

    def test_custom_csvs_byte_identical(self, tmp_path, monkeypatch):
        # the in-process CLI at the smallest N of the block path writes the
        # same bytes with the path switched off
        calls = spy_block_action(monkeypatch)
        argv = ["--scenario", "custom", "--set", f"n_qubits={SECTOR_MIN_QUBITS}", "--out"]
        assert main([*argv, str(tmp_path / "blocks")]) == EXIT_OK
        assert calls
        monkeypatch.setattr(dynamics, "SECTOR_MIN_QUBITS", SECTOR_MIN_QUBITS + 1)
        assert main([*argv, str(tmp_path / "dense")]) == EXIT_OK
        names = sorted(path.name for path in (tmp_path / "blocks").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "dense").iterdir())
        assert len(names) == 6
        for name in names:
            got = (tmp_path / "blocks" / name).read_bytes()
            assert got == (tmp_path / "dense" / name).read_bytes(), name


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
        assert 64 * 16 * t.size > CHECK_CHUNK_BYTES >= 64 * 16 * t.size / 2
        gen = generator_for(3, 0.5, 0.25)
        s0 = initial_state("css", 3, theta=np.pi / 2, phi=0.3)
        traj = evolve(s0, gen, t, keep_states=True)
        for i, state in enumerate(traj.states):
            trace_err, herm_err, min_eig = _invariants(state.rho[None])
            assert traj.trace_err[i] == trace_err[0]
            assert traj.herm_err[i] == herm_err[0]
            assert traj.min_eig[i] == min_eig[0]

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
        # 301, in the second chunk of 256 states
        grid = np.linspace(0.0, abort_tol / c * 399 / 300.5, 400)
        with pytest.raises(StateInvariantError,
                           match=re.escape(f"Gamma_0 t = {grid[301]:.6g}: ")):
            evolve(s0, gen, grid)

    def test_mismatched_generator_rejected(self):
        gen = generator_for(2, 0.5, 0.0)
        with pytest.raises(ValueError, match="qubit counts"):
            evolve(initial_state("all_excited", 3), gen, np.array([0.0, 1.0]))


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
        moduli = np.sort(np.abs(np.linalg.eig(gen.liouvillian())[0]))
        if moduli[1] < 1e-8 * moduli[-1]:
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(gen)
        else:
            steady_state(gen)

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

    @pytest.mark.parametrize("build", ["layout", "hand-built"])
    def test_seven_qubits_need_the_reversal_blocks(self, monkeypatch, build):
        # without the site-reversal split an N = 7 parity sector is 8192^2
        # float64; it is refused before any work
        if build == "layout":
            gen = random_layout_generator(0, 7, "jump_operator")
        else:
            chain = generator_for(7, 0.5, 0.25)
            gen = Generator(7, chain.h_eff, chain.terms)
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
        # ulps at 1.7 and by 3.2e4 ulps at 12.9742)
        wide = (1.7, 2.1989, 4.2941, 12.9742) if n >= 5 else ()
        for a in (0.4, 0.5, 0.8, 1.25, *wide):
            assert generator_for(n, a, 0.25, mode).reversal_symmetric, a

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_layout_is_not(self, mode, n):
        for seed in range(3):
            assert not random_layout_generator(seed, n, mode).reversal_symmetric

    def test_displaced_qubit_breaks_the_symmetry(self):
        positions = ArrayGeometry.chain(5, 0.5).positions.copy()
        positions[1, 0] += 1e-3
        couplings = build_couplings(ArrayGeometry(positions=positions), P,
                                    bath_from_params(P, r_override=0.25))
        assert not build_generator(couplings).reversal_symmetric

    def test_hand_built_generator_is_not(self):
        base = generator_for(3, 0.5, 0.25)
        assert base.reversal_symmetric
        assert not Generator(3, base.h_eff, base.terms).reversal_symmetric

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_chain_matches_the_parity_only_solve(self, monkeypatch, mode, n):
        # with the qubit threshold out of the way, the split runs at every N
        # (at a/lambda = 4.2703 and N = 6 the couplings differ from their
        # mirrored copies by 6.5e4 ulps of the largest entry)
        monkeypatch.setattr(dynamics, "SECTOR_MIN_QUBITS", 1)
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
        # below SECTOR_MIN_QUBITS the split's fixed costs outweigh its gain
        n = SECTOR_MIN_QUBITS - 1
        gen = generator_for(n, 0.5, 0.25)
        assert gen.reversal_symmetric
        sizes = block_sizes(monkeypatch)
        steady_state(gen)
        assert sizes == [2 ** (2 * n - 1)] * 2

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layout_without_symmetry_takes_the_parity_blocks(self, monkeypatch, mode, seed):
        gen = random_layout_generator(seed, SECTOR_MIN_QUBITS, mode)
        sizes = block_sizes(monkeypatch)
        got = steady_state(gen).rho
        assert sizes == [2 ** (2 * SECTOR_MIN_QUBITS - 1)] * 2
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
            steady_state(generator_for(SECTOR_MIN_QUBITS, 0.5, 0.25))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (5, 2)])
    def test_wrong_reversal_claim_fails_closed(self, monkeypatch, mode, n, seed):
        # the blocks of a wrong claim drop real entries, and the residual on
        # the full action (or the degeneracy test) refuses the state
        monkeypatch.setattr(dynamics, "SECTOR_MIN_QUBITS", 1)
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
