"""Effective Hamiltonian, dissipator, time evolution, and steady states.

Time is dimensionless throughout: the generator is pre-divided by the
single-qubit vacuum rate Gamma_0 = nu * prefactor, so trajectories are
parameterized by Gamma_0 t and the matrix entries are O(1).

The dissipator is built in jump-operator form: weights W_ab = gamma_pm / (N+1)
with Bogoliubov-rotated jumps C_a = cosh(r) sigma_a^- + sinh(r) e^{i phi}
sigma_a^+.  The channel sum over the stored coupling matrices, the other form
of the same dissipator, is the test suite's reference (`tests/oracles.py`).

The channel-label convention is pinned by expanding the jump form: gamma_pm
(weight N+1) multiplies the sigma^- rho sigma^+ emission structure, gamma_mp
(weight N) the sigma^+ rho sigma^- absorption structure, and the anomalous
sigma^-+ rho sigma^-+ structures carry -gamma_pp and -gamma_mm.  Reading the
superscripts the other way round would make the vacuum pump instead of damp;
the equivalence of the two forms is asserted in the test suite.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateSteadyStateError, StateInvariantError
from .numerics import IntegratorStats, integrate_ode, spectral_radius_estimate
# the traced benchmark run (perfbench/spans.py) wraps eig_smallest at this name
from .numerics import eig_smallest  # noqa: F401
from .operators import exchange_hamiltonian, site_lower, site_raise
from .params import MAX_QUBITS

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_FLOOR = -1e-8

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10

# smallest N at which `evolve` integrates a parity-even start on its parity
# blocks: the smallest at which the block action is the dense one bit for
# bit (`Generator.action`)
BLOCK_MIN_QUBITS = 3
# smallest N at which `evolve` also checks and measures the blocks and
# `steady_state` solves the site-reversal blocks; below it their fixed costs
# outweigh the smaller products
SECTOR_MIN_QUBITS = 5
MAX_STEADY_QUBITS = 7
RITZ_PROBES = 16  # random right-hand sides of the degeneracy estimate
SECTOR_CHUNK_BYTES = 2 * 1024 * 1024  # complex rows per steady-state assembly chunk (>= 1 row)
REVERSAL_RTOL = 1e-9  # relative commutator with the site reversal still taken as symmetry
_FLOAT_MAX = np.finfo(float).max


@dataclass
class QubitState:
    """Density matrix of the qubit array at a dimensionless time Gamma_0 t.

    Invariants: Hermitian to 1e-10 (max norm), unit trace to 1e-9, and
    approximately positive (eigenvalues above -1e-8).  Positivity is
    monitored and warned about, never silently repaired.
    """

    rho: np.ndarray
    n_qubits: int
    time: float = 0.0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"a QubitState needs n_qubits >= 1, got {self.n_qubits}")
        rho = np.asarray(self.rho, dtype=complex)
        dim = 2 ** self.n_qubits
        if rho.shape != (dim, dim):
            raise ValueError(f"rho must be {dim} x {dim} for {self.n_qubits} qubits")
        self.rho = rho

    def check(self):
        """Validate the invariants; raises StateInvariantError, warns on a
        negative eigenvalue above the positivity floor but beyond round-off."""
        mineig = _invariants(self.rho[None], [self.time], TRACE_TOL, HERMITICITY_TOL)[2][0]
        # eigvalsh round-off puts the zero eigenvalues of a pure state at
        # about -dim eps ||rho||; only a larger negative one is drift
        if mineig < -self.rho.shape[0] * np.finfo(float).eps * np.linalg.norm(self.rho):
            warnings.warn(
                f"density matrix marginally non-positive (min eig {mineig:.2e})",
                RuntimeWarning,
                stacklevel=2,
            )
        return self


def _invariants(rhos, times=None, trace_tol=_FLOAT_MAX, herm_tol=_FLOAT_MAX, index=None):
    """Trace error |Tr rho - 1|, Hermiticity error max |rho - rho^dagger| and
    smallest eigenvalue of the Hermitian part of each state of a (m, d, d)
    stack, or of an (m, 2, h, h) stack of the parity blocks that hold every
    nonzero entry of the states (the trace is then summed block by block).
    The eigenvalues of a block-diagonal matrix are those of its blocks, so
    given the flat block `index` of a `_Layout` whose blocks hold every
    nonzero entry of (m, d, d) states, they are taken from the blocks too.
    The whole stack is read at once, with temporaries of its size.

    A state is broken unless both errors are at most their tolerances, so a
    NaN or infinite error always breaks it (the default tolerances are the
    largest finite float).  The eigenvalues of the first broken state, and
    of the states after it, are not computed and read NaN.  Given the
    Gamma_0 t of each state in `times`, the states are also checked in
    order, and the first failing one raises StateInvariantError: a broken
    state is reported before an eigenvalue below POSITIVITY_FLOOR.
    """
    count = len(rhos)
    tr = np.trace(rhos, axis1=-2, axis2=-1).reshape(count, -1).sum(axis=1)
    # np.hypot, not np.abs: numpy's vectorized complex abs can differ from
    # the correctly rounded hypot in the last bit
    trace_err = np.hypot(tr.real - 1.0, tr.imag)
    # one temporary of the stack's size holds the conjugate transpose, then
    # the difference
    diff = rhos.conj().swapaxes(-1, -2)
    herm_err = np.max(np.abs(np.subtract(rhos, diff, out=diff)), axis=tuple(range(1, rhos.ndim)))
    del diff
    broken = np.flatnonzero(~((trace_err <= trace_tol) & (herm_err <= herm_tol)))
    stop = broken[0] if broken.size else count
    valid = rhos[:stop]
    if index is not None:  # (rho^dagger)_pp = (rho_pp)^dagger on a diagonal block
        valid = np.take(valid.reshape(stop, -1), index, axis=1)
    herm = valid + valid.conj().swapaxes(-1, -2)
    herm *= 0.5
    eigs = np.linalg.eigvalsh(herm)
    min_eig = np.full(count, np.nan)
    min_eig[:stop] = np.min(eigs, axis=tuple(range(1, eigs.ndim)))
    if times is not None:
        negative = np.flatnonzero(min_eig[:stop] < POSITIVITY_FLOOR)
        if negative.size:
            i = negative[0]
            raise StateInvariantError(
                f"negative eigenvalue {min_eig[i]:.3e} at Gamma_0 t = {times[i]:.6g}"
            )
        if broken.size:
            raise StateInvariantError(
                f"invariant violation at Gamma_0 t = {times[stop]:.6g}: trace error "
                f"{trace_err[stop]:.3e}, Hermiticity error {herm_err[stop]:.3e}"
            )
    return trace_err, herm_err, min_eig


def density_matrix(state):
    """Density matrix (or (..., d, d) stack) and qubit count of a QubitState
    or an array; ValueError unless the last two axes are square with side
    d = 2^N, N >= 1."""
    if isinstance(state, QubitState):
        return state.rho, state.n_qubits
    rho = np.asarray(state, dtype=complex)
    side = rho.shape[-1] if rho.ndim >= 2 else 0
    n = side.bit_length() - 1
    if n < 1 or side != 2 ** n or rho.shape[-2] != side:
        raise ValueError(f"not a 2^N x 2^N density matrix (N >= 1): shape {rho.shape}")
    return rho, n


@dataclass
class Trajectory:
    """Time grid plus per-step observables of one evolution, and the
    integrator's counters.  `parity_blocks` says that the parity blocks were
    integrated; from SECTOR_MIN_QUBITS on the columns are read from them,
    below it from the full states."""

    t: np.ndarray                 # Gamma_0 t
    mean_spin: np.ndarray         # (n, 3)
    min_perp_var: np.ndarray      # (n,)
    inv_xi2: np.ndarray           # (n,), 0 where xi_R^2 is undefined
    relaxation: np.ndarray        # (n,), -(1/2) d<S_z>/d(G0 t) / N
    min_eig: np.ndarray           # (n,)
    trace_err: np.ndarray         # (n,)
    herm_err: np.ndarray          # (n,)
    final_state: QubitState
    states: list = field(default_factory=list)  # populated when keep_states
    parity_blocks: bool = False  # evolve integrated the parity blocks, not the full state
    stats: IntegratorStats = field(default_factory=IntegratorStats)


class Generator:
    """Master-equation generator, pre-scaled by 1/Gamma_0.

    Holds the effective Hamiltonian and the dissipator as a list of
    (weight, A, B) triples acting as A rho B, plus the collected
    anticommutator matrix G = sum w B A; `action` applies d rho / d(Gamma_0 t)
    and `adjoint` its dual on observables, and `liouvillian` writes out the
    row-major-vectorized superoperator for the tests.

    The operators are stored once, as two stacks: the left factors
    (H, A_1..A_T, G) and the right factors (B_1..B_T); `h_eff`, `terms`,
    `_anticom` and the dense `_Layout` are views into them.
    `parity_symmetric` says whether H and G conserve the parity
    Pi = prod_i sigma_z^i of the basis states and every A_t and B_t flips it
    (every `build_generator` output does).  A parity-symmetric Generator
    also keeps the parity `_Layout`, its operators split once into parity
    blocks, for `action` on parity blocks and for `steady_state`.  The
    layouts keep work arrays, so one Generator must not be applied from two
    threads at a time.
    """

    def __init__(self, n_qubits, h_eff, terms):
        if n_qubits < 1:
            raise ValueError(f"a Generator needs n_qubits >= 1, got {n_qubits!r}")
        self.n_qubits = n_qubits
        dim = 2 ** n_qubits
        count = len(terms)
        # assigning into the stacks below would broadcast a scalar or a row
        named = [("h_eff", h_eff)] + [
            (f"{name}_{t}", op) for t, (_, a_op, b_op) in enumerate(terms, 1)
            for name, op in (("A", a_op), ("B", b_op))
        ]
        for name, op in named:
            if np.shape(op) != (dim, dim):
                raise ValueError(
                    f"{name} has shape {np.shape(op)}, expected {(dim, dim)} for {n_qubits} qubits"
                )
        left = np.empty((count + 2, dim, dim), dtype=complex)
        right = np.empty((count, dim, dim), dtype=complex)
        left[0] = h_eff
        g = left[-1]
        g[...] = 0.0
        self.terms = []
        for t, (w, a_op, b_op) in enumerate(terms):
            left[1 + t] = a_op
            right[t] = b_op
            g += w * (b_op @ a_op)
            self.terms.append((w, left[1 + t], right[t]))
        weights = np.array([w for w, _, _ in terms], dtype=complex).reshape(1, 1, count, 1, 1)
        self.h_eff = left[0]
        self._anticom = g
        self._dense = _Layout(left[None, None], right[None, None], weights)

        # index[p, q] holds the flat indices of the block of rows of parity p
        # and columns of parity q
        even, odd = _parity_states(n_qubits)
        index = np.array([[rows[:, None] * dim + cols for cols in (even, odd)]
                          for rows in (even, odd)])
        within, across = index[[0, 1], [0, 1]], index[[0, 1], [1, 0]]
        self.parity_symmetric = not (
            any(np.take(op, across).any() for op in left[:: count + 1])
            or any(np.take(op, within).any() for op in (*left[1:-1], *right))
        )
        self._parity = None
        if self.parity_symmetric:
            # [p] holds (H_pp, A_t from p into q = 1 - p, G_pp) and B_t from q
            # back into p; across[::-1] holds the flat indices of the blocks [q, p]
            flat_left = left.reshape(count + 2, dim * dim)
            parity_left = flat_left[:, within].swapaxes(0, 1).copy()
            parity_left[:, 1:-1] = flat_left[1:-1, across[::-1]].swapaxes(0, 1)
            parity_right = right.reshape(count, dim * dim)[:, across[::-1]].swapaxes(0, 1).copy()
            self._parity = _Layout(parity_left[None], parity_right[None], weights, within)

    def action(self, rho, layout=None):
        """d rho / d(Gamma_0 t) as a new array, of a d x d `rho` on the dense
        layout or of a (2, h, h) stack (rho_ee, rho_oo) on the parity layout;
        given a `_Layout` of m generators (`_Layout.stack`, or a generator's
        own), of an (m, k, h, h) stack of the blocks of m states on it.

        The sums of `_Layout.apply` run in the order of -i[H, rho] +
        sum_t w_t A_t rho B_t - {G, rho}/2 written term by term, so the
        result is bit-identical to that formula; a reordered sum would move
        the integrator's steps.

        A parity-even state (every entry between basis states of opposite
        parity exactly 0) stays parity-even under a parity-symmetric
        generator, and its blocks hold every nonzero entry.  On them the
        generator costs a quarter of the flops.  The blocks keep the
        ascending index order of each parity, so each entry sums the same
        nonzero products in the same order as on the dense layout, which
        only adds exact zeros: the result is bit-identical to the dense
        layout's from N = 3 to 7 on OpenBLAS.  At N = 8 the half-size blocks
        split the inner sums into other panels, which moves entries at
        round-off (up to 5e-16 of the largest).
        """
        if layout is not None:
            return layout.apply(rho)
        if rho.ndim == 3:
            return self._parity.apply(rho[None])[0]
        return self._dense.apply(rho[None, None])[0, 0]

    @cached_property
    def reversal_symmetric(self):
        """Whether ||L(R X R) - R L(X) R||_F <= REVERSAL_RTOL ||L(X)||_F, R the
        bit reversal of the basis states (site reversal), on one fixed-seed
        random complex X of unit norm: two dense `action` calls on first read."""
        rng, dim = np.random.default_rng(0), 2 ** self.n_qubits
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x /= np.linalg.norm(x)
        rev = np.ix_(*[_bit_reversal(self.n_qubits)] * 2)
        image = self.action(x)
        gap = self.action(x[rev]) - image[rev]
        return bool(np.linalg.norm(gap) <= REVERSAL_RTOL * np.linalg.norm(image))

    @property
    def parity_entries(self):
        """Flat indices in a d x d state of its (2, h, h) parity blocks, or None."""
        return None if self._parity is None else self._parity.index

    def adjoint(self, op):
        """Heisenberg-picture generator L^dagger, Tr[X L(rho)] = Tr[L^dagger(X) rho]."""
        out = 1j * (self.h_eff @ op - op @ self.h_eff)
        for w, a_op, b_op in self.terms:
            out += w * (b_op @ op @ a_op)
        out -= 0.5 * (self._anticom @ op + op @ self._anticom)
        return out

    def _sandwich(self):
        """New stacks lefts[p] = (K, 1, w_t A_t), rights[p] = (1, K', B_t) of
        each block p of the parity `_Layout`, K = -iH - G/2 and
        K' = iH - G/2; `_sector_block` reads them."""
        left, right, weights = (stack[0] for stack in (
            self._parity.left, self._parity.right, self._parity.weights))
        h_eff, anticom = left[:, 0], left[:, -1]
        eye = np.broadcast_to(np.eye(left.shape[-1]), h_eff.shape)
        lefts = np.concatenate([np.stack([-1j * h_eff - 0.5 * anticom, eye], axis=1),
                                weights * left[:, 1:-1]], axis=1)
        rights = np.concatenate([np.stack([eye, 1j * h_eff - 0.5 * anticom], axis=1),
                                 right], axis=1)
        return lefts, rights

    def liouvillian(self):
        """Dense 4^N x 4^N matrix L with vec(drho/dt) = L vec(rho), row-major.

        Written from `h_eff`, `terms` and G with
        vec(A X B) = (A kron B^T) vec(X) as K kron 1 + 1 kron K'^T plus
        w_t A_t kron B_t^T, K = -iH - G/2 and K' = iH - G/2, apart from the
        layouts that `action` and `steady_state` use, so the tests that
        compare against it check them.  Each call returns a new array (at
        N = 6 it takes 256 MB, and one Kronecker product as much again);
        nothing at runtime builds it.
        """
        eye = np.eye(2 ** self.n_qubits)
        h_eff, half_g = self.h_eff, 0.5 * self._anticom
        mat = np.kron(-1j * h_eff - half_g, eye)
        mat += np.kron(eye, (1j * h_eff - half_g).T)
        for w, a_op, b_op in self.terms:
            mat += np.kron(w * a_op, b_op.T)
        return mat


def _parity_states(n_qubits):
    """The basis states of even and of odd parity (an even and an odd count
    of 1 bits), each ascending."""
    even, odd = np.zeros(1, dtype=int), np.zeros(0, dtype=int)
    for k in range(n_qubits):
        even, odd = np.concatenate([even, odd + 2 ** k]), np.concatenate([odd, even + 2 ** k])
    return even, odd


def _bit_reversal(n_qubits):
    """r(k) of every basis state k: its n_qubits bits in reverse order."""
    states = np.arange(2 ** n_qubits)
    return sum(((states >> k) & 1) << (n_qubits - 1 - k) for k in range(n_qubits))


class _Layout:
    """The operators of m generators on k diagonal blocks of the basis, as
    stacks with a leading member axis and a block axis: left[i, p] =
    (H, A_t, G) and right[i, p] = B_t of member i, and its weights[i, 0] of
    shape (T, 1, 1).  A Generator's own layouts have one member;
    `_Layout.stack` joins those of m generators with the same N and term
    count, so that one `apply` runs all m.

    The dense layout has one block, the whole space.  The parity layout has
    two, the basis states of even (p = 0) and of odd parity (p = 1), each
    ascending: H and G map block p into itself, A_t maps it into its partner
    q = 1 - p and B_t maps q back into p, so block p of A_t rho B_t is
    (A_t rho)_pq (B_t)_qp.  `index` holds the flat indices of the blocks in
    a d x d array (None on the dense layout, which is never scattered).  The
    work arrays are made on first use, so an unused layout holds none.
    """

    def __init__(self, left, right, weights, index=None):
        self.left = left
        self.right = right
        self.weights = weights  # (m, 1, T, 1, 1)
        self.index = index
        self.h_and_g = left[:, :, :: left.shape[2] - 1]
        # per member and block, (H, A_t, G) stacked into one tall matrix
        self.tall = left.reshape(*left.shape[:2], -1, left.shape[-1])
        self._left_rho = self._rho_hg = self._a_rho_b = None

    @classmethod
    def stack(cls, layouts):
        """One layout holding the members of `layouts` in order, copied."""
        return cls(*(np.concatenate([getattr(layout, name) for layout in layouts])
                     for name in ("left", "right", "weights")), layouts[0].index)

    def apply(self, rho):
        """The generators on an (m, k, h, h) stack of the blocks of m states,
        member i's by generator i, as a new stack; left_rho[:, ::-1] pairs
        each block with its partner, itself on the dense layout.  Each
        member's products are the ones a one-member layout makes, so its
        result is bit for bit the same."""
        if self._left_rho is None:
            # (H, A_t, G) rho, rho (H, G) and A_t rho B_t; the views are kept,
            # as at N <= 3 making them costs about as much as a product
            self._left_rho = np.empty_like(self.left)
            self._tall_rho = self._left_rho.reshape(self.tall.shape)
            self._partner_rho = self._left_rho[:, ::-1, 1:-1]
            self._rho_hg = np.empty(self.h_and_g.shape, dtype=complex)
            self._a_rho_b = np.empty_like(self.right)
        left_rho, rho_hg, a_rho_b = self._left_rho, self._rho_hg, self._a_rho_b
        np.matmul(self.tall, rho, out=self._tall_rho)
        np.matmul(rho[:, :, None], self.h_and_g, out=rho_hg)
        np.matmul(self._partner_rho, self.right, out=a_rho_b)
        a_rho_b *= self.weights
        out = np.subtract(left_rho[:, :, 0], rho_hg[:, :, 0])
        out *= -1j
        for t in range(a_rho_b.shape[2]):
            out += a_rho_b[:, :, t]
        anticom = np.add(left_rho[:, :, -1], rho_hg[:, :, 1], out=rho_hg[:, :, 1])
        anticom *= 0.5
        out -= anticom
        return out

    def scatter(self, blocks):
        """The (..., k, h, h) `blocks` placed in a new (..., d, d) array that
        is 0 outside them."""
        lead = blocks.shape[:-3]
        dim = self.left.shape[1] * self.left.shape[-1]
        out = np.zeros(lead + (dim, dim), dtype=complex)
        out.reshape(lead + (-1,))[..., self.index] = blocks
        return out


def build_generator(couplings):
    """Generator in jump-operator form from a CouplingSet, scaled to
    dimensionless time.

    The squeezed-bath parameters are recovered from the matrices themselves
    (occupation from the absorption/emission ratio, the anomalous moment from
    the on-site pair channel), the same information the channel sum of the
    couplings reads.
    """
    n = couplings.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"dense representation limited to {MAX_QUBITS} qubits")
    g0 = couplings.gamma0
    occupation = couplings.gamma_mp[0, 0] / g0       # N = sinh^2 r
    anomalous = couplings.gamma_mm[0, 0] / g0        # M = -cosh sinh e^{i phi}

    h_eff = exchange_hamiltonian(couplings.j / g0)

    lowers = [site_lower(i, n) for i in range(n)]
    raises_ = [site_raise(i, n) for i in range(n)]
    terms = []
    w = couplings.gamma_pm / (g0 * (occupation + 1.0))  # J0 weight matrix
    vals, vecs = np.linalg.eigh(0.5 * (w + w.T))
    cosh_r = np.sqrt(occupation + 1.0)
    sinh_phase = -anomalous / cosh_r
    for m in range(n):
        if vals[m] <= 1e-14:
            continue
        c_m = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for a in range(n):
            c_m += vecs[a, m] * (cosh_r * lowers[a] + sinh_phase * raises_[a])
        terms.append((vals[m], c_m, c_m.conj().T))
    return Generator(n, h_eff, terms)


def evolve(rho0, generator, t_grid, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, keep_states=False):
    """Evolve a state over a grid of Gamma_0 t values; returns a Trajectory.

    The one-member case of `evolve_many`, which says how.
    """
    return evolve_many([rho0], [generator], t_grid, rtol, atol, keep_states)[0]


def evolve_many(starts, generators, t_grid, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                keep_states=False):
    """Evolve each state of `starts` under its generator over one grid of
    Gamma_0 t values; returns one Trajectory per member, in order.

    Adaptive embedded Runge-Kutta with dense output at the grid points; each
    output state is re-validated against the QubitState invariants, with
    trace and Hermiticity tolerances max(1e-6, 1e4 atol) (a violation aborts
    the run).  A parity-even start (every cross-parity entry 0) stays
    parity-even under a parity-symmetric generator; from BLOCK_MIN_QUBITS
    qubits on, its (2, h, h) parity blocks are integrated, with the step
    control of the full state (`integrate_ode`'s `layout`).

    Members of the same N, term count and layout (parity blocks or full
    states) form one stack, and the stacks are integrated one after
    another.  `integrate_ode` steps a stack in lockstep, with one
    `Generator.action` call per step on a `_Layout` of the generators of
    the members still integrating, and each member keeps its own step
    control: its Trajectory, `stats` included, is bit for bit the one that
    it gets alone.

    Each chunk of states that `integrate_ode` emits is checked and measured
    into the member's columns in place, in the integrator's own buffer, so
    the first broken state raises StateInvariantError before the rest of
    the grid is integrated.  From SECTOR_MIN_QUBITS on the checks and the
    observables read the blocks; below it each chunk of blocks is first
    placed into full states, so that the columns are the dense path's bit
    for bit.  The columns do not depend on how the integrator chunks the
    states (`TrajectoryObservables.measure`).  Only the last state is
    copied out, or with `keep_states` every state, and only blocks are
    placed back into full arrays.
    """
    if len(starts) != len(generators):
        raise ValueError(f"{len(starts)} states for {len(generators)} generators")
    t_grid = np.asarray(t_grid, dtype=float)
    abort_tol = max(1e-6, 1e4 * atol)
    members = [_Member(rho0, generator, t_grid, abort_tol, keep_states)
               for rho0, generator in zip(starts, generators)]
    stacks = {}
    for member in members:
        key = (member.generator.n_qubits, len(member.generator.terms), member.blocks)
        stacks.setdefault(key, []).append(member)
    for stack in stacks.values():
        _integrate(stack, t_grid, rtol, atol)
    return [member.trajectory() for member in members]


class _Member:
    """One trajectory of `evolve_many`: its start as the (k, h, h) stack of
    blocks that is integrated (one block on the dense layout), the layout
    and the checks it takes, and the columns that its chunks fill."""

    def __init__(self, rho0, generator, t_grid, abort_tol, keep_states):
        # imported here: observables imports QubitState from this module
        from .observables import TrajectoryObservables

        rho_init, n = density_matrix(rho0)
        if n != generator.n_qubits:
            raise ValueError("state and generator have different qubit counts")
        QubitState(rho_init, n).check()
        parity = generator._parity
        start = None if parity is None else np.take(rho_init, parity.index)
        # the blocks hold every nonzero entry: every state is block-diagonal
        even = start is not None and np.array_equal(parity.scatter(start), rho_init)
        self.generator, self.t_grid, self.abort_tol = generator, t_grid, abort_tol
        self.blocks = even and n >= BLOCK_MIN_QUBITS
        self.measured = self.blocks and n >= SECTOR_MIN_QUBITS  # checked on the blocks
        self.y0, self.layout = ((start, parity) if self.blocks
                                else (rho_init[None], generator._dense))
        self.eig_index = parity.index if even and not self.measured else None
        size = t_grid.size
        self.observables = TrajectoryObservables(generator, size, self.measured)
        self.trace_err, self.herm_err, self.min_eig = (np.empty(size) for _ in range(3))
        shape = start.shape if self.measured else rho_init.shape
        self.kept = np.empty((size if keep_states else 1, *shape), dtype=complex)
        self.keep_states = keep_states
        self.stats = None

    def record(self, first, states):
        """Check and measure the states first, first + 1, ... of the grid,
        blocks if `measured`, else full states."""
        states = states.reshape(len(states), *self.kept.shape[1:])
        rows = slice(first, first + len(states))
        self.trace_err[rows], self.herm_err[rows], self.min_eig[rows] = _invariants(
            states, self.t_grid[rows], self.abort_tol, self.abort_tol, self.eig_index)
        self.observables.measure(first, states)
        if self.keep_states:
            self.kept[rows] = states
        elif rows.stop == self.t_grid.size:
            self.kept[0] = states[-1]

    def trajectory(self):
        n, t_grid = self.generator.n_qubits, self.t_grid
        rhos = self.layout.scatter(self.kept) if self.measured else self.kept
        return Trajectory(
            t_grid.copy(),
            *self.observables.columns(),
            min_eig=self.min_eig,
            trace_err=self.trace_err,
            herm_err=self.herm_err,
            # a copy, so that it shares no entries with states[-1]
            final_state=QubitState(rhos[-1].copy(), n, time=float(t_grid[-1])),
            states=[QubitState(rho, n, time=float(t)) for rho, t in zip(rhos, t_grid)]
            if self.keep_states else [],
            parity_blocks=self.blocks,
            stats=self.stats,
        )


def _integrate(stack, t_grid, rtol, atol):
    """Integrate the members of one stack of `evolve_many` in lockstep, each
    chunk of states that the integrator emits recorded by its member."""
    lead = stack[0]
    shape, dim = lead.y0.shape, 2 ** lead.generator.n_qubits
    index = lead.layout.index.ravel() if lead.blocks else None
    full = None  # a buffer of full states, made on first use
    current, layout = None, None  # the members of the last rhs call, and their layout

    def emit(i, first, states):
        nonlocal full
        if not lead.blocks or lead.measured:
            stack[i].record(first, states)
            return
        # full states take twice the bytes of their blocks: half a chunk at a time
        half = -(-len(states) // 2)
        if full is None or len(full) < half:
            full = np.zeros((half, dim * dim), dtype=complex)
        for lo in range(0, len(states), half):
            part = states[lo:lo + half]
            full[:len(part), index] = part
            stack[i].record(first + lo, full[:len(part)])

    def rhs(y, members):
        nonlocal current, layout
        if members is not current:
            layouts = [stack[i].layout for i in members]
            current, layout = members, layouts[0] if len(layouts) == 1 else _Layout.stack(layouts)
        return stack[members[0]].generator.action(
            y.reshape(len(y), *shape), layout).reshape(len(y), -1)

    stats = integrate_ode(
        rhs, np.stack([member.y0.ravel() for member in stack]), t_grid, rtol=rtol, atol=atol,
        emit=emit, layout=(index, dim * dim) if lead.blocks else None,
    )
    for member, record in zip(stack, stats):
        member.stats = record


def steady_state(generator):
    """Stationary state from one LU solve in each symmetry sector of L.

    Let Pi = prod_i sigma_z^i.  H and G must conserve Pi and every jump
    factor A_t, B_t must flip it (ValueError otherwise; every
    `build_generator` output does), so L maps the parity-even operators
    (blocks rho_ee, rho_oo) and the odd ones (rho_eo, rho_oe) into
    themselves.  L also preserves Hermiticity, so on an orthonormal basis of
    Hermitian operators each parity sector is a real 4^N/2 x 4^N/2 block.
    The basis is {E_ii, (S_ij + A_ij)/sqrt2, (S_ij - A_ij)/sqrt2} with
    S_ij = (E_ij + E_ji)/sqrt2 and A_ij = i(E_ij - E_ji)/sqrt2: the operator
    X has the coordinate Re X_ij + Im X_ij at [i, j], and a real orthogonal
    change V of the basis states maps the coordinates Q to V^T Q V.

    From SECTOR_MIN_QUBITS qubits on, a generator measured to commute with
    X -> R X R (`Generator.reversal_symmetric`), R the bit reversal of the
    basis states, which keeps their parity, is split further.  On the
    `_reversal_basis` of each parity (the states that R fixes, and
    (e_k +- e_r(k))/sqrt2 for each pair that R swaps, even or odd under R) a
    coordinate [i, j] is reversal-even when i and j are of the same class
    and reversal-odd otherwise, so each parity sector splits into two real
    blocks, B+ and B- (`_sector_block`), each built and solved on its own:
    for a chain at N = 5, 512 = 272 + 240.  Otherwise the basis is the
    identity and B+ alone, the parity sector, is built (a 0-size block is
    skipped).  The complex L is never built; at N = 7 a chain's largest
    block is 4160^2 float64 (138 MB), and `np.linalg.solve` copies it once.
    An N = 7 generator without the split (ValueError) would need a parity
    sector of 8192^2 (512 MB), copied again by the solve.

    The trace functional w (1 on the diagonal coordinates [i, i], all of
    them reversal-even) is a left null vector of the parity-even B+, so by
    Brauer's theorem A = B+ + e0 w^T (e0 the coordinate of E_00; state 0 is
    fixed) has the spectrum of B+ with the null eigenvalue moved to 1: A
    is singular exactly when that block holds a second stationary state,
    and A v = e0 gives the unit-trace steady state.  One solve takes e0
    together with a fixed-seed random block Z; since A X = Z, the Ritz
    values of A on span(X) follow from X and Z alone, and their smallest
    modulus estimates |lambda_2| there.  The other three blocks hold
    traceless operators only, so each is solved unbordered against its own
    random block for the estimate of its smallest |lambda|: a parity-odd or
    reversal-odd operator that never decays is caught too.  A singular or
    non-finite solve in any block, or the smallest estimate below 1e-8 of
    the spectral radius raises DegenerateSteadyStateError; the radius, from
    a matrix-free Arnoldi run on `action`, is at most ||L||_2 <= ||L||_F
    and is run only below 1e-8 ||L||_F.  The residual ||L v|| of the
    normalized solution, on the full `action`, is checked against
    1e-8 ||L||_F (LinAlgError), where ||L||_F^2 sums the blocks' squared
    norms (the basis is orthonormal; the entries between two blocks are 0,
    and round-off under reversal); it alone fails a wrong reversal flag.
    A generator whose entries could overflow these sums of squares (on a
    chain, a squeezing parameter r above about 172 at N = 7, 176 at N = 2)
    raises ConfigError before its reversal symmetry is measured.
    The state is then trace-normalized and checked like QubitState.check,
    without its warning.  It is Hermitian by construction: the entries of
    ((1+i) Q + (1-i) Q^T)/2 at [i, j] and [j, i] are exact conjugates.
    """
    n = generator.n_qubits
    if not generator.parity_symmetric:
        raise ValueError(
            "steady_state needs a parity-symmetric generator: H and G must "
            "conserve prod_i sigma_z^i and every jump factor must flip it"
        )
    parity = generator._parity
    stacks = generator._sandwich()
    # an entry of L sums one product of an entry of lefts[:, k] and one of
    # rights[:, k] per term k, so `bound` caps its 16^N entries, and every
    # sum of squares formed below (the blocks' norms, the Arnoldi vectors)
    # is at most 16^N bound^2, in any orthonormal basis
    bound = np.abs(stacks[0]).max(axis=(0, 2, 3)) @ np.abs(stacks[1]).max(axis=(0, 2, 3))
    if not bound <= np.sqrt(_FLOAT_MAX) / 4 ** n:
        raise ConfigError(
            f"generator too large for a steady state: its entries over Gamma_0 reach "
            f"{bound:.3g} (about N cosh 2r at squeezing r), so the sums of squares of "
            f"its 16^{n} entries would overflow"
        )
    reversal = SECTOR_MIN_QUBITS <= n <= MAX_STEADY_QUBITS and generator.reversal_symmetric
    if n > MAX_STEADY_QUBITS or (n == MAX_STEADY_QUBITS and not reversal):
        raise ValueError(
            f"dense steady-state solve limited to {MAX_STEADY_QUBITS} qubits on a "
            f"reversal-symmetric chain and to {MAX_STEADY_QUBITS - 1} otherwise"
        )
    dim = 2 ** n
    half = dim // 2
    evens, basis = _reversal_basis(n) if reversal else ((half, half), None)
    if basis is not None:  # V^T op V; [z, :2] maps parity z into z, [z, 2:] into 1 - z
        rows = np.array([[0], [1]]) ^ (np.arange(stacks[0].shape[1]) >= 2)
        stacks = [basis.swapaxes(1, 2)[rows] @ stack @ basis[:, None] for stack in stacks]

    def apply(vec):
        return generator.action(vec.reshape(dim, dim)).ravel()

    rng = np.random.default_rng(0)

    norm_sq = 0.0
    estimates = []
    parts = ((1, "reversal-even"), (-1, "reversal-odd"))[: 1 if basis is None else 2]
    for sector, positions in (("even", EVEN_SECTOR), ("odd", ODD_SECTOR)):
        for sign, part in parts:
            spans, coords = _sector_spans(positions, evens, half, sign)
            size = len(coords)
            if not size:
                continue
            mat = _sector_block(*stacks, positions, spans)
            norm_sq += np.vdot(mat, mat)
            border = int(sector == "even" and sign > 0)  # the block of the state
            rhs = np.zeros((size, border + min(RITZ_PROBES, size - border)))
            rhs[:, border:] = rng.standard_normal((size, rhs.shape[1] - border))
            if border:
                rhs[0, 0] = 1.0
                mat[0, coords // half % half == coords % half] += 1.0  # row 0 += w: B+ becomes A
            sol, lam = _solve_sector(mat, rhs, f"{sector}-parity, {part}")
            del mat
            estimates.append(lam)
            if border:
                vec = np.zeros(2 * half * half)
                vec[coords] = sol[:, 0] / np.linalg.norm(sol[:, 0])

    lam2, l_norm = min(estimates), np.sqrt(norm_sq)
    # Ritz values lie in the field of values of L: l_norm bounds the radius
    radius = spectral_radius_estimate(apply, dim * dim) if lam2 < 1e-8 * l_norm else l_norm
    if lam2 < 1e-8 * radius:
        raise DegenerateSteadyStateError(
            f"the |lambda_2| estimate {lam2:.3e} is below 1e-8 of the spectral-radius "
            f"estimate {radius:.3e}: either the steady state is not unique, or its "
            "slowest decay rate is below 1e-8 of the spectral radius"
        )
    coords = vec.reshape(2, half, half)
    if basis is not None:  # back to the basis states: V Q V^T
        coords = basis @ coords @ basis.swapaxes(1, 2)
    blocks = 0.5 * ((1 + 1j) * coords + (1 - 1j) * coords.swapaxes(1, 2))
    rho = parity.scatter(blocks)
    resid = np.linalg.norm(generator.action(rho))
    if l_norm > 0 and resid > 1e-8 * l_norm:
        raise np.linalg.LinAlgError(
            f"steady-state residual {resid:.2e} exceeds 1e-8*||L|| ({l_norm:.2e})"
        )
    rho = rho / np.trace(rho)
    _invariants(rho[None], [np.inf], TRACE_TOL, HERMITICITY_TOL)
    return QubitState(rho, n, time=np.inf)


# the (row, column) parity blocks (0: even states, 1: odd states) of the
# operators in each sector
EVEN_SECTOR = ((0, 0), (1, 1))
ODD_SECTOR = ((0, 1), (1, 0))


def _reversal_basis(n_qubits):
    """(evens, V): the columns of V[x] are the orthonormal basis of the
    states of parity x (ascending) that the bit reversal r maps to +-itself:
    the e_k with r(k) = k, then (e_k + e_r(k))/sqrt2 for each pair
    k < r(k), then (e_k - e_r(k))/sqrt2; the first evens[x] are even."""
    order = np.concatenate(_parity_states(n_qubits))
    half = len(order) // 2
    where = np.empty_like(order)
    where[order] = np.arange(len(order))
    states = np.arange(half)
    evens, basis = [], np.zeros((2, half, half))
    for x, r in enumerate((where[_bit_reversal(n_qubits)[order]] % half).reshape(2, half)):
        fixed, low = np.flatnonzero(states == r), np.flatnonzero(states < r)
        evens.append(len(fixed) + len(low))
        odd = np.arange(evens[x], half)  # the columns of the odd vectors
        basis[x, fixed, np.arange(len(fixed))] = 1.0
        basis[x, low, odd - len(low)] = basis[x, r[low], odd - len(low)] = np.sqrt(0.5)
        basis[x, low, odd], basis[x, r[low], odd] = np.sqrt(0.5), -np.sqrt(0.5)
    return tuple(evens), basis


def _sector_spans(positions, evens, half, sign):
    """The reversal-even (sign 1) or reversal-odd (-1) block of one parity
    sector on the `_reversal_basis`: its spans (p, rows, cols), the
    coordinates [i, j] of block positions[p] with i in rows and j in cols,
    both even or both odd (sign 1) or one of each (-1), and the flat
    indices (p, i, j) of its coordinates, row-major within each span."""
    classes = [(slice(0, even), slice(even, half)) for even in evens]
    flat = np.arange(2 * half * half).reshape(2, half, half)
    spans, coords = [], []
    for p, (x, y) in enumerate(positions):
        for a in (0, 1):
            rows, cols = classes[x][a], classes[y][a if sign > 0 else 1 - a]
            coords.append(flat[p, rows, cols].ravel())
            if coords[-1].size:
                spans.append((p, rows, cols))
    return spans, np.concatenate(coords)


def _sector_block(lefts, rights, positions, spans):
    """Real matrix of L on the block `spans` (`_sector_spans`) of one parity
    sector, from the `Generator._sandwich` stacks of the parity layout on
    the `_reversal_basis` (coordinates as in `steady_state`).

    The complex rows M of L for the block (x, y), M[i, j, k, l] =
    sum_t L_t[i, k] R_t[l, j] (the weight of X[k, l] in the result's
    [i, j]) for stacks L_t and R_t, take the terms [:2],
    K_xx X_xy + X_xy K'_yy, from the same block, lefts[x, :2] and
    rights[y, :2], and the jump terms [2:],
    w_t (A_t)_{x,1-x} X_{1-x,1-y} (B_t)_{1-y,y}, from the block
    (1-x, 1-y), lefts[1-x, 2:] and rights[y, 2:].  A Hermitian X has the
    coordinates Q = Re X + Im X and is ((1+i) Q + (1-i) Q^T)/2, so the
    coordinates Re((1-i) Y) of Y = L(X) are Re(M Q) + Im(M Q^T): the real
    entry is Re M[i, j, k, l] + Im M[i, j, l, k].  Each span of rows meets
    each span of columns in one product of sliced stacks, and [l, k] lies in
    the span (q ^ flip, l-range, k-range): the same block q in the even
    sector, the other one in the odd sector.  No entry outside the block is
    computed.  The rows are computed SECTOR_CHUNK_BYTES of complex entries
    at a time (at least one row index i).  On the identity basis the spans
    are the parity blocks, and the matrix is the parity sector.
    """
    flip = 0 if positions[0][0] == positions[0][1] else 1
    columns, size = {}, 0
    for q, ks, ls in spans:
        columns[q, ks.start, ls.start] = (size, ks, ls)
        size += (ks.stop - ks.start) * (ls.stop - ls.start)
    out = np.empty((size, size))
    first = 0  # the next row of `out`
    for p, rows, cols in spans:
        x, y = positions[p]
        factors = {p: (lefts[x, :2], rights[y, :2]), 1 - p: (lefts[1 - x, 2:], rights[y, 2:])}
        width = cols.stop - cols.start
        step = max(1, SECTOR_CHUNK_BYTES // (16 * width * size))  # row indices i
        for lo in range(rows.start, rows.stop, step):
            m = min(step, rows.stop - lo)
            part = {}  # M for the rows i in lo:lo + m, as views [i, j, k, l]
            for key, (_, ks, ls) in columns.items():
                left, right = factors[key[0]]
                left, right = left[:, lo:lo + m, ks], right[:, ls, cols]
                prod = left.reshape(len(left), -1).T @ right.reshape(len(right), -1)
                part[key] = prod.reshape(*left.shape[1:], *right.shape[1:]).transpose(0, 3, 1, 2)
            for (q, k0, l0), (col, ks, ls) in columns.items():
                shape = (m, width, ks.stop - ks.start, ls.stop - ls.start)
                dest = out[first:first + m * width, col:col + shape[2] * shape[3]]
                np.add(part[q, k0, l0].real, part[q ^ flip, l0, k0].imag.swapaxes(-1, -2),
                       out=dest.reshape(shape))  # a view: rows and columns split evenly
            first += m * width
    return out


def _solve_sector(mat, rhs, name):
    """Solution of mat X = rhs and the smallest Ritz modulus of mat on
    span(X); a singular or non-finite solve raises
    DegenerateSteadyStateError."""
    try:
        sol = np.linalg.solve(mat, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("solution is not finite")
        return sol, _smallest_ritz_modulus(sol, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(
            f"{name} block of the Liouvillian is singular ({exc}); "
            "steady state is not unique"
        ) from exc


def _smallest_ritz_modulus(sol, rhs):
    """Smallest |theta| over the Ritz values of A on span(sol), A sol = rhs.

    With sol = Q R (columns scaled to unit norm first), A Q = rhs R^-1, so
    the Ritz matrix Q^H A Q is similar to R^-1 Q^H rhs.  A singular R
    (LinAlgError) means A maps independent columns onto dependent ones.
    """
    scale = np.linalg.norm(sol, axis=0)
    q, r = np.linalg.qr(sol / scale)
    ritz = np.linalg.eigvals(np.linalg.solve(r, q.conj().T @ (rhs / scale)))
    return float(np.min(np.abs(ritz)))
