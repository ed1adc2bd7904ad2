"""Effective Hamiltonian, dissipator, time evolution, and steady states.

Time is dimensionless throughout: the generator is pre-divided by the
single-qubit vacuum rate Gamma_0 = nu * prefactor, so trajectories are
parameterized by Gamma_0 t and the matrix entries are O(1).

The dissipator is built in either of two equivalent forms:

* ``jump_operator``: weights W_ab = gamma_pm / (N+1) with Bogoliubov-rotated
  jumps C_a = cosh(r) sigma_a^- + sinh(r) e^{i phi} sigma_a^+;
* ``four_channel``: the channel sum over the stored coupling matrices.

The channel-label convention is pinned by expanding the jump form: gamma_pm
(weight N+1) multiplies the sigma^- rho sigma^+ emission structure, gamma_mp
(weight N) the sigma^+ rho sigma^- absorption structure, and the anomalous
sigma^-+ rho sigma^-+ structures carry -gamma_pp and -gamma_mm.  Reading the
superscripts the other way round would make the vacuum pump instead of damp;
the equivalence of the two modes is asserted in the test suite.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSteadyStateError, StateInvariantError
from .numerics import integrate_ode, spectral_radius_estimate
# the traced benchmark run (perfbench/spans.py) wraps eig_smallest at this name
from .numerics import eig_smallest  # noqa: F401
from .operators import site_lower, site_raise

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_FLOOR = -1e-8

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10

MAX_QUBITS = 8
MAX_STEADY_QUBITS = 6
RITZ_PROBES = 16  # random right-hand sides of the degeneracy estimate


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
        rho = np.asarray(self.rho, dtype=complex)
        dim = 2 ** self.n_qubits
        if rho.shape != (dim, dim):
            raise ValueError(f"rho must be {dim} x {dim} for {self.n_qubits} qubits")
        self.rho = rho

    def hermiticity_error(self):
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def trace_error(self):
        return float(abs(np.trace(self.rho) - 1.0))

    def min_eigenvalue(self):
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T))))

    def check(self):
        """Validate the invariants; raises StateInvariantError, warns on
        positivity drift inside the monitored band."""
        herm = self.hermiticity_error()
        if herm > HERMITICITY_TOL:
            raise StateInvariantError(f"Hermiticity violated: {herm:.3e}")
        tr = self.trace_error()
        if tr > TRACE_TOL:
            raise StateInvariantError(f"trace deviates from 1 by {tr:.3e}")
        mineig = self.min_eigenvalue()
        if mineig < POSITIVITY_FLOOR:
            raise StateInvariantError(f"negative eigenvalue {mineig:.3e}")
        if mineig < 0.0:
            warnings.warn(
                f"density matrix marginally non-positive (min eig {mineig:.2e})",
                RuntimeWarning,
                stacklevel=2,
            )
        return self


def density_matrix(state):
    """Density matrix (or (..., d, d) stack) and qubit count of a QubitState
    or an array."""
    if isinstance(state, QubitState):
        return state.rho, state.n_qubits
    rho = np.asarray(state, dtype=complex)
    return rho, int(np.log2(rho.shape[-1]))


@dataclass
class Trajectory:
    """Time grid plus per-step observables of one evolution."""

    t: np.ndarray                 # Gamma_0 t
    mean_spin: np.ndarray         # (n, 3)
    min_perp_var: np.ndarray      # (n,)
    inv_xi2: np.ndarray           # (n,), 0 where the mean spin vanishes
    relaxation: np.ndarray        # (n,), -(1/2) d<S_z>/d(G0 t) / N
    min_eig: np.ndarray           # (n,)
    trace_err: np.ndarray         # (n,)
    herm_err: np.ndarray          # (n,)
    final_state: QubitState
    states: list = field(default_factory=list)  # populated when keep_states

    @property
    def xi2(self):
        """Squeezing parameter where defined (inf when the spin vanishes)."""
        with np.errstate(divide="ignore"):
            return np.where(self.inv_xi2 > 0, 1.0 / self.inv_xi2, np.inf)


class Generator:
    """Master-equation generator, pre-scaled by 1/Gamma_0.

    Holds the effective Hamiltonian and the dissipator as a list of
    (weight, A, B) triples acting as A rho B, plus the collected
    anticommutator matrix; `action` applies d rho / d(Gamma_0 t) and
    `adjoint` its dual on observables, and `liouvillian` materializes the
    row-major-vectorized superoperator.
    """

    def __init__(self, n_qubits, h_eff, terms, mode):
        self.n_qubits = n_qubits
        self.mode = mode
        self.h_eff = h_eff
        self.terms = terms
        dim = 2 ** n_qubits
        g = np.zeros((dim, dim), dtype=complex)
        for w, a_op, b_op in terms:
            g += w * (b_op @ a_op)
        self._anticom = g

    def action(self, rho):
        out = -1j * (self.h_eff @ rho - rho @ self.h_eff)
        for w, a_op, b_op in self.terms:
            out += w * (a_op @ rho @ b_op)
        out -= 0.5 * (self._anticom @ rho + rho @ self._anticom)
        return out

    def adjoint(self, op):
        """Heisenberg-picture generator L^dagger, Tr[X L(rho)] = Tr[L^dagger(X) rho]."""
        out = 1j * (self.h_eff @ op - op @ self.h_eff)
        for w, a_op, b_op in self.terms:
            out += w * (b_op @ op @ a_op)
        out -= 0.5 * (self._anticom @ op + op @ self._anticom)
        return out

    def liouvillian(self):
        """Dense 4^N x 4^N matrix L with vec(drho/dt) = L vec(rho), row-major.

        Written in place through the 4-index view L4[i, j, k, l], the weight
        of rho[k, l] in (drho/dt)[i, j]; each call returns a new array that
        the caller owns (at N = 6 it takes 256 MB, so none is cached).
        """
        dim = 2 ** self.n_qubits
        mat = np.zeros((dim * dim, dim * dim), dtype=complex)
        l4 = mat.reshape(dim, dim, dim, dim)
        left = -1j * self.h_eff - 0.5 * self._anticom    # K rho
        right = 1j * self.h_eff - 0.5 * self._anticom    # rho K'
        for j in range(dim):
            l4[:, j, :, j] += left
        for i in range(dim):
            l4[i, :, i, :] += right.T
        for w, a_op, b_op in self.terms:
            b_t = w * b_op.T
            for i in range(dim):
                l4[i] += a_op[i][None, :, None] * b_t[:, None, :]
        return mat


def build_generator(couplings, mode="jump_operator"):
    """Generator from a CouplingSet, scaled to dimensionless time.

    The squeezed-bath parameters are recovered from the matrices themselves
    (occupation from the absorption/emission ratio, the anomalous moment from
    the on-site pair channel), so the two modes are built from identical
    information.
    """
    if mode not in ("jump_operator", "four_channel"):
        raise ValueError(f"unknown generator mode {mode!r}")
    n = couplings.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"dense representation limited to {MAX_QUBITS} qubits")
    g0 = couplings.gamma0
    occupation = couplings.gamma_mp[0, 0] / g0       # N = sinh^2 r
    anomalous = couplings.gamma_mm[0, 0] / g0        # M = -cosh sinh e^{i phi}

    lowers = [site_lower(i, n) for i in range(n)]
    raises_ = [site_raise(i, n) for i in range(n)]

    h_eff = np.zeros((2 ** n, 2 ** n), dtype=complex)
    jmat = couplings.j / g0
    for a in range(n):
        for b in range(n):
            if a != b and jmat[a, b] != 0.0:
                h_eff += jmat[a, b] * (raises_[a] @ lowers[b])

    terms = []
    if mode == "jump_operator":
        w = couplings.gamma_pm / (g0 * (occupation + 1.0))  # J0 weight matrix
        vals, vecs = np.linalg.eigh(0.5 * (w + w.T))
        cosh_r = np.sqrt(occupation + 1.0)
        sinh_phase = -anomalous / cosh_r
        jumps = []
        for m in range(n):
            if vals[m] <= 1e-14:
                continue
            c_m = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for a in range(n):
                c_m += vecs[a, m] * (cosh_r * lowers[a] + sinh_phase * raises_[a])
            jumps.append((vals[m], c_m))
        for w_m, c_m in jumps:
            terms.append((w_m, c_m, c_m.conj().T))
    else:
        pm = couplings.gamma_pm / g0
        mp = couplings.gamma_mp / g0
        pp = couplings.gamma_pp / g0
        mm = couplings.gamma_mm / g0
        for a in range(n):
            # collect the beta sums so the action costs O(N) matmuls
            terms.append((1.0, lowers[a], _collect(pm[a], raises_)))
            terms.append((1.0, raises_[a], _collect(mp[a], lowers)))
            terms.append((-1.0, raises_[a], _collect(mm[a], raises_)))
            terms.append((-1.0, lowers[a], _collect(pp[a], lowers)))
    return Generator(n, h_eff, terms, mode)


def _collect(row, ops):
    out = np.zeros_like(ops[0])
    for coeff, op in zip(row, ops):
        out += coeff * op
    return out


def evolve(rho0, generator, t_grid, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, keep_states=False):
    """Evolve a state over a grid of Gamma_0 t values; returns a Trajectory.

    Adaptive embedded Runge-Kutta with dense output at the grid points; each
    output state is re-validated against the QubitState invariants (an
    out-of-band violation aborts the run).  The observables are evaluated
    once over the whole stack of output states.
    """
    # imported here: observables imports QubitState from this module
    from .observables import trajectory_observables

    rho_init, n = density_matrix(rho0)
    if n != generator.n_qubits:
        raise ValueError("state and generator have different qubit counts")
    QubitState(rho_init, n).check()

    t_grid = np.asarray(t_grid, dtype=float)
    dim = 2 ** n

    def rhs(_t, y):
        return generator.action(y.reshape(dim, dim)).ravel()

    if t_grid.size == 1:
        flat = rho_init.ravel()[None, :].copy()
    else:
        flat = integrate_ode(rhs, rho_init.ravel(), t_grid, rtol=rtol, atol=atol)
    npts = t_grid.size
    rhos = flat.reshape(npts, dim, dim)
    min_eig = np.empty(npts)
    trace_err = np.empty(npts)
    herm_err = np.empty(npts)
    states = []

    abort_tol = max(1e-6, 1e4 * atol)
    for i in range(npts):
        state = QubitState(rhos[i], n, time=float(t_grid[i]))
        trace_err[i] = state.trace_error()
        herm_err[i] = state.hermiticity_error()
        min_eig[i] = state.min_eigenvalue()
        if trace_err[i] > abort_tol or herm_err[i] > abort_tol:
            raise StateInvariantError(
                f"invariant violation at Gamma_0 t = {t_grid[i]:.6g}: "
                f"trace {trace_err[i]:.3e}, hermiticity {herm_err[i]:.3e}"
            )
        if min_eig[i] < POSITIVITY_FLOOR:
            raise StateInvariantError(
                f"negative eigenvalue {min_eig[i]:.3e} at Gamma_0 t = {t_grid[i]:.6g}"
            )
        if keep_states:
            states.append(state)

    return Trajectory(
        t_grid.copy(),
        *trajectory_observables(rhos, generator),
        min_eig=min_eig,
        trace_err=trace_err,
        herm_err=herm_err,
        final_state=QubitState(rhos[-1], n, time=float(t_grid[-1])),
        states=states,
    )


def steady_state(generator):
    """Stationary state from one LU solve of the trace-bordered Liouvillian.

    The trace functional w = vec(I) is a left null vector of L, so by
    Brauer's theorem A = L + e0 w^T (w added to row 0) has the spectrum of L
    with the null eigenvalue moved to 1: A is singular exactly when the
    steady state is not unique, and A vec(rho) = e0 gives the unit-trace
    steady state.  One solve takes e0 together with a fixed-seed random
    block Z; since A X = Z, the Ritz values of A on span(X) follow from X
    and Z alone, and their smallest modulus estimates |lambda_2| of L.  A
    singular solve, or |lambda_2| below 1e-8 of the spectral radius (from a
    matrix-free Arnoldi run), raises DegenerateSteadyStateError.  The
    residual ||L v|| of the normalized solution is checked against
    1e-8 ||L||_F (LinAlgError); the state is then Hermitized,
    trace-normalized and checked against the positivity floor.
    """
    n = generator.n_qubits
    if n > MAX_STEADY_QUBITS:
        raise ValueError(
            f"dense steady-state solve limited to {MAX_STEADY_QUBITS} qubits"
        )
    dim = 2 ** n
    size = dim * dim

    def apply(vec):
        return generator.action(vec.reshape(dim, dim)).ravel()

    radius = spectral_radius_estimate(apply, size)
    probes = min(RITZ_PROBES, size - 1)
    rng = np.random.default_rng(0)
    rhs = np.zeros((size, 1 + probes), dtype=complex)
    rhs[0, 0] = 1.0
    rhs[:, 1:] = rng.standard_normal((size, probes)) + 1j * rng.standard_normal((size, probes))

    mat = generator.liouvillian()
    l_norm = np.linalg.norm(mat)
    mat[0, :: dim + 1] += 1.0  # row 0 += vec(I): L becomes A in place
    try:
        sol = np.linalg.solve(mat, rhs)
        del mat
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("solution is not finite")
        lam2 = _smallest_ritz_modulus(sol, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(
            f"bordered Liouvillian is singular ({exc}); steady state is not unique"
        ) from exc
    if lam2 < 1e-8 * radius:
        raise DegenerateSteadyStateError(
            f"second eigenvalue |lambda_2| ~ {lam2:.3e} below 1e-8 of the "
            f"spectral radius {radius:.3e}; steady state is not unique"
        )

    vec = sol[:, 0] / np.linalg.norm(sol[:, 0])
    resid = np.linalg.norm(apply(vec))
    if l_norm > 0 and resid > 1e-8 * l_norm:
        raise np.linalg.LinAlgError(
            f"steady-state residual {resid:.2e} exceeds 1e-8*||L|| ({l_norm:.2e})"
        )
    rho = vec.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho)
    state = QubitState(rho, n, time=np.inf)
    mineig = state.min_eigenvalue()
    if mineig < POSITIVITY_FLOOR:
        raise StateInvariantError(f"steady state has negative eigenvalue {mineig:.3e}")
    return state


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
