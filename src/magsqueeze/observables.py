"""Collective-spin observables: mean spin, perpendicular variance, the
Wineland squeezing parameter, collective relaxation rate, and standard
initial states.

Spin operators use the Pauli convention S^eta = sum_i sigma_i^eta (eigenvalues
+-1 per qubit), so a coherent spin state has |<S>| = N and perpendicular
variance N, giving xi_R^2 = 1 exactly.  xi_R^2 itself is convention-invariant.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import QubitState, density_matrix
from .operators import collective_spin_ops
from .params import MAX_QUBITS

MEAN_SPIN_FLOOR = 1e-8  # relative to N
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))  # (S_a S_b + S_b S_a)/2
_PAIR_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])  # slot of (a, b) in _PAIRS


@dataclass(frozen=True)
class SpinSummary:
    """Mean spin, minimum perpendicular variance, and Wineland xi_R^2."""

    mean_spin: np.ndarray     # (3,), Pauli convention
    min_perp_var: float
    xi_r_squared: float
    squeezing_angle: float    # rad, minimizing direction in the (e1, e2) frame


def _basis(ops, entries=slice(None)):
    """The operators as the rows vec(op^T) that `_expectations` reads, at the
    flat `entries` of the states (all by default), one operator at a time."""
    return np.stack([op.T.ravel()[entries] for op in ops])


def _expectations(rho, basis):
    """Tr[rho op], shape (..., len(basis)), for a (..., d, d) stack: one
    product vec(rho) @ basis.T that reads a contiguous stack in place."""
    vals = rho.reshape(-1, basis.shape[1]) @ basis.T
    return vals.reshape(rho.shape[:-2] + (len(basis),))


def _moment_basis(s, entries=slice(None)):
    """`_basis` of s = (S_x, S_y, S_z) and of (S_a S_b + S_b S_a)/2 in _PAIRS
    order, each made in turn."""
    pairs = (0.5 * (s[a] @ s[b] + s[b] @ s[a]) for a, b in _PAIRS)
    return _basis(itertools.chain(s, pairs), entries)


def _spin_moments(rho, basis):
    """Complex <S> (..., 3) and <(S_a S_b + S_b S_a)/2> (..., 3, 3), from
    the `_moment_basis`."""
    vals = _expectations(rho, basis)
    return vals[..., :3], vals[..., 3:][..., _PAIR_INDEX]


def _relaxation(rho, heisenberg_sz, n_qubits):
    """-(1/2) Tr[rho L^dagger(S_z)] / N, from the `_basis` of L^dagger(S_z)."""
    return -0.5 * _expectations(rho, heisenberg_sz)[..., 0].real / n_qubits


def _real_spin(spin):
    if np.max(np.abs(spin.imag)) > 1e-10 * max(1.0, np.max(np.abs(spin.real))):
        raise ValueError("collective spin came out complex; state is not Hermitian")
    return spin.real


def perpendicular_frame(direction):
    """Deterministic orthonormal pair (e1, e2) perpendicular to `direction`.

    e1 is the lab x-hat Gram-Schmidt-projected off the mean-spin axis,
    falling back to y-hat when the two are parallel; e2 completes the
    right-handed triad.  Works on stacks of directions (..., 3).
    """
    n_hat = np.asarray(direction, dtype=float)
    n_hat = n_hat / np.linalg.norm(n_hat, axis=-1, keepdims=True)
    parallel = np.abs(n_hat[..., :1]) > 1.0 - 1e-12
    seed = np.where(parallel, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    e1 = seed - np.sum(seed * n_hat, axis=-1, keepdims=True) * n_hat
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    return e1, np.cross(n_hat, e1)


def perpendicular_covariance(mean, second):
    """Symmetrized 2x2 covariance E^T (M2 - m m^T) E of the spin components
    perpendicular to the mean spin m (z-hat where m vanishes), E = (e1, e2)
    from `perpendicular_frame`; works on stacks."""
    norm = np.linalg.norm(mean, axis=-1, keepdims=True)
    frame = np.stack(perpendicular_frame(np.where(norm > 0, mean, [0.0, 0.0, 1.0])), -1)
    cov = second - mean[..., :, None] * mean[..., None, :]
    return np.swapaxes(frame, -1, -2) @ cov @ frame


def _squeezing(mean, second, n_qubits):
    """Minimum perpendicular variance, 1/xi_R^2 = |<S>|^2 / (N min_var) and
    the minimizing angle; 1/xi_R^2 is 0 where |<S>| <= 1e-8 N (no squeezing
    plane) or the minimum variance is not positive.  The one place that
    decides where xi_R^2 is defined: every other xi_R^2 is its reciprocal."""
    vals, vecs = np.linalg.eigh(perpendicular_covariance(mean, second))
    min_var, norm = vals[..., 0], np.linalg.norm(mean, axis=-1)
    defined = (norm > MEAN_SPIN_FLOOR * n_qubits) & (min_var > 0)
    inv_xi2 = np.where(defined, norm ** 2 / (n_qubits * np.where(defined, min_var, 1.0)), 0.0)
    return min_var, inv_xi2, np.arctan2(vecs[..., 1, 0], vecs[..., 0, 0]) % np.pi


def collective_spin(state):
    """(<S_x>, <S_y>, <S_z>) as a real 3-vector."""
    rho, n = density_matrix(state)
    return _real_spin(_spin_moments(rho, _moment_basis(collective_spin_ops(n)))[0])


def wineland_xi2(state):
    """Wineland squeezing parameter xi_R^2 = N * min perpendicular variance
    over the squared mean-spin length, with the minimizing angle.

    xi_R^2 is the reciprocal of `_squeezing`'s 1/xi_R^2, which alone decides
    where it is defined: where |<S>| <= 1e-8 N (no mean-spin direction,
    hence no perpendicular plane) or the minimum variance is not positive,
    1/xi_R^2 is 0 and xi_R^2 is inf.
    """
    rho, n = density_matrix(state)
    mean, second = _spin_moments(rho, _moment_basis(collective_spin_ops(n)))
    spin = _real_spin(mean)
    min_var, inv_xi2, angle = (float(x) for x in _squeezing(spin, second.real, n))
    return SpinSummary(spin, min_var, 1.0 / inv_xi2 if inv_xi2 > 0 else np.inf, angle)


def relaxation_rate(state, generator):
    """Collective relaxation rate -(1/2) d<S_z>/d(Gamma_0 t), per qubit.

    Evaluated as -(1/2) Tr[L^dagger(S_z) rho] / N with the dimensionless
    generator, so N independently decaying excited qubits give exactly 1 at
    t = 0.  A (..., d, d) stack of states gives one rate per state.
    """
    rho, n = density_matrix(state)
    rate = _relaxation(rho, _basis([generator.adjoint(collective_spin_ops(n)[2])]), n)
    return rate if rate.ndim else float(rate)


class TrajectoryObservables:
    """Mean spin (m, 3), minimum perpendicular variance, 1/xi_R^2 (0 where
    undefined) and relaxation rate (m,) of the m states of a trajectory, by
    the same code as `collective_spin`, `wineland_xi2` and
    `relaxation_rate`, measured a chunk of states at a time.

    The operators' rows are built once, at the entries of (k, d, d) states
    or, with `parity_blocks`, of their (k, 2, h, h) parity blocks.
    `measure` writes each chunk's moments and rates into the columns in
    place; `columns` runs `_squeezing` once on all m of them.
    """

    def __init__(self, generator, count, parity_blocks):
        self.n_qubits = n = generator.n_qubits
        s = collective_spin_ops(n)
        entries = generator.parity_entries.ravel() if parity_blocks else slice(None)
        self._moments = _moment_basis(s, entries)
        self._heisenberg_sz = _basis([generator.adjoint(s[2])], entries)
        self.mean = np.empty((count, 3))
        self._second = np.empty((count, 3, 3))
        self.relaxation = np.empty(count)

    def measure(self, first, rhos):
        """Measure the states first, first + 1, ... of a contiguous (k, d, d)
        stack, or of a (k, 2, h, h) stack of their parity blocks.  A state's
        values do not depend on k: one state is measured as two copies,
        since BLAS sums a one-row product in another order than a longer
        one."""
        if rhos.ndim == 4:  # each state's blocks, as one (2h, h) array
            rhos = rhos.reshape(len(rhos), -1, rhos.shape[-1])
        count = len(rhos)
        rows = slice(first, first + count)
        if count == 1:
            rhos = np.concatenate([rhos, rhos])
        mean, second = _spin_moments(rhos, self._moments)
        self.mean[rows], self._second[rows] = mean[:count].real, second[:count].real
        self.relaxation[rows] = _relaxation(rhos, self._heisenberg_sz, self.n_qubits)[:count]

    def columns(self):
        """The four columns, in Trajectory order."""
        min_var, inv_xi2, _ = _squeezing(self.mean, self._second, self.n_qubits)
        return self.mean, min_var, inv_xi2, self.relaxation


def initial_state(kind, n_qubits, theta=None, phi=0.0):
    """Product initial states: 'all_excited', 'all_ground', or 'css'.

    The coherent spin state 'css' points along (theta, phi) on the Bloch
    sphere; basis ordering per qubit is {|up>, |down>} with sigma_z |up> =
    +|up>.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be between 1 and {MAX_QUBITS}, got {n_qubits!r}")
    if kind == "all_excited":
        single = np.array([1.0, 0.0], dtype=complex)
    elif kind == "all_ground":
        single = np.array([0.0, 1.0], dtype=complex)
    elif kind == "css":
        if theta is None:
            raise ValueError("css initial state needs a polar angle theta")
        if not (np.isfinite(theta) and np.isfinite(phi)):
            raise ValueError(f"css angles must be finite, got theta={theta!r}, phi={phi!r}")
        single = np.array(
            [np.cos(0.5 * theta), np.exp(1j * phi) * np.sin(0.5 * theta)],
            dtype=complex,
        )
    else:
        raise ValueError(f"unknown initial state kind {kind!r}")
    psi = np.array([1.0], dtype=complex)
    for _ in range(n_qubits):
        psi = np.kron(psi, single)
    rho = np.outer(psi, psi.conj())
    return QubitState(rho, n_qubits, time=0.0)
