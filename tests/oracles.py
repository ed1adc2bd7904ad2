"""Independent references the tests compare the package against, kept apart
from it so that no runtime path can route through them and check itself:
the Kronecker embedding of the single-qubit operators that the index-built
operators are checked against, the dense matrix exponential that `evolve`
is checked against, the four-channel form of the generator that the
jump-operator form of `build_generator` is checked against, and the
Dicke-space stationary state of the fully collective dissipator that
`evolve` is checked against, the J0/Y0 kernel with every series summed
to its fixed stopping test that the truncated kernels are checked against
bit for bit, and the brute-force 637-period exchange principal value that
the extrapolated tail of `couplings._principal_value` is checked against."""

import math

import numpy as np

from magsqueeze.bath import resonant_wavelength
from magsqueeze.dynamics import Generator, build_generator
from magsqueeze.numerics import EULER_GAMMA, bessel_j0, gauss_legendre_panels

_SINGLE = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),  # |down><up|
}
_SINGLE["plus"] = _SINGLE["minus"].conj().T


def site_pauli(kind, site, n_qubits):
    """The single-qubit operator `kind` ('x', 'y', 'z', 'minus' or 'plus',
    on the basis (|up>, |down>)) at `site`, as the Kronecker product over
    the qubits in order with the identity at every other site."""
    out = np.array([[1.0]], dtype=complex)
    for k in range(n_qubits):
        out = np.kron(out, _SINGLE[kind] if k == site else np.eye(2, dtype=complex))
    return out


_PADE13_B = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)


def matrix_exp(mat):
    """Dense matrix exponential via 13/13 Pade with scaling and squaring."""
    a = np.asarray(mat, dtype=complex)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    theta13 = 5.371920351148152
    s = 0 if norm <= theta13 else int(np.ceil(np.log2(norm / theta13)))
    a = a / (2.0 ** s)
    b = _PADE13_B
    ident = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def four_channel_generator(couplings):
    """The generator of `build_generator(couplings)` with its dissipator
    written as the channel sum over the stored coupling matrices: for each
    qubit a, sigma_a^- rho (sum_b gamma_pm[a, b] sigma_b^+) and
    sigma_a^+ rho (sum_b gamma_mp[a, b] sigma_b^-) with weight 1, and the
    anomalous sigma_a^+ rho (sum_b gamma_mm[a, b] sigma_b^+) and
    sigma_a^- rho (sum_b gamma_pp[a, b] sigma_b^-) with weight -1.  The
    effective Hamiltonian is that of the jump-operator form."""
    g = build_generator(couplings)
    n = couplings.n_qubits
    g0 = couplings.gamma0
    lowers = [site_pauli("minus", i, n) for i in range(n)]
    raises_ = [site_pauli("plus", i, n) for i in range(n)]
    terms = []
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
    return Generator(n, g.h_eff, terms)


def _collect(row, ops):
    out = np.zeros_like(ops[0])
    for coeff, op in zip(row, ops):
        out += coeff * op
    return out


def collective_steady_state(n_qubits, r, phi):
    """The state that a symmetric start ends in under H = 0 and the one jump
    operator C = cosh r S^- + e^{i phi} sinh r S^+ (S^pm = sum_i sigma_i^pm),
    found in the (N + 1)-dimensional Dicke space alone: the Dicke state |k>
    is the normalized sum of the basis states with k set bits (k qubits
    down), and S^- |k> = sqrt((N - k)(k + 1)) |k + 1>.

    Returns the null vector of the (N + 1)^2-dimensional Lindbladian as a
    unit-trace state embedded into the 2^N space, its Wineland xi_R^2 (N
    times the least variance of S perpendicular to <S>, over |<S>|^2) and
    the slowest decay rate of that Lindbladian; ValueError unless the null
    vector is unique.
    """
    n = n_qubits
    k = np.arange(n + 1)
    lower = np.diag(np.sqrt((n - k[:-1]) * (k[:-1] + 1.0)), -1)
    c = np.cosh(r) * lower + np.exp(1j * phi) * np.sinh(r) * lower.T
    cdc = c.conj().T @ c
    eye = np.eye(n + 1)
    # C rho C^dagger - {C^dagger C, rho}/2 on the row-major vec(rho)
    liou = np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    vals, vecs = np.linalg.eig(liou)
    order = np.argsort(-vals.real)
    rate = -vals[order[1]].real
    if not rate > 1e-8 * np.max(np.abs(vals)):
        raise ValueError(f"the Dicke-space null vector at N = {n} is not unique")
    rho = vecs[:, order[0]].reshape(n + 1, n + 1)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)

    spin = [lower + lower.T, 1j * (lower - lower.T), np.diag(n - 2.0 * k)]  # Pauli convention
    mean = np.array([np.trace(rho @ a).real for a in spin])
    second = np.array([[0.5 * np.trace(rho @ (a @ b + b @ a)).real for b in spin]
                       for a in spin])
    perp = np.linalg.svd(mean[None, :])[2][1:]  # orthonormal rows perpendicular to <S>
    min_var = np.linalg.eigvalsh(perp @ (second - np.outer(mean, mean)) @ perp.T)[0]

    set_bits = np.array([bin(i).count("1") for i in range(2 ** n)])
    embed = (set_bits[:, None] == k) / np.sqrt([math.comb(n, j) for j in k])
    return embed @ rho @ embed.T, n * min_var / (mean @ mean), rate


def power_series(x, want_y=True):
    """J0 and the sum S of Y0's power series, testing every term against
    1e-18 (at most 80 terms)."""
    minus_q = -0.25 * x * x
    j0 = np.ones_like(x)
    y_sum = np.zeros_like(x) if want_y else None
    term = np.ones_like(x)
    harmonic = 0.0
    for k in range(1, 81):
        term *= minus_q
        term /= k * k
        harmonic += 1.0 / k
        j0 += term
        if want_y:
            y_sum -= term * harmonic
        if np.all(np.abs(term) < 1e-18):
            break
    return j0, y_sum


def hankel_pq(x):
    """The Hankel sums P, Q of order zero through all 26 terms."""
    p = np.ones_like(x)
    q = np.zeros_like(x)
    inv_x = 1.0 / x
    a = np.ones_like(x)
    for k in range(1, 27):
        a *= (2 * k - 1) ** 2 / (8.0 * k)
        a *= inv_x
        total = q if k % 2 == 1 else p
        if (k // 2) % 2:
            total -= a
        else:
            total += a
    return p, q


def bessel0(x, want_y):
    """J0 (Y0 if `want_y`): the power series below |x| = 13, the Hankel
    expansion above, each branch on its masked part of the array."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = np.empty_like(xv)
    small = np.abs(xv) < 13.0
    if np.any(small):
        xs = np.abs(xv[small])
        j0, y_sum = power_series(xs, want_y)
        if want_y:
            out[small] = (2.0 / np.pi) * ((np.log(0.5 * xs) + EULER_GAMMA) * j0 + y_sum)
        else:
            out[small] = j0
    if np.any(~small):
        xl = np.abs(xv[~small])
        p, q = hankel_pq(xl)
        chi = xl - 0.25 * np.pi
        amp = np.sqrt(2.0 / (np.pi * xl))
        if want_y:
            out[~small] = amp * (p * np.sin(chi) - q * np.cos(chi))
        else:
            out[~small] = amp * (p * np.cos(chi) + q * np.sin(chi))
    return out[0] if scalar else out


def principal_value_637(rho_cm, params, n_scale):
    """PV integral dk k^3 J0(k rho) / (k_q^2 - k^2) by its pole term, with the
    oscillatory tail integrated by brute force across 637 Bessel periods
    (4000 radians) in panels 0.5 k_q wide at most, ended by one average of
    the partial integrals half a period apart.  The inner and left terms are
    those of `couplings._principal_value`."""
    k_q, _ = resonant_wavelength(params)
    w = 0.5 * k_q

    def g(k):
        return k * bessel_j0(k * rho_cm) / (k_q + k)

    def folded(u):
        return (g(k_q - u) - g(k_q + u)) / u

    def pole_int(k):
        return k * bessel_j0(k * rho_cm) / (k_q ** 2 - k ** 2)

    n_in = int(np.ceil(n_scale * (24 + 8.0 * w * rho_cm / np.pi)))
    inner = gauss_legendre_panels(folded, np.linspace(w * 1e-9, w, n_in + 1))
    left = gauss_legendre_panels(pole_int, np.linspace(0.0, w, n_in + 1))

    # oscillatory tail: integrate to ~4000 radians of Bessel phase, then
    # average the partial integrals half a period apart
    half = np.pi / rho_cm
    k_end = 1.5 * k_q + max(np.ceil(4000.0 / (rho_cm * 2 * half)), 4) * 2 * half
    dk = min(0.5 * half, 0.5 * k_q) / n_scale
    n_r = int(np.ceil((k_end - 1.5 * k_q) / dk))
    right_a = gauss_legendre_panels(pole_int, np.linspace(1.5 * k_q, k_end, n_r + 1))
    extra = gauss_legendre_panels(
        pole_int, np.linspace(k_end, k_end + half, max(4, int(np.ceil(n_scale * 8))))
    )
    right = right_a + 0.5 * extra

    return k_q ** 2 * (inner + left + right)
