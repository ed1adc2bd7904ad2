"""The qubit operators of the 2^N space, written entry by entry by basis-state
index.  Basis state s holds qubit k in bit N-1-k (qubit 0 is the most
significant bit); a clear bit is |up> (sigma_z = +1), a set bit |down>.
Every operator is built fresh on each call and nothing is kept."""

import numpy as np


def _bit(site, n_qubits):
    return 1 << (n_qubits - 1 - site)


def site_lower(site, n_qubits):
    """sigma^-_site = |down><up| at `site`."""
    bit = _bit(site, n_qubits)
    states = np.arange(2 ** n_qubits)
    up = states[states & bit == 0]
    op = np.zeros((states.size, states.size), dtype=complex)
    op[up | bit, up] = 1.0
    return op


def site_raise(site, n_qubits):
    """sigma^+_site = |up><down| at `site`."""
    return np.ascontiguousarray(site_lower(site, n_qubits).T)


def exchange_hamiltonian(j):
    """sum_{a != b} j[a, b] sigma^+_a sigma^-_b for a real (N, N) `j`: each
    term takes every state with qubit a down and qubit b up to the state
    with the two swapped, so different terms fill different entries."""
    n = len(j)
    states = np.arange(2 ** n)
    out = np.zeros((states.size, states.size), dtype=complex)
    for a in range(n):
        for b in range(n):
            if a != b and j[a, b] != 0.0:
                bit_a, bit_b = _bit(a, n), _bit(b, n)
                s = states[(states & bit_a != 0) & (states & bit_b == 0)]
                out[s ^ bit_a ^ bit_b, s] = j[a, b]
    return out


def collective_spin_ops(n_qubits):
    """(S_x, S_y, S_z) with S_eta = sum_i sigma_i^eta (Pauli convention)."""
    states = np.arange(2 ** n_qubits)
    sx = np.zeros((states.size, states.size), dtype=complex)
    sy = np.zeros_like(sx)
    sz = np.zeros(states.size)
    for site in range(n_qubits):
        bit = _bit(site, n_qubits)
        sign = np.where(states & bit, -1.0, 1.0)  # sigma_z of the qubit
        sx[states ^ bit, states] = 1.0
        # <up|sigma_y|down> = -i: the imaginary part alone, so every real
        # part stays +0
        sy.imag[states ^ bit, states] = sign
        sz += sign
    return sx, sy, np.diag(sz).astype(complex)
