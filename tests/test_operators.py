"""The index-built qubit operators against their Kronecker-product
references, byte for byte, and the promise that no operator is kept once
the call that built it returns."""

import gc
import tracemalloc

import numpy as np
import pytest

from magsqueeze.bath import bath_from_params
from magsqueeze.couplings import build_couplings
from magsqueeze.dynamics import build_generator, evolve
from magsqueeze.observables import initial_state, wineland_xi2
from magsqueeze.operators import (
    collective_spin_ops, exchange_hamiltonian, site_lower, site_raise,
)
from magsqueeze.params import ArrayGeometry, PhysicalParams

from oracles import site_pauli

SIZES = range(1, 9)


def same_bytes(got, want):
    # np.array_equal does not tell +0 from -0; the bytes do
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_site_operators_equal_the_kronecker_reference(n):
    for site in range(n):
        assert same_bytes(site_lower(site, n), site_pauli("minus", site, n))
        assert same_bytes(site_raise(site, n), site_pauli("plus", site, n))


@pytest.mark.parametrize("n", SIZES)
def test_collective_spin_equals_the_kronecker_reference(n):
    dim = 2 ** n
    for axis, got in zip("xyz", collective_spin_ops(n)):
        want = np.zeros((dim, dim), dtype=complex)
        for site in range(n):
            want += site_pauli(axis, site, n)
        assert same_bytes(got, want), axis


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("layout", ["chain", "plane_with_a_zero_coupling"])
def test_exchange_equals_the_kronecker_reference(n, layout):
    params = PhysicalParams()
    if layout == "chain":
        geometry = ArrayGeometry.chain(n, 0.5)
    else:
        geometry = ArrayGeometry(np.random.default_rng(n).uniform(0.0, 2.0, size=(n, 2)))
    couplings = build_couplings(geometry, params, bath_from_params(params, r_override=0.25))
    j = couplings.j / couplings.gamma0
    if layout != "chain" and n > 1:
        j[0, n - 1] = 0.0
    want = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for a in range(n):
        for b in range(n):
            if a != b and j[a, b] != 0.0:
                want += j[a, b] * (site_pauli("plus", a, n) @ site_pauli("minus", b, n))
    assert same_bytes(exchange_hamiltonian(j), want)


def test_no_operator_outlives_its_call():
    # one 64 x 64 complex array; before the operators were built by index,
    # the cached site and spin operators of this run kept about 2 MiB
    params = PhysicalParams()
    bath = bath_from_params(params, r_override=0.5)
    couplings = {n: build_couplings(ArrayGeometry.chain(n, 0.5), params, bath) for n in (5, 6)}

    def run(n):
        traj = evolve(initial_state("all_excited", n), build_generator(couplings[n]),
                      np.linspace(0.0, 1.0, 5))
        return wineland_xi2(traj.final_state)

    run(5)  # numpy's lazy imports are not the package's to answer for
    tracemalloc.start(30)
    try:
        summary = run(6)
        del summary
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = snapshot.filter_traces([tracemalloc.Filter(True, "*/magsqueeze/*", all_frames=True)])
    assert sum(trace.size for trace in kept.traces) < 64 * 64 * 16
