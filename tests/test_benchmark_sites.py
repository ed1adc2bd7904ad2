"""The traced benchmark run (perfbench/spans.py) wraps package functions at
the names listed in its SITES table; every one of them must resolve, or each
benchmark pass fails.  Each workload's tiny pass must also run clean: it
makes the benchmark's own calls and checks their outputs against its
committed references."""

import importlib
import os

import numpy as np
import pytest

from magsqueeze import dynamics
from magsqueeze.bath import bath_from_params
from magsqueeze.cli import main
from magsqueeze.couplings import build_couplings
from magsqueeze.dynamics import build_generator, evolve
from magsqueeze.numerics import gauss_legendre_panels
from magsqueeze.observables import initial_state
from magsqueeze.params import ArrayGeometry, PhysicalParams

from oracles import four_channel_generator

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    missing = []
    for module, path, _, _ in importlib.import_module("spans").SITES:
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert not missing, f"benchmark sites that no longer resolve: {missing}"


def test_generator_exposes_what_the_action_counters_read(monkeypatch):
    # the traced run's _action_kernel reads n_qubits and len(terms)
    monkeypatch.syspath_prepend(PERFBENCH)
    params = PhysicalParams()
    bath = bath_from_params(params, r_override=0.25)
    for build in (build_generator, four_channel_generator):
        gen = build(build_couplings(ArrayGeometry.chain(2, 0.5), params, bath))
        assert gen.n_qubits == 2
        assert gen.terms
        for term in gen.terms:
            w, a_op, b_op = term
            assert np.isscalar(w)
            assert a_op.shape == b_op.shape == (4, 4)
        counts = importlib.import_module("spans")._action_kernel((gen, None), {}, None)
        assert counts["matmuls"] == 2 * len(gen.terms) + 4


def test_traced_action_counts_every_rhs_call(monkeypatch):
    # the integrator of a parity-even start calls `action` on parity blocks;
    # the traced run's wrappers count those calls as integrate calls, as
    # many as the integration of the full state makes
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    params = PhysicalParams()
    n = dynamics.SECTOR_MIN_QUBITS
    couplings = build_couplings(ArrayGeometry.chain(n, 0.5), params,
                                bath_from_params(params, r_override=0.25))
    gen = build_generator(couplings)

    def integrate_calls(min_qubits):
        monkeypatch.setattr(dynamics, "SECTOR_MIN_QUBITS", min_qubits)
        tracer = spans.Tracer("test")
        tracer.install()
        try:
            traj = evolve(initial_state("all_excited", n), gen, np.linspace(0.0, 2.0, 21))
        finally:
            tracer.uninstall()
        assert traj.parity_blocks is (min_qubits <= n)
        return spans.summarize(tracer.spans, tracer.extras, 1.0)["dynamics.action.integrate_calls"]

    blocks = integrate_calls(n)
    assert blocks > 0
    assert blocks == integrate_calls(n + 1)


def test_traced_operator_sites_count_real_calls(monkeypatch):
    # build_generator itself looks up site_lower and site_raise at the names
    # the traced run wraps, once per qubit each
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    params = PhysicalParams()
    n = 3
    couplings = build_couplings(ArrayGeometry.chain(n, 0.5), params,
                                bath_from_params(params, r_override=0.25))
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        build_generator(couplings)
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    assert names.count("operators.site_lower") == n
    assert names.count("operators.site_raise") == n


def test_traced_sweep_measures_each_point_once(monkeypatch, tmp_path):
    # each sweep point calls wineland_xi2 at the name the traced run wraps,
    # and builds the spin operators there and nowhere else
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        code = main(["--scenario", "sweep", "--threads", "1", "--set", "sweep_r=0,0.25",
                     "--set", "sweep_a=0.5", "--set", "sweep_n=2,3", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [name for name, *_ in tracer.spans]
    assert names.count("observables.wineland_xi2") == 4
    assert names.count("operators.collective_spin_ops") == 4


def test_panel_counter_matches_the_quadrature(monkeypatch):
    # the traced run's _panel_nodes counts the abscissae of one call
    monkeypatch.syspath_prepend(PERFBENCH)
    edges = np.linspace(0.0, 1.0, 8)
    seen = []

    def f(x):
        seen.append(x.size)
        return np.ones_like(x)

    gauss_legendre_panels(f, edges)
    counts = importlib.import_module("spans")._panel_nodes((f, edges), {}, None)
    assert counts["nodes"] == sum(seen)


@pytest.mark.parametrize("workload", ["figures", "trajectory_n6", "steady_sweep", "oracle_check"])
def test_tiny_workload_passes(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    assert workload in workloads.WORKLOADS
    prepared = workloads.prepare(workload, 0, "tiny")
    assert prepared.operations
    problems = []
    for op in prepared.operations:
        problems += op.run(str(tmp_path))[0]
    assert not problems
