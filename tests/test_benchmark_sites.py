"""The traced benchmark run (perfbench/spans.py) wraps package functions at
the names listed in its SITES table; every one of them must resolve, or each
benchmark pass fails."""

import importlib
import os

import numpy as np

from magsqueeze.bath import bath_from_params
from magsqueeze.couplings import build_couplings
from magsqueeze.dynamics import build_generator
from magsqueeze.params import ArrayGeometry, PhysicalParams

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
    for mode in ("jump_operator", "four_channel"):
        gen = build_generator(build_couplings(ArrayGeometry.chain(2, 0.5), params, bath), mode)
        assert gen.n_qubits == 2
        assert gen.terms
        for term in gen.terms:
            w, a_op, b_op = term
            assert np.isscalar(w)
            assert a_op.shape == b_op.shape == (4, 4)
        counts = importlib.import_module("spans")._action_kernel((gen, None), {}, None)
        assert counts["matmuls"] == 2 * len(gen.terms) + 4
