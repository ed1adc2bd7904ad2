"""The traced benchmark run (perfbench/spans.py) wraps package functions at
the names listed in its SITES table; every one of them must resolve, or each
benchmark pass fails."""

import importlib
import os

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
