"""Span recorder for the traced benchmark run.

The traced run wraps public functions of the ``magsqueeze`` package from the
outside: each wrapper is installed at the name its caller looks up (e.g.
``magsqueeze.dynamics.integrate_ode``, the name ``evolve`` resolves, not
``magsqueeze.numerics.integrate_ode``).  Nothing inside ``src/`` is edited.
A span is ``(name, start, end, parent, run_id)``; spans are kept in memory
and written out when the pass ends.  The layer of a span is its name up to
the first dot, which is the package module that implements the function.
"""

import importlib
import os
import threading
import time
from collections import defaultdict

LAYERS = (
    "params", "bath", "couplings", "numerics", "operators", "dynamics",
    "observables", "cli",
)

MARK = "_perfbench_span"


def _write_csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _quad_evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


def _panel_nodes(args, kwargs, result):
    edges = args[1] if len(args) > 1 else kwargs["edges"]
    order = args[2] if len(args) > 2 else kwargs.get("order", 12)
    return {"nodes": (len(edges) - 1) * order}


def _bessel_points(args, kwargs, result):
    import numpy as np

    return {"points": int(np.size(args[0]))}


def _matrix_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _action_kernel(args, kwargs, result):
    """Computed (not measured) cost of one ``Generator.action`` call.

    The action is two matmuls for the commutator with ``h_eff``, two per
    dissipator term (``A rho B``) and two for the anticommutator: in all
    ``2 * len(terms) + 4`` dense complex matmuls of size ``2^N``.  A complex
    multiply-add is 8 real flops, so one matmul is ``8 d^3`` flops; it reads
    two ``d x d`` complex128 operands and writes one, ``48 d^2`` bytes, with
    no allowance for cache reuse.
    """
    generator = args[0]
    dim = 2 ** generator.n_qubits
    matmuls = 2 * len(generator.terms) + 4
    return {
        "matmuls": matmuls,
        "flops": matmuls * 8 * dim ** 3,
        "bytes": matmuls * 48 * dim ** 2,
    }


# (module, attribute path, span name, extra counters)
SITES = (
    ("magsqueeze.cli", "main", "cli.main", None),
    ("magsqueeze.cli", "write_csv", "cli.write_csv", _write_csv_bytes),
    ("magsqueeze.cli", "apply_overrides", "params.apply_overrides", None),
    ("magsqueeze.cli", "serialize_config", "params.serialize_config", None),
    ("magsqueeze.cli", "bath_from_params", "bath.bath_from_params", None),
    ("magsqueeze.bath", "field_correlator", "bath.field_correlator", None),
    ("magsqueeze.cli", "build_couplings", "couplings.build_couplings", None),
    ("magsqueeze.couplings", "build_couplings", "couplings.build_couplings", None),
    ("magsqueeze.couplings", "coupling_oracle", "couplings.coupling_oracle", None),
    ("magsqueeze.cli", "build_generator", "dynamics.build_generator", None),
    ("magsqueeze.cli", "evolve", "dynamics.evolve", None),
    ("magsqueeze.cli", "steady_state", "dynamics.steady_state", None),
    ("magsqueeze.dynamics", "Generator.action", "dynamics.action", _action_kernel),
    ("magsqueeze.dynamics", "Generator.liouvillian", "dynamics.liouvillian", _matrix_bytes),
    ("magsqueeze.dynamics", "integrate_ode", "numerics.integrate_ode", None),
    ("magsqueeze.dynamics", "eig_smallest", "numerics.eig_smallest", None),
    ("magsqueeze.bath", "quad_adaptive", "numerics.quad_adaptive", _quad_evaluations),
    ("magsqueeze.couplings", "gauss_legendre_panels", "numerics.gauss_legendre_panels",
     _panel_nodes),
    ("magsqueeze.cli", "bessel_j0", "numerics.bessel", _bessel_points),
    ("magsqueeze.cli", "bessel_y0", "numerics.bessel", _bessel_points),
    ("magsqueeze.couplings", "bessel_j0", "numerics.bessel", _bessel_points),
    ("magsqueeze.couplings", "bessel_y0", "numerics.bessel", _bessel_points),
    ("magsqueeze.bath", "bessel_j0", "numerics.bessel", _bessel_points),
    ("magsqueeze.cli", "wineland_xi2", "observables.wineland_xi2", None),
    ("magsqueeze.cli", "initial_state", "observables.initial_state", None),
    ("magsqueeze.observables", "perpendicular_covariance",
     "observables.perpendicular_covariance", None),
    ("magsqueeze.observables", "collective_spin_ops", "operators.collective_spin_ops", None),
    ("magsqueeze.dynamics", "site_lower", "operators.site_lower", None),
    ("magsqueeze.dynamics", "site_raise", "operators.site_raise", None),
)


def _owner(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def installed_wrappers():
    """Names of the sites that currently hold a benchmark wrapper."""
    return [
        f"{module}.{path}"
        for module, path, _, _ in SITES
        if hasattr(getattr(*_owner(module, path)), MARK)
    ]


class Tracer:
    """Records nested spans around the package functions listed in SITES.

    Single-threaded by contract: the benchmark runs the sweep with
    ``--threads 1``, and a span opened from another thread raises instead of
    corrupting the parent stack.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent index or -1]
        self.extras = []       # per-span counter dicts (or None)
        self._stack = []
        self._thread = threading.get_ident()
        self._installed = []

    def install(self):
        for module, path, name, extra in SITES:
            owner, attr = _owner(module, path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, extra))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, extra):
        spans, extras, stack = self.spans, self.extras, self._stack
        thread = self._thread

        def wrapper(*args, **kwargs):
            if threading.get_ident() != thread:
                raise RuntimeError(f"span {name} opened outside the traced thread")
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            extras.append(None)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                extras[index] = extra(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def records(self):
        """Spans as JSON-ready rows: name, start, end, parent, run id."""
        return [
            [name, start, end, parent, self.run_id]
            for name, start, end, parent in self.spans
        ]


def check_nesting(spans):
    """Problems with the span tree: every child lies inside its parent and
    siblings do not overlap.  Returns a list of messages (empty when sound)."""
    problems = []
    last_child_end = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} {name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _ = spans[parent]
            if parent >= index or start < p_start or end > p_end:
                problems.append(f"span {index} {name} is not inside its parent {p_name}")
        if start < last_child_end.get(parent, float("-inf")):
            problems.append(f"span {index} {name} overlaps its previous sibling")
        last_child_end[parent] = end
    return problems


def summarize(spans, extras, pass_s):
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus the time its children cover.  The
    layer self times plus ``trace.unattributed_s`` (harness time outside any
    root span) add up to ``pass_s``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counters = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    roots = 0.0
    # dynamics.action calls, split by the span that made them
    action = {kind: defaultdict(float) for kind in ("integrate", "observe", "other")}
    evolve_integrate = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        calls[name] += 1
        total[name] += duration
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            roots += duration
        parent_name = spans[parent][0] if parent >= 0 else ""
        extra = extras[index]
        if name == "dynamics.action":
            kind = {"numerics.integrate_ode": "integrate",
                    "dynamics.evolve": "observe"}.get(parent_name, "other")
            action[kind]["calls"] += 1
            action[kind]["s"] += duration
            for counter, value in extra.items():
                action[kind][counter] += value
        elif extra:
            for counter, value in extra.items():
                counters[f"{name}.{counter}"] += value
        if name == "numerics.integrate_ode" and parent_name == "dynamics.evolve":
            evolve_integrate += duration

    rhs = action["integrate"]
    n_rhs = rhs["calls"]

    def per_call(value):
        return value / n_rhs if n_rhs else 0.0

    metrics = {
        "dynamics.action.integrate_calls": int(n_rhs),
        "dynamics.action.ms_per_call": per_call(1e3 * rhs["s"]),
        "dynamics.action.gflops": rhs["flops"] / rhs["s"] / 1e9 if rhs["s"] > 0 else 0.0,
        "dynamics.action.observe_calls": int(action["observe"]["calls"]),
        "dynamics.action.matmuls_per_call": per_call(rhs["matmuls"]),
        "dynamics.action.flops_per_call": per_call(rhs["flops"]),
        "dynamics.action.bytes_per_call": per_call(rhs["bytes"]),
        "dynamics.evolve.observe_s": total["dynamics.evolve"] - evolve_integrate,
        "observables.perpendicular_covariance.calls":
            calls["observables.perpendicular_covariance"],
        "observables.perpendicular_covariance.s": total["observables.perpendicular_covariance"],
        "numerics.integrate_ode.self_s": self_s["numerics.integrate_ode"],
        "dynamics.liouvillian.s": total["dynamics.liouvillian"],
        "dynamics.liouvillian.bytes": counters["dynamics.liouvillian.bytes"],
        "numerics.eig_smallest.s": total["numerics.eig_smallest"],
        "dynamics.steady_state.self_s": self_s["dynamics.steady_state"],
        "observables.wineland_xi2.s": total["observables.wineland_xi2"],
        "couplings.coupling_oracle.calls": calls["couplings.coupling_oracle"],
        "couplings.coupling_oracle.s": total["couplings.coupling_oracle"],
        "bath.field_correlator.calls": calls["bath.field_correlator"],
        "bath.field_correlator.s": total["bath.field_correlator"],
        "numerics.quad_adaptive.evaluations": counters["numerics.quad_adaptive.evaluations"],
        "numerics.quad_adaptive.s": total["numerics.quad_adaptive"],
        "numerics.gauss_legendre_panels.nodes": counters["numerics.gauss_legendre_panels.nodes"],
        "numerics.gauss_legendre_panels.s": total["numerics.gauss_legendre_panels"],
        "numerics.bessel.points": counters["numerics.bessel.points"],
        "numerics.bessel.s": total["numerics.bessel"],
        "couplings.build_couplings.s": total["couplings.build_couplings"],
        "dynamics.build_generator.s": total["dynamics.build_generator"],
        "cli.write_csv.calls": calls["cli.write_csv"],
        "cli.write_csv.bytes": counters["cli.write_csv.bytes"],
        "cli.write_csv.s": total["cli.write_csv"],
        "trace.pass_s": pass_s,
        "trace.spans": len(spans),
        "trace.unattributed_s": pass_s - roots,
    }
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = value
    return metrics
