"""The four benchmark workloads: inputs drawn from a seed, the operations of
one pass, and the checks of every output against the committed reference.

Seeded inputs are drawn from small fixed tables, so that every input a seed
can produce has a reference value recorded at the commit that defined the
benchmark (see ``make_reference.py``).  The tables are narrow on purpose: the
pass cost of a workload must not depend much on the seed, or seed-to-seed
variation would hide the change a later commit makes.

Every operation calls the package through a module attribute looked up at
call time (``cli.main``, ``couplings.coupling_oracle``, ...), so the traced
run sees the wrappers it installs there.
"""

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

from checks import compare_table, compare_value, read_csv

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("figures", "trajectory_n6", "steady_sweep", "oracle_check")
SIZES = ("full", "tiny")

CUSTOM_FILES = ("custom_trajectory.csv",) + tuple(
    f"couplings_{name}.csv" for name in ("J", "gamma_mp", "gamma_pm", "gamma_pp", "gamma_mm")
)

# figures: the paper's fixed grids, through the CLI; the seed is unused
FIGURE_RUNS = {
    "fig2a_couplings": (["--scenario", "fig2a_couplings"], ("fig2a_couplings.csv",)),
    "fig2b_squeezing": (["--scenario", "fig2b_squeezing"], ("fig2b_squeezing.csv",)),
    "fig2c_relaxation": (["--scenario", "fig2c_relaxation"], ("fig2c_relaxation.csv",)),
    "custom": (["--scenario", "custom"], CUSTOM_FILES),
    "sweep": (["--scenario", "sweep", "--threads", "1"], ("sweep_steady_state.csv",)),
    "sweep_tiny": (
        ["--scenario", "sweep", "--threads", "1", "--set", "sweep_r=0,0.25",
         "--set", "sweep_a=0.5", "--set", "sweep_n=2"],
        ("sweep_steady_state.csv",),
    ),
}
FIGURES = {
    "full": ("fig2a_couplings", "fig2b_squeezing", "fig2c_relaxation", "custom", "sweep"),
    "tiny": ("fig2a_couplings", "custom", "sweep_tiny"),
}

# trajectory_n6: (a/lambda, strain) pairs near the defaults (0.5, 1e-4) on
# which the integrator's right-hand-side count at N=6 stays within 1076-1100
TRAJECTORY_DRAWS = (
    (0.48, 9.5e-05), (0.5, 9.5e-05), (0.5, 0.0001), (0.52, 0.0001), (0.52, 0.000105),
    (0.54, 0.000105),
)
TRAJECTORY_N = {"full": 6, "tiny": 3}

# steady_sweep: one r and two a/lambda values per seed
STEADY_R = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
STEADY_A = (0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0)
STEADY_N = {"full": (4, 5), "tiny": (2, 3)}

# oracle_check: one separation (units of lambda) from each stratum.  The
# exchange oracle costs about 1/rho below rho = 1, so the first stratum is
# narrow; it sets most of the pass time.
ORACLE_R = (0.0, 0.25, 1.0)
ORACLE_RHO = (
    (0.2, 0.205, 0.21, 0.215, 0.22),
    (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0),
    (1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0),
)
ORACLE_CHANNELS = ("J", "pm", "mp", "pp", "mm", "Jpp", "Jmm")
# field correlators: one separation and one lag within 2% of 1 ns.  The cost
# and the array sizes of the broadband vacuum term grow with the lag (its
# panel count is proportional to it) and saturate from about 5 ns on, with 3
# million nodes (about 290 MB) per call; at 1 ns a call takes about 0.35 s
# and its arrays fit in a 105 MB L3.  The band is narrow because the peak
# RSS follows the lag (100 MB at 0.9 ns, 113 MB at 1.1 ns).
CORRELATOR_RHO = (0.5, 0.75, 1.0, 1.5, 2.0)
CORRELATOR_TAU = (9.8e-10, 9.9e-10, 1e-09, 1.01e-09, 1.02e-09)
CORRELATOR_KINDS = ("-+", "+-", "--", "++")


@dataclass
class Operation:
    """One closed-loop operation.  ``run(tmp_dir)`` calls the package,
    checks the output and returns ``(problems, info)``; ``problems`` is
    empty when the output is correct."""

    label: str
    run: Callable


@dataclass
class Prepared:
    inputs: dict
    operations: list
    info: dict = field(default_factory=dict)


def import_package(root):
    """Import ``magsqueeze`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import magsqueeze

    where = os.path.dirname(os.path.abspath(magsqueeze.__file__))
    if where != os.path.join(os.path.abspath(src), "magsqueeze"):
        raise ImportError(f"magsqueeze imported from {where}, not from {src}")
    import magsqueeze.cli  # noqa: F401  (the submodules the workloads call)


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def trajectory_key(n, a, s):
    return f"n{n}_a{a!r}_s{s!r}"


def steady_key(r, a, n):
    return f"r{r!r}_a{a!r}_n{n}"


def oracle_key(channel, rho, r):
    return f"{channel}_rho{rho!r}_r{r!r}"


def correlator_key(kind, rho, tau):
    return f"{kind}_rho{rho!r}_tau{tau!r}"


# ---------------------------------------------------------------------------
# Seeded draws (pure functions of the seed)
# ---------------------------------------------------------------------------


def draw(workload, seed, size):
    rng = random.Random(seed)
    if workload == "figures":
        return {"runs": list(FIGURES[size])}
    if workload == "trajectory_n6":
        a, strain = rng.choice(TRAJECTORY_DRAWS)
        return {"n_qubits": TRAJECTORY_N[size], "a_over_lambda": a, "strain_Exy": strain}
    if workload == "steady_sweep":
        return {
            "r": [rng.choice(STEADY_R)],
            "a_over_lambda": sorted(rng.sample(STEADY_A, 2)),
            "n_qubits": list(STEADY_N[size]),
        }
    if workload == "oracle_check":
        rhos = [rng.choice(stratum) for stratum in ORACLE_RHO]
        rho_c = rng.choice(CORRELATOR_RHO)
        tau = rng.choice(CORRELATOR_TAU)
        if size == "tiny":
            return {"rho": rhos[-1:], "r": [0.25], "correlator_rho": rho_c, "tau": [0.0]}
        return {"rho": rhos, "r": list(ORACLE_R), "correlator_rho": rho_c, "tau": [0.0, tau]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _cli_op(label, argv, check):
    """Operation running ``cli.main(argv + --out tmp)`` then ``check(tmp)``."""
    from magsqueeze import cli

    def run(tmp):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", tmp])
        if code != 0:
            return [f"{label}: exit code {code}"], {}
        return check(tmp)

    return Operation(label, run)


def _tables_check(refs, files):
    def check(tmp):
        problems, identical = [], {}
        for name in files:
            found, same = compare_table(os.path.join(tmp, name), refs[name])
            problems += found
            identical[name] = same
        return problems, {"byte_identical": identical}

    return check


def _figures(inputs, ref):
    return [
        _cli_op(run, FIGURE_RUNS[run][0], _tables_check(ref[run], FIGURE_RUNS[run][1]))
        for run in inputs["runs"]
    ]


def _trajectory(inputs, ref):
    n, a, s = inputs["n_qubits"], inputs["a_over_lambda"], inputs["strain_Exy"]
    entry = ref[trajectory_key(n, a, s)]
    info = {"reference_integrate_calls": entry["integrate_calls"]}
    check = _tables_check(entry["files"], CUSTOM_FILES)
    return [_cli_op("custom", trajectory_argv(n, a, s), check)], info


def trajectory_argv(n, a, s):
    return ["--scenario", "custom", "--set", f"n_qubits={n}",
            "--set", f"a_over_lambda={a!r}", "--set", f"strain_Exy={s!r}"]


def steady_argv(rs, as_, ns):
    return [
        "--scenario", "sweep", "--threads", "1",
        "--set", "sweep_r=" + ",".join(repr(r) for r in rs),
        "--set", "sweep_a=" + ",".join(repr(a) for a in as_),
        "--set", "sweep_n=" + ",".join(str(n) for n in ns),
    ]


def _steady(inputs, ref):
    rs, as_, ns = inputs["r"], inputs["a_over_lambda"], inputs["n_qubits"]
    points = [(r, a, n) for r in rs for a in as_ for n in ns]  # CSV row order
    wanted = [ref[steady_key(r, a, n)] for r, a, n in points]

    def check(tmp):
        path = os.path.join(tmp, "sweep_steady_state.csv")
        _, rows, _ = read_csv(path)
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")][1:]
        if len(rows) != len(points):
            return [f"sweep: {len(rows)} rows, want {len(points)}"], {}
        problems = []
        for (r, a, n), got, want in zip(points, rows, wanted):
            for col, (g, w) in enumerate(zip(got, want["values"])):
                problems += compare_value(f"sweep r={r} a={a} n={n} col {col}", g, w, abs(w))
        same = lines == [w["row"] for w in wanted]
        return problems, {"byte_identical": {"sweep_steady_state.csv": same}}

    return [_cli_op("sweep", steady_argv(rs, as_, ns), check)]


def closed_forms(couplings, rho, params, bath):
    """Criterion-4 closed-form values of the five coupling channels at rho,
    read off a two-qubit chain with that separation, and gamma0."""
    from magsqueeze.params import ArrayGeometry

    cs = couplings.build_couplings(ArrayGeometry.chain(2, rho), params, bath)
    return cs.gamma0, {
        "J": cs.j[0, 1], "mp": cs.gamma_mp[0, 1], "pm": cs.gamma_pm[0, 1],
        "pp": cs.gamma_pp[0, 1], "mm": cs.gamma_mm[0, 1],
    }


def _oracle(inputs, ref):
    from magsqueeze import bath as bath_mod
    from magsqueeze import couplings
    from magsqueeze.params import PhysicalParams

    params = PhysicalParams()
    ops = []
    for r in inputs["r"]:
        bath = bath_mod.bath_from_params(params, r_override=r)
        for rho in inputs["rho"]:
            for channel in ORACLE_CHANNELS:
                want = ref["oracle"][oracle_key(channel, rho, r)]
                ops.append(_oracle_op(couplings, channel, rho, r, params, bath, want))
    bath = bath_mod.bath_from_params(params)
    rho = inputs["correlator_rho"]
    for tau in inputs["tau"]:
        wants = {kind: ref["correlator"][correlator_key(kind, rho, tau)]
                 for kind in CORRELATOR_KINDS}
        scale = max(abs(complex(*v)) for v in wants.values())
        for kind in CORRELATOR_KINDS:
            ops.append(_correlator_op(bath_mod, kind, rho, tau, params, bath,
                                      wants[kind], scale))
    return ops


def _oracle_op(couplings, channel, rho, r, params, bath, want):
    label = f"oracle {channel} rho={rho} r={r}"

    def run(_tmp):
        got = couplings.coupling_oracle(channel, rho, params, bath)
        g0, forms = closed_forms(couplings, rho, params, bath)
        problems = compare_value(label + " vs reference", got, want, g0)
        if channel in forms:
            form = forms[channel]
            if abs(got - form) > max(0.01 * abs(form), 1e-3 * g0):
                problems.append(f"{label}: {got!r} differs from the closed form {form!r}")
        elif abs(got) >= 1e-3 * g0:
            problems.append(f"{label}: pair exchange {got!r} is not zero")
        return problems, {}

    return Operation(label, run)


def _correlator_op(bath_mod, kind, rho, tau, params, bath, want, scale):
    label = f"correlator {kind} rho={rho} tau={tau}"

    def run(_tmp):
        got = bath_mod.field_correlator(kind, rho * bath.lam, tau, 0.0, params, bath)
        return compare_value(label, got, want, scale), {}

    return Operation(label, run)


def prepare(workload, seed, size):
    """Inputs, operations and information of one pass; call after
    ``import_package``.  Loads the reference and builds every input object,
    which is part of the set-up time."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    inputs = draw(workload, seed, size)
    ref = load_reference(workload)
    info = {}
    if workload == "figures":
        ops = _figures(inputs, ref)
    elif workload == "trajectory_n6":
        ops, info = _trajectory(inputs, ref)
    elif workload == "steady_sweep":
        ops = _steady(inputs, ref)
    else:
        ops = _oracle(inputs, ref)
    return Prepared(inputs=inputs, operations=ops, info=info)
