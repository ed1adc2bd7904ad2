"""Scenario runner: reproduces the reference numerical experiments and
parameter sweeps, emitting deterministic CSV files.

Scenarios
---------
fig2a_couplings   coupling channels vs separation rho/lambda in [0.05, 3]
fig2b_squeezing   1/xi_R^2(Gamma_0 t) for the four reference parameter sets
fig2c_relaxation  collective relaxation rate, correlated vs uncorrelated,
                  r in {0, 0.5, 1}
sweep             steady-state squeezing over a (r, a/lambda, N) grid
custom            single trajectory for the configured parameters, plus the
                  coupling matrices (one CSV per channel)

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 state-invariant violation.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bath import bath_from_params
from .couplings import GAMMA_CHANNELS, build_couplings, closed_form_channels
from .dynamics import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    MAX_QUBITS,
    MAX_STEADY_QUBITS,
    build_generator,
    evolve,
    steady_state,
)
from .errors import (
    ConfigError,
    MagsqueezeError,
    MeanSpinUndefinedError,
    StateInvariantError,
    UnstableSqueezingError,
)
# the traced benchmark run (perfbench/spans.py) wraps these names
from .numerics import bessel_j0, bessel_y0  # noqa: F401
from .observables import collective_spin, initial_state, wineland_xi2
from .params import (
    ArrayGeometry, apply_overrides, config_from_values, load_config, serialize_config,
)

SCENARIOS = ("fig2a_couplings", "fig2b_squeezing", "fig2c_relaxation", "sweep", "custom")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

# time grids resolving the superradiant burst and reaching the steady plateau
FIG2B_TGRID = np.linspace(0.0, 20.0, 400)
FIG2C_TGRID = np.linspace(0.0, 5.0, 500)

SWEEP_R_DEFAULT = (0.0, 0.25, 0.5)
SWEEP_A_DEFAULT = (0.5, 1.0, 2.0)
SWEEP_N_DEFAULT = (2, 3, 4)
SWEEP_AXES = {"sweep_r": SWEEP_R_DEFAULT, "sweep_a": SWEEP_A_DEFAULT, "sweep_n": SWEEP_N_DEFAULT}

UNCORRELATED_A = 1000.0  # far-separation reference layout

# the CouplingSet channels in field order, as CSV file and column names
CHANNEL_NAMES = ("J",) + tuple(f"gamma_{c}" for c in GAMMA_CHANNELS)


@dataclass
class Scenario:
    """A named run with parameter overrides and an output directory."""

    name: str
    overrides: list = field(default_factory=list)
    output_dir: str = "."
    config_path: str = None
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    threads: int = 1

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.name!r}")
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads!r}")


def _fmt(x):
    if isinstance(x, complex):
        return f"{x.real:.12e}{x.imag:+.12e}j"
    return f"{x:.12e}"


def _provenance(params, geometry, scenario):
    lines = [
        f"# magsqueeze {__version__}",
        f"# scenario: {scenario.name}",
        f"# rtol: {scenario.rtol!r}  atol: {scenario.atol!r}",
        f"# geometry: {geometry.n_qubits} qubits, digest {geometry.digest()}",
    ]
    for cfg_line in serialize_config(params, geometry).strip().splitlines():
        lines.append(f"# {cfg_line}")
    return lines


def write_csv(path, header_comments, columns, rows):
    """Write a CSV with '#' provenance comments and a named header row.

    The file is written atomically (temp file + rename) so failures never
    leave a partial CSV behind; on failure the temp file is removed too.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in header_comments:
                fh.write(line + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_trajectory_csv(path, traj, header_comments):
    cols = [
        "Gamma0_t", "Sx", "Sy", "Sz", "min_perp_var", "inv_xi_R_squared",
        "relaxation_rate_per_qubit", "min_eig_rho", "trace_error", "herm_error",
    ]
    comments = header_comments + ["# columns: dimensionless (trajectory)"]
    rows = zip(
        traj.t, *traj.mean_spin.T, traj.min_perp_var, traj.inv_xi2,
        traj.relaxation, traj.min_eig, traj.trace_err, traj.herm_err,
    )
    return write_csv(path, comments, cols, rows)


def write_coupling_csvs(out_dir, couplings, header_comments):
    """One CSV per channel, row/column indices = qubit indices."""
    written = []
    n = couplings.n_qubits
    for name in CHANNEL_NAMES:
        mat = getattr(couplings, name.lower())  # J is the field `j`
        path = os.path.join(out_dir, f"couplings_{name}.csv")
        cols = ["qubit"] + [f"q{j}_Hz" for j in range(n)]
        rows = [tuple([float(i)] + list(mat[i])) for i in range(n)]
        written.append(write_csv(path, header_comments, cols, rows))
    return written


def _load(scenario):
    if scenario.config_path is not None:
        params, geometry = load_config(scenario.config_path)
    else:
        params, geometry = config_from_values({})
    overrides = scenario.overrides
    if scenario.name == "sweep":
        # the axes are parsed by run_sweep
        overrides = [item for item in overrides if _override_key(item) not in SWEEP_AXES]
    if overrides:
        params, geometry = apply_overrides(params, geometry, overrides)
    return params, geometry


def _generator(params, n, a_over_lambda, r):
    bathstate = bath_from_params(params, r_override=r)
    geometry = ArrayGeometry.chain(n, a_over_lambda)
    return build_generator(build_couplings(geometry, params, bathstate))


def run_fig2a(scenario, params, geometry, written):
    bathstate = bath_from_params(params)
    rho = np.linspace(0.05, 3.0, 296)
    _, channels = closed_form_channels(rho, params, bathstate)
    rows = list(zip(rho, *channels))
    cols = ["rho_over_lambda"] + [f"{name}_Hz" for name in CHANNEL_NAMES]
    comments = _provenance(params, geometry, scenario) + [
        f"# squeezing r = {bathstate.r_kq!r}, N = {bathstate.N_kq!r}, "
        f"|M| = {abs(bathstate.M_kq)!r}"
    ]
    path = os.path.join(scenario.output_dir, "fig2a_couplings.csv")
    written.append(write_csv(path, comments, cols, rows))


FIG2B_SETS = (
    ("r0_a05_excited", 0.0, 0.5, "all_excited"),
    ("r025_a05_excited", 0.25, 0.5, "all_excited"),
    ("r025_a10_excited", 0.25, 1.0, "all_excited"),
    ("r025_a05_ground", 0.25, 0.5, "all_ground"),
)


def run_fig2b(scenario, params, geometry, written):
    curves = {}
    for label, r, a, init in FIG2B_SETS:
        gen = _generator(params, 2, a, r)
        traj = evolve(
            initial_state(init, 2), gen, FIG2B_TGRID,
            rtol=scenario.rtol, atol=scenario.atol,
        )
        curves[label] = traj.inv_xi2
    cols = ["Gamma0_t"] + [f"inv_xi2_{label}" for label, *_ in FIG2B_SETS]
    rows = zip(FIG2B_TGRID, *(curves[label] for label, *_ in FIG2B_SETS))
    comments = _provenance(params, geometry, scenario)
    path = os.path.join(scenario.output_dir, "fig2b_squeezing.csv")
    written.append(write_csv(path, comments, cols, rows))


def run_fig2c(scenario, params, geometry, written):
    labels = []
    curves = []
    for r in (0.0, 0.5, 1.0):
        for tag, a in (("corr", 0.4), ("uncorr", UNCORRELATED_A)):
            gen = _generator(params, 4, a, r)
            traj = evolve(
                initial_state("all_excited", 4), gen, FIG2C_TGRID,
                rtol=scenario.rtol, atol=scenario.atol,
            )
            labels.append(f"rate_{tag}_r{r:g}")
            curves.append(traj.relaxation)
    cols = ["Gamma0_t"] + labels
    rows = zip(FIG2C_TGRID, *curves)
    comments = _provenance(params, geometry, scenario)
    path = os.path.join(scenario.output_dir, "fig2c_relaxation.csv")
    written.append(write_csv(path, comments, cols, rows))


def _override_key(item):
    return item.partition("=")[0].strip()


def _sweep_axes(overrides):
    """The sweep_r/sweep_a/sweep_n axes (comma lists) set by the overrides,
    each defaulting to its SWEEP_AXES value."""
    axes = dict(SWEEP_AXES)
    for item in overrides:
        key = _override_key(item)
        if key in axes:
            raw = item.partition("=")[2]
            cast = int if key == "sweep_n" else float
            try:
                axes[key] = tuple(cast(tok) for tok in raw.split(",") if tok.strip())
            except ValueError as exc:
                raise ConfigError(f"bad sweep axis {item!r}") from exc
            if not axes[key]:
                raise ConfigError(f"empty sweep axis {item!r}")
    return axes["sweep_r"], axes["sweep_a"], axes["sweep_n"]


def run_sweep(scenario, params, geometry, written):
    r_axis, a_axis, n_axis = _sweep_axes(scenario.overrides)
    if not all(1 <= n <= MAX_STEADY_QUBITS for n in n_axis):
        raise ConfigError(f"sweep_n values must be between 1 and {MAX_STEADY_QUBITS}")
    # every bath and chain is built, and so every axis value checked, before
    # the first steady state
    baths = [(r, bath_from_params(params, r_override=r)) for r in r_axis]
    chains = [(a, n, ArrayGeometry.chain(n, a)) for a in a_axis for n in n_axis]
    grid = [(r, bath, a, n, chain) for r, bath in baths for a, n, chain in chains]

    def point(args):
        r, bath, a, n, chain = args
        state = steady_state(build_generator(build_couplings(chain, params, bath)))
        try:
            xi2 = wineland_xi2(state).xi_r_squared
        except MeanSpinUndefinedError:
            xi2 = np.inf
        sz = float(collective_spin(state)[2])
        return (r, a, float(n), xi2, 1.0 / xi2 if np.isfinite(xi2) else 0.0, sz)

    workers = min(scenario.threads, len(grid), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(point, grid))
    else:
        rows = [point(g) for g in grid]
    cols = ["r", "a_over_lambda", "n_qubits", "xi_R_squared", "inv_xi_R_squared", "Sz_steady"]
    comments = _provenance(params, geometry, scenario)
    path = os.path.join(scenario.output_dir, "sweep_steady_state.csv")
    written.append(write_csv(path, comments, cols, rows))


def run_custom(scenario, params, geometry, written):
    if geometry.n_qubits > MAX_QUBITS:
        raise ConfigError(f"n_qubits must be at most {MAX_QUBITS}")
    bathstate = bath_from_params(params)
    coup = build_couplings(geometry, params, bathstate)
    gen = build_generator(coup)
    traj = evolve(
        initial_state("all_excited", geometry.n_qubits), gen, FIG2B_TGRID,
        rtol=scenario.rtol, atol=scenario.atol,
    )
    comments = _provenance(params, geometry, scenario)
    written.append(
        write_trajectory_csv(
            os.path.join(scenario.output_dir, "custom_trajectory.csv"),
            traj, comments,
        )
    )
    written.extend(write_coupling_csvs(scenario.output_dir, coup, comments))


_RUNNERS = {
    "fig2a_couplings": run_fig2a,
    "fig2b_squeezing": run_fig2b,
    "fig2c_relaxation": run_fig2c,
    "sweep": run_sweep,
    "custom": run_custom,
}


def run_scenario(scenario):
    """Execute a scenario; returns the list of files written.

    Output is atomic per file; on failure, files already moved into place
    from THIS run are removed so the directory never holds partial results.
    """
    params, geometry = _load(scenario)
    os.makedirs(scenario.output_dir, exist_ok=True)
    written = []
    try:
        _RUNNERS[scenario.name](scenario, params, geometry, written)
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        raise
    return written


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magsqueeze",
        description="Dissipative spin-squeezing simulator for qubit arrays "
        "coupled to a squeezed magnon reservoir.",
    )
    parser.add_argument("--scenario", required=True, choices=SCENARIOS)
    parser.add_argument("--config", default=None, help="plain-text key=value config file")
    parser.add_argument("--out", default=".", help="output directory for CSV files")
    parser.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    parser.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a config key (repeatable)",
    )
    parser.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = Scenario(
            name=args.scenario,
            overrides=args.overrides,
            output_dir=args.out,
            config_path=args.config,
            rtol=args.rtol,
            atol=args.atol,
            threads=args.threads,
        )
        written = run_scenario(scenario)
    except (ConfigError, UnstableSqueezingError) as exc:
        print(f"magsqueeze: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StateInvariantError as exc:
        print(f"magsqueeze: invariant violation in {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (MagsqueezeError, np.linalg.LinAlgError) as exc:
        print(f"magsqueeze: numerical failure in {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in written:
        print(path)
    return EXIT_OK
