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

Exit codes: 0 success, 2 configuration error or a failed write, 3 numerical
failure, 4 state-invariant violation.  Every table is computed before the
first file is written, and every table is written before any earlier file
is replaced, so a failed write leaves an earlier run's files as they were.
"""

import argparse
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bath import bath_from_params
from .couplings import GAMMA_CHANNELS, build_couplings, closed_form_channels
from .dynamics import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    MAX_STEADY_QUBITS,
    build_generator,
    evolve,
    evolve_many,
    steady_state,
)
from .errors import (
    ConfigError,
    MagsqueezeError,
    StateInvariantError,
    UnstableSqueezingError,
)
# the traced benchmark run (perfbench/spans.py) wraps bessel_j0 and bessel_y0
from .numerics import MIN_ATOL, MIN_RTOL, bessel_j0, bessel_y0  # noqa: F401
from .observables import initial_state, wineland_xi2
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

TRAJECTORY_COLUMNS = (
    "Gamma0_t", "Sx", "Sy", "Sz", "min_perp_var", "inv_xi_R_squared",
    "relaxation_rate_per_qubit", "min_eig_rho", "trace_error", "herm_error",
)


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
        for name, floor in (("rtol", MIN_RTOL), ("atol", MIN_ATOL)):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= floor):
                raise ConfigError(f"{name} must be finite and >= {floor!r}, got {value!r}")
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


def run_fig2a(scenario, params, geometry):
    bathstate = bath_from_params(params)
    rho = np.linspace(0.05, 3.0, 296)
    _, channels = closed_form_channels(rho, params, bathstate)
    cols = ["rho_over_lambda"] + [f"{name}_Hz" for name in CHANNEL_NAMES]
    comments = [
        f"# squeezing r = {bathstate.r_kq!r}, N = {bathstate.N_kq!r}, "
        f"|M| = {abs(bathstate.M_kq)!r}"
    ]
    return [("fig2a_couplings.csv", comments, cols, zip(rho, *channels))]


FIG2B_SETS = (
    ("r0_a05_excited", 0.0, 0.5, "all_excited"),
    ("r025_a05_excited", 0.25, 0.5, "all_excited"),
    ("r025_a10_excited", 0.25, 1.0, "all_excited"),
    ("r025_a05_ground", 0.25, 0.5, "all_ground"),
)


def run_fig2b(scenario, params, geometry):
    trajs = evolve_many(
        [initial_state(init, 2) for *_, init in FIG2B_SETS],
        [_generator(params, 2, a, r) for _, r, a, _ in FIG2B_SETS], FIG2B_TGRID,
        rtol=scenario.rtol, atol=scenario.atol,
    )
    cols = ["Gamma0_t"] + [f"inv_xi2_{label}" for label, *_ in FIG2B_SETS]
    rows = zip(FIG2B_TGRID, *(traj.inv_xi2 for traj in trajs))
    return [("fig2b_squeezing.csv", [], cols, rows)]


def run_fig2c(scenario, params, geometry):
    sets = [(r, tag, a) for r in (0.0, 0.5, 1.0)
            for tag, a in (("corr", 0.4), ("uncorr", UNCORRELATED_A))]
    trajs = evolve_many(
        [initial_state("all_excited", 4)] * len(sets),
        [_generator(params, 4, a, r) for r, _, a in sets], FIG2C_TGRID,
        rtol=scenario.rtol, atol=scenario.atol,
    )
    cols = ["Gamma0_t"] + [f"rate_{tag}_r{r:g}" for r, tag, _ in sets]
    return [("fig2c_relaxation.csv", [], cols,
             zip(FIG2C_TGRID, *(traj.relaxation for traj in trajs)))]


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


def run_sweep(scenario, params, geometry):
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
        summary = wineland_xi2(state)
        xi2 = summary.xi_r_squared
        return (r, a, float(n), xi2, 1.0 / xi2, summary.mean_spin[2])

    workers = min(scenario.threads, len(grid), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(point, grid))
    else:
        rows = [point(g) for g in grid]
    cols = ["r", "a_over_lambda", "n_qubits", "xi_R_squared", "inv_xi_R_squared", "Sz_steady"]
    return [("sweep_steady_state.csv", [], cols, rows)]


def run_custom(scenario, params, geometry):
    bathstate = bath_from_params(params)
    coup = build_couplings(geometry, params, bathstate)
    gen = build_generator(coup)
    traj = evolve(
        initial_state("all_excited", geometry.n_qubits), gen, FIG2B_TGRID,
        rtol=scenario.rtol, atol=scenario.atol,
    )
    rows = zip(
        traj.t, *traj.mean_spin.T, traj.min_perp_var, traj.inv_xi2,
        traj.relaxation, traj.min_eig, traj.trace_err, traj.herm_err,
    )
    tables = [("custom_trajectory.csv", ["# columns: dimensionless (trajectory)"],
               TRAJECTORY_COLUMNS, rows)]
    # one table per channel, row/column indices = qubit indices
    n = coup.n_qubits
    cols = ["qubit"] + [f"q{j}_Hz" for j in range(n)]
    for name in CHANNEL_NAMES:
        mat = getattr(coup, name.lower())  # J is the field `j`
        tables.append((f"couplings_{name}.csv", [], cols,
                       [(float(i), *mat[i]) for i in range(n)]))
    return tables


_RUNNERS = {
    "fig2a_couplings": run_fig2a,
    "fig2b_squeezing": run_fig2b,
    "fig2c_relaxation": run_fig2c,
    "sweep": run_sweep,
    "custom": run_custom,
}


def run_scenario(scenario):
    """Execute a scenario; returns the list of files written.

    The runner computes every table before the first file is written.  Each
    table is then written atomically into a new staging directory inside the
    output directory, and only when all of them exist are they moved into
    place, so a failed write leaves the files of an earlier run as they
    were.  If a move fails, the files that THIS run already moved are
    removed.  The staging directory is removed either way, and an OSError
    becomes a ConfigError.
    """
    params, geometry = _load(scenario)
    try:
        os.makedirs(scenario.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {scenario.output_dir!r}: {exc}") from exc
    tables = _RUNNERS[scenario.name](scenario, params, geometry)
    provenance = _provenance(params, geometry, scenario)
    try:
        staging = tempfile.mkdtemp(prefix=".staging-", dir=scenario.output_dir)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {scenario.output_dir!r}: {exc}") from exc
    written = []
    try:
        staged = []
        for name, comments, columns, rows in tables:
            path = os.path.join(scenario.output_dir, name)
            staged.append(write_csv(os.path.join(staging, name), provenance + comments,
                                    columns, rows))
        for (name, *_), source in zip(tables, staged):
            path = os.path.join(scenario.output_dir, name)
            os.replace(source, path)
            written.append(path)
    except Exception as exc:
        for done in written:
            if os.path.exists(done):
                os.unlink(done)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
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
