"""Record the reference outputs of every input the seeded draws can produce.

Run from the repository root, e.g.::

    python3 perfbench/make_reference.py figures oracle_check

It writes ``perfbench/reference/<workload>.json``.  The references are the
outputs of the commit that defined the benchmark; rerun this only when a
change of the numbers is intended and explained.  BLAS runs on one thread,
as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import workloads as wl  # noqa: E402
from run import OUT_DIR  # noqa: E402
from checks import as_pair, read_csv, table_reference  # noqa: E402


def run_cli(argv, tmp):
    from magsqueeze import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", tmp])
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")


def figures(tmp):
    out = {}
    for run, (argv, files) in wl.FIGURE_RUNS.items():
        run_cli(argv, tmp)
        out[run] = {name: table_reference(os.path.join(tmp, name)) for name in files}
    return out


def trajectory(tmp):
    from spans import Tracer, summarize

    out = {}
    for n in sorted(set(wl.TRAJECTORY_N.values())):
        for a, s in wl.TRAJECTORY_DRAWS:
            tracer = Tracer("reference")
            tracer.install()
            try:
                run_cli(wl.trajectory_argv(n, a, s), tmp)
            finally:
                tracer.uninstall()
            counts = summarize(tracer.spans, tracer.extras, 0.0)
            out[wl.trajectory_key(n, a, s)] = {
                "integrate_calls": counts["dynamics.action.integrate_calls"],
                "files": {
                    name: table_reference(os.path.join(tmp, name), keep=25)
                    for name in wl.CUSTOM_FILES
                },
            }
            print(n, a, s, counts["dynamics.action.integrate_calls"], flush=True)
    return out


def steady(tmp):
    ns = sorted({n for pair in wl.STEADY_N.values() for n in pair})
    out = {}
    for r in wl.STEADY_R:
        for a in wl.STEADY_A:
            run_cli(wl.steady_argv([r], [a], ns), tmp)
            path = os.path.join(tmp, "sweep_steady_state.csv")
            _, rows, _ = read_csv(path)
            with open(path, encoding="utf-8") as fh:
                lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")][1:]
            for n, values, line in zip(ns, rows, lines):
                out[wl.steady_key(r, a, n)] = {"values": values, "row": line}
            print(r, a, flush=True)
    return out


def oracle(_tmp):
    from magsqueeze import bath as bath_mod
    from magsqueeze import couplings
    from magsqueeze.params import PhysicalParams

    params = PhysicalParams()
    out = {"oracle": {}, "correlator": {}}
    for r in wl.ORACLE_R:
        bath = bath_mod.bath_from_params(params, r_override=r)
        for stratum in wl.ORACLE_RHO:
            for rho in stratum:
                for channel in wl.ORACLE_CHANNELS:
                    value = couplings.coupling_oracle(channel, rho, params, bath)
                    out["oracle"][wl.oracle_key(channel, rho, r)] = as_pair(value)
        print("oracle r", r, flush=True)
    bath = bath_mod.bath_from_params(params)
    for rho in wl.CORRELATOR_RHO:
        for tau in (0.0,) + wl.CORRELATOR_TAU:
            for kind in wl.CORRELATOR_KINDS:
                value = bath_mod.field_correlator(kind, rho * bath.lam, tau, 0.0, params, bath)
                out["correlator"][wl.correlator_key(kind, rho, tau)] = as_pair(value)
        print("correlator rho", rho, flush=True)
    return out


MAKERS = {
    "figures": figures,
    "trajectory_n6": trajectory,
    "steady_sweep": steady,
    "oracle_check": oracle,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(MAKERS), choices=list(MAKERS))
    args = parser.parse_args()
    wl.import_package(os.getcwd())
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for name in args.workloads:
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR)
        try:
            data = MAKERS[name](tmp)
        finally:
            shutil.rmtree(tmp)
        path = os.path.join(wl.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=None, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print("wrote", path, flush=True)


if __name__ == "__main__":
    main()
