"""Write the CLI's reference set of CSVs from a source tree, and compare two sets.

    python3 tools/csvset.py run TREE OUT
    python3 tools/csvset.py diff A B

`run` runs `python3 -m magsqueeze` from `TREE/src` with one BLAS thread (the
`sweep` CSV is byte-identical only at a fixed thread count) and writes the 65
CSVs of RUNS, one directory per run, under OUT, plus `provenance.txt` (numpy
version, BLAS configuration, thread settings).  The runs are the benchmark's
inputs, read from `perfbench/workloads.py`, plus `custom` at N = 5-7.  It
also writes the oracle tables of ORACLE_GRID under OUT/oracle with
`tools/oracle_tables.py`, every value in full precision: `couplings.csv`, one
row per separation and squeezing strength of the benchmark's `oracle_check`
with a column per `coupling_oracle` channel, and `correlators.csv`, one row
per separation and lag (and lag 0) with a column per `field_correlator` kind.

`diff` compares the CSVs of two such directories.  Per file it prints whether
the bytes are identical; for a file that moved, the cells that moved in each
column and the largest move, absolute and relative to the column scale (the
largest magnitude of that column in A), with its data row: a bound on the
move of every value in that column.  A file whose bytes differ where no cell
moved (line endings, a final newline, line order) is reported as such.  It
exits 1 if any file differs or exists on one side only.

A TREE that is not a directory is taken as a git revision of the repository
in the working directory, exported with `git archive` into a temporary
directory for the run.  To compare a change with its parent, e.g.
`run HEAD~1 OUT_A`, `run . OUT_B`, then `diff OUT_A OUT_B`.  Only the standard
library is used.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402  (stdlib only)

CUSTOM = workloads.FIGURE_RUNS["custom"][0]
SWEEP = workloads.FIGURE_RUNS["sweep"][0]
TRAJECTORY_N = workloads.TRAJECTORY_N["full"]
RUNS = {
    **{name: workloads.FIGURE_RUNS[name][0] for name in workloads.FIGURES["full"]},
    **{f"custom_n{n}": CUSTOM + ["--set", f"n_qubits={n}"] for n in (5, 6, 7)},
    **{f"trajectory_n{TRAJECTORY_N}_a{a!r}_s{s!r}": CUSTOM + [
        "--set", f"n_qubits={TRAJECTORY_N}", "--set", f"a_over_lambda={a!r}",
        "--set", f"strain_Exy={s!r}"]
       for a, s in workloads.TRAJECTORY_DRAWS},
    # the benchmark's steady-state tables: every r x a/lambda x N
    "steady_sweep": SWEEP + [
        "--set", "sweep_r=" + ",".join(map(repr, workloads.STEADY_R)),
        "--set", "sweep_a=" + ",".join(map(repr, workloads.STEADY_A)),
        "--set", "sweep_n=" + ",".join(map(repr, workloads.STEADY_N["full"]))],
}
# the benchmark's oracle grid: every channel at every separation and squeezing
# strength that oracle_check can draw, and the four correlators at each of its
# separations and lags, and at lag 0
ORACLE_GRID = {
    "channels": list(workloads.ORACLE_CHANNELS),
    "rho": [rho for stratum in workloads.ORACLE_RHO for rho in stratum],
    "r": list(workloads.ORACLE_R),
    "kinds": list(workloads.CORRELATOR_KINDS),
    "correlator_rho": list(workloads.CORRELATOR_RHO),
    "tau": [0.0, *workloads.CORRELATOR_TAU],
}
ORACLE_TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_tables.py")
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
PROVENANCE = "import numpy, sys; print(sys.version); print(numpy.__version__); numpy.show_config()"


def run(tree, out):
    if not os.path.isdir(tree):
        with tempfile.TemporaryDirectory() as export:
            tar = subprocess.run(["git", "archive", "--format=tar", tree],
                                 stdout=subprocess.PIPE, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
                archive.extractall(export, filter="data")
            return run(export, out)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"), **THREADS)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "provenance.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{key}={value}\n" for key, value in sorted(THREADS.items())))
        fh.flush()
        subprocess.run([sys.executable, "-c", PROVENANCE], env=env, stdout=fh, check=True)
    for name in RUNS:
        target = os.path.join(out, name)
        print(f"{name} ...", flush=True)
        subprocess.run([sys.executable, "-m", "magsqueeze", *RUNS[name], "--out", target],
                       env=env, check=True)
    print("oracle ...", flush=True)
    oracle_tables(env, os.path.join(out, "oracle"))


def oracle_tables(env, out):
    """Write the oracle tables of ORACLE_GRID under `out`, in a process with
    environment `env` (its PYTHONPATH names the package)."""
    subprocess.run([sys.executable, ORACLE_TABLES, json.dumps(ORACLE_GRID), out],
                   env=env, check=True)


def csv_files(root):
    found = set()
    for folder, _, files in os.walk(root):
        found.update(os.path.relpath(os.path.join(folder, f), root)
                     for f in files if f.endswith(".csv"))
    return found


def table(text):
    """(comment lines, header cells, data rows of cells) of one CSV."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rest = [line.split(",") for line in lines if not line.startswith("#")]
    return comments, rest[0] if rest else [], rest[1:]


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return complex(cell)


def column_moves(header, rows_a, rows_b):
    """Per column that moved: (name, moved cells, largest move, its data row,
    the column scale in A)."""
    moves = []
    for j, name in enumerate(header):
        cells = [(i, a[j], b[j]) for i, (a, b) in enumerate(zip(rows_a, rows_b))]
        moved = [(abs(number(a) - number(b)), i) for i, a, b in cells if a != b]
        if moved:
            largest, row = max(moved)
            scale = max(abs(number(a)) for _, a, _ in cells)
            moves.append((name, len(moved), largest, row, scale))
    return moves


def compare(path_a, path_b):
    """Report lines for one file present in both sets; empty if identical."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        bytes_a, bytes_b = fa.read(), fb.read()
    if bytes_a == bytes_b:
        return []
    (notes_a, header, rows_a), (notes_b, header_b, rows_b) = (
        table(raw.decode("utf-8")) for raw in (bytes_a, bytes_b))
    shape_a = [len(row) for row in rows_a]
    if header != header_b or shape_a != [len(row) for row in rows_b]:
        return ["header or shape differs"]
    lines = [] if notes_a == notes_b else ["comment lines differ"]
    for name, count, largest, row, scale in column_moves(header, rows_a, rows_b):
        relative = f"{largest / scale:.2g} of the column scale {scale:.3g}" if scale else \
            "column scale 0"
        lines.append(f"{name}: {count} of {len(rows_a)} cells moved, largest {largest:.2g} "
                     f"({relative}) at row {row}")
    return lines or ["bytes differ outside the cells"]


def diff(root_a, root_b):
    files_a, files_b = csv_files(root_a), csv_files(root_b)
    changed = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print(f"{rel}: only in {root_a if rel in files_a else root_b}")
            changed += 1
            continue
        lines = compare(os.path.join(root_a, rel), os.path.join(root_b, rel))
        print(f"{rel}: " + ("byte-identical" if not lines else "moved"))
        for line in lines:
            print(f"    {line}")
        changed += bool(lines)
    print(f"{len(files_a | files_b)} files, {changed} not byte-identical")
    return int(changed > 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="write the CSV set of a source tree")
    run_parser.add_argument("tree", help="a source tree, or a git revision to export")
    run_parser.add_argument("out")
    diff_parser = commands.add_parser("diff", help="compare two CSV sets")
    diff_parser.add_argument("a")
    diff_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.tree, args.out)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
