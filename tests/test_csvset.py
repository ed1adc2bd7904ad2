import importlib.util
import math
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csvset.py"


@pytest.fixture(scope="module")
def csvset():
    spec = importlib.util.spec_from_file_location("csvset", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_set(root, cell):
    """One CSV set: an unchanged table, and one whose cell [1, y] is `cell`."""
    (root / "run").mkdir(parents=True)
    (root / "run" / "same.csv").write_text("# note\nx,y\n1.0,2.0\n")
    rows = ["0.0,0.25", "1.0," + repr(cell), "2.0,-2.0"]
    (root / "run" / "table.csv").write_text("# note\nx,y\n" + "\n".join(rows) + "\n")


def test_diff_names_the_file_the_cell_and_the_move(csvset, tmp_path, capsys):
    write_set(tmp_path / "a", 0.5)
    write_set(tmp_path / "b", math.nextafter(0.5, 1.0))
    assert csvset.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "run/same.csv: byte-identical",
        "run/table.csv: moved",
        "    y: 1 of 3 cells moved, largest 1.1e-16 (5.6e-17 of the column scale 2) at row 1",
        "2 files, 1 not byte-identical",
    ]


def test_identical_sets_exit_0(csvset, tmp_path, capsys):
    write_set(tmp_path / "a", 0.5)
    write_set(tmp_path / "b", 0.5)
    assert csvset.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.endswith("2 files, 0 not byte-identical\n")


def test_a_file_on_one_side_only_is_named(csvset, tmp_path, capsys):
    write_set(tmp_path / "a", 0.5)
    write_set(tmp_path / "b", 0.5)
    (tmp_path / "b" / "run" / "table.csv").unlink()
    assert csvset.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert f"run/table.csv: only in {tmp_path / 'a'}" in capsys.readouterr().out


def test_bytes_that_differ_outside_the_cells_are_named(csvset, tmp_path, capsys):
    write_set(tmp_path / "a", 0.5)
    write_set(tmp_path / "b", 0.5)
    table = tmp_path / "b" / "run" / "table.csv"
    table.write_text(table.read_text().rstrip("\n"))  # no final newline
    assert csvset.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["run/table.csv: moved", "    bytes differ outside the cells",
                       "2 files, 1 not byte-identical"]


def test_the_set_holds_65_csvs(csvset):
    # 5 scenarios (custom writes 6 CSVs), custom at N = 5-7, 6 trajectory
    # draws and the steady-state grid
    per_run = {name: 6 if "custom" in argv else 1 for name, argv in csvset.RUNS.items()}
    assert sum(per_run.values()) == 65


def test_the_tiny_set_is_written_twice_byte_for_byte(csvset, tmp_path, capsys):
    # perfbench's tiny figure runs plus custom at its tiny N, written twice
    # in one process: no state (a reused buffer, a cache) leaks from one run
    # into the next
    from magsqueeze.cli import main

    workloads = csvset.workloads
    runs = {name: workloads.FIGURE_RUNS[name][0] for name in workloads.FIGURES["tiny"]}
    runs["custom_tiny"] = csvset.CUSTOM + ["--set", f"n_qubits={workloads.TRAJECTORY_N['tiny']}"]
    for copy in ("a", "b"):
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / copy / name)]) == 0
    assert csvset.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.endswith("14 files, 0 not byte-identical\n")


def test_run_exports_a_git_revision(csvset, tmp_path, monkeypatch):
    # a throwaway repository whose one commit holds a stand-in package that
    # writes one CSV; the working tree is changed after the commit, so the
    # CSV says which of the two ran
    repo = tmp_path / "repo"
    package = repo / "src" / "magsqueeze"
    package.mkdir(parents=True)
    main = package / "__main__.py"
    source = ("import os, sys\n"
              "out = sys.argv[sys.argv.index('--out') + 1]\n"
              "os.makedirs(out)\n"
              "open(os.path.join(out, 'table.csv'), 'w').write('x\\n{}\\n')\n")
    main.write_text(source.format("committed"))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stand-in"]):
        subprocess.run(git + args, check=True)
    main.write_text(source.format("uncommitted"))
    monkeypatch.setattr(csvset, "RUNS", {"tiny": ["--scenario", "custom"]})
    # the stand-in has no oracle: record where the tables would be written
    tables = []
    monkeypatch.setattr(csvset, "oracle_tables", lambda env, out: tables.append(out))
    monkeypatch.chdir(repo)
    csvset.run("HEAD", str(tmp_path / "out"))
    assert (tmp_path / "out" / "tiny" / "table.csv").read_text() == "x\ncommitted\n"
    assert (tmp_path / "out" / "provenance.txt").exists()
    assert tables == [str(tmp_path / "out" / "oracle")]


def test_the_oracle_grid_is_the_benchmarks(csvset):
    workloads = csvset.workloads
    grid = csvset.ORACLE_GRID
    assert grid["channels"] == ["J", "pm", "mp", "pp", "mm", "Jpp", "Jmm"]
    assert len(grid["rho"]) == sum(map(len, workloads.ORACLE_RHO)) == 24
    assert grid["r"] == list(workloads.ORACLE_R)
    assert grid["kinds"] == list(workloads.CORRELATOR_KINDS)
    assert len(grid["correlator_rho"]) * len(grid["tau"]) == 30


def test_oracle_tables_are_written_and_compared(csvset, tmp_path, monkeypatch, capsys):
    # a tiny grid, written twice by the tree's package: identical bytes; a
    # moved exchange value is named by its column
    import os

    import magsqueeze

    monkeypatch.setattr(csvset, "ORACLE_GRID", dict(
        csvset.ORACLE_GRID, rho=[1.25, 2.5], r=[0.0, 0.25], correlator_rho=[1.0], tau=[0.0]))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(magsqueeze.__file__)))
    for copy in ("a", "b"):
        csvset.oracle_tables(env, str(tmp_path / copy / "oracle"))
    couplings = (tmp_path / "b" / "oracle" / "couplings.csv").read_text().splitlines()
    assert couplings[0] == "rho,r,J,pm,mp,pp,mm,Jpp,Jmm"
    assert len(couplings) == 5
    correlators = (tmp_path / "b" / "oracle" / "correlators.csv").read_text().splitlines()
    assert correlators[0] == "rho,tau,-+,+-,--,++" and len(correlators) == 2
    assert csvset.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.endswith("2 files, 0 not byte-identical\n")

    cells = couplings[1].split(",")
    cells[2] = repr(math.nextafter(float(cells[2]), math.inf))
    couplings[1] = ",".join(cells)
    (tmp_path / "b" / "oracle" / "couplings.csv").write_text("\n".join(couplings) + "\n")
    assert csvset.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "oracle/couplings.csv: moved"
    assert out[2].startswith("    J: 1 of 4 cells moved, largest ")
    assert out[2].endswith(" at row 0")
