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
    monkeypatch.chdir(repo)
    csvset.run("HEAD", str(tmp_path / "out"))
    assert (tmp_path / "out" / "tiny" / "table.csv").read_text() == "x\ncommitted\n"
    assert (tmp_path / "out" / "provenance.txt").exists()
