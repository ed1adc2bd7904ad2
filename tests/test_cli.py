import concurrent.futures
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magsqueeze import errors
from magsqueeze.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    Scenario,
    main,
    run_scenario,
    write_csv,
)
from magsqueeze.errors import ConfigError
from magsqueeze.params import _PARAM_KEYS


def read_table(path):
    """Parse one of our CSVs back into (comments, columns, float matrix)."""
    comments, columns, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([complex(tok) for tok in line.split(",")])
    return comments, columns, np.array(rows)


class TestScenarioRuns:
    def test_fig2a(self, tmp_path):
        files = run_scenario(Scenario("fig2a_couplings", output_dir=str(tmp_path)))
        comments, cols, data = read_table(files[0])
        assert cols[0] == "rho_over_lambda"
        assert data[0, 0] == pytest.approx(0.05)
        assert data[-1, 0] == pytest.approx(3.0)
        # pair channels are conjugates
        assert np.allclose(data[:, 4], np.conj(data[:, 5]))
        assert any("scenario: fig2a_couplings" in c for c in comments)

    def test_fig2b_curves(self, tmp_path):
        files = run_scenario(Scenario("fig2b_squeezing", output_dir=str(tmp_path)))
        _, cols, data = read_table(files[0])
        t = data[:, 0].real
        assert t[0] == 0.0 and t[-1] == pytest.approx(20.0) and t.size == 400
        r0 = data[:, cols.index("inv_xi2_r0_a05_excited")].real
        g05 = data[:, cols.index("inv_xi2_r025_a05_excited")].real
        g10 = data[:, cols.index("inv_xi2_r025_a10_excited")].real
        gnd = data[:, cols.index("inv_xi2_r025_a05_ground")].real
        assert 0.99 <= r0[-1] <= 1.01
        assert g05[-1] > 1.05
        assert 1.0 < g10[-1] < g05[-1]
        assert np.all(gnd >= 1.0 - 1e-6)

    def test_fig2c_reference_decay(self, tmp_path):
        files = run_scenario(Scenario("fig2c_relaxation", output_dir=str(tmp_path)))
        _, cols, data = read_table(files[0])
        unc0 = data[:, cols.index("rate_uncorr_r0")].real
        t = data[:, 0].real
        assert unc0[0] == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(unc0, np.exp(-t), atol=2e-4)

    def test_sweep_single_qubit_never_squeezed(self, tmp_path):
        sc = Scenario(
            "sweep",
            overrides=["sweep_n=1", "sweep_r=0.0,0.25,0.5,1.0", "sweep_a=0.5"],
            output_dir=str(tmp_path),
        )
        _, cols, data = read_table(run_scenario(sc)[0])
        xi2 = data[:, cols.index("xi_R_squared")].real
        assert np.all(xi2 >= 1.0 - 1e-9)

    def test_sweep_parallel_matches_serial(self, tmp_path):
        a = run_scenario(Scenario("sweep", output_dir=str(tmp_path / "ser")))
        b = run_scenario(
            Scenario("sweep", output_dir=str(tmp_path / "par"), threads=4)
        )
        assert open(a[0], "rb").read() == open(b[0], "rb").read()

    def test_import_leaves_the_thread_pool_out(self):
        # concurrent.futures, and the logging it imports, load only when a
        # sweep runs on more than one thread
        import magsqueeze

        src = os.path.dirname(os.path.dirname(magsqueeze.__file__))
        code = ("import sys, magsqueeze.cli; "
                "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'logging'))))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True)
        assert run.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "threads,cpus,expected", [(64, 2, 2), (64, 8, 3), (2, 8, 2), (1, 8, None)]
    )
    def test_sweep_threads_clamped(self, tmp_path, monkeypatch, threads, cpus, expected):
        # a 1 x 1 x 3 grid: workers = min(threads, 3, cpus), serial below 2
        from magsqueeze import cli as cli_mod

        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus)
        sc = Scenario(
            "sweep",
            overrides=["sweep_n=1,2,3", "sweep_r=0.25", "sweep_a=0.5"],
            output_dir=str(tmp_path),
            threads=threads,
        )
        run_scenario(sc)
        assert pools == ([] if expected is None else [expected])

    def test_custom_writes_trajectory_and_channels(self, tmp_path):
        files = run_scenario(Scenario("custom", output_dir=str(tmp_path)))
        names = sorted(os.path.basename(f) for f in files)
        assert names == [
            "couplings_J.csv", "couplings_gamma_mm.csv", "couplings_gamma_mp.csv",
            "couplings_gamma_pm.csv", "couplings_gamma_pp.csv",
            "custom_trajectory.csv",
        ]
        _, cols, data = read_table(tmp_path / "couplings_J.csv")
        assert cols == ["qubit", "q0_Hz", "q1_Hz"]
        assert data[0, 1] == 0  # zero exchange diagonal

    def test_determinism_byte_identical(self, tmp_path):
        f1 = run_scenario(Scenario("fig2b_squeezing", output_dir=str(tmp_path / "a")))
        f2 = run_scenario(Scenario("fig2b_squeezing", output_dir=str(tmp_path / "b")))
        assert open(f1[0], "rb").read() == open(f2[0], "rb").read()

    def test_provenance_lists_parameters(self, tmp_path):
        files = run_scenario(Scenario("fig2a_couplings", output_dir=str(tmp_path)))
        comments, _, _ = read_table(files[0])
        joined = "\n".join(comments)
        for key in ("detuning_MHz", "nu_Hz", "n_qubits", "rtol"):
            assert key in joined

    def test_overrides_flow_through(self, tmp_path):
        files = run_scenario(
            Scenario("fig2a_couplings", overrides=["nu_Hz=150"], output_dir=str(tmp_path))
        )
        comments, _, data = read_table(files[0])
        assert any("nu_Hz = 150.0" in c for c in comments)
        base = run_scenario(Scenario("fig2a_couplings", output_dir=str(tmp_path / "ref")))
        _, _, ref = read_table(base[0])
        assert np.allclose(data[:, 1], 2 * ref[:, 1])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            Scenario("fig9_nonsense")

    def test_failed_write_leaves_no_file(self, tmp_path):
        def rows():
            yield (1.0, 2.0)
            raise OSError("disk gone")

        with pytest.raises(OSError, match="disk gone"):
            write_csv(str(tmp_path / "x.csv"), ["# c"], ["a", "b"], rows())
        assert list(tmp_path.iterdir()) == []


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["--scenario", "fig2a_couplings", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.endswith("fig2a_couplings.csv")

    def test_config_error_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        code = main(
            ["--scenario", "fig2a_couplings", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_config_error_bad_override(self, tmp_path, capsys):
        code = main(
            ["--scenario", "fig2a_couplings", "--set", "bogus=1", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_config_error_comment_in_override(self, tmp_path, capsys):
        # '#' starts a comment only in config files; in an override it is
        # part of the value
        code = main(
            ["--scenario", "fig2a_couplings", "--set", "detuning_MHz=400#x",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "bad value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("override", ["nu_Hz=inf", "strain_Exy=nan", "a_over_lambda=inf"])
    def test_config_error_nonfinite_value(self, tmp_path, capsys, override):
        code = main(
            ["--scenario", "custom", "--set", override, "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spacing, code", [("1e160", EXIT_CONFIG), ("1e300", EXIT_CONFIG),
                                               ("1e100", EXIT_OK)])
    def test_huge_spacing_fails_closed(self, tmp_path, capsys, spacing, code):
        # the squared separations of a chain overflow from about 1.3e154 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["--scenario", "custom", "--set", f"a_over_lambda={spacing}",
                        "--out", str(tmp_path)])
        assert got == code
        if code == EXIT_CONFIG:
            assert "separations" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_config_error_bad_sweep_squeezing(self, tmp_path, capsys, value):
        code = main(
            ["--scenario", "sweep", "--set", f"sweep_r={value}", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "squeezing parameter" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_error_sweep_qubit_limit_before_any_point(self, tmp_path, capsys,
                                                             monkeypatch):
        from magsqueeze import cli as cli_mod

        def no_point(gen):
            raise AssertionError("a grid point was computed")

        monkeypatch.setattr(cli_mod, "steady_state", no_point)
        code = main(
            ["--scenario", "sweep", "--set", "sweep_n=2,8", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "sweep_n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axes", [
        ["sweep_r=0,-1"],
        ["sweep_a=0.5,-1", "sweep_n=2,3"],
        ["sweep_r=0.25,nan", "sweep_a=0.5,1", "sweep_n=2"],
        # not a number, empty, not an integer
        ["sweep_r=abc"], ["sweep_r="], ["sweep_n=2.5"],
    ])
    def test_config_error_bad_sweep_value_before_any_point(self, tmp_path, capsys,
                                                           monkeypatch, axes):
        from magsqueeze import cli as cli_mod

        def no_point(gen):
            raise AssertionError("a grid point was computed")

        monkeypatch.setattr(cli_mod, "steady_state", no_point)
        argv = ["--scenario", "sweep", "--out", str(tmp_path)]
        for item in axes:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_accepts_the_steady_state_limit(self, tmp_path, monkeypatch):
        # N = 7 is the largest steady state; the solve itself (several
        # seconds) is replaced by the ground state of the same generator
        from magsqueeze import cli as cli_mod
        from magsqueeze.observables import initial_state

        monkeypatch.setattr(cli_mod, "steady_state",
                            lambda gen: initial_state("all_ground", gen.n_qubits))
        code = main(["--scenario", "sweep", "--set", "sweep_n=7", "--set", "sweep_r=0.25",
                     "--set", "sweep_a=0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, cols, data = read_table(tmp_path / "sweep_steady_state.csv")
        assert data[:, cols.index("n_qubits")].real.tolist() == [7.0]

    def test_config_error_asymmetric_chain_at_the_limit(self, tmp_path, capsys, monkeypatch):
        # at a/lambda = 1.7 the 7-qubit chain's couplings differ from their
        # mirrored copies by far more ulps than at 0.5, yet its generator
        # measures reversal-symmetric well within REVERSAL_RTOL, as every
        # chain's does, so the limit is no config error and every point
        # runs; the solve is replaced by the ground state of the same generator
        from magsqueeze import cli as cli_mod
        from magsqueeze.observables import initial_state

        claims = []

        def ground_state(gen):
            claims.append((gen.n_qubits, gen.reversal_symmetric))
            return initial_state("all_ground", gen.n_qubits)

        monkeypatch.setattr(cli_mod, "steady_state", ground_state)
        code = main(["--scenario", "sweep", "--set", "sweep_n=2,7", "--set", "sweep_r=0.25",
                     "--set", "sweep_a=0.5,1.7", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "sweep_a" not in capsys.readouterr().err
        assert sorted(claims) == [(2, True), (2, True), (7, True), (7, True)]
        _, cols, data = read_table(tmp_path / "sweep_steady_state.csv")
        points = sorted(zip(data[:, cols.index("n_qubits")].real.tolist(),
                            data[:, cols.index("a_over_lambda")].real.tolist()))
        assert points == [(2.0, 0.5), (2.0, 1.7), (7.0, 0.5), (7.0, 1.7)]

    @pytest.mark.parametrize("option", [
        ["--rtol", "nan"], ["--rtol", "inf"], ["--rtol", "0"], ["--atol", "-1"],
        ["--atol", "inf"], ["--threads", "0"], ["--threads", "-3"],
        # below MIN_RTOL the step shrinks without bound; below MIN_ATOL no
        # start from a basis state takes its first step
        ["--rtol", "1e-30"], ["--rtol", "2.2e-14"], ["--atol", "1e-300"], ["--atol", "4e-30"],
    ])
    def test_config_error_bad_tolerance_or_threads(self, tmp_path, capsys, monkeypatch,
                                                   option):
        from magsqueeze import cli as cli_mod

        def no_couplings(*args):
            raise AssertionError("couplings were built")

        monkeypatch.setattr(cli_mod, "build_couplings", no_couplings)
        code = main(["--scenario", "custom", *option, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert option[0][2:] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_error_custom_qubit_limit(self, tmp_path, capsys, monkeypatch):
        from magsqueeze import cli as cli_mod

        def no_couplings(*args):
            raise AssertionError("couplings were built")

        monkeypatch.setattr(cli_mod, "build_couplings", no_couplings)
        code = main(
            ["--scenario", "custom", "--set", "n_qubits=9", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "n_qubits" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scenario", ["custom", "fig2a_couplings"])
    @pytest.mark.parametrize("n_qubits", [9, 10_000_000])
    def test_config_error_qubit_limit_before_any_layout(self, tmp_path, capsys, monkeypatch,
                                                        scenario, n_qubits):
        # the limit is checked before the chain and its N x N separations
        # are built, whatever the scenario
        from magsqueeze.params import ArrayGeometry

        sizes = []
        separations = ArrayGeometry.separations

        def recorded(self):
            sizes.append(self.n_qubits)
            return separations(self)

        monkeypatch.setattr(ArrayGeometry, "separations", recorded)
        code = main(["--scenario", scenario, "--set", f"n_qubits={n_qubits}",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "n_qubits must be at most 8" in capsys.readouterr().err
        assert max(sizes) <= 8
        assert list(tmp_path.iterdir()) == []

    def test_config_error_out_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        code = main(["--scenario", "fig2a_couplings", "--out", str(taken)])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("scenario", ["custom", "fig2a_couplings"])
    @pytest.mark.parametrize("override", ["nu_Hz=1e-320", "nu_Hz=1e-310",
                                          "Delta0_GHz=1e300", "Delta0_GHz=1e-320"])
    def test_config_error_rate_scale_not_normal(self, tmp_path, capsys, monkeypatch,
                                                scenario, override):
        # Gamma_0 subnormal, 0 or inf: the generator, scaled by 1/Gamma_0,
        # would be NaN, and the integrator used to reject its steps forever
        from magsqueeze import cli as cli_mod

        def no_evolve(*args, **kwargs):
            raise AssertionError("the trajectory was integrated")

        monkeypatch.setattr(cli_mod, "evolve", no_evolve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--scenario", scenario, "--set", override, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "Gamma_0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("r, code", [(171.0, EXIT_NUMERICAL), (177.0, EXIT_CONFIG),
                                         (178.0, EXIT_CONFIG), (350.0, EXIT_CONFIG)])
    def test_huge_squeezing_fails_with_a_message(self, tmp_path, capsys, r, code):
        # below steady_state's bound on the generator's entries (r about 176
        # at N = 2) its sums of squares stay finite and the steady state is
        # degenerate; above it they overflowed (a RuntimeWarning, an error
        # under this suite's filter)
        argv = ["--scenario", "sweep", "--set", "sweep_n=2,5", "--set", "sweep_a=0.5",
                "--set", f"sweep_r={r!r}", "--out", str(tmp_path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("too large" if code == EXIT_CONFIG else "not unique") in err
        assert list(tmp_path.iterdir()) == []

    def test_config_error_rate_scale_times_occupation_overflows(self, tmp_path, capsys):
        # Gamma_0 = 8.2e298 Hz is finite but Gamma_0 (N + 1) at r = 100 is
        # not: the channels overflowed with a RuntimeWarning, and the sector
        # solve then failed (exit 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--scenario", "sweep", "--set", "detuning_MHz=1e300",
                         "--set", "sweep_r=100", "--set", "sweep_n=2",
                         "--set", "sweep_a=0.5", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "Gamma_0 (N + 1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["config", "override"])
    def test_config_error_drive_key_nan(self, tmp_path, capsys, source):
        # NaN fails the pair-resonance comparison, as +-inf does
        out = tmp_path / "out"
        if source == "config":
            cfg = tmp_path / "nan.cfg"
            cfg.write_text("omega_s_MHz = nan\n")
            extra = ["--config", str(cfg)]
        else:
            extra = ["--set", "omega_s_MHz=nan"]
        code = main(["--scenario", "fig2a_couplings", *extra, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "pair-resonance" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("a0", ["1e-320", "1e-110", "1e300"])
    def test_config_error_cell_volume_not_normal(self, tmp_path, capsys, a0):
        # a0^3 underflowed to 0 (ZeroDivisionError in site_density) or
        # overflowed (OverflowError): both ended in a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--scenario", "custom", "--set", f"a0_angstrom={a0}",
                         "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "lattice_const_a0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_error_unstable_drive(self, tmp_path, capsys):
        # strain large enough to push |g| past the bandwidth
        code = main(
            ["--scenario", "fig2a_couplings", "--set", "strain_Exy=1.0",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "stable" in capsys.readouterr().err

    def test_numerical_failure_exit_and_cleanup(self, tmp_path, capsys):
        # near-coincident pair: degenerate null space, no partial outputs
        code = main(
            ["--scenario", "sweep", "--set", "sweep_a=1e-7", "--set", "sweep_r=0.0",
             "--set", "sweep_n=2", "--out", str(tmp_path)]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing_call", range(1, 7))
    @pytest.mark.parametrize("error", [ConfigError("write refused"), OSError("disk full")],
                             ids=["ConfigError", "OSError"])
    def test_later_failed_write_removes_the_earlier_files(self, tmp_path, capsys, monkeypatch,
                                                          error, failing_call):
        # custom writes its trajectory, then its five coupling tables: a
        # failure at any write removes this run's files and no other, and a
        # failed write is a configuration error
        from magsqueeze import cli as cli_mod

        (tmp_path / "keep.txt").write_text("there before the run\n")
        real, calls = cli_mod.write_csv, []

        def fail_once(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise error
            return real(*args)

        monkeypatch.setattr(cli_mod, "write_csv", fail_once)
        code = main(["--scenario", "custom", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert str(error) in capsys.readouterr().err
        assert len(calls) == failing_call
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
        assert (tmp_path / "keep.txt").read_text() == "there before the run\n"

    def test_failed_write_keeps_an_earlier_runs_files(self, tmp_path, capsys, monkeypatch):
        # every table is written before any earlier file is replaced: a
        # second run into the same directory that fails at its third write
        # leaves the first run's six files byte for byte, and nothing else
        from magsqueeze import cli as cli_mod

        argv = ["--scenario", "custom", "--set", "n_qubits=2", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(first) == 6
        real, calls = cli_mod.write_csv, []

        def fail_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError("disk full")
            return real(*args)

        monkeypatch.setattr(cli_mod, "write_csv", fail_third)
        assert main([*argv, "--set", "nu_Hz=150"]) == EXIT_CONFIG
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first

    def test_write_onto_a_directory_exits_2(self, tmp_path, capsys):
        # a directory in the place of the third table: os.replace fails
        # with a real OSError after two tables are in place
        (tmp_path / "couplings_gamma_mp.csv").mkdir()
        code = main(["--scenario", "custom", "--set", "n_qubits=2", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["couplings_gamma_mp.csv"]
        assert not any((tmp_path / "couplings_gamma_mp.csv").iterdir())

    def test_invariant_violation_exit(self, tmp_path, capsys, monkeypatch):
        from magsqueeze import cli as cli_mod
        from magsqueeze.errors import StateInvariantError

        def boom(scenario, params, geometry):
            raise StateInvariantError("trace deviates")

        monkeypatch.setitem(cli_mod._RUNNERS, "custom", boom)
        code = main(["--scenario", "custom", "--out", str(tmp_path)])
        assert code == 4
        assert "invariant violation" in capsys.readouterr().err

    @pytest.mark.parametrize("error, code", [
        (errors.ConfigError, 2),
        (errors.UnstableSqueezingError, 2),
        (errors.StateInvariantError, 4),
        (errors.MagsqueezeError, 3),
        (errors.QuadratureConvergenceError, 3),
        (errors.StepSizeUnderflowError, 3),
        (errors.DegenerateSteadyStateError, 3),
        (np.linalg.LinAlgError, 3),
    ])
    def test_exit_code_of_each_error(self, tmp_path, capsys, monkeypatch, error, code):
        from magsqueeze import cli as cli_mod

        def boom(scenario, params, geometry):
            raise error("raised by the runner")

        monkeypatch.setitem(cli_mod._RUNNERS, "custom", boom)
        assert main(["--scenario", "custom", "--out", str(tmp_path)]) == code
        assert "raised by the runner" in capsys.readouterr().err

    def test_config_file_round_trips_through_cli(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("detuning_MHz = 200\nn_qubits = 2\na_over_lambda = 0.7\n")
        code = main(
            ["--scenario", "fig2a_couplings", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        comments, _, _ = read_table(tmp_path / "fig2a_couplings.csv")
        assert any("detuning_MHz = 200.0" in c for c in comments)


# the domain contract: any physical key at any magnitude fails closed
DOMAIN_KEYS = sorted(_PARAM_KEYS) + ["a_over_lambda"]
DOMAIN_VALUES = st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                          st.floats(-300.0, 300.0), st.sampled_from([1.0, -1.0]))


def domain_argv(scenario, values, sweep_r):
    argv = ["--scenario", scenario]
    if scenario == "custom":
        argv += ["--set", "n_qubits=2"]
    elif scenario == "sweep":
        argv += ["--set", "sweep_n=2", "--set", "sweep_a=0.5", "--set", f"sweep_r={sweep_r!r}"]
    for key, value in values.items():
        argv += ["--set", f"{key}={value!r}"]
    return argv


@given(st.sampled_from(["fig2a_couplings", "custom", "sweep"]),
       st.dictionaries(st.sampled_from(DOMAIN_KEYS), DOMAIN_VALUES, min_size=1, max_size=3),
       st.floats(0.0, 200.0))
# inputs that warned, raised or failed late before they were made to exit 2
@example("custom", {"a0_angstrom": 1e-320}, 0.0)
@example("custom", {"detuning_MHz": 1e300}, 0.0)
@example("custom", {"nu_Hz": 1e-320}, 0.0)
@example("sweep", {"Delta0_GHz": 1e300}, 0.5)
@example("sweep", {"detuning_MHz": 1e300}, 100.0)
@example("sweep", {}, 350.0)
@example("custom", {"a_over_lambda": 1e160}, 0.0)
# a steady state whose slowest rate is below 1e-8 of the spectral radius
@example("sweep", {"s_G2_cm_s": 1.5e22}, 20.0)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_any_magnitude_exits_0_2_or_3(scenario, values, sweep_r):
    # the suite turns every RuntimeWarning into an error, so a warning fails
    # here like any exception that main does not map to an exit code
    with tempfile.TemporaryDirectory() as out:
        code = main(domain_argv(scenario, values, sweep_r) + ["--out", out])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
