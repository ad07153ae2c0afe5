import subprocess
import sys

import numpy as np
import pytest

from powergame.asymptotic import feasibility_bound
from powergame.cli import EXIT_CONFIG, EXIT_IO, EXIT_NOCONV, main
from powergame.efficiency import EfficiencyKind, EfficiencyModel, solve_gamma_star
from powergame.system import ReceiverKind


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "powergame", *args],
                          capture_output=True, text=True, **kwargs)


class TestGammaStar:
    def test_default_output(self):
        proc = run_cli("gamma-star")
        assert proc.returncode == 0
        first = proc.stdout.splitlines()[0]
        assert "dB" in first
        exact = float(proc.stdout.splitlines()[1].split()[1])
        assert abs(exact - 6.48) <= 0.01

    def test_packet_size_override_changes_target(self):
        proc = run_cli("gamma-star", "--set", "M=50")
        exact = float(proc.stdout.splitlines()[1].split()[1])
        assert abs(exact - 6.48) > 0.1
        assert exact == pytest.approx(5.6466, abs=1e-3)

    def test_output_path_writes_file(self, tmp_path):
        out = tmp_path / "gstar.txt"
        proc = run_cli("gamma-star", "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert out.read_text() == run_cli("gamma-star").stdout


class TestConfigErrors:
    def test_unknown_key_lists_valid_keys(self):
        proc = run_cli("sweep", "--set", "bogus=1")
        assert proc.returncode == EXIT_CONFIG
        assert "bogus" in proc.stderr
        assert "sigma2" in proc.stderr  # the valid-keys list

    def test_malformed_value(self):
        proc = run_cli("sweep", "--set", "trials=abc")
        assert proc.returncode == EXIT_CONFIG
        assert "trials" in proc.stderr

    def test_violated_invariant(self):
        proc = run_cli("sweep", "--set", "L=200")  # L > M
        assert proc.returncode == EXIT_CONFIG

    def test_infeasible_single_load_names_bound(self):
        proc = run_cli("sweep", "--set", "alpha=1.5", "--receiver", "DE")
        assert proc.returncode == EXIT_CONFIG
        assert "alpha < 1" in proc.stderr

    def test_rounding_edge_load_rejected_not_emptied(self, capsys):
        # alpha < 5 * bound holds in floating point but alpha / 5 < bound does
        # not; the sweep gates cells on the latter, so the CLI must too
        # rather than accept the grid and print an empty table
        alpha = 0.7722484334136034
        bound = feasibility_bound(ReceiverKind.MATCHED_FILTER,
                                  solve_gamma_star(EfficiencyModel(
                                      EfficiencyKind.EXP_APPROX, 100)))
        assert alpha < 5 * bound and alpha / 5 >= bound  # still an edge case
        code = main(["sweep", "--set", f"alpha={alpha!r}", "--antennas", "5",
                     "--receiver", "MF", "--trials", "2"])
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("config error: alpha: no feasible load point; "
                       "MF m=5: alpha < 0.772248\n")

    @pytest.mark.parametrize("argv", [
        # single-antenna tables: a second antenna must not admit the load
        ["sir-compare", "--antennas", "2", "--set", "alpha=0.2",
         "--receiver", "MF"],
        ["validate-asymptotic", "--set", "alpha=0.2", "--antennas", "2",
         "--receiver", "MF", "--trials", "2"],
        # admission tabulates the first receiver (MF) only
        ["admission", "--receiver", "all", "--alpha-range", "0.5:1.0:0.1"],
    ])
    def test_only_tabulated_cells_admit_a_load(self, argv, capsys):
        bound = feasibility_bound(ReceiverKind.MATCHED_FILTER,
                                  solve_gamma_star(EfficiencyModel(
                                      EfficiencyKind.EXP_APPROX, 100)))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("config error: alpha: no feasible load point; "
                       f"MF m=1: alpha < {bound:g}\n")

    @pytest.mark.parametrize("argv,fragment", [
        # cooperative rows are single-antenna only: m=2 alone tabulates nothing
        (["sweep", "--set", "mode=pareto", "--antennas", "2", "--set",
          "alpha=0.1", "--trials", "2"], "antennas: mode=pareto"),
        (["sweep", "--antennas", "1,1", "--receiver", "DE", "--set",
          "alpha=0.5"], "antennas: repeated value"),
        (["validate-asymptotic", "--set", "n_grid=25,50,25", "--trials",
          "2"], "n_grid: repeated value"),
        # the table has no alpha column, so a grid must not shrink to alpha[0]
        (["validate-asymptotic", "--alpha-range", "0.05:0.5:0.05",
          "--trials", "2"], "alpha_range: this subcommand tabulates one load"),
        # the count parser serves n_grid too, so its message names no noun
        (["validate-asymptotic", "--set", "n_grid=0", "--trials", "2"],
         "n_grid: expected positive integers, got '0'"),
    ])
    def test_config_without_distinct_cells_rejected(self, argv, fragment,
                                                    capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("config error: " + fragment)
        assert len(err.splitlines()) == 1

    def test_every_cell_infeasible_exits_2(self):
        # alpha sits just below the MF bound, but K = round(alpha N) rounds
        # every load K/N above it
        proc = run_cli("validate-asymptotic", "--set", "alpha=0.1544",
                       "--set", "n_grid=25,50", "--receiver", "MF",
                       "--trials", "2")
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr == ("config error: alpha: no feasible load point; "
                               "MF m=1: alpha < 0.15445\n")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("sub", ["equilibrium", "curve-utility"])
    def test_single_realization_rejects_antenna_list(self, sub, capsys):
        # one realization has one antenna count; a list must not be cut to
        # its first entry
        code = main([sub, "--antennas", "1,2", "--set", "K=5"])
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("config error: antennas: this subcommand solves one "
                       "antenna count, got 1,2\n")

    def test_config_file_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ntrials = 7\nseed = 3  # inline\n")
        proc = run_cli("sweep", "--config", str(cfg), "--alpha-range",
                       "0.1:0.2:0.1", "--receiver", "DE")
        assert proc.returncode == 0
        assert "trials_used" in proc.stdout.splitlines()[0]
        assert ",7,0" in proc.stdout.splitlines()[1]

    @pytest.mark.parametrize("setting", ["sigma2=nan", "R=inf", "Pmax=-inf"])
    def test_non_finite_value_rejected(self, setting):
        proc = run_cli("sweep", "--set", setting, "--trials", "2")
        assert proc.returncode == EXIT_CONFIG
        assert "finite" in proc.stderr
        assert proc.stdout == ""

    def test_missing_config_file(self):
        proc = run_cli("sweep", "--config", "/nonexistent/run.cfg")
        assert proc.returncode == EXIT_CONFIG


class TestCsvContract:
    def test_sweep_schema_and_sorting(self):
        proc = run_cli("sweep", "--trials", "5", "--alpha-range", "0.05:0.2:0.05")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == ("alpha,kind,m,mode,mean_utility,std_utility,"
                            "mean_power,target_sir,trials_used,trials_discarded")
        assert sum(1 for ln in lines if ln == lines[0]) == 1
        keys = []
        for ln in lines[1:]:
            cells = ln.split(",")
            keys.append((float(cells[0]), cells[1], int(cells[2])))
            assert "," not in cells[4]
            float(cells[4])  # parses with a plain decimal point
        assert keys == sorted(keys)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("admission", "--trials", "25", "--alpha-range", "0.2:0.8:0.2",
                "--seed", "5")
        assert run_cli(*args, "--output", str(out1)).returncode == 0
        assert run_cli(*args, "--output", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().endswith(b"\n")
        assert b"\r" not in out1.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("sweep", "--trials", "10", "--alpha-range", "0.1:0.3:0.1",
                "--seed", "1", "--output", str(out1))
        run_cli("sweep", "--trials", "10", "--alpha-range", "0.1:0.3:0.1",
                "--seed", "2", "--output", str(out2))
        assert out1.read_bytes() != out2.read_bytes()

    def test_unwritable_output_exits_3(self):
        proc = run_cli("sweep", "--trials", "5", "--alpha-range",
                       "0.1:0.2:0.1", "--output", "/nonexistent/dir/out.csv")
        assert proc.returncode == EXIT_IO


class TestSubcommands:
    def test_equilibrium_smoke(self):
        proc = run_cli("equilibrium", "--set", "K=10")
        lines = proc.stdout.strip().split("\n")
        assert proc.returncode == 0
        assert lines[0] == "kind,user,power,sir,utility,iterations,converged"
        assert len(lines) == 11
        assert all(ln.split(",")[6] == "true" for ln in lines[1:])

    def test_equilibrium_strict_nonconvergence_exits_4(self):
        proc = run_cli("equilibrium", "--set", "max_iter=1", "--strict")
        assert proc.returncode == EXIT_NOCONV
        # without --strict the unconverged result is still reported
        relaxed = run_cli("equilibrium", "--set", "max_iter=1")
        assert relaxed.returncode == 0
        assert ",false" in relaxed.stdout

    def test_curve_utility_strict_nonconvergence_exits_4(self, capsys):
        args = ["curve-utility", "--set", "max_iter=1"]
        assert main([*args, "--strict"]) == EXIT_NOCONV
        strict = capsys.readouterr().out
        # the curve is still printed, the same as without --strict
        assert main(args) == 0
        assert capsys.readouterr().out == strict
        assert main(["curve-utility", "--strict"]) == 0

    def test_equilibrium_all_clamped_is_not_converged(self):
        # at Pmax = 1e-15 every user is capped far below the target SIR
        args = ("equilibrium", "--set", "Pmax=1e-15", "--set", "K=5")
        proc = run_cli(*args, "--strict")
        assert proc.returncode == EXIT_NOCONV
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "kind,user,power,sir,utility,iterations,converged"
        assert len(lines) == 6
        assert all(ln.split(",")[6] == "false" for ln in lines[1:])
        assert run_cli(*args).returncode == 0

    def test_pareto_emits_both_modes(self):
        proc = run_cli("pareto", "--trials", "5", "--alpha-range",
                       "0.1:0.2:0.1", "--receiver", "MMSE")
        assert ",pareto," in proc.stdout and ",noncoop," in proc.stdout

    def test_sir_compare_schema(self):
        proc = run_cli("sir-compare", "--trials", "1", "--alpha-range",
                       "0.2:0.4:0.2", "--receiver", "MMSE")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "alpha,kind,gamma_noncoop,gamma_pareto"

    def test_antennas_emits_both_counts(self):
        proc = run_cli("antennas", "--trials", "5", "--alpha-range",
                       "0.1:0.2:0.1", "--receiver", "DE")
        assert any(ln.split(",")[2] == "2" for ln in proc.stdout.splitlines()[1:])
        assert any(ln.split(",")[2] == "1" for ln in proc.stdout.splitlines()[1:])

    def test_curve_efficiency(self):
        proc = run_cli("curve-efficiency")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "gamma,f"
        assert lines[1] == "0.0,0.0"

    def test_curve_utility(self):
        proc = run_cli("curve-utility", "--set", "K=10")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "power,utility"
        assert len(lines) > 10

    @pytest.mark.parametrize("receiver", ["MF", "DE", "MMSE"])
    def test_curve_utility_powers_within_pmax(self, receiver, capsys):
        assert main(["curve-utility", "--receiver", receiver]) == 0
        powers = [float(ln.split(",")[0]) for ln in
                  capsys.readouterr().out.strip().split("\n")[1:]]
        assert 33 <= len(powers) <= 65
        assert max(powers) <= 1.0  # the default Pmax, W
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_single_realization_honours_antennas(self, capsys):
        def table(*argv):
            assert main(list(argv)) == 0
            return [ln.split(",") for ln in
                    capsys.readouterr().out.strip().split("\n")[1:]]

        one = table("equilibrium", "--set", "K=5")
        two = table("equilibrium", "--set", "K=5", "--antennas", "2")
        assert all(row[6] == "true" for row in two)
        # a second antenna pools more gain, so every user needs less power
        assert all(float(b[2]) < float(a[2]) for a, b in zip(one, two))
        curve_one = table("curve-utility")
        curve_two = table("curve-utility", "--antennas", "2")
        assert curve_two != curve_one
        # the curve peaks at its middle point, the equilibrium power
        utilities = [float(u) for _, u in curve_two]
        assert len(utilities) == 65 and np.argmax(utilities) == 32

    def test_validate_asymptotic_schema(self):
        proc = run_cli("validate-asymptotic", "--trials", "3", "--set",
                       "n_grid=25", "--receiver", "DE")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "N,kind,mean_rel_power_error"
        assert lines[1].startswith("25,DE,")

    def test_validate_asymptotic_skips_receiver_infeasible_load(self):
        # alpha = 1.1 is above the MF and DE bounds but below MMSE's
        proc = run_cli("validate-asymptotic", "--set", "alpha=1.1",
                       "--trials", "2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "N,kind,mean_rel_power_error"
        assert [ln.split(",")[:2] for ln in lines[1:]] == [
            ["25", "MMSE"], ["50", "MMSE"], ["100", "MMSE"]]

    def test_validate_asymptotic_gates_on_rounded_load(self, capsys):
        # alpha = 0.156 is above the MF bound 0.15445, but the one tabulated
        # cell, K = 2 of N = 13, has load 0.1538 below it
        code = main(["validate-asymptotic", "--set", "alpha=0.156", "--set",
                     "n_grid=13", "--receiver", "MF", "--trials", "2"])
        out, err = capsys.readouterr()
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "N,kind,mean_rel_power_error"
        assert [ln.split(",")[:2] for ln in lines[1:]] == [["13", "MF"]]

    def test_validate_asymptotic_row_per_n_sharing_a_load(self, capsys):
        # 2/25 and 4/50 are the same load; each N keeps its own row
        code = main(["validate-asymptotic", "--set", "alpha=0.08", "--set",
                     "n_grid=25,50", "--receiver", "MMSE", "--trials", "2"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert [ln.split(",")[:2] for ln in out.splitlines()[1:]] == [
            ["25", "MMSE"], ["50", "MMSE"]]


class TestLibraryErrors:
    def test_no_feasible_draw_exits_1_without_traceback(self):
        proc = run_cli("validate-asymptotic", "--set", "Pmax=1e-12",
                       "--receiver", "MF", "--trials", "2")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: no feasible draw")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "distance=1e-200", "--trials", "2",
         "--receiver", "MF"],
        ["admission", "--set", "d_min=1e-200", "--set", "d_max=1e-100",
         "--trials", "2"],
        ["admission", "--set", "d_max=1e300", "--trials", "2"],
        # Python float arithmetic overflows to inf silently; emit_csv
        # refuses the non-finite cell
        ["sweep", "--set", "sigma2=1e-320", "--trials", "2",
         "--receiver", "MF"],
    ])
    def test_overflow_exits_1_not_inf_table(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1


class TestMainEntry:
    def test_callable_without_subprocess(self, capsys):
        assert main(["gamma-star"]) == 0
        assert "dB" in capsys.readouterr().out

    def test_bad_set_syntax(self, capsys):
        assert main(["sweep", "--set", "novalue"]) == EXIT_CONFIG


class TestLoadSelection:
    def test_alpha_range_flag_overrides_file_alpha(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.3\n")
        proc = run_cli("sweep", "--config", str(cfg), "--trials", "5",
                       "--alpha-range", "0.1:0.2:0.1", "--receiver", "DE")
        alphas = {ln.split(",")[0] for ln in proc.stdout.splitlines()[1:]}
        assert alphas == {"0.1", "0.2"}

    def test_single_alpha_overrides_default_range(self):
        proc = run_cli("sweep", "--trials", "5", "--set", "alpha=0.3",
                       "--receiver", "DE")
        alphas = {ln.split(",")[0] for ln in proc.stdout.splitlines()[1:]}
        assert alphas == {"0.3"}


class TestBpskModel:
    def test_gamma_star_for_bpsk_kind(self):
        proc = run_cli("gamma-star", "--set", "eff=bpsk")
        exact = float(proc.stdout.splitlines()[1].split()[1])
        assert exact == pytest.approx(4.0400, abs=1e-3)

    def test_bpsk_sweep_runs(self):
        proc = run_cli("sweep", "--set", "eff=bpsk", "--trials", "5",
                       "--alpha-range", "0.1:0.2:0.1", "--receiver", "MMSE")
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 3
