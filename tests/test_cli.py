import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from powergame.asymptotic import feasibility_bound
from powergame.cli import (CONFIG_KEYS, EXIT_CONFIG, EXIT_IO, EXIT_NOCONV,
                           main, parse_config)
from powergame.efficiency import EfficiencyKind, EfficiencyModel, solve_gamma_star
from powergame.exceptions import ConfigError
from powergame.system import ReceiverKind, SystemParams


VALIDATE_HEADER = "N,kind,mean_rel_power_error,std_error,redrawn"


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

    def test_removed_gain_law_key_is_unknown(self, capsys):
        # gains follow the amplitude law 0.3/d^2 only; the key that chose a
        # mean-square law is gone
        args = ["gamma-star", "--set", "gain_mean_semantics=amplitude"]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: gain_mean_semantics: unknown key")

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
        # single-antenna tables reject a second antenna rather than let it
        # admit the load
        ["sir-compare", "--antennas", "2", "--set", "alpha=0.2",
         "--receiver", "MF"],
        ["validate-asymptotic", "--set", "alpha=0.2", "--antennas", "2",
         "--receiver", "MF", "--trials", "2"],
        # admission has no receiver column, so it takes one receiver
        ["admission", "--receiver", "all", "--alpha-range", "0.5:1.0:0.1"],
    ])
    def test_only_tabulated_cells_admit_a_load(self, argv, capsys):
        single_antenna = ("antennas: this subcommand tabulates m=1 only, "
                          "got antennas=2")
        expected = {"sir-compare": single_antenna,
                    "validate-asymptotic": single_antenna,
                    "admission": "receiver: this subcommand solves one "
                                 "receiver, got MF,DE,MMSE"}[argv[0]]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"config error: {expected}\n"

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
        # a table with no column for a key takes one value of it
        (["admission", "--receiver", "all"], "receiver: this subcommand "
         "solves one receiver, got MF,DE,MMSE"),
        (["admission", "--antennas", "1,2"], "antennas: this subcommand "
         "solves one antenna count, got 1,2"),
        (["curve-utility", "--receiver", "all"], "receiver: this subcommand "
         "solves one receiver"),
        (["sir-compare", "--antennas", "2"], "antennas: this subcommand "
         "tabulates m=1 only, got antennas=2"),
        (["validate-asymptotic", "--antennas", "2", "--trials", "2"],
         "antennas: this subcommand tabulates m=1 only"),
        (["sweep", "--set", "mode=pareto", "--antennas", "1,2", "--set",
          "alpha=0.1"], "antennas: mode=pareto tabulates m=1 only, got "
         "antennas=1,2"),
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
        # alpha sits below the MF bound, but K = round(alpha N) rounds
        # every load K/N above it, and the line names those loads
        proc = run_cli("validate-asymptotic", "--set", "alpha=0.15",
                       "--set", "n_grid=25,50", "--receiver", "MF",
                       "--trials", "2")
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr == ("config error: alpha: no feasible load point "
                               "at K/N = 4/25 = 0.16, 8/50 = 0.16; "
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

    @pytest.mark.parametrize("argv,fragment", [
        # the shortcut flags are parsed by the config keys they stand for
        (["gamma-star", "--seed", "abc"], "seed: expected an integer"),
        (["sweep", "--trials", "abc"], "trials: expected an integer"),
        (["sweep", "--receiver", "XX"], "receiver: expected one of"),
        (["sweep", "--antennas", "2,x"], "antennas: expected comma-separated"),
        (["sweep", "--alpha-range", "0.5:0.1"], "alpha_range: expected START"),
        # an efficiency with no target SIR
        (["gamma-star", "--set", "M=1"], "M: eff=exp has no target SIR at M=1"),
        (["sweep", "--set", "eff=bpsk", "--set", "M=6", "--trials", "2"],
         "M: eff=bpsk has no target SIR at M=6"),
    ])
    def test_bad_value_is_one_line_naming_the_key(self, argv, fragment,
                                                  capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: " + fragment)
        assert len(err.splitlines()) == 1

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

    @pytest.mark.parametrize("argv,key", [
        (["--antennas", "-1,2"], "antennas"),
        (["--alpha-range", "-0.5:0.5:0.1"], "alpha_range"),
    ])
    def test_shortcut_value_led_by_a_dash_names_its_key(self, argv, key,
                                                        capsys):
        # argparse alone takes such a value for an option and prints usage
        assert main(["sweep", *argv]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {key}: ")
        assert len(err.splitlines()) == 1


# KEY=VALUE settings, each breaking one value rule of the config
# records, and the config key its error names
VALUE_RULES = [
    ("K=0", "K"), ("N=-2", "N"), ("L=0", "L"), ("L=200", "L"), ("M=0", "M"),
    ("sigma2=0", "sigma2"), ("sigma2=nan", "sigma2"), ("R=inf", "R"),
    ("Pmax=-1", "Pmax"), ("distance=inf", "distance"), ("d_min=0", "d_min"),
    ("d_min=2000", "d_min"), ("d_max=inf", "d_max"), ("trials=0", "trials"),
    ("max_iter=0", "max_iter"), ("seed=-1", "seed"),
    ("antennas=0", "antennas"), ("antennas=1,1", "antennas"),
    ("n_grid=-1", "n_grid"), ("n_grid=25,25", "n_grid"),
    # a single load is a one-load alpha_range
    ("alpha=nan", "alpha_range"), ("alpha=0", "alpha_range"),
    ("alpha_range=0:0.5:0.1", "alpha_range"),
    # a STEP below the grid's 12-digit rounding repeats a load
    ("alpha_range=1:1.000000000001:1e-13", "alpha_range"),
]
PARAM_KEYS = set(SystemParams._fields)
# config key -> the ScenarioConfig field it sets, where the names differ
SCENARIO_FIELD = {"seed": "master_seed", "alpha": "alpha_grid",
                  "alpha_range": "alpha_grid"}


class TestValueRules:
    """The config records hold every value rule, also on a copy made with
    _replace, and name the key; the CLI converts text and runs the same
    one-key rules on every value given, so both callers meet the same
    rule."""

    @pytest.mark.parametrize("setting,key", VALUE_RULES)
    def test_rule_names_its_key_in_cli_and_library(self, setting, key,
                                                   capsys):
        assert main(["gamma-star", "--set", setting]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {key}: ")
        assert len(err.splitlines()) == 1
        name, _, text = setting.partition("=")
        value = CONFIG_KEYS[name][0](name, text)
        baseline = parse_config(None, [])
        with pytest.raises(ConfigError) as exc:
            if name in PARAM_KEYS:
                baseline.params._replace(**{name: value})
            else:
                baseline._replace(**{SCENARIO_FIELD.get(name, name): value})
        assert exc.value.key == key

    def test_fields_no_key_sets_name_the_key_that_does(self):
        params = parse_config(None, []).params
        with pytest.raises(ConfigError) as exc:
            params._replace(m=0)
        assert exc.value.key == "antennas"
        with pytest.raises(ConfigError) as exc:
            EfficiencyModel(EfficiencyKind.EXP_APPROX, 0)
        assert exc.value.key == "M"

    @pytest.mark.parametrize("file_text,args,message", [
        ("", ["--set", "trials=0", "--set", "trials=5"],
         "trials: must be >= 1, got 0"),
        ("trials = 0\n", ["--trials", "5"], "trials: must be >= 1, got 0"),
        ("alpha = 0\n", ["--alpha-range", "0.1:0.2:0.1"],
         "alpha_range: must be positive and finite, got 0.0"),
    ], ids=["repeated-set", "file-under-flag", "alpha-under-range"])
    def test_a_replaced_value_is_still_checked(self, file_text, args, message,
                                               tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(file_text)
        assert main(["gamma-star", "--config", str(path), *args]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_alpha_range_holds_at_most_10000_loads(self, capsys):
        grid = parse_config(None, [("alpha_range", "0.0001:1:0.0001")])
        assert len(grid.alpha_grid) == 10_000
        assert main(["gamma-star", "--alpha-range",
                     "0.0001:1.0001:0.0001"]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: alpha_range: '0.0001:1.0001:0.0001' holds "
            "more than 10000 loads\n")


class TestBlasThreads:
    """The CLI runs on one BLAS thread whatever its environment asks for:
    these tables differ in their last digits between 1 and 2 threads."""

    @pytest.mark.parametrize("args", [
        ["equilibrium", "--set", "K=150", "--set", "N=300", "--receiver",
         "all"],
        ["curve-utility"],
    ], ids=["equilibrium", "curve-utility"])
    def test_stdout_independent_of_thread_setting(self, args):
        # `python -m powergame`, and the function the powergame script runs
        module = [sys.executable, "-m", "powergame"]
        script = [sys.executable, "-c", "import sys; from powergame.__main__ "
                  "import main; sys.exit(main())"]
        outputs = set()
        for entry, threads in ((module, "1"), (module, "2"), (script, "2")):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run([*entry, *args], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1


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
        lines = out1.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "alpha,mean_total_utility_per_dof,Gamma"
        assert len(lines) == 6 and lines[-1] == ""

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

    def test_matched_filter_steps_with_users_at_pmax(self, capsys):
        # the default load is infeasible for the matched filter, so users
        # sit at Pmax on every pass; Newton steps on the capped map settle
        # in 21 passes here, 51 where a pass with a capped user took no step
        assert main(["equilibrium", "--receiver", "all", "--seed", "0"]) == 0
        rows = [ln.split(",") for ln in
                capsys.readouterr().out.splitlines()[1:]]
        mf = [row for row in rows if row[0] == "MF"]
        assert len(mf) == 30 and all(row[6] == "true" for row in mf)
        assert any(row[2] == "1.0" for row in mf)
        assert int(mf[0][5]) <= 25

    def test_equilibrium_strict_nonconvergence_exits_4(self):
        proc = run_cli("equilibrium", "--set", "max_iter=1", "--strict")
        assert proc.returncode == EXIT_NOCONV
        # without --strict the unconverged result is still reported
        relaxed = run_cli("equilibrium", "--set", "max_iter=1")
        assert relaxed.returncode == 0
        assert ",false" in relaxed.stdout

    def test_matched_filter_past_pmax_converges(self, capsys):
        # a draw whose MF balance lies past Pmax: the solve restarts at
        # Pmax and settles in a few passes, well inside max_iter
        assert main(["equilibrium", "--set", "K=8", "--receiver", "MF",
                     "--strict", "--seed", "85"]) == 0
        rows = [line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 8 and all(row[6] == "true" for row in rows)
        assert any(row[2] == "1.0" for row in rows)
        assert int(rows[0][5]) <= 10

    @pytest.mark.parametrize("seed,Pmax", [(27, "1e16"), (95, "1e16"),
                                           (232, "1e16"), (131, "1e15"),
                                           (387, "1e14")])
    def test_matched_filter_far_below_pmax_converges(self, seed, Pmax,
                                                     capsys):
        # balances of at most 5 mW under a Pmax of 1e14 to 1e16 W: from
        # the noise-only start one Newton step lands on them. A start at a
        # fraction of Pmax cancelled them to about -eps times the start,
        # read as a balance past Pmax, and exited 4 after 500 passes
        assert main(["equilibrium", "--set", "K=8", "--receiver", "MF",
                     "--set", f"Pmax={Pmax}", "--strict", "--seed",
                     str(seed)]) == 0
        rows = [line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 8 and all(row[6] == "true" for row in rows)
        assert all(float(row[2]) < 1e-2 for row in rows)
        assert int(rows[0][5]) <= 2

    @pytest.mark.parametrize("seed", [66, 180])
    def test_matched_filter_step_past_pmax_converges(self, seed, capsys):
        # N = 200, K = 30 draws whose first step puts a user past Pmax: cut
        # at Pmax, the step lies above the capped balance and the next one
        # lands, in 2 and 3 passes. ~15 ms each
        assert main(["equilibrium", "--set", "N=200", "--set", "K=30",
                     "--receiver", "MF", "--strict", "--seed",
                     str(seed)]) == 0
        rows = [line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 30 and all(row[6] == "true" for row in rows)
        assert int(rows[0][5]) <= 4

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
        assert len(lines) == 202
        assert lines[-1].split(",")[0] == "20.0"

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
        assert lines[0] == VALIDATE_HEADER
        assert lines[1].startswith("25,DE,")

    def test_validate_asymptotic_reports_spread_and_redraws(self, capsys):
        assert main(["validate-asymptotic", "--receiver", "MF", "--trials",
                     "20", "--set", "n_grid=25,50"]) == 0
        rows = [ln.split(",") for ln in
                capsys.readouterr().out.splitlines()[1:]]
        assert [row[:2] for row in rows] == [["25", "MF"], ["50", "MF"]]
        assert all(float(row[3]) > 0.0 for row in rows)
        # at N = 25, K = 2: two sequences correlated enough to leave no
        # positive MF balance are common
        assert int(rows[0][4]) > 0

    def test_validate_asymptotic_independent_of_max_iter(self, capsys):
        # a feasible draw is kept however slowly its sweeps would settle
        tables = []
        for max_iter in ("500", "5000"):
            assert main(["validate-asymptotic", "--receiver", "MF",
                         "--trials", "50", "--set",
                         f"max_iter={max_iter}"]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    def test_validate_asymptotic_skips_receiver_infeasible_load(self):
        # alpha = 1.1 is above the MF and DE bounds but below MMSE's
        proc = run_cli("validate-asymptotic", "--set", "alpha=1.1",
                       "--trials", "2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == VALIDATE_HEADER
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
        assert lines[0] == VALIDATE_HEADER
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
        # a lone power above Pmax at the mean gain does not rule out every
        # draw, so the table still tries its 100; the line then gives that
        # power, gamma* sigma2 / E[h^2], and the keys that set it
        proc = run_cli("validate-asymptotic", "--set", "Pmax=1e-12",
                       "--receiver", "MF", "--trials", "2")
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: no feasible draw for MF at N=25 in 100 draws; a user "
            "alone at distance=100.0 needs 2.83e-06 W at the mean gain and "
            "sigma2=5e-16, against Pmax=1e-12\n")

    @pytest.mark.parametrize("argv", [
        ["equilibrium", "--receiver", "all"],
        ["curve-utility"],
    ], ids=["equilibrium", "curve-utility"])
    def test_underflowing_pmax_names_the_key(self, argv):
        # Pmax h^2 underflows to 0 W received, so no user could ever be
        # heard: the solve names Pmax, not a zero SIR
        proc = run_cli(*argv, "--set", "Pmax=1e-320", "--set", "K=3")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: Pmax=1e-320")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "distance=1e-200", "--trials", "2",
         "--receiver", "MF"],
        ["admission", "--set", "d_min=1e-200", "--set", "d_max=1e-100",
         "--trials", "2"],
        ["admission", "--set", "d_max=1e300", "--trials", "2"],
        # Python float arithmetic overflows to inf silently; emit_csv
        # refuses the non-finite cell, also in a table run without numpy
        ["sweep", "--set", "sigma2=1e-320", "--trials", "2",
         "--receiver", "MF"],
        ["admission", "--set", "sigma2=1e-320", "--set", "R=1e300"],
    ])
    def test_overflow_exits_1_not_inf_table(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["admission", "--set", "d_max=1e300"],
        ["admission", "--set", "d_min=1e-200", "--set", "d_max=1e-100"],
        ["admission", "--set", "d_min=1e-170", "--set", "d_max=1e-160"],
    ], ids=["underflow", "overflow", "zero-product"])
    def test_annulus_gain_out_of_range_names_the_radii(self, argv, capsys):
        # E[h^2] over the annulus leaves the float range: the one error
        # line names the two keys that set it
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: d_min=") and ", d_max=" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "distance=1e-200"],
        ["curve-utility", "--set", "distance=1e-200"],
        ["validate-asymptotic", "--set", "distance=1e200"],
        ["equilibrium", "--set", "distance=1e200"],
    ], ids=["sweep", "curve-utility", "validate-asymptotic", "equilibrium"])
    def test_out_of_range_distance_names_the_key(self, argv, capsys):
        # every gain drawn at that distance would overflow or vanish: the
        # table checks the distance once, before its first draw
        assert main(argv) == 1
        distance = float(argv[-1].partition("=")[2])
        assert capsys.readouterr() == (
            "", f"error: distance={distance!r}: the mean square gain at that "
            "distance is outside the float range\n")

    @pytest.mark.parametrize("table,distance,trials", [
        ("sweep", "1e-70", "2"),
        ("pareto", "1e-70", "2"),
        ("antennas", "1e-70", "2"),
        ("sweep", "1e76", "2000"),
        ("sweep", "1e77", "20"),
    ], ids=["sweep", "pareto", "antennas", "sweep-far", "sweep-subnormal"])
    def test_admitted_distance_tables_are_finite(self, table, distance,
                                                 trials, capsys):
        # E[h^2] is ~1e279 at 1e-70 m and a subnormal ~1e-309 at 1e77 m,
        # but the draws are unit-mean and E[h^2] only scales each row, so
        # no moment leaves the float range and no spread rounds to 0
        assert main([table, "--set", f"distance={distance}",
                     "--trials", trials]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows and all(math.isfinite(float(cell))
                            for row in rows for cell in row[4:8])
        assert all(float(row[5]) > 0.0 for row in rows)

    @pytest.mark.parametrize("argv", [
        ["equilibrium", "--set", "distance=1e-75"],
        ["curve-utility", "--set", "distance=1e-75"],
        ["validate-asymptotic", "--set", "distance=1e-75", "--trials", "2"],
    ], ids=["equilibrium", "curve-utility", "validate-asymptotic"])
    def test_subnormal_power_names_the_distance(self, argv, capsys):
        # E[h^2] at 1e-75 m is finite, ~1e299, but a user alone there
        # needs gamma* sigma2 / E[h^2] ~ 3e-314 W, a subnormal float; the
        # error names the key, where the solve would overflow unnamed
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: distance=1e-75: the power a user alone at that "
            "distance needs at sigma2=5e-16 is below the float range\n")

    @pytest.mark.parametrize("argv", [
        ["equilibrium", "--set", "sigma2=1e299"],
        ["curve-utility", "--set", "sigma2=1e299"],
        ["validate-asymptotic", "--set", "sigma2=1e299", "--trials", "2"],
    ], ids=["equilibrium", "curve-utility", "validate-asymptotic"])
    def test_overflowing_power_names_the_noise(self, argv, capsys):
        # a user alone at 100 m needs gamma* sigma2 / E[h^2] ~ 5.6e308 W,
        # past the largest float: the error names the keys, where the
        # solve's best response would overflow unnamed
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: distance=100.0: the power a user alone at that "
            "distance needs at sigma2=1e+299 is above the float range\n")

    @pytest.mark.parametrize("argv,code,line", [
        # the lone power, ~5.6e307 W, is a float, but a weak user's best
        # response overflows: it is capped at Pmax, as at sigma2=1e290
        (["equilibrium", "--set", "sigma2=1e298"], 0, ""),
        (["curve-utility", "--set", "sigma2=1e298"], 1,
         "error: distance=100.0, sigma2=1e+298: a user's SIR per watt at "
         "that distance and noise power is outside the float range\n"),
        (["validate-asymptotic", "--set", "sigma2=1e296", "--trials", "2"], 1,
         "error: no feasible draw for MF at N=25 in 100 draws; a user "
         "alone at distance=100.0 needs 5.65e+305 W at the mean gain and "
         "sigma2=1e+296, against Pmax=1.0\n"),
    ], ids=["equilibrium", "curve-utility", "validate-asymptotic"])
    def test_overflowing_best_response_is_capped(self, argv, code, line,
                                                 capsys):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert err == line
        if code == 0:
            rows = [row.split(",") for row in out.splitlines()[1:]]
            assert rows and all(row[2] == "1.0" and row[-1] == "false"
                                for row in rows)

    @pytest.mark.parametrize("table", ["equilibrium", "curve-utility"])
    def test_decorrelator_needs_k_le_n(self, table, capsys):
        assert main([table, "--receiver", "DE", "--set", "K=110"]) == 1
        assert capsys.readouterr() == (
            "", "error: decorrelator needs K <= N, got K=110, N=100\n")

    @pytest.mark.parametrize("argv,line", [
        # a user alone at 1e-73 m needs ~2.8e-306 W, a normal float, but
        # R f(gamma*) / p overflows
        (["equilibrium", "--set", "distance=1e-73"],
         "distance=1e-73, sigma2=5e-16, R=100000.0: a user's utility at "
         "that distance, noise power and rate is outside the float range"),
        # h^2 / sigma2 past the range overflows in the filter products
        (["curve-utility", "--set", "distance=1e-73"],
         "distance=1e-73, sigma2=5e-16: a user's SIR per watt at that "
         "distance and noise power is outside the float range"),
        (["curve-utility", "--set", "sigma2=1e-300", "--set", "R=1e15"],
         "distance=100.0, sigma2=1e-300: a user's SIR per watt at that "
         "distance and noise power is outside the float range"),
    ], ids=["equilibrium-utility", "curve-gain", "curve-noise"])
    def test_arithmetic_error_names_its_keys(self, argv, line, capsys):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_singular_mmse_system_exits_1_without_traceback(self, capsys):
        # K users on N = 3 chips: the noise power is all that keeps the
        # K x K MMSE system regular. K = 100 is past LEAF_ROWS, where the
        # inverse is taken by block elimination
        for K in (30, 100):
            assert main(["equilibrium", "--set", "N=3", "--set", f"K={K}",
                         "--set", "sigma2=1e-200"]) == 1
            assert capsys.readouterr() == (
                "", f"error: the MMSE system of K={K} users is singular at "
                "sigma2=1e-200; raise sigma2 or N\n")


class TestMainEntry:
    def test_callable_without_subprocess(self, capsys):
        assert main(["gamma-star"]) == 0
        assert "dB" in capsys.readouterr().out

    def test_bad_set_syntax(self, capsys):
        assert main(["sweep", "--set", "novalue"]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: --set: expects KEY=VALUE, got 'novalue'\n")


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


def _load_workloads():
    """perfbench/workloads.py as a module, compiled from its text so that
    nothing, not even a bytecode cache, is written under perfbench."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


WORKLOADS = _load_workloads()


class TestBenchmarkTraffic:
    """The README examples the benchmark's cli_tables workload runs, in
    process, judged by the benchmark's own output check: a change that
    would fail a benchmark unit fails here first."""

    @pytest.mark.parametrize("sub,args", [
        (sub, args) for sub, args, _ in WORKLOADS.EXAMPLES],
        ids=[sub for sub, _, _ in WORKLOADS.EXAMPLES])
    def test_example_passes_the_benchmark_check(self, sub, args, capsys):
        code = main([sub, *args, "--seed", "0"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert WORKLOADS.check_output(sub, out)
