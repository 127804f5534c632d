"""Tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
import threading

import pytest

import pooltest
from pooltest import (
    DecoderId,
    Prior,
    epsilon_bound,
    format_design,
    gen_bernoulli,
    gen_individual,
    mean_log_bound,
    new_design,
    parse_design,
    save_design,
    sim,
    to_dict,
)
from pooltest.cli import build_parser, main, run

import helpers

SUBCOMMANDS = ("gen", "reduce", "bound", "figure", "disguise", "decode", "exact-error",
               "simulate", "verify")


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


class TestBoundCommand:
    def test_half(self, capsys):
        assert run(["bound", "-p", "0.5"]) == 0
        text = capsys.readouterr().out
        assert "0.125" in text
        assert any(line.split() == ["w_star", "2"] for line in text.splitlines())

    def test_json_fields(self, capsys):
        assert run(["bound", "-p", "0.3", "--delta", "0.25", "-n", "50", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["epsilon"] == pytest.approx(0.027, rel=1e-12)
        assert data["w_star"] == 2
        assert data["delta"] == 0.25
        assert data["counting_bound"] == pytest.approx(50 * 0.8812908992306927, rel=1e-9)

    def test_bad_p(self, capsys):
        assert run(["bound", "-p", "1.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_text_layout(self, capsys):
        assert run(["bound", "-p", "0.3", "--delta", "0.25", "-n", "100"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "p              0.3",
            "q              0.7",
            "l_star         -2.40794560865",
            "w_star         2",
            "epsilon        0.027",
            "delta          0.25",
            "epsilon_delta  0.0492950301755",
            "counting_bound 88.1290899231",
        ]

    def test_unset_fields_not_printed(self, capsys):
        assert run(["bound", "-p", "0.5"]) == 0
        names = [line.split()[0] for line in out_lines(capsys)]
        assert names == ["p", "q", "l_star", "w_star", "epsilon"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1
        assert capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["bound", "-p", "0.5", "--bogus"]) == 1

    def test_missing_subcommand(self, capsys):
        assert run([]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "pooltest" in capsys.readouterr().out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, command, capsys):
        assert run([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: pooltest {command}")

    def test_decoder_choices_follow_decoder_id(self):
        (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == set(SUBCOMMANDS)
        for name in ("decode", "exact-error", "simulate"):
            decoder = commands.choices[name]._option_string_actions["--decoder"]
            assert decoder.choices == [d.value for d in DecoderId]

    @pytest.mark.parametrize("argv, message", [
        (["gen", "doubly-regular", "-n", "8", "-l", "2"], "doubly-regular designs need -l and -r"),
        (["gen", "bernoulli", "-n", "4", "-T", "2"], "bernoulli designs need -T and --nu"),
        (["figure", "--p-min", "0.1", "--p-max", "0.5", "--steps", "0"],
         "steps must be at least 1"),
    ])
    def test_missing_or_bad_value_exits_one(self, argv, message, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("p, code", [("0.5", 0), ("2", 1)])
    def test_main_exits_with_run_code(self, p, code, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["pooltest", "bound", "-p", p])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code

    def test_bad_seed_environment(self, monkeypatch, capsys):
        # the seed comes from --seed alone; the environment is not read
        monkeypatch.setenv("POOLTEST_SEED", "abc")
        for argv in (["bound", "-p", "0.5"], ["gen", "individual", "-n", "3"]):
            assert run(argv) == 0
            assert capsys.readouterr().err == ""


def run_fresh(argv, stdin=None, stdout=subprocess.PIPE):
    """Run the CLI in a new interpreter; return (exit code, stdout, stderr).

    ``stdout`` goes to `subprocess.run`: stdout is returned only from the default pipe.
    """
    src = os.path.dirname(os.path.dirname(pooltest.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "pooltest.cli", *argv], input=stdin,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestClosedStdout:
    """A reader that closes stdout early (``| head``) ends a run quietly, with exit code 0."""

    @pytest.mark.parametrize("argv", [
        ["bound", "-p", "0.3"],
        ["gen", "doubly-regular", "-n", "200", "-l", "2", "-r", "4"],
        ["disguise", "--design", "-", "-p", "0.3"],
        ["simulate", "--design", "-", "--decoder", "dd", "-p", "0.3", "--trials", "100"],
        ["verify", "--design", "-", "-p", "0.3"],
    ])
    def test_no_error_line_or_traceback(self, argv):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe fails with EPIPE
        try:
            code, _, err = run_fresh(argv, stdin="2 3\n110\n011\n", stdout=write)
        finally:
            os.close(write)
        assert (code, err) == (0, "")


class TestNumericEdgeInputs:
    """A p whose complement rounds to 1 or whose floor scan cannot finish, or an n
    beyond a float, ends in one error line."""

    @pytest.mark.parametrize("argv", [
        ["bound", "-p", "1e-17"],
        ["bound", "-p", "0.5", "-n", "1" + "0" * 400],
        ["figure", "--p-min", "1e-17", "--p-max", "0.5", "--steps", "3"],
        ["verify", "--design", "-", "-p", "1e-17"],
        ["disguise", "--design", "-", "-p", "1e-17"],
        ["bound", "-p", "1e-7"],
    ])
    def test_exit_one_without_traceback(self, argv):
        code, out, err = run_fresh(argv, stdin="2 3\n110\n011\n")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestCachedParser:
    """One parser serves every call in a process, and no call leaks into the next."""

    def test_built_once_per_process(self, capsys):
        assert build_parser() is build_parser()
        build_parser.cache_clear()
        for argv in (["bound", "-p", "0.5"], ["bound", "-p", "2"], ["frobnicate"], ["--help"]):
            run(argv)
        assert build_parser.cache_info().misses == 1

    def test_seed_does_not_stick(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("2 3\n110\n011\n")
        argv = ["simulate", "--design", str(f), "--decoder", "dd", "-p", "0.3",
                "--trials", "1000", "--json"]
        assert run(argv + ["--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["seed"] == 0
        assert run_fresh(argv) == (0, captured.out, captured.err)

    @pytest.mark.parametrize("before", [["bound", "-p"], ["bound", "--bogus"], ["--help"],
                                        ["verify", "--help"]])
    def test_usage_error_or_help_then_valid_call(self, before, capsys):
        argv = ["bound", "-p", "0.3", "--delta", "0.25", "--json"]
        assert run(argv) == 0
        expected = capsys.readouterr()
        run(before)
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_workers_is_unrecognised(self, command, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        decoder = ["--decoder", "map"] if command == "simulate" else []
        assert run([command, "--design", str(f), "-p", "0.3", *decoder, "--workers", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == "error: unrecognized arguments: --workers 2"


class TestFigureCommand:
    def test_csv_shape(self, capsys):
        assert run(["figure", "--p-min", "0.05", "--p-max", "0.95", "--steps", "19"]) == 0
        lines = out_lines(capsys)
        assert lines[0] == "p,L_star,w_star,epsilon"
        assert len(lines) == 20
        row = dict(zip(lines[0].split(","), lines[10].split(",")))
        assert float(row["p"]) == pytest.approx(0.5, abs=1e-12)
        assert float(row["epsilon"]) == pytest.approx(0.125, abs=1e-9)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        assert run(["figure", "--p-min", "0.2", "--p-max", "0.4", "--steps", "3", "-o", str(target)]) == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_bad_grid(self, capsys):
        assert run(["figure", "--p-min", "0.9", "--p-max", "0.1", "--steps", "3"]) == 1

    def test_scan_work_over_budget_exit_one_before_any_scan(self, capsys, monkeypatch):
        # Each scan at p runs past weight (1 - p)/p: 101 steps at p = 1e-4 ask
        # for 1,009,899 weights, over SCAN_CAP = 10^6, and 100 steps do not.
        import pooltest.cli as cli_mod

        def refuse(prior):
            raise AssertionError("figure scanned a grid over its budget")

        monkeypatch.setattr(cli_mod.bounds_mod, "epsilon_bound", refuse)
        for argv in (["--p-min", "1e-4", "--p-max", "1e-4", "--steps", "101"],
                     ["--p-min", "2e-6", "--p-max", "3e-6", "--steps", "10000"]):
            assert run(["figure", *argv]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "budget" in captured.err
        half = epsilon_bound(Prior(0.5))
        monkeypatch.setattr(cli_mod.bounds_mod, "epsilon_bound", lambda prior: half)
        assert run(["figure", "--p-min", "1e-4", "--p-max", "1e-4", "--steps", "100"]) == 0
        assert len(out_lines(capsys)) == 101

    def test_steps_over_budget_exit_one_before_any_step(self, capsys, monkeypatch):
        import pooltest.cli as cli_mod

        def refuse(prior):
            raise AssertionError("figure computed a step over its budget")

        monkeypatch.setattr(cli_mod.bounds_mod, "epsilon_bound", refuse)
        steps = str(cli_mod.FIGURE_STEP_BUDGET + 1)
        assert run(["figure", "--p-min", "0.1", "--p-max", "0.9", "--steps", steps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "budget" in captured.err


class TestGenAndReduce:
    def test_gen_individual_round_trip(self, tmp_path, capsys):
        target = tmp_path / "id3.txt"
        assert run(["gen", "individual", "-n", "3", "-o", str(target)]) == 0
        assert parse_design(target.read_text()) == gen_individual(3)

    def test_gen_bernoulli_needs_params(self, capsys):
        assert run(["gen", "bernoulli", "-n", "5"]) == 1

    def test_gen_bernoulli(self, capsys):
        assert run(["gen", "bernoulli", "-n", "4", "-T", "2", "--nu", "0.5", "--seed", "1"]) == 0
        assert capsys.readouterr().out == format_design(gen_bernoulli(4, 2, 0.5, 1))

    def test_gen_doubly_regular(self, tmp_path, capsys):
        target = tmp_path / "dr.txt"
        assert run(["gen", "doubly-regular", "-n", "8", "-l", "2", "-r", "4", "--seed", "3", "-o", str(target)]) == 0
        d = parse_design(target.read_text())
        assert d.T == 4 and set(d.weights) == {4}

    def test_gen_doubly_regular_failure_exits_one(self, capsys):
        # no collision-free stub matching of 200 items into tests of 20
        assert run(["gen", "doubly-regular", "-n", "200", "-l", "2", "-r", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: no collision-free")

    def test_reduce_output_parses(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("3 3\n000\n100\n111\n")
        out = tmp_path / "red.txt"
        assert run(["reduce", "--design", str(src), "-o", str(out)]) == 0
        reduced = parse_design(out.read_text())
        assert reduced.T == 1 and reduced.n == 2
        assert "# resolved items" in out.read_text()

    def test_reduced_identity_feeds_other_commands(self, tmp_path, capsys):
        # reducing the identity design resolves every item: the header is `0 0`
        src = tmp_path / "id.txt"
        save_design(gen_individual(3), str(src))
        out = tmp_path / "red.txt"
        assert run(["reduce", "--design", str(src), "-o", str(out)]) == 0
        assert out.read_text().endswith("\n0 0\n")
        assert run(["verify", "--design", str(out), "-p", "0.3"]) == 0
        assert "not applicable" in capsys.readouterr().out
        for decoder in ("comp", "dd", "map"):
            assert run(["simulate", "--design", str(out), "--decoder", decoder, "-p", "0.3",
                        "--trials", "5000", "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["errors"] == 0

    def test_stdin_design(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n11\n"))
        assert run(["decode", "--design", "-", "--outcome", "1", "--decoder", "comp"]) == 0
        assert out_lines(capsys) == ["0,1"]


class TestDecodeCommand:
    def test_map_decode(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        assert run(["decode", "--design", str(f), "--outcome", "1", "--decoder", "map", "-p", "0.3"]) == 0
        assert out_lines(capsys) == ["0"]

    def test_map_needs_prior(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        assert run(["decode", "--design", str(f), "--outcome", "1", "--decoder", "map"]) == 1

    def test_missing_options_listed_in_order(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        assert run(["decode", "--design", str(f)]) == 1
        assert capsys.readouterr().err.splitlines()[0] == (
            "error: the following arguments are required: --outcome, --decoder")

    def test_outcome_length_checked(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        assert run(["decode", "--design", str(f), "--outcome", "10", "--decoder", "comp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: outcome vector has 2 bits but the design has 1 tests"]

    @pytest.mark.parametrize("outcome", ["0x", "012"])
    def test_outcome_not_binary(self, outcome, tmp_path, capsys):
        # checked before the length, which is also wrong here
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        assert run(["decode", "--design", str(f), "--outcome", outcome, "--decoder", "comp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: outcome string must contain only 0/1, got {outcome!r}"]

    def test_character_t_is_test_t(self, tmp_path, capsys):
        # on the identity design COMP keeps exactly the items of positive tests
        f = tmp_path / "id4.txt"
        save_design(gen_individual(4), str(f))
        assert run(["decode", "--design", str(f), "--outcome", "1101", "--decoder", "comp"]) == 0
        assert capsys.readouterr().out == "0,1,3\n"

    @pytest.mark.parametrize("decoder, expected", [
        (["comp"], "0,1,2\n"), (["dd"], "\n"), (["map", "-p", "0.3"], "\n"),
    ], ids=["comp", "dd", "map"])
    def test_zero_test_design(self, decoder, expected, tmp_path, capsys):
        # no test clears an item: COMP keeps all three, DD and MAP declare none
        f = tmp_path / "d.txt"
        f.write_text("0 3\n")
        assert run(["decode", "--design", str(f), "--outcome", "", "--decoder", *decoder]) == 0
        assert capsys.readouterr() == (expected, "")


class TestExactErrorCommand:
    def test_value(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        assert run(["exact-error", "--design", str(f), "--decoder", "map", "-p", "0.3"]) == 0
        assert float(out_lines(capsys)[0]) == pytest.approx(0.30, abs=1e-12)

    def test_outcome_walk_value(self, capsys, monkeypatch):
        import io

        design = pooltest.format_design(pooltest.gen_bernoulli(14, 10, 0.3, seed=1))
        monkeypatch.setattr("sys.stdin", io.StringIO(design))
        assert run(["exact-error", "--design", "-", "--decoder", "map", "-p", "0.3"]) == 0
        assert out_lines(capsys) == ["0.798589497958"]


class TestDesignSizeBudget:
    @pytest.mark.parametrize("command", [["disguise", "-p", "0.3"], ["verify", "-p", "0.3"],
                                         ["exact-error", "--decoder", "comp", "-p", "0.3"]])
    def test_over_budget_file_exits_one(self, command, tmp_path, capsys):
        f = tmp_path / "big.txt"
        f.write_text("0 200000\n")
        assert run([command[0], "--design", str(f), *command[1:]]) == 1
        assert "size budget" in capsys.readouterr().err

    def test_over_budget_generator_exits_one(self, capsys):
        assert run(["gen", "individual", "-n", "3000"]) == 1
        captured = capsys.readouterr()
        assert "size budget" in captured.err and captured.out == ""


class TestSimulateCommand:
    def test_json_and_seed_env(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "d.txt"
        save_design(gen_individual(3), str(f))
        monkeypatch.setenv("POOLTEST_SEED", "42")
        assert run(["simulate", "--design", str(f), "--decoder", "map", "-p", "0.3",
                    "--trials", "2000", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 0
        assert data["errors"] == 0
        assert data["ci_low"] == 0.0

    def test_text_layout(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("2 3\n110\n011\n")
        assert run(["simulate", "--design", str(f), "--decoder", "dd", "-p", "0.3",
                    "--trials", "1000", "--seed", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "trials    1000",
            "errors    360",
            "estimate  0.36",
            "ci_low    0.330837729772",
            "ci_high   0.390233762604",
            "seed      2",
            "decoder   dd",
        ]

    def test_three_blocks_one_substream_and_no_thread(self, tmp_path, capsys, monkeypatch):
        def refuse(thread):
            raise AssertionError("simulate started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        f = tmp_path / "d.txt"
        f.write_text("2 3\n110\n011\n")
        trials = 3 * sim.BLOCK_TRIALS
        assert run(["simulate", "--design", str(f), "--decoder", "dd", "-p", "0.3",
                    "--trials", str(trials), "--seed", "7", "--json"]) == 0
        expected = sim.monte_carlo_error(parse_design(f.read_text()), Prior(0.3), DecoderId.DD,
                                         trials, 7, 1)
        assert json.loads(capsys.readouterr().out) == to_dict(expected)

    def test_trial_over_chunk_budget_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK_ELEMENTS", 1000)
        f = tmp_path / "wide.txt"
        f.write_text("0 1001\n")
        assert run(["simulate", "--design", str(f), "--decoder", "comp", "-p", "0.3",
                    "--trials", "10", "--seed", "1"]) == 1
        assert "chunk budget of 1000" in capsys.readouterr().err


class TestVerifyCommand:
    def test_pass_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        assert run(["verify", "--design", str(f), "-p", "0.3"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_identity_not_applicable(self, tmp_path, capsys):
        f = tmp_path / "id.txt"
        save_design(gen_individual(3), str(f))
        assert run(["verify", "--design", str(f), "-p", "0.5"]) == 0
        assert "not applicable" in capsys.readouterr().out

    def test_violation_exits_two(self, tmp_path, capsys, monkeypatch):
        # Either a failed floor check or a failed disguise check exits 2; each
        # failed disguise check prints its item, exact value and bound.
        import pooltest.cli as cli_mod
        from pooltest.sim import LemmaCheck, VerificationReport

        def fake_verify(design, prior, trials=0, seed=0):
            return VerificationReport(
                design_summary="stub",
                p=prior.p,
                epsilon_floor=0.5,
                observed_error=0.1,
                method="exact-map",
                applicable=True,
                theorem_pass=theorem_pass,
                lemma_checks=lemma_checks,
                lemma_skipped=(),
            )

        monkeypatch.setattr(cli_mod.sim_mod, "verify_theorem", fake_verify)
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        theorem_pass, lemma_checks = False, ()
        assert run(["verify", "--design", str(f), "-p", "0.3"]) == 2
        assert "floor_check     FAIL" in out_lines(capsys)

        theorem_pass = True
        lemma_checks = (LemmaCheck(item=0, exact=0.5, bound=0.5, passed=True),
                        LemmaCheck(item=1, exact=0.25, bound=0.5, passed=False))
        assert run(["verify", "--design", str(f), "-p", "0.3"]) == 2
        lines = out_lines(capsys)
        assert "floor_check     pass" in lines
        assert "disguise_checks 2 checked, 1 failed, 0 skipped" in lines
        assert lines[-1] == "  item 1: exact 0.25 < bound 0.5"

    def test_bad_run_arguments_exit_one_on_every_path(self, tmp_path, capsys):
        # a 3-item design takes the exact-map path, a 31-item one Monte Carlo
        for n in (3, 31):
            f = tmp_path / f"id{n}.txt"
            save_design(gen_individual(n), str(f))
            args = ["verify", "--design", str(f), "-p", "0.3"]
            for bad, message in ((["--trials", "-1", "--seed", "-3"], "trials must be positive"),
                                 (["--trials", "0"], "trials must be positive"),
                                 (["--seed", "-3"], "seed must be nonnegative")):
                assert run(args + bad) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(f"error: {message}")

    def test_json_output(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n11\n")
        assert run(["verify", "--design", str(f), "-p", "0.3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["theorem_pass"] is True


class TestDisguiseCommand:
    def test_table_and_chain(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("2 3\n110\n011\n")
        assert run(["disguise", "--design", str(f), "-p", "0.5"]) == 0
        lines = out_lines(capsys)
        assert lines[0].split() == ["item", "L_i", "fkg_bound", "exact"]
        assert len(lines) == 1 + 3 + 2
        assert lines[-2].startswith("L_bar,")

    def test_json_round_trip(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("2 3\n110\n011\n")
        assert run(["disguise", "--design", str(f), "-p", "0.5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        report = mean_log_bound(parse_design(f.read_text()), Prior(0.5), exact_budget=20)
        assert data == helpers.json_reference(report)
        assert data["chain_applicable"]

    def test_missing_file(self, capsys):
        assert run(["disguise", "--design", "/nonexistent/x.txt", "-p", "0.5"]) == 1

    def test_chain_not_applicable_without_tests(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("0 0\n")
        assert run(["disguise", "--design", str(f), "-p", "0.3"]) == 0
        assert out_lines(capsys)[-1] == "0,0,,,-2.40794560865,false"

    def test_exact_budget_capped_at_co_item_budget(self, tmp_path, capsys):
        # items 0-26 share one 27-item test, so each has 26 co-items: over the cap of 25
        f = tmp_path / "wide.txt"
        save_design(new_design([set(range(27)), {27, 28}, {28, 29}], 30), str(f))
        tables = {}
        for budget in ("0", "25", "30"):
            assert run(["disguise", "--design", str(f), "-p", "0.3", "--exact-budget", budget]) == 0
            tables[budget] = out_lines(capsys)
        assert tables["30"] == tables["25"]
        exact = {int(line.split()[0]): line.split()[3] for line in tables["25"][1:31]}
        assert [i for i, value in exact.items() if value == "-"] == list(range(27))
        assert all(line.split()[3] == "-" for line in tables["0"][1:31])

    @pytest.mark.parametrize("budget", ["-1", "-3"])
    def test_negative_exact_budget_exits_one(self, budget, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("2 3\n110\n011\n")
        assert run(["disguise", "--design", str(f), "-p", "0.3", "--exact-budget", budget]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: exact budget must be nonnegative, got {budget}"]
