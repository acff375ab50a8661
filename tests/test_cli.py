import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bentice import cli, identities
from bentice.cli import EXIT_CAP, EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import STATES, op_argv  # noqa: E402


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestVerbs:
    def test_enumerate_count(self, capsys):
        code, report = invoke(capsys, "enumerate", "--family", "A",
                              "--lambda", "2,1", "--emit", "count")
        assert code == EXIT_PASS
        assert report["data"]["count"] == 2

    def test_enumerate_count_builds_no_state(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate --emit count enumerated the states")

        monkeypatch.setattr(cli, "enumerate_states", refuse)
        code, report = invoke(capsys, "enumerate", "--family", "B",
                              "--lambda", "4,3,2,1", "--emit", "count")
        assert code == EXIT_PASS
        assert report["data"] == {"count": 5544}

    def test_partition_latex(self, capsys):
        code, report = invoke(capsys, "partition", "--family", "B", "--lambda", "1",
                              "--scheme", "deformation", "--emit", "latex")
        assert code == EXIT_PASS
        assert report["data"]["z"] == "1 - t_{1} x_{1}"

    def test_verify_okada(self, capsys):
        code, report = invoke(capsys, "verify", "okada", "--family", "B", "--n", "2")
        assert code == EXIT_PASS
        assert report["verdict"] == "pass"

    def test_verify_rho_all_families(self, capsys):
        code, report = invoke(capsys, "verify", "rho", "--family", "all", "--n", "1")
        assert code == EXIT_PASS
        assert len(report["data"]) == 12  # six families, two regimes

    def test_verify_relations(self, capsys):
        for argv in (["verify", "ybe", "--family", "B"],
                     ["verify", "bend", "--family", "B"],
                     ["verify", "fish", "--family", "B"],
                     ["verify", "jellyfish", "--family", "Bstar"],
                     ["verify", "caduceus", "--family", "Bstar"]):
            code, report = invoke(capsys, *argv)
            assert code == EXIT_PASS, argv
            assert report["verdict"] == "pass"

    def test_verify_divisibility(self, capsys):
        code, report = invoke(capsys, "verify", "divisibility", "--family", "B",
                              "--lambda", "3,1", "--scheme", "deformation")
        assert code == EXIT_PASS
        assert report["data"]["symmetry"]["ok"]

    def test_verify_character_and_tokuyama(self, capsys):
        code, _ = invoke(capsys, "verify", "character", "--family", "Cstar",
                         "--lambda", "3,1")
        assert code == EXIT_PASS
        code, _ = invoke(capsys, "verify", "tokuyama", "--lambda", "2,1")
        assert code == EXIT_PASS

    def test_character_emits_chi(self, capsys):
        code, report = invoke(capsys, "character", "--family", "C",
                              "--mu", "1,0", "--emit", "latex")
        assert code == EXIT_PASS
        assert "x_{1}" in report["data"]["chi"]

    def test_character_family_a_is_the_schur_polynomial(self, capsys):
        code, report = invoke(capsys, "character", "--family", "A",
                              "--mu", "1,0", "--emit", "latex")
        assert code == EXIT_PASS
        assert report["data"]["chi"] == "x_{2} + x_{1}"

    def test_asm_export(self, capsys):
        code, report = invoke(capsys, "asm", "--family", "B", "--lambda", "2,1")
        assert code == EXIT_PASS
        assert report["data"]["count"] == 10
        assert len(report["data"]["stats"]) == 10

    def test_enumerate_tikz(self, capsys):
        code, report = invoke(capsys, "enumerate", "--family", "B",
                              "--lambda", "1", "--emit", "tikz")
        assert code == EXIT_PASS
        assert report["data"]["tikz"][0].startswith("\\begin{tikzpicture}")


class TestExitCodes:
    def test_invalid_lambda(self, capsys):
        code, _ = invoke(capsys, "enumerate", "--family", "A", "--lambda", "3,3")
        assert code == EXIT_INPUT

    def test_asm_rejects_family_bc_before_enumerating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("asm --family BC enumerated the states")

        monkeypatch.setattr(cli, "enumerate_states", refuse)
        code, report = invoke(capsys, "asm", "--family", "BC", "--lambda", "2,1")
        assert code == EXIT_INPUT
        assert report == {"verb": "asm", "error": "BC states export via transposition "
                          "of the D family; no direct matrix dictionary"}

    def test_cap_exceeded(self, capsys):
        code, _ = invoke(capsys, "enumerate", "--family", "A", "--lambda", "9,1")
        assert code == EXIT_CAP

    def test_cap_override_allows(self, capsys):
        code, _ = invoke(capsys, "enumerate", "--family", "A", "--lambda", "9,1",
                         "--max-cols", "9", "--emit", "count")
        assert code == EXIT_PASS

    @pytest.mark.parametrize("verb, emit", [
        (verb, emit) for verb, emits in cli.EMITS.items()
        for emit in ("json", "latex", "tikz", "count", "text") if emit not in emits])
    def test_emit_the_verb_cannot_render_is_input_error(self, capsys, verb, emit):
        argv = [verb, "--family", "B", "--lambda", "2,1", "--mu", "1,0", "--emit", emit]
        if verb == "verify":
            argv.insert(1, "ybe")
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert f"invalid choice: {emit!r}" in err
        named = err.split("choose from", 1)[1]
        assert all(allowed in named for allowed in cli.EMITS[verb])

    @pytest.mark.parametrize("verb", cli.EMITS)
    def test_every_rendered_emit_is_accepted(self, verb):
        for emit in cli.EMITS[verb]:
            args = cli.build_parser().parse_args([verb, "--emit", emit] + (
                ["ybe"] if verb == "verify" else []))
            assert args.emit == emit

    def test_verify_error_reports_name_the_check(self, capsys, monkeypatch):
        # pass, fail and error reports all name the verb as "verify <check>"
        code, report = invoke(capsys, "verify", "divisibility", "--family", "Z",
                              "--lambda", "2,1")
        assert code == EXIT_INPUT
        assert report == {"verb": "verify divisibility", "error":
                          "unknown family 'Z'; choose from "
                          "('A', 'B', 'Bstar', 'C', 'Cstar', 'D', 'BC') or 'all'"}
        monkeypatch.delenv("BENTICE_MAX_N", raising=False)
        monkeypatch.delenv("BENTICE_MAX_COLS", raising=False)
        code, report = invoke(capsys, "verify", "bijection", "--family", "B", "--n", "5")
        assert code == EXIT_CAP
        assert report == {"verb": "verify bijection",
                          "error": "model B^[5, 4, 3, 2, 1] exceeds caps n<=4, lambda_1<=8"}

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_missing_lambda(self, capsys):
        code, _ = invoke(capsys, "partition", "--family", "B")
        assert code == EXIT_INPUT

    def test_family_a_generic_divisibility_is_input_error(self, capsys):
        code, report = invoke(capsys, "verify", "divisibility", "--family", "A",
                              "--lambda", "3,1", "--scheme", "generic")
        assert code == EXIT_INPUT
        assert report["error"] == "family A has no generic factor list"

    @pytest.mark.parametrize("argv, error", [
        ("verify okada --family A --n 2",
         "family A supports tokuyama/generic weights, not 'okada'"),
        ("verify divisibility --family B --lambda 2,1 --scheme okada",
         "unknown regime 'okada'"),
        ("verify divisibility --family A --lambda 2,1 --scheme generic",
         "family A has no generic factor list"),
    ], ids=["okada-A", "divisibility-okada", "divisibility-A-generic"])
    def test_regime_error_reports(self, capsys, argv, error):
        assert main(argv.split()) == EXIT_INPUT
        assert capsys.readouterr().out == (
            '{\n  "verb": "%s",\n  "error": "%s"\n}\n' % (" ".join(argv.split()[:2]), error))

    def test_unparsable_mu_is_input_error(self, capsys):
        code, report = invoke(capsys, "character", "--family", "B", "--mu", "1,,0")
        assert code == EXIT_INPUT
        assert report == {"verb": "character", "error": "cannot parse mu '1,,0'"}

    @pytest.mark.parametrize("lam", ["3,,1", ",3,1,"])
    def test_empty_partition_part_is_input_error(self, capsys, lam):
        code, report = invoke(capsys, "enumerate", "--family", "A", "--lambda", lam,
                              "--emit", "count")
        assert code == EXIT_INPUT
        assert report == {"verb": "enumerate", "error": f"cannot parse partition {lam!r}"}

    def test_family_a_rho_runs_the_deformation_regime(self, capsys):
        # family A has a deformation factor list only, so that is all verify rho runs
        code, report = invoke(capsys, "verify", "rho", "--family", "A", "--n", "2")
        assert code == EXIT_PASS
        assert report["data"] == {"A:deformation": True}

    def test_family_a_character_identity_is_input_error(self, capsys):
        code, report = invoke(capsys, "verify", "character", "--family", "A",
                              "--lambda", "2,1")
        assert code == EXIT_INPUT
        assert "verify tokuyama" in report["error"]

    @pytest.mark.parametrize("check", ["rho", "okada", "bijection"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_rank_below_one_is_input_error(self, capsys, check, n):
        code, report = invoke(capsys, "verify", check, "--family", "B", "--n", n)
        assert code == EXIT_INPUT
        assert report["error"] == f"--n must be at least 1, got {n}"

    @pytest.mark.parametrize("argv", [
        ["character", "--mu", "1,0"],
        ["enumerate", "--lambda", "2,1", "--emit", "count"],
        ["partition", "--lambda", "2,1"],
        ["asm", "--lambda", "2,1"],
        ["verify", "ybe"],
        ["verify", "bend"],
        ["verify", "fish"],
        ["verify", "jellyfish"],
        ["verify", "caduceus"],
        ["verify", "divisibility", "--lambda", "2,1"],
        ["verify", "character", "--lambda", "2,1"],
        ["verify", "bijection", "--n", "2"],
        ["verify", "tokuyama", "--lambda", "2,1"],
    ], ids=" ".join)
    def test_family_all_on_a_single_family_verb_is_input_error(self, capsys, argv):
        code, report = invoke(capsys, *argv, "--family", "all")
        assert code == EXIT_INPUT
        assert "'verify rho' and 'verify okada'" in report["error"]

    @pytest.mark.parametrize("argv, error", [
        ("verify tokuyama --family C --lambda 3,1",
         "the Tokuyama identity is stated for family A only"),
        ("verify bijection --family C --n 2",
         "the bijection with sign matrices is checked for family B only"),
        ("verify bend --family A",
         "bend relations exist for families ['B', 'BC', 'Bstar', 'C', 'Cstar', 'D']"),
    ], ids=["tokuyama-C", "bijection-C", "bend-A"])
    def test_family_without_the_identity_is_input_error(self, capsys, argv, error):
        code, report = invoke(capsys, *argv.split())
        assert code == EXIT_INPUT
        assert report == {"verb": " ".join(argv.split()[:2]), "error": error}

    def test_family_a_tokuyama_is_the_default(self, capsys):
        code, named = invoke(capsys, "verify", "tokuyama", "--family", "A", "--lambda", "3,1")
        assert code == EXIT_PASS
        code, default = invoke(capsys, "verify", "tokuyama", "--lambda", "3,1")
        assert code == EXIT_PASS
        assert named["data"] == default["data"]

    def test_unknown_family_on_bijection_is_input_error(self, capsys):
        code, report = invoke(capsys, "verify", "bijection", "--family", "Z", "--n", "2")
        assert code == EXIT_INPUT
        assert report == {"verb": "verify bijection", "error":
                          "unknown family 'Z'; choose from "
                          "('A', 'B', 'Bstar', 'C', 'Cstar', 'D', 'BC') or 'all'"}

    def test_character_honours_the_rank_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("BENTICE_MAX_N", raising=False)
        monkeypatch.delenv("BENTICE_MAX_COLS", raising=False)
        code, report = invoke(capsys, "character", "--family", "B",
                              "--mu", "1,0,0", "--max-n", "2")
        assert code == EXIT_CAP
        # the model B^(mu + rho), refused as verify character --lambda 4,2,1 is
        assert report["error"] == "model B^[4, 2, 1] exceeds caps n<=2, lambda_1<=8"
        monkeypatch.setenv("BENTICE_MAX_N", "2")
        code, _ = invoke(capsys, "character", "--family", "B", "--mu", "1,0,0")
        assert code == EXIT_CAP
        code, _ = invoke(capsys, "character", "--family", "B", "--mu", "1,0,0",
                         "--max-n", "3")
        assert code == EXIT_PASS

    def test_a_long_refused_model_is_named_by_its_shape(self, capsys, monkeypatch):
        monkeypatch.delenv("BENTICE_MAX_N", raising=False)
        monkeypatch.delenv("BENTICE_MAX_COLS", raising=False)
        code = main(["verify", "rho", "--family", "B", "--n", "1000000"])
        out = capsys.readouterr().out
        assert code == EXIT_CAP and len(out.encode()) < 1024
        assert json.loads(out) == {"verb": "verify rho", "error": "model B^[1000000, 999999, "
                                   "..., 1] (1000000 parts) exceeds caps n<=4, lambda_1<=8"}
        # up to 8 parts the model is listed in full
        code, report = invoke(capsys, "verify", "rho", "--family", "B", "--n", "8")
        assert report["error"] == "model B^[8, 7, 6, 5, 4, 3, 2, 1] exceeds caps n<=4, lambda_1<=8"
        code, report = invoke(capsys, "enumerate", "--family", "A", "--lambda", "11,9,8,7,6,5,4,3,2")
        assert report["error"] == ("model A^[11, 9, ..., 2] (9 parts) "
                                   "exceeds caps n<=4, lambda_1<=8")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_input_error(self, capsys, workers):
        for argv in (["verify", "rho", "--family", "B", "--n", "2"],
                     ["verify", "okada", "--family", "all", "--n", "2"],
                     ["verify", "ybe", "--family", "B"]):
            code, report = invoke(capsys, *argv, "--workers", workers)
            assert (code, report) == (EXIT_INPUT, {
                "verb": verb_of(argv), "error": f"--workers must be at least 1, got {workers}"})

    def test_every_command_checks_family_inputs_caps_then_runs(self, capsys, monkeypatch):
        # the scheme is built by the runner, after the caps
        monkeypatch.delenv("BENTICE_MAX_N", raising=False)
        monkeypatch.delenv("BENTICE_MAX_COLS", raising=False)
        code, report = invoke(capsys, "partition", "--family", "A", "--lambda", "9,1",
                              "--scheme", "okada")
        assert (code, report["error"]) == (EXIT_CAP, "model A^[9, 1] exceeds caps n<=4, lambda_1<=8")
        # and the family before the inputs and the caps
        code, report = invoke(capsys, "asm", "--family", "BC", "--lambda", "9,1", "--n", "2")
        assert (code, report["error"]) == (EXIT_INPUT, cli.COMMANDS["asm"].refusal)

    def test_self_check_failure_is_exit_2(self, capsys, monkeypatch):
        # the value check refutes a division that the exact division then performs
        point = {"x_1": 3, "t_1": 5}
        monkeypatch.setattr(identities, "probabilistic_divides",
                            lambda num, den, rng: (False, point))
        code, report = invoke(capsys, "verify", "divisibility", "--family", "B",
                              "--lambda", "2,1")
        assert code == EXIT_FAIL
        assert report["verdict"] == "fail"
        assert report["data"]["error"] == (
            f"value check refuted divisibility at {point} but exact division succeeded")

    def test_verification_failure_is_exit_2(self, capsys, monkeypatch):
        # lambda with a repeated part is an input error, and every shipped
        # check holds on every valid input: make the character check fail
        real = cli.character_theorem_check

        def failing(family, lam):
            return {**real(family, lam), "ok": False}

        monkeypatch.setattr(cli, "character_theorem_check", failing)
        code, report = invoke(capsys, "verify", "character", "--family", "D",
                              "--lambda", "3,2")
        assert code == EXIT_FAIL
        assert report["verdict"] == "fail"


# every verb that builds a model, with the first model it would enumerate
MODEL_VERBS = [
    (["enumerate", "--family", "B", "--lambda", "3,1"], "B", [3, 1]),
    (["enumerate", "--family", "B", "--lambda", "3,1", "--emit", "tikz"], "B", [3, 1]),
    (["enumerate", "--family", "B", "--lambda", "3,1", "--emit", "count"], "B", [3, 1]),
    (["enumerate", "--family", "C", "--lambda", "5,3,1", "--emit", "count"], "C", [5, 3, 1]),
    (["partition", "--family", "B", "--lambda", "3,1"], "B", [3, 1]),
    (["asm", "--family", "B", "--lambda", "3,1"], "B", [3, 1]),
    (["asm", "--family", "B", "--lambda", "3,2,1"], "B", [3, 2, 1]),
    (["verify", "divisibility", "--family", "B", "--lambda", "3,1"], "B", [3, 1]),
    (["verify", "character", "--family", "C", "--lambda", "3,1"], "C", [3, 1]),
    (["verify", "tokuyama", "--lambda", "3,1"], "A", [3, 1]),
    (["verify", "rho", "--family", "B", "--n", "3"], "B", [3, 2, 1]),
    (["verify", "rho", "--family", "all", "--n", "2"], "B", [2, 1]),
    (["verify", "okada", "--family", "C", "--n", "3"], "C", [3, 2, 1]),
    (["verify", "okada", "--family", "all", "--n", "2"], "B", [2, 1]),
    (["verify", "bijection", "--n", "3"], "B", [3, 2, 1]),
    (["character", "--family", "B", "--mu", "1,0"], "B", [3, 1]),
]
CAP_ENV = {"--max-n": "BENTICE_MAX_N", "--max-cols": "BENTICE_MAX_COLS"}


def verb_of(argv) -> str:
    """The verb as a report names it."""
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


def set_cap(monkeypatch, cap, source, value) -> list:
    """Set one cap from the flag or from its environment variable; returns the flags."""
    for name in CAP_ENV.values():
        monkeypatch.delenv(name, raising=False)
    if source == "env":
        monkeypatch.setenv(CAP_ENV[cap], str(value))
        return []
    return [cap, str(value)]


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("cap", CAP_ENV)
@pytest.mark.parametrize("argv, family, lam", MODEL_VERBS,
                         ids=[" ".join(argv) for argv, _, _ in MODEL_VERBS])
class TestEveryModelVerbHonoursTheCaps:
    @staticmethod
    def reach(cap, lam):
        return len(lam) if cap == "--max-n" else lam[0]

    def test_one_step_past_the_cap_is_refused_like_enumerate(
            self, capsys, monkeypatch, argv, family, lam, cap, source):
        limit = self.reach(cap, lam) - 1
        flags = set_cap(monkeypatch, cap, source, limit)
        caps = {"--max-n": 4, "--max-cols": 8, cap: limit}
        error = (f"model {family}^{lam} exceeds caps "
                 f"n<={caps['--max-n']}, lambda_1<={caps['--max-cols']}")
        assert invoke(capsys, "enumerate", "--family", family,
                      "--lambda", ",".join(map(str, lam)), *flags) == \
            (EXIT_CAP, {"verb": "enumerate", "error": error})
        assert invoke(capsys, *argv, *flags) == (EXIT_CAP, {"verb": verb_of(argv), "error": error})

    def test_at_the_cap_runs(self, capsys, monkeypatch, argv, family, lam, cap, source):
        flags = set_cap(monkeypatch, cap, source, self.reach(cap, lam))
        code, _ = invoke(capsys, *argv, *flags)
        assert code == EXIT_PASS

    def test_a_cap_that_is_not_an_integer_is_an_input_error(
            self, capsys, monkeypatch, argv, family, lam, cap, source):
        flags = set_cap(monkeypatch, cap, source, "abc")
        code, report = invoke(capsys, *argv, *flags)
        assert code == EXIT_INPUT
        if source == "env":
            # the report names the variable and its value
            assert report == {"verb": verb_of(argv),
                              "error": f"{CAP_ENV[cap]}='abc' is not an integer"}

    @pytest.mark.parametrize("value", [0, -1])
    def test_a_cap_below_one_is_an_input_error(
            self, capsys, monkeypatch, argv, family, lam, cap, source, value):
        flags = set_cap(monkeypatch, cap, source, value)
        error = (f"{CAP_ENV[cap]}='{value}' must be at least 1" if source == "env"
                 else f"{cap} must be at least 1, got {value}")
        assert invoke(capsys, *argv, *flags) == (
            EXIT_INPUT, {"verb": verb_of(argv), "error": error})


# a valid value of each input a command may read
VALID = {"lambda": "2,1", "mu": "1,0", "scheme": "generic", "n": "2"}


def command_argv(name, family) -> list:
    """The command on one family (None: no --family) with valid inputs and its default scheme."""
    reads = [flag for flag in cli.COMMANDS[name].reads if flag != "scheme"]
    return (name.split() + (["--family", family] if family else [])
            + [arg for flag in reads for arg in (f"--{flag}", VALID[flag])])


class TestCommandTable:
    @pytest.mark.parametrize("name, family", [
        (name, family) for name in cli.COMMANDS for family in cli.FAMILIES + ("all",)])
    def test_each_command_runs_exactly_the_families_it_lists(self, capsys, name, family):
        row = cli.COMMANDS[name]
        code, report = invoke(capsys, *command_argv(name, family))
        if family in row.families:
            assert code == EXIT_PASS, report
        elif family == "all":
            assert code == EXIT_INPUT
            assert "'verify rho' and 'verify okada'" in report["error"]
        else:
            assert (code, report) == (EXIT_INPUT, {"verb": name, "error": row.refusal})

    @pytest.mark.parametrize("name", cli.COMMANDS)
    def test_a_row_for_one_family_runs_it_by_default(self, capsys, name):
        families = cli.COMMANDS[name].families
        code, report = invoke(capsys, *command_argv(name, None))
        if len(families) == 1:
            _, named = invoke(capsys, *command_argv(name, families[0]))
            assert code == EXIT_PASS
            assert (report["verdict"], report["data"]) == (named["verdict"], named["data"])
        else:
            assert (code, report["error"]) == (EXIT_INPUT, "--family is required for this verb")

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, row in cli.COMMANDS.items() for flag in VALID
        if flag not in row.reads])
    def test_a_flag_the_command_does_not_read_is_input_error(self, capsys, name, flag):
        argv = command_argv(name, cli.COMMANDS[name].families[0])
        code, report = invoke(capsys, *argv, f"--{flag}", VALID[flag])
        assert (code, report) == (EXIT_INPUT,
                                  {"verb": name, "error": f"{name} does not read --{flag}"})

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "5"), ("--workers", "2"), ("--max-n", "4"), ("--max-cols", "8")])
    def test_the_run_flags_are_accepted_by_every_command(self, capsys, flag, value):
        for name, row in cli.COMMANDS.items():
            code, _ = invoke(capsys, *command_argv(name, row.families[0]), flag, value)
            assert code == EXIT_PASS, name

    def test_every_command_that_names_a_model_has_a_caps_row(self):
        # MODEL_VERBS writes its models out by hand, independent of the table
        named = {name for name, row in cli.COMMANDS.items()
                 if {"lambda", "n", "mu"} & set(row.reads)}
        assert {verb_of(argv) for argv, _, _ in MODEL_VERBS} == named

    def test_the_parser_takes_the_table_rows(self, capsys):
        parser = cli.build_parser()
        for name in cli.COMMANDS:
            args = parser.parse_args(name.split())
            assert name == (f"verify {args.check}" if args.verb == "verify" else args.verb)
        assert main(["verify", "frobnicate"]) == EXIT_INPUT


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        runs = []
        for _ in range(2):
            code, report = invoke(capsys, "verify", "divisibility", "--family", "B",
                                  "--lambda", "3,1", "--seed", "7")
            assert code == EXIT_PASS
            report.pop("elapsed_ms")
            runs.append(json.dumps(report, sort_keys=False))
        assert runs[0] == runs[1]

    def test_enumerate_json_stable(self, capsys):
        outs = set()
        for _ in range(2):
            _, report = invoke(capsys, "enumerate", "--family", "B", "--lambda", "2,1")
            report.pop("elapsed_ms")
            outs.add(json.dumps(report))
        assert len(outs) == 1


class PoolRecorder:
    """Stands in for ProcessPoolExecutor: records the pool size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkers:
    def test_pool_size_is_clamped(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolRecorder)
        monkeypatch.setattr(PoolRecorder, "sizes", [])
        items = [-1, -2, -3]
        for cpus in (8, 2, None):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            assert cli._pool_map(abs, items, 64) == [1, 2, 3]
        # three items on eight CPUs, then two CPUs; no pool when the CPU count is unknown
        assert PoolRecorder.sizes == [3, 2]

    def test_verify_clamps_to_the_subcases(self, capsys, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolRecorder)
        monkeypatch.setattr(PoolRecorder, "sizes", [])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        code, report = invoke(capsys, "verify", "okada", "--family", "all",
                              "--n", "1", "--workers", "1000")
        assert code == EXIT_PASS
        assert PoolRecorder.sizes == [6]
        assert report["inputs"]["workers"] == 1000

    def test_importing_the_cli_loads_no_process_pool(self):
        # multiprocessing comes in only when a verb fans out over workers
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        probe = "import sys, bentice.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


# (exit code, sha256 of json.dumps([exit code, report without elapsed_ms]))
# for every relation verb x family x --scheme (None: the verb's default),
# recorded before the relation layer weighed local diagrams straight from
# the WeightScheme.  `verify bend` on a family with fewer than two bend
# rows (BC at n = 2, the Tokuyama weights of family A) was re-recorded when
# it stopped ending in a KeyError traceback and started exiting 3.  Five
# passing reports (fish D and jellyfish C under deformation and okada
# weights, fish D under character weights) were re-recorded when division
# became complete over the Laurent ring: their constant ratio, which
# equals the closed form, used to print as null.  The 70 input-error
# reports (exit 3) were re-recorded when their "verb" field became
# "verify <check>", as in pass and fail reports, instead of "verify"; the
# rest of each of those reports is unchanged.  The ten `verify bend`
# reports of families A and BC were re-recorded when the check stopped
# reading the wrong rows: family A's model has no bend, so it is refused
# (exit 3) before any scheme is built, and family BC is built at rank 3,
# where rows 1 and 2 both bend, and passes with 16 checked under every
# scheme (at rank 2 its row 2 is the central row and it exited 3).
RELATION_REPORTS = {
    ('ybe', 'A', None): (0, 'd2e51a5d09d10ac8a10c15216ae1c6e17fbd8c8c689166d514e48aec7cc13ca2'),
    ('ybe', 'A', 'generic'): (0, '7b5b4774ba8d6a016a58fce0fcc961ac53e52cb43177653e2e3259d175d71a14'),
    ('ybe', 'A', 'deformation'): (0, '261fd79d38fbae5380def71c4750c250d9c73356a051ac65fb1c4d06f806b565'),
    ('ybe', 'A', 'okada'): (3, 'ca383667314cf2231dceaa34885d332b90693e624d661984e7f088a9981d6edb'),
    ('ybe', 'A', 'character'): (3, '32ddbe0ffbd490f776d5755862d592fc751447c46e920501fef813d783eef0fe'),
    ('ybe', 'B', None): (0, 'e954d6f4d8781dc4bdf4d11677625a34ea1358d6c88c97022b7439ad2e088f00'),
    ('ybe', 'B', 'generic'): (0, '53dd4f092c2e4285424b7a1a232b5aebbdca4e08b44b4da4051d5517e65b9eaf'),
    ('ybe', 'B', 'deformation'): (0, 'dab51a6abbe6a8454007fd3d713b6e64dc0d6815fe5b776d63ac42c40efddc6c'),
    ('ybe', 'B', 'okada'): (0, 'e171956a26b3e8928cffcf21287da0f6f46722476aa8cc5f03fe59d0b3715294'),
    ('ybe', 'B', 'character'): (0, '46b37faf9b5526d111fffc539fe0c9ecae694550854aacbd6d6d142f3c672ebb'),
    ('ybe', 'Bstar', None): (0, '9f63134c9fcdc0118171c3069d00db5199d8497f8336cfaf8068a5592594ddbd'),
    ('ybe', 'Bstar', 'generic'): (0, 'c6c1b48022b989bc89a1aa015cefc93075f0f25a3760410d099f01bed4f3685b'),
    ('ybe', 'Bstar', 'deformation'): (0, '3c8feb1c183e407f5d8e343da0f208436d933a1f3b9cd34a16b52bd7fca048a1'),
    ('ybe', 'Bstar', 'okada'): (0, '4858f1f226cb161a8ac2e4233945c9d9778f73367ada9c7de341f24242a52bea'),
    ('ybe', 'Bstar', 'character'): (0, '4d7b29da4aea27b2352e6c2827a516f27812ace8bc4812122836385e552b6c04'),
    ('ybe', 'C', None): (0, '85dd5812306eb6d2991fda23438ffc6b064a7b66370b7de7c50c141049073eb1'),
    ('ybe', 'C', 'generic'): (0, '65552270a684338e16d34ecffa02e7eb72ffbbeb348a7fccac215981fa9aeda5'),
    ('ybe', 'C', 'deformation'): (0, '3c1e50429c93465792600944f44c703561264ebc2b6cf44802bce91db589a7ce'),
    ('ybe', 'C', 'okada'): (0, 'd434aa9df4875431dc04e9434052d0bca2efdb593b4debb48d20f8e82a72ff03'),
    ('ybe', 'C', 'character'): (0, '07d32f75d8387eabeb822d14da5cd7ff3beb9540105d36004817b393b8a6cbef'),
    ('ybe', 'Cstar', None): (0, 'a8a4cfbf08f204d30b24dc2ae2cc1d10864d84f54bd203095973adeaf5ea9049'),
    ('ybe', 'Cstar', 'generic'): (0, 'c5037a5171c9748458718c9822fcc1dd9dc2857485a15d8eb481426511c1cf3f'),
    ('ybe', 'Cstar', 'deformation'): (0, 'c394313ec325183c5e5abe9f1bb39d5cd2b8e5ed7827baa95553d932a750fb63'),
    ('ybe', 'Cstar', 'okada'): (0, '3eb78017dd7d3f04d952edeed44a063a263fec20c891ac653c1d6b7ac5b30339'),
    ('ybe', 'Cstar', 'character'): (0, 'd64c16608d7863bd0013862744d7ea210a9243d6c4624abacd5d093a96b79c1b'),
    ('ybe', 'D', None): (0, 'dc3719ef2936bc69063076c886cc99eb8712e05a646ef9ad0ced78899c4a9ab5'),
    ('ybe', 'D', 'generic'): (0, '07d77c9d132e1db45c9fe8c5ec26b30a3d819e65285d91641965a87722fa64f0'),
    ('ybe', 'D', 'deformation'): (0, '7edc359362b4289974e4d01317f82c368fe720957bcbecbb9f083ddcc7e25a05'),
    ('ybe', 'D', 'okada'): (0, '2dcc6e61989e925e82513c78c332527733742cc084cb2254dff1727fe5a72a16'),
    ('ybe', 'D', 'character'): (0, 'fa9ae7ac2314239088665bba53ba5f4459a5cb748cd294c2d535a0334490b2e2'),
    ('ybe', 'BC', None): (0, '14fc141e98f70b4846e8982dcee604eedbfda8e7a8282e80a5f8349df8b515eb'),
    ('ybe', 'BC', 'generic'): (0, '138b98bc2f415ad09586591c8df2dcb20aa3a5fedfa6182d4237116674c7400f'),
    ('ybe', 'BC', 'deformation'): (0, 'bb2d4096a7c02ba57601ca8ae31a91a88461577963576ca778f6c9703ec63e69'),
    ('ybe', 'BC', 'okada'): (0, '7c4808af5131ff69c08be75aa4647d35b52a07f7980ce5f79a9a484833c77698'),
    ('ybe', 'BC', 'character'): (0, '712469063011e3e244c466ea86aa7ca712564f2a1b52f649c14d928c1f8dc8a8'),
    ('bend', 'A', None): (3, '2775d57fd1b1b6d4908adf324ccd5d71ad880a795cde44591937ef1f2e20ec68'),
    ('bend', 'A', 'generic'): (3, '2775d57fd1b1b6d4908adf324ccd5d71ad880a795cde44591937ef1f2e20ec68'),
    ('bend', 'A', 'deformation'): (3, '2775d57fd1b1b6d4908adf324ccd5d71ad880a795cde44591937ef1f2e20ec68'),
    ('bend', 'A', 'okada'): (3, '2775d57fd1b1b6d4908adf324ccd5d71ad880a795cde44591937ef1f2e20ec68'),
    ('bend', 'A', 'character'): (3, '2775d57fd1b1b6d4908adf324ccd5d71ad880a795cde44591937ef1f2e20ec68'),
    ('bend', 'B', None): (0, '9dab57b965f9c436ec918b6e803cc64bf8718095fbfffa3263be9c166dc08fe3'),
    ('bend', 'B', 'generic'): (0, '038480f47ca90ea12217d4a1ea5b0e5cb321f2d3bd1f0d8bb4ecfefcf7c0690b'),
    ('bend', 'B', 'deformation'): (0, '16c5182169c13d96a1e6e8dcefe58048cc946385b4db859b42e8caffa8a8aa1e'),
    ('bend', 'B', 'okada'): (0, '5ad8b17d10a5539444239e3dfe78a84ff87a9f50b8bc39fcd5620b14d2cc6ed2'),
    ('bend', 'B', 'character'): (0, '5d0c2c67534aa7ecc3c81815da7227e5d92dc286d7c01d83c3dcc1b83cab0fa6'),
    ('bend', 'Bstar', None): (0, 'c8fcfc190cf12084e23c1e8b753f25e53572b85354f2f76dcc02b969e0d24d5c'),
    ('bend', 'Bstar', 'generic'): (0, '7b506e72bdf43345a82e1847ae92cd29dd49311a9044b0373da002b3e2499996'),
    ('bend', 'Bstar', 'deformation'): (0, '5d02e0b0aafe29adbf9f34978d65558bfd9cf288df23b6539a0e268159be040d'),
    ('bend', 'Bstar', 'okada'): (0, 'cb3dc23f66f14e6c548067334b2728726213ea154fb0206acedf5cabd9475754'),
    ('bend', 'Bstar', 'character'): (0, 'eb0a25c199f1f6cce0fb1e4c47d46579b9ab8bd40c117d812bd3a26e9e464c2c'),
    ('bend', 'C', None): (0, '799cd24dace662c00d2cab4c0c6d69953405f6341143eeef6208302192fdd09d'),
    ('bend', 'C', 'generic'): (0, '9a756cc2ca318f48a7922e6378e82ed88ed1770aa48ceb13a0119eb9ae836903'),
    ('bend', 'C', 'deformation'): (0, '91171b9ee349cf9cfde43fc3a3d9954882a8552ce5877c5b7071027bf7ccb7ed'),
    ('bend', 'C', 'okada'): (0, '08a2b8f0458bd6615bc6d5a592f7b783cb49a843ec09e3359e7057bd91184cbc'),
    ('bend', 'C', 'character'): (0, 'f2322425832d34eafb1af769339ad92aa607daaa32878e8f1a744b156edbc798'),
    ('bend', 'Cstar', None): (0, '8c3f368011812d3a53aa0c50ee65f879998cea43b43f80f4270d69e5fca38edf'),
    ('bend', 'Cstar', 'generic'): (0, 'e3dcaf84f43eb701778d5b281987d68fec9e24b2c2639a3a1158cd11b1121001'),
    ('bend', 'Cstar', 'deformation'): (0, '11b9b76a20fa65bd236552ca752018c3be0792410af98195ab56d832d54d6204'),
    ('bend', 'Cstar', 'okada'): (0, 'db17786592e6ef7eb31129ced0c8c494c146029ee20502c020bfae94c63d0b45'),
    ('bend', 'Cstar', 'character'): (0, '83b6eb5836977cdb2b2c0ad7ea86c1190ba60f0ed64fe188658c7c36140b2be6'),
    ('bend', 'D', None): (0, 'd9f7914b150491b4fbd9bdc920a37911b34f9530beb5b0fe148f845bd48e88f0'),
    ('bend', 'D', 'generic'): (0, '9b95e0e8ccb7856f6ff46646793968db9ece8c1563df2e4637198ef7467f23d9'),
    ('bend', 'D', 'deformation'): (0, 'e3cec395dd77c8b8a60aee796a57dddc485eb1c59aa9597d37cf0326a90c857e'),
    ('bend', 'D', 'okada'): (0, '13f9714a9daa6972fd07aa0553d1a2390082cce43175bde63fb12d1993b420e4'),
    ('bend', 'D', 'character'): (0, '21a51d76322deebcd0ab266fdca3e18b667458e601dd5ac6fbd9ffea3bfb0c3d'),
    ('bend', 'BC', None): (0, '81ba223012cc6aa6d2d97c42a47e68137c356e4a2b499d30d799233f9c0d821c'),
    ('bend', 'BC', 'generic'): (0, '96af7a2f94e6f2105e24f2b6a3179cd7befbad574c3f364ed6482c8e10c136f6'),
    ('bend', 'BC', 'deformation'): (0, '9a271eec9a7bf3a1ec0ae6a26f7af8930fdc67a200546fab77f96a5544cdef0c'),
    ('bend', 'BC', 'okada'): (0, '62d081012709b877fcd57ef27b5b16d44c0313a28521309006057068b3e213a5'),
    ('bend', 'BC', 'character'): (0, '9e65a6f5857510680fcf359a4fcd29fe533d29b231056c4de13d9b9025f09e08'),
    ('fish', 'A', None): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'A', 'generic'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'A', 'deformation'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'A', 'okada'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'A', 'character'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'B', None): (0, 'be0c3a7f8627bd7698b1e302043d2a4146178ca504b693f91459a5ab30c76833'),
    ('fish', 'B', 'generic'): (0, 'efcac1896d08108bf07dc9b362a8e194d6d790890aaaf133901c920183bd8180'),
    ('fish', 'B', 'deformation'): (0, '367ef548ee672a66566f4a9a97626771ad546a061bae5f5ee8f2cdb12296f7c9'),
    ('fish', 'B', 'okada'): (0, 'd22d4015bf51628fc6840ff7c1b4e8476dcbbdf3bb2a1a2a65491bdd7a1b445e'),
    ('fish', 'B', 'character'): (0, '18804a95d01bb96e21242828ea18763e0dfd84903dc18d27b1b7822adc92f267'),
    ('fish', 'Bstar', None): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'Bstar', 'generic'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'Bstar', 'deformation'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'Bstar', 'okada'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'Bstar', 'character'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'C', None): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'C', 'generic'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'C', 'deformation'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'C', 'okada'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'C', 'character'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'Cstar', None): (0, 'ed9ce3d6ad92300a991b9625a754ca04c3ab0d356bf68df8f6e4f423707f72ff'),
    ('fish', 'Cstar', 'generic'): (0, '003e4ffec7e684de3404dec141c7ad4a548748c7cf11655ffadf6dc0e606e316'),
    ('fish', 'Cstar', 'deformation'): (0, '6615310facced17e8f63fd554eb2df5dbaefdab676fd831efd154880ae8a5a2d'),
    ('fish', 'Cstar', 'okada'): (0, '439a29bad0a06704e1adfed0be0e92484d65cd145e973769503ba5aa8716a31c'),
    ('fish', 'Cstar', 'character'): (0, 'f79df642da57a1a808df895f426e85bcb9ece72b5e0247a1d826903d159aa392'),
    ('fish', 'D', None): (0, '0fef2ee3a176eedaad6ca2b069a19e49b4acb4deba959b03113e54f755afea90'),
    ('fish', 'D', 'generic'): (0, 'fa08bcce5cc2404f8561e5393a382fe53b9137a50c2d064017e367f1b35486c8'),
    ('fish', 'D', 'deformation'): (0, 'b8dff143553dda4ed1fddb150a4922683481e02741d301eca58405c637d8e679'),
    ('fish', 'D', 'okada'): (0, 'a02fc389b712591937eeafd6029d4b962557c982aceb61dba07d509f7353cdfa'),
    ('fish', 'D', 'character'): (0, '5fe0d9a56616de070d64bf29a77e1967e76e6c6f4424d4a90a7647a86c0c1d5a'),
    ('fish', 'BC', None): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'BC', 'generic'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'BC', 'deformation'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'BC', 'okada'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('fish', 'BC', 'character'): (3, '7da729b023831a71df05f2892fc3ed011bc12b2428b3f6667cbe6f51cb842c9a'),
    ('jellyfish', 'A', None): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'A', 'generic'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'A', 'deformation'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'A', 'okada'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'A', 'character'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'B', None): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'B', 'generic'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'B', 'deformation'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'B', 'okada'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'B', 'character'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'Bstar', None): (0, 'dda2646f5b16aa3b7e03bb6087ede1e03afead306676ff379cae60fe7c08f8f0'),
    ('jellyfish', 'Bstar', 'generic'): (0, 'e37c48fb612bf464955a69a5d1bac34cae307087c140650e108b7844dc070cb2'),
    ('jellyfish', 'Bstar', 'deformation'): (0, 'a56c4c17ad3a908d9ae2d039cda72a95640b8c5c16e864aa22877f3fc962707d'),
    ('jellyfish', 'Bstar', 'okada'): (0, '9ea366791e1c0c0fd250bb2f5f227e461cc829129bef8bfc710aae0fe77c201f'),
    ('jellyfish', 'Bstar', 'character'): (0, 'e9cc23438b5bd24a364b6b083cb5f85f187bcc61efa53640777ffd4a06628a60'),
    ('jellyfish', 'C', None): (0, '588f317c2dee1fe95ac699d7da6fba278e6bf4d9a33f3b50afb83deb68268bd4'),
    ('jellyfish', 'C', 'generic'): (0, 'd96ab49dcd4aeb578d763ae6c9e2f3aff6291301c261bd130d919583bf458524'),
    ('jellyfish', 'C', 'deformation'): (0, '1af2c551770c741c2fe4f7aff947cccf2fb249d1208ba1c876dd7e19fe9f057a'),
    ('jellyfish', 'C', 'okada'): (0, '2526683037d4774df53accb734522b8c87f637d6c48578f42ba3946852acf732'),
    ('jellyfish', 'C', 'character'): (0, 'd679954fa7d6456ec431d43c78827943e9494ef24e6e21c06e9f822f2bbb5a95'),
    ('jellyfish', 'Cstar', None): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'Cstar', 'generic'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'Cstar', 'deformation'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'Cstar', 'okada'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'Cstar', 'character'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'D', None): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'D', 'generic'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'D', 'deformation'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'D', 'okada'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'D', 'character'): (3, '4411994b32bce3f85e8f0760c21df33d97c6f2e2ff40ae1944db1a5c10837c3c'),
    ('jellyfish', 'BC', None): (0, 'a38352d551b95f30e70dd687d4ad0a6dd00744750f3075df4e01e280b1a5d608'),
    ('jellyfish', 'BC', 'generic'): (0, 'b792ba5a24ab5a489f0316c5eef0774271b7b8de701841cf581925e566714beb'),
    ('jellyfish', 'BC', 'deformation'): (0, '399707b52248dcf0bd5671dda53c9e00ee979ed83896bbce4cf168702f77238b'),
    ('jellyfish', 'BC', 'okada'): (0, '62aa7d5a2011c0b429c0a9b39bcdd213236620d6bd5db7836777e0891998e3e9'),
    ('jellyfish', 'BC', 'character'): (0, '2039bb80078ca19bde49c05c9b411d350b7b4fd90e2b70d1e44953f20bc37f2d'),
    ('caduceus', 'A', None): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'A', 'generic'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'A', 'deformation'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'A', 'okada'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'A', 'character'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'B', None): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'B', 'generic'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'B', 'deformation'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'B', 'okada'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'B', 'character'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'Bstar', None): (0, '66be94890be7eef0db7f2e4c27eeeadea4bb65eb390e87b0efcd168e1dbbd5b0'),
    ('caduceus', 'Bstar', 'generic'): (0, '98a8ad1792dbc26dc84f6a0e37bec0d29e7345042c5e9282ad7d3a52da48869f'),
    ('caduceus', 'Bstar', 'deformation'): (0, '5c00f48ec9783f12216a5e927eaddd2d24b9f61f75944369eea2c0c8e14f8079'),
    ('caduceus', 'Bstar', 'okada'): (0, 'bfee48679b58c0b6401e0973089dbe37352a1973c538f5b0a447a877423f5c79'),
    ('caduceus', 'Bstar', 'character'): (0, 'bc861a0ca2cb44e56f827423bf657d4531d4a971a44860ceb2cf5d4b41813f1b'),
    ('caduceus', 'C', None): (0, '2962fa138b7fd39dfd7739072bdc085ca943e59ae468847e3b25238de0060511'),
    ('caduceus', 'C', 'generic'): (0, 'a36209a8cbbbebe734824bb54e1ad7862f07b3cfae075b6d4257d711dd43c76d'),
    ('caduceus', 'C', 'deformation'): (0, '16f448bd92ff2a260e3853014d9de4ba4b58f32fd5ef01a8674da561a3a75a20'),
    ('caduceus', 'C', 'okada'): (0, '6fdbcd9f603868a10ccc45fc638b83d81f56779280d655d643deeee436831864'),
    ('caduceus', 'C', 'character'): (0, '1d84355a0d165ffc984d0b0ad3f7cbce84ceffb8ecfa3f443f7cde9bbb352f3e'),
    ('caduceus', 'Cstar', None): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'Cstar', 'generic'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'Cstar', 'deformation'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'Cstar', 'okada'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'Cstar', 'character'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'D', None): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'D', 'generic'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'D', 'deformation'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'D', 'okada'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'D', 'character'): (3, '434e722510dd3a596b0721b71db1b5d075e52c684f3066cc10c9ee55b1332a4f'),
    ('caduceus', 'BC', None): (0, 'dd94003d66e50c89864866e1831da4ea8e22b1a06b295426096b56b351502557'),
    ('caduceus', 'BC', 'generic'): (0, '85cb6ceff2168206f293ca499dd0fa0b8bf70b75817a260ec439b04a0a9b3cc8'),
    ('caduceus', 'BC', 'deformation'): (0, 'aa5dece23cef462af61993541768b6d775535a93d724184162a9dea6555cf72c'),
    ('caduceus', 'BC', 'okada'): (0, '5d8c4f4226bc512beb2bd1e63e51dd96ca31ede34125032d0262e6092da8f1e1'),
    ('caduceus', 'BC', 'character'): (0, '5cfbd94d6be940fa68e7b274c9485c96f6b8d457cf89830c13cf375c62daf645'),
}


def relation_argv(verb, family, scheme) -> list:
    return ["verify", verb, "--family", family] + (["--scheme", scheme] if scheme else [])


def relation_outcome(capsys, verb, family, scheme):
    code, report = invoke(capsys, *relation_argv(verb, family, scheme))
    report.pop("elapsed_ms", None)
    return code, hashlib.sha256(json.dumps([code, report]).encode()).hexdigest()


class TestRelationReports:
    @pytest.mark.parametrize("key", RELATION_REPORTS, ids=lambda k: "-".join(map(str, k)))
    def test_report_golden(self, capsys, key):
        assert relation_outcome(capsys, *key) == RELATION_REPORTS[key]


# every invocation of the golden tables above, each model verb one step past
# its n cap (the cap-error report), the other --emit renderings, and the
# states workload of the benchmark
PRINTED = (
    [relation_argv(*key) for key in RELATION_REPORTS]
    + [argv for argv, _, _ in MODEL_VERBS]
    + [argv + ["--max-n", str(len(lam) - 1)] for argv, _, lam in MODEL_VERBS]
    + [["partition", "--family", "C", "--lambda", "2,1", "--emit", "latex"],
       ["asm", "--family", "Cstar", "--lambda", "3,2", "--emit", "text"],
       ["character", "--family", "D", "--mu", "2,1", "--emit", "latex"],
       ["character", "--family", "B", "--mu", "1,0"]]
    + [op_argv(op, 0) for op in STATES]
)


@pytest.mark.parametrize("argv", PRINTED, ids=" ".join)
def test_report_prints_as_json_dumps_with_indent_2(capsys, monkeypatch, argv):
    for name in CAP_ENV.values():
        monkeypatch.delenv(name, raising=False)
    main(list(argv))
    out = capsys.readouterr().out
    expected = json.dumps(json.loads(out), indent=2) + "\n"
    if out != expected:
        # the asm report is 6.8 MB: show the first difference, not a full diff
        at = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
                  min(len(out), len(expected)))
        pytest.fail(f"report differs at offset {at}: "
                    f"{out[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}")


# text with the characters that ensure_ascii escapes: quotes, backslashes,
# control characters, non-ASCII and astral-plane characters
TEXT = st.text(st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'))
JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=-10 ** 40, max_value=10 ** 40) | TEXT)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers() | st.booleans())
                   | st.dictionaries(TEXT, inner)),
    max_leaves=40)


@given(JSON_VALUES)
def test_the_report_writer_prints_what_json_dumps_prints(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def readme_commands() -> list:
    """The argv of each `bentice ...` line in the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("bentice ")]


def test_the_readme_shows_example_commands():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_every_readme_example_command_passes(capsys, monkeypatch, argv):
    for name in CAP_ENV.values():
        monkeypatch.delenv(name, raising=False)
    assert main(argv) == EXIT_PASS
