import json

from bentice import cli
from bentice.cli import EXIT_CAP, EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main


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

    def test_cap_exceeded(self, capsys):
        code, _ = invoke(capsys, "enumerate", "--family", "A", "--lambda", "9,1")
        assert code == EXIT_CAP

    def test_cap_override_allows(self, capsys):
        code, _ = invoke(capsys, "enumerate", "--family", "A", "--lambda", "9,1",
                         "--max-cols", "9", "--emit", "count")
        assert code == EXIT_PASS

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

    def test_family_a_rho_is_input_error(self, capsys):
        # verify rho runs both regimes, and only the deformation one has a list
        code, report = invoke(capsys, "verify", "rho", "--family", "A", "--n", "2")
        assert code == EXIT_INPUT
        assert report["error"] == "family A has no generic factor list"

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
        monkeypatch.setattr(cli, "ProcessPoolExecutor", PoolRecorder)
        monkeypatch.setattr(PoolRecorder, "sizes", [])
        items = [-1, -2, -3]
        for cpus in (8, 2, None):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            assert cli._pool_map(abs, items, 64) == [1, 2, 3]
        # three items on eight CPUs, then two CPUs; no pool when the CPU count is unknown
        assert PoolRecorder.sizes == [3, 2]

    def test_verify_clamps_to_the_subcases(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", PoolRecorder)
        monkeypatch.setattr(PoolRecorder, "sizes", [])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        code, report = invoke(capsys, "verify", "okada", "--family", "all",
                              "--n", "1", "--workers", "1000")
        assert code == EXIT_PASS
        assert PoolRecorder.sizes == [6]
        assert report["inputs"]["workers"] == 1000
