"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, op_argv, op_key  # noqa: E402

CHEAP_OPS = [("verify", "divisibility", "--family", "BC", "--lambda", "3,2", "--scheme", "generic"),
             ("verify", "fish", "--family", "B")]


def _namespaces():
    import bentice.laurent
    return [m for _, m in sorted(sys.modules.items())
            if m is not None and m.__name__.split(".")[0] == "bentice"] + [bentice.laurent.LaurentPoly]


def test_wrappers_restore_the_original_objects():
    import bentice.cli
    import bentice.identities
    import bentice.states
    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        # re-exported names are wrapped too, not only the defining module's
        assert bentice.identities.partition_function is bentice.states.partition_function
        assert bentice.cli.build_model is bentice.models.build_model
        assert bentice.states.partition_function.__wrapped__ is \
            dict(before)[bentice.states]["partition_function"]
        tracer.run_op(0, bentice.states.enumerate_states,
                      bentice.identities.build_model("B", [1]))
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == \
        ["models.build_model", "op", "states.enumerate_states"]
    assert tracer.spans[2][3:] == [1, 0]  # parent span, op id
    for ns, attrs in before:
        now = vars(ns)
        for key, value in attrs.items():
            assert now[key] is value, f"{ns.__name__}.{key} not restored"


def test_a_missing_layer_is_reported_not_zero(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("states.renamed_away", "bentice.states", "renamed_away")])
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ["states.renamed_away"])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["states.renamed_away"]
    summary = tracer.summary()
    assert "states.renamed_away.self_s" not in summary
    assert "states.renamed_away.calls" not in summary


def test_a_tampered_report_flips_the_failed_op_ratio():
    pins = run.load_pins()
    report = json.loads(_report(CHEAP_OPS[0], 0))
    pin = pins["divisibility"][op_key(CHEAP_OPS[0])]
    assert pin["digest"] == worker.report_digest(json.dumps(report))[1]
    report["data"]["quotient"] += " + 1"
    tampered = worker.report_digest(json.dumps(report))[1]

    ops = WORKLOADS["states"]
    records = [{"s": 1.0, "n": 1.0, "verdict": None, **pins["states"][op_key(op)]} for op in ops]
    stub = {"samples": [[r] for r in records], "pass_wall_s": 4.0, "peak_rss_mb": 1.0}

    def ok_op_ratio():
        verdict = run.judge_samples("states", stub["samples"], pins)
        return run.end_to_end("states", [0.1], stub, verdict)[0]["ok_op_ratio"], verdict

    assert ok_op_ratio() == (1.0, {"attempted": 4, "failed": 0, "samples": 4,
                                   "failed_samples": 0, "wrong": []})
    stub["samples"][0].append(dict(records[0], digest=tampered))
    assert ok_op_ratio() == (0.75, {"attempted": 4, "failed": 1, "samples": 5,
                                    "failed_samples": 1, "wrong": [op_key(ops[0])]})


def test_an_op_is_scaled_by_the_bursts_around_it():
    clock = calibration.HostClock()
    clock.bursts = [(0.0, 0.01), (10.0, 0.02), (30.0, 0.04)]
    ref = calibration.REFERENCE_S
    assert clock.scale(1.0, 2.0) == pytest.approx(ref / 0.01)
    assert clock.scale(11.0, 12.0) == pytest.approx(ref / 0.02)
    assert clock.scale(3.0, 27.0) == pytest.approx(ref / (0.07 / 3))


def test_the_known_defect_counts_as_failed_and_nothing_else_passes_for_it():
    pin = run.load_pins()["products"]["verify character --family D --lambda 3,2"]
    assert run.judge(pin, {"exit": 0, "verdict": "pass", "digest": "x"}) == "ok"
    assert run.judge(pin, {"exit": 2, "verdict": "fail", "digest": "x"}) == "known"
    assert run.judge(pin, {"exit": 3, "verdict": None, "digest": "x"}) == "wrong"
    assert run.judge(None, {"exit": 0, "verdict": "pass", "digest": "x"}) == "wrong"


def test_a_crashing_op_is_a_wrong_output_not_a_crashed_run(monkeypatch):
    from bentice import cli

    def crash(argv):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "main", crash)
    record = worker.run_op(CHEAP_OPS[0], 0)
    pin = run.load_pins()["divisibility"][op_key(CHEAP_OPS[0])]
    assert run.judge(pin, record) == "wrong"


def _report(op, seed):
    from bentice import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(op_argv(op, seed))
    return buf.getvalue()


def test_workers_and_caps_cannot_leak_into_a_run(monkeypatch):
    monkeypatch.setenv("BENTICE_MAX_N", "9")
    monkeypatch.setenv("BENTICE_MAX_COLS", "20")
    env = run.child_env(ROOT)
    assert "BENTICE_MAX_N" not in env and "BENTICE_MAX_COLS" not in env
    probe = "import os; print(sorted(k for k in os.environ if k.startswith('BENTICE')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"

    from bentice.cli import build_parser
    for ops in WORKLOADS.values():
        for op in ops:
            args = build_parser().parse_args(op_argv(op, 7))
            assert (args.workers, args.seed, args.max_n, args.max_cols) == (1, 7, None, None)
    with pytest.raises(ValueError):
        op_argv(("verify", "rho", "--family", "all", "--workers", "4"), 0)


def test_the_same_seed_yields_identical_digests():
    first = worker.run_pass(CHEAP_OPS, 5)["ops"]
    again = worker.run_pass(CHEAP_OPS, 5)["ops"]
    other_seed = worker.run_pass(CHEAP_OPS, 6)["ops"]
    digests = [[r["digest"] for r in ops] for ops in (first, again, other_seed)]
    assert digests[0] == digests[1] == digests[2]
    pins = run.load_pins()["divisibility"]
    assert pins[op_key(CHEAP_OPS[0])] == {"exit": first[0]["exit"], "digest": first[0]["digest"]}


def test_benchmark_json_matches_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    pins = run.load_pins()
    assert {w: sorted(p) for w, p in pins.items()} == \
        {w: sorted(op_key(op) for op in ops) for w, ops in WORKLOADS.items()}


def test_a_directory_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "states",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
