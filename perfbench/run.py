"""bentice benchmark: time CLI verdicts end to end, or per layer when traced.

    python3 perfbench/run.py --workload {divisibility,products,states,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; bentice is imported from its `src`, so
nothing is built or installed.  Each run starts one fresh interpreter
(perfbench/worker.py) on a single core (`--workers 1`, default caps, the
cap variables removed from its environment) that calls
`bentice.cli.main(argv)` for every op of the workload, passing the seed
as `--seed`.  Every op's exit code and the digest of its report's
`verdict` and `data` are checked against perfbench/pins.json.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced pass (spans go to perfbench/out/).  wall_s and
slowest_verdict_s are scaled to a reference host speed by calibration
bursts run around each op (calibration.py); the raw seconds are printed
beside them.  Every metric is printed as `workload metric value unit`;
the last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import COUNTERS, LAYERS  # noqa: E402
from workloads import WORKLOADS, op_key  # noqa: E402

CAP_VARIABLES = ("BENTICE_MAX_N", "BENTICE_MAX_COLS")
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170
PROBE = ("import time\nfrom bentice.cli import main\n"
         "if not callable(main): raise SystemExit('bentice.cli.main is not callable')\n"
         "print(time.monotonic())")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_verdict_s": "s",
                    "peak_rss_mb": "MB", "ok_op_ratio": "fraction"}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


class BenchError(RuntimeError):
    """The checkout or a child process cannot give a result."""


def child_env(root: Path) -> dict:
    """The environment of every child: checkout's src, no cap overrides."""
    env = {k: v for k, v in os.environ.items() if k not in CAP_VARIABLES}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def check_checkout(root: Path):
    if not (root / "src" / "bentice" / "cli.py").is_file():
        raise BenchError(f"no bentice sources under {root / 'src'}; "
                         "run from the root of a checkout")


def _child(argv, root, timeout):
    try:
        proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {timeout} s: {argv[1:]}") from None
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {argv[1:]}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(root: Path, probes: int = SETUP_PROBES) -> list:
    """Seconds from starting an interpreter until bentice.cli.main is callable.

    One untimed import first writes the bytecode cache, a cost paid once
    per install rather than per invocation.
    """
    argv = [sys.executable, "-c", PROBE]
    _child(argv, root, 60)
    samples = []
    for _ in range(probes):
        started = time.monotonic()
        samples.append(float(_child(argv, root, 60)) - started)
    return samples


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spans = HERE / "out" / f"spans-{workload}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            str(seconds), "1" if trace else "0", str(spans)]
    result = json.loads(_child(argv, root, WORKER_TIMEOUT_S))
    if not Path(result["bentice_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"bentice was imported from {result['bentice_file']}, not {root}")
    return result


def load_pins() -> dict:
    with open(HERE / "pins.json") as fh:
        return json.load(fh)


def judge(pin, record) -> str:
    """'ok', 'known' (a pinned known defect showing as pinned) or 'wrong'."""
    if pin is not None and record["exit"] == pin["exit"] and (
            record["digest"] == pin["digest"] if "digest" in pin
            else record["verdict"] == pin["verdict"]):
        return "ok"
    known = (pin or {}).get("known_defect")
    if known and record["exit"] == known["exit"] and record["verdict"] == known["verdict"]:
        return "known"
    return "wrong"


def judge_samples(workload: str, samples: list, pins: dict) -> dict:
    """Count ops and failed ops; `correct` unless an op went wrong.

    A sample fails when its exit code or digest differs from its op's pin,
    and an op fails when any of its samples does.  `attempted`/`failed`
    count ops, not samples: how often an op is repeated depends on the
    host's speed, so counting samples would make the failure count vary
    between runs of the same code.  A pinned known defect (criterion 7
    today) that shows exactly as pinned still fails but leaves `correct`
    true; any other mismatch, or an op with no pin, makes the run incorrect.
    """
    wl_pins = pins.get(workload, {})
    n_samples = failed_samples = 0
    failed_ops, wrong = set(), set()
    for op, records in zip(WORKLOADS[workload], samples, strict=True):
        for record in records:
            outcome = judge(wl_pins.get(op_key(op)), record)
            n_samples += 1
            if outcome != "ok":
                failed_samples += 1
                failed_ops.add(op_key(op))
            if outcome == "wrong":
                wrong.add(op_key(op))
    return {"attempted": len(samples), "failed": len(failed_ops), "samples": n_samples,
            "failed_samples": failed_samples, "wrong": sorted(wrong)}


def _timing_note(values) -> str:
    """Quartiles and sample count of the samples behind a median."""
    q1, _, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values,
                                     n=4, method="inclusive")
    return f"median q1={q1:.4f} q3={q3:.4f} n={len(values)}"


def end_to_end(workload, setup, worker, verdict) -> tuple:
    """(metrics, notes): the five end-to-end metrics of one untraced run.

    wall_s is one pass estimated as the sum of every op's median scaled
    time, and slowest_verdict_s the largest of those medians.
    """
    ops = WORKLOADS[workload]
    times = [[r["n"] for r in records] for records in worker["samples"]]
    medians = [statistics.median(t) for t in times]
    raw = [statistics.median(r["s"] for r in records) for records in worker["samples"]]
    slowest = max(range(len(ops)), key=medians.__getitem__)
    counts = sorted(len(t) for t in times)
    first_pass = sum(records[0]["s"] for records in worker["samples"])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(medians),
        "slowest_verdict_s": medians[slowest],
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    notes = {
        "setup_s": _timing_note(setup),
        "peak_rss_mb": "ru_maxrss after the first pass",
        "wall_s": f"sum of op medians, samples per op {counts[0]}..{counts[-1]}, "
                  f"raw={sum(raw):.4f}, first pass raw={first_pass:.4f}",
        "slowest_verdict_s": f"{_timing_note(times[slowest])} raw={raw[slowest]:.4f} "
                             f"op={op_key(ops[slowest])!r}",
    }
    ok = verdict["attempted"] - verdict["failed"]
    metrics["ok_op_ratio"] = ok / verdict["attempted"]
    notes["ok_op_ratio"] = f"{ok}/{verdict['attempted']} ops ok"
    return metrics, notes


def per_layer(worker) -> tuple:
    metrics = dict(worker["layers"])
    metrics["trace.overhead_s"] = worker["traced_pass_wall_s"] - worker["pass_wall_s"]
    notes = {f"{name}.self_s": "missing span" for name in worker["missing"]}
    return metrics, notes


def run_workload(root, workload, seed, seconds, trace, pins) -> dict:
    setup = [] if trace else measure_setup(root)
    worker = run_worker(root, workload, seed, seconds, trace)
    verdict = judge_samples(workload, worker["samples"], pins)
    if trace:
        metrics, notes = per_layer(worker)
        units = per_layer_units()
    else:
        metrics, notes = end_to_end(workload, setup, worker, verdict)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"{workload} {name} {shown}  {notes.get(name, '')}".rstrip())
    print(f"{workload} failed_ops {verdict['failed']}/{verdict['attempted']}, "
          f"failed samples {verdict['failed_samples']}/{verdict['samples']}")
    for op in verdict["wrong"]:
        print(f"{workload} WRONG OUTPUT: {op}", file=sys.stderr)
    return {"correct": not verdict["wrong"], "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        check_checkout(root)
        pins = load_pins()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace), pins)
                   for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
