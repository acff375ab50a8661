"""One benchmark run inside a fresh interpreter: time a workload's ops.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> <spans path>

run.py starts this with PYTHONPATH pointing at the checkout's `src` and
with bentice's cap variables removed from the environment.  Every op is a
call to `bentice.cli.main(argv)` in this process with stdout captured, and
is timed from outside.  Untraced, one pass over the ops in order is
followed by repeats of single ops, every op up to three samples and then
the slowest most often, while they are expected to end within `seconds`;
calibration bursts between these ops (calibration.py) give each sample a
time scaled to the reference host speed.
Traced, one untraced pass is followed by one traced pass, and the
wrappers are removed before anything else runs.  The last stdout line is one JSON object with every sample's exit
code, raw and scaled time, and output digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback

from calibration import HostClock
from tracing import Tracer
from workloads import WORKLOADS, op_argv

MIN_SAMPLES = 3


def report_digest(text: str):
    """(verdict, sha256 of the canonical JSON of verdict and data)."""
    report = json.loads(text)
    body = {"verdict": report.get("verdict"), "data": report.get("data"),
            "error": report.get("error")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return report.get("verdict"), hashlib.sha256(blob).hexdigest()


def run_op(op, seed, op_id=None, tracer=None, clock=None):
    """Run one op through `bentice.cli.main`; return its record.

    With a clock, a calibration burst may run first, and the record keeps
    its start time `t0` so that `scale_samples` can scale it.
    """
    from bentice import cli

    if clock is not None:
        clock.tick()

    argv = op_argv(op, seed)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            # looked up per call so a traced pass goes through the wrapper
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run_op(op_id, cli.main, argv)
    except Exception:  # a crashing op is a wrong output, not a crashed run
        traceback.print_exc()
        return {"s": time.perf_counter() - t0, "t0": t0, "exit": None, "verdict": None,
                "digest": None}
    seconds = time.perf_counter() - t0
    text = buf.getvalue()
    if tracer is not None:
        tracer.add_report_bytes(len(text.encode()))
    verdict, digest = report_digest(text)
    return {"s": seconds, "t0": t0, "exit": code, "verdict": verdict, "digest": digest}


def run_pass(ops, seed, tracer=None, clock=None):
    """Run every op once, in order; return the pass record."""
    started = time.perf_counter()
    records = [run_op(op, seed, op_id, tracer, clock) for op_id, op in enumerate(ops)]
    return {"wall_s": time.perf_counter() - started, "ops": records}


def resample(ops, seed, samples, seconds, started, clock):
    """Repeat single ops while each repeat should end within `seconds`.

    Ops with fewer than MIN_SAMPLES samples go first, so no median rests
    on the first pass alone.  Then each repeat goes to the op with the
    largest median / sqrt(samples), its share of the error of the summed
    medians, so the ops that dominate a pass, the slowest one first, rest
    on the most samples.
    """
    def share(i):
        return statistics.median(r["s"] for r in samples[i]) / math.sqrt(len(samples[i]))

    while True:
        left = seconds - (time.perf_counter() - started)
        fits = [i for i in range(len(ops)) if samples[i][-1]["s"] <= left]
        if not fits:
            return
        i = max(fits, key=lambda i: (len(samples[i]) < MIN_SAMPLES, share(i)))
        samples[i].append(run_op(ops[i], seed, clock=clock))


def scale_samples(records, clock):
    """Give each record timed under `clock` its scaled time `n`."""
    clock.close()
    for record in records:
        record["n"] = record["s"] * clock.scale(record["t0"], record["t0"] + record["s"])


def run(workload, seed, seconds, trace, spans_path):
    ops = WORKLOADS[workload]
    started = time.perf_counter()
    # untraced only: bursts in the first pass would bias trace.overhead_s
    clock = None if trace else HostClock()
    first = run_pass(ops, seed, clock=clock)
    out = {"pass_wall_s": first["wall_s"], "samples": [[r] for r in first["ops"]],
           # the high-water mark of one pass, before repeats can fragment the heap
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, seed, tracer)
        finally:
            tracer.uninstall()
        out["traced_pass_wall_s"] = traced["wall_s"]
        for samples, record in zip(out["samples"], traced["ops"]):
            samples.append(record)
        out["layers"] = tracer.summary()
        out["missing"] = tracer.missing
        tracer.write_spans(spans_path)
    else:
        resample(ops, seed, out["samples"], seconds, started, clock)
        scale_samples([r for records in out["samples"] for r in records], clock)
    return out


def main(argv):
    workload, seed, seconds, trace, spans_path = argv
    result = run(workload, int(seed), float(seconds), trace == "1", spans_path)
    import bentice
    result["bentice_file"] = bentice.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
