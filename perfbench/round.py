"""One round of one workload in a fresh process (started by run.py).

Usage: round.py WORKLOAD SEED SPAWNED_AT TRACE [--setup-only]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process; set-up time runs from there to the first timed operation. Prints
one JSON object on its last line of standard output.
"""
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv):
    workload_name, seed, spawned_at, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS, Ops

    workdir = HERE / "out" / workload_name / "round"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[workload_name]
    inputs = workload.prepare(seed, workdir)
    setup_s = time.monotonic() - spawned_at
    if setup_only:
        return {"setup_s": setup_s}

    ops = Ops()
    cpu_start = os.times()
    outputs = workload.run(inputs, ops)
    cpu_end = os.times()
    if tracer is not None:
        tracer.active = False
    errors = ops.unexpected + workload.check(inputs, outputs)
    result = {
        "setup_s": setup_s,
        "wall_s": ops.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": errors,
    }
    if tracer is not None:
        from tracing import layer_metrics, span_cost

        layers = layer_metrics(tracer)
        overhead_s = layers["trace.spans"] * span_cost()
        layers.update({
            "trace.wall_s": ops.wall_s,
            "trace.overhead_pct": 100.0 * overhead_s / max(ops.wall_s - overhead_s, 1e-9),
            "process.cpu_s": (cpu_end.user - cpu_start.user)
            + (cpu_end.system - cpu_start.system),
            "cli.artifact_bytes": sum(path.stat().st_size
                                      for path in (workdir / "cli").rglob("*")
                                      if path.is_file()),
        })
        result["layers"] = layers
        tracer.write(workdir.parent / "spans.csv")
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
