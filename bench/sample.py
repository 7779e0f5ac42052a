"""One benchmark sample, in a fresh interpreter.

Times set-up (importing bb84sim and its CLI, building the workload's
adversary), then runs ``bb84sim.cli.main`` once with ``--out`` pointing at
a file, between two runs of a fixed reference kernel.  Checks the report
and prints one JSON line with the timings, the report's sha256, the check
errors and, for a traced pass, the layer statistics.  ``--pass setup``
stops after set-up and one run of the reference kernel.

    python3 bench/sample.py --spec '<workload json>' --seed 1 \
        --out report.json --pass plain|coarse|fine|memory|setup
"""

import argparse
import hashlib
import json
import resource
import time
import tracemalloc
from pathlib import Path

import layers
from workloads import Workload, check_report


def reference_kernel() -> float:
    """Seconds a fixed pure-Python loop takes: the speed of this machine
    at this moment.  The host's speed drifts by tens of percent over
    minutes, and the simulator slows with it."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pass", dest="pass_name", required=True,
                        choices=("setup", "plain", *layers.PASSES))
    args = parser.parse_args()
    workload = Workload.from_json(args.spec)

    start = time.perf_counter()
    import bb84sim.cli
    from bb84sim import harness

    harness.build_strategy(harness.ExperimentConfig(
        n_pulses=workload.pulses,
        n_sessions=workload.sessions,
        efficiency=workload.efficiency,
        eve_kind=workload.eve,
    ))
    result = {"setup_s": time.perf_counter() - start}
    if args.pass_name == "setup":
        result["reference_s"] = reference_kernel()
        print(json.dumps(result))
        return

    tracer = None
    if args.pass_name != "plain":
        tracer = layers.install(args.pass_name)
    out = Path(args.out)
    out.unlink(missing_ok=True)
    argv = workload.argv(args.seed, str(out))
    reference_s = reference_kernel()
    if args.pass_name == "memory":
        tracemalloc.start()
    start = time.perf_counter()
    try:
        code = bb84sim.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    main_s = time.perf_counter() - start
    tracemalloc.stop()
    reference_s = (reference_s + reference_kernel()) / 2

    text = out.read_text() if out.exists() else ""
    errors = [] if code == 0 else [f"cli.main returned {code}"]
    result.update(
        main_s=main_s,
        reference_s=reference_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        errors=errors + check_report(workload, text),
    )
    if tracer is not None:
        result.update(stats=tracer.stats, absent=tracer.absent)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
