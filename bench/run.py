"""bb84sim benchmark: end-to-end throughput, memory and set-up time of the
CLI on fixed workloads, or, with ``--trace 1``, per-layer statistics.

    python3 bench/run.py --workload ir-long|oracle-pa|detect-short|all \
        [--seed 1] [--seconds 40] [--trace 0|1]

Closed loop, one client: samples run one after another, each in a fresh
interpreter (bench/sample.py) that imports bb84sim from ``src/`` and calls
``bb84sim.cli.main`` once.  Samples repeat until ``--seconds`` would be
exceeded; metrics are medians over samples.  Every sample's report is
checked against exact expectations, and all reports of one run must be
byte-identical.  A sample that exits non-zero, fails a check or differs
from the run's majority report counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name the machine and every metric with its unit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import layers
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SAMPLE = BENCH_DIR / "sample.py"

END_TO_END = {"pulses_per_ref": "1/ref", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed with the end-to-end metrics but not gated: wall-clock throughput,
# set-up time and the reference kernel's time follow the host's speed drift.
DRIFTING = {"pulses_per_s": "1/s", "setup_wall_s": "s", "reference_s": "s"}
# Reference-kernel time of the nominal host that set-up time is scaled to.
NOMINAL_REFERENCE_S = 0.1

# (metric, unit, pass).  Metric "<traced name>.<statistic>" is read from the
# pass's statistics of that traced name.  Counts marked computed are derived
# from call arguments (see layers.COUNTERS), so they repeat exactly.
PER_LAYER = (
    ("protocol.run_session.calls", "count", "coarse"),
    ("protocol.run_session.self_s", "s", "coarse"),
    ("protocol.run_session.peak_mb", "MB", "memory"),
    ("protocol.prepare_pulses.s", "s", "coarse"),
    ("protocol.sift.s", "s", "coarse"),
    ("protocol.sift.yield", "ratio", "coarse"),
    ("protocol.parity_verify.calls", "count", "coarse"),
    ("protocol.parity_verify.s", "s", "coarse"),
    ("protocol.parity_verify.bits_scanned", "bits", "coarse"),
    ("protocol.transmit.calls", "count", "fine"),
    ("protocol.transmit.self_s", "s", "fine"),
    ("adversary.intercept.calls", "count", "fine"),
    ("adversary.intercept.self_s", "s", "fine"),
    ("quantum.measure.calls", "count", "fine"),
    ("quantum.measure.s", "s", "fine"),
    ("quantum.build_reference_list.s", "s", "coarse"),
    ("amplification.sample_hash.calls", "count", "coarse"),
    ("amplification.sample_hash.s", "s", "coarse"),
    ("amplification.sample_hash.seed_bits", "bits", "coarse"),
    ("amplification.compress.calls", "count", "coarse"),
    ("amplification.compress.s", "s", "coarse"),
    ("amplification.compress.macs", "count", "coarse"),
    ("amplification.compress.bytes_computed", "B", "coarse"),
    ("amplification.compress.peak_mb", "MB", "memory"),
    ("harness.run_experiment.self_s", "s", "coarse"),
    ("harness.detection_rate_curve.self_s", "s", "coarse"),
    ("harness.report.s", "s", "coarse"),
    ("harness.report.bytes", "B", "coarse"),
    ("cli.main.self_s", "s", "coarse"),
)
COMPUTED = {"bits_scanned", "seed_bits", "macs", "bytes_computed", "bytes"}
TRACE_PASSES = ("plain", *layers.PASSES)

SETUP_REPEATS = 5  # set-up-only interpreters per run, after one warm-up
RUN_LIMIT_S = 170  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One process, no threads: keep numpy's BLAS pools from starting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: Workload, seed: int, out: Path, pass_name: str,
          timeout: float) -> dict:
    """Run one sample and return its record; ``error`` is set on failure."""
    cmd = [sys.executable, str(SAMPLE), "--spec", workload.to_json(),
           "--seed", str(seed), "--out", str(out), "--pass", pass_name]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"pass": pass_name, "error": f"timed out after {timeout:.0f} s",
                "wall_s": time.perf_counter() - started}
    record = {"pass": pass_name, "wall_s": time.perf_counter() - started}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        record["error"] = f"exit {proc.returncode}: {tail[0]}"
        return record
    record.update(json.loads(lines[-1]))
    if record.get("errors"):
        record["error"] = "; ".join(record["errors"][:3])
    return record


def tally(samples: list[dict]) -> None:
    """Mark as failed every sample whose report differs from the majority:
    one workload and seed must give byte-identical reports."""
    hashes = Counter(s["sha256"] for s in samples if "sha256" in s)
    if not hashes:
        return
    majority = hashes.most_common(1)[0][0]
    for s in samples:
        if "sha256" in s and s["sha256"] != majority and "error" not in s:
            s["error"] = "report differs from the run's majority report"


def measure(workload: Workload, seed: int, seconds: int, trace: bool):
    """Samples of one run, and the records of its set-up-only runs."""
    start = time.perf_counter()
    passes = TRACE_PASSES if trace else ("plain",)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        out = Path(tmp) / "report.json"
        # The first interpreter compiles bytecode and warms file caches.
        setups = [spawn(workload, seed, out, "setup", 60)
                  for _ in range(SETUP_REPEATS + 1)][1:]
        samples: list[dict] = []
        walls: dict[str, list[float]] = {}
        while True:
            pass_name = passes[len(samples) % len(passes)]
            remaining = RUN_LIMIT_S - (time.perf_counter() - start)
            sample = spawn(workload, seed, out, pass_name, max(remaining, 1))
            samples.append(sample)
            walls.setdefault(pass_name, []).append(sample["wall_s"])
            if "timed out" in sample.get("error", ""):
                break
            following = passes[len(samples) % len(passes)]
            expected = statistics.median(
                walls.get(following, walls[pass_name]))
            done = time.perf_counter() - start + expected > seconds
            if done and len(samples) >= max(3, len(passes)):
                break
    tally(samples)
    return samples, [s for s in setups if "setup_s" in s]


def _stat(sample: dict, traced: str, stat: str) -> float:
    stats = sample["stats"].get(traced, {})
    if stat == "yield":
        pulses = stats.get("pulses", 0)
        return stats["sifted"] / pulses if pulses else 0.0
    return stats.get(stat, 0)


def end_to_end(workload: Workload, samples: list[dict], setups: list[dict]):
    """Gated metrics and drifting ones.  Each sample's time is divided by
    the reference kernel's time in the same process, so a slow spell of
    the host divides out: ``pulses_per_ref`` counts pulses simulated in the
    time the kernel takes, and ``setup_s`` is set-up time on a host where
    the kernel takes ``NOMINAL_REFERENCE_S``."""
    timed = [s for s in samples if "main_s" in s]
    if not timed:
        return None, {}
    pulses = workload.simulated_pulses
    setups = setups + timed
    metrics = {
        "pulses_per_ref": statistics.median(
            pulses * s["reference_s"] / s["main_s"] for s in timed),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in timed),
        "setup_s": statistics.median(
            s["setup_s"] * NOMINAL_REFERENCE_S / s["reference_s"]
            for s in setups),
    }
    return metrics, {
        "pulses_per_s": statistics.median(pulses / s["main_s"] for s in timed),
        "setup_wall_s": statistics.median(s["setup_s"] for s in setups),
        "reference_s": statistics.median(s["reference_s"] for s in timed),
    }


def per_layer(samples: list[dict]):
    by_pass = {p: [s for s in samples if s["pass"] == p and "main_s" in s]
               for p in TRACE_PASSES}
    if not all(by_pass.values()):
        return None, []
    metrics = {}
    for name, _, pass_name in PER_LAYER:
        traced, stat = name.rsplit(".", 1)
        metrics[name] = statistics.median(
            _stat(s, traced, stat) for s in by_pass[pass_name])
    plain = statistics.median(s["main_s"] for s in by_pass["plain"])
    for pass_name in layers.PASSES:
        traced = statistics.median(s["main_s"] for s in by_pass[pass_name])
        metrics[f"trace.{pass_name}_overhead"] = traced / plain - 1.0
    traced_samples = [s for p in layers.PASSES for s in by_pass[p]]
    missing = sorted(
        {name for s in traced_samples for name in s["absent"]}
        | {f"{name} counter" for s in traced_samples
           for name, stats in s["stats"].items() if stats.get("count_failed")})
    metrics["trace.absent"] = len(missing)
    return metrics, missing


def units() -> dict:
    table = dict(END_TO_END)
    table.update((name, unit) for name, unit, *_ in PER_LAYER)
    table.update({f"trace.{p}_overhead": "ratio" for p in layers.PASSES})
    table["trace.absent"] = "count"
    return table


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy} "
            f"loadavg={load}")


def run_workload(workload: Workload, seed: int, seconds: int,
                 trace: bool) -> int:
    """Measure one workload and print its result; return the exit code."""
    print(machine())
    samples, setups = measure(workload, seed, seconds, trace)
    failed = [s for s in samples if "error" in s]
    drifting, missing = {}, []
    if trace:
        metrics, missing = per_layer(samples)
    else:
        metrics, drifting = end_to_end(workload, samples, setups)
    for s in failed:
        print(f"failed {s['pass']} sample: {s['error']}", file=sys.stderr)
    if metrics is None:
        print(f"error: {workload.name}: no sample completed", file=sys.stderr)
        return 1
    table = units()
    print(f"workload {workload.name}: seed {seed}, {len(samples)} samples "
          f"in {'traced' if trace else 'untraced'} runs")
    for name, value in metrics.items():
        note = " (computed)" if name.rsplit(".", 1)[-1] in COMPUTED else ""
        print(f"  {name} = {value:.6g} {table[name]}{note}")
    for name, value in drifting.items():
        print(f"  {name} = {value:.6g} {DRIFTING[name]} (not gated)")
    print(f"  failed_frac = {len(failed) / len(samples):.6g} "
          f"({len(failed)} of {len(samples)})")
    for name in missing:
        print(f"  absent: {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": table[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not 1 <= args.seconds <= 150:
        parser.error("--seconds must be in [1, 150]")
    if not (ROOT / "src" / "bb84sim" / "cli.py").is_file():
        print(f"error: no bb84sim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(WORKLOADS[name], args.seed, args.seconds,
                            bool(args.trace)) for name in names)


if __name__ == "__main__":
    sys.exit(main())
