"""qrrn benchmark: three single-process workloads, end-to-end and per-layer.

Run from the repository root:

    python3 benchmarks/run.py --workload town-a-tabular --seed 1 --seconds 30 --trace 0

Workloads (see BASELINE.md for why each exists):

* town-a-tabular: one-seed `qrrn trials mini-town-a.json --jobs 1 --svg`
  studies at full length through cli.main, each followed by a check of
  what it learned,
* town-a-network: the same with the network backend, 10k steps per study,
* town-b-verify: repeated load, rollout and oracle cycles on a trained
  three-route checkpoint kept in fixtures/.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
first does the untraced work, then repeats exactly the same work with
every layer entry point wrapped, checks that both passes produced the same
output digests, and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Scratch files go to .bench_build/ and are removed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("town-a-tabular", "town-a-network", "town-b-verify")
SETUP_PROBES = 9
# One caller, one process: BLAS threads would only compete with it.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed; every input is derived from it")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the timed work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def control_environment() -> tuple:
    """Pin what would otherwise shift the run: CPU, BLAS threads and seed
    offset. Returns the number of CPUs available and the one chosen."""
    cpus = os.sched_getaffinity(0)
    # one CPU for this process and its set-up probes, so that the timed
    # work and the reference kernel always run on the same one
    os.sched_setaffinity(0, {min(cpus)})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # the CLI adds QRRN_SEED_OFFSET to every seed
    os.environ.pop("QRRN_SEED_OFFSET", None)
    sys.path.insert(0, str(ROOT / "src"))
    return len(cpus), min(cpus)


def measure_setup(args, workloads) -> tuple:
    """Median time from starting a fresh interpreter to the first timed call,
    and the reference kernel times sampled while the probes ran."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times, kernels = [], []
    with workloads.SpeedSampler(kernels.append):
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT) as child:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                child.stdout.read()
            if child.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(
                    f"set-up probe failed with exit {child.returncode}")
            times.append(elapsed)
    return statistics.median(times), kernels


def metric_doc(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qrrn" / "__init__.py").is_file():
        print(f"benchmark: no qrrn sources under {ROOT / 'src'}; run it from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    nproc, cpu = control_environment()
    import spans
    import workloads

    try:
        setup = workloads.prepare(args.workload, args.seed)
    except (workloads.SetupError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: set-up failed: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        machine = workloads.machine_info(nproc, cpu)
        print(json.dumps({"machine": machine}))
        if args.trace:
            result = traced_run(setup, args, spans, workloads)
        else:
            result = untraced_run(setup, args, workloads)
    finally:
        setup.cleanup()
    print(json.dumps(result))
    return 0


def untraced_run(setup, args, workloads) -> dict:
    setup_s, setup_kernels = measure_setup(args, workloads)
    tally, units, cpu_s = workloads.run_pass(setup, seconds=args.seconds)
    failed = tally.failed + (not workloads.check_golden(setup, tally))
    metrics = workloads.end_to_end(setup, tally)
    metrics["setup_s"] = (setup_s * workloads.speed_scale(setup_kernels), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    measured = {k: v for k, (v, _) in
                workloads.end_to_end(setup, tally, scaled=False).items()}
    print(json.dumps({"summary": {
        "units": units, "cpu_s": cpu_s, "train_steps": tally.train_steps,
        "rollouts": len(tally.rollout_ms), "checkpoint_loads": len(tally.load_ms),
        "mc_episodes": tally.mc_episodes, "digests": tally.golden,
        "error_rate": failed / tally.attempted if tally.attempted else 1.0,
        **{k: v for k, (v, _) in workloads.quality(tally).items()},
        "kernel_ms": {k: 1e3 * statistics.median(v)
                      for k, v in tally.kernel_s.items() if v},
        "measured": dict(measured, setup_s=setup_s)}}))
    return {"correct": failed == 0, "attempted": tally.attempted,
            "failed": failed, "metrics": metric_doc(metrics)}


def traced_run(setup, args, spans, workloads) -> dict:
    # a third of the time untraced leaves room for the slower traced replay
    plain, units, plain_s = workloads.run_pass(setup, seconds=args.seconds / 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _, traced_s = workloads.run_pass(setup, units=units)
    finally:
        tracer.uninstall()
    failed = plain.failed + traced.failed
    failed += not workloads.check_golden(setup, plain)
    if traced.units != plain.units:
        print("benchmark: traced outputs differ from untraced outputs",
              file=sys.stderr)
        failed += 1
    overhead = (traced_s * traced.scale()) / (plain_s * plain.scale())
    metrics = workloads.per_layer(tracer, traced, overhead)
    print(json.dumps({"summary": {"units": units, "untraced_cpu_s": plain_s,
                                  "traced_cpu_s": traced_s}}))
    return {"correct": failed == 0,
            "attempted": plain.attempted + traced.attempted,
            "failed": failed, "metrics": metric_doc(metrics)}


if __name__ == "__main__":
    sys.exit(main())
