"""One benchmark for the whole Sama stack.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload served_hot --seed 7
    python3 benchmarks/e2e/run.py --workload direct_mix --trace 1
    python3 benchmarks/e2e/run.py --smoke               # ~40 s, not comparable

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is non-zero when any answer was wrong or any part of the
program the benchmark drives is missing.  See README.md beside this
file for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

import spec  # noqa: E402  (sibling modules: this file runs as a script)

#: Set-ups per run; ``setup_s`` is their median.  The extra ones run in
#: child processes so they leave nothing in the measured process.
SETUP_REPEATS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the measured phase "
                             f"(default {spec.RUN_SECONDS}, --smoke 2)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run that prints per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="LUBM 1500 everywhere, a 2-second phase, one "
                             "set-up: same checks, numbers not comparable")
    parser.add_argument("--print-manifest", action="store_true",
                        help="print BENCHMARK.json as spec.py defines it")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(spec.RUN_SECONDS)
    return args


def child_command(args, **override) -> "list[str]":
    values = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **override}
    command = [sys.executable, str(HERE / "run.py")]
    for name, value in values.items():
        command += [f"--{name}", str(value)]
    if args.smoke:
        command.append("--smoke")
    return command


def run_all(args) -> int:
    """Every workload in a process of its own, end-to-end then traced."""
    worst = 0
    for name in spec.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            print(f"== {name} (trace {trace}) ==", flush=True)
            done = subprocess.run(
                child_command(args, workload=name, trace=trace))
            worst = max(worst, done.returncode)
    return worst


def child_setup_seconds(args) -> float:
    done = subprocess.run(child_command(args) + ["--setup-only"],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_set_up(workload) -> float:
    """Set the workload up; the seconds it took at reference speed."""
    import harness

    clock = harness.SetupClock()
    workload.set_up(clock.tick)
    return clock.seconds()


def end_to_end(workload, args) -> dict:
    import harness

    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [child_setup_seconds(args) for _ in range(repeats - 1)]
    try:
        setups.append(timed_set_up(workload))
        workload.before_measure()
        sweeps = harness.measure(workload.sweeps(), args.seconds)
        peak_rss = workload.peak_rss_mib()
        workload.verify()
    finally:
        workload.tear_down()

    # Per-sweep raw time beside the spin around it: the evidence for
    # dividing times by the spin (see calibrate.py).
    (OUT / f"sweeps-{workload.name}.json").write_text(json.dumps(
        [{"spin_ms": sweep.spin_ms, "raw_seconds": sweep.raw_seconds}
         for sweep in sweeps]))
    summary = harness.summarise(sweeps)
    samples = [s for sweep in sweeps for s in sweep.samples]
    failed = sum(1 for s in samples
                 if not s.ok or s.op_class in workload.bad_classes)
    attempted = len(samples) + workload.checks_attempted
    failed += workload.checks_failed
    metrics = {"setup_s": statistics.median(setups),
               **summary["metrics"], "peak_rss_mb": peak_rss}
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}

    comparable = "" if not args.smoke else "  [smoke: not comparable]"
    print(f"{workload.name}: seed {args.seed}, LUBM {workload.triples}, "
          f"{summary['sweeps']} sweeps, {summary['samples']} reads, "
          f"machine at {summary['spin_factor']:.2f}x reference spin"
          f"{comparable}")
    for name, value in metrics.items():
        spread = summary["block_spread"].get(name)
        note = (f"  n={summary['samples']}, block spread {spread:.1%}"
                if spread is not None else "")
        print(f"  {name:<16} {value:>12.4f} {units[name]:<5}{note}")
    print(f"  set-ups: {', '.join(f'{s:.2f}' for s in setups)} s; "
          f"raw queries_per_s {summary['raw_queries_per_s']:.3f}")
    print("  class medians (ms): " + ", ".join(
        f"{name} {value:.2f}"
        for name, value in summary["class_median_ms"].items()))
    for problem in summary["boundary_violations"]:
        print(f"  WARNING: {problem}")
    print(f"  failed_ops_ratio {failed}/{attempted}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.print_manifest:
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order is part of the program's behaviour; fix it.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.workload is None:
        return run_all(args)

    import adapter
    try:
        adapter.check()
    except adapter.MissingSurface as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import calibrate
    import workloads

    calibrate.pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    # Anything the program puts in a temporary directory stays in here.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, work_dir, smoke=args.smoke)
        if args.setup_only:
            try:
                print(timed_set_up(workload))
            finally:
                workload.tear_down()
            return 0
        if args.trace:
            import traced
            result = traced.run(workload, OUT)
        else:
            result = end_to_end(workload, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
