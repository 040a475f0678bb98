"""commwalker benchmark: run one workload from a seed, check every output,
print the metrics.

    python3 perfbench/run.py --workload karate --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 makes a traced run and
prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, reference, tracing, workloads  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
# Set-up is measured this many extra times, each in a fresh interpreter.
SETUP_PROBES = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("detect_s_p50", "s"),
    ("q_mean", "1"),
    ("accuracy_mean", "1"),
    ("failed_frac", "1"),
    ("cap_hit_frac", "1"),
    ("peak_rss_mb", "MB"),
    ("wall_raw_s", "s"),
    ("detect_raw_s_p50", "s"),
)
# Printed, but left out of the result line. The two fractions are 0 whenever
# the program works, and a zero median gives no relative spread or bound; the
# raw wall-clock figures follow the host's load more than the program.
PRINTED_ONLY = ("failed_frac", "cap_hit_frac", "wall_raw_s", "detect_raw_s_p50")


def setup(workload: workloads.Workload, seed: int, seconds: float):
    """Import the program from this checkout and make the run's cases.
    Returns (rescaled seconds taken, cases)."""

    def load():
        import commwalker
        import commwalker.cli  # noqa: F401

        where = Path(commwalker.__file__).resolve()
        if not where.is_relative_to(ROOT / "src"):
            raise ImportError(f"commwalker was imported from {where}, not from {ROOT / 'src'}")
        return workload.cases(seed, seconds)

    speed = reference.Reference()
    before = speed.measure()
    cases, seconds_taken, inside = speed.time_call(load)
    return reference.rescale(seconds_taken, [before, speed.measure()] + inside), cases


def probe_setup(args) -> float:
    """Time set-up once in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Timed(NamedTuple):
    """One timed call that passed its checks. seconds is raw_seconds
    rescaled to the reference speed."""

    index: int
    seconds: float
    raw_seconds: float
    out: workloads.Output
    accuracy: float


class Run:
    """Calls, checks and scores for one run. A call that raises or fails a
    check counts as failed; its output is not scored."""

    def __init__(self, workload: workloads.Workload, cases: list[workloads.Case]) -> None:
        self.workload = workload
        self.cases = cases
        self.first_output: list[str | None] = [None] * len(cases)
        self.speed = reference.Reference()
        self.attempted = 0
        self.failed = 0

    def call(self, i: int, tracer: tracing.Tracer | None = None):
        """Run case i once. Returns (seconds, reference samples taken during
        the call, output, accuracy), or None when the call failed. The
        seconds exclude the time spent on the samples."""
        from commwalker import Partition, partition_accuracy

        case = self.cases[i]
        self.attempted += 1
        gc.collect()  # so no garbage of earlier calls or checks is collected inside this one
        try:
            result, elapsed, inside = self.speed.time_call(lambda: self.workload.call(case))
            out = self.workload.decode(result)
            found = checks.problems(case, out, self.first_output[i])
        except Exception:  # a failing call must not stop the run
            traceback.print_exc()
            self.failed += 1
            return None
        if self.first_output[i] is None:
            self.first_output[i] = out.raw
        if found:
            print(f"call {i} (seed {case.seed}) failed: " + "; ".join(found), file=sys.stderr)
            self.failed += 1
            return None
        predicted = Partition.from_labels(out.communities[name] for name in case.spec.names)
        truth = Partition.from_labels(case.spec.truth)
        with tracer.span("modularity.accuracy") if tracer else contextlib.nullcontext():
            accuracy = partition_accuracy(predicted, truth)
        return elapsed, inside, out, accuracy

    def timed_pass(self, indices, tracer: tracing.Tracer | None = None) -> list[Timed]:
        """Call the cases in order. Each call's seconds are rescaled by the
        median reference unit time measured just before, during and just
        after it."""
        done = []
        before = self.speed.measure()
        for i in indices:
            if tracer is not None:
                tracer.call = i
            record = self.call(i, tracer)
            after = self.speed.measure()
            if record is not None:
                raw_seconds, inside, out, accuracy = record
                scaled = reference.rescale(raw_seconds, [before, after] + inside)
                done.append(Timed(i, scaled, raw_seconds, out, accuracy))
            before = after
        return done


def end_to_end(done: list[Timed], setup_s: float, run: Run) -> dict[str, float]:
    seconds = [t.seconds for t in done] or [0.0]
    raw_seconds = [t.raw_seconds for t in done] or [0.0]
    return {
        "setup_s": setup_s,
        "wall_s": sum(seconds),
        "detect_s_p50": statistics.median(seconds),
        "q_mean": statistics.fmean(t.out.q for t in done) if done else 0.0,
        "accuracy_mean": statistics.fmean(t.accuracy for t in done) if done else 0.0,
        "failed_frac": run.failed / run.attempted,
        "cap_hit_frac": statistics.fmean(t.out.cap_hit for t in done) if done else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_raw_s": sum(raw_seconds),
        "detect_raw_s_p50": statistics.median(raw_seconds),
    }


def machine() -> str:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu or 'unknown'} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="commwalker benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workload = workloads.WORKLOADS[args.workload]
    try:
        own_setup_s, cases = setup(workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"error: cannot load the program from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    print(f"# machine: {machine()}")
    print(f"# workload {workload.name}, seed {args.seed}: {len(cases)} calls, "
          f"one untimed warm-up call, trace {args.trace}")
    run = Run(workload, cases)
    run.call(0)  # warm-up; also the reference output for the determinism check

    if args.trace == 0:
        # The probes are spread over the run so that they see the machine at
        # different moments, as the calls do.
        n, done, setups = len(cases), [], [own_setup_s]
        for k in range(SETUP_PROBES):
            setups.append(probe_setup(args))
            done += run.timed_pass(range(k * n // SETUP_PROBES, (k + 1) * n // SETUP_PROBES))
        values = end_to_end(done, statistics.median(setups), run)
        print(f"# detect_s_p50 is the median of {len(done)} timed calls")
        units = dict(END_TO_END)
        reported = [name for name, _ in END_TO_END if name not in PRINTED_ONLY]
    else:
        traced = range(math.ceil(len(cases) / 2))
        untraced_s = sum(t.seconds for t in run.timed_pass(traced))
        tracer = tracing.Tracer()
        with tracer.installed():
            done = run.timed_pass(traced, tracer)
        scale = {t.index: t.seconds / t.raw_seconds for t in done}
        values = tracer.metrics(len(traced), sum(t.seconds for t in done), untraced_s, scale)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write(spans_file)
        print(f"# per-layer figures are per detect call over {len(traced)} traced calls; "
              f"spans in {os.path.relpath(spans_file, ROOT)}")
        print("# the layers are single-threaded: no layer waits, so no wait time is reported")
        for name in sorted(tracer.absent):
            print(f"# absent: {name} (reported as 0)")
        units = dict(tracing.METRICS)
        reported = list(units)

    for name in units:
        print(f"{workload.name} {name} {values[name]:.6g} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
