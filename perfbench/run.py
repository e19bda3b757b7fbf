"""The circforge benchmark: one run of one workload.

    python3 perfbench/run.py --workload circulant --seed 1 --seconds 15 --trace 0

Run from anywhere; it benchmarks the sources under `src/` next to this
directory.  A run sets up (imports circforge in a fresh interpreter and
generates the workload's inputs from the seed, several times), then runs
whole passes of the workload's operations, one at a time in an order
drawn from the seed, until --seconds have passed.  Every output is
checked against reference.json, and the workload's oracle runs after the
timed window.

Times are reported at a reference machine speed: a fixed stdlib loop is
timed between operations, and each measured time is scaled by
CAL_REF_S / (that loop's time around it).  The raw figures are printed
as notes.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, prints the per-layer metrics of the traced ones, and
checks that their call and term counts repeat exactly.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
TAIL_SAMPLES = 10  # samples a reported tail percentile must leave above it
MIN_TRACED_PASSES = 2  # the counts of these passes must agree exactly
# The speed of a 2-vCPU VM drifted by up to 1.7x within a minute, and the
# calibration loop's time follows it.  CAL_REF_S is that loop's time at
# the reference speed; it is re-timed at least every CAL_EVERY_S.
CAL_REF_S = 0.010
CAL_EVERY_S = 0.25


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or all to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the
    calibration loop and the work it scales share one core.  Unpinned, the
    child processes of cli_calls spread about three times as much.  The
    highest-numbered CPU is taken because CPU 0 usually serves interrupts;
    pinned there, cli_calls spread about twice as much."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError) as exc:
        print(f"perfbench: running unpinned ({exc})", file=sys.stderr)
        return None
    return cpu


def calibration_loop():
    """Fixed stdlib work shaped like the library's inner loops: small
    Fraction products and sums, tuple keys and dict updates."""
    terms = {}
    for i in range(1, 1500):
        key = (i % 7, i % 11)
        c = Fraction(i % 13 - 6, i % 5 + 1) * Fraction(i % 3 + 1, i % 4 + 1)
        cur = terms.get(key)
        terms[key] = c if cur is None else cur + c
    return terms


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def run_scaled(fn):
    """Run fn between two calibrations.  Return its result, its wall time,
    and the factor that scales times measured meanwhile to the reference
    speed."""
    before = calibrate()
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    return out, elapsed, CAL_REF_S / ((before + calibrate()) / 2)


class SpeedScale:
    """Scales the times measured between two calibrations by CAL_REF_S over
    the mean of those two calibration times."""

    def __init__(self):
        self.cal = [calibrate()]
        self.bounds = [0]  # index of the first time measured after each calibration
        self.at = time.perf_counter()

    def tick(self, times):
        """Between operations: calibrate again if CAL_EVERY_S have passed."""
        if time.perf_counter() - self.at >= CAL_EVERY_S:
            self.cal.append(calibrate())
            self.bounds.append(len(times))
            self.at = time.perf_counter()

    def scaled(self, times) -> list:
        self.cal.append(calibrate())
        self.bounds.append(len(times))
        out = []
        for k in range(len(self.bounds) - 1):
            factor = CAL_REF_S / ((self.cal[k] + self.cal[k + 1]) / 2)
            out += [t * factor for t in times[self.bounds[k]:self.bounds[k + 1]]]
        return out


class Tally:
    """Attempted and failed operations.  A failed probe is a violation of
    the CLI's error contract; any other failure is a wrong answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations = 0
        self.wrong: list[str] = []

    def record(self, op, error):
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if op.probe:
            self.violations += 1
        else:
            self.wrong.append(f"{op.key}: {error}")


def run_pass(ops, rng, tally, latencies, scale=None) -> list:
    """Run every operation once, in an order drawn from rng; return the outputs."""
    order = list(ops)
    rng.shuffle(order)
    outputs = []
    for op in order:
        if scale is not None:
            scale.tick(latencies)
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising operation is a failed one, not the end of the run
            out, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if error is None:
            error = op.check(out)
        tally.record(op, error)
        outputs.append(out)
    return outputs


def import_seconds(env) -> float:
    code = "import time; t = time.perf_counter(); import circforge.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout)


def set_up(workload, seed, reference, env):
    """Import in a fresh interpreter and build the inputs, SETUP_REPEATS
    times; return the inputs and the median set-up and import times."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        imp, _wall, factor = run_scaled(lambda: import_seconds(env))
        inputs, build_s, build_factor = run_scaled(lambda: workload.build(seed, reference))
        imports.append(imp * factor)
        totals.append(imp * factor + build_s * build_factor)
    return inputs, statistics.median(totals), statistics.median(imports)


def percentile(ordered, q):
    """Percentile q of sorted samples, interpolated linearly between ranks."""
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """The highest percentile up to 90, and not below 50, that leaves
    TAIL_SAMPLES of n samples above it."""
    return min(90, max(50, math.floor(100 * (1 - TAIL_SAMPLES / n))))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def measure(workload, inputs, seed, seconds, tally):
    rng = random.Random(seed)
    raw = []
    scale = SpeedScale()
    t0 = time.perf_counter()
    while not raw or time.perf_counter() - t0 < seconds:
        run_pass(inputs.ops, rng, tally, raw, scale)
    window = time.perf_counter() - t0
    ordered = sorted(scale.scaled(raw))
    q = tail_percentile(len(ordered))
    metrics = {
        "ops_per_s": (len(ordered) / sum(ordered), "1/s"),
        "op_p50_ms": (percentile(ordered, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(ordered, q) * 1e3, "ms"),
        "success_rate": (1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload.subprocess_ops), "MB"),
    }
    notes = {
        "samples": len(ordered),
        "op_p90_ms_percentile": q,
        "error_rate": tally.failed / tally.attempted,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "calibration_ms_median": statistics.median(scale.cal) * 1e3,
        "window_s": window,
    }
    return metrics, notes


def trace(workload, inputs, seed, seconds, tally, reference):
    import tracer
    import workloads

    traced_ops = inputs.ops
    if workload.subprocess_ops:
        traced_ops = workloads.build_cli_calls(seed, reference, traced=True).ops
    tr = tracer.Tracer()
    rng = random.Random(seed)
    plain_s, traced_s, per_pass, counts, violations = [], [], [], [], []

    def traced_pass():
        if not workload.subprocess_ops:
            tr.install()
        try:
            return run_pass(traced_ops, rng, tally, [])
        finally:
            tr.uninstall()

    t0 = time.perf_counter()
    while len(per_pass) < MIN_TRACED_PASSES or time.perf_counter() - t0 < seconds:
        _out, wall, factor = run_scaled(lambda: run_pass(inputs.ops, rng, tally, []))
        plain_s.append(wall * factor)
        before = tally.violations
        outputs, wall, factor = run_scaled(traced_pass)
        traced_s.append(wall * factor)
        violations.append(tally.violations - before)
        if workload.subprocess_ops:
            summary = tracer.merge(out.trace for out in outputs if out is not None and out.trace)
        else:
            summary = tr.take_pass()
        counts.append(tracer.counts_only(summary))
        per_pass.append({
            name: (value * factor if unit == "s" else value, unit)
            for name, (value, unit) in tracer.layer_metrics(summary).items()
        })
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        tally.wrong.append("traced call and term counts differ between passes of the same seed")
    # times vary from pass to pass; counts and ratios repeat, as checked above
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass) if unit == "s" else value, unit)
        for name, (value, unit) in per_pass[0].items()
    }
    metrics["cli.contract_violations"] = (violations[0], "count")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(plain_s), "ratio")
    return metrics, {"traced_passes": len(per_pass), "counts_repeat": repeat}


def main():
    args = parse_args()
    if not (SRC / "circforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no circforge sources at {SRC}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    os.environ.pop("CIRCFORGE_DEGREE_BOUND", None)  # the splitting engine reads it
    sys.path.insert(0, str(SRC))
    import circforge
    import workloads

    if Path(circforge.__file__).resolve().parent != SRC / "circforge":
        sys.exit(f"perfbench: imported circforge from {circforge.__file__}, not from {SRC}")
    if args.workload == "all":
        argv = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name, *argv]).returncode
            for name in workloads.WORKLOADS
        ]
        sys.exit(max(codes))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    cpu = pin_to_one_cpu()
    inputs, setup_s, import_s = set_up(workload, args.seed, reference, workloads.cli_env())

    tally = Tally()
    if args.trace:
        metrics, notes = trace(workload, inputs, args.seed, args.seconds, tally, reference)
        metrics["cli.import_s"] = (import_s, "s")
    else:
        metrics, notes = measure(workload, inputs, args.seed, args.seconds, tally)
        metrics["setup_s"] = (setup_s, "s")
    if workload.oracle is not None:
        try:
            tally.wrong += workload.oracle(inputs.oracle_data)
        except Exception as exc:  # an oracle that cannot finish is a failed check
            tally.wrong.append(f"oracle: {type(exc).__name__}: {exc}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for name, value in {**inputs.notes, **notes, "cpu": cpu}.items():
        print(f"  ({name} = {value:.6g})" if isinstance(value, float) else f"  ({name} = {value})")
    for message in tally.wrong[:20]:
        print(f"  WRONG {message}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
