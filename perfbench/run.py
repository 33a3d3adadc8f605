"""envalg benchmark: one workload per run, closed loop, one client.

Usage, from the repository root::

    python3 perfbench/run.py --workload word-tables --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see NOTES.md).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it stamp the environment and spell out every
metric, ``fail_ratio`` included.  envalg is imported from ``src/`` of the
checkout this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import HERE, POOL, ROOT, SRC, WORKLOADS, child_env

REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "traces"
SETUP_PROBES = 4          # set-ups in child interpreters, besides this process's own
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
CAL_ROUNDS = 700          # one calibration kernel run: about 12 ms
CAL_RUNS = 2              # kernel runs per calibration
# Median calibration kernel time on the machine the benchmark was defined on
# (2-vCPU x86_64 VM, Python 3.11.7); scaled times are in its seconds.
CAL_REF_S = 0.0110

clock = time.perf_counter


def calibrate():
    """Mean time of a fixed small-integer kernel: how fast the host runs now.

    The kernel is interpreter-bound small-number arithmetic, like envalg's
    exact side, and uses nothing from envalg, so no change to envalg moves it.
    """
    start = clock()
    for _ in range(CAL_RUNS * CAL_ROUNDS):
        num, den = 0, 1
        for k in range(1, 41):
            a, b = k + 1, k * (k + 2)
            num, den = num * b + a * den, den * b
            g = math.gcd(num, den)
            num //= g
            den //= g
    return (clock() - start) / CAL_RUNS


class SpeedScale:
    """Scales measured intervals to reference-machine seconds.

    The host is shared: the same iteration runs 20-30% slower or faster
    from one minute to the next.  A calibration runs before the first and
    after every measured interval; an interval's factor is CAL_REF_S over
    the mean of the calibrations on either side of it.
    """

    def __init__(self):
        self.last = calibrate()

    def measure(self, fn):
        """Run ``fn``, which returns the seconds it measured; return (raw, factor)."""
        raw = fn()
        after = calibrate()
        factor = CAL_REF_S / ((self.last + after) / 2)
        self.last = after
        return raw, factor


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced sizes, for selfcheck.py")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this interpreter and print it")
    return parser.parse_args(argv)


def import_envalg(tracer=None):
    """Import envalg from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    start = clock()
    import envalg
    end = clock()
    if Path(envalg.__file__).resolve().parent != SRC / "envalg":
        raise SystemExit(f"error: imported envalg from {envalg.__file__}, not {SRC}")
    if tracer is not None:
        tracer.record("import.envalg", start, end)


def environment(load_at_start):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "loadavg_at_start": list(load_at_start),
    }


def load_reference(workload, seed, size):
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if size == "small":
        return table["small"].get(workload, {}) if seed % POOL == 0 else {}
    return {name: (want if isinstance(want, str) else want[seed % POOL])
            for name, want in table["full"][workload].items()}


class Checker:
    """Counts checks: a FAIL verdict, an exception or a digest mismatch fails."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def timed(self, step, tracer=None):
        """Run one step and check its results; return its wall time."""
        start = clock()
        try:
            checks = step(tracer)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return clock() - start
        elapsed = clock() - start
        for name, ok, digest in checks:
            self.attempted += 1
            want = self.reference.get(name)
            if not ok or digest != want:
                self.failed += 1
                print(f"check {name}: verdict {'PASS' if ok else 'FAIL'}, digest "
                      f"{digest[:12]} vs reference {str(want)[:12]}", file=sys.stderr)
        return elapsed


def timed_loop(checker, workload, speed, deadline, tracer=None):
    """Run iterations back to back until ``deadline``, at least one.

    Every step of an iteration is scaled by its own speed factor.  Returns
    the raw and the scaled wall time of each iteration.
    """
    raws, times = [], []
    while not raws or clock() < deadline:
        if tracer is not None:
            tracer.iteration = len(raws)
        raw = scaled = 0.0
        for step in workload.steps:
            seconds, factor = speed.measure(functools.partial(checker.timed, step, tracer))
            raw += seconds
            scaled += seconds * factor
        raws.append(raw)
        times.append(scaled)
    return raws, times


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    label = f"p{100.0 * (idx + 1) / n:.0f} of n={n}"
    if n <= TAIL_BEYOND:
        label += f" (fewer than {TAIL_BEYOND + 1} samples: minimum)"
    return ordered[idx], label


def setup_probe(args):
    start = clock()
    import_envalg()
    WORKLOADS[args.workload](args.seed, args.size == "small")
    print(json.dumps({"setup_s": clock() - start}))
    return 0


def probe_setups(args):
    """Time SETUP_PROBES set-ups in fresh interpreters; return their seconds."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
            "--size", args.size]

    def probe():
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              check=True, timeout=120)
        return json.loads(done.stdout.decode().splitlines()[-1])["setup_s"]

    return [probe() for _ in range(SETUP_PROBES)]


def run_workload(args):
    load_at_start = os.getloadavg()
    tracer = tracing.Tracer() if args.trace else None
    # set-up is mostly imports and does not track the calibration kernel,
    # so its times are not scaled (NOTES.md)
    start = clock()
    import_envalg(tracer)
    workload = WORKLOADS[args.workload](args.seed, args.size == "small")
    setups = [clock() - start] + probe_setups(args)
    speed = SpeedScale()
    env = environment(load_at_start)
    print("env " + json.dumps(env, sort_keys=True))

    checker = Checker(load_reference(args.workload, args.seed, args.size))
    if args.workload != "shipped-cli":
        # every CLI iteration starts cold; in-process ones fill lazy state first
        timed_loop(checker, workload, speed, clock())

    if not args.trace:
        raws, times = timed_loop(checker, workload, speed, clock() + args.seconds)
        tail_s, tail_label = tail(times)
        metrics = {
            "iter_p50_s": (statistics.median(times), "s"),
            "iter_tail_s": (tail_s, "s"),
            "peak_rss_mib": (workload.peak_rss_mib(), "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        notes = {"iter_tail_s": tail_label, "setup_s": f"median of {len(setups)} set-ups",
                 "setup_own_s": setups[0],
                 "raw_iter_p50_s": statistics.median(raws),
                 "raw_iter_tail_s": tail(raws)[0],
                 "raw_iterations": [round(t, 4) for t in raws],
                 "speed_factors": [round(t / r, 3) for t, r in zip(times, raws)]}
    else:
        # half the time untraced, the rest traced: the difference is the overhead
        deadline = clock() + args.seconds
        untraced = timed_loop(checker, workload, speed, deadline - args.seconds / 2)[1]
        if args.workload != "shipped-cli":   # CLI children trace themselves
            tracer.install()
        try:
            raws, traced = timed_loop(checker, workload, speed, deadline, tracer)
        finally:
            tracer.uninstall()
        factors = [t / r for t, r in zip(traced, raws)]
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}.jsonl.gz"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env,
                            "speed_factors": factors})
        values = tracer.layer_metrics(factors)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = dict(tracing.per_layer_names())
        metrics = {name: (values[name], units[name]) for name in units}
        notes = {"untraced_iterations": len(untraced), "traced_iterations": len(traced),
                 "untraced_p50_s": statistics.median(untraced),
                 "traced_p50_s": statistics.median(traced),
                 "spans": len(tracer.spans), "trace_file": str(path.relative_to(ROOT))}

    fail_ratio = checker.failed / checker.attempted
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    print(f"metric {args.workload} fail_ratio = {fail_ratio:.6g} "
          f"({checker.failed}/{checker.attempted} checks)")
    print("notes " + json.dumps(notes, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload in its own interpreter and print one table."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                              timeout=900)
        lines = done.stdout.decode().splitlines()
        for line in lines[:-1]:
            if line.startswith(("metric ", "env ")):
                print(line)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    if not (SRC / "envalg" / "__init__.py").is_file():
        print(f"error: no envalg sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
