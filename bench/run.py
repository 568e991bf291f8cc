"""Closed-loop benchmark of tamearc: one client, one process, one instance at a time.

    python3 bench/run.py --workload diagram --seed 105 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists):
  diagram  diagram_check on dual symbols {f + eps*f1, g + eps*g1}
  complex  complex_check_q2 on coprime plane pairs (f, g)
  powers   factor_plane_curve on products of powers of known curves
  cli      fresh ``python -m tamearc.cli`` processes, one job each

With --trace 0 the seed's timed sample (see workloads.py; on cli, rounds
of jobs) runs for --seconds, and on until it holds MIN_SAMPLES instances
and ends on a whole block, and the end-to-end metrics are printed.  With
--trace 1 every instance of the seed's pool (one round of jobs on cli) runs
once with span wrappers, and once without them until --seconds of plain
time are spent; the per-layer metrics are printed and the spans are
written to .bench_trace/.

Every metric is printed as "name value unit"; the last line is one JSON
object.  Exit status: 0 when every instance passed its check, 1 when one
failed, 2 when the tamearc sources are missing.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import clijobs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

# The default seeds reproduce the acceptance pools: 105 is the pool of
# test_diagram_commutes_100_dual_symbols, 102 the plane pairs of
# test_boundary_of_boundary_vanishes_100_plane_pairs, and 7 the ``--seed 7``
# of test_structured_output_byte_identical_across_runs.
DEFAULT_SEEDS = {"diagram": 105, "complex": 102, "powers": 0, "cli": 7}
# (timed sample size, block).  Samples are powers of two (see
# workloads.stratified); a run that gets through one starts it again.  A
# timed phase ends on a whole block, so the mix measured does not depend on
# where the clock ran out: 16 instances are an evenly spaced subset of the
# sample, except on powers, whose heaviest instance alone is a sixth of the
# sample's time, so powers ends on whole passes.  On cli a block is a round.
SAMPLE = {"diagram": (128, 16), "complex": (256, 16), "powers": (64, 64)}
MIN_SAMPLES = 40  # the p75 then has at least ten samples beyond it
# On a shared machine the same code runs up to 1.7 times faster from one
# second to the next.  So right after each instance the compilation of a
# fixed Python source, which never touches tamearc, is timed, and the gated
# ref_ metrics scale the instance's time by REF_CALIB_S / that time: they
# read as on a machine on which the compilation takes REF_CALIB_S.  Of the
# stdlib kernels tried, this one tracked the speed of every workload best
# (see BASELINE.md).  The wall-time figures are printed but left out of the
# JSON result, so not gated.
CALIB_SOURCE = "".join(
    f"def f{i}(a, b=({i}, '{i}')):\n"
    f"    return [x * {i} + b[0] for x in range(a) if x % 3] or {{'k{i}': a}}\n"
    for i in range(40))
REF_CALIB_S = 0.0037
UNGATED = {"throughput_per_s", "latency_p50_ms", "latency_p75_ms", "calib_ms"}
SETUP_RUNS = 3
FINGERPRINT_COUNT = 32
INTERPRETER_RUNS = 5

_SETUP_PROBE = ("import sys, run; "
                "print(run.in_process_setup(sys.argv[1], int(sys.argv[2]))[0])")


def run_child(cmd, *path):
    """Run a fresh interpreter with ``path`` as PYTHONPATH; wait for it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))
    return subprocess.run(cmd, capture_output=True, env=env, timeout=150)


# --------------------------------------------------------------- in-process

def in_process_setup(name, seed):
    """Import tamearc, draw and build the timed sample, run one warm-up."""
    start = time.perf_counter()
    import workloads
    w = workloads.WORKLOADS[name]
    sample = w.sample(seed, SAMPLE[name][0])
    w.check(sample[0], w.run(sample[0]))
    return time.perf_counter() - start, w, sample


def median_setup(name, seed, first):
    """Median of this process's set-up and SETUP_RUNS - 1 fresh ones."""
    times = [first]
    for _ in range(SETUP_RUNS - 1):
        proc = run_child([sys.executable, "-c", _SETUP_PROBE, name, str(seed)],
                         BENCH, SRC)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode())
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def attempt(w, inst, tracer=None):
    """Time one instance (spans on when ``tracer``), then check it untimed."""
    result = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = w.run(inst)
    except Exception:
        traceback.print_exc()
    finally:
        took = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if result is None:
        return took, False, b""
    ok, out = w.check(inst, result)
    return took, ok, out


# ----------------------------------------------------------------------- cli

PLAIN_CLI = [sys.executable, "-m", "tamearc.cli"]


def attempt_cli(prefix, job):
    argv, expected = job
    start = time.perf_counter()
    proc = run_child(prefix + list(argv), SRC)
    took = time.perf_counter() - start
    ok = clijobs.check_cli(argv, expected, proc.returncode, proc.stdout)
    if not ok:
        print(f"cli job {argv!r} failed: exit {proc.returncode}\n"
              f"{proc.stdout.decode()}{proc.stderr.decode()}", file=sys.stderr)
    return took, ok, proc.stdout


def cli_setup(seed):
    """Build the round of jobs and run one fixed job as a warm-up.

    The warm-up is the same at every seed: the round's first job, which the
    seed shuffles, would make set-up time follow the shuffle.
    """
    start = time.perf_counter()
    jobs = clijobs.cli_jobs(seed)
    attempt_cli(PLAIN_CLI, clijobs.README_JOBS[0])
    return time.perf_counter() - start, jobs


# ------------------------------------------------------------------ phases

def calibrate():
    """Wall time of compiling CALIB_SOURCE, with gc off so that the heap
    the program left behind cannot slow it."""
    gc.disable()
    start = time.perf_counter()
    compile(CALIB_SOURCE, "<calibration>", "exec")
    took = time.perf_counter() - start
    gc.enable()
    return took


def timed_loop(one, seconds, block):
    """Closed loop: the next instance starts when the previous one is done.

    Each instance is followed by one calibration, outside its timing.
    """
    lat, calib, outs, failed = [], [], [], 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(lat) < MIN_SAMPLES
           or len(lat) % block):
        took, ok, out = one(len(lat))
        lat.append(took)
        calib.append(calibrate())
        failed += not ok
        if len(outs) < FINGERPRINT_COUNT:
            outs.append(out)
    return lat, calib, failed, outs


def end_to_end(lat, calib, setup_s, rss_kb):
    ms = [x * 1000 for x in lat]
    ref_ms = [t * REF_CALIB_S / c for t, c in zip(ms, calib)]
    return {
        "setup_s": (setup_s, "s"),
        "ref_throughput_per_s": (1000 * len(ref_ms) / sum(ref_ms), "1/s"),
        "ref_latency_p50_ms": (statistics.median(ref_ms), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "throughput_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p75_ms": (statistics.quantiles(ms, n=4)[2], "ms"),
        "calib_ms": (statistics.median(calib) * 1000, "ms"),
    }


def untraced(name, seed, seconds):
    if name == "cli":
        first, jobs = cli_setup(seed)
        setups = [first]

        def one(i):
            # A set-up takes a fifth of a second, so one is timed after each
            # round: the median then spans the run, not one spell of the
            # machine's speed.
            if i and i % len(jobs) == 0:
                setups.append(cli_setup(seed)[0])
            return attempt_cli(PLAIN_CLI, jobs[i % len(jobs)])

        lat, calib, failed, outs = timed_loop(one, seconds, len(jobs))
        setups.append(cli_setup(seed)[0])
        setup_s = statistics.median(setups)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        first, w, sample = in_process_setup(name, seed)
        if spans.is_installed():
            raise RuntimeError("span wrappers installed in an untraced run")
        lat, calib, failed, outs = timed_loop(
            lambda i: attempt(w, sample[i % len(sample)]), seconds, SAMPLE[name][1])
        if spans.is_installed():
            raise RuntimeError("span wrappers installed in an untraced run")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_s = median_setup(name, seed, first)
    note = f"first {min(len(lat), FINGERPRINT_COUNT)} instances of the timed stream"
    return end_to_end(lat, calib, setup_s, rss_kb), len(lat), failed, outs, note


def traced(name, seed, seconds):
    """Each pool instance plain, then with spans; plain stops after ``seconds``."""
    plain, with_spans, outs, failed = [], [], [], 0
    extra = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0}
    if name == "cli":
        jobs = clijobs.cli_jobs(seed)
        floor = []
        for _ in range(INTERPRETER_RUNS):
            start = time.perf_counter()
            run_child([sys.executable, "-c", "pass"])
            floor.append(time.perf_counter() - start)
        tracer = spans.Tracer()
        imports = []
        for i, job in enumerate(jobs):
            took, ok, _ = attempt_cli(PLAIN_CLI, job)
            plain.append(took)
            failed += not ok
            path = TRACE_DIR / f"cli-seed{seed}-job{i}.spans"
            took, ok, out = attempt_cli(
                [sys.executable, str(BENCH / "cli_traced.py"), str(path)], job)
            with_spans.append(took)
            failed += not ok
            outs.append(out)
            imports.append(tracer.absorb(path, i)["import_s"])
            path.unlink()
        extra = {"cli.interpreter_s": statistics.median(floor),
                 "cli.import_s": statistics.median(imports)}
    else:
        import workloads
        w = workloads.WORKLOADS[name]
        tracer = spans.Tracer()
        for i, inst in enumerate(w.pool(seed)):
            if sum(plain) < seconds:
                took, ok, _ = attempt(w, inst)
                plain.append(took)
                failed += not ok
            tracer.instance = i
            took, ok, out = attempt(w, inst, tracer)
            with_spans.append(took)
            failed += not ok
            outs.append(out)
    if spans.is_installed():
        raise RuntimeError("span wrappers left installed")
    tracer.write(str(TRACE_DIR / f"{name}-seed{seed}.spans"))
    metrics = {}
    for key, value in tracer.layer_metrics().items():
        unit = ("count" if key.endswith(".calls") else "s" if key.endswith("_s")
                else "degree" if key.endswith("degree") else "ratio")
        metrics[key] = (value, unit)
    for key, value in extra.items():
        metrics[key] = (value, "s")
    overhead = sum(with_spans[:len(plain)]) / sum(plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    note = f"all {len(outs)} instances of the traced pass"
    return metrics, len(plain) + len(with_spans), failed, outs, note


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tamearc" / "__init__.py").is_file():
        print(f"tamearc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    phase = traced if args.trace else untraced
    metrics, attempted, failed, outs, note = phase(args.workload, seed, args.seconds)

    digest = hashlib.sha256(b"\0".join(outs)).hexdigest()
    print(f"workload {args.workload} seed {seed} trace {args.trace} "
          f"attempted {attempted} failed {failed}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    print(f"failed_frac {failed / attempted!r} ratio")
    print(f"fingerprint sha256 {digest} ({note})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items() if key not in UNGATED}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
