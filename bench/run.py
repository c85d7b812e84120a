"""riggedframes benchmark.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads: classify-ladder, dual-reconstruct, moment-probe (see
``workloads.WHY``).  Each runs in its own process as one client in a closed
loop: the next request starts only after the previous one returned.  A
request is one in-process ``riggedframes.cli.main`` call on a generated
config, and its report is checked against the paper's expected outcome.
BLAS runs single-threaded (RIGGEDFRAMES_THREADS=1).

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh set-up processes), median request time, correct requests per
second over whole passes, and peak resident memory up to the end of the
first pass.  ``--trace 1`` runs each request of one pass untraced and
traced, back to back, and reports per-layer metrics read off spans recorded
around every public riggedframes function, plus the tracing overhead.  The
dual-reconstruct process also checks, untimed, that the dirac map is still
Parseval at N=1024.

Every metric is printed by name with its unit and sample count; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  The program is imported from ``src/`` of the checkout that
holds this file, and everything written stays under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("RIGGEDFRAMES_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated until both floors are met, then the median is taken:
# a few seconds of repeats steady the sub-second imports, while workloads
# with a costly set-up stop at the minimum count.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
SETUP_TIMEOUT_S = 150
TAIL_PERMILLE = (999, 990, 950, 900)
END_TO_END_UNITS = {"setup_s": "s", "run_s_p50": "s", "requests_per_s": "1/s", "peak_rss_mb": "MB"}


def bootstrap():
    """Pin BLAS to one thread and put the checkout's ``src`` first on the
    import path; returns an error message when there is no source to run."""
    if not (SRC / "riggedframes" / "__init__.py").is_file():
        return f"no riggedframes package under {SRC.relative_to(ROOT)}/ next to {BENCH.name}/"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return None


def tail_percentile(count):
    """Highest reported percentile with at least ten samples beyond it."""
    for permille in TAIL_PERMILLE:
        if count * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def timing_summary(values):
    """Median plus the tail percentile the sample count supports."""
    summary = {"p50": statistics.median(values), "count": len(values)}
    tail = tail_percentile(len(values))
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(values, tail)
    return summary


def fail_ratio(outcomes, sentinels):
    """Failed requests and failed sentinels over everything attempted."""
    attempted = len(outcomes) + len(sentinels)
    failed = sum(not o.ok for o in outcomes) + sum(not s["passed"] for s in sentinels)
    return failed / attempted if attempted else 0.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload, seed):
    import numpy as np

    import workloads as wl

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "why": wl.WHY[workload],
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def time_setup(workload, seed, workdir):
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), workload, str(seed), str(workdir)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - spawned


def warm_up(workload, seed, workdir):
    """One untimed pass at small sizes so lazy initialisation is not timed."""
    import workloads as wl

    for request in wl.prepare(workload, seed, workdir, wl.SMALL):
        wl.execute(request, str(workdir / "report.json"))


def closed_loop(requests, seed, seconds, output):
    """Whole passes until ``seconds`` have elapsed; returns the outcomes, the
    loop's wall time, the number of passes and the peak RSS after the first
    pass.  Later passes can raise the peak (the allocator keeps freed memory
    for reuse), so reading it after a fixed amount of work keeps it from
    depending on how many passes the machine's speed allowed."""
    import workloads as wl

    outcomes = []
    started = time.perf_counter()
    passes = 0
    while time.perf_counter() - started < seconds:
        for request in wl.pass_order(requests, seed, passes):
            outcomes.append(wl.execute(request, output))
        if passes == 0:
            peak = peak_rss_mb()
        passes += 1
    return outcomes, time.perf_counter() - started, passes, peak


def paired_pass(order, output, recorder):
    """Each request of one pass runs untraced and traced back to back, the
    first of the two alternating, so that both timings see the same machine
    conditions; returns the outcomes and the (untraced, traced) seconds."""
    import spans
    import workloads as wl

    outcomes = []
    seconds = {False: 0.0, True: 0.0}
    for index, request in enumerate(order):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if not traced:
                outcome = wl.execute(request, output)
            else:
                recorder.request = index
                with spans.instrument(recorder), recorder.span("request", request=request.name):
                    outcome = wl.execute(request, output)
            seconds[traced] += outcome.seconds
            outcomes.append(outcome)
    return outcomes, seconds[False], seconds[True]


def run_sentinels(workload):
    import workloads as wl

    if workload != "dual-reconstruct":
        return []
    defect = wl.parseval_sentinel()
    return [
        {
            "name": f"dirac_parseval_N{wl.SENTINEL_N}",
            "value": defect,
            "passed": defect <= wl.SENTINEL_TOLERANCE,
        }
    ]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, workdir):
    """Untraced run: end-to-end metrics with their sample notes."""
    import workloads as wl

    setups = []
    while len(setups) < SETUP_MAX_REPEATS and (
        len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS
    ):
        setups.append(time_setup(workload, seed, workdir / f"setup-{len(setups)}"))
    requests = wl.prepare(workload, seed, workdir / "inputs")
    warm_up(workload, seed, workdir / "warm-up")
    outcomes, loop_s, passes, peak = closed_loop(requests, seed, seconds, str(workdir / "report.json"))
    correct = sum(o.ok for o in outcomes)
    times = timing_summary([o.seconds for o in outcomes])
    tail = "".join(f", {k} {v:.4f} s" for k, v in times.items() if k not in ("p50", "count"))
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh set-up processes"),
        "run_s_p50": (
            times["p50"],
            f"median of {times['count']} requests ({passes} x {len(requests)}-request passes){tail}",
        ),
        "requests_per_s": (
            correct / loop_s,
            f"{correct} correct requests in {loop_s:.2f} s at the workload's stated sizes",
        ),
        "peak_rss_mb": (peak, "ru_maxrss of the workload process over set-up and the first pass"),
    }
    return outcomes, metrics


def trace(workload, seed, workdir):
    """Traced run: set-up and one pass under spans, each request also timed
    untraced for the tracing overhead."""
    import spans
    import workloads as wl

    recorder = spans.Recorder()
    with spans.instrument(recorder), recorder.span("setup"):
        requests = wl.prepare(workload, seed, workdir / "inputs")
    warm_up(workload, seed, workdir / "warm-up")
    order = wl.pass_order(requests, seed, 0)
    outcomes, untraced_s, traced_s = paired_pass(order, str(workdir / "report.json"), recorder)
    values = spans.layer_metrics(recorder.spans)
    values["trace.overhead_ratio"] = traced_s / untraced_s
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{workload}-seed{seed}.json"
    recorder.write(span_file)
    note = (
        f"{len(recorder.spans)} spans over set-up and one pass of {len(order)} requests, "
        f"written to {span_file.relative_to(ROOT)}"
    )
    return outcomes, {name: (values[name], note) for name in spans.PER_LAYER_UNITS}


def run_workload(workload, seed, seconds, traced):
    import spans
    import workloads as wl

    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        if traced:
            outcomes, metrics = trace(workload, seed, workdir)
            units = spans.PER_LAYER_UNITS
        else:
            outcomes, metrics = measure(workload, seed, seconds, workdir)
            units = END_TO_END_UNITS
        sentinels = run_sentinels(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("environment " + json.dumps(environment(workload, seed)))
    for outcome in outcomes:
        if not outcome.ok:
            print(f"FAILED {outcome.request.name}: {'; '.join(outcome.problems)}")
    for s in sentinels:
        verdict = "pass" if s["passed"] else f"FAIL ({wl.SENTINEL_KNOWN_FAILURE})"
        print(f"sentinel {s['name']}: |S-I|max = {s['value']:.3e}, tolerance 1e-10, untimed: {verdict}")
    for name, (value, note) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]:<12} {note}")
    failed = sum(not o.ok for o in outcomes)
    print(
        f"{'fail_ratio':<36} {fail_ratio(outcomes, sentinels):>16.6g} {'ratio':<12} "
        f"{failed} of {len(outcomes)} requests and "
        f"{sum(not s['passed'] for s in sentinels)} of {len(sentinels)} sentinels failed"
    )
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    import workloads as wl

    worst = 0
    for workload in wl.WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run([sys.executable, __file__, *argv, "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return parser, args


def main(argv=None):
    parser, args = parse_args(argv)
    problem = bootstrap()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
