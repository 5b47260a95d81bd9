"""lindbladsim benchmark: one seeded workload, checked, timed, reported.

    python3 bench/run.py --workload random-d6 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout.  A run makes as many whole passes over the workload's
seeded instance set as fit in ``--seconds`` (at least the workload's
``min_passes``), gates every call outside the timed region, and prints a
human report on stderr and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run spends half its time on
untraced passes and half on traced passes, and the metrics are the
per-layer self times and counts from ``tracing.py`` plus the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.
``--out FILE`` also writes the full result (environment, failure reasons,
every call time and, when traced, every span as [name, start, end,
parent index]) as JSON.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(env) -> int:
    """Cap BLAS threads at the usable CPU count (before numpy is imported)."""
    current = env.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(current), NPROC) if current.isdigit() and int(current) > 0 else NPROC
    for var in BLAS_VARS:
        env[var] = str(threads)
    return threads


BLAS_THREADS = cap_blas_threads(os.environ)
sys.path[:0] = [str(SRC), str(BENCH)]

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lindbladsim  # noqa: E402

if Path(lindbladsim.__file__).resolve().parent.parent != SRC:
    sys.exit(f"lindbladsim was imported from {lindbladsim.__file__}, not from {SRC}")

from tracing import PER_LAYER, ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, PlanCapture, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 15
SETUP_CODE = """
import io, sys, time
from contextlib import redirect_stdout
t0 = time.perf_counter()
import numpy as np
import lindbladsim, lindbladsim.cli
from lindbladsim.lindblad import DiagonalGenerator, from_diagonal
g = from_diagonal(DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((1.0, [[0, 1], [0, 0]]),)))
lindbladsim.simulate(g, lindbladsim.maximally_mixed(2), 0.5, 1e-3)
with redirect_stdout(io.StringIO()):
    lindbladsim.cli.main(["cost", "--m", "2", "--t", "1", "--L1", "2", "--L2", "1"])
print(time.perf_counter() - t0)
"""


class SetupSampler:
    """Fresh-interpreter import of the package plus its first calls, in seconds.

    The samples are spread over the run (``due``) rather than taken in one
    burst, so that a slow spell of the machine moves only some of them.
    """

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.times = []
        self.spent = 0.0  # wall time taken by the samples, kept out of the run's budget
        self.code = f"import sys; sys.path.insert(0, {str(SRC)!r})\n" + SETUP_CODE

    def sample(self):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", self.code], capture_output=True, text=True,
                              timeout=120, check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))
        self.spent += time.perf_counter() - start

    def due(self, fraction: float):
        """Take samples until `fraction` of them (0..1) are done."""
        while len(self.times) < self.repeats * min(fraction, 1.0):
            self.sample()


def percentile(values, pct: float):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ranked = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ranked)))
    return ranked[k - 1], len(ranked) - k


def timed(instance):
    start = time.perf_counter()
    result = instance.call()
    return time.perf_counter() - start, result


def run_passes(instances, seconds: float, min_passes: int = 1, tracer: Tracer | None = None,
               setup: SetupSampler | None = None):
    """As many whole passes over the instances as fit in `seconds`, at least `min_passes`.

    Returns the time and outcome of every call and the pass count.  With a
    tracer every call runs inside a root span; with a setup sampler, setup
    samples are taken between calls as the run's time goes by.
    """
    times, outcomes = [], []
    start = time.perf_counter()
    passes = 0
    elapsed = 0.0
    while passes < min_passes or elapsed * (passes + 1) / passes <= seconds:
        for inst in instances:
            if tracer is None:
                dt, result = timed(inst)
            else:
                dt, result = tracer.span(ROOT_SPAN, timed, inst)
            times.append(dt)
            outcomes.append(inst.check(result))
            if setup is not None:
                used = time.perf_counter() - start - setup.spent
                setup.due(used / seconds if seconds > 0 else 1.0)
        passes += 1
        elapsed = time.perf_counter() - start - (setup.spent if setup else 0.0)
    return times, outcomes, passes


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "lindbladsim": lindbladsim.__version__}


def mean_costs(outcomes, index: int) -> float:
    """Mean n_exp (index 0) or n_reps (1) over the calls that ran a plan."""
    costs = [c[index] for o in outcomes for c in o.costs]
    return statistics.fmean(costs) if costs else 0.0


def best_mean(times, instances: int) -> float:
    """Mean over instances of each one's fastest call; `times` holds whole passes."""
    return statistics.fmean(min(times[i::instances]) for i in range(instances))


def end_to_end(outcomes, times, instances: int, setup_times) -> dict:
    """The bounded end-to-end metrics of an untraced run, by name.

    ``call_s.best_mean`` is the mean over the workload's instances of each
    instance's fastest call in the run.  On a shared 2-vCPU virtual machine
    the same call runs up to 1.5 times slower for seconds to minutes at a
    time.  Over ten seeds that moved the pooled median by up to a quarter,
    and the best call per instance by 6-11 % on workloads with tens of
    passes and by about 20 % on random-d6, which has two.  The best call also
    leaves out the lazy set-up a process pays on its first calls, which
    ``setup_s`` measures.  The pooled median and tail are still reported,
    unbounded.
    """
    return {
        "setup_s": statistics.median(setup_times),
        "call_s.best_mean": best_mean(times, instances),
        "n_exp": mean_costs(outcomes, 0),
        "n_reps": mean_costs(outcomes, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    setup = None if trace else SetupSampler(SETUP_REPEATS)
    tracer = Tracer() if trace else None
    capture = PlanCapture()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        instances = wl.build(seed, workdir, capture)
        if trace:
            # the untraced side of the overhead runs before any wrapper exists
            with capture:
                plain, outcomes, passes = run_passes(instances, seconds / 2, wl.min_passes)
            tracer.install()
            try:
                with capture:  # wraps the traced build_plan
                    traced, more, _ = run_passes(instances, seconds / 2, wl.min_passes, tracer)
            finally:
                tracer.uninstall()
            outcomes += more
        else:
            with capture:
                plain, outcomes, passes = run_passes(instances, seconds, wl.min_passes, setup=setup)
            setup.due(1.0)
    reasons = Counter(o.reason for o in outcomes if o.reason is not None)
    attempted, failed = len(outcomes), sum(reasons.values())
    # a library call that ran no plan is a wrong answer (see workloads.py); a run
    # in which no call ran one has no n_exp or n_reps to report
    planned = any(o.costs for o in outcomes)
    tail, beyond = percentile(plain, wl.tail_pct)
    result = {
        "workload": wl.name, "timed": wl.timed, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "instances": len(instances), "passes": passes, "samples": len(plain),
        "call_times_s": plain,
        "p50_s": statistics.median(plain),
        "tail_s": tail, "tail_pct": wl.tail_pct, "tail_beyond": beyond,
        "attempted": attempted, "failed": failed, "fail_reasons": dict(sorted(reasons.items())),
        "fail_ratio": failed / attempted,
        "ok_per_s": (attempted - failed) / sum(plain + (traced if trace else [])),
        "correct": planned and not any(o.wrong for o in outcomes),
    }
    if trace:
        summary = tracer.summary()
        values = {name: f(summary) for name, f in PER_LAYER.items()}
        values["trace.overhead_s"] = (best_mean(traced, len(instances))
                                      - best_mean(plain, len(instances)))
        result["traced_p50_s"] = statistics.median(traced)
        result["spans"] = tracer.spans
        specs = SPEC["per_layer"]
    else:
        values = end_to_end(outcomes, plain, len(instances), setup.times)
        result["setup_samples_s"] = setup.times
        specs = SPEC["end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in specs}
    return result


def report(result: dict, out=sys.stderr):
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}",
          file=out)
    print(f"# environment {json.dumps(result['environment'])}", file=out)
    print(f"# {result['instances']} instances x {result['passes']} passes = "
          f"{result['samples']} timed calls; tail = p{result['tail_pct']:g} "
          f"({result['tail_beyond']} samples beyond)", file=out)
    for name, m in result["metrics"].items():
        alias = name.replace("call_s", result["timed"])
        print(f"{alias:34s} {m['value']:14.6g} {m['unit']}", file=out)
    print("# not bounded:", file=out)
    timed = result["timed"]
    print(f"{timed + '.p50':34s} {result['p50_s']:14.6g} s", file=out)
    print(f"{timed + '.tail':34s} {result['tail_s']:14.6g} s", file=out)
    print(f"{'ok_per_s':34s} {result['ok_per_s']:14.6g} 1/s", file=out)
    print(f"{'fail_ratio':34s} {result['fail_ratio']:14.6g} 1", file=out)
    for reason, n in result["fail_reasons"].items():
        print(f"{'  fail_ratio.' + reason:34s} {n / result['attempted']:14.6g} 1  ({n})", file=out)
    if result["trace"]:
        print(f"# traced p50 {result['traced_p50_s']:.6g} s, untraced p50 "
              f"{result['p50_s']:.6g} s", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result as JSON")
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
