"""Summarize result files written by ``run.py --out`` into one baseline document.

    python3 bench/summarize.py RESULT.json ... > bench/BENCH_<tag>.json

Per workload and metric (and for the unbounded p50, tail, ok_per_s and
fail_ratio) it gives the median over runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
together with the seeds, failure counts by reason and the environment.
"""

import json
import statistics
import sys
from collections import defaultdict

UNBOUNDED = ("p50_s", "tail_s", "ok_per_s", "fail_ratio")  # reported by run.py, not in BENCHMARK.json


def describe(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "runs": len(values)}


def summarize(results) -> dict:
    grouped = defaultdict(list)
    for r in results:
        grouped[(r["workload"], r["trace"])].append(r)
    out = {"environment": results[0]["environment"], "workloads": {}}
    for (name, trace), runs in sorted(grouped.items()):
        entry = out["workloads"].setdefault(name, {})
        reasons = defaultdict(int)
        for r in runs:
            for reason, n in r["fail_reasons"].items():
                reasons[reason] += n
        entry["traced" if trace else "untraced"] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "fail_reasons": dict(sorted(reasons.items())),
            "correct": all(r["correct"] for r in runs),
            "metrics": {m: dict(unit=runs[0]["metrics"][m]["unit"],
                                **describe([r["metrics"][m]["value"] for r in runs]))
                        for m in runs[0]["metrics"]},
            "not_bounded": {k: describe([r[k] for r in runs]) for k in UNBOUNDED},
        }
    return out


if __name__ == "__main__":
    results = []
    for path in sys.argv[1:]:
        with open(path) as fh:
            results.append(json.load(fh))
    if not results:
        sys.exit("usage: summarize.py RESULT.json ...")
    print(json.dumps(summarize(results), indent=1, sort_keys=True))
