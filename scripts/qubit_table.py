"""The efficiency table for n-qubit chains: the paper's exponential count
against the certified one.

    PYTHONPATH=src python3 scripts/qubit_table.py

For the chain generator n_qubit_generator(n) of tests/conftest.py (m = 2n + 1
components at d = 2^n), n = 1..4, at t = 1 and eps = 1e-3 and 1e-6, it
prints one Markdown row per case: m, the merged exponential count of the
paper's plan (paper_plan), that of the plan simulate runs, its certificate
(empty for the paper's fallback plan) and the best wall time of three
simulate calls, which includes the certificate search.  The oracle is not
run.
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import n_qubit_generator  # noqa: E402
from lindbladsim.lindblad import maximally_mixed  # noqa: E402
from lindbladsim.trotter import paper_plan, simulate  # noqa: E402

T = 1.0


def main():
    print("| n | d | m | eps | paper N_exp | certified N_exp | certificate | wall s |")
    print("| - | - | - | --- | ----------- | --------------- | ----------- | ------ |")
    for n in range(1, 5):
        g = n_qubit_generator(n)
        for eps in (1e-3, 1e-6):
            wall = math.inf
            for _ in range(3):
                start = time.perf_counter()
                _, plan, comps = simulate(g, maximally_mixed(g.d), T, eps)
                wall = min(wall, time.perf_counter() - start)
            paper = paper_plan(comps, eps, T)
            cert = "" if plan.certificate is None else f"{plan.certificate:.2e}"
            print(f"| {n} | {g.d} | {plan.m} | {eps:g} | {paper.actual_exponentials()} "
                  f"| {plan.actual_exponentials()} | {cert} | {wall:.3f} |")


if __name__ == "__main__":
    main()
