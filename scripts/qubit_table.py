"""The efficiency table for n-qubit chains: the paper's exponential count
against the certified one.

    PYTHONPATH=src python3 scripts/qubit_table.py

For the chain generator n_qubit_generator(n) of tests/conftest.py, n = 1..5,
at t = 1 and eps = 1e-3 and 1e-6, it prints one Markdown row per case: m,
the component count (2n + 1 at d = 2^n), next to d^2 - 1, the dissipative
count of a generic generator; the merged exponential count of the paper's
plan (paper_plan of the spectral record's norms) and of the plan simulate runs, with
that plan's split of A and product formula and, for a mixture, in parentheses
its rows of component_orders(m), (0) for the coin flip;
its certificate and the certificate its leading error term
predicted (both empty for the paper's fallback plan), and the blocks the
certificate search built; and two wall times of simulate.  The
first call is on a generator not yet decomposed, so it includes the
decomposition; the repeat time is the best of two more calls on the same
generator, which reuse it.  Both include the certificate search.  The
oracle is not run.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import n_qubit_generator  # noqa: E402
from lindbladsim.lindblad import GksGenerator, maximally_mixed  # noqa: E402
from lindbladsim.trotter import paper_plan, simulate  # noqa: E402

T = 1.0


def main():
    print("| n | d | m | d²−1 | eps | paper N_exp | certified N_exp | split | formula "
          "| certificate | predicted | builds | first s | repeat s |")
    print("| - | - | - | ---- | --- | ----------- | --------------- | ----- | ------- "
          "| ----------- | --------- | ------ | ------- | -------- |")
    for n in range(1, 6):
        chain = n_qubit_generator(n)
        for eps in (1e-3, 1e-6):
            # a new generator for each eps, so that every first call decomposes
            g = GksGenerator(basis=chain.basis, H=chain.H, A=chain.A)
            walls = []
            for _ in range(3):
                start = time.perf_counter()
                _, plan, _ = simulate(g, maximally_mixed(g.d), T, eps)
                walls.append(time.perf_counter() - start)
            paper = paper_plan(g.splits.records[0].norms, eps, T)
            cert, predicted = ("" if x is None else f"{x:.2e}"
                               for x in (plan.certificate, plan.predicted_certificate))
            rows = ", ".join(map(str, plan.rows))
            formula = f"{plan.formula} ({rows})" if plan.rows else plan.formula
            print(f"| {n} | {g.d} | {plan.m} | {g.basis.n} | {eps:g} "
                  f"| {paper.actual_exponentials()} | {plan.actual_exponentials()} "
                  f"| {plan.split} | {formula} | {cert} "
                  f"| {predicted} | {plan.builds} | {walls[0]:.3f} | {min(walls[1:]):.3f} |",
                  flush=True)


if __name__ == "__main__":
    main()
