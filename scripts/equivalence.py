"""The equivalence set: one simulate run per instance, recorded so that two
checkouts can be compared plan by plan and state by state.

    PYTHONPATH=src python3 scripts/equivalence.py > runs.jsonl
    PYTHONPATH=src python3 scripts/equivalence.py --compare parent.jsonl change.jsonl

The set has 269 instances.  Two hundred are the benchmark's own, built by its
instance builders in bench/workloads.py: seeds 1-10 of random-d6 (4 generators
each) and of lambda-trajectory (16 times and tolerances each).  The other 69
come from tests/conftest.py, at eps 1e-3, 1e-6 and 1e-9 with the maximally
mixed state: random_gks(d, default_rng(s)) for d = 2..6 and s = 1..3 at t = 1,
n_qubit_generator(n) for n = 1..4 at t = 1, and lambda_atom() at t = 0.5, 1, 4
and 16.  Both files are only read.

Each run is written as one serialize.dumps line: the case id, t and eps; the
plan's split of A, formula, rows (a mixture's rows of component_orders(m)), k, n_reps,
builds and actual_exponentials(); its certificate,
predicted certificate, residual bound t r, rounding allowance delta and
target eps - t r - delta (each null for the paper's fallback plan); dist / eps,
the trace distance to lindblad.apply_exact over eps; the SHA-256 of the
state's bytes; and the state itself, as [re, im] pairs row by row.  A run that
raises is written with its error in place of the plan.

After the runs come the CLI's documents.  Every call of the cli-roundtrip
workload's instances (bench/workloads.py, seeds 1-10; 43 calls each) runs
through cli.main in this process, in a temporary directory, and so do twelve
calls on fixed malformed inputs (malformed_requests): validate and decompose
on a document that serialize refuses, on one whose A is not positive
semidefinite and on one with d = 0, and simulate on a request that misses a
key, one that is not an object, one with a numeric mode, one with t = NaN, one
whose generator is refused and one whose state object misses 'rho'.  Each text
a call writes, to stdout, to its --out file or to stderr, is one line with an
id, the subcommand, the exit code, the byte count and the SHA-256 of the bytes:
1094 lines, 1070 of them from cli-roundtrip.

--compare reads two such files, the first the reference, and prints the plans
that moved (split, formula, rows, k, n_reps, builds or exponentials), each with the
reference's certificate over that run's own target; the runs whose exponentials
rose; the certified runs that fall back; per workload, how many states are
bit-identical, the largest entry difference, the largest relative change of
a certificate that both files carry and the largest change of dist / eps;
the worst dist / eps of a certified run in each file; and the CLI documents
(stderr included) whose exit code or bytes moved.  It exits 1 when the case
ids differ, a plan moved, exponentials rose, a certified run falls back, an
error changed or a CLI exit code moved, and 0 otherwise: moved bytes alone do
not fail it.
"""

import argparse
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]

from conftest import lambda_atom, n_qubit_generator, random_gks  # noqa: E402
from lindbladsim import cli, serialize  # noqa: E402
from lindbladsim.lindblad import apply_exact, maximally_mixed, trace_distance  # noqa: E402
from lindbladsim.trotter import simulate  # noqa: E402
from workloads import cli_roundtrip, lambda_trajectory, random_d6  # noqa: E402

SEEDS = range(1, 11)
EPS = (1e-3, 1e-6, 1e-9)
LAMBDA_TIMES = (0.5, 1.0, 4.0, 16.0)
PLAN_FIELDS = ("split", "formula", "rows", "k", "n_reps", "builds", "actual_exponentials")


def instances():
    """(case id, generator, initial state, t, eps), in a fixed order."""
    for name, build in (("random-d6", random_d6), ("lambda-trajectory", lambda_trajectory)):
        for seed in SEEDS:
            for i, call in enumerate(build(seed, None, None)):
                yield f"{name}/s{seed}/{i}", call.g, call.rho0, call.t, call.eps
    generators = [(f"random-d{d}-s{s}", random_gks(d, np.random.default_rng(s)), 1.0)
                  for d in range(2, 7) for s in (1, 2, 3)]
    generators += [(f"qubits-{n}", n_qubit_generator(n), 1.0) for n in range(1, 5)]
    generators += [(f"lambda-t{t:g}", lambda_atom(), t) for t in LAMBDA_TIMES]
    for name, g, t in generators:
        for eps in EPS:
            yield f"{name}/eps{eps:g}", g, maximally_mixed(g.d), t, eps


def record(case, g, rho0, t, eps) -> dict:
    out = {"id": case, "t": t, "eps": eps}
    try:
        state, plan, _ = simulate(g, rho0, t, eps)
    except Exception as exc:  # recorded, so that a refusal shows in the comparison
        return {**out, "error": f"{type(exc).__name__}: {exc}"}
    rho = np.ascontiguousarray(state.rho)
    return {**out, "split": plan.split, "formula": plan.formula, "rows": list(plan.rows),
            "k": plan.k,
            "n_reps": plan.n_reps,
            "builds": plan.builds, "actual_exponentials": plan.actual_exponentials(),
            "certificate": plan.certificate,
            "predicted_certificate": plan.predicted_certificate,
            "residual_bound": plan.residual_bound,
            "rounding_allowance": plan.rounding_allowance,
            "target": plan.target,
            "dist_over_eps": trace_distance(rho, apply_exact(g, rho0, t).rho) / eps,
            "sha256": hashlib.sha256(rho.tobytes()).hexdigest(),
            "state": serialize.matrix_to_json(rho.ravel())}


def malformed_requests() -> dict:
    """Fixed inputs, each refused on one error path of validate, decompose or
    simulate: name -> (subcommands, JSON document)."""
    good = serialize.generator_to_json(lambda_atom())
    not_psd = {**good, "A": serialize.matrix_to_json(-np.eye(8))}
    request = {"generator": good, "rho0": serialize.matrix_to_json(maximally_mixed(3).rho),
               "t": 1.0, "epsilon": 1e-3}
    generator_commands = ("validate", "decompose")
    return {
        "float-d": (generator_commands, {**good, "d": 2.5}),  # serialize refuses it
        "a-not-psd": (generator_commands, not_psd),  # GksGenerator refuses it
        "d-zero": (generator_commands, {**good, "d": 0}),  # refused by its dimension
        "missing-epsilon": (("simulate",), {k: v for k, v in request.items() if k != "epsilon"}),
        "not-an-object": (("simulate",), [request]),
        "number-mode": (("simulate",), {**request, "mode": 5}),
        "nan-t": (("simulate",), {**request, "t": math.nan}),
        "request-a-not-psd": (("simulate",), {**request, "generator": not_psd}),
        "state-missing-rho": (("simulate",), {**request, "rho0": {"d": 3}}),
    }


def run_cli(argv):
    """cli.main(argv) in this process: the exit code and the stdout and stderr bytes."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def cli_calls(workdir):
    """(case id, argv) for every call of the cli-roundtrip workload's instances,
    then for the malformed inputs, whose files are written to workdir."""
    for seed in SEEDS:
        for i, call in enumerate(cli_roundtrip(seed, workdir, None)):
            yield f"cli-roundtrip/s{seed}/{i}", call.argv
    for name, (commands, doc) in malformed_requests().items():
        path = os.path.join(workdir, f"malformed-{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in commands:
            yield f"cli-malformed/{name}/{command}", [command, path]


def cli_documents():
    """One record per text that a CLI call writes, to stdout, --out or stderr."""
    with tempfile.TemporaryDirectory() as workdir:
        for case, argv in cli_calls(workdir):
            code, stdout, stderr = run_cli(argv)
            texts = {"stdout": stdout}
            if "--out" in argv:
                out = argv[argv.index("--out") + 1]
                texts["out"] = Path(out).read_bytes()
                os.remove(out)
            texts["stderr"] = stderr
            for stream, text in texts.items():
                yield {"id": f"{case}/{stream}", "command": argv[0], "exit": code,
                       "bytes": len(text), "document_sha256": hashlib.sha256(text).hexdigest()}


def load(path) -> dict:
    with open(path) as fh:
        return {run["id"]: run for run in map(json.loads, fh)}


def workload(case: str) -> str:
    name = case.split("/")[0]
    return name if name in ("random-d6", "lambda-trajectory") else "elsewhere"


def compare(path_a, path_b) -> bool:
    """Print the comparison; True when it fails (see the module docstring)."""
    a, b = load(path_a), load(path_b)
    if a.keys() != b.keys():
        print(f"case ids differ: {sorted(a.keys() ^ b.keys())}")
    documents = [c for c in a if c in b and "document_sha256" in a[c]]
    cases = [c for c in a if c in b and "document_sha256" not in a[c]]
    moved, rose, fell_back, errors = [], [], [], []
    same, largest, certificates, ratios = {}, {}, {}, {}
    for c in cases:
        x, y = a[c], b[c]
        if "error" in x or "error" in y:
            if x.get("error") != y.get("error"):
                errors.append(f"{c}: {x.get('error')} -> {y.get('error')}")
            continue
        if any(x[f] != y[f] for f in PLAN_FIELDS):
            ratio = None
            if x["certificate"] is not None:
                ratio = x["certificate"] / x["target"]
            moved.append(f"{c}: " + ", ".join(f"{f} {x[f]} -> {y[f]}" for f in PLAN_FIELDS
                                               if x[f] != y[f])
                         + f"; reference certificate / target = {ratio}")
        if y["actual_exponentials"] > x["actual_exponentials"]:
            rose.append(c)
        if x["certificate"] is not None and y["certificate"] is None:
            fell_back.append(c)
        w = workload(c)
        n_same, n_all = same.get(w, (0, 0))
        same[w] = n_same + (x["sha256"] == y["sha256"]), n_all + 1
        diff = float(np.abs(np.array(x["state"]) - np.array(y["state"])).max())
        if diff >= largest.get(w, (-1.0, ""))[0]:
            largest[w] = diff, c
        if x["certificate"] is not None and y["certificate"] is not None:
            change = abs(y["certificate"] - x["certificate"]) / x["certificate"]
            if change >= certificates.get(w, (-1.0, ""))[0]:
                certificates[w] = change, c
        change = abs(y["dist_over_eps"] - x["dist_over_eps"])
        if change >= ratios.get(w, (-1.0, ""))[0]:
            ratios[w] = change, c
    print(f"{len(cases)} runs compared")
    for title, lines in (("plans that moved", moved), ("exponentials rose", rose),
                         ("certified, now falls back", fell_back), ("errors changed", errors)):
        print(f"{title}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    for w in sorted(same):
        diff, c = largest[w]
        print(f"{w}: {same[w][0]} of {same[w][1]} states bit-identical; "
              f"largest entry difference {diff:.3g} ({c})")
        if w in certificates:
            print("  largest certificate change {:.3g} relative ({})".format(*certificates[w]))
        print("  largest dist / eps change {:.3g} ({})".format(*ratios[w]))
    for path, runs in ((path_a, a), (path_b, b)):
        certified = [r for r in runs.values() if r.get("certificate") is not None]
        worst = max(certified, key=lambda r: r["dist_over_eps"])
        print(f"{path}: {len(certified)} certified runs, worst dist / eps "
              f"{worst['dist_over_eps']:.4f} ({worst['id']})")
    changed = [f"{c} ({a[c]['command']}): exit {a[c]['exit']} -> {b[c]['exit']}, "
               f"{a[c]['bytes']} -> {b[c]['bytes']} bytes"
               for c in documents
               if (a[c]["exit"], a[c]["document_sha256"]) != (b[c]["exit"], b[c]["document_sha256"])]
    print(f"{len(documents)} CLI documents compared; bytes or exit code moved: {len(changed)}")
    for line in changed:
        print(f"  {line}")
    exits = [c for c in documents if a[c]["exit"] != b[c]["exit"]]
    print(f"CLI exit codes moved: {len(exits)}")
    return bool(a.keys() != b.keys() or moved or rose or fell_back or errors or exits)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("REFERENCE", "OTHER"))
    args = parser.parse_args(argv)
    if args.compare:
        return int(compare(*args.compare))
    for case in instances():
        print(serialize.dumps(record(*case)), flush=True)
    for document in cli_documents():
        print(serialize.dumps(document), flush=True)


if __name__ == "__main__":
    sys.exit(main())
