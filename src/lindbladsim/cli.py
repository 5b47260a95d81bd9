"""Command-line interface.

Subcommands:

    validate        check a generator file's invariants
    decompose       write conjugation plans for a generator
    simulate        run a simulation request (product formula or exact)
    cost            evaluate the step-selection formulas and bounds
    example-lambda  build the three-level lambda-configuration example

All file I/O is JSON with [re, im] complex scalars (CSV rows for cost
sweeps).  Exit codes: 0 success, 1 domain invariant violation, 2 I/O or
parse error.  Commands raise; main alone maps each error to its exit code
(a CliError's own, 2 for serialize.SerializeError, 1 for DOMAIN_ERRORS).
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import serialize
from .decompose import DecomposeError, decompose_terms, spectral_split, verify_plans
from .lindblad import (DiagonalGenerator, LindbladError, apply_exact, from_diagonal,
                       maximally_mixed, trace_distance)
from .numerics import NumericsError, dagger, frobenius
from .sud import SudError, gell_mann_basis
from .trotter import TrotterError, nexp_report, segments_per_block, simulate, step_count

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2

DOMAIN_ERRORS = (LindbladError, DecomposeError, TrotterError, NumericsError, SudError)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc}", EXIT_IO)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}", EXIT_IO)
    except RecursionError:
        raise CliError(f"malformed JSON in {path}: nested too deeply", EXIT_IO) from None


def _emit(doc, path: str | None):
    """Write doc as canonical JSON to path, or to stdout when path is None."""
    text = serialize.dumps(doc) + "\n"
    if path is None:
        print(text, end="")
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


def lambda_atom_generator(gamma1: float, gamma2: float, phi: float, eta: float, alpha: float):
    """Three-level atom in the lambda configuration.

    Basis states are ordered (|e>, |1>, |2>); the two dissipation channels
    are spontaneous emission from the excited level into a superposition
    of the ground levels, and incoherent exchange between the ground
    levels:

        L1 = cos(phi) |1><e| + e^(i eta) sin(phi) |2><e|      (rate gamma1)
        L2 = cos(alpha) |1><2| + sin(alpha) |2><1|            (rate gamma2)
    """
    if not all(map(math.isfinite, (phi, eta, alpha))):  # the rates are checked by the generator
        raise LindbladError("angles must be finite")
    e, g1, g2 = 0, 1, 2
    L1 = np.zeros((3, 3), dtype=complex)
    L1[g1, e] = np.cos(phi)
    L1[g2, e] = np.exp(1j * eta) * np.sin(phi)
    L2 = np.zeros((3, 3), dtype=complex)
    L2[g1, g2] = np.cos(alpha)
    L2[g2, g1] = np.sin(alpha)
    diag = DiagonalGenerator(d=3, H=np.zeros((3, 3)), terms=((gamma1, L1), (gamma2, L2)))
    return from_diagonal(diag, gell_mann_basis(3))


def _check_run(t: float, eps: float):
    """A run needs finite t >= 0 and eps > 0; written so that NaN fails too."""
    if not 0 <= t < math.inf:
        raise CliError("t must be finite and non-negative", EXIT_INVALID)
    if not 0 < eps < math.inf:
        raise CliError("epsilon must be finite and positive", EXIT_INVALID)


def _trotter_run(g, rho0, t: float, eps: float) -> dict:
    """Run the oracle and the product formula of g; the run's report fields."""
    oracle = apply_exact(g, rho0, t)
    state, plan, components = simulate(g, rho0, t, eps)
    return {
        "rho": serialize.matrix_to_json(state.rho),
        "cost": nexp_report(plan).to_dict() if components else None,
        "trace_distance_to_oracle": trace_distance(state.rho, oracle.rho),
    }


def cmd_validate(args) -> int:
    g = serialize.parse_generator(_load_json(args.generator))
    herm = frobenius(g.H - dagger(g.H))
    eigs = g.eigenpairs[0]
    m = len(spectral_split(g))
    print(f"d = {g.d}")
    print(f"hermiticity residual of H = {herm:.3e}")
    print(f"min eigenvalue of A = {eigs.min():.3e}")
    print(f"m = {m}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = serialize.parse_generator(_load_json(args.generator))
    terms = spectral_split(g)
    plans = decompose_terms(terms, g.basis)
    residuals = verify_plans(plans, terms, g.basis)
    doc = serialize.plans_to_json(g.H, plans, residuals)
    _emit(doc, args.out)
    for i, r in enumerate(residuals):
        print(f"term {i}: lambda = {plans[i].lam:.6g}, residual = {r:.3e}", file=sys.stderr)
    if any(r > 1e-8 for r in residuals):
        print("decomposition residual exceeds 1e-8", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def cmd_simulate(args) -> int:
    doc = _load_json(args.request)
    try:
        g = serialize.parse_generator(doc["generator"])
        rho0 = serialize.parse_state(doc["rho0"])
        t = serialize.number(doc["t"] if args.t is None else args.t, "'t'")
        eps = serialize.number(doc["epsilon"] if args.eps is None else args.eps, "'epsilon'")
        mode = doc.get("mode", "trotter") if args.mode is None else args.mode
        if not isinstance(mode, str):
            raise serialize.SerializeError(f"'mode' must be a string, got {serialize.quoted(mode)}")
    except KeyError as exc:
        raise CliError(f"simulation request is missing {exc}", EXIT_IO)
    except TypeError as exc:  # a request that is not an object
        raise CliError(f"malformed simulation request: {exc}", EXIT_IO)
    _check_run(t, eps)
    out = {"d": g.d, "t": t, "epsilon": eps, "mode": mode}
    if mode == "oracle":
        out["rho"] = serialize.matrix_to_json(apply_exact(g, rho0, t).rho)
    elif mode == "trotter":
        out.update(_trotter_run(g, rho0, t, eps))
    else:
        raise CliError(f"unknown mode {serialize.quoted(mode)}", EXIT_INVALID)
    _emit(out, args.out)
    if "trace_distance_to_oracle" in out:
        print(f"trace distance to oracle = {out['trace_distance_to_oracle']:.3e}",
              file=sys.stderr)
    return EXIT_OK


def cmd_cost(args) -> int:
    eps_values = [args.eps]
    if args.sweep:
        try:
            eps_values = [float(x) for x in args.sweep.split(",") if x]
        except ValueError as exc:
            raise CliError(f"bad sweep list: {exc}", EXIT_IO)
        if not eps_values:  # nothing to plan, so nothing would check the other inputs
            raise CliError("bad sweep list: no epsilon values", EXIT_IO)
    rows = []
    for eps in eps_values:  # step_count refuses bad inputs
        k, r, n_reps, bound_res, bound_closed = step_count(eps, args.t, args.m, args.L1, args.L2)
        rows.append({
            "epsilon": eps,
            "k": k,
            "r": r,
            "n_reps": n_reps,
            "N_exp": segments_per_block(args.m, k) * n_reps,
            "N_exp_bound_res": bound_res,
            "N_exp_bound_closed_form": bound_closed,
        })
    if args.sweep:
        print(",".join(rows[0]))
        for row in rows:
            print(",".join("" if v is None else serialize.dumps(v) for v in row.values()))
    else:
        print(serialize.dumps(rows[0]))
    return EXIT_OK


def cmd_example_lambda(args) -> int:
    _check_run(args.t, args.eps)
    g = lambda_atom_generator(args.gamma1, args.gamma2, args.phi, args.eta, args.alpha)
    rho0 = maximally_mixed(3)
    run = _trotter_run(g, rho0, args.t, args.eps)
    spectral = g.splits.records[0]  # the spectral split, which the decompose subcommand writes
    terms, plans = spectral.terms, spectral.plans
    residuals = verify_plans(plans, terms, g.basis)
    bundle = {
        "generator": serialize.generator_to_json(g),
        "spectral": [{"lambda": t.lam, "a": serialize.matrix_to_json(t.a)} for t in terms],
        "plans": serialize.plans_to_json(g.H, plans, residuals),
        "simulation": {"t": args.t, "epsilon": args.eps, "rho0": serialize.matrix_to_json(rho0.rho),
                       **run},
    }
    _emit(bundle, args.out)
    for i, p in enumerate(plans):
        print(f"term {i}: lambda = {p.lam:.6g}, theta = {p.params.theta:.12g}, "
              f"residual = {residuals[i]:.3e}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="lindbladsim",
                                     description="decompose and simulate Markovian generators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a generator file")
    p.add_argument("generator")

    p = sub.add_parser("decompose", help="write conjugation plans")
    p.add_argument("generator")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="run a simulation request")
    p.add_argument("request")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--mode", choices=("trotter", "oracle"), default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("cost", help="evaluate step-count formulas")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--L1", type=float, required=True)
    p.add_argument("--L2", type=float, required=True)
    p.add_argument("--sweep", default=None, help="comma-separated epsilon list (CSV output)")

    p = sub.add_parser("example-lambda", help="three-level lambda-atom example bundle")
    p.add_argument("--gamma1", type=float, default=1.0)
    p.add_argument("--gamma2", type=float, default=1.0)
    p.add_argument("--phi", type=float, default=np.pi / 3)
    p.add_argument("--eta", type=float, default=np.pi / 3)
    p.add_argument("--alpha", type=float, default=np.pi / 3)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so that a rebound cmd_* global is the one that runs
    handler = {"validate": cmd_validate, "decompose": cmd_decompose, "simulate": cmd_simulate,
               "cost": cmd_cost, "example-lambda": cmd_example_lambda}[args.command]
    try:
        return handler(args)
    except (CliError, serialize.SerializeError, *DOMAIN_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return EXIT_IO if isinstance(exc, serialize.SerializeError) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
