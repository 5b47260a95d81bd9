"""Benchmark workloads: seeded instances, the timed call, and its gate.

Every workload is a closed loop with one client in one process: the next
call starts only after the previous one returned.  An instance is one
public call into the package (``simulate`` or ``cli.main``) plus the
correctness gate applied to its result outside the timed region.

Failure reasons:

    trace_check   simulate raised the final ``state trace ... is not 1`` check
                  from ``run_plan``, after its plan was built
    exception     the call raised anything else (for the CLI: a traceback)
    exit_code     the CLI returned an exit code other than the expected one
    dist_gt_eps   simulate returned a state farther than eps from the oracle
    wrong_output  a returned result is invalid or differs from the reference

Only two kinds of failure are known refusals of today's program, counted
in the failure share but not held against ``correct``: ``trace_check``
from a library call, and any failure on one of the two malformed CLI
documents.  Every other failure is a wrong answer and makes the run's
``correct`` flag false.
"""

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from lindbladsim import cli, serialize, trotter
from lindbladsim.decompose import spectral_split
from lindbladsim.lindblad import LindbladError, QuantumState, apply_exact, trace_distance
from lindbladsim.trotter import nexp_report

from inputs import lambda_atom, random_diagonal, random_gks, random_mixed_state

TRACE_CHECK = re.compile(r"^state trace .* is not 1$")
COST_COLUMNS = ["epsilon", "k", "r", "n_reps", "N_exp", "N_exp_bound_res",
                "N_exp_bound_closed_form"]
COST_SWEEP = (1e-3, 1e-6)


@dataclass
class Outcome:
    """Result of one gated call.

    ``reason`` is None if the call passed; ``wrong`` marks a failure that
    is not a known refusal; ``costs`` is the (n_exp, n_reps) of the plan
    the call ran, when it ran one.
    """

    reason: str | None = None
    wrong: bool = False
    costs: list = field(default_factory=list)  # of (n_exp, n_reps)


def raised_in(exc: BaseException, function: str) -> bool:
    """Whether the traceback of exc passes through a frame of `function`."""
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == function:
            return True
        tb = tb.tb_next
    return False


class PlanCapture:
    """Keeps the plan of the latest ``simulate`` call.

    ``simulate`` raises today's trace check inside ``run_plan``, after the
    plan is built, so the plan is taken where ``simulate`` looks up
    ``build_plan``.  The cost is one extra Python call per ``simulate``.
    A call that returns uses the plan it returns instead.
    """

    def __init__(self):
        self.plan = None
        self._build_plan = None

    def __enter__(self):
        self._build_plan = trotter.build_plan

        def capture(*args, **kwargs):
            self.plan = self._build_plan(*args, **kwargs)
            return self.plan

        trotter.build_plan = capture
        return self

    def __exit__(self, *exc):
        trotter.build_plan = self._build_plan


def plan_costs(plan) -> list:
    return [(nexp_report(plan).n_exp_actual, plan.n_reps)]


class LibraryCall:
    """One ``simulate(g, rho0, t, eps)``; gate: a valid state within eps of ``apply_exact``."""

    def __init__(self, g, rho0: QuantumState, t: float, eps: float, capture: PlanCapture):
        self.g, self.rho0, self.t, self.eps = g, rho0, t, eps
        self.capture = capture

    def call(self):
        self.capture.plan = None
        try:
            return trotter.simulate(self.g, self.rho0, self.t, self.eps)
        except Exception as exc:  # counted by reason in check()
            return exc

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            plan = self.capture.plan
            if (plan is not None and isinstance(result, LindbladError)
                    and TRACE_CHECK.match(str(result)) and raised_in(result, "run_plan")):
                return Outcome("trace_check", False, plan_costs(plan))
            return Outcome("exception", True)
        try:
            state, plan, _ = result
            costs = plan_costs(plan)
            QuantumState(d=state.d, rho=state.rho)
        except (TypeError, ValueError, AttributeError, LindbladError):
            return Outcome("wrong_output", True)
        exact = apply_exact(self.g, self.rho0, self.t)
        if not trace_distance(state.rho, exact.rho) <= self.eps:
            return Outcome("dist_gt_eps", True, costs)
        return Outcome(None, False, costs)


class CliCall:
    """One in-process ``cli.main(argv)``; gate: expected exit code, then ``verify(stdout)``.

    ``verify`` raises on a wrong output and may return the (n_exp, n_reps)
    of the plan the call reported.  A failure on a ``malformed`` input
    document is a known refusal; on any other input it is a wrong answer.
    """

    def __init__(self, argv, expect: int = 0, verify: Callable | None = None,
                 malformed: bool = False):
        self.argv, self.expect, self.verify = list(argv), expect, verify
        self.malformed = malformed

    def call(self):
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(self.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a traceback in a real process
            return exc
        return code, out.getvalue()

    def check(self, result) -> Outcome:
        wrong = not self.malformed
        if isinstance(result, Exception):
            return Outcome("exception", wrong)
        code, stdout = result
        if code != self.expect:
            return Outcome("exit_code", wrong)
        if self.verify is None:
            return Outcome(None)
        try:
            costs = self.verify(stdout)
        except (ValueError, KeyError, IndexError, TypeError, OSError):
            return Outcome("wrong_output", True)
        return Outcome(None, False, costs or [])


def read_canonical(path: str):
    """Load a file the CLI wrote and require that re-emitting it gives the same bytes.

    The file is removed once read, so the next pass cannot pass on a stale copy.
    """
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    doc = json.loads(text)
    if serialize.dumps(doc) + "\n" != text:
        raise ValueError(f"{path} does not re-emit byte-identically")
    return doc


def verify_validate(d: int, m: int):
    def verify(stdout):
        lines = stdout.splitlines()
        if f"d = {d}" not in lines or f"m = {m}" not in lines:
            raise ValueError("validate reported the wrong d or m")
    return verify


def verify_decompose(path: str, m: int):
    def verify(stdout):
        doc = read_canonical(path)
        if len(doc["plans"]) != m or len(doc["residuals"]) != m:
            raise ValueError("wrong number of plans")
        if not all(r <= 1e-8 for r in doc["residuals"]):
            raise ValueError("decomposition residual above 1e-8")
    return verify


def verify_oracle(path: str, expected: np.ndarray):
    def verify(stdout):
        rho = serialize.json_to_matrix(read_canonical(path)["rho"])
        if not np.array_equal(rho, expected):
            raise ValueError("oracle output differs from apply_exact")
    return verify


def verify_trotter(path: str, expected: np.ndarray, eps: float):
    """A Trotter result within eps of the oracle; returns the plan's (n_exp, n_reps)."""
    def verify(stdout):
        doc = read_canonical(path)
        rho = serialize.json_to_matrix(doc["rho"])
        if not (trace_distance(rho, expected) <= eps and doc["trace_distance_to_oracle"] <= eps):
            raise ValueError("trotter result farther than eps from apply_exact")
        return [(int(doc["cost"]["N_exp_actual"]), int(doc["cost"]["n_reps"]))]
    return verify


def verify_cost(m: int):
    def verify(stdout):
        lines = stdout.splitlines()
        if lines[0].split(",") != COST_COLUMNS or len(lines) != 1 + len(COST_SWEEP):
            raise ValueError("unexpected cost table shape")
        for eps, line in zip(COST_SWEEP, lines[1:]):
            row = dict(zip(COST_COLUMNS, line.split(",")))
            k, n_reps, n_exp = int(row["k"]), int(row["n_reps"]), int(row["N_exp"])
            if float(row["epsilon"]) != eps or n_exp != (2 * (m - 1) * 5 ** (k - 1) + 1) * n_reps:
                raise ValueError("cost row inconsistent with its k and n_reps")
    return verify


# --------------------------------------------------------------- workloads

D6_INSTANCES = 4
LAMBDA_TIMES = tuple(0.25 * 2.0 ** k for k in range(8))  # 0.25 .. 32
EPS_PAIR = (1e-3, 1e-6)


def random_d6(seed: int, workdir: str, capture: PlanCapture):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(D6_INSTANCES):
        g = random_gks(6, rng)
        rho0 = QuantumState(d=6, rho=random_mixed_state(6, rng))
        out.append(LibraryCall(g, rho0, 1.0, EPS_PAIR[i % 2], capture))
    return out


def lambda_trajectory(seed: int, workdir: str, capture: PlanCapture):
    rng = np.random.default_rng(seed)
    g = lambda_atom()
    out = []
    for t in LAMBDA_TIMES:
        for eps in EPS_PAIR:
            rho0 = QuantumState(d=3, rho=random_mixed_state(3, rng))
            out.append(LibraryCall(g, rho0, t, eps, capture))
    return out


def write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        fh.write(serialize.dumps(doc) + "\n")
    return path


def cli_roundtrip(seed: int, workdir: str, capture: PlanCapture):
    rng = np.random.default_rng(seed)
    t = 1.0
    out = []
    for d in range(2, 7):
        for form in ("A", "terms"):
            if form == "A":
                doc = serialize.generator_to_json(random_gks(d, rng))
            else:
                doc = serialize.generator_to_json(random_diagonal(d, d, rng))
            g = serialize.parse_generator(doc)
            rho0 = random_mixed_state(d, rng)
            stem = os.path.join(workdir, f"d{d}-{form}")
            gen = write_json(stem + ".gen.json", doc)
            req = write_json(stem + ".req.json", {
                "generator": doc, "rho0": serialize.matrix_to_json(rho0),
                "t": t, "epsilon": 1e-3})
            weights = [term.lam for term in spectral_split(g)]
            m_terms = len(weights)
            # cost gets the component count and a scale of the generator's own
            # weights, so its inputs vary with the seed no more than the generator
            m = m_terms + 1  # every generator here has a nonzero H
            L1 = 2.0 * float(np.max(np.abs(np.linalg.eigvalsh(g.H)))) + sum(weights)
            L2 = max(weights)
            expected = apply_exact(g, QuantumState(d=d, rho=rho0), t).rho
            out += [
                CliCall(["validate", gen], 0, verify_validate(d, m_terms)),
                CliCall(["decompose", gen, "--out", stem + ".plans.json"], 0,
                        verify_decompose(stem + ".plans.json", m_terms)),
                CliCall(["simulate", req, "--mode", "oracle", "--out", stem + ".state.json"], 0,
                        verify_oracle(stem + ".state.json", expected)),
                CliCall(["cost", "--m", str(m), "--t", repr(t), "--L1", repr(L1), "--L2", repr(L2),
                         "--sweep", ",".join(repr(e) for e in COST_SWEEP)], 0, verify_cost(m)),
            ]
    # one Trotter run through the CLI: the paper's lambda atom at t = 1, so the
    # workload's n_exp and n_reps are the library's own plan for a fixed generator
    lam = lambda_atom()
    rho0 = random_mixed_state(3, rng)
    stem = os.path.join(workdir, "lambda")
    req = write_json(stem + ".req.json", {
        "generator": serialize.generator_to_json(lam), "rho0": serialize.matrix_to_json(rho0),
        "t": t, "epsilon": 1e-3})
    expected = apply_exact(lam, QuantumState(d=3, rho=rho0), t).rho
    out.append(CliCall(["simulate", req, "--mode", "trotter", "--out", stem + ".state.json"], 0,
                       verify_trotter(stem + ".state.json", expected, 1e-3)))
    zero2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    jump = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    no_gamma = write_json(os.path.join(workdir, "bad-no-gamma.json"),
                          {"d": 2, "H": zero2, "terms": [{"L": jump}]})
    float_d = write_json(os.path.join(workdir, "bad-float-d.json"),
                         {"d": 2.5, "H": zero2, "terms": [{"gamma": 1.0, "L": jump}]})
    out += [CliCall(["validate", no_gamma], 2, malformed=True),
            CliCall(["validate", float_d], 2, malformed=True)]
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    timed: str  # what one timed call is, as the report names it: solve_s or cli_s
    tail_pct: float  # fixed per workload so the tail is comparable across commits
    build: Callable  # (seed, workdir, capture) -> list of instances
    min_passes: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        "random-d6",
        "top of the size range, no work shared between inputs: the norm estimator, "
        "block assembly and N_exp/n_reps are at their largest",
        # four generators, each run twice (about 45 s a run): every generator gets
        # a best-of-two time, and the run still fits the benchmark's time budget
        "solve_s", 100.0, random_d6, min_passes=2),
    Workload(
        "lambda-trajectory",
        "the paper's lambda atom over t in [0.25, 32]: one generator, so per-call "
        "decomposition and norm overhead shows, and enough calls for a real tail",
        "solve_s", 90.0, lambda_trajectory),
    Workload(
        "cli-roundtrip",
        "CLI parse, decompose, oracle, cost and canonical JSON at d = 2..6, plus one small "
        "Trotter run: norm estimation and planning are a minor share of the time here",
        "cli_s", 99.0, cli_roundtrip),
)}
