"""Acceptance suite.

Each test covers one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line with its runtime.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion report.
"""

import math
import time

import numpy as np
import pytest

from conftest import (AHAT1_R, AHAT1_I, GOLDEN_ALPHA_I, SECONDVEC, SQRT3, THETA2,
                      adjoint_generator, criterion_4_instances, from_vector, lambda_atom,
                      plan_gks_matrix, random_diagonal, random_mixed_state,
                      structure_constants)
from lindbladsim.decompose import (canonical_phases, decompose_term, diagonalizing_unitaries,
                                   universal_vectors, RankOneTerm, spectral_split, verify_plan)
from lindbladsim.lindblad import (GksGenerator, QuantumState, apply_exact, from_diagonal,
                                  liouvillian_matrix, maximally_mixed, trace_distance)
from lindbladsim.numerics import dagger, expm, frobenius
from lindbladsim.sud import adjoint_matrix, gell_mann_basis
from lindbladsim.trotter import build_plan, paper_plan, prepare_components, run_plan

A1_LITERAL = (AHAT1_R + 1j * AHAT1_I) / np.sqrt(2.0)

# states produced by criterion 3/4 runs, checked wholesale by criterion 6
_SIMULATED_STATES: list[np.ndarray] = []


def _report(criterion: int, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status} ({elapsed:.2f} s){' ' + detail if detail else ''}")


def _random_psd_generator(d: int, rng) -> GksGenerator:
    basis = gell_mann_basis(d)
    n = basis.n
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return GksGenerator(basis=basis, H=np.zeros((d, d)), A=(b @ dagger(b)) / n)


def test_criterion_1_worked_example_gks_matrix():
    start = time.perf_counter()
    ok = True
    for g1, g2 in ((1.0, 1.0), (1.3, 0.4)):
        A = lambda_atom(g1, g2).A
        golden = {
            (3, 3): g1 / 8,
            (3, 4): (SQRT3 - 3j) / 16 * g1,
            (3, 7): (3 + 1j * SQRT3) / 16 * g1,
            (4, 6): (-3 + 1j * SQRT3) / 16 * g1,
            (5, 5): (2 + SQRT3) / 4 * g2,
            (5, 8): 1j * g2 / 4,
            (8, 8): (2 - SQRT3) / 4 * g2,
        }
        for (i, j), val in golden.items():
            ok = ok and abs(A[i - 1, j - 1] - val) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, elapsed)
    assert ok


def test_criterion_2_worked_example_decomposition():
    start = time.perf_counter()
    checks = []

    g = lambda_atom(1.0, 0.25)
    terms = spectral_split(g)
    checks.append(np.allclose([t.lam for t in terms], [1.0, 0.25], atol=1e-12))
    checks.append(abs(abs(np.vdot(SECONDVEC, terms[1].a)) - 1.0) <= 1e-10)

    psi, theta, aR, _ = canonical_phases(np.array([A1_LITERAL, SECONDVEC]))
    checks.append(abs(psi[0] - 0.0) <= 1e-12)
    checks.append(abs(theta[0] - math.pi / 4) <= 1e-12)
    checks.append(abs(psi[1] - math.pi / 2) <= 1e-12)
    checks.append(abs(theta[1] - THETA2) <= 1e-12)

    u1 = diagonalizing_unitaries(aR[:1], gell_mann_basis(3))[0][0]
    diag = u1 @ from_vector(aR[0], gell_mann_basis(3)) @ dagger(u1)
    target = np.diag([1j / np.sqrt(2), -1j / np.sqrt(2), 0.0])
    checks.append(np.max(np.abs(diag - target)) <= 1e-10)

    plan1 = decompose_term(RankOneTerm(lam=1.0, a=A1_LITERAL), gell_mann_basis(3))
    checks.append(np.max(np.abs(np.array(plan1.params.alphaI) - GOLDEN_ALPHA_I)) <= 1e-10)

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    _report(2, ok, elapsed, f"checks={checks}" if not ok else "")
    assert ok


def test_criterion_3_universal_form_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_term = 0.0
    worst_liou = 0.0
    for d in (2, 3, 4):
        basis = gell_mann_basis(d)
        for _ in range(200):
            g = _random_psd_generator(d, rng)
            terms = spectral_split(g)
            plans = [decompose_term(t, basis) for t in terms]
            for t, p in zip(terms, plans):
                worst_term = max(worst_term, verify_plan(p, t, basis))
            A_re = sum((p.lam * plan_gks_matrix(p, basis) for p in plans),
                       np.zeros((basis.n, basis.n), dtype=complex))
            S_in = liouvillian_matrix(g)
            S_re = liouvillian_matrix(GksGenerator(basis=basis, H=g.H, A=A_re))
            worst_liou = max(worst_liou, frobenius(S_in - S_re))
    elapsed = time.perf_counter() - start
    ok = worst_term <= 1e-8 and worst_liou <= 1e-8 and elapsed < 60.0
    _report(3, ok, elapsed, f"worst term residual {worst_term:.2e}, "
                            f"worst reassembly residual {worst_liou:.2e}")
    assert ok


def test_criterion_4_trotter_error_bound():
    start = time.perf_counter()
    worst_ratio = 0.0
    bounds_ok = True
    runs = 0
    for d, g, state_seed in criterion_4_instances():
        state_rng = np.random.default_rng(state_seed)
        components = prepare_components(g)
        rho0 = QuantumState(d=d, rho=random_mixed_state(d, state_rng))
        for t in (0.5, 1.0, 2.0):
            oracle = apply_exact(g, rho0, t)
            _SIMULATED_STATES.append(oracle.rho)
            for eps in (1e-2, 1e-3):
                # the plan a run uses, and the paper's plan, its fallback
                norms = components.record.norms
                for plan in (build_plan(components, eps, t), paper_plan(norms, eps, t)):
                    out = run_plan(plan, components, rho0)
                    _SIMULATED_STATES.append(out.rho)
                    dist = trace_distance(out.rho, oracle.rho)
                    worst_ratio = max(worst_ratio, dist / eps)
                    rep = plan.cost_report()
                    actual = rep["N_exp_actual"]
                    if rep["N_exp_bound_res"] is not None:
                        bounds_ok = bounds_ok and actual <= rep["N_exp_bound_res"]
                        bounds_ok = bounds_ok and actual <= rep["N_exp_bound_closed_form"]
                    runs += 1
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and bounds_ok and elapsed < 300.0
    _report(4, ok, elapsed, f"{runs} runs (certified and paper plans), worst dist/eps "
                            f"{worst_ratio:.2e}, bounds {'ok' if bounds_ok else 'violated'}")
    assert ok


def test_criterion_5_adjoint_representation():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = {"orth": 0.0, "transpose": 0.0, "homo": 0.0, "expad": 0.0}
    for d in (2, 3, 4, 5):
        basis = gell_mann_basis(d)
        f = structure_constants(basis)
        eye = np.eye(basis.n)
        prev = None
        for _ in range(100):
            r = rng.normal(size=basis.n)
            r *= rng.uniform(0.1, 2.0) / np.linalg.norm(r)
            u = expm(1j * np.einsum("g,gij->ij", r, basis.matrices))
            g_mat = adjoint_matrix(u, basis)
            worst["orth"] = max(worst["orth"], np.max(np.abs(g_mat.T @ g_mat - eye)))
            worst["transpose"] = max(worst["transpose"],
                                     np.max(np.abs(g_mat.T - adjoint_matrix(dagger(u), basis))))
            worst["expad"] = max(worst["expad"],
                                 np.max(np.abs(g_mat - expm(adjoint_generator(f, r)).real)))
            if prev is not None:
                u_prev, g_prev = prev
                homo = adjoint_matrix(u_prev @ u, basis) - g_prev @ g_mat
                worst["homo"] = max(worst["homo"], np.max(np.abs(homo)))
            prev = (u, g_mat)
    elapsed = time.perf_counter() - start
    ok = (worst["orth"] <= 1e-10 and worst["transpose"] <= 1e-10
          and worst["homo"] <= 1e-10 and worst["expad"] <= 1e-8 and elapsed < 30.0)
    _report(5, ok, elapsed, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert ok


def test_criterion_6_cptp_properties():
    start = time.perf_counter()
    states = list(_SIMULATED_STATES)
    if not states:
        # criterion 4 did not run in this session; regenerate a reduced sample
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for _ in range(5):
                g = from_diagonal(random_diagonal(d, 2, rng), gell_mann_basis(d))
                rho0 = QuantumState(d=d, rho=random_mixed_state(d, rng))
                comps = prepare_components(g)
                for t, eps in ((1.0, 1e-2), (2.0, 1e-3)):
                    states.append(apply_exact(g, rho0, t).rho)
                    plan = build_plan(comps, eps, t)
                    states.append(run_plan(plan, comps, rho0).rho)
    worst_trace = 0.0
    worst_eig = 0.0
    for rho in states:
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min()))
    elapsed = time.perf_counter() - start
    ok = worst_trace <= 1e-9 and worst_eig >= -1e-8
    _report(6, ok, elapsed, f"{len(states)} states, |tr-1| <= {worst_trace:.2e}, "
                            f"min eig >= {worst_eig:.2e}")
    assert ok


def test_criterion_7_d2_specialization():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    basis = gell_mann_basis(2)
    ok = True
    for _ in range(100):
        g = _random_psd_generator(2, rng)
        terms = spectral_split(g)
        for term in terms:
            plan = decompose_term(term, basis)
            (aR,), (aI,), _ = universal_vectors([plan.params], basis)
            ok = ok and np.array_equal(aR, np.array([1.0, 0.0, 0.0]))
            ok = ok and np.array_equal(aI, np.array([0.0, 1.0, 0.0]))
            ok = ok and plan.params.alphaR == () and plan.params.alphaI == ()
            ok = ok and verify_plan(plan, term, basis) <= 1e-8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(7, ok, elapsed)
    assert ok


def test_criterion_8_convergence_order():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    g = from_diagonal(random_diagonal(2, 2, rng), gell_mann_basis(2))  # H + 2 terms: m = 3
    comps = prepare_components(g)
    m = len(comps)
    assert m == 3
    t = 1.0
    L1 = comps[0].norm
    rho0 = maximally_mixed(2)
    exact = apply_exact(g, rho0, t)
    from lindbladsim.trotter import TrotterPlan

    lams, errs = [], []
    for n in (8, 14, 24, 44, 80):  # one decade of step sizes
        lam = t * L1 / n
        plan = TrotterPlan(k=1, r=0.0, n_reps=n, lam=lam, m=m, L1=L1)
        out = run_plan(plan, comps, rho0)
        lams.append(lam)
        errs.append(trace_distance(out.rho, exact.rho))
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(slope - 2.0) <= 0.2
    _report(8, ok, elapsed, f"slope {slope:.3f}")
    assert ok
