import math

import numpy as np
import pytest

from conftest import (NORM_SAFETY, dephasing_gks, lambda_atom, random_diagonal, random_gks,
                      random_mixed_state, serial_one_one_norm)
from lindbladsim import trotter
from lindbladsim.decompose import decompose_generator
from lindbladsim.lindblad import (DiagonalGenerator, QuantumState, apply_exact,
                                  from_diagonal, hamiltonian_superoperator, maximally_mixed,
                                  trace_distance)
from lindbladsim.numerics import expm, frobenius
from lindbladsim.sud import gell_mann_basis
from lindbladsim.trotter import (TrotterError, TrotterPlan, block_superoperator, build_plan,
                                 dissipative_component, hamiltonian_component, merge_adjacent,
                                 nexp_bound_closed_form, nexp_bound_res, nexp_report,
                                 prepare_components, run_plan, s2_schedule,
                                 s2k_schedule, segments_per_block, select_order, simulate,
                                 step_count, suzuki_p)

E = math.e


def components_for(g):
    return prepare_components(g, decompose_generator(g))


def component_generator(c):
    """The d^2 x d^2 generator matrix L_j of one component, exp(t L_j) = c.channel(t)."""
    if c.kind == "hamiltonian":
        return hamiltonian_superoperator(c.H)
    return c.plan.lam * (c.conj @ c.universal @ np.conj(c.conj).T)


def damping_generator(gamma=1.0):
    L = np.zeros((2, 2), dtype=complex)
    L[0, 1] = 1.0
    return from_diagonal(DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((gamma, L),)),
                         gell_mann_basis(2))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_s2_single_component():
    sched = s2_schedule(1, 0.8)
    assert [s.index for s in sched] == [0, 0]
    assert sum(s.duration for s in sched) == pytest.approx(0.8, abs=0)


def test_s2_two_components_unrolled():
    sched = s2_schedule(2, 1.0)
    assert [(s.index, s.duration) for s in sched] == [(0, 0.5), (1, 0.5), (1, 0.5), (0, 0.5)]


def test_s2_three_components_palindromic():
    sched = s2_schedule(3, 1.0)
    idx = [s.index for s in sched]
    assert len(idx) == 6
    assert idx == idx[::-1]


def test_s2_rejects_empty():
    with pytest.raises(TrotterError):
        s2_schedule(0, 1.0)


def test_s2k_base_is_merged_s2():
    assert s2k_schedule(3, 1, 0.7) == merge_adjacent(s2_schedule(3, 0.7))


def test_suzuki_p2_value():
    # (4 - 4^(1/3))^-1, evaluated independently
    expected = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    assert suzuki_p(2) == pytest.approx(expected, abs=0)
    assert suzuki_p(2) == pytest.approx(0.4144908, abs=1e-7)


def test_s2k_block_counts():
    assert segments_per_block(2, 2) == 11
    assert len(s2k_schedule(2, 2, 1.0)) == 11
    for m, k in ((2, 1), (3, 2), (4, 3)):
        assert len(s2k_schedule(m, k, 0.3)) == segments_per_block(m, k)


def test_s2k_palindromic_and_duration_preserving():
    for m, k in ((2, 1), (3, 2), (2, 3)):
        lam = 0.9
        sched = s2k_schedule(m, k, lam)
        idx = [s.index for s in sched]
        assert idx == idx[::-1]
        for j in range(m):
            total = sum(s.duration for s in sched if s.index == j)
            assert total == pytest.approx(lam, abs=1e-12)


def test_s2k_has_negative_durations_beyond_first_order():
    assert all(s.duration > 0 for s in s2k_schedule(2, 1, 1.0))
    assert any(s.duration < 0 for s in s2k_schedule(2, 2, 1.0))


def test_s2k_rejects_bad_order():
    with pytest.raises(TrotterError):
        s2k_schedule(2, 0, 1.0)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_component_norms_match_serial_estimator():
    """Every component's closed-form norm bound is at least the raw maximum
    of the serial multi-start ascent, a lower bound on the (1->1) norm; at
    d = 6 a few components keep the oracle's cost (~45 ms each) down."""
    cases = [(lambda_atom(), None)] + [(random_gks(d, np.random.default_rng(1)), None)
                                       for d in range(2, 6)]
    cases.append((random_gks(6, np.random.default_rng(1)), 2))
    for g, n_plans in cases:
        comps = [hamiltonian_component(g.H)]
        comps += [dissipative_component(p, g.basis) for p in decompose_generator(g)[:n_plans]]
        for c in comps:
            oracle = serial_one_one_norm(component_generator(c)) / NORM_SAFETY
            assert c.norm >= oracle * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# order selection and bounds
# ---------------------------------------------------------------------------

def test_select_order_unit_log_gives_k1():
    # choose eps so that 4 e m t L2 / eps = (25/3)^2, making the log term 2
    m, t, L2 = 2, 1.0, 1.0
    eps = 4.0 * E * m * t * L2 / (25.0 / 3.0) ** 2
    k, _ = select_order(eps, t, m, 1.0, L2)
    assert k == 1


def test_select_order_reference_point_near_minimal():
    m, t, L1, L2, eps = 2, 1.0, 1.0, 1.0, 1e-3
    k, r = select_order(eps, t, m, L1, L2)
    assert k == 2
    assert r > 0
    # the chosen k should (nearly) minimize the per-order bound
    bounds = {kk: nexp_bound_res(m, kk, t, eps, L1, L2) for kk in (k - 1, k, k + 1)}
    assert bounds[k] <= min(bounds.values()) * 1.0000001


def test_select_order_monotone_in_t():
    m, L1, L2, eps = 3, 1.5, 1.0, 1e-3
    def unmerged(t):
        k, r = select_order(eps, t, m, L1, L2)
        return segments_per_block(m, k) * max(1, math.ceil(r * L1))
    for t in (0.5, 1.0, 2.0, 4.0):
        assert unmerged(2 * t) >= unmerged(t)


def test_select_order_rejects_bad_args():
    with pytest.raises(TrotterError):
        select_order(-1e-3, 1.0, 2, 1.0, 0.5)
    with pytest.raises(TrotterError):
        select_order(1e-3, 1.0, 2, 1.0, 2.0)
    for bad in ((math.nan, 1.0, 2, 1.0, 0.5), (1e-3, math.inf, 2, 1.0, 0.5),
                (1e-3, 1.0, 2, math.inf, 0.5), (1e-3, 1.0, 2, 1.0, math.nan),
                (1e-3, 1.0, 0, 1.0, 0.5)):
        with pytest.raises(TrotterError):
            select_order(*bad)
    # finite inputs that overflow x = 4 e m t L2 / eps, r L1, the N_exp bounds
    for overflow in ((1e-300, 1e300, 2, 1.0, 1.0), (1e-3, 1.0, 2, 1e308, 1.0),
                     (1e-3, 1.0, 2, 1e306, 1.0)):
        with pytest.raises(TrotterError):
            step_count(*overflow)
    with pytest.raises(TrotterError):
        simulate(lambda_atom(), maximally_mixed(3), 1e300, 1e-3)
    with pytest.raises(TrotterError):  # an int m too large for a float
        step_count(1e-3, 1.0, 10 ** 400, 2.0, 1.0)


# ---------------------------------------------------------------------------
# build_plan / run_plan
# ---------------------------------------------------------------------------

def test_build_plan_single_component_exact(rng):
    g = damping_generator()
    comps = components_for(g)
    assert len(comps) == 1
    plan = build_plan(comps, eps=1e-3, t=3.0)
    assert plan.n_reps == 1 and len(plan.schedule) == 1
    out = run_plan(plan, comps, maximally_mixed(2))
    oracle = apply_exact(g, maximally_mixed(2), 3.0)
    assert trace_distance(out.rho, oracle.rho) < 1e-10


def test_run_plan_zero_time(rng):
    g = lambda_atom(1.0, 0.5)
    comps = components_for(g)
    plan = build_plan(comps, eps=1e-3, t=0.0)
    rho0 = QuantumState(d=3, rho=random_mixed_state(3, rng))
    out = run_plan(plan, comps, rho0)
    assert np.array_equal(out.rho, rho0.rho)


@pytest.mark.parametrize("g, t, eps", [
    (random_gks(2, np.random.default_rng(1)), 1.0, 1e-6),
    (random_gks(3, np.random.default_rng(1)), 1.0, 1e-3),
    (random_gks(3, np.random.default_rng(1)), 1.0, 1e-6),
    (random_gks(5, np.random.default_rng(1)), 1.0, 1e-6),
    (lambda_atom(), 32.0, 1e-6),
], ids=["d2-1e-6", "d3-1e-3", "d3-1e-6", "d5-1e-6", "lambda-t32-1e-6"])
def test_long_runs_keep_the_trace(g, t, eps):
    # n_reps reaches 1e4..1e5 here; rounding in the block's trace used to
    # accumulate in the power past the 1e-10 trace check of QuantumState
    rho0 = maximally_mixed(g.d)
    out, plan, _ = simulate(g, rho0, t=t, eps=eps)
    QuantumState(d=g.d, rho=out.rho)
    assert trace_distance(out.rho, apply_exact(g, rho0, t).rho) <= eps


def test_lambda_atom_within_tolerance():
    g = lambda_atom(1.0, 1.0)
    rho0 = maximally_mixed(3)
    out, plan, comps = simulate(g, rho0, t=1.0, eps=1e-3)
    oracle = apply_exact(g, rho0, 1.0)
    assert trace_distance(out.rho, oracle.rho) <= 1e-3
    rep = nexp_report(plan)
    assert rep.n_exp_actual <= rep.n_exp_bound_res
    assert rep.n_exp_actual <= rep.n_exp_bound_closed_form


def test_random_generators_meet_accuracy(rng):
    def check(g):
        rho0 = QuantumState(d=g.d, rho=random_mixed_state(g.d, rng))
        for t, eps in ((1.0, 1e-3), (2.0, 1e-2)):
            out, plan, comps = simulate(g, rho0, t=t, eps=eps)
            oracle = apply_exact(g, rho0, t)
            assert trace_distance(out.rho, oracle.rho) <= eps

    for d, n_terms in ((2, 3), (3, 2)):
        check(from_diagonal(random_diagonal(d, n_terms, rng), gell_mann_basis(d)))
    for d in (2, 3, 4):  # Hermitian Lindblad operators: the theta = 0 plans
        check(dephasing_gks(d, rng))


def test_accuracy_over_dense_state_sample(rng):
    # the (1->1) guarantee bounds the error uniformly over input states
    g = from_diagonal(random_diagonal(2, 3, rng), gell_mann_basis(2))
    comps = components_for(g)
    t, eps = 1.0, 1e-2
    plan = build_plan(comps, eps, t)
    for _ in range(25):
        rho0 = QuantumState(d=2, rho=random_mixed_state(2, rng))
        out = run_plan(plan, comps, rho0)
        oracle = apply_exact(g, rho0, t)
        assert trace_distance(out.rho, oracle.rho) <= eps


def test_plan_total_duration_invariant(rng):
    g = lambda_atom(0.8, 0.3)
    comps = components_for(g)
    plan = build_plan(comps, eps=1e-2, t=1.7)
    per_block = sum(s.duration for s in plan.schedule if s.index == 0)
    assert plan.n_reps * per_block == pytest.approx(1.7 * plan.L1, rel=1e-12)


def test_plan_deterministic():
    g = lambda_atom(1.0, 0.5)
    p1 = build_plan(components_for(g), eps=1e-3, t=1.0)
    p2 = build_plan(components_for(g), eps=1e-3, t=1.0)
    assert p1 == p2


def test_convergence_is_second_order_at_k1(rng):
    # realized error ~ C lambda^2 at fixed total time for the basic split
    g = from_diagonal(random_diagonal(2, 2, rng, scale=1.0), gell_mann_basis(2))
    comps = components_for(g)
    m = len(comps)
    t = 1.0
    L1 = comps[0].norm
    errs, lams = [], []
    for n in (8, 16, 32, 64, 80):
        lam = t * L1 / n
        plan = TrotterPlan(k=1, r=0.0, n_reps=n, schedule=tuple(s2k_schedule(m, 1, lam)),
                           m=m, L1=L1)
        rho0 = maximally_mixed(2)
        out = run_plan(plan, comps, rho0)
        exact = apply_exact(g, rho0, t)
        errs.append(trace_distance(out.rho, exact.rho))
        lams.append(lam)
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_one_step_error_is_third_order(rng):
    g = from_diagonal(random_diagonal(2, 2, rng), gell_mann_basis(2))
    comps = components_for(g)
    m = len(comps)
    L1 = comps[0].norm
    S = sum(component_generator(c) for c in comps)

    def one_step_error(lam):
        plan = TrotterPlan(k=1, r=0.0, n_reps=1, schedule=tuple(s2k_schedule(m, 1, lam)),
                           m=m, L1=L1)
        return frobenius(block_superoperator(plan, comps) - expm((lam / L1) * S))

    lam = 0.05
    ratio = one_step_error(lam) / one_step_error(lam / 2)
    assert 6.0 < ratio < 10.0


# ---------------------------------------------------------------------------
# cost reports
# ---------------------------------------------------------------------------

def test_nexp_report_m1_trivial():
    g = damping_generator()
    comps = components_for(g)
    plan = build_plan(comps, eps=1e-3, t=1.0)
    rep = nexp_report(plan)
    assert rep.n_exp_actual == 1
    assert rep.n_exp_bound_res is None and rep.n_exp_bound_closed_form is None
    assert not rep.negative_segments


def test_simulate_sizes_the_run_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return step_count(*args)

    monkeypatch.setattr(trotter, "step_count", counted)
    _, plan, _ = simulate(lambda_atom(), maximally_mixed(3), t=1.0, eps=1e-3)
    rep = nexp_report(plan)
    assert len(calls) == 1
    assert (rep.n_exp_bound_res, rep.n_exp_bound_closed_form) == step_count(*calls[0])[3:]


def test_bounds_are_none_outside_their_regime():
    # x = 4 e m t L2 / eps < 1: neither bound holds, N_exp_bound_res would read 2.5e-4 here
    g = lambda_atom()
    out, plan, _ = simulate(g, maximally_mixed(3), t=1e-5, eps=1e-3)
    rep = nexp_report(plan)
    assert rep.n_exp_actual == 3
    assert rep.n_exp_bound_res is None and rep.n_exp_bound_closed_form is None
    assert trace_distance(out.rho, apply_exact(g, maximally_mixed(3), 1e-5).rho) <= 1e-3


def test_build_plan_empty_is_the_zero_plan():
    comps = components_for(lambda_atom())
    assert build_plan([], eps=1e-3, t=1.0) == TrotterPlan(k=1, r=0.0, n_reps=0, schedule=(),
                                                           m=0, L1=0.0)
    zero = build_plan(comps, eps=1e-3, t=0.0)
    assert (zero.n_reps, zero.schedule, zero.bound_res) == (0, (), None)
    # the trivial path still refuses what every run refuses
    for t, eps in ((0.0, -1.0), (0.0, math.nan), (0.0, 0.0), (-1.0, 1e-3), (math.nan, 1e-3),
                   (math.inf, 1e-3)):
        for cs in ([], comps):
            with pytest.raises(TrotterError):
                build_plan(cs, eps=eps, t=t)
    with pytest.raises(TrotterError):
        simulate(lambda_atom(), maximally_mixed(3), 0.0, -1.0)


def test_nexp_per_block_m2_k1():
    assert segments_per_block(2, 1) == 3


def test_nexp_report_bounds_hold_across_eps():
    g = lambda_atom(1.0, 1.0)
    comps = components_for(g)
    for eps in (1e-2, 1e-3, 1e-4):
        plan = build_plan(comps, eps=eps, t=1.0)
        rep = nexp_report(plan)
        assert rep.n_exp_actual <= rep.n_exp_unmerged
        assert rep.n_exp_actual <= rep.n_exp_bound_res
        assert rep.n_exp_actual <= rep.n_exp_bound_closed_form
        assert rep.negative_segments == (plan.k >= 2)


def test_bound_closed_form_dominates_selected_res(rng):
    # the closed form is the k-optimized envelope, up to rounding of k
    for m, t, eps in ((2, 1.0, 1e-3), (3, 2.0, 1e-2), (4, 0.5, 1e-4)):
        L1, L2 = 2.0, 1.0
        k, _ = select_order(eps, t, m, L1, L2)
        res = nexp_bound_res(m, k, t, eps, L1, L2)
        closed = nexp_bound_closed_form(m, t, eps, L1, L2)
        assert res <= closed * 1.05
