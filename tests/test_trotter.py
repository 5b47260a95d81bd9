import dataclasses
import functools
import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (NORM_SAFETY, choi_split_bound, column_stacked, criterion_4_instances,
                      dephasing_gks, exp_derivative, first_order_terms, frame, lambda_atom,
                      n_qubit_generator, predicted_plan, pure_hamiltonian, random_diagonal,
                      random_gks, random_mixed_state, reference_components,
                      reference_schedule, serial_one_one_norm, unvec, vec, walked_block)
from lindbladsim import trotter
from lindbladsim.decompose import DecomposeError, decompose_generator
from lindbladsim.lindblad import (DiagonalGenerator, GksGenerator, QuantumState, apply_exact,
                                  from_diagonal, liouvillian_matrix, maximally_mixed, real_map,
                                  trace_distance)
from lindbladsim.numerics import MAX_EXPM_NORM, expm, frobenius, trace_norm
from lindbladsim.sud import gell_mann_basis
from lindbladsim.trotter import (COIN_FLIP, FORMULAS, MIX_PAIRS, MIXED_ORDERS, SUZUKI,
                                 Segment, TrotterError, TrotterPlan, block_schedule,
                                 block_superoperator, build_plan, component_orders,
                                 diamond_bound, expm_rounding, formula_count, leading_error,
                                 nexp_bound_closed_form, nexp_bound_res, nexp_report, paper_plan,
                                 prepare_components, run_plan, segments_per_block, select_order,
                                 simulate, step_count, suzuki_p)

E = math.e


def components_for(g):
    return prepare_components(g, decompose_generator(g))


def damping_generator(gamma=1.0):
    L = np.zeros((2, 2), dtype=complex)
    L[0, 1] = 1.0
    return from_diagonal(DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((gamma, L),)),
                         gell_mann_basis(2))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_s2_single_component():
    # one component's block is one segment of the whole length, at every order
    assert block_schedule(1, 1, 0.8) == (Segment(0, 0.8),)
    for k in (2, 3, 4):
        (seg,) = block_schedule(1, k, 0.8)
        assert seg.index == 0 and seg.duration == pytest.approx(0.8, rel=1e-12)


def test_s2_two_components_unrolled():
    sched = block_schedule(2, 1, 1.0)
    assert [(s.index, s.duration) for s in sched] == [(0, 0.5), (1, 1.0), (0, 0.5)]


def test_s2_three_components_palindromic():
    sched = block_schedule(3, 1, 1.0)
    assert [(s.index, s.duration) for s in sched] == [(0, 0.5), (1, 0.5), (2, 1.0), (1, 0.5),
                                                      (0, 0.5)]


def test_s2_rejects_empty():
    for k in (1, 2):
        with pytest.raises(TrotterError, match="at least one component"):
            block_schedule(0, k, 1.0)


def test_s2k_base_is_merged_s2():
    assert block_schedule(3, 1, 0.7) == tuple(reference_schedule(3, 1, 0.7))


def test_block_schedule_matches_the_reference_bit_for_bit():
    # the closed form against Suzuki's list recursion, signs and last bits included; one
    # component's block sums its leaves in another order, within 1e-12 lam
    def bits(sched):
        return [(s.index, s.duration.hex()) for s in sched]

    for lam in (0.7, 1.0, 1e-3, 3.3, 123.456, 0.1):
        for k in range(1, 5):
            for m in range(2, 9):
                expected = bits(reference_schedule(m, k, lam))
                assert bits(block_schedule(m, k, lam)) == expected
                plan = TrotterPlan(k=k, r=0.0, n_reps=1, lam=lam, m=m, L1=1.0)
                assert bits(plan.schedule) == expected
            (seg,), (ref,) = block_schedule(1, k, lam), reference_schedule(1, k, lam)
            assert seg.index == ref.index == 0
            assert abs(seg.duration - ref.duration) <= 1e-12 * lam


def test_block_schedule_refuses_durations_that_miss_the_length(monkeypatch):
    leaf_lengths = trotter.leaf_lengths
    monkeypatch.setattr(trotter, "leaf_lengths", lambda k, lam: 1.01 * leaf_lengths(k, lam))
    for m, k in ((1, 1), (3, 1), (2, 3)):
        with pytest.raises(TrotterError, match="do not sum to the block length"):
            block_schedule(m, k, 0.9)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_block_schedule_refuses_a_non_finite_length(lam):
    # a NaN difference never exceeds the sum check's tolerance, so block_schedule(2, 1, nan)
    # returned NaN segments, and block_schedule(2, 2, inf) infinite ones after a numpy
    # "invalid value" warning, which filterwarnings = error would raise in its place
    for m, k in ((1, 1), (2, 1), (2, 2), (3, 3)):
        with pytest.raises(TrotterError, match="block length must be finite"):
            block_schedule(m, k, lam)
        plan = TrotterPlan(k=k, r=1.0, n_reps=1, lam=lam, m=m, L1=1.0)
        with pytest.raises(TrotterError, match="block length must be finite"):
            plan.schedule


def test_suzuki_p2_value():
    # (4 - 4^(1/3))^-1, evaluated independently
    expected = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    assert suzuki_p(2) == pytest.approx(expected, abs=0)
    assert suzuki_p(2) == pytest.approx(0.4144908, abs=1e-7)


def test_s2k_block_counts():
    assert segments_per_block(2, 2) == 11
    assert len(block_schedule(2, 2, 1.0)) == 11
    for m, k in ((1, 1), (1, 3), (2, 1), (3, 2), (4, 3), (5, 4)):
        assert len(block_schedule(m, k, 0.3)) == segments_per_block(m, k)
        assert formula_count(SUZUKI, m, k, 1) == segments_per_block(m, k)
    # neighbouring fixed blocks share component 0; mixed blocks share nothing
    assert formula_count(SUZUKI, 3, 2, 4) == 4 * 21 - 3
    assert formula_count(COIN_FLIP, 3, 1, 4) == formula_count(MIXED_ORDERS, 3, 1, 4) == 4 * 5


def test_s2k_palindromic_and_duration_preserving():
    for m, k in ((2, 1), (3, 2), (2, 3), (5, 2), (4, 4)):
        lam = 0.9
        sched = block_schedule(m, k, lam)
        idx = [s.index for s in sched]
        assert idx == idx[::-1]
        assert [s.duration for s in sched] == [s.duration for s in reversed(sched)]
        assert sched[0].index == sched[-1].index == 0
        for j in range(m):
            total = sum(s.duration for s in sched if s.index == j)
            assert total == pytest.approx(lam, abs=1e-12)


def test_s2k_has_negative_durations_beyond_first_order():
    assert all(s.duration > 0 for s in block_schedule(2, 1, 1.0))
    assert any(s.duration < 0 for s in block_schedule(2, 2, 1.0))
    # the plan reads the sign without building its schedule
    for m, k, n_reps in ((m, k, n) for m in range(1, 5) for k in range(1, 4) for n in (0, 2)):
        plan = TrotterPlan(k=k, r=0.0, n_reps=n_reps, lam=0.7 * n_reps, m=m, L1=1.0)
        negative = any(seg.duration < 0 for seg in plan.schedule)
        assert plan.has_negative_segments() == negative == (k >= 2 and m >= 2 and n_reps > 0)


def test_s2k_rejects_bad_order():
    for k in (0, -1):
        with pytest.raises(TrotterError, match="half-order"):
            block_schedule(2, k, 1.0)


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
        for c in prepare_components(g, decompose_generator(g)[:n_plans]):
            oracle = serial_one_one_norm(column_stacked(c.generator)) / NORM_SAFETY
            assert c.norm >= oracle * (1.0 - 1e-12)


def assert_components_match_the_reference(g, plans):
    """prepare_components against the column-stacked reference: the same norms in the same
    order, bit for bit, and maps within 1e-14 in the Frobenius norm, relative."""
    new, ref = prepare_components(g, plans), reference_components(g, plans)
    assert [c.norm for c in new] == [c.norm for c in ref]
    for c, r in zip(new, ref):
        assert c.generator.dtype == np.float64 and c.generator.flags.c_contiguous
        assert frobenius(c.generator - r.generator) <= 1e-14 * frobenius(r.generator)


def rank_deficient(d, seed):
    """random_gks(d, default_rng(seed)) with A cut to its two leading eigenpairs."""
    g = random_gks(d, np.random.default_rng(seed))
    w, v = np.linalg.eigh(g.A)
    return GksGenerator(basis=g.basis, H=g.H, A=(v[:, -2:] * w[-2:]) @ v[:, -2:].conj().T)


COMPONENT_CASES = {
    **{f"random-d{d}-s{s}": lambda d=d, s=s: random_gks(d, np.random.default_rng(s))
       for d in range(2, 7) for s in (1, 2, 3)},
    **{f"qubits-{n}": functools.partial(n_qubit_generator, n) for n in range(1, 5)},
    **{f"dephasing-d{d}": lambda d=d: dephasing_gks(d, np.random.default_rng(d))
       for d in (2, 3, 5)},
    **{f"no-h-d{d}": lambda d=d: random_gks(d, np.random.default_rng(d), with_h=False)
       for d in (2, 4)},
    **{f"rank-2-d{d}": functools.partial(rank_deficient, d, d) for d in (3, 6)},
    "hamiltonian-only": functools.partial(pure_hamiltonian, 4),
    "lambda-atom": lambda_atom,
}


@pytest.mark.parametrize("case", sorted(COMPONENT_CASES))
def test_components_match_the_column_stacked_reference(case):
    g = COMPONENT_CASES[case]()
    plans = decompose_generator(g)
    assert_components_match_the_reference(g, plans)
    # plans of zero weight give no component, wherever they stand
    zeroed = [dataclasses.replace(p, lam=0.0) if i % 2 else p for i, p in enumerate(plans)]
    assert_components_match_the_reference(g, zeroed)
    assert_components_match_the_reference(g, [dataclasses.replace(p, lam=0.0) for p in plans])


@pytest.mark.parametrize("d", range(2, 7))
@settings(max_examples=10)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3))
def test_components_match_the_reference_on_any_generator(d, seed, scale):
    g = random_gks(d, np.random.default_rng(seed), scale=scale)
    assert_components_match_the_reference(g, decompose_generator(g))


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

@pytest.mark.parametrize("g", [damping_generator(), pure_hamiltonian(3)],
                         ids=["damping", "hamiltonian"])
def test_build_plan_single_component_exact(g, rng):
    # one component needs no splitting: one segment of the whole length t
    comps = components_for(g)
    assert len(comps) == 1
    plan = build_plan(comps, eps=1e-3, t=3.0)
    assert plan.n_reps == 1 and len(plan.schedule) == 1
    rho0 = QuantumState(d=g.d, rho=random_mixed_state(g.d, rng))
    out = run_plan(plan, comps, rho0)
    oracle = apply_exact(g, rho0, 3.0)
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
    # the paper's plans reach n_reps 6e3..2e5 here, the certified ones 48..2921;
    # rounding in the block's trace used to accumulate in the power past the
    # 1e-10 trace check of QuantumState
    rho0 = maximally_mixed(g.d)
    oracle = apply_exact(g, rho0, t)
    out, plan, comps = simulate(g, rho0, t=t, eps=eps)
    paper = paper_plan(comps, eps, t)
    assert paper.n_reps >= 6000
    for state in (out, run_plan(paper, comps, rho0)):
        QuantumState(d=g.d, rho=state.rho)
        assert trace_distance(state.rho, oracle.rho) <= eps


@pytest.mark.parametrize("t", [1e6, 1e7])
def test_long_certified_runs_keep_the_trace(t):
    # the k = 1 plan at n_reps = 2t, where the certificate search used to stop: the
    # power's own rounding put the state's trace 1.0e-10 and 1.5e-9 off 1, past the
    # 1e-10 check of QuantumState.  The leading error term certifies a handful of
    # repetitions here, and that run must be within eps too
    g, rho0, eps = lambda_atom(), maximally_mixed(3), 1e-3
    exact = apply_exact(g, rho0, t)
    out, plan, comps = simulate(g, rho0, t=t, eps=eps)
    assert plan.certificate is not None and plan.certificate <= plan.target
    assert trace_distance(out.rho, exact.rho) <= eps
    m, L1, n = plan.m, plan.L1, int(2 * t)
    long = TrotterPlan(k=1, r=n / L1, n_reps=n, lam=t * L1 / n, m=m, L1=L1)
    assert trace_distance(run_plan(long, comps, rho0).rho, exact.rho) <= eps


def test_long_paper_plans_keep_a_valid_state():
    # the paper's plan at t = 1e6 has n_reps 8.2e9; its power, taken column-stacked in
    # complex arithmetic, left the state an eigenvalue of -2.1e-8, past the -1e-9 check
    # of QuantumState, so run_plan raised where the state must be within eps
    g, rho0, t, eps = lambda_atom(), maximally_mixed(3), 1e6, 1e-3
    comps = components_for(g)
    plan = paper_plan(comps, eps, t)
    assert plan.n_reps >= 8e9
    state = run_plan(plan, comps, rho0)
    assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= eps


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
        plan = TrotterPlan(k=1, r=0.0, n_reps=n, lam=lam, m=m, L1=L1)
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
    S = sum(c.generator for c in comps)

    def one_step_error(lam):
        plan = TrotterPlan(k=1, r=0.0, n_reps=1, lam=lam, m=m, L1=L1)
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
    assert build_plan([], eps=1e-3, t=1.0) == TrotterPlan(k=1, r=0.0, n_reps=0, lam=0.0,
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


def test_a_plan_past_2_to_the_53_exponentials_is_refused_before_its_block(monkeypatch):
    # at eps = 1e-300 the paper's block is k = 13, 488281251 segments, too many to hold
    # in memory: the plan is refused before any schedule is built
    comps = components_for(lambda_atom())
    k, _, n_reps, _, _ = step_count(1e-300, 1.0, 2, comps[0].norm, comps[1].norm)
    assert (k, segments_per_block(2, k)) == (13, 488281251)
    assert formula_count(SUZUKI, 2, k, n_reps) > 2 ** 53

    def no_schedule(*args):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(trotter, "block_schedule", no_schedule)
    with pytest.raises(TrotterError, match="2\\^53"):
        build_plan(comps, eps=1e-300, t=1.0)


def test_a_generator_decomposes_once(decompositions):
    g = random_gks(4, np.random.default_rng(4))
    rho0 = maximally_mixed(4)
    once = {"gks_spectrum": 1, "decompose_terms": 1}
    simulate(g, rho0, 1.0, 1e-3)
    assert decompositions == once
    decompositions.clear()
    state, plan, _ = simulate(g, rho0, 2.0, 1e-6)  # another t and eps: the same plans
    assert not decompositions
    fresh = GksGenerator(basis=gell_mann_basis(4), H=g.H.copy(), A=g.A.copy())
    fresh_state, fresh_plan, _ = simulate(fresh, rho0, 2.0, 1e-6)
    assert decompositions == once
    assert state.rho.tobytes() == fresh_state.rho.tobytes() and plan == fresh_plan
    assert plan.formula == MIXED_ORDERS  # a run of the mixture is as deterministic


@pytest.mark.parametrize("g", [lambda_atom(), lambda_atom(0.0, 0.0)], ids=["lambda", "zero"])
def test_simulate_rejects_dimension_mismatch(g):
    # the zero generator has no component, so its run would be the trivial plan
    for t in (0.0, 1.0):
        with pytest.raises(TrotterError, match="state has d = 2 but the generator has d = 3"):
            simulate(g, maximally_mixed(2), t, 1e-3)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
def test_prepare_components_never_sees_a_bad_weight(lam):
    # preparation drops plans by their weight, so a bad one must be refused before it
    g = lambda_atom(1.0, 0.25)
    with pytest.raises(DecomposeError, match="weight must be finite and non-negative"):
        plans = [dataclasses.replace(p, lam=lam) for p in decompose_generator(g)]
        prepare_components(g, plans)


def test_nexp_per_block_m2_k1():
    assert segments_per_block(2, 1) == 3


def test_nexp_report_bounds_hold_across_eps():
    g = lambda_atom(1.0, 1.0)
    comps = components_for(g)
    ks = set()
    for eps in (1e-2, 1e-3, 1e-4):
        for plan in (build_plan(comps, eps=eps, t=1.0), paper_plan(comps, eps=eps, t=1.0)):
            rep = nexp_report(plan)
            assert rep.n_exp_actual <= rep.n_exp_unmerged
            assert rep.n_exp_actual <= rep.n_exp_bound_res
            assert rep.n_exp_actual <= rep.n_exp_bound_closed_form
            assert rep.negative_segments == (plan.k >= 2)
            ks.add(plan.k)
    assert ks == {1, 2}


def test_bound_closed_form_dominates_selected_res(rng):
    # the closed form is the k-optimized envelope, up to rounding of k
    for m, t, eps in ((2, 1.0, 1e-3), (3, 2.0, 1e-2), (4, 0.5, 1e-4)):
        L1, L2 = 2.0, 1.0
        k, _ = select_order(eps, t, m, L1, L2)
        res = nexp_bound_res(m, k, t, eps, L1, L2)
        closed = nexp_bound_closed_form(m, t, eps, L1, L2)
        assert res <= closed * 1.05


@pytest.mark.parametrize("n", [1, 2, 3])
def test_n_qubit_generator_runs_within_eps(n):
    # m grows with the number of Lindblad operators, 2n + 1, not with d^2 = 4^n
    g = n_qubit_generator(n)
    rho0 = maximally_mixed(g.d)
    state, plan, components = simulate(g, rho0, 1.0, 1e-3)
    assert len(components) == plan.m == 2 * n + 1
    assert trace_distance(state.rho, apply_exact(g, rho0, 1.0).rho) <= 1e-3


# ---------------------------------------------------------------------------
# the certificate's bound
# ---------------------------------------------------------------------------

@functools.cache
def bounded_maps(d, seed):
    """Real maps of random_gks(d, default_rng(seed)) that diamond_bound must dominate:
    differences of its component channels, T_n - e^(t sum_j G_j) for every formula at
    n = 3, and leading_error's terms, at t = 1."""
    comps = components_for(random_gks(d, np.random.default_rng(seed)))
    exact, terms = leading_error(comps, 1.0)
    m, L1 = len(comps), comps[0].norm
    plan = TrotterPlan(k=1, r=3 / L1, n_reps=3, lam=L1 / 3, m=m, L1=L1)
    runs = [trotter.plan_map(dataclasses.replace(plan, formula=f), comps) - exact
            for f in FORMULAS]
    a, b = comps[0].channel([0.1, 0.7]), comps[-1].channel([0.4])[0]
    return [a[0] - a[1], a[1] - b, *runs, *terms]


@pytest.mark.parametrize("d", range(2, 7))
def test_diamond_bound_reads_one_on_channels(d):
    # a channel's Choi matrix is positive with Tr_out J = I: its bound is its norm, 1
    g = random_gks(d, np.random.default_rng(d))
    comps = components_for(g)
    m, L1 = len(comps), comps[0].norm
    plan = TrotterPlan(k=1, r=5 / L1, n_reps=5, lam=L1 / 5, m=m, L1=L1)
    channels = [*(c.channel([0.05, 0.6]) for c in comps),
                [block_superoperator(dataclasses.replace(plan, formula=f), comps)
                 for f in FORMULAS],
                [real_map(expm(t * liouvillian_matrix(g))) for t in (0.3, 2.0)]]
    bounds = diamond_bound(np.concatenate(channels))
    assert np.abs(bounds - 1.0).max() <= 1e-12


@st.composite
def maps_and_dyads(draw):
    """One of bounded_maps(d, seed), d = 2..6, seed = 1..3, and unit psi, phi."""
    d = draw(st.integers(2, 6))
    maps = bounded_maps(d, draw(st.integers(1, 3)))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    psi, phi = (draw(arrays(float, (d, 2), elements=entries)) @ np.array([1.0, 1j])
                for _ in range(2))
    assume(np.linalg.norm(psi) > 1e-3 and np.linalg.norm(phi) > 1e-3)
    X = maps[draw(st.integers(0, len(maps) - 1))]
    return X, psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)


@settings(max_examples=150)
@given(maps_and_dyads())
def test_diamond_bound_dominates_every_dyad(case):
    """||X(psi phi†)||_1 <= diamond_bound(X) for unit psi, phi, up to rounding."""
    X, psi, phi = case
    d = psi.size
    Y = unvec(column_stacked(X) @ vec(np.outer(psi, np.conj(phi))), d)
    assert trace_norm(Y) <= float(diamond_bound(X)) * (1.0 + 1e-12)


def test_diamond_bound_of_a_stack_equals_its_slices():
    for d in range(2, 7):
        maps = np.stack(bounded_maps(d, 1))
        assert np.array_equal(diamond_bound(maps), [diamond_bound(X) for X in maps])


def test_diamond_bound_scales_a_huge_map_first():
    # the Choi matrix's products of a finite map near the largest double would overflow
    # into a LinAlgError unless the map is scaled by a power of four first.  A map filled
    # with 1.7e308 has a bound 11.37 times that, which is inf, with no warning or exception
    assert diamond_bound(np.full((9, 9), 1.7e308)) == np.inf
    ones = float(diamond_bound(np.ones((9, 9))))
    assert float(diamond_bound(np.full((9, 9), 1.5e307))) == pytest.approx(1.5e307 * ones,
                                                                           rel=1e-14)
    # a power of four scales the bound exactly, as long as neither overflows nor underflows
    for X in bounded_maps(3, 1):
        for q in (-500, 500):
            assert diamond_bound(np.ldexp(X, q)) == np.ldexp(diamond_bound(X), q)


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_certified_states_lie_within_half_the_certificate(eps):
    # the certificate bounds ||T_n - e^(tL)||_(1->1), so a pure input state, the hardest
    # for a map of bounded (1->1) norm, lands within half of it in trace distance
    for d in range(2, 7):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            g = random_gks(d, rng)
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            rho0 = QuantumState(d=d, rho=np.outer(psi, np.conj(psi)) / np.vdot(psi, psi).real)
            state, plan, _ = simulate(g, rho0, 1.0, eps)
            assert plan.certificate is not None
            dist = trace_distance(state.rho, apply_exact(g, rho0, 1.0).rho)
            assert dist <= plan.certificate / 2 + 1e-14


# ---------------------------------------------------------------------------
# certified plans
# ---------------------------------------------------------------------------

def assert_certified(g, comps, plan, t, eps):
    """What a certified plan promises, checked against the oracle's own matrix: its
    certificate within the target eps - t r - delta, which it carries with its parts."""
    assert plan.certificate is not None and plan.certificate <= plan.target
    assert plan.residual_bound == t * comps.residual
    assert plan.rounding_allowance == expm_rounding(comps, t)
    assert plan.target == eps - plan.residual_bound - plan.rounding_allowance
    exact = real_map(expm(t * liouvillian_matrix(g)))
    assert choi_split_bound(column_stacked(plan.total_map - exact)) <= eps
    rep = nexp_report(plan)
    assert not rep.negative_segments
    paper = paper_plan(comps, eps, t)
    assert rep.n_exp_actual <= segments_per_block(plan.m, paper.k) * paper.n_reps


def test_certified_plans_on_the_criterion_4_instances():
    for d, g, _ in criterion_4_instances():
        comps = components_for(g)
        for t in (0.5, 1.0, 2.0):
            for eps in (1e-2, 1e-3):
                assert_certified(g, comps, build_plan(comps, eps, t), t, eps)


def test_certificates_are_the_column_stacked_distances():
    # the certificate, taken on the real map's Choi matrix in the Hermitian basis, is the
    # bound the column-stacked T_n - e^(tL) reads on its own Choi matrix
    for d, g, _ in criterion_4_instances():
        comps = components_for(g)
        exact = expm(liouvillian_matrix(g))
        for eps in (1e-2, 1e-3):
            plan = build_plan(comps, eps, 1.0)
            cert = choi_split_bound(column_stacked(plan.total_map) - exact)
            assert plan.certificate == pytest.approx(cert, rel=1e-6)


def test_every_certified_plan_carries_its_residual_and_rounding():
    # certificate <= eps - t r - delta on every run that certifies: r is the generator's
    # residual, delta the rounding allowance, and the plan and its report carry both
    cases = [(random_gks(d, np.random.default_rng(1)), 1.0) for d in range(2, 7)]
    cases += [(lambda_atom(), t) for t in (0.25, 1.0, 32.0)] + [(n_qubit_generator(2), 1.0)]
    for g, t in cases:
        L = real_map(liouvillian_matrix(g))
        for eps in (1e-3, 1e-6):
            _, plan, comps = simulate(g, maximally_mixed(g.d), t, eps)
            r = float(diamond_bound(L - sum(c.generator for c in comps)))
            delta = expm_rounding(comps, t)
            assert comps.residual == r and 0.0 <= t * r < 1e-11
            assert plan.certificate is not None and plan.certificate <= eps - t * r - delta
            parts = (plan.residual_bound, plan.rounding_allowance, plan.target)
            assert parts == (t * r, delta, eps - t * r - delta)
            rep = nexp_report(plan).to_dict()
            assert (rep["residual_bound"], rep["rounding_allowance"], rep["target"]) == parts


@pytest.mark.parametrize("g", [*(random_gks(d, np.random.default_rng(s))
                                 for d in (2, 3) for s in (1, 2, 3)), lambda_atom()],
                         ids=[*(f"d{d}-s{s}" for d in (2, 3) for s in (1, 2, 3)), "lambda"])
def test_the_rounding_allowance_is_ten_times_the_exponentials_rounding(g):
    # leading_error's e^(t sum_j G_j) against a 40-digit mpmath.expm of the same matrix,
    # read with diamond_bound: it was at most 0.49 of delta's unit d (1 + ||t sum_j G_j||_1) u
    # here, and delta has ROUNDING_ULPS = 16 of them
    comps = components_for(g)
    S = sum(c.generator for c in comps)
    for t in (0.25, 1.0, 4.0, 32.0):
        with mpmath.workdps(40):
            reference = np.array(mpmath.expm(mpmath.matrix((t * S).tolist())).tolist(),
                                 dtype=float)
        error = float(diamond_bound(leading_error(comps, t)[0] - reference))
        assert error <= expm_rounding(comps, t) / 10


def test_a_generator_keeps_its_residual(monkeypatch):
    # r is computed once for g's own plans, on first use, and kept on g; other plans get
    # their own, and a decomposition whose weights are off shows in it
    g = random_gks(3, np.random.default_rng(1))
    calls, liouvillian = [], trotter.liouvillian_matrix
    monkeypatch.setattr(trotter, "liouvillian_matrix", lambda g: calls.append(g) or liouvillian(g))
    own = components_for(g)
    simulate(g, maximally_mixed(3), 1.0, 1e-3)
    simulate(g, maximally_mixed(3), 2.0, 1e-6)
    assert calls == [g] and components_for(g).residual == own.residual
    plans = [dataclasses.replace(p, lam=p.lam * (1.0 + 1e-6)) for p in decompose_generator(g)]
    off = [prepare_components(g, plans) for _ in range(2)]
    assert len(calls) == 3 and off[0].residual == off[1].residual
    S = column_stacked(sum(c.generator for c in off[0]))
    assert off[0].residual == pytest.approx(choi_split_bound(liouvillian(g) - S), rel=1e-6)
    assert off[0].residual > 1e6 * own.residual


def test_a_target_that_is_not_positive_starts_no_search(monkeypatch):
    # weights 10 % off leave t r past eps: the allowances use up eps, so neither a term
    # nor a block is computed, and the paper's plan runs
    g = lambda_atom()
    comps = prepare_components(g, [dataclasses.replace(p, lam=1.1 * p.lam)
                                   for p in decompose_generator(g)])
    assert comps.residual > 1e-3
    with monkeypatch.context() as patch:
        patch.setattr(trotter, "leading_error", None)
        patch.setattr(trotter, "plan_map", None)
        plan = build_plan(comps, 1e-3, 1.0)
    assert plan == paper_plan(comps, 1e-3, 1.0) and plan.builds == 0


def test_components_without_a_residual_are_not_certified():
    # a plain list carries no residual, and none is assumed for it
    comps = components_for(lambda_atom())
    for eps in (1e-3, 1e4):
        with pytest.raises(TrotterError, match="certified against its generator"):
            build_plan(list(comps), eps, 1.0)


# random_gks(d, default_rng(seed)) that sit on the rounding floor at eps = 1e-11: the
# search runs near n = 1.2e5, where the power's rounding, about n u = 1.3e-11, is past the
# target, so whether a build certifies turns on the target's last bits
FLOOR_AT_1E_11 = {(2, 2)}


@pytest.mark.parametrize("d", range(2, 7))
def test_eps_floor_is_closed(d):
    # the paper's plans read dist/eps 2.4..5.5 at eps = 1e-9 and d = 5, 6: rounding in
    # their 1e5-fold block power; every case certifies at k = 1 with far fewer
    # repetitions, at eps = 1e-10 and, but for FLOOR_AT_1E_11, 1e-11 too, where the worst
    # state reads dist/eps 0.475: up to 0.5 by design, since the certificate bounds the
    # (1->1) distance by eps.  The case on the floor falls back at 1e-11 and reads 0.457
    t = 1.0
    for eps in (1e-9, 1e-10, 1e-11):
        for seed in (1, 2, 3):
            g = random_gks(d, np.random.default_rng(seed))
            rho0 = maximally_mixed(d)
            state, plan, comps = simulate(g, rho0, t, eps)
            assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= eps
            if plan.certificate is None and eps == 1e-11 and (d, seed) in FLOOR_AT_1E_11:
                assert plan == paper_plan(comps, eps, t)
                continue
            assert_certified(g, comps, plan, t, eps)


def test_leading_error_predicts_the_certificate():
    # lead / n^2 is the certificate up to O(n^-4) and rounding; at n = 400 it was
    # within 2.4e-5 of it, relative, on these instances
    t, n = 1.0, 400
    cases = [random_gks(d, np.random.default_rng(s)) for d in range(2, 7) for s in (1, 2, 3)]
    for g in cases + [lambda_atom()]:
        comps = components_for(g)
        m, L1 = len(comps), comps[0].norm
        plan = TrotterPlan(k=1, r=n / L1, n_reps=n, lam=t * L1 / n, m=m, L1=L1)
        exact = expm(t * sum(c.generator for c in comps))
        cert = choi_split_bound(column_stacked(trotter.plan_map(plan, comps) - exact))
        lead = choi_split_bound(column_stacked(leading_error(comps, t)[1][0]))
        assert lead / n ** 2 == pytest.approx(cert, rel=1e-3)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_commuting_components_certify_in_one_block(d):
    # diagonal H and diagonal Lindblad operators: every component commutes with every
    # other, so the k = 1 block is exact and one repetition certifies.  D is zero up
    # to rounding in the commutators: 0 at d = 2, at most 1.9e-17 at d = 3 and 4
    rng = np.random.default_rng(d)
    terms = tuple((float(rng.uniform(0.5, 2.0)),
                   np.diag(rng.normal(size=d) + 1j * rng.normal(size=d))) for _ in range(2))
    g = from_diagonal(DiagonalGenerator(d=d, H=np.diag(rng.normal(size=d)), terms=terms),
                      gell_mann_basis(d))
    rho0 = QuantumState(d=d, rho=random_mixed_state(d, rng))
    eps = 1e-9
    state, plan, comps = simulate(g, rho0, 1.0, eps)
    assert len(comps) >= 2
    assert np.abs(leading_error(comps, 1.0)[1]).max() <= 1e-15
    # every formula starts at n = 1, where the fixed block costs the least
    assert (plan.n_reps, plan.builds, plan.formula) == (1, 1, SUZUKI)
    assert plan.predicted_certificate <= 1e-16
    assert_certified(g, comps, plan, 1.0, eps)
    assert trace_distance(state.rho, apply_exact(g, rho0, 1.0).rho) <= eps


# random_gks(d, default_rng(seed)), seeds 1..3, at t = 1: the n_reps that the search
# certified when it probed n = ceil(t L1) and stepped by the n^-2 law, two builds each
SEARCHED_N = {
    1e-3: {2: (42, 41, 55), 3: (48, 58, 60), 4: (64, 101, 77), 5: (93, 111, 101),
           6: (104, 95, 86)},
    1e-6: {2: (1324, 1295, 1709), 3: (1500, 1808, 1870), 4: (2003, 3166, 2435),
           5: (2921, 3489, 3168), 6: (3270, 3001, 2718)},
}


@pytest.mark.parametrize("eps", sorted(SEARCHED_N))
def test_leading_error_certifies_in_one_block(eps):
    # the search starts at the n that D predicts and certifies there, at no more
    # repetitions than the probe-and-law search took
    t = 1.0
    for d, searched in SEARCHED_N[eps].items():
        for seed, n in zip((1, 2, 3), searched):
            g = random_gks(d, np.random.default_rng(seed))
            rho0 = maximally_mixed(d)
            state, plan, comps = simulate(g, rho0, t, eps)
            assert plan.builds == 1 and plan.n_reps <= n
            assert plan.predicted_certificate <= plan.target
            assert plan.predicted_certificate == pytest.approx(plan.certificate, rel=0.1)
            assert_certified(g, comps, plan, t, eps)
            assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= eps


@pytest.mark.parametrize("eps", [1e-12, 1e-13])
def test_search_stops_at_the_rounding_floor(eps):
    # k = 1 certificates stall between 1e-12 and 1e-11 at d = 6: the search stops when one
    # falls short of the n^-2 law and runs the paper's plan, with no overflow warning or
    # LinAlgError.  That plan's state is itself 4.2e-11 and 7.4e-11 from the oracle here,
    # the paper plan's own floor, so only the state's checks are asserted
    g = random_gks(6, np.random.default_rng(1))
    rho0 = maximally_mixed(6)
    state, plan, comps = simulate(g, rho0, 1.0, eps)
    assert plan.certificate is None and plan.total_map is None
    assert plan == paper_plan(comps, eps, 1.0)
    assert np.array_equal(state.rho, run_plan(plan, comps, rho0).rho)


def test_mixed_orders_certify_above_the_rounding_floor():
    # the mixture's smaller n rounds less: at eps = 1e-11, where the coin flip stalled,
    # random d = 6 certifies, and its state lies within eps / 2 of the oracle
    eps, rho0 = 1e-11, maximally_mixed(6)
    g = random_gks(6, np.random.default_rng(1))
    state, plan, comps = simulate(g, rho0, 1.0, eps)
    assert plan.formula == MIXED_ORDERS and plan.certificate <= plan.target
    assert_certified(g, comps, plan, 1.0, eps)
    assert trace_distance(state.rho, apply_exact(g, rho0, 1.0).rho) <= eps / 2


def test_a_near_miss_gives_way_to_a_cheaper_start():
    # n_qubit_generator(2) at eps = 1e-10: the coin flip starts 0.5 % cheaper than the
    # mixed orders and misses by 1.7 %; its next n would cost at least SEARCH_MARGIN
    # more than its start, more than the mixed orders' start, so the mixed orders
    # build next, and certify there
    comps = components_for(n_qubit_generator(2))
    plan = build_plan(comps, 1e-10, 1.0)
    coin_flip, mixed = (predicted_plan(comps, 1.0, 1e-10, f) for f in (COIN_FLIP, MIXED_ORDERS))
    assert coin_flip.actual_exponentials() < mixed.actual_exponentials()
    assert coin_flip.certificate > coin_flip.target
    assert (plan.formula, plan.builds, plan.n_reps) == (MIXED_ORDERS, 2, mixed.n_reps)


def test_search_skips_a_probe_that_costs_the_paper_plan(monkeypatch):
    # at eps = 1e4 the paper's plan is one k = 1 block of 3 exponentials, as many as
    # the smallest candidate, n = 1, would need: the search computes nothing
    comps = components_for(lambda_atom())
    with monkeypatch.context() as patch:
        patch.setattr(trotter, "plan_map", None)  # no block is built
        patch.setattr(trotter, "expm", None)  # and neither D nor e^(t sum_j G_j)
        plan = build_plan(comps, eps=1e4, t=1.0)
    assert plan.certificate is None and plan.builds == 0
    assert (plan.k, plan.n_reps, plan.actual_exponentials()) == (1, 1, 3)


def test_search_gives_up_on_a_non_finite_map(monkeypatch):
    g = lambda_atom()
    comps = components_for(g)
    with monkeypatch.context() as patch:
        patch.setattr(trotter, "plan_map", lambda plan, components: np.full((9, 9), np.inf))
        plan = build_plan(comps, eps=1e-3, t=1.0)
    assert plan.certificate is None and plan == paper_plan(comps, 1e-3, 1.0)
    # a non-finite leading term is refused before its bound, whose eigh cannot take it
    exact, terms = leading_error(comps, 1.0)
    for bad in (np.nan, np.inf):
        bad_terms = np.concatenate([terms[:-1], np.full_like(terms[-1:], bad)])
        with monkeypatch.context() as patch:
            patch.setattr(trotter, "leading_error", lambda components, t: (exact, bad_terms))
            assert build_plan(comps, eps=1e-3, t=1.0) == paper_plan(comps, 1e-3, 1.0)
    rho0 = maximally_mixed(3)
    assert trace_distance(run_plan(plan, comps, rho0).rho, apply_exact(g, rho0, 1.0).rho) <= 1e-3


def test_search_gives_up_when_expm_refuses_the_generator():
    # ||t sum_j G_j||_1 is past numerics.MAX_EXPM_NORM at t = 1e8: no certificate
    comps = components_for(lambda_atom())
    plan = build_plan(comps, eps=1e-3, t=1e8)
    assert plan.certificate is None and plan == paper_plan(comps, 1e-3, 1e8)


def search_target(comps, eps, t):
    """The target certify forms, eps - t r - delta."""
    return eps - t * comps.residual - expm_rounding(comps, t)


def scripted_plan_map(exact, certificates, target, built):
    """A plan_map whose maps have the given certificates, as multiples of the target, in
    order; it records the n_reps of each plan it is asked for in built."""
    scripted = iter(certificates)

    unit = np.zeros_like(exact)
    unit[1, 1] = 1.0
    scale = target / choi_split_bound(column_stacked(unit))  # the offset's own bound

    def plan_map(plan, components):
        built.append(plan.n_reps)
        return exact + next(scripted) * scale * unit

    return plan_map


def test_search_certifies_up_to_the_exponentials_domain():
    # at ||t sum_j G_j||_1 = 0.6 MAX_EXPM_NORM the exponential that carries D takes the
    # squarings of e^(t sum_j G_j) and is not refused; had its norm doubled, the paper's
    # plan would run at n_reps 1.1e11, where the search certifies 6
    g, rho0, eps = lambda_atom(), maximally_mixed(3), 1e-3
    comps = components_for(g)
    t = 0.6 * MAX_EXPM_NORM / np.abs(sum(c.generator for c in comps)).sum(axis=0).max()
    state, plan, _ = simulate(g, rho0, t, eps)
    assert plan.certificate is not None and plan.n_reps <= 10
    assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= eps


def test_search_builds_at_most_max_builds_blocks(monkeypatch):
    # every scripted map misses the target and falls by more than the rounding floor
    # asks, so only MAX_BUILDS stops the search; one build more would certify
    g = lambda_atom()
    comps = components_for(g)
    t, eps = 1.0, 1e-6
    exact, target = leading_error(comps, t)[0], search_target(comps, eps, t)
    certificates = [8.0, 3.0, 1.2, 1.1, 0.5]
    for cap, builds, certified in ((trotter.MAX_BUILDS, 4, False), (5, 5, True), (1, 1, False)):
        built = []
        scripted = scripted_plan_map(exact, certificates, target, built)
        monkeypatch.setattr(trotter, "plan_map", scripted)
        monkeypatch.setattr(trotter, "MAX_BUILDS", cap)
        plan = build_plan(comps, eps, t)
        assert len(built) == builds == plan.builds
        assert built == sorted(set(built))
        if certified:
            assert plan.n_reps == built[-1] and plan.certificate == pytest.approx(0.5 * target)
        else:
            assert plan.certificate is None and plan == paper_plan(comps, eps, t)
    monkeypatch.undo()
    rho0 = maximally_mixed(3)
    assert trace_distance(run_plan(plan, comps, rho0).rho, apply_exact(g, rho0, 1.0).rho) <= 1e-6


@pytest.mark.parametrize("certificates, builds, certified", [
    # the leading term predicts 0.98 times the target at the first n; landing at 1.5
    # times it, the unpredicted 0.52 asks for a step of fall 2.0; landing at 1.05 times
    # the target falls by 1.43, less than 2 but more than half of 2.0: the search goes on
    ([1.5, 1.05, 0.9, 0.1], 3, True),
    # at 100 times the target the unpredicted part alone is past it, so the n^-2 law
    # predicts a fall of about 110 for the fixed block's next n, which then costs more
    # than the coin flip's first n.  The coin flip runs, at 60 times the target, and its
    # own next n costs more than the fixed block's.  The fixed block runs again, and one
    # fall of 100/60 is less than 2: the rounding floor, so the paper's plan runs
    ([100.0, 60.0, 60.0, 0.1], 3, False),
], ids=["small-step-lands-above-the-target", "fall-short-of-the-law"])
def test_search_stop_rule(monkeypatch, certificates, builds, certified):
    comps = components_for(lambda_atom())
    t, eps = 1.0, 1e-6
    built = []
    exact, target = leading_error(comps, t)[0], search_target(comps, eps, t)
    monkeypatch.setattr(trotter, "plan_map", scripted_plan_map(exact, certificates, target, built))
    plan = build_plan(comps, eps, t)
    assert len(built) == builds == plan.builds
    if certified:
        assert plan.n_reps == built[-1]
        assert plan.certificate == pytest.approx(certificates[builds - 1] * target)
    else:
        assert plan.certificate is None and plan == paper_plan(comps, eps, t)


def test_cost_report_names_the_search(monkeypatch):
    comps = components_for(lambda_atom())
    t, eps = 1.0, 1e-6
    rep = nexp_report(build_plan(comps, eps, t)).to_dict()
    assert (rep["builds"], rep["formula"], rep["pairs"]) == (1, "suzuki", 0)
    assert rep["predicted_certificate"] == pytest.approx(rep["certificate"], rel=0.1)
    # a mixture's N_exp is its worst case over the blocks drawn: no two blocks merge
    for seed, formula, pairs in ((1, "mixed-orders", MIX_PAIRS), (3, "coin-flip", 1)):
        mixed = build_plan(components_for(random_gks(3, np.random.default_rng(seed))), eps, t)
        rep = nexp_report(mixed).to_dict()
        assert (rep["formula"], rep["pairs"]) == (formula, pairs)
        assert rep["N_exp_actual"] == rep["N_exp_unmerged"] == mixed.n_reps * (2 * mixed.m - 1)
    # the fallback reports the blocks its search built, and predicts nothing
    built = []
    exact = leading_error(comps, t)[0]
    scripted = scripted_plan_map(exact, [100.0, 60.0, 60.0], search_target(comps, eps, t), built)
    monkeypatch.setattr(trotter, "plan_map", scripted)
    rep = nexp_report(build_plan(comps, eps, t)).to_dict()
    assert (rep["builds"], rep["certificate"], rep["predicted_certificate"]) == (3, None, None)
    # a single component has no search
    rep = nexp_report(build_plan(components_for(damping_generator()), eps, t)).to_dict()
    assert (rep["builds"], rep["certificate"], rep["predicted_certificate"]) == (0, None, None)


def test_run_plan_applies_the_certified_map(monkeypatch):
    g = lambda_atom()
    comps = components_for(g)
    plan = build_plan(comps, eps=1e-6, t=1.0)
    assert plan.certificate is not None and plan == dataclasses.replace(plan, total_map=None)
    monkeypatch.setattr(trotter, "block_superoperator", None)  # run_plan builds no block
    rho0 = maximally_mixed(3)
    state = run_plan(plan, comps, rho0)
    T = frame(3)
    expected = (plan.total_map @ (T @ vec(rho0.rho)).real) @ T
    assert np.array_equal(state.rho, expected.reshape(3, 3))


# ---------------------------------------------------------------------------
# the k = 1 mixtures: the coin flip and the mixed orders
# ---------------------------------------------------------------------------

def test_splitmix64_matches_its_reference_outputs():
    # the first output from seed 0, and the first five from seed 1234567, of the
    # reference implementation (Vigna, splitmix64.c)
    assert trotter._splitmix64(0)[1] == 0xE220A8397B1DCDAF
    state, outputs = 1234567, []
    for _ in range(5):
        state, z = trotter._splitmix64(state)
        outputs.append(z)
    assert outputs == [6457827717110365317, 3203168211198807973, 9817491932198370423,
                       4593380528125082431, 16408922859458223821]


def test_component_orders_are_pinned():
    # the mixture's orders are part of what a plan runs: they must not move between
    # versions of numpy or of Python
    assert component_orders(2).tolist() == [[0, 1]]
    assert component_orders(3).tolist() == [[0, 1, 2], [1, 2, 0], [1, 0, 2]]
    assert component_orders(4).tolist() == [[0, 1, 2, 3], [0, 3, 1, 2], [0, 1, 3, 2],
                                            [0, 3, 2, 1]]
    digest = hashlib.sha256(component_orders(36).astype("<i8").tobytes()).hexdigest()
    assert digest == "f76e645b19a7978eff761da40e688fa445c3cacd5c28d29b6e5b0ef6b973bfcc"


@pytest.mark.parametrize("m", [2, 3, 4, 5, 9, 36])
def test_component_orders_are_distinct_pairs(m):
    orders = component_orders(m)
    assert orders.shape == (min(MIX_PAIRS, math.factorial(m) // 2), m)  # 1 at m = 2, 3 at 3
    assert orders[0].tolist() == list(range(m))  # the norm order
    assert all(sorted(order) == list(range(m)) for order in orders.tolist())
    # no order is another's, or another's reverse
    assert len({min(tuple(o), tuple(o[::-1])) for o in orders.tolist()}) == len(orders)
    assert not orders.flags.writeable and component_orders(m) is orders


@pytest.mark.parametrize("d", range(2, 7))
def test_leading_terms_are_derivatives_along_the_bch_terms(d):
    # with H2 and H3 the second- and third-order terms of the first-order product in an
    # order, the fixed block's term is t^3 times the derivative of exp along
    # H3 / 4 + [sum_j G_j, H2] / 8 in the norm order, the coin flip's along H3 / 4, and
    # the mixed orders' along the mean of H3 / 4 over the rows of component_orders;
    # each reads within 1e-12 of it, relative
    for seed, t in ((1, 1.0), (2, 4.0)):
        comps = components_for(random_gks(d, np.random.default_rng(seed)))
        G = np.stack([c.generator for c in comps])
        S = sum(G)
        H2, H3 = first_order_terms(G)
        mean_H3 = np.mean([first_order_terms(G[o])[1] for o in component_orders(len(G))], axis=0)
        _, terms = leading_error(comps, t)
        directions = (H3 / 4 + (S @ H2 - H2 @ S) / 8, H3 / 4, mean_H3 / 4)
        assert len(terms) == len(directions)
        for D, X in zip(terms, directions):
            expected = t ** 3 * exp_derivative(t * S, X)
            expected[0] = 0.0  # the trace row, which every T_n keeps exactly
            assert frobenius(D - expected) <= 1e-12 * frobenius(expected)


def test_two_components_have_no_mixed_orders_term():
    # at m = 2 the norm order's pair is the only one: the coin flip is the mixture
    _, terms = leading_error(components_for(lambda_atom()), 1.0)
    assert len(component_orders(2)) == 1 and len(terms) == 2


def test_coin_flip_block_is_the_mean_of_both_orders(monkeypatch):
    comps = components_for(random_gks(3, np.random.default_rng(1)))
    m, L1, n = len(comps), comps[0].norm, 7
    fixed = TrotterPlan(k=1, r=n / L1, n_reps=n, lam=L1 / n, m=m, L1=L1)
    mixtures = [dataclasses.replace(fixed, formula=f) for f in (COIN_FLIP, MIXED_ORDERS)]
    assert [p.pairs for p in (fixed, *mixtures)] == [0, 1, MIX_PAIRS]
    # the walked fixed block over a permuted component list runs component o_j as j; each
    # of a mixture's pairs runs its order and the reverse
    expected = []
    for mixed in mixtures:
        orders = component_orders(m)[:mixed.pairs]
        expected.append(np.mean([walked_block(fixed, [comps[j] for j in order])
                                 for order in (*orders, *orders[:, ::-1])], axis=0))
    calls = []
    channel = trotter.Component.channel
    monkeypatch.setattr(trotter.Component, "channel",
                        lambda c, taus: calls.append(len(taus)) or channel(c, taus))
    for mixed, mean in zip(mixtures, expected):
        calls.clear()
        block = block_superoperator(mixed, comps)
        assert np.abs(block - mean).max() <= 1e-15
        assert calls == [1] * m  # one half-step channel per component
        assert mixed.actual_exponentials() == n * (2 * m - 1)
        assert fixed.n_exp == mixed.n_exp and fixed != mixed
    assert fixed.actual_exponentials() == n * (2 * m - 2) + 1


@pytest.mark.parametrize("k, formula", [(1, SUZUKI), (1, COIN_FLIP), (1, MIXED_ORDERS),
                                        (2, SUZUKI), (3, SUZUKI)])
def test_block_superoperator_matches_the_walked_schedule(k, formula, monkeypatch):
    # the one block builder against the merged schedule's walk, and one channel call per
    # component per block, at the 2^(k-1) half steps of the recursion's leaves: the
    # benchmark's channel_reuse, segments per channel call, reads >= 1 on it
    calls = []
    channel = trotter.Component.channel
    monkeypatch.setattr(trotter.Component, "channel",
                        lambda c, taus: calls.append(len(taus)) or channel(c, taus))
    for g in (random_gks(3, np.random.default_rng(1)), random_gks(4, np.random.default_rng(2)),
              lambda_atom()):
        comps = components_for(g)
        m, L1 = len(comps), comps[0].norm
        plan = TrotterPlan(k=k, r=3 / L1, n_reps=3, lam=L1 / 3, m=m, L1=L1, formula=formula)
        calls.clear()
        block = block_superoperator(plan, comps)
        assert calls == [2 ** (k - 1)] * m
        expected = walked_block(plan, comps)
        assert frobenius(block - expected) <= 1e-13 * frobenius(expected)


def test_a_run_builds_no_schedule(monkeypatch):
    # a plan carries its block length, not its schedule: neither the search, the run nor
    # the cost report of a certified plan or of the paper's plan unrolls one, and the
    # schedule property unrolls the plan's own block
    comps = components_for(random_gks(6, np.random.default_rng(1)))
    rho0 = maximally_mixed(6)

    def no_schedule(*args):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(trotter, "block_schedule", no_schedule)
    plans = []
    for eps in (1e-3, 1e-6):
        plans.append(build_plan(comps, eps, 1.0))
        assert plans[-1].certificate is not None
        run_plan(plans[-1], comps, rho0)
    plans.append(paper_plan(comps, 1e-3, 1.0))
    run_plan(plans[-1], comps, rho0)
    reports = [nexp_report(plan) for plan in plans]
    monkeypatch.undo()
    assert plans[-1].k == 2 and [r.negative_segments for r in reports] == [False, False, True]
    for plan in plans:
        assert plan.lam == 1.0 * plan.L1 / plan.n_reps
        assert plan.schedule == block_schedule(plan.m, plan.k, plan.lam)
        assert len(plan.schedule) == segments_per_block(plan.m, plan.k)


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_both_formulas_certify_at_their_predicted_n(eps):
    # each formula's own leading term sizes a plan that certifies; the search runs the
    # cheapest, the one of fewer orders on a tie, which never needs more exponentials
    # than the fixed block at its n
    t, chosen = 1.0, set()
    cases = [random_gks(d, np.random.default_rng(s)) for d in range(2, 7) for s in (1, 2, 3)]
    for g in cases + [lambda_atom()]:
        comps = components_for(g)
        rho0 = maximally_mixed(g.d)
        exact = apply_exact(g, rho0, t)
        formulas = FORMULAS if len(comps) > 2 else FORMULAS[:2]  # m = 2: one pair
        plans = [predicted_plan(comps, t, eps, f) for f in formulas]
        for plan in plans:
            assert_certified(g, comps, plan, t, eps)
            assert trace_distance(run_plan(plan, comps, rho0).rho, exact.rho) <= eps
        cheapest = min(plans, key=TrotterPlan.actual_exponentials)
        run = build_plan(comps, eps, t)
        assert (run.formula, run.n_reps, run.builds) == (cheapest.formula, cheapest.n_reps, 1)
        assert run.actual_exponentials() <= plans[0].actual_exponentials()
        chosen.add(run.formula)
    assert chosen == set(FORMULAS)
