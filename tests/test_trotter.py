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

from conftest import (DIRECTIONS, NORM_SAFETY, choi_split_bound, column_stacked,
                      count_calls, criterion_4_instances, dephasing_gks, edge_direction,
                      exp_derivative, first_order_terms, frame, lambda_atom, leading_error,
                      n_qubit_generator,
                      pair_terms, predicted_plan, pure_hamiltonian, random_diagonal, random_gks,
                      random_hermitian, random_mixed_state, reference_components,
                      reference_schedule, serial_one_one_norm, unvec, vec, walked_block)
from lindbladsim import trotter
from lindbladsim.decompose import DecomposeError, decompose_generator, verify_plans
from lindbladsim.lindblad import (DiagonalGenerator, GksGenerator, QuantumState, apply_exact,
                                  from_diagonal, liouvillian_matrix, maximally_mixed, real_map,
                                  trace_distance, trace_preserving)
from lindbladsim.numerics import MAX_EXPM_NORM, expm, frobenius, trace_norm
from lindbladsim.sud import gell_mann_basis
from lindbladsim.trotter import (MIXED_ORDERS, POOL, SUZUKI, Segment, TrotterError, TrotterPlan,
                                 block_schedule, block_superoperator, build_plan,
                                 component_orders, diamond_bound, expm_rounding, formula_count,
                                 mixture_rows, nexp_bound_closed_form,
                                 nexp_bound_res, nexp_report, paper_plan, pool_size,
                                 prepare_components, run_plan, segments_per_block, select_order,
                                 simulate, step_count, suzuki_p)

E = math.e


def scaled_weight_components(monkeypatch, g, factor):
    """prepare_components of a fresh generator equal to g, whose split has every plan's
    weight scaled by factor."""
    decompose_terms = trotter.decompose_terms
    monkeypatch.setattr(trotter, "decompose_terms", lambda terms, basis: [
        dataclasses.replace(p, lam=factor * p.lam) for p in decompose_terms(terms, basis)])
    return prepare_components(GksGenerator(basis=g.basis, H=g.H, A=g.A))


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
    assert formula_count(MIXED_ORDERS, 3, 1, 4) == 4 * 5


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
    cases.append((random_gks(6, np.random.default_rng(1)), 3))
    for g, n_components in cases:
        for c in prepare_components(g)[:n_components]:
            oracle = serial_one_one_norm(column_stacked(c.generator)) / NORM_SAFETY
            assert c.norm >= oracle * (1.0 - 1e-12)


def assert_components_match_the_reference(g):
    """prepare_components against the column-stacked reference of g's plans: the same norms
    in the same order, bit for bit, and maps within 1e-14 in the Frobenius norm, relative."""
    new, ref = prepare_components(g), reference_components(g, decompose_generator(g))
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
    assert_components_match_the_reference(COMPONENT_CASES[case]())


@pytest.mark.parametrize("d", range(2, 7))
@settings(max_examples=10)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3))
def test_components_match_the_reference_on_any_generator(d, seed, scale):
    g = random_gks(d, np.random.default_rng(seed), scale=scale)
    assert_components_match_the_reference(g)


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
    comps = prepare_components(g)
    assert len(comps) == 1
    plan = build_plan(comps, eps=1e-3, t=3.0)
    assert plan.n_reps == 1 and len(plan.schedule) == 1
    rho0 = QuantumState(d=g.d, rho=random_mixed_state(g.d, rng))
    out = run_plan(plan, comps, rho0)
    oracle = apply_exact(g, rho0, 3.0)
    assert trace_distance(out.rho, oracle.rho) < 1e-10


def test_run_plan_zero_time(rng):
    g = lambda_atom(1.0, 0.5)
    comps = prepare_components(g)
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
    spectral = prepare_components(g)  # the paper's plan is the spectral split's
    paper = paper_plan(spectral.record.norms, eps, t)
    assert paper.n_reps >= 6000
    for state in (out, run_plan(paper, spectral, rho0)):
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
    comps = prepare_components(g)
    plan = paper_plan(comps.record.norms, eps, t)
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
    comps = prepare_components(g)
    t, eps = 1.0, 1e-2
    plan = build_plan(comps, eps, t)
    for _ in range(25):
        rho0 = QuantumState(d=2, rho=random_mixed_state(2, rng))
        out = run_plan(plan, comps, rho0)
        oracle = apply_exact(g, rho0, t)
        assert trace_distance(out.rho, oracle.rho) <= eps


def test_plan_total_duration_invariant(rng):
    g = lambda_atom(0.8, 0.3)
    comps = prepare_components(g)
    plan = build_plan(comps, eps=1e-2, t=1.7)
    per_block = sum(s.duration for s in plan.schedule if s.index == 0)
    assert plan.n_reps * per_block == pytest.approx(1.7 * plan.L1, rel=1e-12)


def test_plan_deterministic():
    g = lambda_atom(1.0, 0.5)
    p1 = build_plan(prepare_components(g), eps=1e-3, t=1.0)
    p2 = build_plan(prepare_components(g), eps=1e-3, t=1.0)
    assert p1 == p2


def test_convergence_is_second_order_at_k1(rng):
    # realized error ~ C lambda^2 at fixed total time for the basic split
    g = from_diagonal(random_diagonal(2, 2, rng, scale=1.0), gell_mann_basis(2))
    comps = prepare_components(g)
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
    comps = prepare_components(g)
    m = len(comps)
    L1 = comps[0].norm
    S = sum(c.generator for c in comps)

    def one_step_error(lam):
        plan = TrotterPlan(k=1, r=0.0, n_reps=1, lam=lam, m=m, L1=L1)
        return frobenius(block_superoperator(plan, comps) - expm((lam / L1) * S, offset=True))

    lam = 0.05
    ratio = one_step_error(lam) / one_step_error(lam / 2)
    assert 6.0 < ratio < 10.0


# ---------------------------------------------------------------------------
# cost reports
# ---------------------------------------------------------------------------

def test_nexp_report_m1_trivial():
    g = damping_generator()
    comps = prepare_components(g)
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
    comps = prepare_components(lambda_atom())
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
    comps = prepare_components(lambda_atom())
    k, _, n_reps, _, _ = step_count(1e-300, 1.0, 2, comps[0].norm, comps[1].norm)
    assert (k, segments_per_block(2, k)) == (13, 488281251)
    assert formula_count(SUZUKI, 2, k, n_reps) > 2 ** 53

    def no_schedule(*args):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(trotter, "block_schedule", no_schedule)
    with pytest.raises(TrotterError, match="2\\^53"):
        build_plan(comps, eps=1e-300, t=1.0)


def test_a_generator_decomposes_once(decompositions):
    # one spectrum, and one decompose_terms per candidate split: spectral, Cholesky, DFT
    g = random_gks(4, np.random.default_rng(4))
    rho0 = maximally_mixed(4)
    once = {"gks_spectrum": 1, "decompose_terms": 3}
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
def test_prepare_components_never_sees_a_bad_weight(lam, monkeypatch):
    # a split whose weights went bad is refused as its plans are made, before preparation
    with pytest.raises(DecomposeError, match="weight must be finite and non-negative"):
        scaled_weight_components(monkeypatch, lambda_atom(1.0, 0.25), lam)


def test_nexp_per_block_m2_k1():
    assert segments_per_block(2, 1) == 3


def test_nexp_report_bounds_hold_across_eps():
    g = lambda_atom(1.0, 1.0)
    comps = prepare_components(g)
    ks = set()
    for eps in (1e-2, 1e-3, 1e-4):
        for plan in (build_plan(comps, eps=eps, t=1.0),
                     paper_plan(comps.record.norms, eps=eps, t=1.0)):
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
    differences of its component channels, T_n - e^(t sum_j G_j) for each of certify's
    candidates at n = 3, and leading_error's terms, at t = 1."""
    comps = prepare_components(random_gks(d, np.random.default_rng(seed)))
    exact, terms = leading_error(comps, 1.0)
    m, L1 = len(comps), comps[0].norm
    plan = TrotterPlan(k=1, r=3 / L1, n_reps=3, lam=L1 / 3, m=m, L1=L1)
    runs = [trotter.plan_map(dataclasses.replace(plan, rows=rows), comps) - exact
            for rows in ((), (0,), mixture_rows(comps.record, 1.0))]
    a, b = comps[0].channel([0.1, 0.7]), comps[-1].channel([0.4])[0]
    return [a[0] - a[1], a[1] - b, *runs, *terms]


@pytest.mark.parametrize("d", range(2, 7))
def test_diamond_bound_reads_one_on_channels(d):
    # a channel's Choi matrix is positive with Tr_out J = I: its bound is its norm, 1.
    # channel and block_superoperator give offsets from the identity
    g = random_gks(d, np.random.default_rng(d))
    comps = prepare_components(g)
    m, L1 = len(comps), comps[0].norm
    plan = TrotterPlan(k=1, r=5 / L1, n_reps=5, lam=L1 / 5, m=m, L1=L1)
    identity = np.eye(d * d)
    channels = [*(identity + c.channel([0.05, 0.6]) for c in comps),
                [identity + block_superoperator(dataclasses.replace(plan, rows=rows), comps)
                 for rows in ((), (0,), mixture_rows(comps.record, 1.0))],
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


def test_diamond_bound_scales_a_subnormal_map_first():
    # the scaling 2^1072 of a map whose largest entry is the smallest subnormal is past
    # the largest double, so it is applied entry by entry; the bound is that of 0.25 I
    assert diamond_bound(5e-324 * np.eye(4)) == np.ldexp(diamond_bound(0.25 * np.eye(4)), -1072)


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
    assert plan.residual_bound == t * comps.record.residual
    assert plan.rounding_allowance == expm_rounding(comps.record, t)
    assert plan.target == eps - plan.residual_bound - plan.rounding_allowance
    exact = real_map(expm(t * liouvillian_matrix(g)))
    assert choi_split_bound(column_stacked(plan.total_map - exact)) <= eps
    rep = nexp_report(plan)
    assert not rep.negative_segments
    paper = paper_plan(comps.record.norms, eps, t)
    assert rep.n_exp_actual <= segments_per_block(plan.m, paper.k) * paper.n_reps


def test_certified_plans_on_the_criterion_4_instances():
    for d, g, _ in criterion_4_instances():
        comps = prepare_components(g)
        for t in (0.5, 1.0, 2.0):
            for eps in (1e-2, 1e-3):
                assert_certified(g, comps, build_plan(comps, eps, t), t, eps)


def test_certificates_are_the_column_stacked_distances():
    # the certificate, taken on the real map's Choi matrix in the Hermitian basis, is the
    # bound the column-stacked T_n - e^(tL) reads on its own Choi matrix
    for d, g, _ in criterion_4_instances():
        comps = prepare_components(g)
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
            delta = expm_rounding(comps.record, t)
            assert comps.record.residual == r and 0.0 <= t * r < 1e-11
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
    comps = prepare_components(g)
    S = sum(c.generator for c in comps)
    for t in (0.25, 1.0, 4.0, 32.0):
        with mpmath.workdps(40):
            reference = np.array(mpmath.expm(mpmath.matrix((t * S).tolist())).tolist(),
                                 dtype=float)
        error = float(diamond_bound(leading_error(comps, t)[0] - reference))
        assert error <= expm_rounding(comps.record, t) / 10


def test_repeat_runs_derive_each_quantity_once(monkeypatch):
    # g's first run makes its candidate splits, each in its own record, and every later run
    # reads them, whatever its t and eps: the spectrum and the Liouvillian of the residuals
    # are computed once, and each candidate's plans, operators and commutator sums once.  A
    # repeat run at the last t takes every split's leading terms from the memo and builds
    # the components of the split it runs alone.  The records' arrays and the memo's
    # e^(t sum_j G_j), which certify subtracts from the block power, are read-only.  Every
    # split is made on g's first use, in one pass against one real Liouvillian, whether
    # prepare_components or simulate touches g first, and a later run makes none
    g, rho0 = random_gks(3, np.random.default_rng(1)), maximally_mixed(3)
    names = ("gks_spectrum", "decompose_terms", "universal_operators", "liouvillian_matrix",
             "commutator_sums", "leading_terms", "one_one_norm")
    calls = count_calls(monkeypatch, names)
    runs = [simulate(g, rho0, t, eps) for t, eps in ((1.0, 1e-3), (2.0, 1e-6), (1.0, 1e-6))]
    records = g.splits.records
    assert [r.split for r in records] == [trotter.SPECTRAL, trotter.CHOLESKY, trotter.DFT]
    per_split = ("decompose_terms", "universal_operators", "commutator_sums")
    assert {name: calls[name] for name in per_split} == dict.fromkeys(per_split, 3)
    assert calls["gks_spectrum"] == calls["liouvillian_matrix"] == 1
    assert calls["leading_terms"] == 3  # one stacked call for each new t
    for _, plan, comps in runs:
        assert plan.certificate is not None
        assert comps.record.split == plan.split and comps.record in records
    assert g.splits.memo[0] == 1.0  # the last t's leads
    calls.clear()
    state, plan, comps = simulate(g, rho0, 1.0, 1e-3)
    assert calls == {"one_one_norm": len(comps)}
    assert plan == runs[0][1] and state.rho.tobytes() == runs[0][0].rho.tobytes()
    exact = [lead[1] for lead in g.splits.memo[1]]
    arrays = [a for r in records for a in (r.operators, *r.sums[:4], *r.sums[4],
                                           *(term.a for term in r.terms),
                                           *(p.U for p in r.plans))]
    assert len(exact) == 3 and all(not a.flags.writeable for a in arrays + exact)
    with pytest.raises(ValueError, match="read-only"):
        records[1].sums[1][0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        records[2].operators[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        exact[0][0, 0] = 1.0
    calls.clear()
    fresh = GksGenerator(basis=g.basis, H=g.H, A=g.A)
    spectral = prepare_components(fresh)
    assert calls["commutator_sums"] == 3 and calls["liouvillian_matrix"] == 1
    assert ([(r.split, r.residual) for r in fresh.splits.records]
            == [(r.split, r.residual) for r in records])
    calls.clear()
    simulate(fresh, rho0, 1.0, 1e-3)
    assert calls["commutator_sums"] == calls["liouvillian_matrix"] == 0
    assert fresh.splits.records[0] is spectral.record


@pytest.mark.parametrize("make", [lambda: random_gks(3, np.random.default_rng(1)), lambda_atom,
                                  lambda: n_qubit_generator(2)],
                         ids=["random-d3-s1", "lambda", "qubits-2"])
def test_a_first_run_builds_each_split_once(monkeypatch, make):
    # a first simulate builds each split's components once, in the pass that makes the
    # splits, and neither the search nor the run builds them again: one one_one_norm call
    # per component of every record, where two phases made 36 for 27 on random d = 3 and 6
    # for 4 on the lambda atom.  It runs the plan and state of a twin generator that ran
    # prepare_components first
    g, twin = make(), make()
    rho0 = maximally_mixed(g.d)
    prepare_components(twin)
    calls = count_calls(monkeypatch, ("one_one_norm",))
    state, plan, _ = simulate(g, rho0, 1.0, 1e-3)
    assert calls["one_one_norm"] == sum(len(r.norms) for r in g.splits.records)
    twin_state, twin_plan, _ = simulate(twin, rho0, 1.0, 1e-3)
    assert plan == twin_plan and state.rho.tobytes() == twin_state.rho.tobytes()


def test_off_weights_show_in_the_residual(monkeypatch):
    # r bounds the decomposition's residual against g: a split whose weights are 1e-6 off
    # reads the reference bound of its own components, a million times g's own r
    g = random_gks(3, np.random.default_rng(1))
    own = prepare_components(g)
    off = scaled_weight_components(monkeypatch, g, 1.0 + 1e-6)
    S = column_stacked(sum(c.generator for c in off))
    r = off.record.residual
    assert r == pytest.approx(choi_split_bound(liouvillian_matrix(g) - S), rel=1e-6)
    assert r > 1e6 * own.record.residual


def test_a_target_that_is_not_positive_starts_no_search(monkeypatch):
    # weights 10 % off leave t r past eps: the allowances use up eps, so neither a term
    # nor a block is computed, and the paper's plan runs
    comps = scaled_weight_components(monkeypatch, lambda_atom(), 1.1)
    assert comps.record.residual > 1e-3
    with monkeypatch.context() as patch:
        patch.setattr(trotter, "leading_terms", None)
        patch.setattr(trotter, "plan_map", None)
        plan = build_plan(comps, 1e-3, 1.0)
    assert plan == paper_plan(comps.record.norms, 1e-3, 1.0) and plan.builds == 0


def test_components_without_a_residual_are_not_certified():
    # a plain list carries no residual, and none is assumed for it
    comps = prepare_components(lambda_atom())
    for eps in (1e-3, 1e4):
        with pytest.raises(TrotterError, match="certified against its generator"):
            build_plan(list(comps), eps, 1.0)


def test_components_cannot_change_in_place(monkeypatch):
    # a component list changed in place kept the residual of the list as it was built:
    # here, at eps = 1e-3, del comps[1] gave a plan certified at 9.2e-4 whose state read
    # dist/eps 139, and del comps[4] one that read 25.6.  Components is a tuple, so nothing
    # is removed, added or moved in place, and what slicing or joining makes is a plain
    # tuple, which certify refuses.  Its record is frozen and cannot be swapped: on the
    # lambda atom with weights 10 % off, an editable record's residual set to 0 gave a
    # certified state at dist/eps 14.9.  Nor can a generator's splits be swapped: with the
    # records of a generator of equal H and another A, an editable Splits gave a certified
    # state 331 eps from g's oracle
    with monkeypatch.context() as patch:
        off = scaled_weight_components(patch, lambda_atom(), 1.1)
    for name, value in (("residual", 0.0), ("norms", ()), ("sums", None)):
        with pytest.raises(AttributeError):
            setattr(off.record, name, value)
    g, rho0, eps = random_gks(3, np.random.default_rng(1)), maximally_mixed(3), 1e-3
    comps = prepare_components(g)
    for name, value in (("record", off.record), ("residual", 0.0)):
        with pytest.raises(AttributeError):
            setattr(comps, name, value)
    with pytest.raises(AttributeError):
        del comps.record
    assert comps.record is g.splits.records[0]
    for name, value in (("records", (off.record,)), ("memo", None)):
        with pytest.raises(AttributeError):
            setattr(g.splits, name, value)
    for i in (1, 4):
        with pytest.raises(TypeError):
            del comps[i]
    with pytest.raises(TypeError):
        comps[0], comps[1] = comps[1], comps[0]
    assert not any(hasattr(comps, name) for name in
                   ("append", "extend", "insert", "pop", "remove", "reverse", "sort", "clear"))
    for changed in (comps[:1] + comps[2:], comps[:4] + comps[5:], comps + comps[-1:]):
        assert type(changed) is tuple
        with pytest.raises(TrotterError, match="certified against its generator"):
            build_plan(changed, eps, 1.0)
    plan = build_plan(comps, eps, 1.0)
    assert plan.certificate <= plan.target and len(comps) == plan.m
    state = run_plan(plan, comps, rho0)
    assert trace_distance(state.rho, apply_exact(g, rho0, 1.0).rho) <= eps


@pytest.mark.parametrize("case", ["random-d4-s2", "qubits-2", "lambda-atom"])
def test_kept_sums_give_the_terms_of_a_fresh_generator(case):
    # the sums kept from an earlier call give leading_error's terms and delta bit for bit
    # as a generator of equal H and A does on its first call
    g = COMPONENT_CASES[case]()
    comps = prepare_components(g)
    simulate(g, maximally_mixed(g.d), 1.0, 1e-3)
    for t in (0.25, 1.0, 4.0):
        fresh = prepare_components(GksGenerator(basis=g.basis, H=g.H, A=g.A))
        for kept, new in zip(leading_error(comps, t), leading_error(fresh, t)):
            assert kept.tobytes() == new.tobytes()
        assert expm_rounding(comps.record, t) == expm_rounding(fresh.record, t)


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1), st.floats(0.25, 4.0),
       st.sampled_from([1e-3, 1e-6]))
def test_runs_are_deterministic(d, seed, t, eps):
    # a first call and a repeat call on one generator, and a first call on an equal
    # fresh one, run equal plans to the same bytes
    rng = np.random.default_rng(seed)
    g = random_gks(d, rng)
    rho0 = QuantumState(d=d, rho=random_mixed_state(d, rng))
    runs = [simulate(g, rho0, t, eps), simulate(g, rho0, t, eps),
            simulate(GksGenerator(basis=g.basis, H=g.H, A=g.A), rho0, t, eps)]
    (state, plan, _), *others = runs
    for other_state, other_plan, _ in others:
        assert other_plan == plan and other_plan.builds == plan.builds
        assert other_state.rho.tobytes() == state.rho.tobytes()


@settings(max_examples=100)
@given(st.integers(2, 6), st.lists(st.sampled_from(DIRECTIONS), min_size=1, max_size=3),
       st.booleans(), st.sampled_from([0.0, 0.3, 2.0]), st.sampled_from([1e-3, 1e-6]),
       st.integers(0, 2 ** 32 - 1))
def test_edge_generators_run_within_eps(d, kinds, with_h, t, eps, seed):
    # end to end on the decomposition's edge cases: A a weighted sum of one to three
    # rank-one pieces along edge directions, H zero or random.  The state is valid (a
    # QuantumState checks itself) and lies within eps / 2 of the oracle when the plan
    # is certified, within eps otherwise
    rng = np.random.default_rng(seed)
    basis = gell_mann_basis(d)
    A = sum(rng.uniform(0.1, 1.0) * np.outer(a, np.conj(a))
            for a in (edge_direction(kind, basis, rng) for kind in kinds))
    H = random_hermitian(d, rng) if with_h else np.zeros((d, d))
    g = GksGenerator(basis=basis, H=H, A=A)
    rho0 = QuantumState(d=d, rho=random_mixed_state(d, rng))
    state, plan, _ = simulate(g, rho0, t, eps)
    bound = 0.5 * eps if plan.certificate is not None else eps
    assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= bound


@settings(max_examples=60)
@given(st.integers(2, 6), st.sampled_from(["zero", "projector", "identity"]),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), st.booleans(), st.floats(0.25, 4.0),
       st.sampled_from([1e-3, 1e-6, 1e-9]), st.integers(0, 2 ** 32 - 1))
def test_degenerate_dissipators_run_within_eps(d, kind, split, with_h, t, eps, seed):
    # A = 0, a random projector or the identity, so its spectrum is degenerate, plus
    # split v v†, which makes it near-degenerate (I + 1e-9 v v†) or, from A = 0, tiny;
    # H zero or random.  The state is valid and lies within eps / 2 of the oracle when
    # the plan is certified, within eps otherwise
    rng = np.random.default_rng(seed)
    basis = gell_mann_basis(d)
    n = basis.n
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    rank = {"zero": 0, "projector": int(rng.integers(1, n)), "identity": n}[kind]
    P = np.eye(n) if kind == "identity" else q[:, :rank] @ np.conj(q[:, :rank]).T
    A = rng.uniform(0.1, 1.0) * (P + split * np.outer(q[:, -1], np.conj(q[:, -1])))
    H = random_hermitian(d, rng) if with_h else np.zeros((d, d))
    g = GksGenerator(basis=basis, H=H, A=A)
    rho0 = QuantumState(d=d, rho=random_mixed_state(d, rng))
    state, plan, _ = simulate(g, rho0, t, eps)
    QuantumState(d=d, rho=state.rho)
    bound = 0.5 * eps if plan.certificate is not None else eps
    assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= bound


@pytest.mark.parametrize("d", range(2, 7))
def test_eps_floor_is_closed(d):
    # the paper's plans read dist/eps 2.4..5.5 at eps = 1e-9 and d = 5, 6: rounding in
    # their 1e5-fold block power; every case certifies at k = 1 with far fewer
    # repetitions, at eps = 1e-10 and 1e-11 too, where a mixture's n ~ 1e5 repetitions
    # would add up about n u = 1.1e-11 of rounding were it not built in offsets from the
    # identity.  The worst state reads dist/eps 0.4997: up to 0.5 by design, since the
    # certificate bounds the (1->1) distance by eps
    t = 1.0
    for eps in (1e-9, 1e-10, 1e-11):
        for seed in (1, 2, 3):
            g = random_gks(d, np.random.default_rng(seed))
            rho0 = maximally_mixed(d)
            state, plan, comps = simulate(g, rho0, t, eps)
            assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= eps / 2
            assert_certified(g, comps, plan, t, eps)


def test_leading_error_predicts_the_certificate():
    # lead / n^2 is the certificate up to O(n^-4) and rounding; at n = 400 it was
    # within 2.4e-5 of it, relative, on these instances
    t, n = 1.0, 400
    cases = [random_gks(d, np.random.default_rng(s)) for d in range(2, 7) for s in (1, 2, 3)]
    for g in cases + [lambda_atom()]:
        comps = prepare_components(g)
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
    # on the spectral split, which the table measured, the search starts at the n that D
    # predicts and certifies there, at no more repetitions than the probe-and-law search
    # took.  A run may take another split: it certifies too, within eps of the oracle
    t = 1.0
    for d, searched in SEARCHED_N[eps].items():
        for seed, n in zip((1, 2, 3), searched):
            g = random_gks(d, np.random.default_rng(seed))
            rho0 = maximally_mixed(d)
            exact = apply_exact(g, rho0, t).rho
            comps = prepare_components(g)
            plan = build_plan(comps, eps, t)
            state = run_plan(plan, comps, rho0)
            assert plan.builds == 1 and plan.n_reps <= n
            assert plan.predicted_certificate <= plan.target
            assert plan.predicted_certificate == pytest.approx(plan.certificate, rel=0.1)
            assert_certified(g, comps, plan, t, eps)
            assert trace_distance(state.rho, exact) <= eps
            state, run, comps = simulate(g, rho0, t, eps)
            assert run.certificate is not None
            assert run.actual_exponentials() <= plan.actual_exponentials()
            assert_certified(g, comps, run, t, eps)
            assert trace_distance(state.rho, exact) <= eps


@pytest.mark.parametrize("eps", [1e-13, 1e-14])
def test_search_stops_at_the_rounding_floor(eps):
    # on the lambda atom at eps = 1e-13 and 1e-14 no candidate starts below the paper
    # plan's count, so the search stops before it builds a block and runs the paper's
    # k = 3 plan, with no overflow warning or LinAlgError.  That plan is uncertified, but
    # built and powered in offsets from the identity it reads dist/eps 0.0020 and 0.019,
    # where its block of the channels themselves, folded and powered as it was, read 19.5
    # and 194
    g = lambda_atom()
    rho0 = maximally_mixed(3)
    state, plan, comps = simulate(g, rho0, 1.0, eps)
    assert plan.certificate is None and plan.total_map is None and plan.builds == 0
    assert plan == paper_plan(comps.record.norms, eps, 1.0)
    assert np.array_equal(state.rho, run_plan(plan, comps, rho0).rho)
    assert trace_distance(state.rho, apply_exact(g, rho0, 1.0).rho) <= eps


@pytest.mark.parametrize("eps", [1e-12, 8e-13, 5e-13])
def test_the_fixed_block_certifies_above_the_rounding_floor(eps):
    # the fixed block is built and powered in offsets from the identity, as a mixture is:
    # on the lambda atom, whose one pair leaves the fixed block the cheapest candidate, it
    # certifies at eps = 1e-12..5e-13 with dist/eps about 0.15.  Built from the channels
    # themselves its certificate missed by 18.5 times the target at 1e-12, and the paper's
    # k = 3 fallback read dist/eps 0.98, 3.29 and 1.13.  That is the spectral split's
    # plan; a run takes the DFT split's coin flip here, and certifies as well
    g = lambda_atom()
    rho0 = maximally_mixed(3)
    exact = apply_exact(g, rho0, 1.0).rho
    comps = prepare_components(g)
    plan = build_plan(comps, eps, 1.0)
    state = run_plan(plan, comps, rho0)
    assert plan.formula == SUZUKI
    assert_certified(g, comps, plan, 1.0, eps)
    assert trace_distance(state.rho, exact) <= eps / 2
    state, run, comps = simulate(g, rho0, 1.0, eps)
    assert run.certificate is not None
    assert (run.split, run.rows) == (trotter.DFT, (0,))
    assert run.actual_exponentials() <= plan.actual_exponentials()
    assert_certified(g, comps, run, 1.0, eps)
    assert trace_distance(state.rho, exact) <= eps / 2


def test_mixed_orders_certify_above_the_rounding_floor():
    # a mixture is built and powered in offsets from the identity, so its certificate
    # has no rounding floor above the allowance delta: random d = 6 certifies at each
    # eps down to 5e-13, where its target, eps - t r - delta, is 6.5e-14, and its state
    # lies within eps / 2 of the oracle
    rho0 = maximally_mixed(6)
    g = random_gks(6, np.random.default_rng(1))
    exact = apply_exact(g, rho0, 1.0)
    for eps in (1e-11, 1e-12, 5e-13):
        state, plan, comps = simulate(g, rho0, 1.0, eps)
        assert plan.formula == MIXED_ORDERS and plan.certificate <= plan.target
        assert_certified(g, comps, plan, 1.0, eps)
        assert trace_distance(state.rho, exact.rho) <= eps / 2


def test_a_near_miss_gives_way_to_a_cheaper_start(monkeypatch):
    # n_qubit_generator(2) at eps = 1e-10: the coin flip starts 0.9 % cheaper than the
    # chosen mixture.  Scripted to miss there by 5 %, its next n, the one its term sizes,
    # would cost 2.6 % more than its start, more than the mixture's start, so the mixture
    # builds next, and certifies there
    comps = prepare_components(n_qubit_generator(2))
    t, eps = 1.0, 1e-10
    rows = mixture_rows(comps.record, t)
    coin_flip, mixed = (predicted_plan(comps, t, eps, r) for r in ((0,), rows))
    cheaper = coin_flip.actual_exponentials()
    assert cheaper < mixed.actual_exponentials() < cheaper * trotter.SEARCH_MARGIN
    built, ran = [], []
    exact, target = leading_error(comps, t)[0], search_target(comps, eps, t)
    scripted = scripted_plan_map(exact, [1.05, 0.99], target, built)
    monkeypatch.setattr(trotter, "plan_map", lambda plan, components: (
        ran.append(plan.rows) or scripted(plan, components)))
    plan = build_plan(comps, eps, t)
    assert list(zip(ran, built)) == [((0,), coin_flip.n_reps), (rows, mixed.n_reps)]
    assert (plan.rows, plan.n_reps, plan.builds) == (rows, mixed.n_reps, 2)


def test_search_skips_a_probe_that_costs_the_paper_plan(monkeypatch):
    # at eps = 1e4 the paper's plan is one k = 1 block of 3 exponentials, as many as
    # the smallest candidate, n = 1, would need: the search computes nothing
    comps = prepare_components(lambda_atom())
    with monkeypatch.context() as patch:
        patch.setattr(trotter, "plan_map", None)  # no block is built
        patch.setattr(trotter, "expm", None)  # and neither D nor e^(t sum_j G_j)
        plan = build_plan(comps, eps=1e4, t=1.0)
    assert plan.certificate is None and plan.builds == 0
    assert (plan.k, plan.n_reps, plan.actual_exponentials()) == (1, 1, 3)


def test_search_gives_up_on_a_non_finite_map(monkeypatch):
    g = lambda_atom()
    comps = prepare_components(g)
    with monkeypatch.context() as patch:
        patch.setattr(trotter, "plan_map", lambda plan, components: np.full((9, 9), np.inf))
        plan = build_plan(comps, eps=1e-3, t=1.0)
    assert plan.certificate is None and plan == paper_plan(comps.record.norms, 1e-3, 1.0)
    # a non-finite leading term is refused before its bound, whose eigh cannot take it
    exact, terms = leading_error(comps, 1.0)
    for bad in (np.nan, np.inf):
        bad_terms = np.concatenate([terms[:-1], np.full_like(terms[-1:], bad)])
        with monkeypatch.context() as patch:
            patch.setattr(trotter, "leading_terms", lambda splits, t, rows: [(exact, bad_terms)])
            assert build_plan(comps, eps=1e-3, t=1.0) == paper_plan(comps.record.norms, 1e-3, 1.0)
    rho0 = maximally_mixed(3)
    assert trace_distance(run_plan(plan, comps, rho0).rho, apply_exact(g, rho0, 1.0).rho) <= 1e-3


def test_search_gives_up_when_expm_refuses_the_generator():
    # ||t sum_j G_j||_1 is past numerics.MAX_EXPM_NORM at t = 1e8: no certificate
    comps = prepare_components(lambda_atom())
    plan = build_plan(comps, eps=1e-3, t=1e8)
    assert plan.certificate is None and plan == paper_plan(comps.record.norms, 1e-3, 1e8)


def search_target(comps, eps, t):
    """The target certify forms, eps - t r - delta."""
    return eps - t * comps.record.residual - expm_rounding(comps.record, t)


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
    comps = prepare_components(g)
    t = 0.6 * MAX_EXPM_NORM / np.abs(sum(c.generator for c in comps)).sum(axis=0).max()
    state, plan, _ = simulate(g, rho0, t, eps)
    assert plan.certificate is not None and plan.n_reps <= 10
    assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= eps


def test_search_builds_at_most_max_builds_blocks(monkeypatch):
    # every scripted map misses the target and falls by more than the rounding floor
    # asks, so only MAX_BUILDS stops the search; one build more would certify
    g = lambda_atom()
    comps = prepare_components(g)
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
            assert plan.certificate is None and plan == paper_plan(comps.record.norms, eps, t)
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
    comps = prepare_components(lambda_atom())
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
        assert plan.certificate is None and plan == paper_plan(comps.record.norms, eps, t)


def test_cost_report_names_the_search(monkeypatch):
    comps = prepare_components(lambda_atom())
    t, eps = 1.0, 1e-6
    rep = nexp_report(build_plan(comps, eps, t)).to_dict()
    assert (rep["builds"], rep["formula"], rep["pairs"]) == (1, "suzuki", 0)
    assert rep["predicted_certificate"] == pytest.approx(rep["certificate"], rel=0.1)
    # a mixture's N_exp is its worst case over the blocks drawn: no two blocks merge.  The
    # coin flip is the mixture of the norm order's pair alone
    for g, pairs in ((random_gks(3, np.random.default_rng(1)), 2), (n_qubit_generator(2), 1)):
        mixed = build_plan(prepare_components(g), eps, t)
        rep = nexp_report(mixed).to_dict()
        assert (rep["formula"], rep["pairs"]) == ("mixed-orders", pairs)
        assert rep["N_exp_actual"] == rep["N_exp_unmerged"] == mixed.n_reps * (2 * mixed.m - 1)
    # the fallback reports the blocks its search built, and predicts nothing
    built = []
    exact = leading_error(comps, t)[0]
    scripted = scripted_plan_map(exact, [100.0, 60.0, 60.0], search_target(comps, eps, t), built)
    monkeypatch.setattr(trotter, "plan_map", scripted)
    rep = nexp_report(build_plan(comps, eps, t)).to_dict()
    assert (rep["builds"], rep["certificate"], rep["predicted_certificate"]) == (3, None, None)
    # a single component has no search
    rep = nexp_report(build_plan(prepare_components(damping_generator()), eps, t)).to_dict()
    assert (rep["builds"], rep["certificate"], rep["predicted_certificate"]) == (0, None, None)


def test_run_plan_applies_the_certified_map(monkeypatch):
    g = lambda_atom()
    comps = prepare_components(g)
    plan = build_plan(comps, eps=1e-6, t=1.0)
    assert plan.certificate is not None and plan == dataclasses.replace(plan, total_map=None)
    monkeypatch.setattr(trotter, "block_superoperator", None)  # run_plan builds no block
    rho0 = maximally_mixed(3)
    state = run_plan(plan, comps, rho0)
    T = frame(3)
    expected = (plan.total_map @ (T @ vec(rho0.rho)).real) @ T
    assert np.array_equal(state.rho, expected.reshape(3, 3))


# ---------------------------------------------------------------------------
# the k = 1 mixtures: the coin flip and the chosen pairs
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
    # versions of numpy or of Python.  The pool extends the stream of the four fixed
    # rows a mixture drew before, so its rows 0-3 are those rows
    assert component_orders(2).tolist() == [[0, 1]]
    assert component_orders(3).tolist() == [[0, 1, 2], [1, 2, 0], [1, 0, 2]]
    assert component_orders(4).tolist() == [[0, 1, 2, 3], [0, 3, 1, 2], [0, 1, 3, 2],
                                            [0, 3, 2, 1], [3, 2, 0, 1], [3, 0, 1, 2],
                                            [0, 2, 3, 1], [0, 2, 1, 3], [1, 2, 0, 3],
                                            [2, 0, 3, 1], [2, 0, 1, 3], [2, 3, 0, 1]]
    first = hashlib.sha256(component_orders(36)[:4].astype("<i8").tobytes()).hexdigest()
    assert first == "f76e645b19a7978eff761da40e688fa445c3cacd5c28d29b6e5b0ef6b973bfcc"
    digest = hashlib.sha256(component_orders(36).astype("<i8").tobytes()).hexdigest()
    assert digest == "c6f8b564830c553a858fdc9f05ac68c9e687f618e6f169902a966d5016c0ead4"


@pytest.mark.parametrize("m", [2, 3, 4, 5, 9, 36])
def test_component_orders_are_distinct_pairs(m):
    orders = component_orders(m)
    assert orders.shape == (min(POOL, math.factorial(m) // 2), m)  # 1 at m = 2, 3 at 3
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
    # the chosen mixture's along the mean of H3 / 4 over its rows of component_orders;
    # each reads within 1e-12 of it, relative
    for seed, t in ((1, 1.0), (2, 4.0)):
        comps = prepare_components(random_gks(d, np.random.default_rng(seed)))
        G = np.stack([c.generator for c in comps])
        S = sum(G)
        H2, H3 = first_order_terms(G)
        rows = mixture_rows(comps.record, t)
        assert rows != (0,)  # the chosen mixture is a third term
        orders = component_orders(len(G))[list(rows)]
        mean_H3 = np.mean([first_order_terms(G[o])[1] for o in orders], axis=0)
        _, terms = leading_error(comps, t)
        directions = (H3 / 4 + (S @ H2 - H2 @ S) / 8, H3 / 4, mean_H3 / 4)
        assert len(terms) == len(directions)
        for D, X in zip(terms, directions):
            expected = t ** 3 * exp_derivative(t * S, X)
            expected[0] = 0.0  # the trace row, which every T_n keeps exactly
            assert frobenius(D - expected) <= 1e-12 * frobenius(expected)


@pytest.mark.parametrize("d", range(2, 7))
def test_pair_terms_match_the_complex_step_terms(d):
    # each pool row's term from the eigenbasis against leading_error's complex-step term
    # of the mixture of that row alone (the coin flip's, for row 0): within 1e-6, relative;
    # the worst of these reads 1.1e-7
    for seed, t in ((1, 1.0), (2, 4.0)):
        comps = prepare_components(random_gks(d, np.random.default_rng(seed)))
        terms = pair_terms(comps, t)
        assert len(terms) == pool_size(len(comps), d) > 1
        for row, term in enumerate(terms):
            expected = leading_error(comps, t, (row,))[1][-1]
            assert frobenius(term - expected) <= 1e-6 * frobenius(expected)


def test_chosen_mixtures_lead_below_the_first_four_rows():
    # rows 0-3 of component_orders are the pairs every mixture drew before its rows were
    # chosen: on random d = 3..6 the chosen rows' leading term reads 0.30-0.81 of theirs
    for d in range(3, 7):
        for seed in (1, 2, 3):
            comps = prepare_components(random_gks(d, np.random.default_rng(seed)))
            rows = mixture_rows(comps.record, 1.0)
            chosen, first_four = (diamond_bound(leading_error(comps, 1.0, r)[1][2])
                                  for r in (rows, (0, 1, 2, 3)))
            assert chosen < first_four


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_chosen_rows_do_not_depend_on_eps(eps):
    # the rows depend on the generator and t alone; each eps runs the same mixture
    g = random_gks(4, np.random.default_rng(2))
    plan = build_plan(prepare_components(g), eps, 1.0)
    assert plan.rows == mixture_rows(prepare_components(g).record, 1.0) == (5, 6, 16, 26)


@pytest.mark.parametrize("broken", ["raises", "nan"])
def test_a_failed_eigenbasis_falls_back_to_the_coin_flip(broken, monkeypatch):
    # the eigenbasis only chooses the mixture's rows: when eig raises or gives NaN, the
    # mixture is row 0's pair, the coin flip, nothing is raised, and the run certifies
    eig = np.linalg.eig

    def broken_eig(a):
        if broken == "raises":
            raise np.linalg.LinAlgError("eig did not converge")
        w, v = eig(a)
        return w, np.full_like(v, np.nan)

    monkeypatch.setattr(np.linalg, "eig", broken_eig)
    g, rho0, eps = random_gks(4, np.random.default_rng(2)), maximally_mixed(4), 1e-6
    state, plan, comps = simulate(g, rho0, 1.0, eps)
    assert comps.record.sums[4] is None and mixture_rows(comps.record, 1.0) == (0,)
    assert plan.rows in ((), (0,)) and len(leading_error(comps, 1.0)[1]) == 2
    assert_certified(g, comps, plan, 1.0, eps)
    assert trace_distance(state.rho, apply_exact(g, rho0, 1.0).rho) <= eps / 2


def test_the_pool_is_capped_by_work():
    # P m d^6 <= 32 * 36 * 6^6: the whole pool on random d = 6, 29 orders on the qubit
    # chain at d = 8, and one from d = 16 up, where the run has no eigenbasis and two terms
    assert pool_size(36, 6) == POOL == 32 and pool_size(7, 8) == 29
    assert pool_size(9, 16) == pool_size(11, 32) == 1
    assert (pool_size(2, 3), pool_size(3, 2), pool_size(4, 2)) == (1, 3, 12)  # m! / 2
    comps = prepare_components(n_qubit_generator(4))
    assert len(comps.record.sums[3]) == 1 and comps.record.sums[4] is None
    assert len(leading_error(comps, 1.0)[1]) == 2


def test_a_mixture_is_powered_in_offsets():
    # random d = 3, seed 2, at eps = 1e-11: the chosen mixture runs n = 102252 blocks.  A
    # block of the channels themselves (walked_block), powered as it is, adds up the
    # rounding of its entries to a unit of the identity's and misses the target by 4 %;
    # built and powered in offsets, the certificate reads what the leading term
    # predicts, to 1e-4, and certifies
    comps = prepare_components(random_gks(3, np.random.default_rng(2)))
    t, eps = 1.0, 1e-11
    plan = build_plan(comps, eps, t)
    assert plan.builds == 1 and plan.rows == (3, 14, 26) and plan.n_reps == 102252
    assert plan.certificate == pytest.approx(plan.predicted_certificate, rel=1e-4)
    block = trace_preserving(walked_block(plan, comps))
    plain = trace_preserving(np.linalg.matrix_power(block, plan.n_reps))
    assert diamond_bound(plain - leading_error(comps, t)[0]) > plan.target
    assert np.abs(plain - plan.total_map).max() <= 1e-10


@settings(max_examples=40)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.floats(0.25, 4.0),
       st.sampled_from([1e-3, 1e-6]))
def test_full_rank_generators_run_within_eps(d, seed, t, eps):
    # random full-rank A, so m = d^2 components and the whole pool at d <= 6: the state
    # is valid, and within eps / 2 of the oracle when the plan is certified
    rng = np.random.default_rng(seed)
    g = random_gks(d, rng)
    rho0 = QuantumState(d=d, rho=random_mixed_state(d, rng))
    state, plan, _ = simulate(g, rho0, t, eps)
    QuantumState(d=d, rho=state.rho)
    bound = 0.5 * eps if plan.certificate is not None else eps
    assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= bound


def test_two_components_have_no_mixed_orders_term():
    # at m = 2 the norm order's pair is the only one: the coin flip is the mixture
    comps = prepare_components(lambda_atom())
    _, terms = leading_error(comps, 1.0)
    assert len(component_orders(2)) == 1 and len(terms) == 2
    assert comps.record.sums[4] is None and mixture_rows(comps.record, 1.0) == (0,)


def test_coin_flip_block_is_the_mean_of_both_orders(monkeypatch):
    comps = prepare_components(random_gks(3, np.random.default_rng(1)))
    m, L1, n = len(comps), comps[0].norm, 7
    fixed = TrotterPlan(k=1, r=n / L1, n_reps=n, lam=L1 / n, m=m, L1=L1)
    rows = mixture_rows(comps.record, 1.0)
    mixtures = [dataclasses.replace(fixed, rows=r) for r in ((0,), rows)]
    assert [p.pairs for p in (fixed, *mixtures)] == [0, 1, len(rows)] and len(rows) > 1
    assert [p.formula for p in (fixed, *mixtures)] == [SUZUKI, MIXED_ORDERS, MIXED_ORDERS]
    # the walked fixed block over a permuted component list runs component o_j as j; each
    # of a mixture's pairs runs its order and the reverse
    expected = []
    for mixed in mixtures:
        orders = component_orders(m)[list(mixed.rows)]
        expected.append(np.mean([walked_block(fixed, [comps[j] for j in order])
                                 for order in (*orders, *orders[:, ::-1])], axis=0))
    calls = []
    channel = trotter.Component.channel
    monkeypatch.setattr(trotter.Component, "channel", lambda c, taus: (
        calls.append(len(taus)) or channel(c, taus)))
    for mixed, mean in zip(mixtures, expected):
        calls.clear()
        block = np.eye(len(mean)) + block_superoperator(mixed, comps)  # less I as built
        assert np.abs(block - mean).max() <= 1e-15
        assert calls == [1] * m  # one half-step channel per component
        assert mixed.actual_exponentials() == n * (2 * m - 1)
        assert fixed.n_exp == mixed.n_exp and fixed != mixed
    assert fixed.actual_exponentials() == n * (2 * m - 2) + 1


@pytest.mark.parametrize("k, rows", [(1, ()), (1, (0,)), (1, None), (2, ()), (3, ())],
                         ids=["1-suzuki", "1-coin-flip", "1-mixed-orders", "2-suzuki",
                              "3-suzuki"])
def test_block_superoperator_matches_the_walked_schedule(k, rows, monkeypatch):
    # the one block builder against the merged schedule's walk, and one channel call per
    # component per block, at the 2^(k-1) half steps of the recursion's leaves: the
    # benchmark's channel_reuse, segments per channel call, reads >= 1 on it.  rows None
    # is the mixture that mixture_rows chooses at t = 1, which walked_block reads off the
    # plan
    calls = []
    channel = trotter.Component.channel
    monkeypatch.setattr(trotter.Component, "channel", lambda c, taus: (
        calls.append(len(taus)) or channel(c, taus)))
    for g in (random_gks(3, np.random.default_rng(1)), random_gks(4, np.random.default_rng(2)),
              lambda_atom()):
        comps = prepare_components(g)
        m, L1 = len(comps), comps[0].norm
        plan = TrotterPlan(k=k, r=3 / L1, n_reps=3, lam=L1 / 3, m=m, L1=L1,
                           rows=mixture_rows(comps.record, 1.0) if rows is None else rows)
        calls.clear()
        block = block_superoperator(plan, comps)
        assert calls == [2 ** (k - 1)] * m
        expected = walked_block(plan, comps) - np.eye(len(block))
        assert frobenius(block - expected) <= 1e-13 * frobenius(expected)


def test_a_run_builds_no_schedule(monkeypatch):
    # a plan carries its block length, not its schedule: neither the search, the run nor
    # the cost report of a certified plan or of the paper's plan unrolls one, and the
    # schedule property unrolls the plan's own block
    comps = prepare_components(random_gks(6, np.random.default_rng(1)))
    rho0 = maximally_mixed(6)

    def no_schedule(*args):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(trotter, "block_schedule", no_schedule)
    plans = []
    for eps in (1e-3, 1e-6):
        plans.append(build_plan(comps, eps, 1.0))
        assert plans[-1].certificate is not None
        run_plan(plans[-1], comps, rho0)
    plans.append(paper_plan(comps.record.norms, 1e-3, 1.0))
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
    # each candidate's own leading term sizes a plan that certifies; the search runs the
    # cheapest, the one of fewer orders on a tie, which never needs more exponentials
    # than the fixed block at its n.  The candidates are the fixed block, the coin flip
    # and the chosen mixture, when it is not the coin flip (at m = 2 the pool is one pair)
    t, chosen = 1.0, set()
    cases = [random_gks(d, np.random.default_rng(s)) for d in range(2, 7) for s in (1, 2, 3)]
    for g in cases + [lambda_atom(), n_qubit_generator(2)]:
        comps = prepare_components(g)
        rho0 = maximally_mixed(g.d)
        exact = apply_exact(g, rho0, t)
        candidates = dict.fromkeys([(), (0,), mixture_rows(comps.record, t)])
        plans = [predicted_plan(comps, t, eps, rows) for rows in candidates]
        for plan in plans:
            assert_certified(g, comps, plan, t, eps)
            assert trace_distance(run_plan(plan, comps, rho0).rho, exact.rho) <= eps
        cheapest = min(plans, key=TrotterPlan.actual_exponentials)
        run = build_plan(comps, eps, t)
        assert (run.rows, run.n_reps, run.builds) == (cheapest.rows, cheapest.n_reps, 1)
        assert run.actual_exponentials() <= plans[0].actual_exponentials()
        chosen.add("fixed" if not run.rows else "coin flip" if run.rows == (0,) else "chosen")
    assert chosen == {"fixed", "coin flip", "chosen"}


# ---------------------------------------------------------------------------
# candidate splits of A
# ---------------------------------------------------------------------------

def candidate_records(g):
    """g's candidate splits, made by a run at t = 0, which builds no block."""
    simulate(g, maximally_mixed(g.d), 0.0, 1e-3)
    return g.splits.records


@settings(max_examples=60)
@given(st.integers(2, 6),
       st.sampled_from(["edge", "full-rank", "projector", "identity", "zero"]),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), st.integers(0, 2 ** 32 - 1))
def test_every_candidate_factors_a(d, kind, split, seed):
    # the edge, full-rank, degenerate, rank-deficient and zero A of the run tests above:
    # every candidate's pieces sum to A, each piece decomposes and verifies, a rank-one A
    # has the spectral split alone, and two candidates never share their pieces.  Every
    # split has as many pieces as A has eigenvalues above EIGEN_CUTOFF, so none can hold
    # the rest, tail; Cholesky's last Schur complement grows it, by up to 4.3 times in
    # 1500 draws, all at split = 1e-12, where an eigenvalue sits at the cutoff
    rng = np.random.default_rng(seed)
    basis = gell_mann_basis(d)
    n = basis.n
    if kind == "edge":
        A = sum(rng.uniform(0.1, 1.0) * np.outer(a, np.conj(a))
                for a in (edge_direction(k, basis, rng)
                          for k in rng.choice(DIRECTIONS, rng.integers(1, 4))))
    elif kind == "full-rank":
        A = random_gks(d, rng).A
    else:
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        rank = {"zero": 0, "projector": int(rng.integers(1, n)), "identity": n}[kind]
        P = np.eye(n) if kind == "identity" else q[:, :rank] @ np.conj(q[:, :rank]).T
        A = rng.uniform(0.1, 1.0) * (P + split * np.outer(q[:, -1], np.conj(q[:, -1])))
    g = GksGenerator(basis=basis, H=np.zeros((d, d)), A=A)
    records = candidate_records(g)
    assert records[0].split == trotter.SPECTRAL
    assert len({r.split for r in records}) == len(records)
    K = len(records[0].terms)
    if K < 2:
        assert len(records) == 1
    def pieces(record):
        return sum((t.lam * np.outer(t.a, np.conj(t.a)) for t in record.terms),
                   np.zeros((n, n)))

    tail = np.linalg.norm(A - pieces(records[0]))
    assert tail <= 1e-12 * max(np.linalg.norm(A), 1e-300)
    for record in records:
        assert np.linalg.norm(pieces(record) - A) <= 1e-12 * np.linalg.norm(A) + 8.0 * tail
        if record.terms:
            assert verify_plans(record.plans, record.terms, basis).max() <= 1e-8
    for i, record in enumerate(records):
        assert not any(trotter._same_pieces(record.terms, r.terms) for r in records[:i])


def test_a_rank_one_a_has_one_candidate():
    # the README's amplitude damping, and one rank-one piece at d = 3..6
    rng = np.random.default_rng(7)
    L = np.array([[0, 1], [0, 0]], dtype=complex)
    cases = [from_diagonal(DiagonalGenerator(d=2, H=np.eye(2), terms=((1.0, L),)),
                           gell_mann_basis(2))]
    for d in range(3, 7):
        a = edge_direction("generic", gell_mann_basis(d), rng)
        cases.append(GksGenerator(basis=gell_mann_basis(d), H=np.zeros((d, d)),
                                  A=np.outer(a, np.conj(a))))
    for g in cases:
        assert [r.split for r in candidate_records(g)] == [trotter.SPECTRAL]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_cholesky_split_ignores_the_eigenbasis(d):
    # A's first eigenvalue is rank-fold degenerate; a generator whose eigenbasis is turned
    # by a random unitary inside that eigenspace gets other spectral and DFT pieces, and
    # the same Cholesky split to the bit: it reads A's entries alone
    rng = np.random.default_rng(d)
    basis = gell_mann_basis(d)
    n, rank = basis.n, basis.n - 1
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    A = 0.7 * q[:, :rank] @ np.conj(q[:, :rank]).T
    g, turned = (GksGenerator(basis=basis, H=np.zeros((d, d)), A=A) for _ in range(2))
    w, v = turned.eigenpairs
    u = np.linalg.qr(rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank)))[0]
    v = v.copy()
    v[:, :rank] = v[:, :rank] @ u
    object.__setattr__(turned, "eigenpairs", (w, v))
    splits = [{r.split: r for r in candidate_records(h)} for h in (g, turned)]
    assert all(list(s) == [trotter.SPECTRAL, trotter.CHOLESKY, trotter.DFT] for s in splits)
    (ours, theirs) = (s[trotter.CHOLESKY] for s in splits)
    assert [t.lam for t in ours.terms] == [t.lam for t in theirs.terms]
    assert all(t.a.tobytes() == u.a.tobytes() for t, u in zip(ours.terms, theirs.terms))
    assert all(p.U.tobytes() == u.U.tobytes() and p.params == u.params
               for p, u in zip(ours.plans, theirs.plans))
    first, other = (s[trotter.SPECTRAL].terms[0].a for s in splits)
    assert abs(abs(np.vdot(first, other)) - 1.0) > 1e-6  # the spectral split did turn


def test_the_lambda_atoms_cholesky_split_is_its_spectral_split():
    assert [r.split for r in candidate_records(lambda_atom())] == [trotter.SPECTRAL, trotter.DFT]


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_a_run_takes_the_cheapest_split_at_each_t(eps):
    # over the lambda trajectory no run needs more exponentials than the spectral split's
    # plan; the DFT split wins at small t, 6 exponentials where the spectral split needs 9
    # at t = 1, eps = 1e-3, and loses at t = 32, where it would need 181 and 5667
    g, rho0 = lambda_atom(), maximally_mixed(3)
    spectral = prepare_components(g)
    for t in (0.25 * 2.0 ** k for k in range(8)):
        state, plan, comps = simulate(g, rho0, t, eps)
        own = build_plan(spectral, eps, t)
        assert plan.certificate is not None
        assert plan.actual_exponentials() <= own.actual_exponentials()
        assert comps.record.split == plan.split
        assert trace_distance(state.rho, apply_exact(g, rho0, t).rho) <= eps / 2
        if t == 1.0 and eps == 1e-3:
            assert (plan.split, plan.actual_exponentials(), own.actual_exponentials()) == (
                trotter.DFT, 6, 9)
        if t == 32.0:
            assert plan == own and plan.split == trotter.SPECTRAL


def test_the_choice_on_the_qubit_chains_and_the_quick_start():
    # the quick start's rank-one A has no other split, and the chains' local dissipators
    # commute pairwise, so that none is made for them either (n_qubit_generator(4), at
    # d = 16, is past the work budget as well): their plans are the spectral split's
    L = np.array([[0, 1], [0, 0]], dtype=complex)
    H = np.array([[0.5, 0.2], [0.2, -0.5]], dtype=complex)
    quick = from_diagonal(DiagonalGenerator(d=2, H=H, terms=((1.0, L),)), gell_mann_basis(2))
    for g in [quick] + [n_qubit_generator(n) for n in range(1, 5)]:
        for eps in (1e-3, 1e-6):
            _, plan, _ = simulate(g, maximally_mixed(g.d), 1.0, eps)
            assert plan == build_plan(prepare_components(g), eps, 1.0)
            assert plan.split == trotter.SPECTRAL
        assert [r.split for r in g.splits.records] == [trotter.SPECTRAL]
    _, plan, _ = simulate(quick, maximally_mixed(2), 1.0, 1e-3)
    assert (plan.k, plan.n_reps, plan.formula, plan.rows) == (1, 3, MIXED_ORDERS, (0,))
    _, plan, _ = simulate(n_qubit_generator(1), maximally_mixed(2), 1.0, 1e-3)
    assert plan.actual_exponentials() == 30


def test_only_pieces_that_do_not_commute_are_mixed():
    # the chain's spectral pieces commute pairwise and make no candidate; the same
    # pieces with one amplitude damping turned to act on both qubits do not commute, and
    # make the Cholesky and DFT candidates
    chain = n_qubit_generator(2)
    spectral = prepare_components(chain).record
    assert not trotter._may_mix(chain, spectral)
    lower, Z = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -1.0])
    both = (np.kron(lower, np.eye(2)) + np.kron(np.eye(2), lower)) / math.sqrt(2.0)
    terms = ((0.3, both), (0.2, np.kron(Z, np.eye(2))), (0.2, np.kron(np.eye(2), Z)),
             (0.3, np.kron(np.eye(2), lower)))
    mixed = from_diagonal(DiagonalGenerator(d=4, H=chain.H, terms=terms), gell_mann_basis(4))
    assert trotter._may_mix(mixed, prepare_components(mixed).record)
    assert [r.split for r in candidate_records(mixed)] == [
        trotter.SPECTRAL, trotter.CHOLESKY, trotter.DFT]


def test_a_near_miss_steps_by_near_step():
    # the lambda atom at t = 4, eps = 1e-11 misses its target at the predicted n = 60559 by
    # 2e-6 of it; a step floored at SEARCH_MARGIN ran 127175 exponentials, one floored at
    # NEAR_STEP runs 121241
    g = lambda_atom()
    _, plan, _ = simulate(g, maximally_mixed(3), 4.0, 1e-11)
    assert plan.certificate is not None and plan.builds == 2
    assert plan.actual_exponentials() <= 122331
