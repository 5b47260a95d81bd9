import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (AHAT1_R, AHAT1_I, DIRECTIONS, GOLDEN_ALPHA_I, SECONDVEC, THETA2,
                      dephasing_gks, edge_direction, from_vector, lambda_atom, plan_gks_matrix,
                      random_gks, random_psd, sigma_x_slot, to_vector)
from lindbladsim.decompose import (ConjugationPlan, DecomposeError, RankOneTerm,
                                   UniversalParams, canonical_phases, cholesky_split,
                                   decompose_generator, decompose_term, decompose_terms,
                                   diagonalizing_unitaries, extract_params,
                                   phase_eliminations, sigma_y_zero_slots,
                                   spectral_split, universal_operators, universal_support,
                                   universal_vectors, verify_plan, verify_plans)
from lindbladsim.lindblad import (DiagonalGenerator, GksGenerator, liouvillian_matrix,
                                  maximally_mixed)
from lindbladsim.numerics import dagger, expm, frobenius
from lindbladsim.sud import GellMannBasis, adjoint_matrix, gell_mann_basis
from lindbladsim.trotter import build_plan, prepare_components, simulate

B3 = gell_mann_basis(3)
A1_LITERAL = (AHAT1_R + 1j * AHAT1_I) / np.sqrt(2.0)


def random_unit_complex(n, rng):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# spectral_split
# ---------------------------------------------------------------------------

def test_spectral_split_lambda_atom_distinct_rates():
    g = lambda_atom(1.0, 0.25)
    terms = spectral_split(g)
    assert [t.lam for t in terms] == pytest.approx([1.0, 0.25], abs=1e-12)
    # second vector matches the reference entries up to a global phase
    a2 = terms[1].a
    overlap = abs(np.vdot(SECONDVEC, a2))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_spectral_split_rank_one():
    b = gell_mann_basis(2)
    e1 = np.zeros(3)
    e1[0] = 1.0
    g = GksGenerator(basis=b, H=np.zeros((2, 2)), A=np.outer(e1, e1))
    terms = spectral_split(g)
    assert len(terms) == 1
    assert terms[0].lam == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(terms[0].a, e1)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_split_reconstructs(rng):
    b = gell_mann_basis(3)
    A = random_psd(b.n, rng)
    g = GksGenerator(basis=b, H=np.zeros((3, 3)), A=A)
    total = sum(t.lam * np.outer(t.a, np.conj(t.a)) for t in spectral_split(g))
    assert np.max(np.abs(total - A)) < 1e-10


# ---------------------------------------------------------------------------
# canonical_phases
# ---------------------------------------------------------------------------

def test_canonical_phase_first_term_golden():
    (psi,), (theta,), (aR,), (aI,) = canonical_phases(A1_LITERAL[None])
    assert psi == pytest.approx(0.0, abs=1e-12)
    assert theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert np.allclose(aR, AHAT1_R, atol=1e-12)
    assert np.allclose(aI, AHAT1_I, atol=1e-12)


def test_canonical_phase_second_term_golden():
    (psi,), (theta,), (aR,), (aI,) = canonical_phases(SECONDVEC[None])
    assert psi == pytest.approx(math.pi / 2, abs=1e-12)
    assert theta == pytest.approx(THETA2, abs=1e-12)
    e5 = np.zeros(8)
    e5[4] = -1.0
    e8 = np.zeros(8)
    e8[7] = 1.0
    assert np.allclose(aR, e5, atol=1e-12)
    assert np.allclose(aI, e8, atol=1e-12)


def test_canonical_phase_real_vector(rng):
    x = rng.normal(size=8)
    x /= np.linalg.norm(x)
    (psi,), (theta,), (aR,), (aI,) = canonical_phases(x.astype(complex)[None])
    assert psi == 0.0
    assert theta == 0.0
    assert np.allclose(aR, x, atol=1e-14)
    assert abs(aR @ aI) < 1e-12


def test_canonical_phase_invariants(rng):
    a = np.array([random_unit_complex(8, rng) for _ in range(30)])
    for row, psi, theta, aR, aI in zip(a, *canonical_phases(a)):
        assert 0.0 <= theta <= math.pi / 4 + 1e-12
        assert abs(np.linalg.norm(aR) - 1.0) < 1e-12
        assert abs(np.linalg.norm(aI) - 1.0) < 1e-12
        assert abs(aR @ aI) < 1e-10
        rebuilt = math.cos(theta) * aR + 1j * math.sin(theta) * aI
        assert np.max(np.abs(np.exp(1j * psi) * row - rebuilt)) < 1e-10


def test_canonical_phase_theta_rotation_invariant(rng):
    for _ in range(10):
        a = random_unit_complex(8, rng)
        r = rng.normal(size=8)
        u = expm(1j * np.einsum("g,gij->ij", r, B3.matrices))
        g = adjoint_matrix(u, B3)
        theta = canonical_phases(np.array([g @ a, a]))[1]
        assert theta[0] == pytest.approx(theta[1], abs=1e-9)


def test_canonical_phase_rejects_non_unit():
    with pytest.raises(DecomposeError):
        canonical_phases(np.ones((1, 8), dtype=complex))


# ---------------------------------------------------------------------------
# diagonalizing_unitaries
# ---------------------------------------------------------------------------

def test_diagonalizing_unitary_first_term_golden():
    (aR,) = canonical_phases(A1_LITERAL[None])[2]
    (u1,), _ = diagonalizing_unitaries(aR[None], B3)
    diag = u1 @ from_vector(aR, B3) @ dagger(u1)
    target = np.diag([1j / np.sqrt(2), -1j / np.sqrt(2), 0.0])
    assert np.max(np.abs(diag - target)) < 1e-10
    assert np.linalg.det(u1) == pytest.approx(1.0, abs=1e-10)


def test_diagonalizing_unitary_second_term_golden():
    (aR,) = canonical_phases(SECONDVEC[None])[2]
    (u1,), _ = diagonalizing_unitaries(aR[None], B3)
    diag = u1 @ from_vector(aR, B3) @ dagger(u1)
    target = np.diag([1j / np.sqrt(2), -1j / np.sqrt(2), 0.0])
    assert np.max(np.abs(diag - target)) < 1e-10


def test_diagonalizing_unitary_already_diagonal():
    b = gell_mann_basis(3)
    aR = np.zeros(8)
    aR[0] = 0.6
    aR[1] = 0.8
    (u1,), _ = diagonalizing_unitaries(aR[None], b)
    diag = u1 @ from_vector(aR, b) @ dagger(u1)
    off = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off)) < 1e-12
    # a permutation (times phases) of the input diagonal
    assert sorted(np.round(np.diag(diag).imag, 12)) == sorted(
        np.round(np.diag(from_vector(aR, b)).imag, 12))


def test_diagonalizing_unitary_random_d4(rng):
    b = gell_mann_basis(4)
    aRs = rng.normal(size=(10, 15))
    aRs /= np.linalg.norm(aRs, axis=1, keepdims=True)
    for aR, u1 in zip(aRs, diagonalizing_unitaries(aRs, b)[0]):
        diag = u1 @ from_vector(aR, b) @ dagger(u1)
        off = diag - np.diag(np.diag(diag))
        assert np.max(np.abs(off)) < 1e-10
        assert np.linalg.det(u1) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60)
@given(st.integers(2, 6), st.integers(1, 3), st.booleans(),
       st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]), st.integers(0, 2 ** 32 - 1))
def test_diagonalizing_unitaries_on_degenerate_spectra(d, levels, zero_level, split, seed):
    """M with a degenerate spectrum: +-pairs drawn from a few levels, one of them 0 when
    zero_level, so that values, +- pairs and zeros repeat, each then split by a traceless
    perturbation of relative size split.  U1 is special unitary and takes i M to the
    diagonal of its eigenvalues, nonzero ones descending and the zeros last."""
    b = gell_mann_basis(d)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=levels)
    if zero_level:
        values[0] = 0.0
    half = values[rng.integers(0, levels, size=d // 2)]
    x = np.concatenate([half, -half, np.zeros(d % 2)])
    noise = rng.normal(size=d)
    x = x + split * (noise - noise.mean())
    assume(np.abs(x).max() > 1e-3)
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    aR = to_vector(1j * (q * x) @ dagger(q), b).real
    aR /= np.linalg.norm(aR)
    (u1,), (diag,) = diagonalizing_unitaries(aR[None], b)
    assert np.abs(u1 @ dagger(u1) - np.eye(d)).max() < 1e-12
    assert np.linalg.det(u1) == pytest.approx(1.0, abs=1e-10)
    assert np.abs(diag - np.diag(np.diag(diag))).max() < 1e-10
    w = np.diag(diag).imag
    M = -1j * from_vector(aR, b)
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(M), rtol=0.0, atol=1e-10)
    nonzero = np.abs(w) > 1e-10 * np.abs(w).max()
    count = int(nonzero.sum())
    assert nonzero[:count].all() and np.all(np.diff(w[:count]) <= 1e-12)


# ---------------------------------------------------------------------------
# phase_eliminations
# ---------------------------------------------------------------------------

def _pair_coefficients(m, basis):
    """sigma_x / sigma_y coefficients of an anti-Hermitian matrix."""
    v = np.asarray(to_vector(m, basis)).real
    d = basis.d
    out = {}
    for j in range(1, d):
        for k in range(j + 1, d + 1):
            out[(j, k)] = (v[sigma_x_slot(basis, j, k)], v[basis.index_y(j, k)])
    return out


def test_phase_elimination_trivial_identity():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1], m[1, 0] = 0.4, -0.4  # real antisymmetric: pair phases +-pi/2 on (1,2) only
    u2 = np.diag(phase_eliminations(m[None])[0])
    assert np.max(np.abs(u2 - np.eye(3))) < 1e-14


def test_phase_elimination_lambda_atom_identity():
    _, _, aR, (aI,) = canonical_phases(A1_LITERAL[None])
    (u1,), _ = diagonalizing_unitaries(aR, B3)
    AI_t = u1 @ from_vector(aI, B3) @ dagger(u1)
    u2 = np.diag(phase_eliminations(AI_t[None])[0])
    assert np.max(np.abs(u2 - np.eye(3))) < 1e-12


def test_phase_elimination_kills_last_column_sigma_y(rng):
    b = gell_mann_basis(3)
    for _ in range(10):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = x - dagger(x)
        x -= np.trace(x) / 3 * np.eye(3)
        u2 = np.diag(phase_eliminations(x[None])[0])
        coeffs = _pair_coefficients(u2 @ x @ dagger(u2), b)
        for j in (1, 2):
            sx, sy = coeffs[(j, 3)]
            assert abs(sy) < 1e-9
            assert sx > -1e-12
        assert np.linalg.det(u2) == pytest.approx(1.0, abs=1e-12)


def test_phase_elimination_preserves_diagonal_parts(rng):
    b = gell_mann_basis(4)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = x - dagger(x)
    x -= np.trace(x) / 4 * np.eye(4)
    u2 = np.diag(phase_eliminations(x[None])[0])
    for l in range(3):
        dmat = 1j * b.matrices[l]
        assert np.max(np.abs(u2 @ dmat @ dagger(u2) - dmat)) < 1e-12
    before = np.diag(x)
    after = np.diag(u2 @ x @ dagger(u2))
    assert np.max(np.abs(before - after)) < 1e-12


# ---------------------------------------------------------------------------
# extract_params / universal_vectors
# ---------------------------------------------------------------------------

def test_d2_params_are_theta_only():
    b = gell_mann_basis(2)
    aR = np.array([1.0, 0.0, 0.0])
    aI = np.array([0.0, 1.0, 0.0])
    (p,) = extract_params(aR[None], aI[None], [0.3], b)
    assert p.alphaR == () and p.alphaI == ()
    (rR,), (rI,), _ = universal_vectors([p], b)
    assert np.array_equal(rR, aR) and np.array_equal(rI, aI)


def test_lambda_atom_alpha_golden():
    plan = decompose_term(RankOneTerm(lam=1.0, a=A1_LITERAL), B3)
    assert np.allclose(plan.params.alphaR, [0.0], atol=1e-10)
    assert np.allclose(plan.params.alphaI, GOLDEN_ALPHA_I, atol=1e-10)
    plan2 = decompose_term(RankOneTerm(lam=1.0, a=SECONDVEC), B3)
    assert np.allclose(plan2.params.alphaI, GOLDEN_ALPHA_I, atol=1e-10)
    assert plan2.params.theta == pytest.approx(THETA2, abs=1e-12)


def _random_canonical_pair(basis, rng):
    d, n = basis.d, basis.n
    support = universal_support(basis)
    aR = np.zeros(n)
    aR[: d - 1] = rng.normal(size=d - 1)
    aR /= np.linalg.norm(aR)
    aI = np.zeros(n)
    aI[support] = rng.normal(size=len(support))
    aI -= (aR @ aI) * aR  # aR lives inside the support, so this stays supported
    aI /= np.linalg.norm(aI)
    return aR, aI


@pytest.mark.parametrize("d", [3, 4])
def test_extract_params_roundtrip(d, rng):
    b = gell_mann_basis(d)
    for _ in range(20):
        aR, aI = _random_canonical_pair(b, rng)
        theta = rng.uniform(0.0, math.pi / 4)
        (p,) = extract_params(aR[None], aI[None], [theta], b)
        (rR,), (rI,), _ = universal_vectors([p], b)
        assert np.max(np.abs(rR - aR)) < 1e-10
        assert np.max(np.abs(rI - aI)) < 1e-10
        assert all(0.0 <= a <= math.pi + 1e-12 for a in p.alphaR[:-1])
        assert all(0.0 <= a < 2 * math.pi for a in p.alphaR[-1:])
        assert all(0.0 <= a <= math.pi + 1e-12 for a in p.alphaI[:-1])
        assert all(0.0 <= a < 2 * math.pi for a in p.alphaI[-1:])


def test_extract_params_orthogonality_constraint(rng):
    # cos(alphaI_1) = -(sum_{j>=2} aR_j aI_j) / aR_1 whenever aR_1 != 0
    b = gell_mann_basis(4)
    for _ in range(10):
        aR, aI = _random_canonical_pair(b, rng)
        if abs(aR[0]) < 1e-6:
            continue
        (p,) = extract_params(aR[None], aI[None], [0.2], b)
        lhs = math.cos(p.alphaI[0])
        rhs = -float(aR[1:3] @ aI[1:3]) / float(aR[0])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_near_identity_cholesky_pieces_decompose():
    # A = lam (I + 1e-6 v v†) at d = 5, the near-identity A of the trotter tests'
    # degenerate-dissipator strategy, seed 0: its third pivoted Cholesky piece has
    # aR_1 = 4e-8 and aR . aI = 0, and a check of that product divided by aR_1 refused
    # it (152 of 7200 such pieces over seeds 0-299); every piece decomposes exactly
    rng = np.random.default_rng(0)
    b = gell_mann_basis(5)
    q = np.linalg.qr(rng.normal(size=(b.n, b.n)) + 1j * rng.normal(size=(b.n, b.n)))[0]
    A = rng.uniform(0.1, 1.0) * (np.eye(b.n) + 1e-6 * np.outer(q[:, -1], np.conj(q[:, -1])))
    terms = cholesky_split(GksGenerator(basis=b, H=np.zeros((5, 5)), A=A), b.n)
    assert len(terms) == b.n
    assert verify_plans(decompose_terms(terms, b), terms, b).max() <= 1e-12


def test_extract_params_rejects_pattern_violation():
    b = gell_mann_basis(3)
    aR = np.zeros(8)
    aR[0] = 1.0
    bad = np.zeros(8)
    bad[7] = 1.0  # sigma_y^(2,3) slot is excluded from the support
    with pytest.raises(DecomposeError):
        extract_params(aR[None], bad[None], [0.3], b)


def test_extract_params_rejects_a_malformed_stack():
    b = gell_mann_basis(3)
    aR, aI = np.eye(9)[:2, :8]
    for args in ((aR[None], aI[None, :7], [0.3]), (np.eye(9)[None, 0], np.eye(9)[None, 2], [0.3]),
                 (aR[None], aI[None], [0.3, 0.3]), (aR[None], np.array([aI, aI]), [0.3])):
        with pytest.raises(DecomposeError, match="one stack of length-n rows"):
            extract_params(*args, b)


def test_universal_support_shape():
    # for d <= 3 the support is literally the first d^2 - d slots
    for d in (2, 3):
        b = gell_mann_basis(d)
        assert universal_support(b) == list(range(d * d - d))
    b4 = gell_mann_basis(4)
    assert len(universal_support(b4)) == 12
    assert sigma_y_zero_slots(b4) == [b4.index_y(1, 4), b4.index_y(2, 4), b4.index_y(3, 4)]


# ---------------------------------------------------------------------------
# decompose_generator / verify_plan
# ---------------------------------------------------------------------------

def test_decompose_hamiltonian_only(rng):
    b = gell_mann_basis(3)
    H = np.diag([1.0, -0.5, -0.5]).astype(complex)
    g = GksGenerator(basis=b, H=H, A=np.zeros((8, 8)))
    assert decompose_generator(g) == []


def test_decompose_lambda_atom_two_plans():
    g = lambda_atom(1.0, 0.25)
    plans = decompose_generator(g)
    assert [p.lam for p in plans] == pytest.approx([1.0, 0.25], abs=1e-12)
    thetas = sorted(p.params.theta for p in plans)
    assert thetas == pytest.approx(sorted([math.pi / 4, THETA2]), abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_decompose_reassembly(d, rng):
    generators = [random_gks(d, rng) for _ in range(5)]
    generators.append(dephasing_gks(d, rng))  # Hermitian Lindblad operators
    for g in generators:
        plans = decompose_generator(g)
        A_re = sum(p.lam * plan_gks_matrix(p, g.basis) for p in plans)
        S_in = liouvillian_matrix(g)
        S_re = liouvillian_matrix(GksGenerator(basis=g.basis, H=g.H, A=A_re))
        assert np.max(np.abs(S_in - S_re)) < 1e-8
        for term, plan in zip(spectral_split(g), plans):
            assert verify_plan(plan, term, g.basis) < 1e-8
    # plans of the last generator, the dephasing one, take decompose_term's theta = 0 branch
    assert plans and all(p.params.theta == 0.0 for p in plans)


def test_verify_plan_negative_control(rng):
    g = lambda_atom(1.0, 0.25)
    terms = spectral_split(g)
    plans = [decompose_term(t, B3) for t in terms]
    broken = ConjugationPlan(lam=plans[0].lam, U=np.eye(3, dtype=complex),
                             params=plans[0].params)
    assert verify_plan(broken, terms[0], B3) > 1e-3


def test_verify_plan_d2_trivial():
    b = gell_mann_basis(2)
    theta = 0.3
    a = math.cos(theta) * np.array([1, 0, 0]) + 1j * math.sin(theta) * np.array([0, 1, 0])
    term = RankOneTerm(lam=1.0, a=a)
    plan = ConjugationPlan(lam=1.0, U=np.eye(2, dtype=complex),
                           params=UniversalParams(d=2, theta=theta, alphaR=(), alphaI=()))
    assert verify_plan(plan, term, b) < 1e-12


def test_verify_plans_refuses_lists_of_different_lengths():
    g = lambda_atom(1.0, 0.25)
    with pytest.raises(DecomposeError, match="2 plans for 1 terms"):
        verify_plans(decompose_generator(g), spectral_split(g)[:1], g.basis)


def test_a_plans_operator_is_that_of_its_params():
    """Each plan's operator, the row of it that runs use in its split's record and a
    copy's operator are bit for bit universal_operators of the plan's own params, in
    every candidate split."""
    g = random_gks(4, np.random.default_rng(1))
    simulate(g, maximally_mixed(4), 1.0, 1e-3)
    assert len(g.splits.records) == 3
    for record in g.splits.records:
        for p, kept in zip(record.plans, record.operators, strict=True):
            (L,) = universal_operators([p.params], g.basis)
            copy = dataclasses.replace(p, lam=2.0 * p.lam)
            assert (p.operator.tobytes() == kept.tobytes() == copy.operator.tobytes()
                    == L.tobytes())


def test_objects_that_hold_arrays_compare_by_identity():
    # == on two equal generators or two copies of a plan compared their arrays and raised;
    # an object that holds an array now equals itself alone, and hashes
    g, twin = (random_gks(2, np.random.default_rng(1)) for _ in range(2))
    term = spectral_split(g)[0]
    plan = decompose_generator(g)[0]
    basis = gell_mann_basis(2)
    pairs = [(g, twin), (term, dataclasses.replace(term)), (plan, dataclasses.replace(plan)),
             (basis, GellMannBasis(2, basis.matrices)),
             (DiagonalGenerator(2, g.H), DiagonalGenerator(2, g.H)),
             (maximally_mixed(2), maximally_mixed(2)),
             tuple(prepare_components(g)[0] for _ in range(2))]
    for obj, copy in pairs:
        assert obj == obj and obj != copy and not obj == copy
        assert len({obj, copy}) == 2
    # the plans and parameters that hold no array keep value equality
    assert plan.params == dataclasses.replace(plan.params)
    trotter_plan = build_plan(prepare_components(g), 1e-3, 1.0)
    assert trotter_plan == dataclasses.replace(trotter_plan, total_map=None)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
def test_weight_must_be_finite_and_non_negative(lam):
    plan = decompose_term(RankOneTerm(lam=1.0, a=A1_LITERAL), B3)
    with pytest.raises(DecomposeError, match="weight must be finite and non-negative"):
        RankOneTerm(lam=lam, a=A1_LITERAL)
    with pytest.raises(DecomposeError, match="weight must be finite and non-negative"):
        ConjugationPlan(lam=lam, U=plan.U, params=plan.params)
    # a zero weight stays allowed
    RankOneTerm(lam=0.0, a=A1_LITERAL)
    ConjugationPlan(lam=0.0, U=plan.U, params=plan.params)


@pytest.mark.parametrize("d", range(2, 7))
@settings(max_examples=60)
@given(st.sampled_from(DIRECTIONS), st.integers(0, 2 ** 32 - 1))
def test_decompose_term_edge_directions(d, kind, seed):
    """Every edge direction decomposes onto the zero pattern, and verify_plan
    agrees with the adjoint-matrix oracle G A(params) G^T."""
    b = gell_mann_basis(d)
    term = RankOneTerm(lam=1.0, a=edge_direction(kind, b, np.random.default_rng(seed)))
    plan = decompose_term(term, b)
    residual = verify_plan(plan, term, b)
    assert residual <= 1e-8
    oracle = frobenius(np.outer(term.a, np.conj(term.a)) - plan_gks_matrix(plan, b))
    assert abs(residual - oracle) <= 1e-14
    (rR,), (rI,), _ = universal_vectors([plan.params], b)
    assert not rR[d - 1:].any() and not rI[sigma_y_zero_slots(b)].any()


@pytest.mark.parametrize("d", range(2, 7))
def test_stack_equals_its_rows(d):
    """One stack mixing generic rows with rows on every rare branch (theta = 0,
    where Im a' vanishes and the imaginary part is replaced; theta = pi/4; M_R
    with zero and repeated eigenvalues) gives each row the plan of its own
    one-row call, and every plan verifies."""
    b = gell_mann_basis(d)
    rng = np.random.default_rng(100 + d)
    kinds = DIRECTIONS + ("generic", "real", "balanced", "basis", "degenerate-diagonal")
    terms = [RankOneTerm(lam=1.0, a=edge_direction(kind, b, rng)) for kind in kinds]
    plans = decompose_terms(terms, b)
    for term, plan in zip(terms, plans):
        row = decompose_term(term, b)
        assert row.lam == plan.lam
        assert np.max(np.abs(row.U - plan.U)) <= 1e-14
        rp, sp = row.params, plan.params
        assert abs(rp.theta - sp.theta) <= 1e-14
        assert np.max(np.abs(np.array(rp.alphaR + rp.alphaI) - (sp.alphaR + sp.alphaI)),
                      initial=0.0) <= 1e-14
    assert np.max(verify_plans(plans, terms, b)) <= 1e-12
    # the stack does take every rare branch
    _, thetas, aRs, _ = canonical_phases(np.array([t.a for t in terms]))
    assert any(math.sin(theta) < 1e-13 for theta in thetas)
    assert any(theta == pytest.approx(math.pi / 4, abs=1e-12) for theta in thetas)
    spectra = [np.linalg.eigvalsh(np.einsum("g,gij->ij", aR, b.matrices)) for aR in aRs]
    if d >= 3:
        assert any(np.min(np.abs(w)) < 1e-12 for w in spectra)
        assert any(np.min(np.diff(w)) < 1e-12 and np.min(np.abs(w)) > 1e-6 for w in spectra)


def test_plans_deterministic(rng):
    # two generators built from equal data, so that each one decomposes on its own
    g = random_gks(3, rng)
    plans1 = decompose_generator(GksGenerator(basis=g.basis, H=g.H, A=g.A))
    plans2 = decompose_generator(GksGenerator(basis=gell_mann_basis(3), H=g.H.copy(),
                                              A=g.A.copy()))
    assert len(plans1) == len(plans2) > 0 and plans1[0] is not plans2[0]
    for p1, p2 in zip(plans1, plans2):
        assert np.array_equal(p1.U, p2.U)
        assert p1.params == p2.params
        assert p1.lam == p2.lam


def test_zero_pattern_exact(rng):
    for d in (2, 3, 4):
        b = gell_mann_basis(d)
        support = set(universal_support(b))
        for _ in range(5):
            term = RankOneTerm(lam=1.0, a=random_unit_complex(b.n, rng))
            plan = decompose_term(term, b)
            (rR,), (rI,), _ = universal_vectors([plan.params], b)
            for i in range(b.n):
                if i >= d - 1:
                    assert rR[i] == 0.0
                if i not in support:
                    assert rI[i] == 0.0
            assert abs(np.linalg.norm(rR) - 1.0) < 1e-12
            assert abs(np.linalg.norm(rI) - 1.0) < 1e-12
            assert abs(rR @ rI) < 1e-10


def test_d2_always_fixed_vectors(rng):
    b = gell_mann_basis(2)
    for _ in range(20):
        term = RankOneTerm(lam=1.0, a=random_unit_complex(3, rng))
        plan = decompose_term(term, b)
        (rR,), (rI,), _ = universal_vectors([plan.params], b)
        assert np.array_equal(rR, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(rI, np.array([0.0, 1.0, 0.0]))
        assert verify_plan(plan, term, b) < 1e-8


# ---------------------------------------------------------------------------
# a generator is immutable and decomposes once
# ---------------------------------------------------------------------------

def test_caller_arrays_do_not_reach_the_generator(rng):
    b = gell_mann_basis(3)
    H, A = np.array(random_gks(3, rng).H), random_psd(b.n, rng)
    H0, A0 = H.copy(), A.copy()
    before = GksGenerator(basis=b, H=H, A=A)
    plans = decompose_generator(before)
    after = GksGenerator(basis=b, H=H, A=A)
    H += 1.0
    A *= 2.0
    for g in (before, after):
        assert np.array_equal(g.H, H0) and np.array_equal(g.A, A0)
    fresh = decompose_generator(GksGenerator(basis=b, H=H0, A=A0))
    for p, q, r in zip(plans, decompose_generator(after), fresh, strict=True):
        assert np.array_equal(p.U, r.U) and np.array_equal(q.U, r.U)
        assert p.params == q.params == r.params and p.lam == q.lam == r.lam


@pytest.mark.parametrize("target", ["H", "A", "basis", "U", "a"])
def test_generator_and_its_decomposition_are_read_only(target):
    g = lambda_atom(1.0, 0.25)
    arrays = {"H": lambda: g.H, "A": lambda: g.A, "basis": lambda: g.basis.matrices,
              "U": lambda: decompose_generator(g)[0].U, "a": lambda: spectral_split(g)[0].a}
    with pytest.raises(ValueError, match="read-only"):
        arrays[target]()[0] = 1.0


def test_returned_lists_are_the_callers_own(rng):
    g = random_gks(3, rng)
    terms, plans = spectral_split(g), decompose_generator(g)
    terms.clear()
    plans.append(plans[0])
    assert len(spectral_split(g)) == len(plans) - 1 == len(decompose_generator(g))
