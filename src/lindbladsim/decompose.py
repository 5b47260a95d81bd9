"""Decomposition of a GKS matrix onto the universal rank-one family.

Any positive semidefinite A splits spectrally into rank-one pieces
lambda * a a† with unit vectors a in C^(d^2-1).  Each piece is then brought
to a canonical form in three steps:

1.  Phase canonicalization.  Since a appears only in outer products, a is
    defined up to a global phase.  With k1 = |Re a|^2 - |Im a|^2 and
    k2 = 2 Re a . Im a, the rotation a -> e^(i psi) a acts on (k1, k2) as a
    2-D rotation by 2 psi; choosing 2 psi = -atan2(k2, k1) gives k2' = 0 and
    k1' >= 0, i.e. e^(i psi) a = cos(theta) aR + i sin(theta) aI with
    orthonormal real vectors aR, aI and theta in [0, pi/4].

2.  Diagonalization.  A special unitary U1 conjugates the su(d) element
    corresponding to aR into the diagonal (Cartan) subalgebra.  Eigenvalues
    are ordered by signed value, descending, with numerically-zero ones
    moved last, so the outcome is deterministic.

3.  Phase elimination.  A diagonal special unitary U2 = exp(i sum h_l D_l)
    removes the sigma_y components of the conjugated aI on the d-1 pairs
    (j, d).  Pair phases transform as phi_(j,k) -> phi_(j,k) + g_j - g_k
    under U2 = diag(e^(i g_j)), so any cycle-free set of d-1 pairs can be
    zeroed; the pairs (j, d) form such a set for every d and, for d <= 3,
    coincide with the final d-1 lexicographic sigma_y slots, matching the
    plain component ordering.

The result is a pair of orthonormal real vectors supported on a fixed set
of d^2 - d coordinates (all but the sigma_y^(j,d) slots), parametrized by
hyperspherical angles.  The original rank-one piece is recovered as
a a† = b b† with b = G v, G the adjoint matrix of U = U1† U2† (see verify_plan).

Any other factorization A = W W† gives rank-one pieces w w† that the same steps
carry onto the family: cholesky_split and dft_split give two that runs try beside
the spectral split (trotter.Record).

Each step is one function over a stack of rows, one row per piece; decompose_terms
and verify_plans chain the steps over all pieces at once, and decompose_term and
verify_plan are their one-row case.  The functions keep nothing: a run's
decomposition is kept with what else the run derives from its generator
(trotter.Record).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import dagger, frozen_copy, read_only_state
from .lindblad import GksGenerator, gks_spectrum
from .sud import GellMannBasis


class DecomposeError(ValueError):
    pass


TWO_PI = 2.0 * math.pi


def _require_weight(lam):
    if not 0.0 <= lam < math.inf:  # written so that NaN fails too
        raise DecomposeError(f"weight must be finite and non-negative, got {lam}")


@dataclass(frozen=True, eq=False)
class RankOneTerm:
    """One spectral component lambda * a a† of a GKS matrix; a is a read-only copy."""

    lam: float
    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_weight(self.lam)
        a = frozen_copy(self.a)
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise DecomposeError("rank-one direction is not a unit vector")
        object.__setattr__(self, "a", a)

    __setstate__ = read_only_state


@dataclass(frozen=True)
class UniversalParams:
    """Hyperspherical parametrization of one universal-family member."""

    d: int
    theta: float
    alphaR: tuple  # d-2 angles
    alphaI: tuple  # d^2-d-1 angles; empty for d = 2 (fixed vectors)


@dataclass(frozen=True, eq=False)
class ConjugationPlan:
    """Unitary plus universal parameters realizing one rank-one piece; U is a
    read-only copy."""

    lam: float
    U: np.ndarray = field(repr=False)
    params: UniversalParams

    def __post_init__(self):
        _require_weight(self.lam)
        object.__setattr__(self, "U", frozen_copy(self.U))

    __setstate__ = read_only_state


def spectral_split(g: GksGenerator) -> list[RankOneTerm]:
    """Spectral decomposition A = sum_k lambda_k a_k a_k†, descending."""
    return [RankOneTerm(lam=lam, a=a) for lam, a in gks_spectrum(g)]


def _pieces(w: np.ndarray) -> list[RankOneTerm]:
    """The rank-one terms |w|^2 (w / |w|)(w / |w|)† of the rows w of a factor."""
    lam = np.vecdot(w, w).real
    return [RankOneTerm(lam=float(x), a=v) for x, v in zip(lam, w / np.sqrt(lam)[:, None])]


def cholesky_split(g: GksGenerator, rank: int) -> list[RankOneTerm]:
    """A = W W† from at most rank steps of Cholesky with diagonal pivoting, one term per
    column w of W.  Each step takes the largest remaining diagonal entry R_pp, the first of
    equal ones, as w = R e_p / sqrt(R_pp), and leaves R - w w†; it stops early at a pivot
    that is not positive.  It reads A's entries alone, so no choice of eigenbasis inside a
    degenerate eigenspace of A moves it."""
    R, W = np.array(g.A, dtype=complex), []
    for _ in range(rank):
        diagonal = R.diagonal().real
        p = int(np.argmax(diagonal))
        if not diagonal[p] > 0.0:
            break
        W.append(R[:, p] / math.sqrt(diagonal[p]))
        R -= np.outer(W[-1], np.conj(W[-1]))
    return _pieces(np.array(W).reshape(-1, g.basis.n))


def dft_split(terms) -> list[RankOneTerm]:
    """The spectral factor rotated by the K-point DFT, K = len(terms): with v_k =
    sqrt(lambda_k) a_k, the terms of w_j = sum_k Q_kj v_k, Q_kj = e^(2 pi i jk / K) / sqrt(K).
    Q is unitary, so sum_j w_j w_j† = sum_k v_k v_k†, and every |Q_kj|^2 is 1 / K, so every
    term has the weight sum_k lambda_k / K."""
    K = len(terms)
    k = np.arange(K)
    Q = np.exp(2j * math.pi * (np.outer(k, k) % K) / K) / math.sqrt(K)
    return _pieces(Q.T @ np.array([math.sqrt(t.lam) * t.a for t in terms]))


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row.  np.vecdot sums in the order of a vector dot
    product, and rows built from unit vectors cannot overflow it."""
    return np.sqrt(np.vecdot(x, x).real)


def _refuse(message: str, *bad):
    """One check over the stack: raise when any row of any mask is bad."""
    if any(np.any(b) for b in bad):
        raise DecomposeError(message)


def canonical_phases(a: np.ndarray):
    """Remove the global-phase freedom of each rank-one direction, a row of a (m, n).

    Returns the stacked psi in [0, pi) such that e^(i psi) a has orthogonal
    real and imaginary parts with the real part at least as long, theta in
    [0, pi/4], and the normalized parts aR, aI.  Degenerate rows: when
    k1 = k2 = 0 the row is already balanced and psi = 0; when its imaginary
    part vanishes entirely, aI is completed deterministically with the
    first coordinate direction not parallel to aR.
    """
    _refuse("input is not a unit vector", np.abs(_norms(a) - 1.0) > 1e-12)
    k1 = np.vecdot(a.real, a.real) - np.vecdot(a.imag, a.imag)
    k2 = 2.0 * np.vecdot(a.real, a.imag)
    k2[np.abs(k2) < 1e-15] = 0.0
    # atan2(0, 0) = 0, so a balanced vector (k1 = k2 = 0) keeps psi = 0
    psi = np.mod(-np.arctan2(k2, k1), TWO_PI) / 2.0
    ap = np.exp(1j * psi)[:, None] * a
    nR, nI = _norms(ap.real), _norms(ap.imag)
    # atan2 keeps full precision for nearly-real vectors, where
    # acos(nR) ~ acos(1 - eps) would lose half the significant digits
    theta = np.minimum(np.arctan2(nI, nR), math.pi / 4.0)
    uR = ap.real / nR[:, None]
    real = nI <= 1e-13
    uI = ap.imag / np.where(real, 1.0, nI)[:, None]
    for i in np.flatnonzero(real):
        uI[i] = _completion_orthogonal_to(uR[i])
    # exact re-orthogonalization; the correction is O(eps)/nI and is
    # scaled back by sin(theta) wherever the split is recombined
    uI -= np.vecdot(uR, uI)[:, None] * uR
    return psi, theta, uR, uI / _norms(uI)[:, None]


def _completion_orthogonal_to(u: np.ndarray) -> np.ndarray:
    """First coordinate direction e_p - u_p u of norm sqrt(1 - u_p^2) > 1/2, normalized:
    one exists for a unit u of length >= 2, as at most one |u_p| reaches sqrt(3)/2."""
    e = np.eye(u.size) - np.outer(u, u)
    norms = _norms(e)
    p = int(np.argmax(norms > 0.5))
    return e[p] / norms[p]


def diagonalizing_unitaries(aR: np.ndarray, basis: GellMannBasis):
    """Special unitaries U1, one per row of aR (m, n), with U1 f^-1(aR) U1† in the
    diagonal subalgebra: the (m, d, d) stacks of U1 and of U1 (i M) U1†.

    f^-1(aR) = i M with M Hermitian; U1 is the (phase-fixed) inverse of
    the eigenvector matrix of M.  Eigenvalues are ordered descending with
    numerically-zero ones moved last, so zero eigenvalues sit in the
    trailing diagonal entries; comparing signed values rather than moduli
    keeps the order stable when a +/- pair agrees in modulus only up to
    roundoff.
    """
    M = np.einsum("mg,gij->mij", aR, basis.matrices)
    w, v = numerics.eigh(M)
    scale = np.maximum(np.max(np.abs(w), axis=-1, keepdims=True), 1e-300)
    # nonzero eigenvalues first and zeros last, each kept in descending order
    order = np.argsort(np.abs(w) <= 1e-10 * scale, axis=-1, kind="stable")
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    # fixed column-phase convention for this routine: make the last
    # nonzero component real non-negative (any deterministic choice
    # works; this one also pins the residual pair phases that feed the
    # angle extraction)
    modulus = np.abs(v)
    big = modulus > 1e-12 * np.max(modulus, axis=-2, keepdims=True)
    last = v.shape[-2] - 1 - np.argmax(big[:, ::-1, :], axis=-2)
    pivot = np.take_along_axis(v, last[:, None, :], axis=-2)
    u1 = dagger(v * (np.conj(pivot) / np.abs(pivot)))
    # divide by the principal d-th root of det to land in SU(d)
    u1 *= np.exp(-1j * np.angle(np.linalg.det(u1)) / basis.d)[:, None, None]
    diag = u1 @ (1j * M) @ dagger(u1)
    off = diag * (1.0 - np.eye(basis.d))
    _refuse("diagonalization left significant off-diagonal residue",
            np.linalg.norm(off, axis=(-2, -1))
            > 1e-10 * np.maximum(1.0, np.linalg.norm(M, axis=(-2, -1))))
    return u1, diag


def phase_eliminations(X: np.ndarray) -> np.ndarray:
    """Diagonal special unitaries U2 killing sigma_y components on pairs (j, d),
    one per anti-Hermitian matrix of X (m, d, d): the (m, d) stack of their
    diagonals e^(i g).

    Writing U2 = diag(e^(i g_1), ..., e^(i g_d)), the off-diagonal pair
    coefficients transform by phi_(j,k) -> phi_(j,k) + g_j - g_k, so
    g_j = g_d - phi_(j,d) zeroes every pair phase into the (j, d) column,
    leaving a non-negative sigma_x^(j,d) coefficient.  Pairs with
    negligible magnitude get phase 0 by convention.  The overall shift is
    fixed by sum_j g_j = 0, which makes det(U2) = 1.  U2 commutes with
    every diagonal basis element, so the diagonal parts of both canonical
    vectors are untouched.
    """
    d = X.shape[-1]
    norm = np.linalg.norm(X, axis=(-2, -1))
    _refuse("input is not anti-Hermitian",
            np.linalg.norm(X + dagger(X), axis=(-2, -1)) > 1e-9 * np.maximum(1.0, norm))
    # pair coefficients a_(j,d) in X = sum i a_(j,k) |j><k| / sqrt(2) + h.c.
    c = -1j * math.sqrt(2.0) * X[:, :-1, -1]
    phases = np.where(np.abs(c) > 1e-12 * np.maximum(norm, 1e-300)[:, None], np.angle(c), 0.0)
    g_d = np.sum(phases, axis=-1, keepdims=True) / d
    return np.exp(1j * np.concatenate([g_d - phases, g_d], axis=-1))


def sigma_y_zero_slots(basis: GellMannBasis) -> list[int]:
    """Component indices of sigma_y^(j,d), the canonical zero pattern."""
    d = basis.d
    return [basis.index_y(j, d) for j in range(1, d)]


def universal_support(basis: GellMannBasis) -> list[int]:
    """Ordered support of the universal-form vectors: every component
    except the sigma_y^(j,d) slots.

    For d <= 3 this is exactly the first d^2 - d components; for larger d
    the excluded slots are interleaved with the trailing sigma_y block, so
    the support is a fixed permutation away from an initial segment.
    """
    zeros = set(sigma_y_zero_slots(basis))
    return [i for i in range(basis.n) if i not in zeros]


def _angles_from_unit(x: np.ndarray) -> np.ndarray:
    """Hyperspherical angles of each row of x (m, K), K >= 2; inverse of
    _unit_from_angles.

    First K-2 angles lie in [0, pi], the last in [0, 2 pi).  Trailing
    zero tails resolve deterministically through atan2.
    """
    # tails[:, i] = ||x[:, i:]||, all from one reversed cumulative sum of squares
    tails = np.sqrt(np.cumsum((x * x)[:, ::-1], axis=-1)[:, ::-1])
    last = np.mod(np.arctan2(x[:, -1], x[:, -2]), TWO_PI)
    return np.concatenate([np.arctan2(tails[:, 1:-1], x[:, :-2]), last[:, None]], axis=-1)


def _unit_from_angles(angles: np.ndarray) -> np.ndarray:
    """Unit rows of length K from rows of K - 1 hyperspherical angles:
    x_i = sin(a_0) ... sin(a_(i-1)) cos(a_i), and x_(K-1) the full sine product."""
    m = angles.shape[0]
    cosines = np.concatenate([np.cos(angles), np.ones((m, 1))], axis=-1)
    sines = np.concatenate([np.ones((m, 1)), np.cumprod(np.sin(angles), axis=-1)], axis=-1)
    return sines * cosines


def extract_params(aR: np.ndarray, aI: np.ndarray, theta, basis: GellMannBasis) -> list:
    """Hyperspherical angles of canonical-form vector pairs: one UniversalParams
    per row of aR, aI (m, n) and entry of theta (m,).

    Expects every aR row supported on the first d-1 (diagonal) components
    and every aI row on the support returned by universal_support; entries
    outside the respective supports beyond 1e-9 are an error.  For d = 2
    the canonical pair is fixed at aR = e1, aI = e2 and only theta remains.
    """
    d = basis.d
    if aR.shape != aI.shape or aR.shape[1:] != (basis.n,) or len(theta) != len(aR):
        raise DecomposeError("canonical vectors and angles do not form one stack of length-n rows")
    _refuse("real canonical vector leaks outside the diagonal block", np.abs(aR[:, d - 1:]) > 1e-9)
    _refuse("imaginary canonical vector violates the zero pattern",
            np.abs(aI[:, sigma_y_zero_slots(basis)]) > 1e-9)
    _refuse("aR is not a unit vector", np.abs(_norms(aR) - 1.0) > 1e-10)
    _refuse("aI is not a unit vector", np.abs(_norms(aI) - 1.0) > 1e-10)
    # orthogonality also pins cos(alphaI_1) = -(sum_{j>=2} aR_j aI_j) / aR_1 whenever
    # aR_1 != 0: that is this check divided by aR_1, so no other check is made of it
    _refuse("canonical vectors are not orthogonal", np.abs(np.vecdot(aR, aI)) > 1e-10)
    thetas = [float(t) for t in theta]
    if d == 2:
        _refuse("d=2 canonical vectors must be e1 and e2",
                np.abs(aR[:, 0] - 1.0) > 1e-9, np.abs(aI[:, 1] - 1.0) > 1e-9)
        return [UniversalParams(d=2, theta=t, alphaR=(), alphaI=()) for t in thetas]
    alphaR = _angles_from_unit(aR[:, : d - 1])
    alphaI = _angles_from_unit(aI[:, universal_support(basis)])
    return [UniversalParams(d=d, theta=t, alphaR=tuple(r), alphaI=tuple(i))
            for t, r, i in zip(thetas, alphaR.tolist(), alphaI.tolist())]


def universal_vectors(params, basis: GellMannBasis):
    """Stacked (aR, aI, v = cos(theta) aR + i sin(theta) aI) of a list of universal
    parameters: the angles embedded back into full-length vectors, one row each."""
    d, n, m = basis.d, basis.n, len(params)
    if any(p.d != d for p in params):
        raise DecomposeError("parameter dimension does not match basis")
    aR, aI = np.zeros((2, m, n))
    if d == 2:
        aR[:, 0] = aI[:, 1] = 1.0
    else:
        alphaR = np.array([p.alphaR for p in params]).reshape(m, d - 2)
        alphaI = np.array([p.alphaI for p in params]).reshape(m, n - d)
        aR[:, : d - 1] = _unit_from_angles(alphaR)
        aI[:, universal_support(basis)] = _unit_from_angles(alphaI)
    theta = np.array([p.theta for p in params])[:, None]
    return aR, aI, np.cos(theta) * aR + 1j * np.sin(theta) * aI


def universal_operators(params, basis: GellMannBasis) -> np.ndarray:
    """Stack of the Lindblad operators L = sum_a v_a F_a of a list of family members."""
    return np.einsum("ma,aij->mij", universal_vectors(params, basis)[2], basis.matrices)


def _coordinates(X: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """Coordinates x_a = Im tr(F_a X) of each su(d) element X = i sum_a x_a F_a."""
    return np.einsum("gij,mji->mg", basis.matrices, X).imag


def decompose_terms(terms, basis: GellMannBasis) -> list[ConjugationPlan]:
    """Carry rank-one pieces through the three canonicalization steps, each
    step one pass over the stack of all pieces."""
    d = basis.d
    _, theta, aR, aI = canonical_phases(np.array([t.a for t in terms]).reshape(-1, basis.n))
    u1, AR_d = diagonalizing_unitaries(aR, basis)
    AI_t = u1 @ (1j * np.einsum("mg,gij->mij", aI, basis.matrices)) @ dagger(u1)
    e = phase_eliminations(AI_t)  # U2 = diag(e) is diagonal: conjugating scales entries
    aR_t = _coordinates(AR_d, basis)
    aI_t = _coordinates(AI_t * e[:, :, None] * np.conj(e)[:, None, :], basis)
    # zero out sub-tolerance leakage so the stored pattern is exact
    zero_slots = sigma_y_zero_slots(basis)
    _refuse("canonicalization failed to reach the zero pattern",
            np.abs(aR_t[:, d - 1:]) > 1e-9, np.abs(aI_t[:, zero_slots]) > 1e-9)
    aR_t[:, d - 1:] = 0.0
    aR_t /= _norms(aR_t)[:, None]
    aI_t[:, zero_slots] = 0.0
    support = universal_support(basis)
    for i in np.flatnonzero(np.sin(theta) < 1e-13):
        # the imaginary part carries no weight; choose it deterministically
        # inside the support, orthogonal to the real part (which lies inside it)
        aI_t[i] = 0.0
        aI_t[i, support] = _completion_orthogonal_to(aR_t[i, support])
    aI_t /= _norms(aI_t)[:, None]
    aI_t -= np.vecdot(aR_t, aI_t)[:, None] * aR_t
    aI_t /= _norms(aI_t)[:, None]
    params = extract_params(aR_t, aI_t, theta, basis)
    U = dagger(u1) * np.conj(e)[:, None, :]  # U1† U2†
    return [ConjugationPlan(lam=t.lam, U=u, params=p) for t, u, p in zip(terms, U, params)]


def decompose_term(term: RankOneTerm, basis: GellMannBasis) -> ConjugationPlan:
    """Carry one rank-one piece through the three canonicalization steps."""
    return decompose_terms([term], basis)[0]


def decompose_generator(g: GksGenerator) -> list[ConjugationPlan]:
    """Conjugation plans of a generator's dissipative part.

    The Liouvillian of g equals the Liouvillian of g.H plus sum_k lam_k
    times the Liouvillian of the k-th plan's GKS matrix b_k b_k† (verify_plan).
    """
    return decompose_terms(spectral_split(g), g.basis)


def verify_plans(plans, terms, basis: GellMannBasis) -> np.ndarray:
    """verify_plan of each plan against its term, in one pass."""
    if len(plans) != len(terms):
        raise DecomposeError(f"{len(plans)} plans for {len(terms)} terms")
    U = np.array([p.U for p in plans]).reshape(-1, basis.d, basis.d)
    L = universal_operators([p.params for p in plans], basis).reshape(U.shape)
    b = np.einsum("gij,mji->mg", basis.matrices, U @ L @ dagger(U))
    a = np.array([t.a for t in terms]).reshape(-1, basis.n)
    # rephased so that a† b is real, a a† - b b† = (p q† + q p†) / 2 with p, q = a -+ b has the
    # squared norm (|p|^2 |q|^2 + (|a|^2 - |b|^2)^2) / 2: no cancellation, no n x n matrices
    b *= np.exp(1j * np.angle(np.vecdot(b, a)))[:, None]
    gap = np.vecdot(a, a).real - np.vecdot(b, b).real
    return np.sqrt(0.5 * (_norms(a - b) ** 2 * _norms(a + b) ** 2 + gap ** 2))


def verify_plan(plan: ConjugationPlan, term: RankOneTerm, basis: GellMannBasis) -> float:
    """Frobenius residual ||a a† - b b†|| with b_a = tr(F_a U L U†) = (G(U) v)_a, where
    L = universal_operators([plan.params], basis)[0] is the operator the plan's component
    runs."""
    return float(verify_plans([plan], [term], basis)[0])
