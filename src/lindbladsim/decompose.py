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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import dagger, frobenius
from .lindblad import GksGenerator, gks_spectrum
from .sud import GellMannBasis


class DecomposeError(ValueError):
    pass


TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RankOneTerm:
    """One spectral component lambda * a a† of a GKS matrix."""

    lam: float
    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise DecomposeError("rank-one direction is not a unit vector")
        object.__setattr__(self, "a", a)

    def matrix(self) -> np.ndarray:
        return self.lam * np.outer(self.a, np.conj(self.a))


@dataclass(frozen=True)
class CanonicalVector:
    """Phase-canonicalized split a' = cos(theta) aR + i sin(theta) aI."""

    psi: float
    theta: float
    aR: np.ndarray = field(repr=False)
    aI: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class UniversalParams:
    """Hyperspherical parametrization of one universal-family member."""

    d: int
    theta: float
    alphaR: tuple  # d-2 angles
    alphaI: tuple  # d^2-d-1 angles; empty for d = 2 (fixed vectors)


@dataclass(frozen=True)
class ConjugationPlan:
    """Unitary plus universal parameters realizing one rank-one piece."""

    lam: float
    U: np.ndarray = field(repr=False)
    params: UniversalParams


def spectral_split(g: GksGenerator) -> list[RankOneTerm]:
    """Spectral decomposition A = sum_k lambda_k a_k a_k†, descending."""
    return [RankOneTerm(lam=lam, a=a) for lam, a in gks_spectrum(g)]


def canonical_phase(a) -> CanonicalVector:
    """Remove the global-phase freedom of a rank-one direction.

    Returns psi in [0, pi) such that e^(i psi) a has orthogonal real and
    imaginary parts with the real part at least as long, theta in
    [0, pi/4], and the normalized parts aR, aI.  Degenerate cases: when
    k1 = k2 = 0 the vector is already balanced and psi = 0; when the
    imaginary part vanishes entirely, aI is completed deterministically
    with the first coordinate direction not parallel to aR.
    """
    a = np.asarray(a, dtype=complex)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise DecomposeError("input is not a unit vector")
    aR, aI = a.real.copy(), a.imag.copy()
    k1 = float(aR @ aR - aI @ aI)
    k2 = float(2.0 * (aR @ aI))
    if abs(k2) < 1e-15:
        k2 = 0.0
    two_psi = (-math.atan2(k2, k1)) % TWO_PI if (k1, k2) != (0.0, 0.0) else 0.0
    psi = two_psi / 2.0
    ap = np.exp(1j * psi) * a
    apR, apI = ap.real, ap.imag
    nR, nI = float(np.linalg.norm(apR)), float(np.linalg.norm(apI))
    # atan2 keeps full precision for nearly-real vectors, where
    # acos(nR) ~ acos(1 - eps) would lose half the significant digits
    theta = min(math.atan2(nI, nR), math.pi / 4.0)
    uR = apR / nR
    if nI > 1e-13:
        uI = apI / nI
        # exact re-orthogonalization; the correction is O(eps)/nI and is
        # scaled back by sin(theta) wherever the split is recombined
        uI = uI - (uR @ uI) * uR
        uI = uI / np.linalg.norm(uI)
    else:
        uI = _completion_orthogonal_to(uR)
    return CanonicalVector(psi=psi, theta=theta, aR=uR, aI=uI)


def _completion_orthogonal_to(u: np.ndarray) -> np.ndarray:
    """First coordinate direction, Gram-Schmidt'ed against u."""
    for p in range(u.size):
        e = np.zeros(u.size)
        e[p] = 1.0
        e = e - (u @ e) * u
        norm = np.linalg.norm(e)
        if norm > 0.5:
            return e / norm
    raise DecomposeError("no orthogonal completion found")  # unreachable for unit u


def _special_unitary(u: np.ndarray) -> np.ndarray:
    """Divide by the principal d-th root of det(u) to land in SU(d)."""
    det = np.linalg.det(u)
    return u * np.exp(-1j * np.angle(det) / u.shape[0])


def diagonalizing_unitary(aR, basis: GellMannBasis) -> np.ndarray:
    """Special unitary U1 with U1 f^-1(aR) U1† in the diagonal subalgebra.

    f^-1(aR) = i M with M Hermitian; U1 is the (phase-fixed) inverse of
    the eigenvector matrix of M.  Eigenvalues are ordered descending with
    numerically-zero ones moved last, so zero eigenvalues sit in the
    trailing diagonal entries; comparing signed values rather than moduli
    keeps the order stable when a +/- pair agrees in modulus only up to
    roundoff.
    """
    aR = np.asarray(aR, dtype=float)
    M = np.einsum("g,gij->ij", aR, basis.matrices)
    w, v = numerics.eigh(M)
    scale = max(float(np.max(np.abs(w))), 1e-300)
    nonzero = [i for i in range(len(w)) if abs(w[i]) > 1e-10 * scale]
    zero = [i for i in range(len(w)) if abs(w[i]) <= 1e-10 * scale]
    v = v[:, nonzero + zero]
    # fixed column-phase convention for this routine: make the last
    # nonzero component real non-negative (any deterministic choice
    # works; this one also pins the residual pair phases that feed the
    # angle extraction)
    for j in range(v.shape[1]):
        col = v[:, j]
        big = np.where(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        i = int(big[-1])
        v[:, j] = col * (np.conj(col[i]) / abs(col[i]))
    u1 = _special_unitary(dagger(v))
    diag = u1 @ (1j * M) @ dagger(u1)
    off = diag - np.diag(np.diag(diag))
    if frobenius(off) > 1e-10 * max(1.0, frobenius(M)):
        raise DecomposeError("diagonalization left significant off-diagonal residue")
    return u1


def _pair_coefficient(m: np.ndarray, j: int, k: int) -> complex:
    """Coefficient a_(j,k) in X = sum i a_(j,k) |j><k|/sqrt(2) + h.c. terms."""
    return -1j * math.sqrt(2.0) * m[j - 1, k - 1]


def phase_elimination_unitary(atilde_i, basis: GellMannBasis) -> np.ndarray:
    """Diagonal special unitary U2 killing sigma_y components on pairs (j, d).

    Writing U2 = diag(e^(i g_1), ..., e^(i g_d)), the off-diagonal pair
    coefficients transform by phi_(j,k) -> phi_(j,k) + g_j - g_k, so
    g_j = g_d - phi_(j,d) zeroes every pair phase into the (j, d) column,
    leaving a non-negative sigma_x^(j,d) coefficient.  Pairs with
    negligible magnitude get phase 0 by convention.  The overall shift is
    fixed by sum_j g_j = 0, which makes det(U2) = 1.  U2 commutes with
    every diagonal basis element, so the diagonal parts of both canonical
    vectors are untouched.
    """
    X = np.asarray(atilde_i, dtype=complex)
    d = basis.d
    if X.shape != (d, d):
        raise DecomposeError(f"expected a {d}x{d} matrix, got {X.shape}")
    if frobenius(X + dagger(X)) > 1e-9 * max(1.0, frobenius(X)):
        raise DecomposeError("input is not anti-Hermitian")
    scale = max(frobenius(X), 1e-300)
    phases = np.zeros(d - 1)
    for j in range(1, d):
        c = _pair_coefficient(X, j, d)
        phases[j - 1] = np.angle(c) if abs(c) > 1e-12 * scale else 0.0
    g_d = float(np.sum(phases)) / d
    g = np.concatenate([g_d - phases, [g_d]])
    return np.diag(np.exp(1j * g))


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


def _angles_from_unit(x: np.ndarray) -> tuple:
    """Hyperspherical angles of a unit vector; inverse of _unit_from_angles.

    First len(x)-2 angles lie in [0, pi], the last in [0, 2 pi).  Trailing
    zero tails resolve deterministically through atan2.
    """
    K = x.size
    if K == 1:
        return ()
    # tails[i] = ||x[i:]||, all from one reversed cumulative sum of squares
    tails = np.sqrt(np.cumsum((x * x)[::-1])[::-1])
    angles = [math.atan2(float(tails[i + 1]), float(x[i])) for i in range(K - 2)]
    angles.append(math.atan2(float(x[K - 1]), float(x[K - 2])) % TWO_PI)
    return tuple(angles)


def _unit_from_angles(angles, K: int) -> np.ndarray:
    x = np.zeros(K)
    if K == 1:
        x[0] = 1.0
        return x
    sin_prod = 1.0
    for i in range(K - 2):
        x[i] = sin_prod * math.cos(angles[i])
        sin_prod *= math.sin(angles[i])
    x[K - 2] = sin_prod * math.cos(angles[K - 2])
    x[K - 1] = sin_prod * math.sin(angles[K - 2])
    return x


def extract_params(aR, aI, theta: float, basis: GellMannBasis) -> UniversalParams:
    """Hyperspherical angles of a canonical-form vector pair.

    Expects aR supported on the first d-1 (diagonal) components and aI on
    the support returned by universal_support; entries outside the
    respective supports beyond 1e-9 are an error.  For d = 2 the canonical
    pair is fixed at aR = e1, aI = e2 and only theta remains.
    """
    d, n = basis.d, basis.n
    aR = np.asarray(aR, dtype=float)
    aI = np.asarray(aI, dtype=float)
    if aR.shape != (n,) or aI.shape != (n,):
        raise DecomposeError("canonical vectors have the wrong length")
    support = universal_support(basis)
    if np.max(np.abs(aR[d - 1:])) > 1e-9:
        raise DecomposeError("real canonical vector leaks outside the diagonal block")
    zero_slots = sigma_y_zero_slots(basis)
    if zero_slots and np.max(np.abs(aI[zero_slots])) > 1e-9:
        raise DecomposeError("imaginary canonical vector violates the zero pattern")
    for v, name in ((aR, "aR"), (aI, "aI")):
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise DecomposeError(f"{name} is not a unit vector")
    if abs(float(aR @ aI)) > 1e-10:
        raise DecomposeError("canonical vectors are not orthogonal")
    if d == 2:
        if abs(aR[0] - 1.0) > 1e-9 or abs(aI[1] - 1.0) > 1e-9:
            raise DecomposeError("d=2 canonical vectors must be e1 and e2")
        return UniversalParams(d=2, theta=float(theta), alphaR=(), alphaI=())
    alphaR = _angles_from_unit(aR[: d - 1])
    alphaI = _angles_from_unit(aI[support])
    params = UniversalParams(d=d, theta=float(theta), alphaR=alphaR, alphaI=alphaI)
    # orthogonality pins the leading aI component whenever aR_1 is nonzero:
    # cos(alphaI_1) = -(sum_{j>=2} aR_j aI_j) / aR_1
    if abs(aR[0]) > 1e-9:
        lhs = math.cos(alphaI[0])
        rhs = -float(aR[1: d - 1] @ aI[1: d - 1]) / float(aR[0])
        if abs(lhs - rhs) > 1e-10:
            raise DecomposeError("orthogonality constraint on alphaI_1 violated")
    return params


def reconstruct_vectors(params: UniversalParams, basis: GellMannBasis):
    """Embed the hyperspherical angles back into full-length vectors."""
    d, n = basis.d, basis.n
    if params.d != d:
        raise DecomposeError("parameter dimension does not match basis")
    aR = np.zeros(n)
    aI = np.zeros(n)
    if d == 2:
        aR[0] = 1.0
        aI[1] = 1.0
        return aR, aI
    aR[: d - 1] = _unit_from_angles(params.alphaR, d - 1)
    support = universal_support(basis)
    aI[support] = _unit_from_angles(params.alphaI, n - (d - 1))
    return aR, aI


def universal_vector(params: UniversalParams, basis: GellMannBasis) -> np.ndarray:
    """Unit vector cos(theta) aR + i sin(theta) aI of the family member."""
    aR, aI = reconstruct_vectors(params, basis)
    return math.cos(params.theta) * aR + 1j * math.sin(params.theta) * aI


def universal_operator(params: UniversalParams, basis: GellMannBasis) -> np.ndarray:
    """Lindblad operator L = sum_a v_a F_a of the family member."""
    return np.einsum("a,aij->ij", universal_vector(params, basis), basis.matrices)


def decompose_term(term: RankOneTerm, basis: GellMannBasis) -> ConjugationPlan:
    """Carry one rank-one piece through the three canonicalization steps."""
    canon = canonical_phase(term.a)
    u1 = diagonalizing_unitary(canon.aR, basis)
    # coordinates of an su(d) element X = i sum_a x_a F_a are x_a = Im tr(F_a X)
    AR_d = u1 @ (1j * np.einsum("g,gij->ij", canon.aR, basis.matrices)) @ dagger(u1)
    AI_t = u1 @ (1j * np.einsum("g,gij->ij", canon.aI, basis.matrices)) @ dagger(u1)
    u2 = phase_elimination_unitary(AI_t, basis)
    aR_t = np.einsum("gij,ji->g", basis.matrices, AR_d).imag
    aI_t = np.einsum("gij,ji->g", basis.matrices, u2 @ AI_t @ dagger(u2)).imag
    _clip_zero_slots(aR_t, aI_t, basis)
    if math.sin(canon.theta) < 1e-13:
        # the imaginary part carries no weight; choose it deterministically
        # inside the support, orthogonal to the real part
        aI_t = _deterministic_imaginary(aR_t, basis)
    params = extract_params(aR_t, aI_t, canon.theta, basis)
    u = dagger(u1) @ dagger(u2)
    return ConjugationPlan(lam=term.lam, U=u, params=params)


def _clip_zero_slots(aR_t: np.ndarray, aI_t: np.ndarray, basis: GellMannBasis):
    """Zero out sub-tolerance leakage so the stored pattern is exact."""
    d = basis.d
    if np.max(np.abs(aR_t[d - 1:])) > 1e-9 or \
            np.max(np.abs(aI_t[sigma_y_zero_slots(basis)])) > 1e-9:
        raise DecomposeError("canonicalization failed to reach the zero pattern")
    aR_t[d - 1:] = 0.0
    aR_t /= np.linalg.norm(aR_t)
    aI_t[sigma_y_zero_slots(basis)] = 0.0
    aI_t /= np.linalg.norm(aI_t)
    aI_t -= (aR_t @ aI_t) * aR_t
    aI_t /= np.linalg.norm(aI_t)


def _deterministic_imaginary(aR_t: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    support = universal_support(basis)
    u = aR_t[support]
    comp = _completion_orthogonal_to(u / np.linalg.norm(u))
    out = np.zeros(basis.n)
    out[support] = comp
    return out


def decompose_generator(g: GksGenerator) -> list[ConjugationPlan]:
    """Conjugation plans of a generator's dissipative part.

    The Liouvillian of g equals the Liouvillian of g.H plus sum_k lam_k
    times the Liouvillian of the k-th plan's GKS matrix b_k b_k† (verify_plan).
    """
    terms = spectral_split(g)
    return [decompose_term(t, g.basis) for t in terms]


def verify_plan(plan: ConjugationPlan, term: RankOneTerm, basis: GellMannBasis) -> float:
    """Frobenius residual ||a a† - b b†|| with b_a = tr(F_a U L U†) = (G(U) v)_a, where
    L = universal_operator(plan.params) is the operator the plan's component runs."""
    UL = plan.U @ universal_operator(plan.params, basis) @ dagger(plan.U)
    b = np.einsum("gij,ji->g", basis.matrices, UL)
    return frobenius(np.outer(term.a, np.conj(term.a)) - np.outer(b, np.conj(b)))
