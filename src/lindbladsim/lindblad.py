"""Markovian semigroup generators and their superoperator realizations.

A generator in GKSL form is specified by a Hamiltonian H and a positive
semidefinite coefficient matrix A over the Gell-Mann basis,

    L(rho) = i[rho, H] + sum_lk A_lk (F_l rho F_k - (1/2){F_k F_l, rho}),

or equivalently, after diagonalizing A, by rates gamma_k and Lindblad
operators L_k.  This module converts between the two forms, builds the
d^2 x d^2 matrix of L under column-stacking vectorization, applies the exact
channel exp(tL) (the oracle all approximate simulations are judged
against), and estimates the (1->1) superoperator norm that drives
product-formula step selection.

Vectorization is column-stacking throughout: vec(X rho Y) = (Y^T kron X) vec(rho).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import dagger, expm, frobenius, trace_norm
from .sud import GellMannBasis, gell_mann_basis


class LindbladError(ValueError):
    pass


# eigenvalues of A at or below this share of the largest are roundoff zeros
EIGEN_CUTOFF = 1e-12

# (1->1) norm estimator: random starts beyond the d^2 structured ones and
# their seed, iterations per start, convergence tolerance, upward safety factor
NORM_STARTS = 12
NORM_SEED = 0
NORM_ITERS = 200
NORM_TOL = 1e-12
NORM_SAFETY = 1.001


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


def conjugation_superoperator(u: np.ndarray) -> np.ndarray:
    """Matrix of rho -> U rho U† in the column-stacking convention."""
    U = np.asarray(u, dtype=complex)
    return np.kron(np.conj(U), U)


@dataclass(frozen=True)
class GksGenerator:
    """Generator data (H, A) over a fixed Gell-Mann basis."""

    basis: GellMannBasis
    H: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)

    def __post_init__(self):
        d, n = self.basis.d, self.basis.n
        H = np.asarray(self.H, dtype=complex)
        A = np.asarray(self.A, dtype=complex)
        if H.shape != (d, d):
            raise LindbladError(f"H must be {d}x{d}, got {H.shape}")
        if A.shape != (n, n):
            raise LindbladError(f"A must be {n}x{n}, got {A.shape}")
        if not (np.isfinite(H).all() and np.isfinite(A).all()):
            raise LindbladError("H and A must be finite")
        if frobenius(H - dagger(H)) > 1e-10 * max(1.0, frobenius(H)):
            raise LindbladError("H is not Hermitian within tolerance")
        if frobenius(A - dagger(A)) > 1e-10 * max(1.0, frobenius(A)):
            raise LindbladError("A is not Hermitian within tolerance")
        w = np.linalg.eigvalsh(0.5 * (A + dagger(A)))
        scale = max(float(np.max(np.abs(w))), 1e-300)
        if w.min() < -1e-10 * scale:
            raise LindbladError(f"A is not positive semidefinite (min eigenvalue {w.min():.3e})")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "A", A)

    @property
    def d(self) -> int:
        return self.basis.d


@dataclass(frozen=True)
class DiagonalGenerator:
    """Generator data H plus rate/operator pairs (gamma_k, L_k)."""

    d: int
    H: np.ndarray = field(repr=False)
    terms: tuple = ()  # of (float, np.ndarray)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.shape != (self.d, self.d):
            raise LindbladError(f"H must be {self.d}x{self.d}, got {H.shape}")
        if not np.isfinite(H).all():
            raise LindbladError("H must be finite")
        if frobenius(H - dagger(H)) > 1e-10 * max(1.0, frobenius(H)):
            raise LindbladError("H is not Hermitian within tolerance")
        terms = []
        for gamma, L in self.terms:
            if not 0 <= gamma < math.inf:  # written so that NaN fails too
                raise LindbladError(f"rate must be finite and non-negative, got {gamma}")
            L = np.asarray(L, dtype=complex)
            if L.shape != (self.d, self.d):
                raise LindbladError(f"Lindblad operator must be {self.d}x{self.d}, got {L.shape}")
            if not np.isfinite(L).all():
                raise LindbladError("Lindblad operator must be finite")
            terms.append((float(gamma), L))
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "terms", tuple(terms))


@dataclass(frozen=True)
class Superoperator:
    """d^2 x d^2 matrix acting on column-stacked density matrices."""

    d: int
    S: np.ndarray = field(repr=False)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=complex)
        if S.shape != (self.d**2, self.d**2):
            raise LindbladError(f"superoperator must be {self.d**2}x{self.d**2}, got {S.shape}")
        object.__setattr__(self, "S", S)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.S @ vec(rho), self.d)


@dataclass(frozen=True)
class QuantumState:
    d: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.d, self.d):
            raise LindbladError(f"state must be {self.d}x{self.d}, got {rho.shape}")
        if frobenius(rho - dagger(rho)) > 1e-10:
            raise LindbladError("state is not Hermitian within tolerance")
        if abs(np.trace(rho) - 1.0) > 1e-10:
            raise LindbladError(f"state trace {np.trace(rho)} is not 1")
        wmin = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min())
        if wmin < -1e-9:
            raise LindbladError(f"state has negative eigenvalue {wmin:.3e}")
        object.__setattr__(self, "rho", rho)


def maximally_mixed(d: int) -> QuantumState:
    return QuantumState(d=d, rho=np.eye(d, dtype=complex) / d)


def _traceless_split(L: np.ndarray, d: int):
    c0 = np.trace(L) / d
    return L - c0 * np.eye(d), c0


def from_diagonal(g: DiagonalGenerator, basis: GellMannBasis | None = None) -> GksGenerator:
    """Convert rate/operator form to (H, A) form over the Gell-Mann basis.

    Each L_k is split into its traceless part plus a multiple of the
    identity; the identity part folds into an effective Hamiltonian shift
    H += (i gamma_k / 2)(conj(c0) L_tl - c0 L_tl†) and an ignorable scalar
    flow, leaving A = sum_k gamma_k c_k c_k† over traceless coefficients.
    """
    basis = basis if basis is not None else gell_mann_basis(g.d)
    if basis.d != g.d:
        raise LindbladError("basis dimension does not match generator dimension")
    n = basis.n
    A = np.zeros((n, n), dtype=complex)
    H = np.array(g.H, dtype=complex)
    for gamma, L in g.terms:
        Ltl, c0 = _traceless_split(L, g.d)
        coeff = np.einsum("gij,ji->g", basis.matrices, Ltl)
        A += gamma * np.outer(coeff, np.conj(coeff))
        if abs(c0) > 0.0:
            H += (1j * gamma / 2.0) * (np.conj(c0) * Ltl - c0 * dagger(Ltl))
    return GksGenerator(basis=basis, H=H, A=A)


def gks_spectrum(g: GksGenerator) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs (lam, v) of A in descending order, zeros dropped.

    An eigenvalue is kept when it is positive and above EIGEN_CUTOFF times
    the largest eigenvalue modulus.
    """
    w, v = numerics.eigh(g.A)
    scale = float(np.max(np.abs(w)))
    if w.min() < -1e-10 * max(scale, 1e-300):
        raise LindbladError("GKS matrix is not positive semidefinite")
    return [(float(lam), v[:, i]) for i, lam in enumerate(w)
            if lam > EIGEN_CUTOFF * scale and lam > 0.0]


def to_diagonal(g: GksGenerator) -> DiagonalGenerator:
    """Diagonalize A into rates and Lindblad operators.

    The rates are the eigenvalues kept by gks_spectrum; the operator for
    each kept eigenvector v is L = sum_a v_a F_a.
    """
    terms = tuple((lam, np.einsum("g,gij->ij", v, g.basis.matrices))
                  for lam, v in gks_spectrum(g))
    return DiagonalGenerator(d=g.d, H=g.H, terms=terms)


def hamiltonian_superoperator(H: np.ndarray) -> np.ndarray:
    """Matrix of rho -> i[rho, H]."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    eye = np.eye(d)
    return 1j * (np.kron(H.T, eye) - np.kron(eye, H))


def dissipator_superoperator(A: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """Matrix of the A-weighted dissipator over the given basis."""
    A = np.asarray(A, dtype=complex)
    F = basis.matrices
    d, eye = basis.d, np.eye(basis.d)
    # sum_lk A_lk F_l rho F_k  ->  sum_lk A_lk kron(F_k^T, F_l); with the
    # column-stacked index (col*d + row) the row axes are (a=out col,
    # i=out row) and the column axes (b=in col, j=in row).
    S = np.einsum("lk,kba,lij->aibj", A, F, F).reshape(d * d, d * d)
    Phi = np.einsum("lk,kia,laj->ij", A, F, F)  # sum_lk A_lk F_k F_l
    S = S - 0.5 * (np.kron(Phi.T, eye) + np.kron(eye, Phi))
    return S


def liouvillian_matrix(g: GksGenerator) -> Superoperator:
    """Full generator matrix: Hamiltonian commutator plus dissipator."""
    S = hamiltonian_superoperator(g.H) + dissipator_superoperator(g.A, g.basis)
    return Superoperator(d=g.d, S=S)


def liouvillian_of_diagonal(g: DiagonalGenerator) -> Superoperator:
    """Generator matrix built directly from rate/operator terms."""
    d = g.d
    eye = np.eye(d)
    S = hamiltonian_superoperator(g.H)
    for gamma, L in g.terms:
        Ld = dagger(L)
        S += gamma * (np.kron(np.conj(L), L)
                      - 0.5 * np.kron((Ld @ L).T, eye)
                      - 0.5 * np.kron(eye, Ld @ L))
    return Superoperator(d=d, S=S)


def apply_exact(g: GksGenerator, rho0: QuantumState, t: float) -> QuantumState:
    """Exact channel exp(tL) applied to rho0."""
    if t < 0:
        raise LindbladError(f"time must be non-negative, got {t}")
    S = liouvillian_matrix(g)
    rho = unvec(expm(t * S.S) @ vec(rho0.rho), g.d)
    return QuantumState(d=g.d, rho=rho)


def _polar_unitary(y: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(y)
    return u @ vh


def one_one_norm(S: Superoperator) -> float:
    """Estimate of the (1->1) norm sup_{||X||_1 = 1} ||S(X)||_1.

    The supremum is attained on rank-one extreme points |psi><phi| of the
    unit trace-norm ball, so we maximize ||S(|psi><phi|)||_1 by alternating
    two exact partial maximizations: for fixed (psi, phi) the optimal dual
    unitary W of the trace norm is the polar factor of S(|psi><phi|), and
    for fixed W the best (psi, phi) is the top singular pair of the matrix
    K with tr(W† S(|psi><phi|)) = phi† K psi.  Multi-start with a generator
    seeded by NORM_SEED keeps the result deterministic; the safety factor
    biases the converged value upward so the estimate errs on the side of more
    product-formula steps, never fewer.
    """
    d = S.d
    M = S.S
    if frobenius(M) == 0.0:
        return 0.0
    rng = np.random.default_rng(NORM_SEED)
    Mdag = dagger(M)

    def alternate(psi: np.ndarray, phi: np.ndarray) -> float:
        val = 0.0
        for _ in range(NORM_ITERS):
            Y = unvec(M @ vec(np.outer(psi, np.conj(phi))), d)
            W = _polar_unitary(Y)
            # tr(W† S(psi phi†)) = vec(W)† M (conj(phi) kron psi) = phi† K psi
            K = dagger(unvec(Mdag @ vec(W), d))
            uu, ss, vvh = np.linalg.svd(K)
            new = float(ss[0])
            phi = uu[:, 0]
            psi = np.conj(vvh[0, :])
            if abs(new - val) <= NORM_TOL * max(1.0, new):
                val = new
                break
            val = new
        return val

    best = 0.0
    # structured starts: computational-basis dyads
    for i in range(d):
        for j in range(d):
            e_i, e_j = np.zeros(d, dtype=complex), np.zeros(d, dtype=complex)
            e_i[i] = 1.0
            e_j[j] = 1.0
            best = max(best, alternate(e_i, e_j))
    for _ in range(NORM_STARTS):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        best = max(best, alternate(psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)))
    return best * NORM_SAFETY


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * trace_norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
