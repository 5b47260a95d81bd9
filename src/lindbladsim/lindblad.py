"""Markovian semigroup generators and their superoperator realizations.

A generator in GKSL form is specified by a Hamiltonian H and a positive
semidefinite coefficient matrix A over the Gell-Mann basis,

    L(rho) = i[rho, H] + sum_lk A_lk (F_l rho F_k - (1/2){F_k F_l, rho}),

or equivalently, after diagonalizing A, by rates gamma_k and Lindblad
operators L_k.  This module converts between the two forms, builds the
d^2 x d^2 matrix of L under column-stacking vectorization, applies the exact
channel exp(tL) (the oracle all approximate simulations are judged
against), and gives the closed-form upper bound on the (1->1)
superoperator norm that drives product-formula step selection.

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


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


def conjugation_superoperator(u: np.ndarray) -> np.ndarray:
    """Matrix of rho -> U rho U† in the column-stacking convention."""
    U = np.asarray(u, dtype=complex)
    return np.kron(np.conj(U), U)


def _require_hermitian(X: np.ndarray, name: str) -> None:
    """Refuse X unless ||X - X†||_F <= 1e-10 max(1, ||X||_F); the difference
    is formed from halves, which cannot overflow."""
    if 2.0 * frobenius(0.5 * X - 0.5 * dagger(X)) > 1e-10 * max(1.0, frobenius(X)):
        raise LindbladError(f"{name} is not Hermitian within tolerance")


def positivity_spectrum(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of A, formed from halves so no sum overflows."""
    return np.linalg.eigvalsh(0.5 * A + 0.5 * dagger(A))


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
        _require_hermitian(H, "H")
        _require_hermitian(A, "A")
        w = positivity_spectrum(A)
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
        _require_hermitian(H, "H")
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
class QuantumState:
    d: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.d, self.d):
            raise LindbladError(f"state must be {self.d}x{self.d}, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise LindbladError("state must be finite")
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
    B = np.einsum("lk,kba->lba", A, F)
    S = np.einsum("lba,lij->aibj", B, F).reshape(d * d, d * d)
    Phi = np.einsum("lk,kia,laj->ij", A, F, F)  # sum_lk A_lk F_k F_l
    S = S - 0.5 * (np.kron(Phi.T, eye) + np.kron(eye, Phi))
    return S


def liouvillian_matrix(g: GksGenerator) -> np.ndarray:
    """Full d^2 x d^2 generator matrix: Hamiltonian commutator plus dissipator."""
    return hamiltonian_superoperator(g.H) + dissipator_superoperator(g.A, g.basis)


def apply_exact(g: GksGenerator, rho0: QuantumState, t: float) -> QuantumState:
    """Exact channel exp(tL) applied to rho0."""
    if not 0 <= t < math.inf:  # written so that NaN fails too
        raise LindbladError(f"time must be finite and non-negative, got {t}")
    rho = unvec(expm(t * liouvillian_matrix(g)) @ vec(rho0.rho), g.d)
    return QuantumState(d=g.d, rho=rho)


def one_one_norm(g: DiagonalGenerator) -> float:
    """Upper bound lambda_max(H) - lambda_min(H) + sum_k 2 gamma_k ||L_k||_op^2
    on the (1->1) norm sup_{||X||_1 = 1} ||L(X)||_1 of g's generator.

    The Hamiltonian term is exact: i[X, H] = i[X, H - c], which with c the
    middle of H's spectrum is at most 2 ||H - c||_op ||X||_1, and X = |a><b|
    on the top and bottom eigenvectors attains it.  Each rate term holds
    because ||L X L†||_1 and ||(1/2){L†L, X}||_1 are at most ||L||_op^2 ||X||_1.
    The result is a Python float, whose arithmetic overflows to inf without
    a warning.
    """
    w = np.linalg.eigvalsh(g.H)
    total = float(w[-1]) - float(w[0])
    for gamma, L in g.terms:
        s = float(np.linalg.norm(L, 2))
        total += 2.0 * gamma * s * s
    return total


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * trace_norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
