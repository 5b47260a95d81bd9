"""Markovian semigroup generators and their superoperator realizations.

A generator in GKSL form is specified by a Hamiltonian H and a positive
semidefinite coefficient matrix A over the Gell-Mann basis,

    L(rho) = i[rho, H] + sum_lk A_lk (F_l rho F_k† - (1/2){F_k† F_l, rho}),

or equivalently, after diagonalizing A, by rates gamma_k and Lindblad
operators L_k.  This module converts between the two forms, builds the
d^2 x d^2 matrix of L under column-stacking vectorization, applies the exact
channel exp(tL) (the oracle all approximate simulations are judged
against), and gives the closed-form upper bound on the (1->1)
superoperator norm that drives product-formula step selection.

The constructors (hamiltonian_superoperator, dissipator_superoperator,
liouvillian_matrix) column-stack: vec(X rho Y) = (Y^T kron X) vec(rho).
dissipator_superoperator contracts a coefficient matrix over a stack of
operators, for the oracle the Gell-Mann matrices under A, in two BLAS
products, and subtracts the anticommutator half as two Kronecker products of
Phi = sum_lk A_lk F_k† F_l with the identity.  Every map that is
exponentiated, multiplied, projected or applied is a real matrix R in the
orthonormal Hermitian basis B = (I / sqrt(d), F_1, ..., F_{d^2-1}) of
hermitian_basis, R_kl = tr(B_k S(B_l)) for a map S that keeps matrices
Hermitian: it sends the coordinates x_k = tr(B_k rho) of rho to those of its
image.  The oracle takes its column-stacked matrix there by real_map; the
product formula's components are built in B directly
(trotter.prepare_components).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import dagger, expm, frobenius, frozen_copy, read_only_state, trace_norm
from .sud import GellMannBasis, gell_mann_basis


class LindbladError(ValueError):
    pass


# eigenvalues of A at or below this share of the largest are roundoff zeros
EIGEN_CUTOFF = 1e-12


def _require_hermitian(X: np.ndarray, name: str) -> None:
    """Refuse X unless ||X - X†||_F <= 1e-10 max(1, ||X||_F); the difference
    is formed from halves, which cannot overflow.  An X that equals X† entry by
    entry passes without the two norms; NaN never equals itself, so it takes the
    norms, and the callers refuse non-finite X first."""
    if (X == dagger(X)).all():
        return
    if 2.0 * frobenius(0.5 * X - 0.5 * dagger(X)) > 1e-10 * max(1.0, frobenius(X)):
        raise LindbladError(f"{name} is not Hermitian within tolerance")


@dataclass(frozen=True, eq=False)
class GksGenerator:
    """Generator data (H, A) over a fixed Gell-Mann basis.

    A generator cannot change: H and A are read-only copies of the arrays it is given,
    and the basis matrices are read-only, in a deep copy or an unpickled copy too
    (numerics.read_only_state).  eigenpairs holds A's eigenvalues, descending,
    and its eigenvectors in the columns of the second array, both read-only, from the one
    numerics.eigh taken here, whose own check is A's one Hermiticity check and whose
    eigenvalues check that A is positive semidefinite.  splits is a slot for what runs
    derive from g, a tuple of one trotter.Record per split of A, spectral first, None
    until its first trotter.build_plan or trotter.prepare_components (trotter.simulate
    calls build_plan), which makes every split at once.
    """

    basis: GellMannBasis
    H: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    eigenpairs: tuple = field(init=False, repr=False)
    splits: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        d, n = self.basis.d, self.basis.n
        H, A = frozen_copy(self.H), frozen_copy(self.A)
        if H.shape != (d, d):
            raise LindbladError(f"H must be {d}x{d}, got {H.shape}")
        if A.shape != (n, n):
            raise LindbladError(f"A must be {n}x{n}, got {A.shape}")
        if not (np.isfinite(H).all() and np.isfinite(A).all()):
            raise LindbladError("H and A must be finite")
        _require_hermitian(H, "H")
        try:
            w, v = numerics.eigh(A)
        except numerics.NumericsError:
            raise LindbladError("A is not Hermitian within tolerance") from None
        scale = max(float(np.max(np.abs(w))), 1e-300)
        if w.min() < -1e-10 * scale:
            raise LindbladError(f"A is not positive semidefinite (min eigenvalue {w.min():.3e})")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "eigenpairs", (w, v))

    __setstate__ = read_only_state

    @property
    def d(self) -> int:
        return self.basis.d


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class QuantumState:
    d: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.d, self.d):
            raise LindbladError(f"state must be {self.d}x{self.d}, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise LindbladError("state must be finite")
        # formed from halves, which cannot overflow; a Python sum of the diagonal
        # overflows to inf or NaN without a warning, and the trace check refuses both
        half = 0.5 * rho
        if 2.0 * frobenius(half - dagger(half)) > 1e-10:
            raise LindbladError("state is not Hermitian within tolerance")
        trace = sum(rho.diagonal().tolist())
        if abs(trace - 1.0) > 1e-10:
            raise LindbladError(f"state trace {trace} is not 1")
        wmin = float(np.linalg.eigvalsh(half + dagger(half)).min())
        if wmin < -1e-9:
            raise LindbladError(f"state has negative eigenvalue {wmin:.3e}")
        object.__setattr__(self, "rho", rho)


def maximally_mixed(d: int) -> QuantumState:
    return QuantumState(d=d, rho=np.eye(d, dtype=complex) / d)


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
    with np.errstate(over="ignore", invalid="ignore"):  # GksGenerator refuses what overflows
        for gamma, L in g.terms:
            c0 = np.trace(L) / g.d
            Ltl = L - c0 * np.eye(g.d)
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
    w, v = g.eigenpairs
    scale = float(np.max(np.abs(w)))
    return [(float(lam), v[:, i]) for i, lam in enumerate(w)
            if lam > EIGEN_CUTOFF * scale and lam > 0.0]


def hamiltonian_superoperator(H: np.ndarray) -> np.ndarray:
    """Matrix of rho -> i[rho, H]."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    eye = np.eye(d)
    return 1j * (np.kron(H.T, eye) - np.kron(eye, H))


def dissipator_superoperator(A: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Matrix of rho -> sum_lk A_lk (F_l rho F_k† - (1/2){F_k† F_l, rho}) over the operator
    stack ops = (F_1, ..., F_n) of shape (n, d, d)."""
    F = np.asarray(ops, dtype=complex)
    n, d = F.shape[0], F.shape[-1]
    # F_l rho F_k†  ->  kron(conj F_k, F_l); with the column-stacked index
    # (col*d + row) the row axes are (a=out col, i=out row) and the column
    # axes (b=in col, j=in row).  Both contractions are BLAS products over the
    # operators flattened to rows of d^2: B = A conj(F), then B^T F, whose
    # (a b),(i j) entries are reordered to (a i),(b j).
    flat = F.reshape(n, d * d)
    B = np.asarray(A, dtype=complex) @ np.conj(flat)
    S = (B.T @ flat).reshape(d, d, d, d).swapaxes(1, 2).reshape(d * d, d * d)
    Phi = np.einsum("lai,laj->ij", B.reshape(F.shape), F)  # sum_lk A_lk F_k† F_l
    eye = np.eye(d)  # {Phi, rho} -> kron(Phi^T, I) + kron(I, Phi)
    return S - 0.5 * (np.kron(Phi.T, eye) + np.kron(eye, Phi))


def liouvillian_matrix(g: GksGenerator) -> np.ndarray:
    """Full d^2 x d^2 generator matrix: Hamiltonian commutator plus dissipator.

    A generator whose matrix overflows is refused, not returned with inf entries.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        S = hamiltonian_superoperator(g.H) + dissipator_superoperator(g.A, g.basis.matrices)
    if not np.isfinite(S).all():
        raise LindbladError("the generator matrix overflows")
    return S


@functools.cache
def hermitian_basis(d: int) -> np.ndarray:
    """The orthonormal Hermitian basis B = (I / sqrt(d), F_1, ..., F_{d^2-1}) of d x d
    matrices, F_a the Gell-Mann basis, as a read-only (d^2, d, d) stack."""
    B = np.concatenate([np.eye(d)[None] / math.sqrt(d), gell_mann_basis(d).matrices])
    B.setflags(write=False)
    return B


def real_map(S: np.ndarray) -> np.ndarray:
    """The real matrix R = (T S T†).real of a column-stacked d^2 x d^2 map S that keeps
    matrices Hermitian, or of each in a stack (..., d^2, d^2).

    T is the unitary whose rows are vec(B_k)†, B = hermitian_basis(d); as B_k is
    Hermitian, that row is B_k read row by row.  R_kl = tr(B_k S(B_l)) is a trace
    of two Hermitian matrices, real up to rounding, which .real drops.
    """
    d = math.isqrt(S.shape[-1])
    T = hermitian_basis(d).reshape(d * d, d * d)
    return np.ascontiguousarray((T @ S @ dagger(T)).real)


def evolve(R: np.ndarray, rho0: QuantumState) -> QuantumState:
    """The state sum_k x'_k B_k of a real d^2 x d^2 map R, with x' = R x and
    x_k = tr(B_k rho0) the coordinates of rho0 in B = hermitian_basis(d): with T as
    in real_map, x = T vec(rho0) and the state's rows are those of x'^T T."""
    d = rho0.d
    T = hermitian_basis(d).reshape(d * d, d * d)
    x = (T @ rho0.rho.reshape(-1, order="F")).real
    return QuantumState(d=d, rho=((R @ x) @ T).reshape(d, d))


def apply_exact(g: GksGenerator, rho0: QuantumState, t: float) -> QuantumState:
    """Exact channel exp(tL), projected onto trace-preserving maps against
    the squarings' rounding, applied to rho0."""
    if not 0 <= t < math.inf:  # written so that NaN fails too
        raise LindbladError(f"time must be finite and non-negative, got {t}")
    if rho0.d != g.d:
        raise LindbladError(f"state has d = {rho0.d} but the generator has d = {g.d}")
    with np.errstate(over="ignore"):  # expm refuses the non-finite entries of an overflow
        tL = t * real_map(liouvillian_matrix(g))
    return evolve(trace_preserving(expm(tL)), rho0)


def trace_preserving(R: np.ndarray) -> np.ndarray:
    """The projection of a real d^2 x d^2 map R onto trace-preserving maps: R' is R with
    row 0 set to e0^T.  The trace of rho is sqrt(d) x_0, so a map keeps it exactly
    when its row 0 is e0^T.

    For any trace-preserving map E, R' - E = P (R - E) with P = I - e0 e0^T an
    orthogonal projection: R' is no farther from E than R in the 2-norm,
    and E itself is left as it is.
    """
    out = np.array(R)
    out[0] = 0.0
    out[0, 0] = 1.0
    return out


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
    total = 0.0
    if np.any(g.H):
        w = np.linalg.eigvalsh(g.H)
        total = float(w[-1]) - float(w[0])
    for gamma, L in g.terms:
        s = float(np.linalg.svd(L, compute_uv=False)[0])  # ||L||_op, as np.linalg.norm(L, 2)
        total += 2.0 * gamma * s * s
    return total


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * trace_norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
