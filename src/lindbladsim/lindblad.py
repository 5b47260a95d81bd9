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
import os
from concurrent.futures import ThreadPoolExecutor
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


def _require_hermitian(X: np.ndarray, name: str) -> None:
    """Refuse X unless ||X - X†||_F <= 1e-10 max(1, ||X||_F).

    Both sides are evaluated on X scaled by a power of two at or above its
    largest real or imaginary part, so neither norm overflows; a power of
    two scales exactly, so the answer is the unscaled test's wherever the
    unscaled norms are finite.
    """
    top = max(np.max(np.abs(X.real), initial=1.0), np.max(np.abs(X.imag), initial=1.0))
    unit = 2.0 ** -math.frexp(top)[1]
    Xs = X * unit
    if frobenius(Xs - dagger(Xs)) > 1e-10 * max(unit, frobenius(Xs)):
        raise LindbladError(f"{name} is not Hermitian within tolerance")


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
    S = np.einsum("lk,kba,lij->aibj", A, F, F).reshape(d * d, d * d)
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


def _ascend(M: np.ndarray, Mdag: np.ndarray, psi: np.ndarray, phi: np.ndarray) -> float:
    """Largest value among the starts (psi, phi) of one_one_norm's
    alternating maximization, all advanced as one batch; each start leaves
    the batch at its own tolerance, so its arithmetic does not depend on
    which other starts share the batch.  Overwrites psi and phi."""
    n, d = psi.shape
    val = np.zeros(n)
    live = np.arange(n)
    for _ in range(NORM_ITERS):
        # row s of X is vec(psi_s phi_s†), its factors in np.outer's order; a
        # stacked matmul on contiguous columns reproduces M @ v bit for bit
        X = (psi[live, None, :] * np.conj(phi[live])[:, :, None]).reshape(-1, d * d)
        Y = np.matmul(M, X[:, :, None]).reshape(-1, d, d).transpose(0, 2, 1)
        u, _, vh = np.linalg.svd(Y)
        W = (u @ vh).transpose(0, 2, 1).reshape(-1, d * d)
        # tr(W† S(psi phi†)) = vec(W)† M (conj(phi) kron psi) = phi† K psi
        K = np.conj(np.matmul(Mdag, W[:, :, None]).reshape(-1, d, d))
        uu, ss, vvh = np.linalg.svd(K)
        new = ss[:, 0]
        phi[live], psi[live] = uu[:, :, 0], np.conj(vvh[:, 0, :])
        done = np.abs(new - val[live]) <= NORM_TOL * np.maximum(1.0, new)
        val[live] = new
        live = live[~done]
        if live.size == 0:
            break
    return float(val.max())


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def one_one_norm(S: np.ndarray) -> float:
    """Estimate of the (1->1) norm sup_{||X||_1 = 1} ||S(X)||_1.

    The supremum is attained on rank-one extreme points |psi><phi| of the
    unit trace-norm ball, so we maximize ||S(|psi><phi|)||_1 by alternating
    two exact partial maximizations: for fixed (psi, phi) the optimal dual
    unitary W of the trace norm is the polar factor of S(|psi><phi|), and
    for fixed W the best (psi, phi) is the top singular pair of the matrix
    K with tr(W† S(|psi><phi|)) = phi† K psi.  Multi-start with a generator
    seeded by NORM_SEED keeps the result deterministic.  The converged
    maximum is a value attained by some input, so it is a lower bound on
    the norm; the factor NORM_SAFETY lifts it by a heuristic margin, not a
    proven one.  S is a d^2 x d^2 matrix acting on column-stacked d x d
    matrices.

    All starts advance as one batch, each leaving it at its own tolerance,
    so the estimate is bit for bit that of running them one at a time.  At
    d >= 4, when the process may run on at least two CPUs, the even and
    the odd starts run as two batches on two threads (numpy's batched SVD
    releases the interpreter lock), with the same bits.
    """
    M = np.asarray(S, dtype=complex)
    d = math.isqrt(M.shape[0])
    if M.shape != (d * d, d * d):
        raise LindbladError(f"superoperator must be d^2 x d^2, got {M.shape}")
    if not np.isfinite(M).all():
        raise LindbladError("superoperator must be finite")
    if frobenius(M) == 0.0:
        return 0.0
    rng = np.random.default_rng(NORM_SEED)
    Mdag = dagger(M)
    # structured starts: computational-basis dyads e_i e_j† in (i, j) order,
    # then NORM_STARTS random unit pairs
    n = d * d + NORM_STARTS
    psi, phi = np.zeros((2, n, d), dtype=complex)
    psi[:d * d] = np.repeat(np.eye(d), d, axis=0)
    phi[:d * d] = np.tile(np.eye(d), (d, 1))
    for s in range(d * d, n):
        p = rng.normal(size=d) + 1j * rng.normal(size=d)
        q = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi[s], phi[s] = p / np.linalg.norm(p), q / np.linalg.norm(q)
    # below d = 4, or on one CPU, a second thread measured slower; the
    # interleaved halves share out the slow starts, and an executor per
    # call leaves no thread behind it
    if d < 4 or _usable_cpus() < 2:
        return _ascend(M, Mdag, psi, phi) * NORM_SAFETY
    with ThreadPoolExecutor(max_workers=1) as worker:
        odd = worker.submit(_ascend, M, Mdag, psi[1::2], phi[1::2])
        even = _ascend(M, Mdag, psi[::2], phi[::2])
        return max(even, odd.result()) * NORM_SAFETY


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * trace_norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
