"""Generalized Gell-Mann basis of su(d) and its adjoint representation.

The basis consists of d^2 - 1 Hermitian traceless matrices F_a normalized to
tr(F_a F_b) = delta_ab, ordered as

    diagonal  D_l = (|1><1| + ... + |l><l| - l |l+1><l+1|) / sqrt(l(l+1)),
              for l = 1 .. d-1,
    sigma_x   (|j><k| + |k><j|) / sqrt(2)      for pairs j < k, lexicographic,
    sigma_y   (-i|j><k| + i|k><j|) / sqrt(2)   for pairs j < k, lexicographic.

With this normalization {iF_a} is a basis of su(d), and the coordinate map
f(X)_a = -i tr(F_a X) identifies su(d) with R^(d^2-1).  Conjugation by a
unitary U acts on coordinates through the real orthogonal matrix

    G(U)_ab = tr(F_a U F_b U†),       f(U X U†) = G(U) f(X),

the adjoint representation of SU(d).  Its generators are the structure
constant matrices: for U = exp(i sum_g r_g F_g),  G(U) = exp(sum_g r_g K_g)
with (K_g)_ab = f_gab.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import dagger, frobenius, is_unitary


class SudError(ValueError):
    pass


def pair_order(d: int) -> list[tuple[int, int]]:
    """Lexicographic (j, k) pairs with 1 <= j < k <= d (1-based)."""
    return [(j, k) for j in range(1, d) for k in range(j + 1, d + 1)]


@dataclass(frozen=True)
class GellMannBasis:
    """Ordered orthonormal Hermitian traceless basis of d x d matrices."""

    d: int
    matrices: np.ndarray = field(repr=False)  # shape (d^2 - 1, d, d)

    @property
    def n(self) -> int:
        return self.d * self.d - 1

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, a: int) -> np.ndarray:
        return self.matrices[a]

    def index_diag(self, l: int) -> int:
        """Index of D_l, l = 1 .. d-1."""
        if not 1 <= l <= self.d - 1:
            raise SudError(f"diagonal index {l} out of range for d={self.d}")
        return l - 1

    def index_x(self, j: int, k: int) -> int:
        return self.d - 1 + pair_order(self.d).index((j, k))

    def index_y(self, j: int, k: int) -> int:
        return self.d - 1 + self.d * (self.d - 1) // 2 + pair_order(self.d).index((j, k))


def gell_mann_basis(d: int) -> GellMannBasis:
    if d < 2:
        raise SudError(f"dimension must be >= 2, got {d}")
    mats = []
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -l
        mats.append(m / np.sqrt(l * (l + 1)))
    pairs = pair_order(d)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j - 1, k - 1] = 1.0
        m[k - 1, j - 1] = 1.0
        mats.append(m / np.sqrt(2.0))
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j - 1, k - 1] = -1.0j
        m[k - 1, j - 1] = 1.0j
        mats.append(m / np.sqrt(2.0))
    return GellMannBasis(d=d, matrices=np.stack(mats))


def structure_constants(basis: GellMannBasis) -> np.ndarray:
    """Real antisymmetric tensor f with [F_g, F_a] = i sum_b f_gab F_b.

    Computed as f_gab = -i tr([F_g, F_a] F_b), returned dense with shape
    (n, n, n).
    """
    F = basis.matrices
    prod = np.einsum("gij,ajk->gaik", F, F)
    comm = prod - np.transpose(prod, (1, 0, 2, 3))
    f = -1j * np.einsum("gaik,bki->gab", comm, F)
    if np.max(np.abs(f.imag)) > 1e-12:
        raise SudError("structure constants acquired an imaginary part")
    return f.real


def to_vector(x, basis: GellMannBasis) -> np.ndarray:
    """Coordinates of X = sum_a x_a (i F_a); real for anti-Hermitian X."""
    a = np.asarray(x, dtype=complex)
    if a.shape != (basis.d, basis.d):
        raise SudError(f"expected a {basis.d}x{basis.d} matrix, got {a.shape}")
    if abs(np.trace(a)) > 1e-10 * max(1.0, frobenius(a)):
        raise SudError("matrix has a nonzero trace")
    vec = -1j * np.einsum("gij,ji->g", basis.matrices, a)
    if frobenius(a + dagger(a)) <= 1e-12 * max(1.0, frobenius(a)):
        return vec.real
    return vec


def from_vector(x, basis: GellMannBasis) -> np.ndarray:
    """Inverse coordinate map: sum_a x_a (i F_a)."""
    v = np.asarray(x)
    if v.shape != (basis.n,):
        raise SudError(f"expected a vector of length {basis.n}, got shape {v.shape}")
    return 1j * np.einsum("g,gij->ij", v, basis.matrices)


def adjoint_matrix(u, basis: GellMannBasis) -> np.ndarray:
    """Adjoint-representation matrix G(U)_ab = tr(F_a U F_b U†).

    G is real orthogonal with det +1, satisfies f(U X U†) = G f(X), and
    G(U)^T = G(U†).  The determinant phase of U is irrelevant.
    """
    U = np.asarray(u, dtype=complex)
    if U.shape != (basis.d, basis.d):
        raise SudError(f"expected a {basis.d}x{basis.d} unitary, got {U.shape}")
    if not is_unitary(U):
        raise SudError("matrix is not unitary within tolerance")
    conj = np.einsum("ij,bjk,lk->bil", U, basis.matrices, np.conj(U))
    g = np.einsum("aij,bji->ab", basis.matrices, conj)
    if np.max(np.abs(g.imag)) > 1e-10:
        raise SudError("adjoint matrix acquired an imaginary part")
    return g.real


def adjoint_generator(f: np.ndarray, r) -> np.ndarray:
    """Generator sum_g r_g K_g of the adjoint rotation, (K_g)_ab = f_gab.

    exp of this matrix equals adjoint_matrix(exp(i sum_g r_g F_g)); kept as
    an independent construction path for cross-checks.
    """
    r = np.asarray(r, dtype=float)
    return np.einsum("g,gab->ab", r, f)
