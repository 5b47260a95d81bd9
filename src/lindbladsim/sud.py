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

import functools
from dataclasses import dataclass, field

import numpy as np

from .numerics import frozen_copy, is_unitary


class SudError(ValueError):
    pass


def pair_order(d: int) -> list[tuple[int, int]]:
    """Lexicographic (j, k) pairs with 1 <= j < k <= d (1-based)."""
    return [(j, k) for j in range(1, d) for k in range(j + 1, d + 1)]


def pair_index(d: int, j: int, k: int) -> int:
    """Position of (j, k) in pair_order(d): rows 1 .. j-1 hold (j-1)(2d-j)/2 pairs."""
    if not 1 <= j < k <= d:
        raise SudError(f"pair ({j}, {k}) out of range for d={d}")
    return (j - 1) * (2 * d - j) // 2 + (k - j - 1)


@dataclass(frozen=True, eq=False)
class GellMannBasis:
    """Ordered orthonormal Hermitian traceless basis of d x d matrices, kept as a
    read-only copy."""

    d: int
    matrices: np.ndarray = field(repr=False)  # shape (d^2 - 1, d, d)

    def __post_init__(self):
        object.__setattr__(self, "matrices", frozen_copy(self.matrices))

    @property
    def n(self) -> int:
        return self.d * self.d - 1

    def index_y(self, j: int, k: int) -> int:
        return self.d - 1 + self.d * (self.d - 1) // 2 + pair_index(self.d, j, k)


@functools.cache
def gell_mann_basis(d: int) -> GellMannBasis:
    """The basis of dimension d, one read-only instance per d."""
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
