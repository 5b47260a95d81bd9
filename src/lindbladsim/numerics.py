"""Dense complex linear-algebra kernel.

Everything else in the package funnels its matrix work through the three
routines here: a matrix exponential, a Hermitian eigendecomposition with a
deterministic ordering/phase convention, and the trace norm.  All functions
are pure and operate on plain ``numpy`` arrays.
"""

import math

import numpy as np
import scipy.linalg


class NumericsError(ValueError):
    """Raised when an input violates a precondition of this module."""


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NumericsError(f"expected a matrix, got array of ndim {a.ndim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise NumericsError("matrix contains non-finite entries")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise NumericsError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).T


def frobenius(m) -> float:
    """Frobenius norm, which overflows only when the norm itself does: m is
    first scaled by a power of two, which is exact, to parts below 1."""
    a = np.asarray(m)
    top = max(np.max(np.abs(a.real), initial=0.0), np.max(np.abs(a.imag), initial=0.0))
    unit = 2.0 ** -max(math.frexp(top)[1], 0)
    return float(np.linalg.norm(a * unit)) / unit


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade core.

    Accepts any square complex matrix with finite entries.
    """
    a = _require_square(_as_matrix(m))
    out = scipy.linalg.expm(a)
    if not (np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))):
        raise NumericsError("matrix exponential overflowed to non-finite values")
    return out


def eigh(m):
    """Eigendecomposition of a Hermitian matrix with fixed conventions.

    Returns ``(w, v)`` with real eigenvalues ``w`` sorted in descending
    order and eigenvectors in the columns of ``v``.  Each eigenvector is
    rephased so that its first component of largest modulus is real and
    non-negative, which makes repeated calls on identical input
    bit-identical and keeps downstream decompositions deterministic.
    """
    a = _require_square(_as_matrix(m))
    scale = frobenius(a)
    if frobenius(a - dagger(a)) > 1e-10 * max(scale, 1e-300):
        raise NumericsError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    v = fix_eigenvector_phases(v)
    return w, v


def fix_eigenvector_phases(v: np.ndarray) -> np.ndarray:
    """Rephase each column so its largest-modulus entry (first such, in row
    order) is real and non-negative."""
    v = np.array(v, dtype=complex)
    for j in range(v.shape[1]):
        col = v[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0.0:
            v[:, j] = col * (np.conj(pivot) / abs(pivot))
    return v


def trace_norm(m) -> float:
    """Sum of singular values, computed from the spectrum of ``m† m``."""
    a = _require_square(_as_matrix(m))
    w = np.linalg.eigvalsh(dagger(a) @ a)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def is_unitary(u) -> bool:
    a = _require_square(_as_matrix(u))
    return frobenius(dagger(a) @ a - np.eye(a.shape[0])) <= 1e-10 * a.shape[0]
