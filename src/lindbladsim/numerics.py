"""Dense complex linear-algebra kernel.

Everything else in the package funnels its matrix work through the three
routines here: a matrix exponential, a Hermitian eigendecomposition with a
deterministic ordering/phase convention, and the trace norm.  All functions
are pure and operate on plain ``numpy`` arrays, and all run on numpy's BLAS
and LAPACK alone.

The exponential is the scaling and squaring method of Higham, "The scaling
and squaring method for the matrix exponential revisited", SIAM J. Matrix
Anal. Appl. 26 (2005) 1179: the [q/q] Pade approximant of degree
q in {3, 5, 7, 9, 13} is the lowest whose bound theta_q covers ||A||_1;
beyond theta_13 the matrix is scaled by 2^-s, s = ceil(log2(||A||_1 / theta_13)),
and the approximant squared s times.
"""

import math
from collections import defaultdict

import numpy as np


class NumericsError(ValueError):
    """Raised when an input violates a precondition of this module."""


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def _square_stack(m) -> np.ndarray:
    """m as a complex square matrix or stack of them (..., n, n), with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise NumericsError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.shape[-2] != a.shape[-1]:
        raise NumericsError(f"expected square matrices, got shape {a.shape}")
    if not _all_finite(a):
        raise NumericsError("matrix contains non-finite entries")
    return a


def _square_matrix(m) -> np.ndarray:
    a = _square_stack(m)
    if a.ndim != 2:
        raise NumericsError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., n, n)."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def frobenius(m):
    """Frobenius norm of a matrix, or array of them for a stack (..., n, n), which
    overflows only when the norm itself does: each matrix is first scaled by
    a power of two, which is exact, to entries of modulus below 1."""
    a = np.asarray(m)
    top = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    unit = np.ldexp(1.0, -np.maximum(np.frexp(top)[1], 0))
    scaled = a * unit[..., None, None]  # np.linalg.norm's Frobenius sum, without its dispatch
    norm = np.sqrt(np.add.reduce((scaled.conj() * scaled).real, axis=(-2, -1))) / unit
    return float(norm) if norm.ndim == 0 else norm


# (q, theta_q): for ||A||_1 <= theta_q the [q/q] Pade approximant's backward error is
# below the unit roundoff
PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
              (9, 2.097847961257068e0), (13, 5.371920351148152e0))
PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# more squarings than this, ||A||_1 > 2^24 theta_13 ~ 9.0e7, are refused: each squaring
# can double the rounding error.  Against a 60-digit reference, amplitude damping's
# channel came out 1.9e-9 off at ||A||_1 = 8e7, 3e-8 at 1.2e9 and 6 % at 2e15
MAX_SQUARINGS = 24
MAX_EXPM_NORM = 2.0 ** MAX_SQUARINGS * PADE_THETA[-1][1]


def _degree_and_squarings(norm: float) -> tuple[int, int]:
    """Pade degree q and squaring count s for a matrix of 1-norm norm."""
    for q, theta in PADE_THETA:
        if norm <= theta:
            return q, 0
    if not norm <= MAX_EXPM_NORM:
        raise NumericsError(f"matrix exponential needs ||A||_1 <= {MAX_EXPM_NORM:.2e}, "
                            f"got {norm:.3e}")
    return 13, math.ceil(math.log2(norm / PADE_THETA[-1][1]))


def _pade(a: np.ndarray, q: int) -> np.ndarray:
    """[q/q] Pade approximant of exp on a stack of matrices: (V - U)^-1 (V + U),
    with U the odd and V the even part of the numerator."""
    b = PADE_COEFFS[q]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if q == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 \
            + b[0] * eye
    else:
        powers = [eye, a2]  # A^0, A^2, ..., A^(q-1)
        while len(powers) <= q // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
        v = sum(b[2 * j] * p for j, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade core (Higham 2005).

    Accepts one square complex matrix with finite entries, or a stack of
    them of shape (..., n, n); the slices that share a Pade degree and
    squaring count are computed together.  A matrix with ||A||_1 above
    MAX_EXPM_NORM, and a result that overflows, raise NumericsError.
    """
    a = _square_stack(m)
    stack = a.reshape(-1, *a.shape[-2:])
    out = np.empty_like(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        groups = defaultdict(list)
        for i, norm in enumerate(np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)):
            groups[_degree_and_squarings(float(norm))].append(i)
        whole = len(groups) == 1  # one (q, s) for every slice: no gather and scatter copies
        for (q, s), slices in groups.items():
            x = _pade(np.multiply(stack if whole else stack[slices], 2.0 ** -s, order="C"), q)
            for _ in range(s):
                x = x @ x
            if whole:
                out = x
            else:
                out[slices] = x
    if not _all_finite(out):
        raise NumericsError("matrix exponential overflowed to non-finite values")
    return out.reshape(a.shape)


def eigh(m):
    """Eigendecomposition of a Hermitian matrix, or of each of a stack (..., n, n).

    Returns ``(w, v)`` with real eigenvalues ``w`` sorted in descending
    order and eigenvectors in the columns of ``v``.  Each eigenvector is
    rephased so that its first component of largest modulus is real and
    non-negative, which makes repeated calls on identical input
    bit-identical and keeps downstream decompositions deterministic.
    """
    a = _square_stack(m)
    if np.any(frobenius(a - dagger(a)) > 1e-10 * np.maximum(frobenius(a), 1e-300)):
        raise NumericsError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    # eigenvectors are unit columns, so no pivot is zero
    return w, v * (np.conj(pivot) / np.abs(pivot))


def trace_norm(m) -> float:
    """Sum of singular values."""
    a = _square_matrix(m)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def is_unitary(u) -> bool:
    a = _square_matrix(u)
    return frobenius(dagger(a) @ a - np.eye(a.shape[0])) <= 1e-10 * a.shape[0]
