"""Dense linear-algebra kernel.

Everything else in the package funnels its matrix work through the three
routines here: a matrix exponential, a Hermitian eigendecomposition with a
deterministic ordering/phase convention, and the trace norm.  All functions
are pure and operate on plain ``numpy`` arrays, and all run on numpy's BLAS
and LAPACK alone.  A real matrix stays real.

The exponential is one ladder of Taylor polynomials of degree m in
{2, 4, 6, 9, 12, 16}, with the bounds theta_m of Al-Mohy and Higham,
"Computing the action of the matrix exponential", SIAM J. Sci. Comput. 33
(2011) 488, Table 3.1, each evaluated by Paterson-Stockmeyer in 1 to 6
products and no solve.  A matrix takes the lowest rung whose theta_m covers
||A||_1; beyond theta_16 = 0.78 it is scaled by 2^-s,
s = ceil(log2(||A||_1 / theta_16)), onto the degree-16 rung, and the
polynomial squared s times.
"""

import math
from collections import defaultdict

import numpy as np


class NumericsError(ValueError):
    """Raised when an input violates a precondition of this module."""


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def _square_stack(m) -> np.ndarray:
    """m as a float64 or complex128 square matrix or stack of them (..., n, n), with
    finite entries; a real input stays real."""
    a = np.asarray(m)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
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


def frozen_copy(m) -> np.ndarray:
    """A read-only complex copy of m."""
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


def read_only_state(obj, state: dict) -> None:
    """__setstate__ of the frozen classes that keep read-only arrays: sets state's
    attributes on obj, a copy or an unpickled object, each array read-only, inside tuples
    too, so that a deep copy or a pickle round trip keeps the arrays as the original
    keeps them."""
    for name, value in state.items():
        object.__setattr__(obj, name, _read_only(value))


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def frobenius(m):
    """Frobenius norm of a matrix, or array of them for a stack (..., n, n), which
    overflows or underflows only when the norm itself does: each matrix is first
    scaled by a power of two 2^-e, which is exact, so that its largest entry
    modulus lies in [1/2, 1)."""
    a = np.asarray(m)
    e = np.frexp(np.maximum.reduce(np.abs(a), axis=(-2, -1), initial=0.0))[1]
    # 2^-e as two factors, neither of which overflows when the entries are subnormal
    half = e // 2
    scaled = a * np.ldexp(1.0, -half)[..., None, None] * np.ldexp(1.0, half - e)[..., None, None]
    # np.linalg.norm's Frobenius sum, without its dispatch; a norm that overflows reads inf
    with np.errstate(over="ignore"):
        norm = np.ldexp(np.sqrt(np.add.reduce((scaled.conj() * scaled).real, axis=(-2, -1))), e)
    return float(norm) if norm.ndim == 0 else norm


# (m, theta_m): for ||A||_1 <= theta_m the degree-m Taylor polynomial's backward error is
# below the unit roundoff 2^-53: theta_m is where sum_(k > m) |c_k| theta^(k-1) = 2^-53, with
# c_k the series coefficients of log(e^-x T_m(x)) (Al-Mohy and Higham 2011, Table 3.1)
TAYLOR_THETA = ((2, 2.580956802e-8), (4, 3.397168839e-4), (6, 9.065656407e-3),
                (9, 8.957760203e-2), (12, 2.996158913e-1), (16, 7.802874256e-1))
# ||A||_1 above 2^24 theta_13 ~ 9.01e7, with theta_13 = 5.37 Higham's bound for the [13/13]
# Pade approximant (SIAM J. Matrix Anal. Appl. 26 (2005) 1179), is refused: up to there
# theta_16 needs at most 27 squarings, and each can double the rounding error.  Against
# a 60-digit reference, the real Liouvillian of random_gks(3, default_rng(3)) scaled to
# ||A||_1 = 8e7 came out 6.3e-10 off, at 1.2e9 9.5e-9 and at 2e15 1.6 %; amplitude
# damping's real channel 1.6e-16 at all three
MAX_EXPM_NORM = 2.0 ** 24 * 5.371920351148152


def _taylor_chunks(m: int) -> np.ndarray:
    """Paterson-Stockmeyer chunks of the degree-m Taylor polynomial, s = ceil(sqrt(m)):
    row q holds the coefficients 1 / (q s + i)! of A^i, i = 1..s, up to A^m."""
    s = math.isqrt(m - 1) + 1
    chunks = np.zeros(((m - 1) // s + 1, s))
    for j in range(1, m + 1):
        chunks[divmod(j - 1, s)] = 1.0 / math.factorial(j)
    return chunks


TAYLOR_CHUNKS = {m: _taylor_chunks(m) for m, _ in TAYLOR_THETA}


def _taylor(a: np.ndarray, m: int, offset: bool = False) -> np.ndarray:
    """Degree-m Taylor polynomial of exp on a stack of matrices, by Paterson-Stockmeyer:
    I plus Horner's rule in A^s over the chunks sum_i c_qi A^i of TAYLOR_CHUNKS[m], all
    formed by one product with the powers A..A^s, in s - 1 + floor((m - 1) / s) products;
    with offset, the polynomial less its constant I."""
    coeffs = TAYLOR_CHUNKS[m]
    s = coeffs.shape[1]
    powers = np.empty((s, *a.shape), dtype=a.dtype)
    powers[0] = a
    for i in range(1, s):
        np.matmul(powers[i - 1], a, out=powers[i])
    chunks = (coeffs @ powers.reshape(s, -1)).reshape(-1, *a.shape)
    p = chunks[-1]
    for chunk in chunks[-2::-1]:
        p = chunk + powers[-1] @ p
    return p if offset else p + np.eye(a.shape[-1])


def _rung_and_squarings(norm: float):
    """Taylor degree and squaring count s for a matrix of 1-norm norm."""
    for degree, theta in TAYLOR_THETA:
        if norm <= theta:
            return degree, 0
    if not norm <= MAX_EXPM_NORM:
        raise NumericsError(f"matrix exponential needs ||A||_1 <= {MAX_EXPM_NORM:.2e}, "
                            f"got {norm:.3e}")
    degree, theta = TAYLOR_THETA[-1]
    return degree, math.ceil(math.log2(norm / theta))


def expm(m, offset: bool = False) -> np.ndarray:
    """Matrix exponential: the lowest Taylor rung that covers ||A||_1, past
    theta_16 the degree-16 rung with scaling and squaring (Al-Mohy and Higham
    2011).

    Accepts one square real or complex matrix with finite entries, or a stack
    of them of shape (..., n, n), and returns a real result for a real input;
    the slices that share a rung and squaring count are computed together.
    A matrix with ||A||_1 above MAX_EXPM_NORM, and a result that overflows,
    raise NumericsError.  With offset it returns e^A - I, formed without I: the
    rung less its constant, each squaring of e^A = I + Y as 2 Y + Y^2.  Near the
    identity, where I would round Y's entries to a unit of 1, they keep their
    own relative precision (Higham, "Functions of Matrices", SIAM 2008).
    """
    a = _square_stack(m)
    stack = a.reshape(-1, *a.shape[-2:])
    out = np.empty_like(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        groups = defaultdict(list)
        for i, norm in enumerate(np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)):
            groups[_rung_and_squarings(float(norm))].append(i)
        whole = len(groups) == 1  # one rung and s for every slice: no gather and scatter copies
        for (degree, s), slices in groups.items():
            x = _taylor(np.multiply(stack if whole else stack[slices], 2.0 ** -s, order="C"),
                        degree, offset)
            for _ in range(s):
                x = 2.0 * x + x @ x if offset else x @ x
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
    a = _square_stack(m).astype(complex, copy=False)
    # ||a - a†||_F <= 1e-10 ||a||_F, with the difference formed from halves, which cannot
    # overflow
    residual, norm = frobenius(np.stack([0.5 * a - 0.5 * dagger(a), a]))
    if (residual > 0.5e-10 * np.maximum(norm, 1e-300)).any():
        raise NumericsError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    # LAPACK returns w ascending, so w reversed is w descending; the columns of v take
    # the stable descending order, which keeps equal eigenvalues in LAPACK's order
    n = a.shape[-1]
    order = np.argsort(-w, axis=-1, kind="stable").reshape(-1, 1, n)
    stack = np.arange(order.shape[0])[:, None, None]
    v = v.reshape(-1, n, n)[stack, np.arange(n)[:, None], order]
    pivot = v[stack[..., 0], np.argmax(np.abs(v), axis=-2), np.arange(n)]
    # eigenvectors are unit columns, so no pivot is zero
    v = v * (np.conj(pivot) / np.abs(pivot))[:, None, :]
    return w[..., ::-1], v.reshape(a.shape)


def trace_norm(m) -> float:
    """Sum of singular values."""
    a = _square_matrix(m)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def is_unitary(u) -> bool:
    a = _square_matrix(u)
    return frobenius(dagger(a) @ a - np.eye(a.shape[0])) <= 1e-10 * a.shape[0]
