"""Dense linear-algebra kernel.

Everything else in the package funnels its matrix work through the three
routines here: a matrix exponential, a Hermitian eigendecomposition with a
deterministic ordering/phase convention, and the trace norm.  All functions
are pure and operate on plain ``numpy`` arrays, and all run on numpy's BLAS
and LAPACK alone.  A real matrix stays real.

The exponential takes the lowest rung of one ladder that covers ||A||_1.
Up to theta_16 = 0.78 the rungs are Taylor polynomials of degree m in
{2, 4, 6, 9, 12, 16}, with the bounds theta_m of Al-Mohy and Higham,
"Computing the action of the matrix exponential", SIAM J. Sci. Comput. 33
(2011) 488, Table 3.1, each evaluated by Paterson-Stockmeyer in 1 to 6
products and no solve.  Above it are the [q/q] Pade rungs q in {7, 9, 13}
of Higham, "The scaling and squaring method for the matrix exponential
revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179; beyond theta_13 the
matrix is scaled by 2^-s, s = ceil(log2(||A||_1 / theta_13)), and the
approximant squared s times.
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
    # np.linalg.norm's Frobenius sum, without its dispatch
    norm = np.ldexp(np.sqrt(np.add.reduce((scaled.conj() * scaled).real, axis=(-2, -1))), e)
    return float(norm) if norm.ndim == 0 else norm


# (m, theta_m): for ||A||_1 <= theta_m the degree-m Taylor polynomial's backward error is
# below the unit roundoff 2^-53: theta_m is where sum_(k > m) |c_k| theta^(k-1) = 2^-53, with
# c_k the series coefficients of log(e^-x T_m(x)) (Al-Mohy and Higham 2011, Table 3.1)
TAYLOR_THETA = ((2, 2.580956802e-8), (4, 3.397168839e-4), (6, 9.065656407e-3),
                (9, 8.957760203e-2), (12, 2.996158913e-1), (16, 7.802874256e-1))
# (q, theta_q): the same for the [q/q] Pade approximant (Higham 2005); the rungs below
# theta_16 are Taylor's, which need no solve
PADE_THETA = ((7, 9.504178996162932e-1), (9, 2.097847961257068e0), (13, 5.371920351148152e0))
PADE_COEFFS = {
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


def _taylor_chunks(m: int) -> np.ndarray:
    """Paterson-Stockmeyer chunks of the degree-m Taylor polynomial, s = ceil(sqrt(m)):
    row q holds the coefficients 1 / (q s + i)! of A^i, i = 1..s, up to A^m."""
    s = math.isqrt(m - 1) + 1
    chunks = np.zeros(((m - 1) // s + 1, s))
    for j in range(1, m + 1):
        chunks[divmod(j - 1, s)] = 1.0 / math.factorial(j)
    return chunks


TAYLOR_CHUNKS = {m: _taylor_chunks(m) for m, _ in TAYLOR_THETA}


def _taylor(a: np.ndarray, m: int) -> np.ndarray:
    """Degree-m Taylor polynomial of exp on a stack of matrices, by Paterson-Stockmeyer:
    I plus Horner's rule in A^s over the chunks sum_i c_qi A^i of TAYLOR_CHUNKS[m], all
    formed by one product with the powers A..A^s, in s - 1 + floor((m - 1) / s) products."""
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
    return p + np.eye(a.shape[-1])


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


# the rungs (core, degree, theta) in ascending theta
RUNGS = tuple((_taylor, m, theta) for m, theta in TAYLOR_THETA) + tuple(
    (_pade, q, theta) for q, theta in PADE_THETA)


def _rung_and_squarings(norm: float):
    """Core, degree and squaring count s for a matrix of 1-norm norm."""
    for core, degree, theta in RUNGS:
        if norm <= theta:
            return core, degree, 0
    if not norm <= MAX_EXPM_NORM:
        raise NumericsError(f"matrix exponential needs ||A||_1 <= {MAX_EXPM_NORM:.2e}, "
                            f"got {norm:.3e}")
    return _pade, 13, math.ceil(math.log2(norm / PADE_THETA[-1][1]))


def expm(m) -> np.ndarray:
    """Matrix exponential: a Taylor rung for ||A||_1 <= theta_16, else Pade with
    scaling and squaring (Higham 2005).

    Accepts one square real or complex matrix with finite entries, or a stack
    of them of shape (..., n, n), and returns a real result for a real input;
    the slices that share a rung and squaring count are computed together.
    A matrix with ||A||_1 above MAX_EXPM_NORM, and a result that overflows,
    raise NumericsError.
    """
    a = _square_stack(m)
    stack = a.reshape(-1, *a.shape[-2:])
    out = np.empty_like(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        groups = defaultdict(list)
        for i, norm in enumerate(np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)):
            groups[_rung_and_squarings(float(norm))].append(i)
        whole = len(groups) == 1  # one rung and s for every slice: no gather and scatter copies
        for (core, degree, s), slices in groups.items():
            x = core(np.multiply(stack if whole else stack[slices], 2.0 ** -s, order="C"), degree)
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
