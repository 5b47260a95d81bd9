import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gks
from lindbladsim.lindblad import (dissipator_superoperator, hamiltonian_superoperator,
                                  liouvillian_matrix, real_map)
from lindbladsim.numerics import (MAX_EXPM_NORM, TAYLOR_THETA, NumericsError, dagger, eigh, expm,
                                  frobenius, is_unitary, trace_norm)

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def test_expm_zero_is_identity():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_expm_diagonal():
    out = expm(np.diag([0.3, -1.2 + 0.5j]))
    assert np.allclose(out, np.diag(np.exp([0.3, -1.2 + 0.5j])), atol=1e-14)


def test_expm_pauli_rotation():
    # closed form: exp(i (pi/2) sigma_y) = cos(pi/2) I + i sin(pi/2) sigma_y
    out = expm(1j * np.pi / 2 * SIGMA_Y)
    assert np.allclose(out, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)


def test_expm_rejects_nonsquare_and_nonfinite():
    with pytest.raises(NumericsError):
        expm(np.zeros((2, 3)))
    with pytest.raises(NumericsError):
        expm(np.array([[np.nan, 0], [0, 0]]))


def test_expm_inverse_pairs(rng):
    for _ in range(10):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m *= 10.0 / np.linalg.norm(m, 2)
        assert frobenius(expm(m) @ expm(-m) - np.eye(5)) < 1e-10


def test_expm_antihermitian_is_unitary(rng):
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m - dagger(m)
        assert is_unitary(expm(m))


def unitary_expm_error(rng, norm):
    """Relative error of expm on i H with ||i H||_2 = norm, against the oracle
    exp(M) = V diag(e^w) V† for normal M = V diag(w) V†."""
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = h + dagger(h)
    m = 1j * h * (norm / np.linalg.norm(h, 2))
    w, v = np.linalg.eigh(-1j * m)
    oracle = v @ np.diag(np.exp(1j * w)) @ dagger(v)
    return frobenius(expm(m) - oracle) / frobenius(oracle)


def test_expm_accuracy_at_large_norm(rng):
    assert unitary_expm_error(rng, 50.0) <= 1e-12


def test_expm_accuracy_at_norm_1e6(rng):
    # a relative rounding u in M moves the phases by u ||M||, in the oracle too
    assert unitary_expm_error(rng, 1e6) <= 2e-15 * 1e6


def scaled_to_one_norm(m, norm):
    return m * (norm / np.max(np.sum(np.abs(m), axis=0)))


# log10 of ||A||_1 from -3 to 3 runs the Taylor rungs of degree 6 to 16, unscaled and with
# up to 11 squarings
@settings(max_examples=60)
@given(st.integers(2, 6), st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_expm_matches_scipy_on_liouvillians(d, log_norm, seed):
    m = scaled_to_one_norm(liouvillian_matrix(random_gks(d, np.random.default_rng(seed))),
                           10.0 ** log_norm)
    ref = scipy.linalg.expm(m)
    assert frobenius(expm(m) - ref) <= 1e-12 * frobenius(ref)


@settings(max_examples=60)
@given(st.integers(1, 36), st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_expm_matches_scipy_on_anti_hermitian(n, log_norm, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = scaled_to_one_norm(1j * (h + dagger(h)), 10.0 ** log_norm)
    ref = scipy.linalg.expm(m)
    assert frobenius(expm(m) - ref) <= 1e-12 * frobenius(ref)


def test_expm_stack_equals_its_slices(rng):
    # norms from 1e-3 to 1e3: slices of different Taylor degrees and squaring counts
    norms = 10.0 ** np.arange(-3.0, 3.5, 0.5)
    stack = np.stack([scaled_to_one_norm(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)),
                                         x) for x in np.concatenate([norms, norms[::-1]])])
    out = expm(stack.reshape(2, -1, 9, 9))
    assert out.shape == (2, len(norms), 9, 9)
    assert all(np.array_equal(x, expm(m)) for x, m in zip(out.reshape(-1, 9, 9), stack))


def test_expm_refuses_norms_beyond_the_squaring_limit(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = 1j * (h + dagger(h))
    u = expm(scaled_to_one_norm(m, 0.999 * MAX_EXPM_NORM))
    # unitary up to the u ||M|| rounding of test_expm_accuracy_at_large_norm
    assert frobenius(dagger(u) @ u - np.eye(4)) <= 2e-15 * MAX_EXPM_NORM
    with pytest.raises(NumericsError, match="needs"):
        expm(scaled_to_one_norm(m, 1.001 * MAX_EXPM_NORM))


def damping_channel(t):
    """Column-stacked exp(tL) of amplitude damping, H = diag(1/2, -1/2) and jump |0><1| at
    rate 1, in closed form: rho_11 relaxes as e^-t into rho_00, and rho_01 as e^(-t/2 - it)."""
    S = np.zeros((4, 4), dtype=complex)  # vec index: column * 2 + row
    S[0, 0], S[0, 3], S[3, 3] = 1.0, -math.expm1(-t), math.exp(-t)
    S[2, 2] = np.exp(complex(-t / 2, -t))
    S[1, 1] = S[2, 2].conjugate()
    return S


@pytest.mark.parametrize("norm", [3.0, 1e3, 1e5, 1e7, 8e7, 0.9 * MAX_EXPM_NORM])
def test_expm_is_exact_to_the_edge_of_its_domain(norm):
    # up to 27 squarings, each of which can double the rounding, yet damping's channel
    # stays within 4e-16 of its closed form up to MAX_EXPM_NORM
    L = np.array([[0.0, 1.0], [0.0, 0.0]])
    R = real_map(hamiltonian_superoperator(np.diag([0.5, -0.5]))
                 + dissipator_superoperator(np.array([[1.0]]), L[None]))
    t = norm / np.abs(R).sum(axis=0).max()
    ref = real_map(damping_channel(t))
    assert frobenius(expm(t * R) - ref) <= 1e-13 * frobenius(ref)


def test_expm_never_solves(monkeypatch, rng):
    def no_solve(*args, **kwargs):
        raise AssertionError("expm called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    liouvillian = liouvillian_matrix(random_gks(3, rng))
    norms = np.geomspace(1e-9, 0.999 * MAX_EXPM_NORM, 35)
    for m in (1j * (h + dagger(h)), liouvillian, real_map(liouvillian)):
        stack = np.stack([scaled_to_one_norm(m, x) for x in norms])
        assert np.isfinite(expm(stack)).all()
        assert all(np.isfinite(expm(a)).all() for a in stack)


@pytest.mark.parametrize("m", [800.0 * np.eye(3), 1e300 * np.ones((3, 3))],
                         ids=["overflowing-result", "huge-norm"])
def test_expm_overflow_is_an_error_not_a_warning(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError):
            expm(m)


def test_eigh_diagonal_descending():
    w, v = eigh(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0], atol=0)
    assert np.allclose(np.abs(v), np.eye(3)[:, ::-1], atol=1e-14)


def test_eigh_sigma_x_hand_solved():
    # by hand: sigma_x (1, +-1)^T / sqrt(2) = +-1 * (1, +-1)^T / sqrt(2)
    w, v = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0], atol=1e-14)
    assert np.allclose(v[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-14)
    assert np.allclose(v[:, 1], np.array([1, -1]) / np.sqrt(2), atol=1e-14)


def test_eigh_reconstruction(rng):
    for d in (2, 5, 16):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m + dagger(m)
        w, v = eigh(m)
        assert frobenius(v @ np.diag(w) @ dagger(v) - m) <= 1e-10 * frobenius(m)
        assert frobenius(dagger(v) @ v - np.eye(d)) < 1e-10


def test_eigh_deterministic(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = m + dagger(m)
    w1, v1 = eigh(m)
    w2, v2 = eigh(m.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eigh_phase_convention(rng):
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m = m + dagger(m)
    _, v = eigh(m)
    for j in range(5):
        col = v[:, j]
        i = int(np.argmax(np.abs(col)))
        assert col[i].imag == pytest.approx(0.0, abs=1e-14)
        assert col[i].real >= 0.0


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NumericsError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_rejects_a_tiny_non_hermitian_matrix():
    # its norm once underflowed to 0, so it passed the check with eigenvalues (0, 0)
    with pytest.raises(NumericsError, match="not Hermitian"):
        eigh(np.array([[0.0, 1e-200], [0.0, 0.0]]))


def test_frobenius_neither_underflows_nor_overflows_before_the_norm():
    # entries below ~1e-154 once squared to 0 and gave a norm of 0.0
    assert frobenius([[3e-170, 4e-170], [0.0, 0.0]]) == 5e-170
    assert frobenius([[3e170, 4e170], [0.0, 0.0]]) == 5e170
    assert frobenius([[5e-324, 0.0], [0.0, 0.0]]) == 5e-324  # subnormal
    stack = np.array([[[3e-170j, 4e-170], [0.0, 0.0]], np.zeros((2, 2)), [[3.0, 0.0], [0.0, 4.0]]])
    assert frobenius(stack).tolist() == [5e-170, 0.0, 5.0]


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-12)


def test_trace_norm_density_matrix(rng):
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = b @ dagger(b)
    rho /= np.trace(rho)
    assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_single_dyad():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0
    assert trace_norm(m) == pytest.approx(1.0, abs=1e-12)
    # a dyad u w† has one nonzero singular value, ||u|| ||w||
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, w = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        exact = np.linalg.norm(u) * np.linalg.norm(w)
        assert trace_norm(np.outer(u, np.conj(w))) == pytest.approx(exact, rel=1e-13)


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(NumericsError):
        trace_norm(np.zeros((2, 3)))


def log_taylor_series(m, terms):
    """Exact coefficients c_0..c_terms of log(e^-x T_m(x)), T_m the degree-m Taylor
    polynomial of e^x: f = log T_m solves T_m f' = T_m', so k f_k = k t_k - sum_(j < k) j f_j t_(k-j)."""
    t = [Fraction(1, math.factorial(j)) if j <= m else Fraction(0) for j in range(terms + 1)]
    f = [Fraction(0)] * (terms + 1)
    for k in range(1, terms + 1):
        f[k] = t[k] - sum((j * f[j] * t[k - j] for j in range(1, k)), Fraction(0)) / k
    f[1] -= 1  # the e^-x
    return f


def test_taylor_thetas_are_the_backward_error_bounds():
    # theta_m is the largest theta with sum_(k > m) |c_k| theta^(k-1) <= 2^-53; the
    # series converges geometrically there, so 150 terms hold every digit
    for m, theta in TAYLOR_THETA:
        c = log_taylor_series(m, 150)
        assert not any(c[:m + 1])  # e^-x T_m(x) = 1 + O(x^(m+1))
        tail = [abs(float(x)) for x in c[m + 1:]]
        lo, hi = 0.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if sum(a * mid ** (m + k) for k, a in enumerate(tail)) <= 2.0 ** -53:
                lo = mid
            else:
                hi = mid
        assert lo * (1.0 - 1e-6) <= theta <= lo


# log10 of ||A||_1 from -9 to -3 runs the Taylor rungs of degree 2 and 4, which the
# property tests above, from 1e-3 up, never reach, and of degree 6
@settings(max_examples=60)
@given(st.integers(1, 36), st.floats(-9.0, -3.0), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_expm_matches_scipy_at_small_norms(n, log_norm, seed, real):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + (0.0 if real else 1j * rng.normal(size=(n, n)))
    m = scaled_to_one_norm(m, 10.0 ** log_norm)
    ref = scipy.linalg.expm(m)
    assert frobenius(expm(m) - ref) <= 1e-12 * frobenius(ref)


@pytest.mark.parametrize("norm", [1e-9, 1e-5, 1e-2, 0.5, 3.0, 100.0])
def test_expm_offset_keeps_its_relative_precision(norm, rng):
    # e^A - I is formed without I: near the identity its entries keep their own relative
    # precision, where e^A less I keeps a unit of I's, 1e-7 of it at ||A||_1 = 1e-9; the
    # squarings of 2 Y + Y^2 keep it too
    m = scaled_to_one_norm(rng.normal(size=(6, 6)), norm)
    with mpmath.workdps(40):
        ref = mpmath.expm(mpmath.matrix(m.tolist())) - mpmath.eye(6)
        ref = np.array(ref.tolist(), dtype=float)
    offset = expm(m, offset=True)
    assert frobenius(offset - ref) <= 1e-14 * frobenius(ref)
    assert np.array_equal(expm(np.stack([m, 2.0 * m]), offset=True)[0], offset)
    if norm == 1e-9:
        assert frobenius(expm(m) - np.eye(6) - ref) > 1e-9 * frobenius(ref)


def real_stack(rng, norms):
    return np.stack([scaled_to_one_norm(rng.normal(size=(9, 9)), x) for x in norms])


def test_expm_keeps_a_real_stack_real(rng):
    # norms from 1e-9 to 1e2: every Taylor rung, unscaled and with up to 8 squarings
    stack = real_stack(rng, 10.0 ** np.arange(-9.0, 2.5, 0.5))
    out = expm(stack)
    assert out.dtype == np.float64
    for x, m in zip(out, stack):
        z = expm(m.astype(complex))
        assert frobenius(x - z) <= 1e-15 * frobenius(z)


def test_expm_real_stack_equals_its_slices(rng):
    norms = 10.0 ** np.arange(-9.0, 3.5, 0.5)
    stack = real_stack(rng, np.concatenate([norms, norms[::-1]]))
    out = expm(stack.reshape(2, -1, 9, 9))
    assert out.dtype == np.float64 and out.shape == (2, len(norms), 9, 9)
    assert all(np.array_equal(x, expm(m)) for x, m in zip(out.reshape(-1, 9, 9), stack))
