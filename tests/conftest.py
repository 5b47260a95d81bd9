import math

import numpy as np
import pytest

from lindbladsim.cli import lambda_atom_generator
from lindbladsim.lindblad import (DiagonalGenerator, GksGenerator, from_diagonal,
                                  hamiltonian_superoperator, unvec, vec)
from lindbladsim.numerics import dagger, frobenius
from lindbladsim.sud import SudError, gell_mann_basis

SQRT3 = np.sqrt(3.0)

# canonical split of the first lambda-atom spectral vector at
# phi = eta = alpha = pi/3: a1 = (AHAT1_R + i * AHAT1_I) / sqrt(2)
AHAT1_R = np.array([0.0, 0.0, SQRT3 / 4, 0.0, 0.0, 0.25, SQRT3 / 2, 0.0])
AHAT1_I = np.array([0.0, 0.0, 0.25, SQRT3 / 2, 0.0, -SQRT3 / 4, 0.0, 0.0])

# second spectral vector, entries ((2+sqrt3) i) e5 + e8, normalized
SECONDVEC_NORM = np.sqrt(1.0 + (2.0 + SQRT3) ** 2)
SECONDVEC = np.array([0, 0, 0, 0, (2 + SQRT3) * 1j, 0, 0, 1], dtype=complex) / SECONDVEC_NORM

THETA2 = np.arccos((2.0 + SQRT3) / SECONDVEC_NORM)

GOLDEN_ALPHA_I = np.array([np.pi / 2, np.pi / 2, np.pi / 2, np.pi / 2, 3 * np.pi / 2])

# serial_one_one_norm: random starts beyond the d^2 structured ones and
# their seed, iterations per start, convergence tolerance, upward factor
NORM_STARTS = 12
NORM_SEED = 0
NORM_ITERS = 200
NORM_TOL = 1e-12
NORM_SAFETY = 1.001


def random_hermitian(d, rng, scale=1.0):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (h + dagger(h))


def random_psd(n, rng, scale=1.0):
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (b @ dagger(b)) / n


def random_gks(d, rng, scale=1.0, with_h=True):
    basis = gell_mann_basis(d)
    H = random_hermitian(d, rng, scale) if with_h else np.zeros((d, d), dtype=complex)
    return GksGenerator(basis=basis, H=H, A=random_psd(basis.n, rng, scale))


def random_diagonal(d, n_terms, rng, scale=1.0, with_h=True):
    terms = []
    for _ in range(n_terms):
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        terms.append((float(rng.uniform(0.3, 1.0)) * scale, L / np.linalg.norm(L)))
    H = random_hermitian(d, rng, scale) if with_h else np.zeros((d, d), dtype=complex)
    return DiagonalGenerator(d=d, H=H, terms=tuple(terms))


def dephasing_gks(d, rng):
    """Driven pure dephasing: a random H and two real diagonal Lindblad operators.

    Every Lindblad operator is Hermitian, so A is real and each spectral
    vector has canonical angle theta = 0.
    """
    terms = tuple((float(rng.uniform(0.3, 1.0)), np.diag(rng.normal(size=d)))
                  for _ in range(2))
    H = random_hermitian(d, rng)
    return from_diagonal(DiagonalGenerator(d=d, H=H, terms=terms), gell_mann_basis(d))


def random_mixed_state(d, rng):
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = b @ dagger(b)
    return rho / np.trace(rho)


def lambda_atom(gamma1=1.0, gamma2=1.0, phi=np.pi / 3, eta=np.pi / 3, alpha=np.pi / 3):
    """Three-level lambda-configuration generator, states (|e>, |1>, |2>)."""
    return lambda_atom_generator(gamma1, gamma2, phi, eta, alpha)


def liouvillian_of_diagonal(g):
    """Generator matrix built directly from rate/operator terms, an oracle
    for lindblad.liouvillian_matrix."""
    d = g.d
    eye = np.eye(d)
    S = hamiltonian_superoperator(g.H)
    for gamma, L in g.terms:
        Ld = dagger(L)
        S += gamma * (np.kron(np.conj(L), L)
                      - 0.5 * np.kron((Ld @ L).T, eye)
                      - 0.5 * np.kron(eye, Ld @ L))
    return S


def structure_constants(basis):
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


def adjoint_generator(f, r):
    """Generator sum_g r_g K_g of the adjoint rotation, (K_g)_ab = f_gab.

    exp of this matrix equals sud.adjoint_matrix(exp(i sum_g r_g F_g)); an
    independent construction path for cross-checks.
    """
    r = np.asarray(r, dtype=float)
    return np.einsum("g,gab->ab", r, f)


def serial_one_one_norm(S):
    """Multi-start ascent of ||S(psi phi†)||_1 over unit psi, phi, times NORM_SAFETY.

    S is a d^2 x d^2 matrix acting on column-stacked d x d matrices.  Each
    start alternates the two exact partial maximizations: for fixed
    (psi, phi) the dual unitary W of the trace norm is the polar factor of
    S(psi phi†), and for fixed W the best (psi, phi) is the top singular
    pair of K with tr(W† S(psi phi†)) = phi† K psi.  Every value reached is
    attained by an input, so the raw maximum (the result / NORM_SAFETY) is
    a lower bound on the (1->1) norm: an oracle that a proven upper bound
    must dominate.
    """
    M = np.asarray(S, dtype=complex)
    d = math.isqrt(M.shape[0])
    if frobenius(M) == 0.0:
        return 0.0
    rng = np.random.default_rng(NORM_SEED)
    Mdag = dagger(M)

    def alternate(psi, phi):
        val = 0.0
        for _ in range(NORM_ITERS):
            Y = unvec(M @ vec(np.outer(psi, np.conj(phi))), d)
            u, _, vh = np.linalg.svd(Y)
            W = u @ vh
            # tr(W† S(psi phi†)) = vec(W)† M (conj(phi) kron psi) = phi† K psi
            K = dagger(unvec(Mdag @ vec(W), d))
            uu, ss, vvh = np.linalg.svd(K)
            new = float(ss[0])
            phi = uu[:, 0]
            psi = np.conj(vvh[0, :])
            if abs(new - val) <= NORM_TOL * max(1.0, new):
                val = new
                break
            val = new
        return val

    best = 0.0
    # structured starts: computational-basis dyads
    for i in range(d):
        for j in range(d):
            e_i, e_j = np.zeros(d, dtype=complex), np.zeros(d, dtype=complex)
            e_i[i] = 1.0
            e_j[j] = 1.0
            best = max(best, alternate(e_i, e_j))
    for _ in range(NORM_STARTS):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        best = max(best, alternate(psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)))
    return best * NORM_SAFETY


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)
