import numpy as np
import pytest

from lindbladsim.cli import lambda_atom_generator
from lindbladsim.lindblad import DiagonalGenerator, GksGenerator
from lindbladsim.numerics import dagger
from lindbladsim.sud import gell_mann_basis

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


def random_mixed_state(d, rng):
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = b @ dagger(b)
    return rho / np.trace(rho)


def lambda_atom(gamma1=1.0, gamma2=1.0, phi=np.pi / 3, eta=np.pi / 3, alpha=np.pi / 3):
    """Three-level lambda-configuration generator, states (|e>, |1>, |2>)."""
    return lambda_atom_generator(gamma1, gamma2, phi, eta, alpha)


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)
