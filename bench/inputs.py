"""Seeded input generators for the benchmark workloads.

These mirror the generators in ``tests/conftest.py`` (``random_gks``,
``random_diagonal``, ``random_mixed_state``, ``lambda_atom``) draw for
draw, but live here so that a refactor of the test helpers cannot
silently change what a workload measures.
"""

import numpy as np

from lindbladsim.lindblad import DiagonalGenerator, GksGenerator, from_diagonal
from lindbladsim.numerics import dagger
from lindbladsim.sud import gell_mann_basis


def random_hermitian(d, rng, scale=1.0):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (h + dagger(h))


def random_psd(n, rng, scale=1.0):
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (b @ dagger(b)) / n


def random_gks(d, rng, scale=1.0, with_h=True):
    """Full-rank GKS generator over the Gell-Mann basis, H random unless with_h is false."""
    basis = gell_mann_basis(d)
    H = random_hermitian(d, rng, scale) if with_h else np.zeros((d, d), dtype=complex)
    return GksGenerator(basis=basis, H=H, A=random_psd(basis.n, rng, scale))


def random_diagonal(d, n_terms, rng, scale=1.0, with_h=True):
    """Rate/operator form with n_terms unit-Frobenius Lindblad operators."""
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
    """Three-level lambda-configuration generator, states (|e>, |1>, |2>).

    The defaults are the paper's golden parameters.
    """
    L1 = np.zeros((3, 3), dtype=complex)
    L1[1, 0] = np.cos(phi)
    L1[2, 0] = np.exp(1j * eta) * np.sin(phi)
    L2 = np.zeros((3, 3), dtype=complex)
    L2[1, 2] = np.cos(alpha)
    L2[2, 1] = np.sin(alpha)
    diag = DiagonalGenerator(d=3, H=np.zeros((3, 3)), terms=((gamma1, L1), (gamma2, L2)))
    return from_diagonal(diag, gell_mann_basis(3))
