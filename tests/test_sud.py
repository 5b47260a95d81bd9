import numpy as np
import pytest

from conftest import (adjoint_generator, from_vector, sigma_x_slot, structure_constants,
                      to_vector)
from lindbladsim.numerics import dagger, expm
from lindbladsim.sud import SudError, adjoint_matrix, gell_mann_basis, pair_index, pair_order

SQRT2 = np.sqrt(2.0)


def random_special_unitary(d, rng, scale=1.0):
    basis = gell_mann_basis(d)
    r = rng.normal(size=basis.n)
    r *= scale / np.linalg.norm(r)
    return expm(1j * np.einsum("g,gij->ij", r, basis.matrices)), r


def test_d2_basis_is_rescaled_paulis():
    b = gell_mann_basis(2)
    sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(b.matrices[0], sigma_z / SQRT2, atol=1e-15)
    assert np.allclose(b.matrices[1], sigma_x / SQRT2, atol=1e-15)
    assert np.allclose(b.matrices[2], sigma_y / SQRT2, atol=1e-15)


def test_basis_count_d3():
    b = gell_mann_basis(3)
    assert b.n == len(b.matrices) == 8


def test_basis_orthonormal_traceless_hermitian_d4():
    b = gell_mann_basis(4)
    gram = np.einsum("aij,bji->ab", b.matrices, b.matrices)
    assert np.max(np.abs(gram - np.eye(b.n))) < 1e-12
    for m in b.matrices:
        assert abs(np.trace(m)) < 1e-14
        assert np.max(np.abs(m - dagger(m))) < 1e-14


def test_basis_ordering_slots():
    b = gell_mann_basis(3)
    # diagonal block first, then sigma_x pairs (1,2),(1,3),(2,3), then sigma_y
    for l in (0, 1):
        assert np.array_equal(b.matrices[l], np.diag(np.diag(b.matrices[l])))
    assert sigma_x_slot(b, 1, 2) == 2 and sigma_x_slot(b, 2, 3) == 4
    assert b.index_y(1, 2) == 5 and b.index_y(2, 3) == 7
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = m[1, 0] = 1 / SQRT2
    assert np.allclose(b.matrices[sigma_x_slot(b, 1, 2)], m, atol=1e-15)


def test_pair_index_matches_pair_order():
    for d in range(2, 9):
        b = gell_mann_basis(d)
        for pos, (j, k) in enumerate(pair_order(d)):
            assert pair_index(d, j, k) == pos
            assert sigma_x_slot(b, j, k) == d - 1 + pos
            assert b.index_y(j, k) == d - 1 + len(pair_order(d)) + pos
        for j, k in ((0, 1), (2, 2), (2, 1), (1, d + 1)):
            with pytest.raises(SudError):
                pair_index(d, j, k)


def test_basis_rejects_small_d():
    with pytest.raises(SudError):
        gell_mann_basis(1)


def test_basis_is_built_once_per_dimension():
    b = gell_mann_basis(4)
    assert gell_mann_basis(4) is b and gell_mann_basis(5) is not b
    assert not b.matrices.flags.writeable


def brute_force_constant(b, g, a, c):
    F = b.matrices
    comm = F[g] @ F[a] - F[a] @ F[g]
    return (-1j * np.trace(comm @ F[c])).real


def test_structure_constant_d2_value():
    b = gell_mann_basis(2)
    f = structure_constants(b)
    assert f[0, 1, 2] == pytest.approx(SQRT2, abs=1e-12)
    assert f[0, 1, 2] == pytest.approx(brute_force_constant(b, 0, 1, 2), abs=1e-14)


def test_structure_constants_match_brute_force_d3(rng):
    b = gell_mann_basis(3)
    f = structure_constants(b)
    for _ in range(20):
        g, a, c = rng.integers(0, 8, size=3)
        assert f[g, a, c] == pytest.approx(brute_force_constant(b, g, a, c), abs=1e-13)


def test_structure_constants_reproduce_commutators(rng):
    b = gell_mann_basis(3)
    f = structure_constants(b)
    rebuilt = 1j * np.einsum("gab,bij->gaij", f, b.matrices)
    prod = np.einsum("gij,ajk->gaik", b.matrices, b.matrices)
    comm = prod - np.transpose(prod, (1, 0, 2, 3))
    assert np.max(np.abs(comm - rebuilt)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_structure_constants_antisymmetric(d):
    f = structure_constants(gell_mann_basis(d))
    assert np.max(np.abs(f + np.transpose(f, (1, 0, 2)))) < 1e-10
    assert np.max(np.abs(f + np.transpose(f, (0, 2, 1)))) < 1e-10
    assert np.max(np.abs(np.einsum("aab->ab", f))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_jacobi_identity(d):
    f = structure_constants(gell_mann_basis(d))
    jac = (np.einsum("abe,ecd->abcd", f, f)
           + np.einsum("cbe,aed->abcd", f, f)
           + np.einsum("dbe,ace->abcd", f, f))
    assert np.max(np.abs(jac)) < 1e-10


def test_to_vector_basis_element():
    b = gell_mann_basis(3)
    x = to_vector(1j * b.matrices[2], b)
    expected = np.zeros(8)
    expected[2] = 1.0
    assert np.allclose(x, expected, atol=1e-14)
    assert x.dtype == float  # anti-Hermitian input gives real coordinates


def test_to_vector_zero():
    b = gell_mann_basis(3)
    assert np.allclose(to_vector(np.zeros((3, 3)), b), np.zeros(8), atol=0)


def test_vector_roundtrip(rng):
    b = gell_mann_basis(4)
    for _ in range(5):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = x - dagger(x)
        x -= np.trace(x) / 4 * np.eye(4)
        assert np.max(np.abs(from_vector(to_vector(x, b), b) - x)) < 1e-12
    e1 = np.zeros(15)
    e1[0] = 1.0
    assert np.allclose(from_vector(e1, b), 1j * b.matrices[0], atol=1e-15)
    assert np.allclose(from_vector(np.zeros(15), b), np.zeros((4, 4)), atol=0)


def test_to_vector_rejects_trace():
    b = gell_mann_basis(2)
    with pytest.raises(SudError):
        to_vector(np.eye(2), b)


def test_from_vector_rejects_length():
    with pytest.raises(SudError):
        from_vector(np.zeros(4), gell_mann_basis(2))


def test_adjoint_identity():
    b = gell_mann_basis(3)
    assert np.allclose(adjoint_matrix(np.eye(3), b), np.eye(8), atol=1e-14)


def test_adjoint_exp_paths_agree(rng):
    # trace-formula adjoint of exp(i sum r_g F_g) vs exp of the
    # structure-constant generator: two independent construction paths
    for d in (2, 3, 4):
        b = gell_mann_basis(d)
        f = structure_constants(b)
        u, r = random_special_unitary(d, rng, scale=2.0)
        g_trace = adjoint_matrix(u, b)
        g_exp = expm(adjoint_generator(f, r)).real
        assert np.max(np.abs(g_trace - g_exp)) < 1e-8


def test_adjoint_det_plus_one_su3(rng):
    b = gell_mann_basis(3)
    for _ in range(5):
        u, _ = random_special_unitary(3, rng)
        assert np.linalg.det(adjoint_matrix(u, b)) == pytest.approx(1.0, abs=1e-9)


def test_adjoint_orthogonal_and_transpose(rng):
    b = gell_mann_basis(4)
    u, _ = random_special_unitary(4, rng)
    g = adjoint_matrix(u, b)
    assert np.max(np.abs(g.T @ g - np.eye(b.n))) < 1e-10
    assert np.max(np.abs(g.T - adjoint_matrix(dagger(u), b))) < 1e-10


def test_adjoint_homomorphism(rng):
    b = gell_mann_basis(3)
    u, _ = random_special_unitary(3, rng)
    v, _ = random_special_unitary(3, rng)
    guv = adjoint_matrix(u @ v, b)
    assert np.max(np.abs(guv - adjoint_matrix(u, b) @ adjoint_matrix(v, b))) < 1e-10


def test_adjoint_action(rng):
    b = gell_mann_basis(3)
    u, _ = random_special_unitary(3, rng)
    g = adjoint_matrix(u, b)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = x - dagger(x)
    x -= np.trace(x) / 3 * np.eye(3)
    lhs = from_vector(g @ to_vector(x, b), b)
    assert np.max(np.abs(lhs - u @ x @ dagger(u))) < 1e-10


def test_adjoint_rejects_non_unitary():
    b = gell_mann_basis(2)
    with pytest.raises(SudError):
        adjoint_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]), b)
