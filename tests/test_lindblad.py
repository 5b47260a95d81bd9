import numpy as np
import pytest

from conftest import SQRT3, lambda_atom, random_diagonal, random_gks, random_mixed_state
from lindbladsim.lindblad import (DiagonalGenerator, GksGenerator, LindbladError,
                                  QuantumState, Superoperator, apply_exact, from_diagonal,
                                  liouvillian_matrix, liouvillian_of_diagonal,
                                  maximally_mixed, one_one_norm, to_diagonal,
                                  trace_distance, unvec, vec)
from lindbladsim.numerics import dagger, expm, frobenius, trace_norm
from lindbladsim.sud import gell_mann_basis


def amplitude_damping(gamma=1.0):
    # L = |g><e| with g = index 0
    L = np.zeros((2, 2), dtype=complex)
    L[0, 1] = 1.0
    return from_diagonal(
        DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((gamma, L),)),
        gell_mann_basis(2))


@pytest.mark.parametrize("g1,g2", [(1.0, 1.0), (1.7, 0.4)])
def test_lambda_atom_gks_entries(g1, g2):
    A = lambda_atom(g1, g2).A
    golden = {
        (3, 3): g1 / 8,
        (3, 4): (SQRT3 - 3j) / 16 * g1,
        (3, 7): (3 + 1j * SQRT3) / 16 * g1,
        (4, 6): (-3 + 1j * SQRT3) / 16 * g1,
        (5, 5): (2 + SQRT3) / 4 * g2,
        (5, 8): 1j * g2 / 4,
        (8, 8): (2 - SQRT3) / 4 * g2,
    }
    for (i, j), val in golden.items():
        assert A[i - 1, j - 1] == pytest.approx(val, abs=1e-12)
    assert frobenius(A - dagger(A)) < 1e-12


def test_from_diagonal_basis_aligned_term():
    b = gell_mann_basis(3)
    g = from_diagonal(DiagonalGenerator(d=3, H=np.zeros((3, 3)), terms=((1.0, b[0]),)), b)
    e1 = np.zeros(8)
    e1[0] = 1.0
    assert np.allclose(g.A, np.outer(e1, e1), atol=1e-14)


def test_from_diagonal_matches_direct_liouvillian(rng):
    # includes Lindblad operators with nonzero trace: the identity part must
    # fold into the Hamiltonian without changing the generator
    for d in (2, 3):
        dg = random_diagonal(d, 3, rng)
        shifted = tuple((gamma, L + rng.normal() * np.eye(d) + 1j * rng.normal() * np.eye(d))
                        for gamma, L in dg.terms)
        dg = DiagonalGenerator(d=d, H=dg.H, terms=shifted)
        S_direct = liouvillian_of_diagonal(dg).S
        S_gks = liouvillian_matrix(from_diagonal(dg)).S
        assert np.max(np.abs(S_direct - S_gks)) < 1e-10


def test_to_diagonal_lambda_atom_rates():
    g = lambda_atom(1.3, 0.6)
    rates = [gamma for gamma, _ in to_diagonal(g).terms]
    assert rates == pytest.approx([1.3, 0.6], abs=1e-12)


def test_to_diagonal_zero_matrix():
    b = gell_mann_basis(2)
    g = GksGenerator(basis=b, H=np.zeros((2, 2)), A=np.zeros((3, 3)))
    assert to_diagonal(g).terms == ()


def test_diagonal_roundtrip_preserves_liouvillian(rng):
    for d in (2, 3, 4):
        g = random_gks(d, rng)
        S = liouvillian_matrix(g).S
        g2 = from_diagonal(to_diagonal(g), g.basis)
        assert np.max(np.abs(liouvillian_matrix(g2).S - S)) < 1e-10


def test_liouvillian_zero():
    b = gell_mann_basis(2)
    g = GksGenerator(basis=b, H=np.zeros((2, 2)), A=np.zeros((3, 3)))
    assert np.max(np.abs(liouvillian_matrix(g).S)) == 0.0


def test_liouvillian_pure_hamiltonian(rng):
    b = gell_mann_basis(2)
    H = np.diag([0.5, -0.5]).astype(complex)
    g = GksGenerator(basis=b, H=H, A=np.zeros((3, 3)))
    t = 0.73
    E = expm(t * liouvillian_matrix(g).S)
    rho = random_mixed_state(2, rng)
    u = expm(-1j * H * t)
    assert np.max(np.abs(unvec(E @ vec(rho), 2) - u @ rho @ dagger(u))) < 1e-10


def test_liouvillian_amplitude_damping_closed_form():
    # rho_ee -> e^-t rho_ee, coherences -> e^-(t/2), population flows to |g>
    g = amplitude_damping()
    t = 0.9
    E = expm(t * liouvillian_matrix(g).S)
    et, eh = np.exp(-t), np.exp(-t / 2)
    expected = np.array([
        [1, 0, 0, 1 - et],
        [0, eh, 0, 0],
        [0, 0, eh, 0],
        [0, 0, 0, et],
    ])
    assert np.max(np.abs(E - expected)) < 1e-10


def test_apply_exact_time_zero(rng):
    g = random_gks(3, rng)
    rho0 = QuantumState(d=3, rho=random_mixed_state(3, rng))
    out = apply_exact(g, rho0, 0.0)
    assert np.max(np.abs(out.rho - rho0.rho)) < 1e-14


def test_apply_exact_zero_generator(rng):
    b = gell_mann_basis(2)
    g = GksGenerator(basis=b, H=np.zeros((2, 2)), A=np.zeros((3, 3)))
    rho0 = QuantumState(d=2, rho=random_mixed_state(2, rng))
    out = apply_exact(g, rho0, 4.2)
    assert np.max(np.abs(out.rho - rho0.rho)) < 1e-12


def test_apply_exact_damping_fixed_point():
    out = apply_exact(amplitude_damping(), maximally_mixed(2), 50.0)
    ground = np.zeros((2, 2))
    ground[0, 0] = 1.0
    assert np.max(np.abs(out.rho - ground)) < 1e-9


def test_apply_exact_rejects_negative_time():
    with pytest.raises(LindbladError):
        apply_exact(amplitude_damping(), maximally_mixed(2), -1.0)


def test_one_one_norm_zero():
    S = Superoperator(d=2, S=np.zeros((4, 4)))
    assert one_one_norm(S) == 0.0


def test_one_one_norm_identity_channel():
    S = Superoperator(d=2, S=np.eye(4))
    val = one_one_norm(S)
    assert 1.0 <= val <= 1.001 + 1e-9


def test_one_one_norm_dominates_dense_sampling(rng):
    g = random_gks(2, rng)
    S = liouvillian_matrix(g)
    est = one_one_norm(S)
    best = 0.0
    for _ in range(10_000):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        best = max(best, trace_norm(S(np.outer(psi, np.conj(phi)))))
    assert est >= best


def test_one_one_norm_deterministic(rng):
    g = random_gks(3, rng)
    S = liouvillian_matrix(g)
    assert one_one_norm(S) == one_one_norm(S)


def test_exact_channel_is_cptp(rng):
    for d in (2, 3):
        for _ in range(5):
            g = random_gks(d, rng)
            rho0 = QuantumState(d=d, rho=random_mixed_state(d, rng))
            for t in (0.3, 10.0):
                out = apply_exact(g, rho0, t)
                assert abs(np.trace(out.rho) - 1.0) <= 1e-9
                assert np.linalg.eigvalsh(out.rho).min() >= -1e-8


def test_semigroup_property(rng):
    g = random_gks(3, rng)
    rho0 = QuantumState(d=3, rho=random_mixed_state(3, rng))
    s, t = 0.4, 0.9
    once = apply_exact(g, rho0, s + t)
    twice = apply_exact(g, apply_exact(g, rho0, s), t)
    assert np.max(np.abs(once.rho - twice.rho)) < 1e-9


def test_superoperator_trace_preserving_exponential(rng):
    g = random_gks(3, rng)
    S = liouvillian_matrix(g)
    rho = random_mixed_state(3, rng)
    evolved = unvec(expm(1.7 * S.S) @ vec(rho), 3)
    assert abs(np.trace(evolved) - 1.0) < 1e-9


def test_generator_validation_errors():
    b = gell_mann_basis(2)
    with pytest.raises(LindbladError):
        GksGenerator(basis=b, H=np.array([[0, 1], [0, 0]]), A=np.zeros((3, 3)))
    with pytest.raises(LindbladError):
        GksGenerator(basis=b, H=np.zeros((2, 2)), A=-np.eye(3))
    with pytest.raises(LindbladError):
        DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((-0.5, np.eye(2)),))
    with pytest.raises(LindbladError):
        QuantumState(d=2, rho=np.diag([0.9, 0.3]))


def test_trace_distance_basic():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    assert trace_distance(rho, sig) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
