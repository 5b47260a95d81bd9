import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (SQRT3, lambda_atom, liouvillian_of_diagonal, random_diagonal,
                      random_gks, random_hermitian, random_mixed_state)
from lindbladsim.lindblad import (DiagonalGenerator, GksGenerator, LindbladError,
                                  QuantumState, apply_exact, from_diagonal, liouvillian_matrix,
                                  maximally_mixed, one_one_norm, to_diagonal, trace_distance,
                                  unvec, vec)
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
        S_direct = liouvillian_of_diagonal(dg)
        S_gks = liouvillian_matrix(from_diagonal(dg))
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
        S = liouvillian_matrix(g)
        g2 = from_diagonal(to_diagonal(g), g.basis)
        assert np.max(np.abs(liouvillian_matrix(g2) - S)) < 1e-10


def test_liouvillian_zero():
    b = gell_mann_basis(2)
    g = GksGenerator(basis=b, H=np.zeros((2, 2)), A=np.zeros((3, 3)))
    assert np.max(np.abs(liouvillian_matrix(g))) == 0.0


def test_liouvillian_pure_hamiltonian(rng):
    b = gell_mann_basis(2)
    H = np.diag([0.5, -0.5]).astype(complex)
    g = GksGenerator(basis=b, H=H, A=np.zeros((3, 3)))
    t = 0.73
    E = expm(t * liouvillian_matrix(g))
    rho = random_mixed_state(2, rng)
    u = expm(-1j * H * t)
    assert np.max(np.abs(unvec(E @ vec(rho), 2) - u @ rho @ dagger(u))) < 1e-10


def test_liouvillian_amplitude_damping_closed_form():
    # rho_ee -> e^-t rho_ee, coherences -> e^-(t/2), population flows to |g>
    g = amplitude_damping()
    t = 0.9
    E = expm(t * liouvillian_matrix(g))
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
    for t in (-1.0, math.nan, math.inf):  # negative or non-finite
        with pytest.raises(LindbladError):
            apply_exact(amplitude_damping(), maximally_mixed(2), t)


def test_one_one_norm_zero():
    zero = np.zeros((3, 3))
    assert one_one_norm(DiagonalGenerator(d=3, H=zero)) == 0.0
    for shape in ((3, 4), (2, 2), (3,)):  # not d x d
        with pytest.raises(LindbladError):
            one_one_norm(DiagonalGenerator(d=3, H=zero, terms=((1.0, np.ones(shape)),)))


def test_one_one_norm_bounds_hamiltonian_closed_form(rng):
    # the (1->1) norm of rho -> i[rho, H] is exactly lambda_max(H) - lambda_min(H)
    for d in range(2, 7):
        for _ in range(5):
            H = random_hermitian(d, rng)
            w = np.linalg.eigvalsh(H)
            norm = one_one_norm(DiagonalGenerator(d=d, H=H))
            assert type(norm) is float
            assert norm == w[-1] - w[0]


def test_one_one_norm_identity_channel():
    """H = c I generates the identity channel, so its norm is 0.  Dephasing
    by sigma_z, 0.7 (sigma_z X sigma_z - X), maps |0><1| to -1.4 |0><1|, so
    the rate term's bound 2 gamma ||L||_op^2 = 1.4 is attained."""
    assert one_one_norm(DiagonalGenerator(d=2, H=2.5 * np.eye(2))) == 0.0
    dephasing = DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((0.7, np.diag([1.0, -1.0])),))
    assert one_one_norm(dephasing) == pytest.approx(1.4, rel=1e-15)
    S = liouvillian_of_diagonal(dephasing)
    X = np.zeros((2, 2))
    X[0, 1] = 1.0
    assert trace_norm(unvec(S @ vec(X), 2)) == pytest.approx(1.4, rel=1e-15)


def test_one_one_norm_dominates_dense_sampling(rng):
    g = random_gks(2, rng)
    S = liouvillian_matrix(g)
    bound = one_one_norm(to_diagonal(g))
    best = 0.0
    for _ in range(10_000):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        best = max(best, trace_norm(unvec(S @ vec(np.outer(psi, np.conj(phi))), 2)))
    assert bound >= best


def test_one_one_norm_deterministic(rng):
    g = to_diagonal(random_gks(3, rng))
    assert one_one_norm(g) == one_one_norm(g)


@st.composite
def generators_and_dyads(draw):
    """A DiagonalGenerator at d = 2..4 with up to 3 terms, and unit psi, phi."""
    d = draw(st.integers(2, 4))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)

    def matrix():
        return draw(arrays(float, (d, d, 2), elements=entries)) @ np.array([1.0, 1j])

    H = matrix()
    terms = tuple((draw(st.floats(0.0, 10.0)), matrix()) for _ in range(draw(st.integers(0, 3))))
    g = DiagonalGenerator(d=d, H=0.5 * (H + dagger(H)), terms=terms)
    psi, phi = (draw(arrays(float, (d, 2), elements=entries)) @ np.array([1.0, 1j])
                for _ in range(2))
    assume(np.linalg.norm(psi) > 1e-3 and np.linalg.norm(phi) > 1e-3)
    return g, psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(generators_and_dyads())
def test_one_one_norm_dominates_every_dyad(case):
    """||S(psi phi†)||_1 <= one_one_norm(g) for unit psi, phi, up to rounding.

    The trace norm is summed from an SVD: numerics.trace_norm takes square
    roots of eigenvalues of Y†Y, which errs by up to ~1e-8 relative when Y
    is rank-deficient, as S(psi phi†) often is where the bound is attained.
    """
    g, psi, phi = case
    S = liouvillian_of_diagonal(g)
    Y = unvec(S @ vec(np.outer(psi, np.conj(phi))), g.d)
    assert np.linalg.svd(Y, compute_uv=False).sum() <= one_one_norm(g) * (1.0 + 1e-12)


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
    evolved = unvec(expm(1.7 * S) @ vec(rho), 3)
    assert abs(np.trace(evolved) - 1.0) < 1e-9


def test_generator_validation_errors():
    b = gell_mann_basis(2)
    with pytest.raises(LindbladError):
        GksGenerator(basis=b, H=np.array([[0, 1], [0, 0]]), A=np.zeros((3, 3)))
    with pytest.raises(LindbladError):
        GksGenerator(basis=b, H=np.zeros((2, 2)), A=-np.eye(3))
    huge = np.array([[0, 1e200], [0, 0]])  # its Hermiticity residual overflows
    with pytest.raises(LindbladError, match="H is not Hermitian"):
        GksGenerator(basis=b, H=huge, A=np.zeros((3, 3)))
    with pytest.raises(LindbladError, match="H is not Hermitian"):
        DiagonalGenerator(d=2, H=huge)
    with pytest.raises(LindbladError, match="A is not Hermitian"):
        GksGenerator(basis=b, H=np.zeros((2, 2)), A=np.pad(huge, ((0, 1), (0, 1))))
    with pytest.raises(LindbladError):
        DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((-0.5, np.eye(2)),))
    with pytest.raises(LindbladError):
        QuantumState(d=2, rho=np.diag([0.9, 0.3]))
    with pytest.raises(LindbladError):
        QuantumState(d=2, rho=np.diag([np.nan, 0.5]))


def test_trace_distance_basic():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    assert trace_distance(rho, sig) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)


def test_hermiticity_tolerance_is_scale_free():
    # ||H - H†|| <= 1e-10 max(1, ||H||) at any scale; at 1e200 both norms
    # overflow to inf unless the check scales H first
    for scale in (1.0, 1e200):
        DiagonalGenerator(d=2, H=scale * np.array([[0, 1], [1 + 1e-11, 0]]))
        with pytest.raises(LindbladError, match="H is not Hermitian"):
            DiagonalGenerator(d=2, H=scale * np.array([[0, 1], [1 + 1e-9, 0]]))
