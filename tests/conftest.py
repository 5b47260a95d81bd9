import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from lindbladsim import cli, decompose, lindblad, serialize, trotter
from lindbladsim.cli import lambda_atom_generator
from lindbladsim.decompose import universal_operators, universal_vectors
from lindbladsim.lindblad import (DiagonalGenerator, GksGenerator, dissipator_superoperator,
                                  from_diagonal, gks_spectrum, hamiltonian_superoperator,
                                  one_one_norm, real_map)
from lindbladsim.numerics import dagger, frobenius
from lindbladsim.sud import SudError, adjoint_matrix, gell_mann_basis, pair_index

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

# every property test draws the same examples on every run, so tier-1 is
# reproducible; a test's own @settings sets only max_examples
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


def vec(m):
    """Column-stack a matrix into a vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v, d):
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


def frame(d):
    """The unitary T of lindblad.real_map, built from its definition: its rows are
    vec(B_k)† over the Hermitian basis B = (I / sqrt(d), F_1, ..., F_{d^2-1})."""
    return np.array([np.conj(vec(b)) for b in (np.eye(d) / np.sqrt(d),
                                               *gell_mann_basis(d).matrices)])


def column_stacked(R):
    """The column-stacked map T† R T of a real map R, the inverse of lindblad.real_map."""
    T = frame(math.isqrt(R.shape[-1]))
    return dagger(T) @ R @ T


def choi_split_bound(S):
    """||Tr_out J_+||_inf + ||Tr_out J_-||_inf for a column-stacked d^2 x d^2 map S that
    keeps matrices Hermitian: an upper bound on its diamond norm, and so on its (1->1)
    norm, exact for a completely positive map.  J = sum_ij E_ij kron S(E_ij) is its Choi
    matrix, input factor first, split into positive and negative parts J_+ - J_- by one
    np.linalg.eigh, and Tr_out traces out the second factor."""
    M = np.asarray(S, dtype=complex)
    d = math.isqrt(M.shape[0])
    J = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d))
            E[i, j] = 1.0
            J += np.kron(E, unvec(M @ vec(E), d))
    w, V = np.linalg.eigh(J)
    total = 0.0
    for part in (np.maximum(w, 0.0), np.maximum(-w, 0.0)):
        reduced = np.trace(((V * part) @ dagger(V)).reshape(d, d, d, d), axis1=1, axis2=3)
        total += float(np.linalg.eigvalsh(reduced)[-1])
    return total


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


def pure_hamiltonian(d):
    """A random Hamiltonian, drawn from default_rng(d), and A = 0."""
    basis = gell_mann_basis(d)
    return GksGenerator(basis=basis, H=random_hermitian(d, np.random.default_rng(d)),
                        A=np.zeros((basis.n, basis.n)))


def random_diagonal(d, n_terms, rng, scale=1.0, with_h=True):
    terms = []
    for _ in range(n_terms):
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        terms.append((float(rng.uniform(0.3, 1.0)) * scale, L / np.linalg.norm(L)))
    H = random_hermitian(d, rng, scale) if with_h else np.zeros((d, d), dtype=complex)
    return DiagonalGenerator(d=d, H=H, terms=tuple(terms))


def n_qubit_generator(n):
    """n qubits in a chain: transverse-field Ising H = sum Z_i Z_i+1 + 0.7 sum X_i,
    amplitude damping (rate 0.3) and Z dephasing (rate 0.2) on every qubit.

    Its 2n Lindblad operators are linearly independent, so A has rank 2n and
    the generator m = 2n + 1 components, where a generic one at d = 2^n has d^2.
    """
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])

    def on(i, op):
        return np.kron(np.kron(np.eye(2 ** i), op), np.eye(2 ** (n - i - 1)))

    d = 2 ** n
    H = sum(on(i, Z) @ on(i + 1, Z) for i in range(n - 1)) + 0.7 * sum(on(i, X) for i in range(n))
    terms = tuple((gamma, on(i, op)) for i in range(n) for gamma, op in ((0.3, lower), (0.2, Z)))
    return from_diagonal(DiagonalGenerator(d=d, H=H, terms=terms), gell_mann_basis(d))


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


DIRECTIONS = ("real", "balanced", "basis", "sparse", "degenerate-diagonal", "near-real",
              "near-balanced", "generic")


def edge_direction(kind, basis, rng):
    """Unit direction a in C^(d^2-1) of the given kind, times a random global phase.

    real and balanced have canonical angle theta = 0 and pi/4, near-real and
    near-balanced lie 1e-15..1e-6 inside; basis is one coordinate vector and
    sparse has two nonzero entries; degenerate-diagonal has aR on the diagonal
    block, with M_R = sum_a aR_a F_a holding a repeated eigenvalue when d >= 3.
    """
    n, d = basis.n, basis.d
    if kind in ("basis", "sparse", "generic"):
        a = np.zeros(n, dtype=complex)
        slots = {"basis": 1, "sparse": 2, "generic": n}[kind]
        idx = rng.choice(n, slots, replace=False)
        a[idx] = rng.normal(size=slots) + 1j * rng.normal(size=slots)
    else:
        u, w = np.linalg.qr(rng.normal(size=(n, 2)))[0].T
        if kind == "degenerate-diagonal":
            x = np.zeros(d)
            x[: rng.integers(1, d)] = 1.0  # two levels: one repeats once d >= 3
            x = rng.permutation(x - x.mean())
            u = np.einsum("gij,ji->g", basis.matrices, np.diag(x)).real
            u /= np.linalg.norm(u)
            w -= (u @ w) * u
            w /= np.linalg.norm(w)
        tiny = 10.0 ** rng.uniform(-15.0, -6.0)
        theta = {"real": 0.0, "balanced": math.pi / 4, "near-real": tiny,
                 "near-balanced": math.pi / 4 - tiny,
                 "degenerate-diagonal": rng.uniform(0.0, math.pi / 4)}[kind]
        a = math.cos(theta) * u + 1j * math.sin(theta) * w
    return np.exp(2j * math.pi * rng.uniform()) * a / np.linalg.norm(a)


def criterion_4_instances():
    """The (d, generator, state seed) cases of acceptance criterion 4: 50 at d = 2
    and 20 at d = 3, each a Hamiltonian plus one to three Lindblad terms."""
    rng = np.random.default_rng(41)
    cases = []
    for d, count in ((2, 50), (3, 20)):
        basis = gell_mann_basis(d)
        for _ in range(count):
            n_terms = int(rng.integers(1, 4))  # plus the Hamiltonian: m <= 4
            dg = random_diagonal(d, n_terms, rng)
            cases.append((d, from_diagonal(dg, basis), rng.integers(0, 2**31)))
    return cases


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


def to_diagonal(g):
    """Rate/operator form of g: the rates are the eigenvalues gks_spectrum
    keeps, and each kept eigenvector v gives the operator L = sum_a v_a F_a."""
    terms = tuple((lam, np.einsum("g,gij->ij", v, g.basis.matrices))
                  for lam, v in gks_spectrum(g))
    return DiagonalGenerator(d=g.d, H=g.H, terms=terms)


def conjugation_superoperator(u):
    """Matrix kron(conj U, U) of rho -> U rho U† in the column-stacking
    convention, for one unitary or each of a stack (..., d, d)."""
    U = np.asarray(u, dtype=complex)
    d = U.shape[-1]
    outer = np.conj(U)[..., :, None, :, None] * U[..., None, :, None, :]
    return outer.reshape(*U.shape[:-2], d * d, d * d)


def reference_components(g, plans):
    """The reference for trotter.prepare_components: each component built column-stacked,
    hamiltonian_superoperator of H or dissipator_superoperator over the one operator
    U L U† of a plan of positive weight, and taken into the Hermitian basis by
    lindblad.real_map.  The norms, the dropped zeros and the order are
    prepare_components' own."""
    d, zero = g.d, np.zeros((g.d, g.d))
    comps = []
    if np.max(np.abs(g.H)) > 0.0:
        comps.append(trotter.Component(d, one_one_norm(DiagonalGenerator(d, g.H)),
                                       real_map(hamiltonian_superoperator(g.H))))
    for p in (p for p in plans if p.lam > 0.0):
        (L,) = universal_operators([p.params], g.basis)
        S = dissipator_superoperator([[p.lam]], (p.U @ L @ dagger(p.U))[None])
        norm = one_one_norm(DiagonalGenerator(d, zero, ((p.lam, L),)))
        comps.append(trotter.Component(d, norm, real_map(S)))
    return sorted((c for c in comps if c.norm > 0.0), key=lambda c: -c.norm)


def sigma_x_slot(basis, j, k):
    """Index of sigma_x^(j,k): after the d - 1 diagonal matrices, at the pair's position."""
    return basis.d - 1 + pair_index(basis.d, j, k)


def to_vector(x, basis):
    """Coordinates of X = sum_a x_a (i F_a); real for anti-Hermitian X."""
    a = np.asarray(x, dtype=complex)
    if a.shape != (basis.d, basis.d):
        raise SudError(f"expected a {basis.d}x{basis.d} matrix, got {a.shape}")
    if abs(np.trace(a)) > 1e-10 * max(1.0, frobenius(a)):
        raise SudError("matrix has a nonzero trace")
    vec = -1j * np.einsum("gij,ji->g", basis.matrices, a)
    if frobenius(a + dagger(a)) <= 1e-12 * max(1.0, frobenius(a)):
        return vec.real
    return vec


def from_vector(x, basis):
    """Inverse coordinate map: sum_a x_a (i F_a)."""
    v = np.asarray(x)
    if v.shape != (basis.n,):
        raise SudError(f"expected a vector of length {basis.n}, got shape {v.shape}")
    return 1j * np.einsum("g,gij->ij", v, basis.matrices)


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


def universal_gks_matrix(params, basis):
    """Unit-rate GKS matrix v v† of a universal-family member."""
    (v,) = universal_vectors([params], basis)[2]
    return np.outer(v, np.conj(v))


def plan_gks_matrix(plan, basis):
    """Unit-rate GKS matrix G A(params) G^T realized by a conjugation plan.

    G is the adjoint matrix of plan.U, built in O(d^6): an oracle for
    decompose.verify_plan, which forms G v as tr(F_a U L U†) instead.
    """
    G = adjoint_matrix(plan.U, basis)
    return G @ universal_gks_matrix(plan.params, basis) @ G.T


def first_order_terms(generators):
    """(H2, H3) of the first-order product e^(tau G_(m-1)) ... e^(tau G_0), whose log
    is tau sum_j G_j + tau^2 H2 + tau^3 H3 + O(tau^4), by the Baker-Campbell-Hausdorff
    series log(e^X e^Y) = X + Y + [X, Y] / 2 + ([X, [X, Y]] + [Y, [Y, X]]) / 12 + ...,
    taken one factor at a time with X = tau G_j and Y the log so far, as the
    coefficients of tau, tau^2 and tau^3."""
    def bracket(a, b):
        return a @ b - b @ a

    Y1, Y2, Y3 = generators[0], np.zeros_like(generators[0]), np.zeros_like(generators[0])
    for G in generators[1:]:
        Y1, Y2, Y3 = (G + Y1, Y2 + bracket(G, Y1) / 2,
                      Y3 + bracket(G, Y2) / 2
                      + (bracket(G, bracket(G, Y1)) + bracket(Y1, bracket(Y1, G))) / 12)
    return Y2, Y3


def exp_derivative(A, X):
    """The Frechet derivative of exp at A in the direction X, in its complex-step form
    Im exp(A + i h X) / h with scipy's exponential; h ||X||_1 = 2^-60."""
    h = math.ldexp(1.0, -math.frexp(float(np.abs(X).sum(axis=0).max()))[1] - 60)
    return scipy.linalg.expm(A + (1j * h) * X).imag / h


def leading_error(components, t, rows=None):
    """trotter.leading_terms of one split's components: e^(t sum_j G_j) and its
    candidates' leading terms, the mixture's of rows, by default of its mixture_rows at t."""
    rows = trotter.mixture_rows(components.record, t) if rows is None else rows
    return trotter.leading_terms([components.record], t, [rows])[0]


def predicted_plan(components, t, eps, rows):
    """The k = 1 plan of the candidate that runs these rows of component_orders, () for
    the fixed block and (0,) for the coin flip, at the n that its own leading error term
    predicts, n = ceil(sqrt(lead / target)) with certify's target eps - t r - delta,
    carrying that target, its parts, its map and its certificate, both bounds taken by
    choi_split_bound."""
    exact, terms = leading_error(components, t, rows or (0,))
    D = terms[{(): 0, (0,): 1}.get(rows, 2)]
    m, L1 = len(components), components[0].norm
    record = components.record
    residual, rounding = t * record.residual, trotter.expm_rounding(record, t)
    target = eps - residual - rounding
    n = max(1, math.ceil(math.sqrt(choi_split_bound(column_stacked(D)) / target)))
    plan = trotter.TrotterPlan(k=1, r=n / L1, n_reps=n, lam=t * L1 / n, m=m, L1=L1,
                               rows=rows, residual_bound=residual,
                               rounding_allowance=rounding, target=target)
    total = trotter.plan_map(plan, components)
    return dataclasses.replace(plan, total_map=total,
                               certificate=choi_split_bound(column_stacked(total - exact)))


def pair_terms(components, t):
    """Each pool row's leading term t^3 L(t sum_j G_j, pairs_o), from the components'
    eigenbasis as trotter.mixture_rows chooses by them, stacked by row; None when the
    components have no eigenbasis."""
    basis = components.record.sums[4]
    if basis is None:
        return None
    return trotter._pair_terms(basis, t).transpose(1, 0, 2) * t ** 3


def merge_adjacent(segments) -> list:
    """Neighbouring segments of one component fused into one."""
    out = []
    for seg in segments:
        if out and out[-1].index == seg.index:
            out[-1] = trotter.Segment(seg.index, out[-1].duration + seg.duration)
        else:
            out.append(seg)
    return out


def reference_schedule(m, k, lam) -> list:
    """The reference for trotter.block_schedule: Suzuki's list recursion.  The symmetric
    split S_2(lam) runs components 0..m-1 at lam / 2 and then m-1..0 at lam / 2, and
    S_2k(lam) = [S_2k-2(p_k lam)]^2 S_2k-2((1 - 4 p_k) lam) [S_2k-2(p_k lam)]^2, with
    p_k = 1 / (4 - 4^(1/(2k-1))); neighbouring segments of one component merge at every
    level."""
    if k == 1:
        sweep = [trotter.Segment(j, lam / 2.0) for j in range(m)]
        return merge_adjacent(sweep + sweep[::-1])
    p = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
    outer = reference_schedule(m, k - 1, p * lam)
    middle = reference_schedule(m, k - 1, (1.0 - 4.0 * p) * lam)
    return merge_adjacent(outer + outer + middle + outer + outer)


def walked_block(plan, components):
    """The reference for trotter.block_superoperator: the product of scipy's
    exp((duration / L1) G_j) over reference_schedule(m, k, lam), segments applied left
    to right, one exponential per merged segment.  For a k = 1 mixture, the mean of that
    product over each of its rows o of component_orders (plan.rows) and over each row's
    reverse, with the component list permuted to run component o_j as j."""
    def walk(comps):
        block = np.eye(comps[0].generator.shape[0])
        for seg in reference_schedule(plan.m, plan.k, plan.lam):
            block = scipy.linalg.expm((seg.duration / plan.L1) * comps[seg.index].generator) @ block
        return block

    if not plan.rows:
        return walk(components)
    orders = trotter.component_orders(plan.m)[list(plan.rows)]
    return np.mean([walk([components[j] for j in order])
                    for order in (*orders, *orders[:, ::-1])], axis=0)


def reference_dumps(obj) -> str:
    """The reference for serialize.dumps: the canonical encoder written scalar by
    scalar, with json.dumps for text and one float format for every number."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            raise serialize.SerializeError(f"cannot encode non-finite float {obj}")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{reference_dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(reference_dumps(v) for v in obj) + "]"
    raise serialize.SerializeError(f"cannot encode object of type {type(obj)!r}")


def reference_json_to_matrix(obj):
    """The reference for serialize.json_to_matrix: the matrix built entry by entry
    with serialize.json_to_complex, which words each entry's refusal."""
    if not isinstance(obj, list) or not obj:
        raise serialize.SerializeError("expected a non-empty list of rows")
    if not all(isinstance(row, list) and len(row) == len(obj[0]) for row in obj):
        raise serialize.SerializeError("expected rows that are lists of equal length")
    return np.array([[serialize.json_to_complex(z) for z in row] for row in obj], dtype=complex)


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


def count_calls(monkeypatch, names) -> Counter:
    """Counts of the calls into each named function of the package from now on: every
    module that binds the name to it has the binding replaced by a counting wrapper."""
    calls, modules = Counter(), (lindblad, decompose, trotter, cli)
    for name in names:
        fn = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of the calls into gks_spectrum and decompose_terms, the two steps
    that decomposing a generator runs, from the test's start."""
    return count_calls(monkeypatch, ("gks_spectrum", "decompose_terms"))
