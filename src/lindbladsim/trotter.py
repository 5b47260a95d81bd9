"""Suzuki-Lie-Trotter recombination of component semigroups.

The generator is split as L = sum_j L_j with component norm upper bounds
L1 >= L2 >= ... (closed-form bounds on the 1->1 norms, lindblad.one_one_norm).
With normalized components L̂_j = L_j / L1 the symmetric product formula

    S_2(lam) = prod_j e^(lam/2 L̂_j) prod_{j reversed} e^(lam/2 L̂_j)

is promoted to higher order through Suzuki's recursion

    S_2k(lam) = [S_2k-2(p_k lam)]^2 S_2k-2((1-4 p_k) lam) [S_2k-2(p_k lam)]^2,
    p_k = 1 / (4 - 4^(1/(2k-1))),

and applied n_reps times with per-block normalized duration
lam = t L1 / n_reps.  The half-order k and block count r follow the
closed-form bound minimization

    k = round( sqrt( log_{25/3}(4 e m t L2 / eps) / 2 ) ),   clamped to >= 1,
    r = t (4 e m t L2 / eps)^(1/2k) * 2 e d_k / (2k + 1),
    d_k = m (4/3) k (5/3)^(k-1),

valid in the regime x = 4 e m t L2 / eps >= 1; outside it k is clamped to 1
and neither N_exp bound applies.  The resulting product approximates
exp(tL) within eps in (1->1) norm, so output states are within eps of the
exact oracle in trace distance.

That bound is loose by orders of magnitude at small d, so a run does not
use its step count directly.  build_plan certifies the map that runs
instead: at k = 1 it searches for a repetition count whose map T_n, the
n-th power of the block, satisfies

    diamond_bound(T_n - exp(t sum_j G_j)) <= eps - t r - delta,

where diamond_bound(X) = ||Tr_out J_+||_inf + ||Tr_out J_-||_inf splits the
Choi matrix J of X into its positive and negative parts.  It bounds the
diamond norm, and it is exact for completely positive maps: at d = 6 it
reads about a third of sqrt(d) ||.||_2, the (1->1) bound the spectral norm
gives.  The rest of eps covers the two other differences between T_n and
exp(tL).  r = diamond_bound(L - sum_j G_j) bounds the decomposition's
residual, and for two GKSL generators Duhamel's formula gives
||exp(tL) - exp(t sum_j G_j)||_diamond <= t r, both semigroups being CPTP;
r is computed once per split of A (Record, below).  delta
allows for the rounding in the computed exp(t sum_j G_j) (expm_rounding).
So ||T_n - exp(tL)||_(1->1) <= eps, and a run's state lies within eps / 2
of the exact one in trace distance.  The plan carries T_n, that certificate,
t r, delta and the target.
The search is sized in closed form by the block's leading error term, the
nested commutators of the component generators (leading_terms; Childs, Su,
Tran, Wiebe and Zhu, "Theory of Trotter error with commutator scaling",
PRX 11, 011020 (2021)): T_n differs from exp(t sum_j G_j) by
D / n^2 + O(n^-4), so the search starts at the smallest n that D
certifies, and most runs build one block.

The search sizes three k = 1 candidates and runs the one whose predicted n
needs the fewest exponentials, the one of fewer component orders on a tie.
The first is the symmetric block above, in one component order (SUZUKI).
The other two are mixtures (MIXED_ORDERS) that draw each block uniformly
from pairs of component orders, each an order and its reverse (Childs,
Ostrander and Su, "Faster quantum simulation by randomization", Quantum 3,
182 (2019)); a plan carries its pairs as rows of component_orders(m).  The
coin flip is the mixture of row 0 alone, the norm order's pair: it runs the
block above or the block in the reversed component order, component j as
m - 1 - j.  The third candidate is the mixture of up to MIX_PAIRS rows chosen
for the run from a pool of component orders, the first pool_size(m, d) rows of
component_orders(m), drawn from one splitmix64 stream keyed by m: at most
POOL = 32, and fewer where the pool's commutator loop would pass the work of
random d = 6 (one from d = 16 up, where the coin flip is the only mixture).
Every duration is positive, so every block is a product of channels of the
universal family, and n independent draws apply exactly M^n, M the mean of
the blocks.  The classical run computes M^n itself, with no random numbers,
so the output is deterministic and the certificate above covers the device's
state as it covers a fixed-order run.

A mixture's leading term is the mean of its pairs' terms, and an order's
and its reverse's third-order terms differ by a commutator that cancels in
the pair, so pairs can be chosen by their terms (Tranter, Love, Mintert,
Wiebe and Coveney, "Ordering of Trotterization", Entropy 21, 1218 (2019)).
Once per generator, since none of it depends on t or eps, one commutator
loop over every pool row gives each pair's direction, and one eig of
sum_j G_j takes them to its eigenbasis (commutator_sums, kept in the
split's Record).  In that basis each pair's term at t is elementwise, the
divided differences of exp times the direction, and two stacked products
take the terms back (_pair_terms); a greedy pass over their Frobenius Gram
matrix chooses the rows (mixture_rows).  The eig only chooses rows: every
candidate's leading term is an exact complex-step derivative, one stacked
exponential per call (leading_terms), and every plan that runs is
certified by its own map.  n blocks cost n (2m - 2) + 1 exponentials in one
order and at most n (2m - 1) in a mixture, where neighbouring blocks merge
only when they meet on the same component.  On the benchmark's random d = 6
generators the chosen mixtures need about 21 % fewer exponentials than the
first four rows of component_orders, which every mixture drew before; on the
qubit chains the coin flip wins, and the two-component lambda atom keeps the
fixed block.

The split of A into rank-one pieces is a choice too.  The paper splits A spectrally,
A = sum_k lam_k a_k a_k†, but any factorization A = W W† gives pieces w_j w_j† that
decompose_terms carries onto the universal family alike, and it mixes the Lindblad
operators by a unitary, which leaves the Liouvillian unchanged (Gorini, Kossakowski
and Sudarshan, J. Math. Phys. 17, 821 (1976)).  What changes is the commutators
between the pieces, and so the leading terms.  A generator's first use, its first
build_plan or prepare_components, makes up to three candidate splits in one pass against
one real Liouvillian (_make_splits), each kept in its own Record: the spectral one,
always first, and a pivoted Cholesky factor of A (decompose.cholesky_split) and the
spectral factor rotated by the K-point DFT (decompose.dft_split).  The other two are
made when A has rank K >= 2, their commutator loops fit the pool's work budget
(POOL_WORK, up to d = 8 for a generic generator), and some two spectral pieces'
dissipators do not commute (_may_mix): the qubit chains, whose local dissipators all
commute, keep the spectral split.  A candidate whose pieces equal an earlier one's is
dropped: the lambda atom's Cholesky split is its spectral split.  The best split
depends on t, so each call chooses: it takes every split's leading terms at t in one
stacked exponential and one stacked diamond_bound (_leads), each kept with the last t
in its record's memo (Record.memo), and certify builds only the split whose best
formula predicts the fewest exponentials at eps, handing over to another split after
a miss as it does between formulas, each split with its own budget of builds.  Each
split is certified against its own residual r.  On the benchmark's random d = 6
generators the chosen splits need about 20 % fewer exponentials than the spectral
split; on the lambda atom the DFT split wins at small t (6 exponentials where the
spectral split needs 9 at t = 1, eps = 1e-3), and the spectral split at t >= 4 (735
at t = 32, eps = 1e-6, where the DFT split would need 5667).  The paper's plan, which
bounds and ends every search, is the spectral split's.
A Record is whole when it is made: its split's components exist then, once, and
everything the planner reads of a split, its residual, ||sum_j G_j||_1, norms and
commutator sums, is computed from them there (_new_split).  It keeps g's H and its
split's operators, from which its components are built again (_split_components), so
the planner (leading_terms, mixture_rows, expm_rounding, _leads, certify) reads records
alone and takes no generator.  build_plan(g, eps, t) is the one planner, which simulate
calls: it builds each split's components at most once, g's first call with its records,
and returns a plan that carries the components of its own split, which run_plan runs.

Every block and its power are formed as offsets from the identity and
projected onto trace-preserving maps (plan_map), so that n repetitions add up
no rounding of the identity's unit, and a certificate follows its leading term
down to delta.  When the search stops first (certify lists when), the paper's
plan (paper_plan of the spectral split's norms) runs, uncertified, as the fallback;
it is also what the cost subcommand reports.  step_count is the paper's planner, and
select_order, its first step, holds the one check of the planner's inputs.  build_plan
calls step_count once per run, through paper_plan; every plan it returns carries the
two N_exp bounds, which its cost report (TrotterPlan.cost_report) prints.

A component is its d^2 x d^2 generator G_j: i[., H] for the Hamiltonian,
lam U [L . L† - (1/2){L†L, .}] U† for a dissipative piece, L the plan's
operator, each built as a real matrix in the orthonormal Hermitian basis
directly, with no column-stacked map (prepare_components).  Every segment,
Hamiltonian or dissipative, is realized as exp(t~ G_j), with the physical
duration t~ carrying the component's weight.  A plan carries its block's
length lam, not its schedule, and one builder makes every block
(block_superoperator).
Suzuki's recursion unrolls into 2^(k-1) distinct symmetric S_2 leaves, one at
k = 1, whose lengths leaf_lengths gives, and each component is asked once for
its channels at every leaf's half step, each less the identity, which one
stacked numerics.expm call computes, on a Taylor rung with no solve at a block's
small norms.  One forward and one backward sweep run over the leaves and the
plan's component orders at once; the fixed block's leaves fold level by level
into S_2k.  No run builds the merged schedule: a plan's schedule property
unrolls it on demand, in closed form from the same leaves (block_schedule).
The block, its power and exp(t sum_j G_j) are all real, and the
certificate's Choi matrix is formed from the real map and the basis stack
directly.  At k = 1 every duration is positive, so every
factor is a unitary channel or a channel of the universal family; negative
intermediate durations appear in the recursion for k >= 2, where the matrix
exponential is applied for any sign and the cost report flags them.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .decompose import (DecomposeError, cholesky_split, decompose_terms, dft_split,
                        spectral_split, universal_operators)
from .lindblad import (DiagonalGenerator, GksGenerator, QuantumState, dissipator_superoperator,
                       evolve, hermitian_basis, liouvillian_matrix, one_one_norm, real_map)
from .numerics import NumericsError, dagger, expm, read_only_state


class TrotterError(ValueError):
    pass


E = math.e


@dataclass(frozen=True)
class Segment:
    """One product factor: component index and normalized duration."""

    index: int
    duration: float


@dataclass(frozen=True, eq=False)
class Component:
    """One summand of the generator: its real d^2 x d^2 matrix G_j in the Hermitian
    basis (lindblad.hermitian_basis), whose exponentials exp(t G_j) are its channels,
    and a (1->1) norm bound."""

    d: int
    norm: float
    generator: np.ndarray = field(repr=False)

    def channel(self, t_phys) -> np.ndarray:
        """Exact channel matrices exp(t * G_j), each less the identity, one per
        physical duration t in t_phys, stacked in its order and taken from one
        numerics.expm call in offsets."""
        return expm(np.asarray(t_phys, dtype=float)[:, None, None] * self.generator, offset=True)


# the candidate splits of A (_make_splits): always the spectral split, and where they may
# pay, a pivoted Cholesky factor and the DFT-rotated spectral factor
SPECTRAL, CHOLESKY, DFT = "spectral", "cholesky", "dft"


@dataclass(frozen=True, eq=False)
class Record:
    """What runs derive from one split of a generator's A into rank-one terms: its name
    (SPECTRAL, CHOLESKY or DFT), its terms, their conjugation plans and the plans'
    universal-family operators, read-only; H, the generator's read-only H, which with the
    operators builds the split's components (_split_components); the residual
    r = diamond_bound(L - sum_j G_j) of its components, L the generator's real map, which
    bounds ||exp(tL) - exp(t sum_j G_j)||_diamond by t r; one_norm, ||sum_j G_j||_1
    (expm_rounding); norms, its components' norm bounds in product order, which size the
    paper's plan and a split's candidates; and sums, the components' commutator sums
    (commutator_sums), read-only.  Whole when it is made (_new_split), from the split's
    components, which it does not keep, and frozen: certify subtracts t r from eps, so no
    field can be written after the residual is taken.  memo, the last t a run saw with
    the split's leads there, (t, (rows, e^(t sum_j G_j), leads)) or (t, None), so that a
    repeat run at that t computes no leading term, is written by _leads alone."""

    split: str
    terms: tuple
    plans: tuple
    operators: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)
    residual: float
    one_norm: float
    norms: tuple
    sums: tuple = field(repr=False)
    memo: tuple | None = field(default=None, repr=False)

    __setstate__ = read_only_state

    @property
    def d(self) -> int:
        return self.operators.shape[-1]


def prepare_components(g: GksGenerator) -> tuple:
    """The components of g's spectral split, norm-ordered, a plain tuple; the split's record
    is g.splits[0] (Record).  On g's first use they are those _make_splits made with every
    split, else built anew.  Not exported: a plan carries its own split's components.

    The Hamiltonian gives rho -> i[rho, H] when H is nonzero.  Each plan gives
    lam U [L . L† - (1/2){L†L, .}] U†, the dissipator of L' = U L U† with L its
    universal-family operator; conjugation by U leaves the (1->1) norm unchanged, so
    L's bound is the component's, from one one_one_norm call.  Each real map is built
    in the Hermitian basis B directly, row k from the adjoint map's image Y_k of B_k,
    R_kl = Re tr(Y_k B_l), where the halves of an anticommutator have conjugate
    traces: Y_k = 2i H B_k for the Hamiltonian and lam (L'† B_k L' - L'†L' B_k) for a
    dissipator.  Components of zero norm are dropped; the rest are sorted by
    descending norm, with stable ties, which fixes the product order
    deterministically.
    """
    return _split_components(_make_splits(g), g.splits[0])


def _split_components(built: dict, record: Record) -> tuple:
    """The components of record's split: built's, a tuple by split, or else built anew
    from the record's H and operators and added to built."""
    if record.split not in built:
        built[record.split] = _components(record.H, record.plans, record.operators)
    return built[record.split]


def _make_splits(g: GksGenerator) -> dict:
    """Make g's splits, every one in one pass, on g's first use, and put their records in
    g.splits, spectral first; the components of each split made, a tuple by split, or {}
    once g has its splits.

    The candidates are the spectral split, then cholesky_split and dft_split: each
    A = W W†, whose rank-one pieces the same SU(d) conjugation carries onto the universal
    family, and which mixes the Lindblad operators by a unitary, so each leaves the
    Liouvillian unchanged (Gorini, Kossakowski and Sudarshan, J. Math. Phys. 17, 821
    (1976)).  The other two are made only where _may_mix allows.  A candidate whose
    pieces equal an earlier one's (_same_pieces), or that decompose_terms refuses, is
    dropped.  Each record gets its own residual against the generator's one real map
    (_new_split), built here once."""
    if g.splits is not None:
        return {}
    liouvillian = real_map(liouvillian_matrix(g))
    spectral, components = _new_split(g, SPECTRAL, tuple(spectral_split(g)), liouvillian)
    records, built = [spectral], {SPECTRAL: components}
    if _may_mix(g, spectral):
        for name, pieces in ((CHOLESKY, cholesky_split(g, len(spectral.terms))),
                             (DFT, dft_split(spectral.terms))):
            if any(_same_pieces(pieces, r.terms) for r in records):
                continue
            try:
                record, built[name] = _new_split(g, name, tuple(pieces), liouvillian)
            except DecomposeError:  # a piece that decompose_terms refuses: no candidate
                continue
            records.append(record)
    object.__setattr__(g, "splits", tuple(records))
    return built


def _may_mix(g: GksGenerator, spectral: Record) -> bool:
    """Whether g gets the candidates that mix its spectral pieces: when A has rank K >= 2,
    the two extra commutator loops, at one row of component_orders each, fit in POOL_WORK
    (pool_size; up to d = 8 for a generic generator, none from d = 16), and some two of
    the spectral pieces' dissipators do not commute: their commutator's Frobenius norm
    passes 1e-10 of the product of theirs (the qubit chains' pairs read 3e-16
    at most, the lambda atom's pair 0.18).  Where they all commute, as on a chain of
    qubits with local noise, the only commutators of the spectral split are those with
    H, and a mixture of the pieces adds commutators between them."""
    m, d, terms = len(spectral.norms), g.d, spectral.terms
    if len(terms) < 2 or 2 * m * d ** 6 > POOL_WORK:
        return False
    ops = np.einsum("ka,aij->kij", np.array([x.a for x in terms]), g.basis.matrices)
    seen = []  # each piece is built when reached, so a generic A builds two
    for x, op in zip(terms, ops):
        D = dissipator_superoperator(np.array([[x.lam]]), op[None])
        norm = np.linalg.norm(D)
        if any(np.linalg.norm(D @ E - E @ D) > 1e-10 * norm * e for E, e in seen):
            return True
        seen.append((D, norm))
    return False


def _same_pieces(terms, others) -> bool:
    """Whether two splits have the same pieces lam a a†, in some order: each term's
    direction within 1e-9 of one other's, up to its phase, at a weight within 1e-9 of
    the largest."""
    if len(terms) != len(others):
        return False
    a, b = (np.array([x.a for x in s]).reshape(len(s), -1) for s in (terms, others))
    overlap = np.conj(a) @ b.T
    j = np.argmax(np.abs(overlap), axis=1)
    phases = np.exp(1j * np.angle(overlap[np.arange(len(j)), j]))
    lam, mu = (np.array([x.lam for x in s]) for s in (terms, others))
    return (len(set(j.tolist())) == len(j)
            and bool((np.linalg.norm(a - np.conj(phases)[:, None] * b[j], axis=1) <= 1e-9).all())
            and bool((np.abs(lam - mu[j]) <= 1e-9 * max(lam.max(), mu.max())).all()))


def _new_split(g: GksGenerator, split: str, terms: tuple, liouvillian) -> tuple:
    """(record, components) of a new split of g, the record whole: r taken against
    liouvillian, g's real map, and the commutator sums of the components, which exist
    only while this call or its caller holds them."""
    plans = tuple(decompose_terms(terms, g.basis))
    L = universal_operators([p.params for p in plans], g.basis)
    L.setflags(write=False)
    comps = _components(g.H, plans, L)
    total = sum(c.generator for c in comps)
    record = Record(split, terms, plans, L, g.H, float(diamond_bound(liouvillian - total)),
                    max(np.abs(total).sum(axis=0).tolist()) if comps else 0.0,
                    tuple(c.norm for c in comps), commutator_sums(comps, g.d))
    return record, comps


def _components(H: np.ndarray, plans: tuple, L: np.ndarray) -> tuple:
    """The components of the Hamiltonian H and of the plans, L their operators,
    norm-ordered (prepare_components)."""
    d = len(H)
    zero = np.zeros((d, d))
    U = np.array([p.U for p in plans]).reshape(L.shape)
    lam = np.array([p.lam for p in plans]).reshape(-1, 1, 1)
    norms = [one_one_norm(DiagonalGenerator(d, zero, ((p.lam, l),))) for p, l in zip(plans, L)]
    Lc = U @ L @ dagger(U)
    left = lam * (dagger(Lc) @ Lc)  # the factors in front of B_k alone: 2i H first, if any
    if np.max(np.abs(H)) > 0.0:
        left = np.concatenate([2j * H[None], left])
        norms.insert(0, one_one_norm(DiagonalGenerator(d, H)))
    B = hermitian_basis(d)
    side = B.transpose(1, 0, 2).reshape(d, d ** 3)  # B_k side by side

    def times_basis(X):  # X_j B_k for each X_j of the stack X, at [j, :, k]
        return (X.reshape(-1, d) @ side).reshape(len(X), d, d * d, d)

    n, m = len(norms), len(plans)
    Y = np.empty((n, d * d, d, d), dtype=complex)
    Yt = Y.transpose(0, 2, 1, 3)  # Y[j, k] = Yt[j, :, k]
    # the sandwiched products straight into Y: two d^4 complex stacks alive at most
    np.matmul(times_basis(lam * dagger(Lc)), Lc[:, None], out=Yt[n - m:])
    one_sided = times_basis(left)
    Yt[:n - m] = one_sided[:n - m]  # the Hamiltonian's, if any
    Yt[n - m:] -= one_sided[n - m:]
    del one_sided  # freed before R exists
    # Re tr(Y_k B_l) = Re sum_ab (Y_k)_ab conj(B_l)_ab: the dot product of the float views
    real = B.reshape(d * d, d * d).view(float)
    R = (Y.reshape(n * d * d, d * d).view(float) @ real.T).reshape(n, d * d, d * d)
    comps = [Component(d, norm, r) for norm, r in zip(norms, R)]
    return tuple(sorted((c for c in comps if c.norm > 0.0), key=lambda c: -c.norm))  # stable


def suzuki_p(k: int) -> float:
    """Recursion coefficient p_k = 1 / (4 - 4^(1/(2k-1)))."""
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))


def leaf_lengths(k: int, lam: float) -> np.ndarray:
    """The lengths lam prod_j f_j, f_j in {p_j, 1 - 4 p_j} for j = k..2, of the 2^(k-1)
    distinct symmetric S_2 leaves that Suzuki's recursion unrolls into: one axis per
    level, j = k first, and lam itself, a 0-d array, at k = 1."""
    lengths = np.array(lam)
    for j in range(k, 1, -1):
        p = suzuki_p(j)
        lengths = np.multiply.outer(lengths, (p, 1.0 - 4.0 * p))
    return lengths


def segments_per_block(m: int, k: int) -> int:
    """Factor count of one merged S_2k block: 2(m-1) 5^(k-1) + 1."""
    return 2 * (m - 1) * 5 ** (k - 1) + 1


# the product formulas a plan runs: the S_2k block in its one component order, or at
# k = 1 a mixture that picks its block per repetition, uniformly among pairs of component
# orders, each an order and its reverse, the pairs a plan's rows of component_orders(m)
SUZUKI, MIXED_ORDERS = "suzuki", "mixed-orders"
# a mixture draws from at most MIX_PAIRS rows of its generator's pool: the first POOL rows
# of component_orders(m), fewer where P m d^6, the commutator loop's work over P rows,
# would pass POOL_WORK, that of random d = 6 (m = 36) at POOL rows (pool_size)
MIX_PAIRS = 4
POOL = 32
POOL_WORK = POOL * 36 * 6 ** 6
SUMS_CHUNK = 8  # the orders commutator_sums's loop runs at once
MASK64 = 2 ** 64 - 1


def _splitmix64(state: int):
    """One step of splitmix64 (Steele, Lea and Flood, OOPSLA 2014): the next state and
    its 64-bit output, in Python integers, so the stream never depends on a library."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


@functools.cache
def component_orders(m: int) -> np.ndarray:
    """The component orders over m components that a mixture's pairs come from, one row
    per pair: row 0 is the norm order 0..m-1, and each later row a Fisher-Yates shuffle
    drawn from one splitmix64 stream seeded with m, kept when neither it nor its reverse
    is already a row.  min(POOL, m! / 2) rows, at least one; read-only, built on first use
    for each m.  Row p's pair runs the block in that order or in the reversed one."""
    pairs = max(1, min(POOL, math.factorial(m) // 2))
    orders, state = [tuple(range(m))], m
    while len(orders) < pairs:
        order = list(range(m))
        for i in range(m - 1, 0, -1):
            state, z = _splitmix64(state)
            j = z % (i + 1)
            order[i], order[j] = order[j], order[i]
        if not any(tuple(order) in (o, o[::-1]) for o in orders):
            orders.append(tuple(order))
    table = np.array(orders)
    table.setflags(write=False)
    return table


def pool_size(m: int, d: int) -> int:
    """The rows of component_orders(m) that m components of dimension d choose a mixture
    from: as many as P m d^6 <= POOL_WORK allows, at least one (29 for the 7 components of
    a d = 8 qubit chain, and 1 from d = 16 up)."""
    return max(1, min(len(component_orders(m)), POOL_WORK // (m * d ** 6)))


def formula_count(formula: str, m: int, k: int, n_reps: int) -> int:
    """Exponentials in n_reps blocks of the formula.  Every fixed-order block
    starts and ends on component 0, so neighbouring blocks share one; a mixture
    counts its worst case over the blocks drawn, n_reps (2m - 1), since two
    neighbouring blocks share a component only when they end and start on the
    same one."""
    shared = n_reps - 1 if formula == SUZUKI else 0
    return n_reps * segments_per_block(m, k) - shared


def select_order(eps: float, t: float, m: int, L1: float, L2: float):
    """Half-order k and block parameter r from the cost-bound formulas.

    This is the one check of the planner's inputs, written so that NaN
    and inf fail it too.  m is capped at 2^53, up to which a float holds
    every integer exactly, so the formulas' float(m) neither rounds nor
    overflows.  Finite inputs can still overflow x or the step count r L1;
    those are refused here as well.
    """
    if not (1 <= m <= 2 ** 53 and 0 < eps < math.inf and 0 < t < math.inf
            and 0 < L2 <= L1 < math.inf):
        raise TrotterError("need 1 <= m <= 2^53 and finite eps > 0, t > 0, L1 >= L2 > 0")
    x = 4.0 * E * m * t * L2 / eps
    if x == math.inf:
        raise TrotterError("4 e m t L2 / eps overflows")
    # outside the bound's regime, x < 1, fall back to the basic split
    k = max(1, round(math.sqrt(0.5 * math.log(x) / math.log(25.0 / 3.0)))) if x >= 1.0 else 1
    d_k = m * (4.0 / 3.0) * k * (5.0 / 3.0) ** (k - 1)
    r = t * x ** (1.0 / (2 * k)) * 2.0 * E * d_k / (2 * k + 1)
    if r * L1 == math.inf:
        raise TrotterError("the step count r L1 overflows")
    return k, r


def nexp_bound_res(m: int, k: int, t: float, eps: float, L1: float, L2: float) -> float:
    """Exponential-count bound at fixed half-order k."""
    x = 4.0 * E * m * t * L2 / eps
    return (2 * m - 1) * 5 ** (k - 1) * (
        L1 * t * x ** (1.0 / (2 * k)) * (4.0 * m * E / 3.0) * (5.0 / 3.0) ** (k - 1))


def nexp_bound_closed_form(m: int, t: float, eps: float, L1: float, L2: float) -> float:
    """Closed-form bound after optimizing over the half-order; needs x >= 1."""
    x = 4.0 * E * m * t * L2 / eps
    return (8.0 / 3.0) * (2 * m - 1) * m * E * t * L1 * math.exp(
        2.0 * math.sqrt(0.5 * math.log(25.0 / 3.0) * math.log(x)))


def step_count(eps: float, t: float, m: int, L1: float, L2: float):
    """The planner: (k, r, n_reps, N_exp bound at k, closed-form N_exp bound).

    One component needs no splitting: one exact segment, k = 1, r = 0.
    Both bounds are None when they do not apply: for one component, and
    outside the regime x = 4 e m t L2 / eps >= 1.  Inputs whose bounds
    overflow are refused, like those that overflow select_order.
    """
    k, r = select_order(eps, t, m, L1, L2)
    if m == 1:
        return 1, 0.0, 1, None, None
    n_reps = max(1, math.ceil(r * L1))
    if 4.0 * E * m * t * L2 / eps < 1.0:
        return k, r, n_reps, None, None
    bounds = nexp_bound_res(m, k, t, eps, L1, L2), nexp_bound_closed_form(m, t, eps, L1, L2)
    if math.inf in bounds:
        raise TrotterError("the N_exp bounds overflow")
    return (k, r, n_reps, *bounds)


@dataclass(frozen=True)
class TrotterPlan:
    """Integrator order, repetition count, normalized block length, the
    planner's two N_exp bounds (None where they do not apply), for a
    certified plan its certificate, the certificate its leading error term
    predicted, the map it certifies and the parts of eps the certificate
    leaves to the residual (t r) and to rounding (delta), with the target
    eps - t r - delta, the blocks the certificate search built, whichever
    plan it returned, a k = 1 mixture's rows of component_orders(m), the
    split of A whose components run it (SPECTRAL for the paper's plan) and, in a
    plan from build_plan, those components, norm-ordered.

    r is the paper planner's block parameter, n_reps = ceil(r L1); a
    certified plan's n_reps comes from the search instead, and its r is
    n_reps / L1.  lam = t L1 / n_reps is one block's length in units of 1 / L1,
    0.0 for a trivial plan of no repetition.  The plan stores no schedule:
    block_superoperator builds the block from (k, lam) and the rows, and the
    schedule property unrolls it on demand.  With no rows the plan runs the
    S_2k block in the norm order (formula SUZUKI).  A k = 1 mixture (formula
    MIXED_ORDERS) draws each repetition's block uniformly from 2 * pairs blocks,
    pairs = len(rows): each of its rows of component_orders(m) runs as the
    symmetric block in that order or in the reversed one, at the half step
    lam / 2.  The coin flip, rows (0,), is the norm order's pair, whose reverse
    runs component j as m - 1 - j.  Plans compare without their map, build
    count and components.
    """

    k: int
    r: float
    n_reps: int
    lam: float
    m: int
    L1: float
    bound_res: float | None = None
    bound_closed_form: float | None = None
    # diamond_bound(total_map - e^(t sum_j G_j)) <= target = eps - t r - delta
    certificate: float | None = None
    total_map: np.ndarray | None = field(default=None, compare=False, repr=False)
    predicted_certificate: float | None = None  # lead / n_reps^2 (certify)
    residual_bound: float | None = None  # t r, r the split's residual (Record)
    rounding_allowance: float | None = None  # delta (expm_rounding)
    target: float | None = None
    builds: int = field(default=0, compare=False)
    rows: tuple = ()  # a k = 1 mixture's rows of component_orders(m), () for one order
    split: str = SPECTRAL  # the split of A whose components run the plan (Record.split)
    components: tuple = field(default=(), compare=False, repr=False)  # split's (build_plan)

    @property
    def formula(self) -> str:
        """MIXED_ORDERS for a k = 1 mixture, SUZUKI for the block in one order."""
        return MIXED_ORDERS if self.rows else SUZUKI

    @property
    def pairs(self) -> int:
        """The order pairs a k = 1 mixture draws its blocks from, 0 for one order."""
        return len(self.rows)

    @property
    def schedule(self) -> tuple:
        """One block's merged segments, block_schedule(m, k, lam), or () for a
        plan of no repetition; built on each read, and by no run."""
        return block_schedule(self.m, self.k, self.lam) if self.n_reps else ()

    @property
    def n_exp(self) -> int:
        """Unmerged exponential count (2(m-1)5^(k-1)+1) * n_reps."""
        return segments_per_block(self.m, self.k) * self.n_reps

    @property
    def n_exp_actual(self) -> int:
        """Segment count after merging across repetition boundaries, for a
        mixture in its worst case (formula_count)."""
        return formula_count(self.formula, self.m, self.k, self.n_reps) if self.n_reps else 0

    def has_negative_segments(self) -> bool:
        """Whether the schedule has a segment of negative duration, read without
        building it.  From k = 2 on, the recursion has a leaf S_2(mu) of negative
        length mu = lam (1 - 4 p_k) p_(k-1) ... p_2, and for m >= 2 the leaf runs
        component m - 1 for mu in one segment that merges with no other.  At k = 1
        every duration is positive, and one component's block is one segment."""
        return self.k >= 2 and self.m >= 2 and self.n_reps > 0

    def cost_report(self) -> dict:
        """The cost object of a simulate document (cli): the exponentials actually
        computed and unmerged next to the paper planner's two N_exp bounds, the
        formula, its order pairs and split, and the certificate with its parts."""
        return {"formula": self.formula, "pairs": self.pairs, "split": self.split, "k": self.k,
                "r": self.r, "n_reps": self.n_reps, "N_exp_actual": self.n_exp_actual,
                "N_exp_unmerged": self.n_exp, "N_exp_bound_res": self.bound_res,
                "N_exp_bound_closed_form": self.bound_closed_form,
                "negative_segments": self.has_negative_segments(),
                "certificate": self.certificate,
                "predicted_certificate": self.predicted_certificate,
                "residual_bound": self.residual_bound,
                "rounding_allowance": self.rounding_allowance, "target": self.target,
                "builds": self.builds}


def block_schedule(m: int, k: int, lam: float) -> tuple:
    """The merged order-2k block of normalized length lam, unrolled from its leaves,
    checked to give every component the whole length.

    The recursion runs its leaves (leaf_lengths) in the pattern p, p, 1 - 4p, p, p at
    every level.  A leaf mu runs components 0..m-2 at mu / 2, component m - 1 at mu and
    components m-2..0 at mu / 2; neighbouring leaves merge on component 0, so one
    component's block is one segment.
    """
    if m < 1:
        raise TrotterError(f"need at least one component, got {m}")
    if k < 1:
        raise TrotterError(f"half-order must be >= 1, got {k}")
    if not math.isfinite(lam):
        raise TrotterError(f"the block length must be finite, got {lam}")
    mu = leaf_lengths(k, lam)[np.ix_(*[(0, 0, 1, 0, 0)] * (k - 1))].ravel()
    if m == 1:
        sched = (Segment(0, float(mu.sum())),)
    else:
        half = mu / 2.0
        # a leaf's segments after its first, components 1..m-1..0, its last merged with
        # the next leaf's first
        rows = np.repeat(half[:, None], 2 * m - 2, axis=1)
        rows[:, m - 2] = mu
        rows[:-1, -1] += half[1:]
        index = [*range(1, m), *range(m - 2, -1, -1)]
        sched = (Segment(0, float(half[0])),) + tuple(
            Segment(j, x) for row in rows.tolist() for j, x in zip(index, row))
    totals = [0.0] * m  # one pass, each sum in schedule order
    for seg in sched:
        totals[seg.index] += seg.duration
    if any(abs(total - lam) > 1e-12 * max(1.0, abs(lam)) for total in totals):
        raise TrotterError("schedule durations do not sum to the block length")
    return sched


# delta, the allowance for the rounding in the computed e^(t sum_j G_j), in units of
# d (1 + ||t sum_j G_j||_1) u, u = 2^-53 (expm_rounding).  Against a 40-digit mpmath.expm,
# read with diamond_bound, leading_terms's e^(t sum_j G_j) was at most 0.49 units off on
# random_gks(d), d = 2, 3, seeds 1-3, and the lambda atom, at t = 0.25..32, and 0.92 and
# 1.23 units off on n_qubit_generator(2) and (3) (d = 4, 8) at t = 0.25 and 1
ROUNDING_ULPS = 16
# the certificate search: at most this many block builds a split; a step that the leading
# error term cannot size overshoots the n^-2 law's prediction by SEARCH_MARGIN, and
# no step grows n by less
MAX_BUILDS = 4
SEARCH_MARGIN = 1.05
# a step that the leading error term sizes grows n by at least NEAR_STEP: since the
# offsets a build's certificate reads its term's prediction to about 1e-4, so a near miss
# needs a step of that order, not SEARCH_MARGIN's
NEAR_STEP = 1.001


def diamond_bound(X: np.ndarray) -> np.ndarray:
    """||Tr_out J_+||_inf + ||Tr_out J_-||_inf for a real d^2 x d^2 map X, or for each of
    a stack (..., d^2, d^2): an upper bound on its diamond norm, and so on its (1->1)
    norm, that is exact for completely positive maps.

    J = sum_kl X_kl B_l^T kron B_k, B = hermitian_basis(d), is the Choi matrix of the
    map that sends B_l to sum_k X_kl B_k, input factor first.  It is Hermitian, and one
    eigh splits it as J_+ - J_-, two positive parts: the Choi matrices of two
    completely positive maps Phi_+ and Phi_- whose difference is X.  A completely
    positive map has ||Phi||_diamond = ||Tr_out J(Phi)||_inf (Watrous, "The Theory of
    Quantum Information", CUP 2018, ch. 3), so the triangle inequality bounds
    ||X||_diamond >= ||X||_(1->1) by the sum; a channel reads 1.  Tr_out J_+ is
    P P^dagger, with P the eigenvectors of positive eigenvalue, each weighted by the
    root of its eigenvalue and read as a d x d matrix, side by side.

    The maps are first scaled by one power of four 4^-q, which is exact, so that the
    largest entry modulus lies in [1/4, 1): the Choi matrix's products cannot
    overflow on a finite map, and the bound, which takes c X to |c| times X's, is
    scaled back by 4^q; it is inf only where the bound itself overflows.  A power of
    four keeps the square roots of the eigenvalues exact under the scaling, so a map
    reads the same bound alone and in a stack.
    """
    d = math.isqrt(X.shape[-1])
    F = hermitian_basis(d).reshape(d * d, d * d)  # row l is B_l, read row by row
    stack = X.shape[:-2]
    e = math.frexp(float(np.abs(X).max()))[1]
    e += e % 2
    X = np.ldexp(X, -e)  # 2^-e alone overflows when X's largest entry is subnormal
    # (F^T X^T F)[(c a), (b e)] = sum_l (B_l)_ca (sum_k X_kl B_k)_be = J[(a b), (c e)]
    J = (F.T @ (np.swapaxes(X, -1, -2) @ F)).reshape(-1, d, d, d, d).transpose(0, 2, 3, 1, 4)
    w, V = np.linalg.eigh(J.reshape(X.shape))
    roots = np.sqrt(np.maximum(np.multiply.outer((1.0, -1.0), w), 0.0))  # J_+, J_-
    P = (V.reshape(*stack, d, d, d * d) * roots[..., None, None, :]).reshape(2, *stack, d, -1)
    tops = np.linalg.eigvalsh(P @ np.conj(np.swapaxes(P, -1, -2)))[..., -1]
    with np.errstate(over="ignore"):
        return np.ldexp(tops[0] + tops[1], e)


def leading_terms(records, t: float, rows) -> list:
    """For each of several splits' records, with its rows:
    e^(t sum_j G_j) and the leading error terms D of the k = 1 candidates over its
    components, in product order: T_n - e^(t sum_j G_j) = D / n^2 + O(n^-4), stacked as
    certify's candidates: the fixed-order block, the coin flip (the mixture of row 0 of
    component_orders alone) and, unless its rows are (0,), the mixture of its rows.

    One symmetric block of step tau is e^(tau sum_j G_j + tau^3 E + O(tau^5)) with
    E = sum_(i < m-1) (-(1/24) [G_i, [G_i, R_i]] - (1/12) [R_i, [G_i, R_i]]),
    R_i = sum_(j > i) G_j, Strang's term applied once per component.  So
    T_n = e^(t sum_j G_j + (t^3 / n^2) E + ...), and D is t^3 times the Frechet
    derivative of exp at t sum_j G_j in the direction E.  That derivative is the
    upper-right block of the exponential of [[t sum_j G_j, h E], [0, t sum_j G_j]],
    divided by h, and is taken here in its complex-step form (Al-Mohy and Higham,
    Numer. Algorithms 53 (2010) 133): the imaginary part of e^(t sum_j G_j + i h E),
    divided by h, with the real part e^(t sum_j G_j).  A complex product carries the
    block product's upper-right block in its imaginary part, at half the real
    products, with no difference to cancel.  h is a power of two with
    ||h E||_1 ~ 2^-60, so the terms of order h^2 fall far below the rounding of
    either part, and the exponential takes the rung and squarings that
    e^(t sum_j G_j) alone takes: numerics.expm refuses it only where it refuses
    that one.

    The first-order product that the block's first half sweeps has the log
    tau sum_j G_j + tau^2 H2 + tau^3 H3 + ..., with H2 = -(1/2) sum_i [G_i, R_i].
    The block's E is H3 / 4 + [sum_j G_j, H2] / 8, the reversed-order block's
    H3 / 4 - [sum_j G_j, H2] / 8, so their mean, an order's pair's, is H3 / 4.  The
    derivative of exp takes [A, X] to [e^A, X], so the coin flip's term is
    D - (t^2 / 8) [e^(t sum_j G_j), H2]: two products more.  A mixture of blocks
    e^(tau sum_j G_j + tau^3 E_o + ...) is e^(tau sum_j G_j + tau^3 mean_o E_o + ...)
    up to O(tau^6), and the derivative is linear in its direction, so the mixture's
    term is t^3 times the derivative along the mean of its rows' H3 / 4, kept per row
    (commutator_sums); that direction shares the stacked exponential with E.  Row 0
    of each D, the trace, is zeroed, as trace_preserving zeroes it in T_n.  Commuting
    components have E = H2 = 0 and every term 0, up to rounding in their commutators.
    certify measures D with the certificate's own bound: diamond_bound(D) / n^2
    predicts diamond_bound(T_n - e^(t sum_j G_j)) up to O(n^-4), since the bound is
    continuous and takes c X to |c| times X's.

    Everything but t and the rows enters through the record's commutator sums
    (Record.sums), so a call forms only the exponential, one stacked over every split's
    directions, and the two commutators with e^(t sum_j G_j).
    """
    A, E, h = [], [], []
    for record, r in zip(records, rows):
        total, E_s, _, pairs, _ = record.sums
        if r != (0,):
            E_s = np.concatenate([E_s, pairs[list(r)].mean(axis=0, keepdims=True)])
        # h is a power of two with ||h E||_1 ~ 2^-60; a zero direction takes h = 1
        h += [math.ldexp(1.0, -math.frexp(x)[1] - 60) if x > 0.0 else 1.0
              for x in np.abs(E_s).sum(axis=-2).max(axis=-1).tolist()]
        A += [t * total] * len(E_s)
        E.append(E_s)
    h = np.array(h)
    X = expm(np.array(A) + (1j * h)[:, None, None] * np.concatenate(E))
    D = (t ** 3 / h)[:, None, None] * X.imag
    out, i = [], 0
    for record, E_s in zip(records, E):
        exact, C = X[i].real, record.sums[2]
        coin_flip = D[i:i + 1] + (t * t / 16.0) * (exact @ C - C @ exact)  # H2 = -C / 2
        terms = np.concatenate([D[i:i + 1], coin_flip, D[i + 1:i + len(E_s)]])
        terms[:, 0] = 0.0
        out.append((exact, terms))
        i += len(E_s)
    return out


def commutator_sums(components, d: int) -> tuple:
    """The t-independent part of leading_terms and of mixture_rows for components of
    dimension d, each array read-only: (sum_j G_j, E, C, pairs, eigenbasis); with no
    component, those of one zero generator, every sum zero.  E and C, each a stack of
    one, are the norm order's sums, E of leading_terms's docstring and
    C = sum_i [G_i, R_i]; pairs stacks the pool's directions,
    H3 / 4 = E_o + [sum_j G_j, C_o] / 16 for each order o of the first pool_size(m, d)
    rows of component_orders(m).  sum_j G_j is the loop's own sum in the norm order,
    from the last component to the first.  One loop runs every order at once, in m - 1
    stacked steps.  eigenbasis is _eigenbasis's, or None for a pool of one row, which
    leaves nothing to choose.
    """
    G = [c.generator for c in components] or [np.zeros((d * d, d * d))]
    orders = component_orders(len(G))[:pool_size(len(G), d)]
    pairs = np.empty((len(orders), d * d, d * d))
    # the loop runs SUMS_CHUNK orders at a time, which keeps its memory to a few stacks of
    # that many d^2 x d^2 matrices; the first chunk holds the norm order's sums
    for start in range(0, len(orders), SUMS_CHUNK):
        chunk = orders[start:start + SUMS_CHUNK]
        R = np.stack([G[j] for j in chunk[:, -1]])
        E, C = np.zeros_like(R), np.zeros_like(R)
        # per order, R = R_i on reaching g = G_i, and C sums [G_i, R_i]
        for column in chunk.T[-2::-1]:
            g = np.stack([G[j] for j in column])
            C_i = g @ R
            C_i -= R @ g
            S = g / 24.0
            S += R / 12.0  # the term is -[S, C_i]
            E += C_i @ S - S @ C_i
            C += C_i
            R += g
        if start == 0:
            total, norm_order = R[0].copy(), (E[:1].copy(), C[:1].copy())
        del R
        part = pairs[start:start + len(chunk)]
        np.matmul(total, C, out=part)
        part -= C @ total
        part /= 16.0
        part += E
    sums = total, *norm_order, pairs
    for a in sums:
        a.setflags(write=False)
    return (*sums, _eigenbasis(total, pairs) if len(orders) > 1 else None)


def _eigenbasis(total: np.ndarray, pairs: np.ndarray):
    """(lam, V, W_J, Y_J), each read-only, from one eig of the real sum_j G_j =
    V diag(lam) W, W = V^-1; None when eig or the inverse fails or gives a value that
    is not finite.  The eigenbasis only chooses a mixture's rows, so its accuracy does
    not touch a certificate.

    lam's non-real eigenvalues come in conjugate pairs with conjugate eigenvectors, and
    every direction X of pairs is real, so V^-1 X V takes conjugate values at the
    conjugate pair of indices, and so does Phi o V^-1 X V (_pair_terms).  A product
    V Z W of such a Z is then real and reads Re(V Z_J W_J), J the eigenvalues of
    non-negative imaginary part and Z_J its columns J, those of a conjugate pair
    counted twice: half of each product.  Y_J holds (V^-1 X V)_J for every direction,
    with those weights, as a (d^2, P, |J|) stack in single precision, which keeps each
    term of _pair_terms within 7e-7 of its complex-step term on random d <= 6 at half
    the memory (the real pairs, kept too, give the leads).  W_J is W's rows J, their
    real and negated imaginary parts interleaved row by row, so that the real part of
    a product with W_J is one real product with the float view of its left factor.
    """
    try:
        lam, V = np.linalg.eig(total)
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(lam).all() and np.isfinite(V).all() and np.isfinite(W).all()):
        return None
    J = lam.imag >= 0.0
    Y = (W @ pairs @ V[:, J]) * np.where(lam.imag[J] > 0.0, 2.0, 1.0)
    W_J = np.stack([W[J].real, -W[J].imag], axis=1).reshape(-1, len(W))
    basis = lam, V.astype(complex), W_J, np.ascontiguousarray(Y.swapaxes(0, 1), np.complex64)
    for a in basis:
        a.setflags(write=False)
    return basis


def _pair_terms(basis: tuple, t: float) -> np.ndarray:
    """Each pool row's leading term without its factor t^3: L(t sum_j G_j, pairs_o),
    which t^3 takes to leading_terms's term for the mixture of that row alone, from the
    components' eigenbasis, with row i of direction o's term at [i, o] and row 0, the
    trace, zeroed.  With
    A = t sum_j G_j = V diag(a) V^-1, the derivative along X is V (Phi o V^-1 X V) V^-1,
    Phi_ij the divided difference (e^a_i - e^a_j) / (a_i - a_j), e^a_i where a_i = a_j.
    Phi is taken as e^a_p expm1(z) / z, a_p the one of larger real part and z the other
    minus a_p, which neither overflows nor cancels for close eigenvalues.  Two products,
    each over the whole pool at once, take the terms back, in their halves J
    (_eigenbasis)."""
    lam, V, W, Y = basis
    n, pool, half = Y.shape
    a = t * lam
    ai, aj = a[:, None], a[None, lam.imag >= 0.0]
    first = ai.real >= aj.real
    z = np.where(first, aj - ai, ai - aj)
    with np.errstate(all="ignore"):
        ratio = np.where(z == 0.0, 1.0, np.expm1(z) / np.where(z == 0.0, 1.0, z))
        phi = np.exp(np.where(first, ai, aj)) * ratio
        # row (i, o) of VZ holds row i of V Z_o for direction o
        VZ = (V @ (Y * phi[:, None, :]).reshape(n, pool * half)).reshape(n * pool, half)
        terms = (VZ.view(float) @ W).reshape(n, pool, n)
    terms[0] = 0.0
    return terms


def mixture_rows(record: Record, t: float) -> tuple:
    """The rows of component_orders whose mixture certify runs as the third candidate of
    the split whose record this is: the prefix of at most MIX_PAIRS
    rows of a greedy pass over the pool that makes the Frobenius norm of the mean of
    their terms (_pair_terms) smallest, ties to the lower row and to the shorter prefix,
    in ascending order.  (0,), the coin flip, when the pool has one row, so that the
    split's eigenbasis is None, or its terms or their Gram matrix are not finite.  The
    choice depends on the split and t, not on eps; a run takes it from the record's memo
    (Record.memo, _leads) at the t it saw last."""
    basis = record.sums[4]
    if basis is None:
        return (0,)
    terms = _pair_terms(basis, t)  # the common factor t^3 moves no choice
    flat = terms.transpose(1, 0, 2).reshape(terms.shape[1], -1)
    gram = flat @ flat.T
    if not np.isfinite(gram).all():
        return (0,)
    # with S the rows so far, ||sum_S terms||_F^2 is sumsq and sum_(s in S) gram[s] is row
    chosen, best, smallest = [], (0,), math.inf
    sumsq, row = 0.0, np.zeros(len(gram))
    for size in range(1, min(MIX_PAIRS, len(gram)) + 1):
        grown = sumsq + 2.0 * row + np.diagonal(gram)
        grown[chosen] = math.inf
        pick = int(np.argmin(grown))  # the first of equal values: the lower row
        chosen.append(pick)
        sumsq, row = float(grown[pick]), row + gram[pick]
        if sumsq / size ** 2 < smallest:
            smallest, best = sumsq / size ** 2, tuple(sorted(chosen))
    return best


def expm_rounding(record: Record, t: float) -> float:
    """delta = ROUNDING_ULPS d (1 + ||t sum_j G_j||_1) u, u = 2^-53: the allowance
    certify takes out of eps for the rounding in its computed e^(t sum_j G_j).

    Scaling and squaring's rounding grows with the norm, as each squaring can double
    what the last one left (numerics.MAX_EXPM_NORM): at ||A||_1 = 8e7 the rounding
    numerics measured is 0.024 of this unit at d = 3.  Its growth with d is the
    measured one (ROUNDING_ULPS).  ||sum_j G_j||_1 is the record's one_norm."""
    return ROUNDING_ULPS * record.d * (1.0 + t * record.one_norm) * 2.0 ** -53


def _leads(records: tuple, t: float) -> list:
    """Each record's (rows, e^(t sum_j G_j), leads) at t: its mixture rows (mixture_rows),
    e^(t sum_j G_j), read-only, and its candidates' leads, diamond_bound of
    leading_terms's terms; None for a split whose terms or leads are not finite.  Read
    from each record's memo (Record.memo) where it holds t; the other records' are taken
    in one stacked leading_terms call and one stacked diamond_bound, and kept in their
    memos.  Raises NumericsError when numerics.expm refuses a t sum_j G_j."""
    new = [r for r in records if r.memo is None or r.memo[0] != t]
    if new:
        rows = [mixture_rows(r, t) for r in new]
        found = leading_terms(new, t, rows)
        finite = [np.isfinite(terms).all() for _, terms in found]
        stack = [terms for (_, terms), ok in zip(found, finite) if ok]
        leads = iter(diamond_bound(np.concatenate(stack)).tolist() if stack else ())
        for record, r, (exact, terms), ok in zip(new, rows, found, finite):
            exact.setflags(write=False)
            bounds = [next(leads) for _ in terms] if ok else [math.nan]
            memo = (r, exact, bounds) if all(map(math.isfinite, bounds)) else None
            object.__setattr__(record, "memo", (t, memo))
    return [r.memo[1] for r in records]


def certify(records: tuple, built: dict, eps: float, t: float, paper: TrotterPlan) -> TrotterPlan:
    """The k = 1 plan, at the first repetition count the search reaches, whose
    map T_n on the components of one of the records' splits satisfies
    diamond_bound(T_n - e^(t sum_j G_j)) <= target, that split's; when the search
    stops first, the paper's plan, carrying the search's build count.

    A split's target is eps - t r - delta: r is its residual (Record.residual), which
    bounds ||e^(tL) - e^(t sum_j G_j)||_diamond by t r, and delta (expm_rounding)
    allows for the rounding in the computed e^(t sum_j G_j).  diamond_bound bounds
    the (1->1) norm, so T_n(rho) is within eps of the exact state e^(tL)(rho) in
    trace norm, for a state of the system alone or entangled with another.  A split
    whose target is not positive is not searched, and when no split's is, the
    search does not start.  A mixture's T_n is M^n, M the mean of its blocks, two
    per row of component_orders(m) that the plan carries: n independent uniform
    draws apply each block sequence with its probability, so the device's
    output state is T_n(rho), and the certificate covers it as it covers a
    fixed-order run.
    Each split has three candidates: the fixed block, the coin flip (row 0 alone)
    and the mixture of the rows mixture_rows chooses for its record and t,
    which depend on neither eps nor the search; two when those rows are (0,).
    The search is sized by their leading error terms: with lead = diamond_bound(D),
    every split's candidates' taken at once from the records (_leads, each kept with
    the last t in its record's memo), the certificate is lead / n^2
    up to O(n^-4) and the rounding of the power, so each candidate's search would start
    at n = ceil(sqrt(lead / target)).  A split whose terms are not finite is dropped.
    Every build runs the candidate whose next n needs the fewest exponentials
    (formula_count), on a tie the earlier split, spectral first, and then the one of
    fewer orders: the fixed block, then the coin flip, then the chosen mixture.  So
    the search starts with the cheapest start, and a candidate whose step after a
    miss costs more than another's untried start, of its own split or another, gives
    way to it: a near miss of the coin flip at 0.9 % fewer exponentials than the
    mixture would otherwise step past the mixture's certified count.  Targets, leads
    and the parts a plan carries are read from the records alone; built holds the
    components of the splits built so far, a tuple by split, which only the blocks use:
    all of them on a generator's first build_plan (_make_splits), and a split that
    builds and is missing there has its components built from its record and added to
    it (_split_components).
    After a miss at n a candidate steps to ceil(sqrt(lead / (target - off))), with
    off = certificate - lead / n^2 the part the term did not predict, by a factor of
    at least NEAR_STEP; or, when off >= target or lead = 0, by the k = 1 law
    err ~ n^-2 with SEARCH_MARGIN, and by a factor of at least SEARCH_MARGIN, since
    near the rounding floor off moves by about 1 % of the target from one n to the
    next, and a step that aims at the target itself misses again.  A split stops after
    MAX_BUILDS builds, when its T_n is not finite, and at its rounding floor: when the
    certificate falls by a factor less than min(2, f / 2) from the same candidate's
    last build, f the fall the law predicted for the step.  So its candidates build as
    in its search alone, in order of a count that only grows, and the plan costs no
    more than any one split's search gives.  The search stops when even n = 1, or a
    candidate, would need as many exponentials as the paper's plan, when no split is
    left, and when numerics.expm refuses t sum_j G_j.  The plan carries the paper
    plan's two N_exp bounds, its split, the predicted certificate lead / n^2, and
    t r, delta and the target; its builds are every split's.
    """
    budget = paper.n_exp_actual
    records = {r.split: r for r in records}
    targets = {}
    for name, record in records.items():
        target = eps - t * record.residual - expm_rounding(record, t)
        if formula_count(SUZUKI, len(record.norms), 1, 1) < budget and target > 0.0:
            targets[name] = target
    if not targets:
        return paper
    try:
        leads = dict(zip(records, _leads(tuple(records.values()), t)))
    except NumericsError:  # ||t sum_j G_j||_1 past MAX_EXPM_NORM
        return paper

    def count(key, n):
        return formula_count(MIXED_ORDERS if key[1] else SUZUKI, len(records[key[0]].norms), 1, n)

    # each candidate's next n, its certificate at its last build and the fall the n^-2 law
    # predicted for the step to n, keyed by its split and rows, split by split from fewer
    # orders to more
    search = {}
    for name, target in targets.items():
        if leads[name] is not None:
            rows, _, bounds = leads[name]
            search.update(((name, r), (lead, max(1, math.ceil(math.sqrt(lead / target))),
                                       math.inf, math.inf))
                          for r, lead in zip(((), (0,), rows), bounds))
    builds = dict.fromkeys(records, 0)  # by split
    while search:
        # min keeps the first of equal counts
        key = min(search, key=lambda k: count(k, search[k][1]))
        (name, rows), (lead, n, last, fall) = key, search[key]
        if count(key, n) >= budget:
            break
        builds[name] += 1
        record, target = records[name], targets[name]
        components = _split_components(built, record)
        L1 = components[0].norm
        plan = TrotterPlan(k=1, r=n / L1, n_reps=n, lam=t * L1 / n, m=len(components), L1=L1,
                           bound_res=paper.bound_res, bound_closed_form=paper.bound_closed_form,
                           rows=rows, split=name)
        total = plan_map(plan, components)
        cert = float(diamond_bound(total - leads[name][1])) if np.isfinite(total).all() else None
        if cert is not None and cert <= target:
            return replace(plan, certificate=cert, total_map=total, builds=sum(builds.values()),
                           predicted_certificate=lead / n ** 2,
                           residual_bound=t * record.residual,
                           rounding_allowance=expm_rounding(record, t), target=target)
        if cert is None or not cert * min(2.0, 0.5 * fall) <= last or builds[name] == MAX_BUILDS:
            search = {k: v for k, v in search.items() if k[0] != name}  # this split stops
            continue
        off = cert - lead / n ** 2
        if lead > 0.0 and off < target:
            step = max(math.ceil(n * NEAR_STEP), math.ceil(math.sqrt(lead / (target - off))))
        else:
            step = max(math.ceil(n * SEARCH_MARGIN),
                       math.ceil(n * math.sqrt(cert / target) * SEARCH_MARGIN))
        search[key] = lead, step, cert, (step / n) ** 2
    return replace(paper, builds=sum(builds.values()))


def paper_plan(norms, eps: float, t: float) -> TrotterPlan:
    """The paper planner's plan for components of these norm bounds, in product order:
    step_count's (k, n_reps) and bounds, and the order-2k block's length
    lam = t L1 / n_reps.

    The norms must be in descending order.  A single component needs no splitting: one
    exact segment.  With no component, no nonzero norm or no time the dynamics is
    trivial: the plan has no segment, n_reps = 0 and lam = 0.0.  Every path needs finite
    t >= 0 and eps > 0, and a plan of more than 2^53 exponentials, the cap select_order
    puts on m, is refused.  No schedule is built: the block's 2(m - 1) 5^(k - 1) + 1
    segments are only counted.
    """
    if not (0 <= t < math.inf and 0 < eps < math.inf):  # written so that NaN fails too
        raise TrotterError("need finite t >= 0 and eps > 0")
    if any(norms[i] < norms[i + 1] for i in range(len(norms) - 1)):
        raise TrotterError("components must be ordered by descending norm")
    m = len(norms)
    L1 = norms[0] if norms else 0.0
    if t == 0.0 or L1 == 0.0:
        return TrotterPlan(k=1, r=0.0, n_reps=0, lam=0.0, m=m, L1=L1)
    # one component has no L2; L1 stands in, and the planner ignores it for m = 1
    k, r, n_reps, bound_res, bound_closed = step_count(eps, t, m, L1, norms[1] if m > 1 else L1)
    # checked before any block of 2(m - 1) 5^(k - 1) + 1 segments is built: k grows without
    # bound as eps falls, and the lambda atom's block at eps = 1e-300 has 4.9e8 segments
    if formula_count(SUZUKI, m, k, n_reps) > 2 ** 53:
        raise TrotterError("the paper's plan needs more than 2^53 exponentials")
    return TrotterPlan(k=k, r=r, n_reps=n_reps, lam=t * L1 / n_reps, m=m, L1=L1,
                       bound_res=bound_res, bound_closed_form=bound_closed)


def build_plan(g: GksGenerator, eps: float, t: float) -> TrotterPlan:
    """The plan for g at eps and t, carrying the components of its split: the certified
    plan (certify) over every split of g (its records, g.splits, made on g's first use by
    _make_splits), sized by their leading error terms and certified against its own
    split's residual, or else the paper's plan (paper_plan of the spectral record's
    norms), which also bounds the search's cost.  A repeat call at the t a record saw
    last reads its leads from the record's memo (_leads).

    A plan with one component or no repetition is the paper's: it has nothing to
    certify, and no block is built for it.  Each split's components are built at most
    once a call, on g's first with the records (_split_components), and only the plan's
    are kept, in plan.components.
    """
    built = _make_splits(g)
    paper = paper_plan(g.splits[0].norms, eps, t)
    plan = paper if paper.m < 2 or paper.n_reps == 0 else certify(g.splits, built, eps, t, paper)
    record = next(r for r in g.splits if r.split == plan.split)
    return replace(plan, components=_split_components(built, record))


def block_superoperator(plan: TrotterPlan, components: list[Component]) -> np.ndarray:
    """One S_2k block less the identity, or for a k = 1 mixture the mean of its
    2 * plan.pairs blocks less the identity.

    Suzuki's recursion unrolls into 2^(k-1) leaves, symmetric blocks S_2 of
    normalized lengths lam prod_j f_j, f_j in {p_j, 1 - 4 p_j} for j = 2..k: one
    leaf, lam itself, at k = 1.  Each component is asked once, in one
    Component.channel call, for its channels at the leaves' half steps tau.  A leaf
    in order o is B F, with F = e^(tau G_(o_(m-1))) ... e^(tau G_(o_0)) its first
    sweep and B = e^(tau G_(o_0)) ... e^(tau G_(o_(m-1))) its second; the reversed
    order's is F B.  Both sweeps run over the plan's rows of component_orders(m),
    row 0 for the fixed block, stacked over rows and leaves, in 2(m - 1) products.
    The fixed block is row 0's B F, folded at k >= 2 one level at a time, innermost
    first, as S = (A A) M (A A), A the leaf or fold of factor p_j and M that of
    1 - 4 p_j.  A mixture is the mean of (B F + F B) / 2 over its rows.

    Every map is an offset from the identity (numerics.expm): each channel as
    e^(tau G_j) - I, each product as (I + Y)(I + X) - I = X + Y + Y X, so that the
    block's entries carry no rounding to a unit of the identity's, which n_reps
    repetitions would add up (plan_map).
    """
    lengths = leaf_lengths(plan.k, plan.lam)
    half = np.stack([comp.channel(lengths.ravel() / 2.0 / plan.L1) for comp in components])
    orders = component_orders(plan.m)[list(plan.rows) or [0]]
    forward = backward = half[orders[:, 0]]  # F and B of each row and leaf, stacked
    for column in orders.T[1:]:
        h = half[column]
        f, b = h @ forward, backward @ h
        f += forward
        f += h
        b += backward
        b += h
        forward, backward = f, b
    Y = backward @ forward
    if plan.pairs:  # the mean of B F and F B
        Y += forward @ backward
        Y *= 0.5
    Y += forward
    Y += backward
    block = Y.mean(axis=0).reshape(lengths.shape + Y.shape[-2:])
    while block.ndim > 2:
        A = _offset_product(block[..., 0, :, :], block[..., 0, :, :])
        block = _offset_product(_offset_product(A, block[..., 1, :, :]), A)
    return block


def plan_map(plan: TrotterPlan, components: list[Component]) -> np.ndarray:
    """The full product [block]^n_reps as one d^2 x d^2 map.

    The block M = I + Y comes as its offset Y (block_superoperator), projected onto
    trace-preserving maps (lindblad.trace_preserving) by zeroing its row 0, so that
    the rounding error in its trace does not grow with n_reps inside the power.  The
    power is (I + Y)^n - I (_offset_power), whose row 0 stays zero, so the map is
    trace-preserving too, and neither carries a rounding of the identity that grows
    with n_reps: on random d = 3 at eps = 1e-11, and on the lambda atom at 1e-12,
    the certificate then reads what its leading term predicts to 1e-5 and 1.3e-4,
    where the map itself missed by up to 30 % of the target and by 18.5 times it.  A
    power that overflows comes back with non-finite entries, not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        Y = block_superoperator(plan, components)
        Y[0] = 0.0  # trace_preserving's row 0, e0^T, less the identity's
        return np.eye(len(Y)) + _offset_power(Y, plan.n_reps)


def _offset_product(Y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(I + Y)(I + X) - I = X + Y + Y X: the product of two maps given as offsets."""
    return X + Y + Y @ X


def _offset_power(Y: np.ndarray, n: int) -> np.ndarray:
    """(I + Y)^n - I by binary powering in offsets (_offset_product)."""
    power = np.zeros_like(Y)
    while n:
        if n & 1:
            power = _offset_product(Y, power)
        n >>= 1
        if n:
            Y = _offset_product(Y, Y)
    return power


def run_plan(plan: TrotterPlan, components: list[Component], rho0: QuantumState) -> QuantumState:
    """Apply the plan's map, the one its certificate covers, or for a plan
    without one plan_map, to the initial state."""
    if len(components) != plan.m:
        raise TrotterError("component list does not match the plan")
    if components and components[0].d != rho0.d:
        raise TrotterError("state dimension does not match the components")
    if plan.n_reps == 0:
        return rho0
    total = plan.total_map if plan.total_map is not None else plan_map(plan, components)
    return evolve(total, rho0)


def nexp_report(plan: TrotterPlan) -> TrotterPlan:
    """The plan itself, which is its own cost report (TrotterPlan.cost_report): kept for
    the benchmark, which reads its exponential count as nexp_report(plan).n_exp_actual."""
    return plan


def simulate(g: GksGenerator, rho0: QuantumState, t: float, eps: float):
    """Plan and run; returns (state, plan, components), the components those of the
    split the plan runs (plan.split), which the plan carries.

    build_plan makes g's candidate splits of A on its first use, each kept in its own
    Record in g.splits and reused by every later run, whatever its t and eps, and
    certifies the split whose best formula predicts the fewest exponentials at eps,
    handing over to another split when a miss makes it cost more (certify).
    """
    if rho0.d != g.d:
        raise TrotterError(f"state has d = {rho0.d} but the generator has d = {g.d}")
    plan = build_plan(g, eps, t)
    return run_plan(plan, plan.components, rho0), plan, plan.components
