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
prepare_components computes r once per generator (Components).  delta
allows for the rounding in the computed exp(t sum_j G_j) (expm_rounding).
So ||T_n - exp(tL)||_(1->1) <= eps, and a run's state lies within eps / 2
of the exact one in trace distance.  The plan carries T_n, that certificate,
t r, delta and the target.
The search is sized in closed form by the block's leading error term, the
nested commutators of the component generators (leading_error; Childs, Su,
Tran, Wiebe and Zhu, "Theory of Trotter error with commutator scaling",
PRX 11, 011020 (2021)): T_n differs from exp(t sum_j G_j) by
D / n^2 + O(n^-4), so the search starts at the smallest n that D
certifies, and most runs build one block.

The search sizes three k = 1 formulas (FORMULAS) and runs the one whose
predicted n needs the fewest exponentials, the one of fewer component
orders on a tie.  The first is the symmetric block above, in one
component order.  The other two are mixtures that draw each block
uniformly from pairs of component orders, each an order and its reverse
(Childs, Ostrander and Su, "Faster quantum simulation by randomization",
Quantum 3, 182 (2019)).  The coin flip has one pair: it runs the block
above or the block in the reversed component order, component j as
m - 1 - j.  The mixed-orders formula has the MIX_PAIRS pairs of
component_orders(m), the norm order's and three drawn from a fixed
splitmix64 shuffle, or all m! / 2 when there are fewer (one at m = 2,
where it is the coin flip and is not searched).  Every duration is
positive, so every block is a product of channels of the universal
family, and n independent draws apply exactly M^n, M the mean of the
blocks.  The classical run computes M^n itself, with no random numbers, so
the output is deterministic and the certificate above covers the device's
state as it covers a fixed-order run.  An order's and its reverse's
third-order terms differ by a commutator that cancels in M, and averaging
over more orders shrinks the rest, so a mixture's leading term is smaller;
each comes from the same commutator loop, run over every order at once,
and one more stacked exponential (leading_error).  n blocks cost
n (2m - 2) + 1 exponentials in one order and at most n (2m - 1) in a
mixture, where neighbouring blocks merge only when they meet on the same
component.  On random d = 6 generators the mixed orders need about 30 %
fewer exponentials than the coin flip; the coin flip stays a candidate,
since on some generators (random d = 3, the qubit chains) it reads lower,
and the two-component lambda atom keeps the fixed block.

The block and its power are each projected onto trace-preserving maps
(plan_map).  When the search stops first (certify lists when), the paper's
plan (paper_plan) runs, uncertified, as the fallback; it is also what the
cost subcommand reports.  step_count is the paper's planner, and
select_order, its first step, holds the one check of the planner's inputs.
build_plan calls step_count once per run, through paper_plan; every plan it
returns carries the two N_exp bounds that nexp_report prints.

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
its channels at every leaf's half step, which one stacked numerics.expm call
computes, on a Taylor rung with no solve at a block's small norms.  The forward
and backward sweeps run over the leaves and, for a mixture, over its component
orders at once; the fixed block's leaves fold level by level into S_2k.  No
run builds the merged schedule: a plan's schedule property unrolls it on
demand, in closed form from the same leaves (block_schedule).
The block, its power and exp(t sum_j G_j) are all real, and the
certificate's Choi matrix is formed from the real map and the basis stack
directly.  At k = 1 every duration is positive, so every
factor is a unitary channel or a channel of the universal family; negative
intermediate durations appear in the recursion for k >= 2, where the matrix
exponential is applied for any sign and the cost report flags them.
"""

import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .decompose import decompose_generator, plan_operators
from .lindblad import (DiagonalGenerator, GksGenerator, QuantumState, evolve, hermitian_basis,
                       liouvillian_matrix, one_one_norm, real_map, trace_preserving)
from .numerics import NumericsError, dagger, expm


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
        """Exact channel matrices exp(t * G_j), one per physical duration t in
        t_phys, stacked in its order and taken from one expm call."""
        return expm(np.asarray(t_phys, dtype=float)[:, None, None] * self.generator)


class Components(list):
    """A generator's components, norm-ordered, as prepare_components returns them, and
    residual: r = diamond_bound(L - sum_j G_j), L the generator's real map, which bounds
    ||exp(tL) - exp(t sum_j G_j)||_diamond by t r.  certify takes t r out of eps, so a
    component list is certified only with the residual of the generator it splits."""

    def __init__(self, components, residual: float):
        super().__init__(components)
        self.residual = residual


def prepare_components(g: GksGenerator, plans) -> Components:
    """The components of g, given its conjugation plans, norm-ordered, with their
    residual r against g (Components).

    The Hamiltonian gives rho -> i[rho, H] when H is nonzero.  Each plan of
    positive weight gives lam U [L . L† - (1/2){L†L, .}] U†, the dissipator
    of L' = U L U† with L = plan.operator; conjugation by U leaves the (1->1)
    norm unchanged, so L's bound is the component's, from one one_one_norm
    call.  Each real map is built in the Hermitian basis B directly, row k
    from the adjoint map's image Y_k of B_k, R_kl = Re tr(Y_k B_l), where the
    halves of an anticommutator have conjugate traces: Y_k = 2i H B_k for the
    Hamiltonian and lam (L'† B_k L' - L'†L' B_k) for a dissipator.  Components
    of zero norm are dropped; the rest are sorted by descending norm, with
    stable ties, which fixes the product order deterministically.  r is computed
    on each call, except for g's own plans (decompose.decompose_generator), whose r
    is computed on first use and kept on g.
    """
    d, zero = g.d, np.zeros((g.d, g.d))
    plans = [p for p in plans if p.lam > 0.0]
    L = plan_operators(plans).reshape(-1, d, d)
    U = np.array([p.U for p in plans]).reshape(L.shape)
    lam = np.array([p.lam for p in plans]).reshape(-1, 1, 1)
    norms = [one_one_norm(DiagonalGenerator(d, zero, ((p.lam, l),))) for p, l in zip(plans, L)]
    Lc = U @ L @ dagger(U)
    left = lam * (dagger(Lc) @ Lc)  # the factors in front of B_k alone: 2i H first, if any
    if np.max(np.abs(g.H)) > 0.0:
        left = np.concatenate([2j * g.H[None], left])
        norms.insert(0, one_one_norm(DiagonalGenerator(d, g.H)))
    B = hermitian_basis(d)
    side = B.transpose(1, 0, 2).reshape(d, d ** 3)  # B_k side by side

    def times_basis(X):  # X_j B_k for each X_j of the stack X, at [j, :, k]
        return (X.reshape(-1, d) @ side).reshape(len(X), d, d * d, d)

    n, m = len(norms), len(plans)
    Y = np.empty((n, d * d, d, d), dtype=complex)
    Yt = Y.transpose(0, 2, 1, 3)  # Y[j, k] = Yt[j, :, k]
    sandwiched = times_basis(lam * dagger(Lc)).reshape(m, d ** 3, d) @ Lc
    one_sided = times_basis(left)
    Yt[:n - m] = one_sided[:n - m]  # the Hamiltonian's, if any
    np.subtract(sandwiched.reshape(m, d, d * d, d), one_sided[n - m:], out=Yt[n - m:])
    del sandwiched, one_sided  # d^4 complex entries a component each, freed before R exists
    # Re tr(Y_k B_l) = Re sum_ab (Y_k)_ab conj(B_l)_ab: the dot product of the float views
    real = B.reshape(d * d, d * d).view(float)
    R = (Y.reshape(n * d * d, d * d).view(float) @ real.T).reshape(n, d * d, d * d)
    comps = [Component(d, norm, r) for norm, r in zip(norms, R)]
    comps = sorted((c for c in comps if c.norm > 0.0), key=lambda c: -c.norm)  # stable
    own = tuple(plans) == g._decomposition.get("plans")  # plans compare by identity
    residual = g._decomposition.get("residual") if own else None
    if residual is None:
        residual = float(diamond_bound(real_map(liouvillian_matrix(g))
                                       - sum(c.generator for c in comps)))
        if own:
            g._decomposition["residual"] = residual
    return Components(comps, residual)


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
# orders, each an order and its reverse: the coin flip over the norm order's pair, or the
# mixture over every pair of component_orders (certify)
SUZUKI, COIN_FLIP, MIXED_ORDERS = FORMULAS = "suzuki", "coin-flip", "mixed-orders"
# the mixture's pairs: the norm order's and MIX_PAIRS - 1 shuffled ones, fewer when m! / 2,
# the count of distinct pairs, is smaller
MIX_PAIRS = 4
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
    """The mixed-orders formula's component orders over m components, one row per pair:
    row 0 is the norm order 0..m-1, and each later row a Fisher-Yates shuffle drawn from
    one splitmix64 stream seeded with m, kept when neither it nor its reverse is already
    a row.  min(MIX_PAIRS, m! / 2) rows, at least one; read-only, built on first use for
    each m.  Row p's pair runs the block in that order or in the reversed one."""
    pairs = max(1, min(MIX_PAIRS, math.factorial(m) // 2))
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
    plan it returned, and the product formula.

    r is the paper planner's block parameter, n_reps = ceil(r L1); a
    certified plan's n_reps comes from the search instead, and its r is
    n_reps / L1.  lam = t L1 / n_reps is one block's length in units of 1 / L1,
    0.0 for a trivial plan of no repetition.  The plan stores no schedule:
    block_superoperator builds the block from (k, lam) and the formula, and
    the schedule property unrolls it on demand.  A k = 1 mixture draws each
    repetition's block uniformly from 2 * pairs blocks: each of the first pairs
    rows of component_orders(m) run as the symmetric block in that order or in
    the reversed one, at the half step lam / 2.  The coin flip's one pair is the
    norm order's, whose reverse runs component j as m - 1 - j.  Plans compare
    without their map and build count.
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
    residual_bound: float | None = None  # t r, r the components' residual (Components)
    rounding_allowance: float | None = None  # delta (expm_rounding)
    target: float | None = None
    builds: int = field(default=0, compare=False)
    formula: str = SUZUKI

    @property
    def pairs(self) -> int:
        """The order pairs a k = 1 mixture draws its blocks from: the rows of
        component_orders(m) for the mixed-orders formula, 1 for the coin flip, 0 for
        a fixed-order block."""
        if self.formula == MIXED_ORDERS:
            return len(component_orders(self.m))
        return int(self.formula == COIN_FLIP)

    @property
    def schedule(self) -> tuple:
        """One block's merged segments, block_schedule(m, k, lam), or () for a
        plan of no repetition; built on each read, and by no run."""
        return block_schedule(self.m, self.k, self.lam) if self.n_reps else ()

    @property
    def n_exp(self) -> int:
        """Unmerged exponential count (2(m-1)5^(k-1)+1) * n_reps."""
        return segments_per_block(self.m, self.k) * self.n_reps

    def actual_exponentials(self) -> int:
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
# read with diamond_bound, leading_error's e^(t sum_j G_j) was at most 0.49 units off on
# random_gks(d), d = 2, 3, seeds 1-3, and the lambda atom, at t = 0.25..32, and 0.92 and
# 1.23 units off on n_qubit_generator(2) and (3) (d = 4, 8) at t = 0.25 and 1
ROUNDING_ULPS = 16
# the certificate search: at most this many block builds; a step that the leading
# error term cannot size overshoots the n^-2 law's prediction by SEARCH_MARGIN, and
# no step grows n by less
MAX_BUILDS = 4
SEARCH_MARGIN = 1.05


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
    X = X * math.ldexp(1.0, -e)
    # (F^T X^T F)[(c a), (b e)] = sum_l (B_l)_ca (sum_k X_kl B_k)_be = J[(a b), (c e)]
    J = (F.T @ (np.swapaxes(X, -1, -2) @ F)).reshape(-1, d, d, d, d).transpose(0, 2, 3, 1, 4)
    w, V = np.linalg.eigh(J.reshape(X.shape))
    roots = np.sqrt(np.maximum(np.multiply.outer((1.0, -1.0), w), 0.0))  # J_+, J_-
    P = (V.reshape(*stack, d, d, d * d) * roots[..., None, None, :]).reshape(2, *stack, d, -1)
    tops = np.linalg.eigvalsh(P @ np.conj(np.swapaxes(P, -1, -2)))[..., -1]
    with np.errstate(over="ignore"):
        return np.ldexp(tops[0] + tops[1], e)


def leading_error(components: list[Component], t: float):
    """e^(t sum_j G_j) and the leading error terms D of the k = 1 formulas over
    the components, in product order: T_n - e^(t sum_j G_j) = D / n^2 + O(n^-4),
    stacked in FORMULAS order: the fixed-order block, the coin flip and, when
    component_orders has more than one pair, the mixed-orders formula (at m = 2
    the coin flip is that mixture, and there are two terms).

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
    H3 / 4 - [sum_j G_j, H2] / 8, so their mean, the coin flip's, is H3 / 4.  The
    derivative of exp takes [A, X] to [e^A, X], so the coin flip's term is
    D - (t^2 / 8) [e^(t sum_j G_j), H2]: two products more.  A mixture of blocks
    e^(tau sum_j G_j + tau^3 E_o + ...) is e^(tau sum_j G_j + tau^3 mean_o E_o + ...)
    up to O(tau^6), and the derivative is linear in its direction, so the
    mixed-orders term is t^3 times the derivative along the mean of the orders' E,
    plus (t^2 / 16) [e^(t sum_j G_j), mean_o sum_i [G_i, R_i]].  The commutator loop
    runs every row of component_orders at once, as stacked products, and both
    directions go through one stacked expm.  Row 0 of each D, the trace, is zeroed,
    as trace_preserving zeroes it in T_n.  Commuting components have E = H2 = 0 and
    every term 0, up to rounding in their commutators.  certify measures D with the
    certificate's own bound: diamond_bound(D) / n^2 predicts
    diamond_bound(T_n - e^(t sum_j G_j)) up to O(n^-4), since the bound is
    continuous and takes c X to |c| times X's.
    """
    G, orders = [c.generator for c in components], component_orders(len(components))
    R = np.stack([G[j] for j in orders[:, -1]])
    E, C = np.zeros_like(R), np.zeros_like(R)
    # per order, R = R_i on reaching g = G_i, and C sums [G_i, R_i]; one stacked product at
    # a time, which keeps the memory to a few stacks of the orders' d^2 x d^2 matrices
    for column in orders.T[-2::-1]:
        g = np.stack([G[j] for j in column])
        C_i = g @ R
        C_i -= R @ g
        S = g / 24.0
        S += R / 12.0  # the term is -[S, C_i]
        E += C_i @ S - S @ C_i
        C += C_i
        R += g
    A = t * R[0]
    if len(orders) > 1:  # the norm order's sums, then the means over the orders
        E, C = np.stack([E[0], E.mean(axis=0)]), np.stack([C[0], C.mean(axis=0)])
    norms = np.abs(E).sum(axis=-2).max(axis=-1).tolist()
    if max(norms) > 0.0:
        h = np.array([math.ldexp(1.0, -math.frexp(x)[1] - 60) for x in norms])
        X = expm(A + (1j * h)[:, None, None] * E)
        exact, D = X[0].real, (t ** 3 / h)[:, None, None] * X.imag
    else:
        exact, D = expm(A), np.zeros_like(E)
    terms = np.concatenate([D[:1], D + (t * t / 16.0) * (exact @ C - C @ exact)])  # H2 = -C / 2
    terms[:, 0] = 0.0
    return exact, terms


def expm_rounding(components: list[Component], t: float) -> float:
    """delta = ROUNDING_ULPS d (1 + ||t sum_j G_j||_1) u, u = 2^-53: the allowance
    certify takes out of eps for the rounding in its computed e^(t sum_j G_j).

    Scaling and squaring's rounding grows with the norm, as each squaring can double
    what the last one left (numerics.MAX_EXPM_NORM): at ||A||_1 = 8e7 the rounding
    numerics measured is 0.024 of this unit at d = 3.  Its growth with d is the
    measured one (ROUNDING_ULPS)."""
    norm = t * max(np.abs(sum(c.generator for c in components)).sum(axis=0).tolist())
    return ROUNDING_ULPS * components[0].d * (1.0 + norm) * 2.0 ** -53


def certify(components: Components, eps: float, t: float,
            paper: TrotterPlan) -> TrotterPlan:
    """The k = 1 plan, at the first repetition count the search reaches, whose
    map T_n satisfies diamond_bound(T_n - e^(t sum_j G_j)) <= target; when the
    search stops first, the paper's plan, carrying the search's build count.

    The target is eps - t r - delta: r is the components' residual
    (Components.residual), which bounds ||e^(tL) - e^(t sum_j G_j)||_diamond by
    t r, and delta (expm_rounding) allows for the rounding in the computed
    e^(t sum_j G_j).  diamond_bound bounds the (1->1) norm, so T_n(rho) is within
    eps of the exact state e^(tL)(rho) in trace norm, for a state of the system
    alone or entangled with another.  When the target is not positive the
    search does not start.  A mixture's T_n is M^n, M the mean of its blocks (the
    coin flip's two, the mixed orders' two per row of component_orders(m):
    2 MIX_PAIRS from m = 4 on, 6 at m = 3): n independent uniform
    draws apply each block sequence with its probability, so the device's
    output state is T_n(rho), and the certificate covers it as it covers a
    fixed-order run.
    The search is sized by the leading error terms (leading_error): with
    lead = diamond_bound(D), every formula's taken in one stacked call, the
    certificate is lead / n^2 up to O(n^-4) and the rounding of the power, so
    each formula's search would start at n = ceil(sqrt(lead / target)).
    Every build runs the formula whose next n needs the fewest exponentials
    (formula_count), the one of fewer orders on a tie: the fixed block, then
    the coin flip, then the mixed orders.  So the search starts with the
    cheapest start, and a formula whose step after a miss costs more than
    another's untried start gives way to it: a near miss of the coin flip at
    0.5 % fewer exponentials than the mixed orders would otherwise step past
    the mixed orders' certified count.
    After a miss at n a formula steps to ceil(sqrt(lead / (target - off))), with
    off = certificate - lead / n^2 the part the term did not predict, or, when
    off >= target or lead = 0, by the k = 1 law err ~ n^-2 with SEARCH_MARGIN;
    either way by a factor of at least SEARCH_MARGIN, since near the rounding
    floor off moves by about 1 % of the target from one n to the next, and a
    step that aims at the target itself misses again.  It stops when even n = 1,
    or a candidate, would need as many exponentials as the paper's plan, after
    MAX_BUILDS builds, when T_n or a term is not finite, when numerics.expm
    refuses t sum_j G_j, and at the rounding floor: when the certificate falls
    by a factor less than min(2, f / 2) from the same formula's last build, f
    the fall the law predicted for the step.  The plan carries the paper plan's
    two N_exp bounds, the predicted certificate lead / n^2, and t r, delta and
    the target.
    """
    if not isinstance(components, Components):
        raise TrotterError("a plan is certified against its generator: take the components, "
                           "with their residual, from prepare_components")
    m, L1 = len(components), components[0].norm
    budget = paper.actual_exponentials()
    if formula_count(SUZUKI, m, 1, 1) >= budget:
        return paper
    residual, rounding = t * components.residual, expm_rounding(components, t)
    target = eps - residual - rounding
    if not target > 0.0:
        return paper
    try:
        exact, terms = leading_error(components, t)
    except NumericsError:  # ||t sum_j G_j||_1 past MAX_EXPM_NORM
        return paper
    if not np.isfinite(terms).all():
        return paper
    leads = diamond_bound(terms).tolist()
    if not all(map(math.isfinite, leads)):
        return paper
    # each formula's next n, its certificate at its last build and the fall the n^-2 law
    # predicted for the step to n; in FORMULAS order, from fewer orders to more
    search = {formula: (lead, max(1, math.ceil(math.sqrt(lead / target))), math.inf, math.inf)
              for formula, lead in zip(FORMULAS, leads)}
    for builds in range(1, MAX_BUILDS + 1):
        # min keeps the first of equal counts
        formula = min(search, key=lambda f: formula_count(f, m, 1, search[f][1]))
        lead, n, last, fall = search[formula]
        if formula_count(formula, m, 1, n) >= budget:
            return replace(paper, builds=builds - 1)
        plan = TrotterPlan(k=1, r=n / L1, n_reps=n, lam=t * L1 / n, m=m, L1=L1,
                           bound_res=paper.bound_res, bound_closed_form=paper.bound_closed_form,
                           formula=formula)
        total = plan_map(plan, components)
        if not np.isfinite(total).all():
            return replace(paper, builds=builds)
        cert = float(diamond_bound(total - exact))
        if cert <= target:
            return replace(plan, certificate=cert, total_map=total, builds=builds,
                           predicted_certificate=lead / n ** 2, residual_bound=residual,
                           rounding_allowance=rounding, target=target)
        if not cert * min(2.0, 0.5 * fall) <= last:
            return replace(paper, builds=builds)
        off = cert - lead / n ** 2
        if lead > 0.0 and off < target:
            step = math.ceil(math.sqrt(lead / (target - off)))
        else:
            step = math.ceil(n * math.sqrt(cert / target) * SEARCH_MARGIN)
        step = max(math.ceil(n * SEARCH_MARGIN), step)
        search[formula] = lead, step, cert, (step / n) ** 2
    return replace(paper, builds=MAX_BUILDS)


def paper_plan(components: list[Component], eps: float, t: float) -> TrotterPlan:
    """The paper planner's plan for the component list: step_count's
    (k, n_reps) and bounds, and the order-2k block's length lam = t L1 / n_reps.

    Components must already be ordered by descending norm.  A single
    component needs no splitting: one exact segment.  With no component,
    no nonzero norm or no time the dynamics is trivial: the plan has no
    segment, n_reps = 0 and lam = 0.0.  Every path needs finite t >= 0 and
    eps > 0, and a plan of more than 2^53 exponentials, the cap select_order puts
    on m, is refused.  No schedule is built: the block's 2(m - 1) 5^(k - 1) + 1
    segments are only counted.
    """
    if not (0 <= t < math.inf and 0 < eps < math.inf):  # written so that NaN fails too
        raise TrotterError("need finite t >= 0 and eps > 0")
    norms = [c.norm for c in components]
    if any(norms[i] < norms[i + 1] for i in range(len(norms) - 1)):
        raise TrotterError("components must be ordered by descending norm")
    m = len(components)
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


def build_plan(components: Components, eps: float, t: float) -> TrotterPlan:
    """The certified plan for the components (certify), sized by their leading
    error term and certified against their residual, or else the paper's plan
    (paper_plan), which also bounds the search's cost.

    A plan with one component or no repetition is the paper's: it has
    nothing to certify, and no block is built for it.  Any other plan needs
    the components' residual, so a plain list of them is refused.
    """
    paper = paper_plan(components, eps, t)
    if paper.m < 2 or paper.n_reps == 0:
        return paper
    return certify(components, eps, t, paper)


def block_superoperator(plan: TrotterPlan, components: list[Component]) -> np.ndarray:
    """Channel matrix of one S_2k block, or for a k = 1 mixture the mean of its
    2 * plan.pairs blocks.

    Suzuki's recursion unrolls into 2^(k-1) leaves, symmetric blocks S_2 of
    normalized lengths lam prod_j f_j, f_j in {p_j, 1 - 4 p_j} for j = 2..k: one
    leaf, lam itself, at k = 1.  Each component is asked once, in one
    Component.channel call, for its channels at the leaves' half steps tau.  A leaf
    in order o is B F, with F = e^(tau G_(o_(m-1))) ... e^(tau G_(o_0)) its first
    sweep and B = e^(tau G_(o_0)) ... e^(tau G_(o_(m-1))) its second; the reversed
    order's is F B.  Both sweeps run over the first max(1, pairs) rows of
    component_orders(m), stacked over rows and leaves, in 2(m - 1) products.
    The fixed block is row 0's B F, folded at k >= 2 one level at a time, innermost
    first, as S = (A A) M (A A), A the leaf or fold of factor p_j and M that of
    1 - 4 p_j.  A mixture is the mean of (B F + F B) / 2 over its rows.
    """
    lengths = leaf_lengths(plan.k, plan.lam)
    half = np.stack([comp.channel(lengths.ravel() / 2.0 / plan.L1) for comp in components])
    orders = component_orders(plan.m)[:max(1, plan.pairs)]
    forward = backward = half[orders[:, 0]]  # F and B of each row and leaf, stacked
    for column in orders.T[1:]:
        h = half[column]
        forward, backward = h @ forward, backward @ h
    if plan.pairs:
        return 0.5 * (backward @ forward + forward @ backward).mean(axis=0)[0]
    block = (backward @ forward)[0].reshape(lengths.shape + half.shape[-2:])
    while block.ndim > 2:
        A = block[..., 0, :, :] @ block[..., 0, :, :]
        block = A @ block[..., 1, :, :] @ A
    return block


def plan_map(plan: TrotterPlan, components: list[Component]) -> np.ndarray:
    """The full product [block]^n_reps as one d^2 x d^2 map.

    The block and its power are each projected onto trace-preserving maps
    (lindblad.trace_preserving): the block so that the rounding error in
    its trace does not grow with n_reps inside the power, and the power for
    the rounding the power adds itself.  A power that overflows comes back
    with non-finite entries, not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        block = trace_preserving(block_superoperator(plan, components))
        return trace_preserving(np.linalg.matrix_power(block, plan.n_reps))


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


@dataclass(frozen=True)
class CostReport:
    formula: str
    pairs: int
    k: int
    r: float
    n_reps: int
    n_exp_actual: int
    n_exp_unmerged: int
    n_exp_bound_res: float | None
    n_exp_bound_closed_form: float | None
    negative_segments: bool
    certificate: float | None
    predicted_certificate: float | None
    residual_bound: float | None
    rounding_allowance: float | None
    target: float | None
    builds: int

    def to_dict(self) -> dict:
        """The fields by name, each n_exp written N_exp."""
        return {f.name.replace("n_exp", "N_exp"): getattr(self, f.name) for f in fields(self)}


def nexp_report(plan: TrotterPlan) -> CostReport:
    """Actual exponential counts next to the plan's two cost bounds."""
    return CostReport(
        formula=plan.formula,
        pairs=plan.pairs,
        k=plan.k,
        r=plan.r,
        n_reps=plan.n_reps,
        n_exp_actual=plan.actual_exponentials(),
        n_exp_unmerged=plan.n_exp,
        n_exp_bound_res=plan.bound_res,
        n_exp_bound_closed_form=plan.bound_closed_form,
        negative_segments=plan.has_negative_segments(),
        certificate=plan.certificate,
        predicted_certificate=plan.predicted_certificate,
        residual_bound=plan.residual_bound,
        rounding_allowance=plan.rounding_allowance,
        target=plan.target,
        builds=plan.builds,
    )


def simulate(g: GksGenerator, rho0: QuantumState, t: float, eps: float):
    """Decompose, plan, and run; returns (state, plan, components).

    The decomposition is g's own (decompose_generator): computed on g's first
    run and reused by every later one, whatever its t and eps.
    """
    if rho0.d != g.d:
        raise TrotterError(f"state has d = {rho0.d} but the generator has d = {g.d}")
    components = prepare_components(g, decompose_generator(g))
    plan = build_plan(components, eps, t)
    return run_plan(plan, components, rho0), plan, components
