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

step_count is the planner, and select_order, its first step, holds the one
check of the planner's inputs.  build_plan calls step_count once per run;
the TrotterPlan it returns carries the two N_exp bounds that nexp_report
prints.

Each component channel is realized exactly: Hamiltonian segments as unitary
conjugation, dissipative segments as U [exp(t~ L_universal)(U† . U)] U†
with the physical duration t~ carrying the component's spectral weight.
Negative intermediate durations appear in the recursion for k >= 2; the
matrix exponential is applied for any sign and the cost report flags them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .decompose import ConjugationPlan, decompose_generator, universal_vector
from .lindblad import (DiagonalGenerator, GksGenerator, QuantumState, conjugation_superoperator,
                       dissipator_superoperator, one_one_norm, unvec, vec)
from .numerics import expm
from .sud import GellMannBasis


class TrotterError(ValueError):
    pass


E = math.e


@dataclass(frozen=True)
class Segment:
    """One product factor: component index and normalized duration."""

    index: int
    duration: float


@dataclass(frozen=True)
class Component:
    """One summand of the generator with its exact channel realization."""

    kind: str  # "hamiltonian" | "dissipative"
    d: int
    norm: float
    # hamiltonian payload
    H: np.ndarray | None = field(default=None, repr=False)
    # dissipative payload
    plan: ConjugationPlan | None = None
    conj: np.ndarray | None = field(default=None, repr=False)  # vec form of U . U†
    universal: np.ndarray | None = field(default=None, repr=False)  # generator of A(params)

    def channel(self, t_phys: float) -> np.ndarray:
        """Exact channel matrix exp(t_phys * L_j), built from primitives."""
        if self.kind == "hamiltonian":
            u = expm(-1j * t_phys * self.H)
            return conjugation_superoperator(u)
        t_eff = t_phys * self.plan.lam
        inner = expm(t_eff * self.universal)
        return self.conj @ inner @ np.conj(self.conj).T


def hamiltonian_component(H: np.ndarray) -> Component:
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    norm = one_one_norm(DiagonalGenerator(d, H))
    return Component(kind="hamiltonian", d=d, norm=norm, H=H)


def dissipative_component(plan: ConjugationPlan, basis: GellMannBasis) -> Component:
    # lam U [L . L† - (1/2){L†L, .}] U† with L = sum_a v_a F_a: conjugation
    # by U leaves the (1->1) norm unchanged, so L's norm bound is the component's
    d = basis.d
    v = universal_vector(plan.params, basis)
    S_univ = dissipator_superoperator(np.outer(v, np.conj(v)), basis)
    L = np.einsum("a,aij->ij", v, basis.matrices)
    norm = one_one_norm(DiagonalGenerator(d, np.zeros((d, d)), ((plan.lam, L),)))
    K = conjugation_superoperator(plan.U)
    return Component(kind="dissipative", d=d, norm=norm, plan=plan, conj=K, universal=S_univ)


def prepare_components(g: GksGenerator, plans) -> list[Component]:
    """Assemble and norm-order the components of g, given its conjugation plans.

    Zero components (vanishing Hamiltonian, zero-weight plans) are
    dropped; the rest are sorted by descending (1->1) norm upper bound,
    with stable ties, which fixes the product order deterministically.
    """
    comps = []
    if np.max(np.abs(g.H)) > 0.0:
        comps.append(hamiltonian_component(g.H))
    for plan in plans:
        if plan.lam > 0.0:
            comps.append(dissipative_component(plan, g.basis))
    comps = [c for c in comps if c.norm > 0.0]
    order = sorted(range(len(comps)), key=lambda i: (-comps[i].norm, i))
    return [comps[i] for i in order]


def s2_schedule(m: int, lam: float) -> list[Segment]:
    """Basic symmetric split: forward sweep then reverse sweep, lam/2 each."""
    if m < 1:
        raise TrotterError(f"need at least one component, got {m}")
    fwd = [Segment(index=j, duration=lam / 2.0) for j in range(m)]
    bwd = [Segment(index=j, duration=lam / 2.0) for j in reversed(range(m))]
    return fwd + bwd


def suzuki_p(k: int) -> float:
    """Recursion coefficient p_k = 1 / (4 - 4^(1/(2k-1)))."""
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))


def merge_adjacent(segments) -> list[Segment]:
    """Fuse neighboring segments with equal component index."""
    out: list[Segment] = []
    for seg in segments:
        if out and out[-1].index == seg.index:
            out[-1] = Segment(index=seg.index, duration=out[-1].duration + seg.duration)
        else:
            out.append(seg)
    return out


def s2k_schedule(m: int, k: int, lam: float) -> list[Segment]:
    """Order-2k Suzuki schedule with adjacent equal-index factors merged."""
    if k < 1:
        raise TrotterError(f"half-order must be >= 1, got {k}")
    if k == 1:
        return merge_adjacent(s2_schedule(m, lam))
    p = suzuki_p(k)
    outer = s2k_schedule(m, k - 1, p * lam)
    middle = s2k_schedule(m, k - 1, (1.0 - 4.0 * p) * lam)
    return merge_adjacent(outer + outer + middle + outer + outer)


def segments_per_block(m: int, k: int) -> int:
    """Factor count of one merged S_2k block: 2(m-1) 5^(k-1) + 1."""
    return 2 * (m - 1) * 5 ** (k - 1) + 1


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
    """Integrator order, repetition count, one block's schedule, and the
    planner's two N_exp bounds (None where they do not apply)."""

    k: int
    r: float
    n_reps: int
    schedule: tuple  # of Segment, one repetition block
    m: int
    L1: float
    bound_res: float | None = None
    bound_closed_form: float | None = None

    @property
    def n_exp(self) -> int:
        """Unmerged exponential count (2(m-1)5^(k-1)+1) * n_reps."""
        return segments_per_block(self.m, self.k) * self.n_reps

    def actual_exponentials(self) -> int:
        """Segment count after merging across repetition boundaries."""
        block = len(self.schedule)
        if self.n_reps == 0 or block == 0:
            return 0
        boundary = 1 if self.schedule[0].index == self.schedule[-1].index else 0
        return self.n_reps * block - boundary * (self.n_reps - 1)

    def has_negative_segments(self) -> bool:
        return any(seg.duration < 0 for seg in self.schedule)


def build_plan(components: list[Component], eps: float, t: float) -> TrotterPlan:
    """Choose (k, r) for the component list and lay out the block schedule.

    Components must already be ordered by descending norm.  A single
    component needs no splitting: one exact segment.  With no component,
    no nonzero norm or no time the dynamics is trivial: the plan has no
    segment and n_reps = 0.  Every path needs finite t >= 0 and eps > 0.
    """
    if not (0 <= t < math.inf and 0 < eps < math.inf):  # written so that NaN fails too
        raise TrotterError("need finite t >= 0 and eps > 0")
    norms = [c.norm for c in components]
    if any(norms[i] < norms[i + 1] for i in range(len(norms) - 1)):
        raise TrotterError("components must be ordered by descending norm")
    m = len(components)
    L1 = norms[0] if norms else 0.0
    if t == 0.0 or L1 == 0.0:
        return TrotterPlan(k=1, r=0.0, n_reps=0, schedule=(), m=m, L1=L1)
    # one component has no L2; L1 stands in, and the planner ignores it for m = 1
    k, r, n_reps, bound_res, bound_closed = step_count(eps, t, m, L1, norms[1] if m > 1 else L1)
    lam = t * L1 / n_reps
    sched = tuple(s2k_schedule(m, k, lam))
    for j in range(m):
        if abs(sum(s.duration for s in sched if s.index == j) - lam) > 1e-12 * max(1.0, abs(lam)):
            raise TrotterError("schedule durations do not sum to the block length")
    return TrotterPlan(k=k, r=r, n_reps=n_reps, schedule=sched, m=m, L1=L1,
                       bound_res=bound_res, bound_closed_form=bound_closed)


def block_superoperator(plan: TrotterPlan, components: list[Component]) -> np.ndarray:
    """Channel matrix of one S_2k block (segments applied left to right)."""
    d = components[0].d
    cache: dict[tuple[int, float], np.ndarray] = {}
    out = np.eye(d * d, dtype=complex)
    for seg in plan.schedule:
        key = (seg.index, seg.duration)
        if key not in cache:
            t_phys = seg.duration / plan.L1
            cache[key] = components[seg.index].channel(t_phys)
        out = cache[key] @ out
    return out


def run_plan(plan: TrotterPlan, components: list[Component], rho0: QuantumState) -> QuantumState:
    """Apply the full product [block]^n_reps to the initial state.

    The block is first projected onto trace-preserving maps, so that
    vec(I)† B = vec(I)† holds to rounding; otherwise the block's rounding
    error in the trace grows with n_reps inside the power.
    """
    if len(components) != plan.m:
        raise TrotterError("component list does not match the plan")
    if components and components[0].d != rho0.d:
        raise TrotterError("state dimension does not match the components")
    if plan.n_reps == 0 or not plan.schedule:
        return rho0
    block = block_superoperator(plan, components)
    one = vec(np.eye(rho0.d))
    block += np.outer(one, one - one @ block) / rho0.d
    total = np.linalg.matrix_power(block, plan.n_reps)
    rho = unvec(total @ vec(rho0.rho), rho0.d)
    rho = 0.5 * (rho + np.conj(rho).T)
    return QuantumState(d=rho0.d, rho=rho)


@dataclass(frozen=True)
class CostReport:
    k: int
    r: float
    n_reps: int
    n_exp_actual: int
    n_exp_unmerged: int
    n_exp_bound_res: float | None
    n_exp_bound_closed_form: float | None
    negative_segments: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "n_reps": self.n_reps,
            "N_exp_actual": self.n_exp_actual,
            "N_exp_unmerged": self.n_exp_unmerged,
            "N_exp_bound_res": self.n_exp_bound_res,
            "N_exp_bound_closed_form": self.n_exp_bound_closed_form,
            "negative_segments": self.negative_segments,
        }


def nexp_report(plan: TrotterPlan) -> CostReport:
    """Actual exponential counts next to the plan's two cost bounds."""
    return CostReport(
        k=plan.k,
        r=plan.r,
        n_reps=plan.n_reps,
        n_exp_actual=plan.actual_exponentials(),
        n_exp_unmerged=plan.n_exp,
        n_exp_bound_res=plan.bound_res,
        n_exp_bound_closed_form=plan.bound_closed_form,
        negative_segments=plan.has_negative_segments(),
    )


def simulate(g: GksGenerator, rho0: QuantumState, t: float, eps: float):
    """Decompose, plan, and run; returns (state, plan, components)."""
    return simulate_plans(g, decompose_generator(g), rho0, t, eps)


def simulate_plans(g: GksGenerator, plans, rho0: QuantumState, t: float, eps: float):
    """Plan and run g with its conjugation plans; returns (state, plan, components)."""
    components = prepare_components(g, plans)
    plan = build_plan(components, eps, t)
    return run_plan(plan, components, rho0), plan, components
