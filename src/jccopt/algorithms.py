"""Solution algorithms for joint chance-constrained LPs.

The primary method relaxes every scenario row with a shortfall variable
s >= 0, then alternates two convex subproblems under a bisected objective
level f:

* shortfall step: over the polytope intersected with {c'x <= f}, minimize
  the activation-weighted mean shortfall (an LP);
* activation step: per group, re-pick scenario weights z in [0,1] with
  mean z >= 1-epsilon to minimize the weighted shortfall (closed form:
  drop the largest shortfalls, spending a floor(eps*n) budget plus one
  fractional slot).

A level f is accepted when the weighted shortfall mass Gamma hits zero
(all activated scenarios exactly satisfied); bisection then tightens the
level from above.  Baselines: a pooled variant that cannot re-weight
scenarios (on one group, the single-JCC ALSO-X), a CVaR restriction, and
an exhaustive scenario-subset oracle for small instances.

All subproblems are plain LPs; Wasserstein margins enter through dual-norm
bound variables (``_ScenarioLpBuilder.add_margins``); point evaluation of
the same margins is ``model.JccGroup.values``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lp
from .errors import CapacityError, ModelError, NumericError
from .lp import OPTIMAL, UNBOUNDED, LpProblem
from .model import (TOL_ZERO, CcpProblem, JccGroup, ViolationReport,
                    dual_norm, evaluate_group, risk_budget)

FEASIBLE = "feasible"
INFEASIBLE_STATUS = "infeasible"

METHOD_ALSO_X = "also-x"
METHOD_INTUITIVE = "intuitive"
METHOD_CVAR = "cvar"
METHOD_ORACLE = "oracle"

METHODS = (METHOD_ALSO_X, METHOD_INTUITIVE, METHOD_CVAR, METHOD_ORACLE)

ORACLE_CAP = 10 ** 6
# The oracle's screen relaxes a dropped scenario's rows by ORACLE_RELAX
# times 1 + max|h| of the all-kept hard LP, and confirms cold every
# keep-set it screens within ORACLE_CONFIRM_RTOL * max(1, |best|) of the
# best value it trusts.
ORACLE_RELAX = 1e6
ORACLE_CONFIRM_RTOL = 1e-6
# Inner loop: stop when the weighted shortfall Gamma reaches GAMMA_TOL
# (the level is accepted), moves by less than DELTA2, or after MAX_INNER
# alternations.  MAX_OUTER caps the bisection midpoints.
GAMMA_TOL = 1e-8
DELTA2 = 1e-4
MAX_INNER = 50
MAX_OUTER = 100


@dataclass
class BisectionConfig:
    """Level bracket f_lower <= f_upper, both finite, and terminal gap
    delta1 > 0, finite; None resolves here to 1e-4 * max(1, f_upper +
    f_lower)."""

    f_lower: float
    f_upper: float
    delta1: float | None = None

    def __post_init__(self):
        if not -math.inf < self.f_lower <= self.f_upper < math.inf:
            raise ModelError(f"level bracket [{self.f_lower:g}, {self.f_upper:g}]"
                             " must be finite and ordered")
        if self.delta1 is None:
            self.delta1 = 1e-4 * max(1.0, self.f_upper + self.f_lower)
        elif not 0.0 < self.delta1 < math.inf:
            raise ModelError(f"delta1 {self.delta1:g} must be positive and finite")

    @classmethod
    def from_problem(cls, problem: CcpProblem):
        return cls(*init_bounds(problem)[:2])


@dataclass
class OuterRecord:
    """One bisection level: tested f, final alternation state, and the
    candidate point's per-group violation rates."""

    f: float
    gamma: float | None
    delta: float | None
    inner_iterations: int
    accepted: bool
    objective: float | None
    violation_rates: list[float] | None

    def to_dict(self):
        return asdict(self)


@dataclass
class SolveReport:
    method: str
    status: str
    x: np.ndarray | None
    objective: float | None
    per_group: list[ViolationReport]
    trace: list[OuterRecord] = field(default_factory=list)
    f_lower: float | None = None
    f_upper: float | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE

    def to_dict(self):
        return {
            "method": self.method,
            "status": self.status,
            "objective": self.objective,
            "x": None if self.x is None else [float(v) for v in self.x],
            "per_group": [g.to_dict() for g in self.per_group],
            "f_lower": self.f_lower,
            "f_upper": self.f_upper,
            "trace": [r.to_dict() for r in self.trace],
        }


# -- LP assembly -------------------------------------------------------------

class _ScenarioLpBuilder:
    """Shared row assembly for all scenario-based LPs over a CcpProblem.

    Column layout: decision x first, then caller-added blocks (shortfalls,
    CVaR tails, margin bounds, ...) in the order they are added.  Rows
    (counted by ``n_rows``): the polytope's, then the appended dense blocks.
    """

    def __init__(self, problem: CcpProblem):
        self.problem = problem
        self.n = problem.n_vars
        self.cols = self.n
        self.n_rows = 0
        self.rows: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []
        self.lo_extra: list[np.ndarray] = []
        G = problem.polytope.G
        if G is not None:
            self.append_rows(G, problem.polytope.h)

    def add_block(self, size: int, lo=0.0) -> slice:
        blk = slice(self.cols, self.cols + size)
        self.cols += size
        self.lo_extra.append(np.full(size, lo))
        return blk

    def append_rows(self, mat: np.ndarray, rhs: np.ndarray) -> None:
        self.rows.append(mat)
        self.rhs.append(np.atleast_1d(rhs))
        self.n_rows += mat.shape[0]

    def add_margins(self, group: JccGroup) -> list[dict]:
        """Columns and rows for the Wasserstein margins at the group's rho.

        Returns one ``{column: rho}`` dict per constraint, the margin terms
        of its scenario rows.  For the l1 uncertainty norm (dual linf) one
        bound column per constraint covers all components; for linf (dual
        l1) each component gets its own, and the margin is rho times their
        sum.  Each bound column b of component r gets the two rows
        +-(A[r] x + a0[r]) <= b; identically zero components are skipped,
        since they add nothing to either norm.  A norm outside NORMS (set
        after the group was built) raises ModelError.
        """
        rho = group.rho
        if rho == 0.0:
            return [{} for _ in group.constraints]
        dual = dual_norm(group.norm)
        cons = group.constraints
        As = list(cons.dense_A())
        nz = [np.flatnonzero((a0 != 0.0) | np.any(A != 0.0, axis=1))
              for A, a0 in zip(As, cons.a0)]
        if dual == "linf":
            blk = self.add_block(len(nz))
            bound_cols = [np.full(r.size, blk.start + j) for j, r in enumerate(nz)]
            terms = [{blk.start + j: rho} for j in range(len(nz))]
        else:
            blk = self.add_block(sum(r.size for r in nz))
            ends = np.cumsum([r.size for r in nz])[:-1]
            bound_cols = np.split(np.arange(blk.start, blk.stop), ends)
            terms = [{int(col): rho for col in cols} for cols in bound_cols]
        for A, a0, r, cols in zip(As, cons.a0, nz, bound_cols):
            comp = np.repeat(r, 2)  # the + row, then the - row
            sign = np.tile([1.0, -1.0], r.size)
            block = np.zeros((comp.size, self.cols))
            block[:, :self.n] = sign[:, None] * A[comp]
            block[np.arange(comp.size), np.repeat(cols, 2)] = -1.0
            self.append_rows(block, -sign * a0[comp])
        return terms

    def scenario_rows(self, group: JccGroup, terms: list[dict],
                      diag: int | None = None) -> None:
        """Rows  xi_i'(A_j x + a0_j) + c_j'x + d_j + extra <= 0  for every
        scenario, one constraint after another.  ``terms[j]`` maps column ->
        coefficient of constraint j's extra terms; with ``diag``, the row of
        scenario i also gets -1 in column diag + i (a per-scenario shortfall
        or excess)."""
        data, cons = group.samples.data, group.constraints
        for A, a0, c, d, extra in zip(cons.dense_A(), cons.a0, cons.c,
                                      cons.d.tolist(), terms):
            block = np.zeros((group.n, self.cols))
            block[:, :self.n] = data @ A + c
            for col, coeff in extra.items():
                block[:, col] = coeff
            if diag is not None:
                block[np.arange(group.n), diag + np.arange(group.n)] = -1.0
            self.append_rows(block, 0.0 - (data @ a0 + d))

    def cost(self) -> np.ndarray:
        """The problem's objective over x, zero over the added columns."""
        c = np.zeros(self.cols)
        c[:self.n] = self.problem.objective
        return c

    def finish(self, objective: np.ndarray) -> LpProblem:
        """The LP, its row blocks copied into one zero-padded matrix; each is
        dropped once copied, so the heap does not grow around them.  No
        rows (a CVaR LP on an empty working set, say) leave no inequality
        block."""
        poly = self.problem.polytope
        G = np.zeros((self.n_rows, self.cols))
        start = 0
        while self.rows:
            mat = self.rows.pop(0)
            G[start:start + len(mat), :mat.shape[1]] = mat
            start += len(mat)
        G, h = (G, np.concatenate(self.rhs)) if self.n_rows else (None, None)
        A_eq = poly.A_eq
        if A_eq is not None:
            A_eq = np.pad(A_eq, ((0, 0), (0, self.cols - self.n)))
        lo = np.concatenate([poly.lower] + self.lo_extra)
        hi = np.concatenate([poly.upper, np.full(self.cols - self.n, np.inf)])
        return LpProblem(objective, G, h, A_eq, poly.b_eq, lo, hi)


class SStepAssembler:
    """Reusable skeleton of the shortfall-step LP over a working set of
    chance groups (``groups``, ascending; every group by default).

    The constraint matrix is identical across bisection levels and inner
    iterations; only the level row's rhs and the shortfall weights in the
    objective change.  Build once per solve, stamp cheap copies after.
    ``session`` is the solver of the latest level, ``level``; the next
    level restarts from its basis (``level_point``).  Columns: x, the
    working groups' shortfalls (``s_blocks[g]``), their margin bounds.
    Rows: the polytope, each working group's margin rows
    (``margin_rows[g]``), the level row, each working group's scenario
    rows (``scenario_rows[g][j, i]``: constraint j, scenario i);
    ``scenario_hard_lp`` cuts the hard LPs from them.  ``problem`` stays
    the whole problem: shortfalls, weights and reports run over every
    group; ``grow`` adds the omitted groups a point violates.
    """

    def __init__(self, problem: CcpProblem, groups=None):
        self.problem = problem
        self.groups = tuple(range(problem.n_groups) if groups is None
                            else sorted(set(groups)))
        members = [(gi, problem.groups[gi]) for gi in self.groups]
        builder = _ScenarioLpBuilder(problem)
        self.s_blocks = {gi: builder.add_block(g.n) for gi, g in members}
        s_end = builder.cols
        margins, self.margin_rows = {}, {}
        for gi, g in members:
            first = builder.n_rows
            margins[gi] = builder.add_margins(g)
            self.margin_rows[gi] = np.arange(first, builder.n_rows)
        # level row c'x <= f (rhs patched per level)
        self.level_row = builder.n_rows
        builder.append_rows(builder.cost()[None, :], np.array([0.0]))
        self.scenario_rows = {}
        for gi, g in members:
            first = builder.n_rows
            builder.scenario_rows(g, margins[gi], self.s_blocks[gi].start)
            self.scenario_rows[gi] = np.arange(
                first, builder.n_rows).reshape(-1, g.n)
        self.lp_template = builder.finish(np.zeros(builder.cols))
        self.cols = builder.cols
        self.hard_cols = np.r_[:problem.n_vars, s_end:self.cols]
        self.session: lp.SimplexSession | None = None
        self.level: float | None = None
        self._point = None  # (x, s) of the session's last solve

    def lp_at(self, f: float, z: list[np.ndarray]) -> LpProblem:
        t = self.lp_template
        h = t.h.copy()
        h[self.level_row] = f
        return t.derive(self.objective_for(z), h=h)

    def objective_for(self, z: list[np.ndarray]) -> np.ndarray:
        """Shortfall weights z/(m*n_g) of the working groups, m counting
        every group."""
        c = np.zeros(self.cols)
        m = len(self.problem.groups)
        for gi, g in enumerate(self.problem.groups):
            zi = np.asarray(z[gi], dtype=float)
            if zi.shape != (g.n,):
                raise ModelError(f"weights for group {gi} must have length {g.n}")
            if gi in self.s_blocks:
                c[self.s_blocks[gi]] = zi / (m * g.n)
        return c

    def grow(self, worst) -> bool:
        """Add every omitted group that ``_violated_groups`` finds under
        ``worst``, whose kept scenarios are the ones it gives, and
        rebuild the skeleton without a session.  Returns whether the
        working set grew; the caller then solves its LP again.
        """
        joined = _violated_groups(self.problem, self.groups, worst)
        if joined:
            self.__init__(self.problem, self.groups + tuple(joined))
        return bool(joined)

    def level_point(self, f: float, z: list[np.ndarray]):
        """The level-f LP's point x under weights z and every group's
        shortfalls s there; (None, None) when the level is infeasible.

        A call at another level than the last starts a session of the
        level's full-activation LP from the previous level's basis; calls
        at the same level (the inner iterations) re-solve that session.
        The scenarios of positive weight are the kept ones; when the
        point makes the working set ``grow``, the level is solved again,
        cold.  A re-solve that returns the session's last point
        (``repeated``) reuses its shortfalls.
        """
        problem = self.problem
        while True:
            if self.session is None or self.level != f:
                ones = [np.ones(g.n) for g in problem.groups]
                self.session = lp.SimplexBackend().start_session(
                    self.lp_at(f, ones), warm=self.session)
                self.level = f
            sol = self.session.solve(self.objective_for(z))
            if not self.session.repeated:
                x = _point(sol, problem, "shortfall LP")
                if x is None:
                    return None, None
                self._point = x, shortfalls(problem, x)
            x, s = self._point
            if not self.grow(lambda gi: s[gi][z[gi] > 0.0]):
                return x, s


def _violated_groups(problem: CcpProblem, groups, worst) -> list[int]:
    """The groups outside ``groups`` with a positive entry in
    ``worst(gi)``, the worst robustified values (or the shortfalls) of
    the scenarios that count: the join rule of the working set.

    The CVaR, level and polish LPs are solved on a working set of
    chance groups, seeded by ``_binding_groups`` at the mean-value point;
    each group this rule finds joins, and the LP is solved again.  The
    stop is exact.  A working LP drops the omitted groups' rows with the
    columns only they use (CVaR tails and excesses, shortfalls, margin
    bounds), all of cost >= 0, so it relaxes the all-groups LP.  When no
    counted scenario of an omitted group is above 0 at the working LP's
    point x, those columns (t at the group's largest value, the others
    at their least values) meet the dropped rows at cost 0, so x is
    optimal for the all-groups LP too.
    """
    return [gi for gi in range(problem.n_groups)
            if gi not in groups and np.any(worst(gi) > 0.0)]


def shortfalls(problem: CcpProblem, x: np.ndarray) -> list[np.ndarray]:
    """Canonical per-scenario shortfalls max(0, worst robustified value)."""
    return [np.maximum(g.values(x).max(axis=1), 0.0) for g in problem.groups]


def z_step(s: np.ndarray, epsilon: float) -> np.ndarray:
    """Optimal activation weights for one group given shortfalls s >= 0.

    Minimizes sum(z*s) over 0 <= z <= 1 with mean(z) >= 1-epsilon: sort by
    shortfall descending (ties by ascending scenario index), zero out the
    floor(eps*n) largest, and leave 1 - frac(eps*n) on the next one.  The
    count is unconditional; with more satisfied scenarios than the keep
    quota, low-index zero-shortfall ones are demoted too, which is what
    lets later shortfall steps walk off them.  A fully zero s keeps every
    scenario active (any z is optimal there; all-ones is the useful one,
    downstream cleanup re-imposes exactly the active scenarios).
    """
    s = np.asarray(s, dtype=float)
    n = s.size
    z = np.ones(n)
    if epsilon <= 0.0 or not np.any(s > 0.0):
        return z
    whole = risk_budget(epsilon, n)
    frac = epsilon * n - whole
    order = np.argsort(-s, kind="stable")
    z[order[:whole]] = 0.0
    if frac >= 1e-9 and whole < n:
        z[order[whole]] = 1.0 - frac
    return z


def gamma_value(z: list[np.ndarray], s: list[np.ndarray]) -> float:
    m = len(z)
    return float(sum(float(zi @ si) / si.size for zi, si in zip(z, s)) / m)


@dataclass
class InnerResult:
    x: np.ndarray | None
    s: list[np.ndarray] | None
    z: list[np.ndarray] | None
    gamma: float | None
    delta: float | None
    iterations: int
    reason: str  # 'gamma' | 'delta' | 'max_inner' | 'lp-infeasible'
    gammas: list[float] = field(default_factory=list)


def inner_alternation(asm: SStepAssembler, f: float) -> InnerResult:
    """Alternate shortfall and activation steps at a fixed level f on the
    shortfall-LP skeleton ``asm``."""
    problem = asm.problem
    z = [np.ones(g.n) for g in problem.groups]
    gamma_prev = None
    delta = None
    gammas: list[float] = []
    for k in range(MAX_INNER):
        x, s = asm.level_point(f, z)
        if x is None:
            return InnerResult(None, None, None, None, None, k, "lp-infeasible")
        z = [z_step(s[gi], g.epsilon) for gi, g in enumerate(problem.groups)]
        gamma = gamma_value(z, s)
        if gamma_prev is not None and gamma > gamma_prev + 1e-9 * max(1.0, gamma_prev):
            raise NumericError(
                f"weighted shortfall increased ({gamma_prev} -> {gamma}); "
                "alternation lost monotonicity")
        gammas.append(gamma)
        delta = None if gamma_prev is None else abs(gamma - gamma_prev)
        if gamma <= GAMMA_TOL:
            return InnerResult(x, s, z, gamma, delta, k + 1, "gamma", gammas)
        if delta is not None and delta < DELTA2:
            return InnerResult(x, s, z, gamma, delta, k + 1, "delta", gammas)
        gamma_prev = gamma
    return InnerResult(x, s, z, gamma, delta, MAX_INNER, "max_inner", gammas)


def _point(sol: lp.LpSolution, problem: CcpProblem,
           what: str) -> np.ndarray | None:
    """The decision part x of an LP solution: None when the LP is
    infeasible; an unbounded LP ``what`` raises NumericError."""
    if sol.status == UNBOUNDED:
        raise NumericError(f"{what} unbounded (pathological polytope)")
    return sol.x[:problem.n_vars] if sol.status == OPTIMAL else None


# -- hard-constrained LPs ----------------------------------------------------

def _hard_rows(asm: SStepAssembler, masks: list[np.ndarray]) -> np.ndarray:
    """The skeleton rows that ``scenario_hard_lp`` keeps, in its order."""
    problem = asm.problem
    rows = [np.arange(problem.polytope.n_ineq)]
    for gi, g in enumerate(problem.groups):
        mask = np.asarray(masks[gi], dtype=bool)
        if mask.shape != (g.n,):
            raise ModelError(f"mask for group {gi} must have length {g.n}")
        if gi in asm.s_blocks:
            rows += [asm.margin_rows[gi], asm.scenario_rows[gi][:, mask].ravel()]
    return np.concatenate(rows)


def scenario_hard_lp(asm: SStepAssembler, masks: list[np.ndarray]) -> LpProblem:
    """min objective'x over the polytope with the masked scenarios' rows
    imposed hard, robustified at each group's radius: cut from the skeleton
    ``asm`` without its shortfall columns and level row, with the polytope
    rows, then per working group its margin rows and its masked scenarios'
    rows (every group's mask is checked; an omitted group's is unused)."""
    problem = asm.problem
    cols = asm.hard_cols
    obj = np.zeros(cols.size)
    obj[:problem.n_vars] = problem.objective
    return asm.lp_template.derive(obj, rows=_hard_rows(asm, masks), cols=cols)


def mean_value_lp(problem: CcpProblem) -> LpProblem:
    """Deterministic counterpart: every group constraint at its scenario
    mean, no margin, no relaxation."""
    builder = _ScenarioLpBuilder(problem)
    for g in problem.groups:
        mean, cons = g.samples.mean, g.constraints
        for A, a0, c, d in zip(cons.dense_A(), cons.a0, cons.c,
                               cons.d.tolist()):
            row = np.zeros((1, builder.cols))
            row[0, :builder.n] = mean @ A + c
            builder.append_rows(row, np.array([-(mean @ a0 + d)]))
    return builder.finish(builder.cost())


def cvar_lp(problem: CcpProblem, groups=None) -> LpProblem:
    """The CVaR restriction over the chance groups ``groups`` (every group
    by default): per group, in ascending order, its margin rows, then a
    free tail column t, excess columns w >= 0, the scenario rows
    value - t - w_i <= 0 and the tail budget t + mean(w)/epsilon <= 0.
    An epsilon == 0 group keeps its scenario rows hard instead, the
    eps -> 0 limit."""
    builder = _ScenarioLpBuilder(problem)
    for gi in range(problem.n_groups) if groups is None else sorted(set(groups)):
        g = problem.groups[gi]
        terms = builder.add_margins(g)
        if g.epsilon == 0.0:
            builder.scenario_rows(g, terms)
            continue
        t_blk = builder.add_block(1, lo=-np.inf)
        w_blk = builder.add_block(g.n)
        builder.scenario_rows(g, [{**m, t_blk.start: -1.0} for m in terms],
                              w_blk.start)
        row = np.zeros((1, builder.cols))
        row[0, t_blk.start] = 1.0
        row[0, w_blk] = 1.0 / (g.epsilon * g.n)
        builder.append_rows(row, np.array([0.0]))
    return builder.finish(builder.cost())


def _polish(asm: SStepAssembler, masks, fallback_x):
    """Re-minimize the true cost subject to the accepted scenario selection
    imposed hard, on the working skeleton ``asm``; the polish runs again
    after the polished point makes the set ``grow``.  Falls back to the
    raw accepted point if the cleanup LP stumbles numerically (it is
    feasible by construction)."""
    problem = asm.problem
    while True:
        try:
            x = _point(lp.solve_lp(scenario_hard_lp(asm, masks)), problem,
                       "polish LP")
        except NumericError:
            return fallback_x
        if x is None:
            return fallback_x
        if not asm.grow(
                lambda gi: problem.groups[gi].values(x).max(axis=1)[masks[gi]]):
            return x


# -- bound initialization ----------------------------------------------------

def init_bounds(problem: CcpProblem
                ) -> tuple[float, float, list[int], np.ndarray | None]:
    """Level bracket, working set and CVaR point ``(f_lo, f_hi, groups,
    x)``: lower end from the mean-value LP, upper end from the CVaR
    restriction seeded at its point if feasible (no lower than f_lo),
    else a multiplicative guess; then the groups the CVaR LP ended on
    and its point x (None when infeasible).  Both LPs keep the primal
    start: every bisection midpoint follows from the bracket's ends, so
    a cost one ulp off, as another optimal vertex can give, moves every
    level."""
    sol = lp.solve_lp(mean_value_lp(problem), dual_start=False)
    if sol.status != OPTIMAL:
        raise ModelError(
            f"mean-value problem is {sol.status}; provide explicit level "
            "bounds instead")
    f_lo = float(sol.objective)
    x, groups = _cvar_point(problem, _binding_groups(problem, sol.x),
                            dual_start=False)
    if x is not None:
        return f_lo, max(float(problem.objective @ x), f_lo), groups, x
    if f_lo > 0:
        return f_lo, 2.0 * f_lo, groups, x
    return f_lo, f_lo + max(1.0, abs(f_lo)), groups, x


def _binding_groups(problem: CcpProblem, x: np.ndarray | None) -> list[int]:
    """The groups with a scenario whose worst value at the mean-value
    point x is above -TOL_ZERO, the seed of a working set; every group
    when x is None (the mean-value LP is not optimal)."""
    if x is None:
        return list(range(problem.n_groups))
    return [gi for gi, g in enumerate(problem.groups)
            if np.any(g.values(x).max(axis=1) > -TOL_ZERO)]


# -- reports -----------------------------------------------------------------

def _report(problem: CcpProblem, method: str, x: np.ndarray | None,
            **extra) -> SolveReport:
    """The report of a solve that ended at point x, or Infeasible when x is
    None; ``extra`` sets the bisection fields (trace and level bracket)."""
    if x is None:
        return SolveReport(method, INFEASIBLE_STATUS, None, None, [], **extra)
    return SolveReport(method, FEASIBLE, x, float(problem.objective @ x),
                       [evaluate_group(g, x) for g in problem.groups], **extra)


def _level_reports(problem: CcpProblem,
                   s: list[np.ndarray]) -> list[ViolationReport]:
    """Each group's verdict at a level, read from its shortfalls s: the
    verdict evaluate_group gives at the level's point."""
    return [ViolationReport.of(g, si) for g, si in zip(problem.groups, s)]


def _level_record(problem, f, x, reports, gamma, delta, inner_iterations,
                  accepted):
    """The level's record from its point x and per-group reports (None
    when the level LP was infeasible)."""
    return OuterRecord(
        f=f, gamma=gamma, delta=delta, inner_iterations=inner_iterations,
        accepted=accepted,
        objective=None if x is None else float(problem.objective @ x),
        violation_rates=None if reports is None else [
            r.violation_rate for r in reports])


# -- main solvers ------------------------------------------------------------

def _bisect(problem: CcpProblem, method: str, cfg: BisectionConfig | None,
            test_level) -> SolveReport:
    """Level bisection shared by the bisection methods.

    ``test_level(asm, f)`` tests level f on the shared shortfall-LP
    skeleton and returns the level's OuterRecord plus, when the level is
    accepted, ``(x, masks)``: the candidate point and the per-group
    scenario selection that the polish re-imposes hard.  If no midpoint
    is ever accepted the initial upper level gets one direct test.  When
    that fails too, a default bracket reports its CVaR point, which
    reaches the upper level feasibly, if it has one; otherwise the
    report declares Infeasible.

    Without ``cfg`` the bracket comes from ``init_bounds``, and the
    skeleton starts from the working set its CVaR LP ended on; the level
    and polish LPs grow it (``SStepAssembler.grow``).  An explicit
    bracket keeps every group.
    """
    groups = x_cvar = None
    if cfg is None:
        f_lower, f_upper, groups, x_cvar = init_bounds(problem)
        cfg = BisectionConfig(f_lower, f_upper)
    asm = SStepAssembler(problem, groups)
    f_lo, f_hi = float(cfg.f_lower), float(cfg.f_upper)
    best = None
    trace = []

    def run_level(f: float):
        record, found = test_level(asm, f)
        trace.append(record)
        return found

    for _ in range(MAX_OUTER):
        if f_hi - f_lo <= cfg.delta1:
            break
        f = 0.5 * (f_lo + f_hi)
        found = run_level(f)
        if found is None:
            f_lo = f
        else:
            f_hi, best = f, found
    if best is None:
        # No midpoint certified; the initial upper level may still be
        # achievable (always is when it came from a feasible CVaR warm
        # start and the optimum sits in the top delta1 sliver).
        best = run_level(float(cfg.f_upper))
        if best is not None:
            f_hi = float(cfg.f_upper)
    x = x_cvar
    if best is not None:
        asm.session = None  # free the level tableau before the polish LP
        x_raw, masks = best
        x = _polish(asm, masks, x_raw)
    return _report(problem, method, x, trace=trace, f_lower=f_lo, f_upper=f_hi)


def _alternation_level(asm: SStepAssembler, f: float):
    """Accept f exactly when the alternation reaches Gamma <= GAMMA_TOL;
    the polish keeps the scenarios with positive final weight."""
    inner = inner_alternation(asm, f)
    ok = inner.gamma is not None and inner.gamma <= GAMMA_TOL
    reports = None if inner.s is None else _level_reports(asm.problem, inner.s)
    record = _level_record(asm.problem, f, inner.x, reports, inner.gamma,
                           inner.delta, inner.iterations, ok)
    return record, ((inner.x, [zi > 0.0 for zi in inner.z]) if ok else None)


def _full_activation_level(asm: SStepAssembler, f: float):
    """One full-activation shortfall LP; accept f when every group's
    fraction of exactly-satisfied scenarios reaches 1 - epsilon.  The
    polish keeps those satisfied scenarios."""
    problem = asm.problem
    ones = [np.ones(g.n) for g in problem.groups]
    x, s = asm.level_point(f, ones)
    reports = gamma = None
    ok = False
    if x is not None:
        gamma = gamma_value(ones, s)
        reports = _level_reports(problem, s)
        ok = all(r.satisfied for r in reports)
    record = _level_record(problem, f, x, reports, gamma, None, 1, ok)
    return record, ((x, [r.kept for r in reports]) if ok else None)


def solve_also_x_multi(problem: CcpProblem,
                       cfg: BisectionConfig | None = None) -> SolveReport:
    """Alternating relaxation under level bisection (any number of groups).
    The report carries the last accepted point, cost-polished over its
    final scenario selection."""
    return _bisect(problem, METHOD_ALSO_X, cfg, _alternation_level)


def solve_intuitive_extension(problem: CcpProblem,
                              cfg: BisectionConfig | None = None) -> SolveReport:
    """Pooled baseline: one full-activation shortfall step per level and a
    level is accepted only when every group hits its rate simultaneously.
    No per-group re-weighting, which is exactly its handicap."""
    return _bisect(problem, METHOD_INTUITIVE, cfg, _full_activation_level)


# On one group the pooled test is the single-JCC ALSO-X.  This name's only
# reader is perfbench/tracing.py, which wraps it; it goes when ROADMAP item
# 5 re-points the tracer.
solve_also_x_single = solve_intuitive_extension


def _cvar_point(problem: CcpProblem, groups: list[int],
                dual_start: bool = True):
    """The CVaR LP's point x (None when infeasible) and the working set
    it ended on, grown from ``groups`` by ``_violated_groups``.  A
    working LP that is unbounded is solved again over every group;
    ``dual_start`` goes to ``lp.solve_lp``."""
    every = list(range(problem.n_groups))
    while True:
        sol = lp.solve_lp(cvar_lp(problem, groups), dual_start=dual_start)
        if sol.status == UNBOUNDED and groups != every:
            groups = every
            continue
        x = _point(sol, problem, "CVaR LP")
        if x is None:
            return None, groups
        joined = _violated_groups(
            problem, groups, lambda gi: problem.groups[gi].values(x).max(axis=1))
        if not joined:
            return x, groups
        groups = sorted(groups + joined)


def solve_cvar(problem: CcpProblem) -> SolveReport:
    """CVaR restriction: per group, a tail-average certificate that the
    worst constraint stays nonpositive (``cvar_lp``).  Convex and
    conservative; groups with epsilon == 0 degenerate to hard
    (worst-case) scenario rows, so the method stays defined on sweeps
    that include zero risk.  Solved on a working set seeded at the
    mean-value point (``_cvar_point``)."""
    sol = lp.solve_lp(mean_value_lp(problem))
    x_mean = sol.x if sol.status == OPTIMAL else None
    x, _ = _cvar_point(problem, _binding_groups(problem, x_mean))
    return _report(problem, METHOD_CVAR, x)


def oracle_enumeration_count(problem: CcpProblem) -> int:
    """The keep-sets the oracle walks (``_keep_sets``): the product over
    groups of C(n, floor(eps*n))."""
    return math.prod(math.comb(g.n, risk_budget(g.epsilon, g.n))
                     for g in problem.groups)


def _keep_sets(problem: CcpProblem):
    """Each selection of the oracle as per-group keep masks: every group
    keeps all but floor(eps*n) of its scenarios, in itertools.product
    order."""
    pools = [list(itertools.combinations(
                 range(g.n), g.n - risk_budget(g.epsilon, g.n)))
             for g in problem.groups]
    for combo in itertools.product(*pools):
        masks = []
        for g, subset in zip(problem.groups, combo):
            mask = np.zeros(g.n, dtype=bool)
            mask[list(subset)] = True
            masks.append(mask)
        yield masks


def _screened_values(asm: SStepAssembler) -> np.ndarray:
    """Each keep-set's LP value, in ``_keep_sets`` order, from warm rhs
    restarts of one session over the all-kept hard LP, NaN where the
    screen cannot be trusted.

    A keep-set's node raises the rhs of its dropped scenarios' rows by a
    finite offset.  Its value counts only when the node is optimal and
    every relaxed row stays slack by more than half the offset: an LP
    optimum stays optimal when inactive rows are removed, so the value
    is then that of the keep-set's own LP.
    """
    problem = asm.problem
    all_kept = [np.ones(g.n, dtype=bool) for g in problem.groups]
    full = scenario_hard_lp(asm, all_kept)
    # Row of ``full`` that each skeleton row became.
    position = np.zeros(asm.lp_template.h.size, dtype=int)
    kept = _hard_rows(asm, all_kept)
    position[kept] = np.arange(kept.size)
    offset = ORACLE_RELAX * (1.0 + float(np.max(np.abs(full.h))))
    values = []
    session = None
    for masks in _keep_sets(problem):
        dropped = position[np.concatenate(
            [asm.scenario_rows[gi][:, ~m].ravel()
             for gi, m in enumerate(masks)])]
        h = full.h.copy()
        h[dropped] += offset
        session = lp.SimplexBackend().start_session(full.derive(full.c, h=h),
                                                    warm=session)
        try:
            sol = session.solve()
        except NumericError:
            session = None  # the next node starts cold
            values.append(np.nan)
            continue
        trusted = sol.status == OPTIMAL and np.all(
            h[dropped] - full.G[dropped] @ sol.x > 0.5 * offset)
        values.append(sol.objective if trusted else np.nan)
    return np.array(values)


def solve_oracle(problem: CcpProblem) -> SolveReport:
    """Exhaustive scenario-subset search (exact sample optimum).

    Per group, any keep-set of all but floor(eps*n) scenarios certifies the
    rate; larger keep-sets only shrink the feasible region, so minimizing
    over the exact-size subsets equals minimizing over all subsets of at
    least that size.  Refuses more than ORACLE_CAP keep-sets.

    Warm restarts screen every keep-set (``_screened_values``); only the
    untrusted ones and those within ORACLE_CONFIRM_RTOL of the best
    trusted value are solved cold, in enumeration order and under a
    strict ``<``, so the report is the one a cold solve of every
    keep-set gives.
    """
    count = oracle_enumeration_count(problem)
    if count > ORACLE_CAP:
        raise CapacityError(
            f"oracle enumeration would visit {count} keep-sets "
            f"(cap {ORACLE_CAP})")
    asm = SStepAssembler(problem)
    values = _screened_values(asm)
    confirm = np.isnan(values)
    if not confirm.all():
        best = float(np.nanmin(values))
        confirm |= values <= best + ORACLE_CONFIRM_RTOL * max(1.0, abs(best))
    best_obj = np.inf
    best_x = None
    for masks, cold in zip(_keep_sets(problem), confirm):
        if not cold:
            continue
        sol = lp.solve_lp(scenario_hard_lp(asm, masks))
        x = _point(sol, problem, "oracle subproblem")
        if x is not None and sol.objective < best_obj:
            best_obj, best_x = sol.objective, x
    return _report(problem, METHOD_ORACLE, best_x)


def applicable_methods(problem: CcpProblem) -> list[str]:
    """METHODS in order, less the oracle above ORACLE_CAP keep-sets."""
    return [m for m in METHODS
            if m != METHOD_ORACLE or oracle_enumeration_count(problem) <= ORACLE_CAP]


def solve(problem: CcpProblem, method: str,
          cfg: BisectionConfig | None = None) -> SolveReport:
    """Solve with the named method (one of METHODS).  ``cfg`` sets the
    level bracket of the bisection methods; cvar and oracle ignore it."""
    # Names resolve at call time, so rebinding a solver attribute of this
    # module (e.g. to wrap it) reaches every caller.
    if method == METHOD_CVAR:
        return solve_cvar(problem)
    if method == METHOD_ORACLE:
        return solve_oracle(problem)
    bisection = {METHOD_ALSO_X: solve_also_x_multi,
                 METHOD_INTUITIVE: solve_intuitive_extension}
    if method not in bisection:
        raise ModelError(f"unknown method {method!r}")
    return bisection[method](problem, cfg)
