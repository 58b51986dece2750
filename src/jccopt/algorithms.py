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
level from above.  Baselines: a single-group variant, a pooled variant
that cannot re-weight scenarios, a CVaR restriction, and an exhaustive
scenario-subset oracle for small instances.

All subproblems are plain LPs; Wasserstein margins enter through dual-norm
bound variables (``_ScenarioLpBuilder.add_margins``); point evaluation of
the same margins is ``model.JccGroup.values``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import CapacityError, ModelError, NumericError
from .lp import OPTIMAL, UNBOUNDED, LpProblem
from .model import (TOL_ZERO, CcpProblem, JccGroup, SampleSet, ViolationReport,
                    evaluate_group, risk_budget)

FEASIBLE = "feasible"
INFEASIBLE_STATUS = "infeasible"

METHOD_ALSO_X = "also-x"
METHOD_ALSO_X_SINGLE = "also-x-single"
METHOD_INTUITIVE = "intuitive"
METHOD_CVAR = "cvar"
METHOD_ORACLE = "oracle"

METHODS = (METHOD_ALSO_X, METHOD_ALSO_X_SINGLE, METHOD_INTUITIVE, METHOD_CVAR,
           METHOD_ORACLE)

ORACLE_CAP = 10 ** 6
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
    delta1; None resolves here to 1e-4 * max(1, f_upper + f_lower)."""

    f_lower: float
    f_upper: float
    delta1: float | None = None

    def __post_init__(self):
        if not -math.inf < self.f_lower <= self.f_upper < math.inf:
            raise ModelError(f"level bracket [{self.f_lower:g}, {self.f_upper:g}]"
                             " must be finite and ordered")
        if self.delta1 is None:
            self.delta1 = 1e-4 * max(1.0, self.f_upper + self.f_lower)

    @classmethod
    def from_problem(cls, problem: CcpProblem):
        return cls(*init_bounds(problem))


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
        return {"f": self.f, "gamma": self.gamma, "delta": self.delta,
                "inner_iterations": self.inner_iterations,
                "accepted": self.accepted, "objective": self.objective,
                "violation_rates": self.violation_rates}


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
        if problem.polytope.G is not None:
            self.append_rows(problem.polytope.G, problem.polytope.h)

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
        since they add nothing to either norm.
        """
        rho = group.rho
        if rho == 0.0:
            return [{} for _ in group.constraints]
        if group.norm == "l2":
            raise ModelError(
                f"group {group.label!r}: l2 uncertainty norm has a second-order "
                "worst case and cannot be embedded in an LP; use l1 or linf")
        As = [con.A for con in group.constraints]
        nz = [np.flatnonzero((con.a0 != 0.0) | np.any(A != 0.0, axis=1))
              for con, A in zip(group.constraints, As)]
        if group.norm == "l1":
            blk = self.add_block(len(nz))
            bound_cols = [np.full(r.size, blk.start + j) for j, r in enumerate(nz)]
            terms = [{blk.start + j: rho} for j in range(len(nz))]
        else:
            blk = self.add_block(sum(r.size for r in nz))
            ends = np.cumsum([r.size for r in nz])[:-1]
            bound_cols = np.split(np.arange(blk.start, blk.stop), ends)
            terms = [{int(col): rho for col in cols} for cols in bound_cols]
        for con, A, r, cols in zip(group.constraints, As, nz, bound_cols):
            comp = np.repeat(r, 2)  # the + row, then the - row
            sign = np.tile([1.0, -1.0], r.size)
            block = np.zeros((comp.size, self.cols))
            block[:, :self.n] = sign[:, None] * A[comp]
            block[np.arange(comp.size), np.repeat(cols, 2)] = -1.0
            self.append_rows(block, -sign * con.a0[comp])
        return terms

    def scenario_rows(self, group: JccGroup, terms: list[dict],
                      diag: int | None = None) -> None:
        """Rows  xi_i'(A_j x + a0_j) + c_j'x + d_j + extra <= 0  for every
        scenario, one constraint after another.  ``terms[j]`` maps column ->
        coefficient of constraint j's extra terms; with ``diag``, the row of
        scenario i also gets -1 in column diag + i (a per-scenario shortfall
        or excess)."""
        data = group.samples.data
        for con, extra in zip(group.constraints, terms):
            block = np.zeros((group.n, self.cols))
            block[:, :self.n] = data @ con.A + con.c
            for col, coeff in extra.items():
                block[:, col] = coeff
            if diag is not None:
                block[np.arange(group.n), diag + np.arange(group.n)] = -1.0
            self.append_rows(block, 0.0 - (data @ con.a0 + con.d))

    def cost(self) -> np.ndarray:
        """The problem's objective over x, zero over the added columns."""
        c = np.zeros(self.cols)
        c[:self.n] = self.problem.objective
        return c

    def finish(self, objective: np.ndarray) -> LpProblem:
        """The LP, its row blocks copied into one zero-padded matrix; each is
        dropped once copied, so the heap does not grow around them."""
        poly = self.problem.polytope
        G = np.zeros((self.n_rows, self.cols))
        start = 0
        while self.rows:
            mat = self.rows.pop(0)
            G[start:start + len(mat), :mat.shape[1]] = mat
            start += len(mat)
        A_eq = (None if poly.A_eq is None
                else np.pad(poly.A_eq, ((0, 0), (0, self.cols - self.n))))
        lo = np.concatenate([poly.lower] + self.lo_extra)
        hi = np.concatenate([poly.upper, np.full(self.cols - self.n, np.inf)])
        return LpProblem(objective, G, np.concatenate(self.rhs), A_eq, poly.b_eq,
                         lo, hi)


class SStepAssembler:
    """Reusable skeleton of the shortfall-step LP.

    The constraint matrix is identical across bisection levels and inner
    iterations; only the level row's rhs and the shortfall weights in the
    objective change.  Build once per solve, stamp cheap copies after.
    ``session`` is the latest level's solver; the next level restarts
    from its basis.  Columns: x, shortfalls, margin bounds.  Rows: the
    polytope, each group's margin rows (``margin_rows[g]``), the level
    row, each group's scenario rows (``scenario_rows[g][j, i]``: constraint
    j, scenario i); ``scenario_hard_lp`` cuts the hard LPs from them.
    """

    def __init__(self, problem: CcpProblem):
        self.problem = problem
        builder = _ScenarioLpBuilder(problem)
        self.s_blocks = [builder.add_block(g.n) for g in problem.groups]
        margins, self.margin_rows = [], []
        for g in problem.groups:
            first = builder.n_rows
            margins.append(builder.add_margins(g))
            self.margin_rows.append(np.arange(first, builder.n_rows))
        # level row c'x <= f (rhs patched per level)
        self.level_row = builder.n_rows
        builder.append_rows(builder.cost()[None, :], np.array([0.0]))
        self.scenario_rows = []
        for g, terms, blk in zip(problem.groups, margins, self.s_blocks):
            first = builder.n_rows
            builder.scenario_rows(g, terms, blk.start)
            self.scenario_rows.append(
                np.arange(first, builder.n_rows).reshape(-1, g.n))
        self.lp_template = builder.finish(np.zeros(builder.cols))
        self.cols = builder.cols
        self.hard_cols = np.r_[:problem.n_vars, self.s_blocks[-1].stop:self.cols]
        self.session: lp.SimplexSession | None = None

    def lp_at(self, f: float, z: list[np.ndarray]) -> LpProblem:
        t = self.lp_template
        h = t.h.copy()
        h[self.level_row] = f
        return LpProblem(self.objective_for(z), t.G, h, t.A_eq, t.b_eq,
                         t.lower, t.upper)

    def objective_for(self, z: list[np.ndarray]) -> np.ndarray:
        c = np.zeros(self.cols)
        m = len(self.problem.groups)
        for gi, g in enumerate(self.problem.groups):
            zi = np.asarray(z[gi], dtype=float)
            if zi.shape != (g.n,):
                raise ModelError(f"weights for group {gi} must have length {g.n}")
            c[self.s_blocks[gi]] = zi / (m * g.n)
        return c

    def session_at(self, f: float) -> lp.SimplexSession:
        """Warm-restartable solver of the full-activation LP at level f;
        it starts from the previous level's basis, and later objectives
        reuse its own."""
        ones = [np.ones(g.n) for g in self.problem.groups]
        self.session = lp.SimplexBackend().start_session(self.lp_at(f, ones),
                                                         warm=self.session)
        return self.session


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
    session = asm.session_at(f)
    z = [np.ones(g.n) for g in problem.groups]
    gamma_prev = None
    delta = None
    gammas: list[float] = []
    for k in range(MAX_INNER):
        x = _point(session.solve(asm.objective_for(z)), problem, "shortfall LP")
        if x is None:
            return InnerResult(None, None, None, None, None, k, "lp-infeasible")
        s = shortfalls(problem, x)
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

def scenario_hard_lp(asm: SStepAssembler, masks: list[np.ndarray]) -> LpProblem:
    """min objective'x over the polytope with the masked scenarios' rows
    imposed hard, robustified at each group's radius: cut from the skeleton
    ``asm`` without its shortfall columns and level row, with the polytope
    rows, then per group its margin rows and its masked scenarios' rows."""
    problem, t = asm.problem, asm.lp_template
    rows = [np.arange(problem.polytope.n_ineq)]
    for gi, g in enumerate(problem.groups):
        mask = np.asarray(masks[gi], dtype=bool)
        if mask.shape != (g.n,):
            raise ModelError(f"mask for group {gi} must have length {g.n}")
        rows += [asm.margin_rows[gi], asm.scenario_rows[gi][:, mask].ravel()]
    rows, cols = np.concatenate(rows), asm.hard_cols
    obj = np.zeros(cols.size)
    obj[:problem.n_vars] = problem.objective
    G, h = (t.G[np.ix_(rows, cols)], t.h[rows]) if rows.size else (None, None)
    A_eq = None if t.A_eq is None else t.A_eq[:, cols]
    return LpProblem(obj, G, h, A_eq, t.b_eq, t.lower[cols], t.upper[cols])


def mean_value_lp(problem: CcpProblem) -> LpProblem:
    """Deterministic counterpart: every group constraint at its scenario
    mean, no margin, no relaxation."""
    builder = _ScenarioLpBuilder(problem)
    for g in problem.groups:
        mean = g.samples.mean
        for con in g.constraints:
            row = np.zeros((1, builder.cols))
            row[0, :builder.n] = mean @ con.A + con.c
            builder.append_rows(row, np.array([-(mean @ con.a0 + con.d)]))
    return builder.finish(builder.cost())


def _polish(asm: SStepAssembler, masks, fallback_x):
    """Re-minimize the true cost subject to the accepted scenario selection
    imposed hard.  Falls back to the raw accepted point if the cleanup LP
    stumbles numerically (it is feasible by construction)."""
    try:
        x = _point(lp.solve_lp(scenario_hard_lp(asm, masks)), asm.problem,
                   "polish LP")
    except NumericError:
        return fallback_x
    return fallback_x if x is None else x


# -- bound initialization ----------------------------------------------------

def init_bounds(problem: CcpProblem) -> tuple[float, float]:
    """Level bracket: lower from the mean-value LP, upper from the CVaR
    restriction if feasible (no lower than f_lo), else a multiplicative guess."""
    sol = lp.solve_lp(mean_value_lp(problem))
    if sol.status != OPTIMAL:
        raise ModelError(
            f"mean-value problem is {sol.status}; provide explicit level "
            "bounds instead")
    f_lo = float(sol.objective)
    cvar = solve_cvar(problem)
    if cvar.is_feasible:
        return f_lo, max(float(cvar.objective), f_lo)
    if f_lo > 0:
        return f_lo, 2.0 * f_lo
    return f_lo, f_lo + max(1.0, abs(f_lo))


# -- reports -----------------------------------------------------------------

def _report(problem: CcpProblem, method: str, x: np.ndarray | None,
            **extra) -> SolveReport:
    """The report of a solve that ended at point x, or Infeasible when x is
    None; ``extra`` sets the bisection fields (trace and level bracket)."""
    if x is None:
        return SolveReport(method, INFEASIBLE_STATUS, None, None, [], **extra)
    return SolveReport(method, FEASIBLE, x, float(problem.objective @ x),
                       [evaluate_group(g, x) for g in problem.groups], **extra)


def _level_record(problem, f, x, s, gamma, delta, inner_iterations, accepted):
    """The level's record from its point x and shortfalls s (None when the
    level LP was infeasible).  A scenario counts as violated when its
    shortfall exceeds TOL_ZERO, the count that evaluate_group makes on the
    same values, since s = max(worst, 0) and TOL_ZERO > 0."""
    return OuterRecord(
        f=f, gamma=gamma, delta=delta, inner_iterations=inner_iterations,
        accepted=accepted,
        objective=None if x is None else float(problem.objective @ x),
        violation_rates=None if s is None else [
            (si.size - int(np.count_nonzero(si <= TOL_ZERO))) / si.size
            for si in s])


# -- main solvers ------------------------------------------------------------

def _bisect(problem: CcpProblem, method: str, cfg: BisectionConfig | None,
            test_level) -> SolveReport:
    """Level bisection shared by the bisection methods.

    ``test_level(asm, f)`` tests level f on the shared shortfall-LP
    skeleton and returns the level's OuterRecord plus, when the level is
    accepted, ``(x, masks)``: the candidate point and the per-group
    scenario selection that the polish re-imposes hard.  If no midpoint
    is ever accepted the initial upper level gets one direct test before
    the report declares Infeasible.
    """
    cfg = cfg or BisectionConfig.from_problem(problem)
    asm = SStepAssembler(problem)
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
    x = None
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
    record = _level_record(asm.problem, f, inner.x, inner.s, inner.gamma,
                           inner.delta, inner.iterations, ok)
    return record, ((inner.x, [zi > 0.0 for zi in inner.z]) if ok else None)


def _full_activation_level(asm: SStepAssembler, f: float):
    """One full-activation shortfall LP; accept f when every group's
    fraction of exactly-satisfied scenarios reaches 1 - epsilon.  The
    polish keeps those satisfied scenarios."""
    problem = asm.problem
    x = _point(asm.session_at(f).solve(), problem, "shortfall LP")
    s = gamma = None
    ok = False
    if x is not None:
        s = shortfalls(problem, x)
        gamma = gamma_value([np.ones(g.n) for g in problem.groups], s)
        ok = all(np.count_nonzero(si > TOL_ZERO) <= risk_budget(g.epsilon, g.n)
                 for si, g in zip(s, problem.groups))
    record = _level_record(problem, f, x, s, gamma, None, 1, ok)
    return record, ((x, [si <= TOL_ZERO for si in s]) if ok else None)


def solve_also_x_multi(problem: CcpProblem,
                       cfg: BisectionConfig | None = None) -> SolveReport:
    """Alternating relaxation under level bisection (any number of groups).
    The report carries the last accepted point, cost-polished over its
    final scenario selection."""
    return _bisect(problem, METHOD_ALSO_X, cfg, _alternation_level)


def solve_also_x_single(problem: CcpProblem,
                        cfg: BisectionConfig | None = None) -> SolveReport:
    """Single-group variant: full activation, accept a level when the
    fraction of exactly-satisfied scenarios reaches 1 - epsilon."""
    if problem.n_groups != 1:
        raise ModelError(
            f"single-group solver got {problem.n_groups} groups; use "
            "solve_also_x_multi")
    return _bisect(problem, METHOD_ALSO_X_SINGLE, cfg, _full_activation_level)


def solve_intuitive_extension(problem: CcpProblem,
                              cfg: BisectionConfig | None = None) -> SolveReport:
    """Pooled baseline: one full-activation shortfall step per level and a
    level is accepted only when every group hits its rate simultaneously.
    No per-group re-weighting, which is exactly its handicap."""
    return _bisect(problem, METHOD_INTUITIVE, cfg, _full_activation_level)


def solve_cvar(problem: CcpProblem) -> SolveReport:
    """CVaR restriction: per group, a tail-average certificate that the
    worst constraint stays nonpositive.  Convex, conservative, one LP.

    Groups with epsilon == 0 degenerate to hard (worst-case) scenario rows,
    the eps -> 0 limit, so the method stays defined on sweeps that include
    zero risk.
    """
    builder = _ScenarioLpBuilder(problem)
    for g in problem.groups:
        terms = builder.add_margins(g)
        if g.epsilon == 0.0:
            builder.scenario_rows(g, terms)
            continue
        t_blk = builder.add_block(1, lo=-np.inf)
        w_blk = builder.add_block(g.n)
        builder.scenario_rows(g, [{**m, t_blk.start: -1.0} for m in terms],
                              w_blk.start)
        # tail budget: t + mean excess / epsilon <= 0
        row = np.zeros((1, builder.cols))
        row[0, t_blk.start] = 1.0
        row[0, w_blk] = 1.0 / (g.epsilon * g.n)
        builder.append_rows(row, np.array([0.0]))
    return _report(problem, METHOD_CVAR, _point(lp.solve_lp(
        builder.finish(builder.cost())), problem, "CVaR LP"))


def oracle_enumeration_count(problem: CcpProblem) -> int:
    """Scenario selections that keep each group within its risk budget."""
    total = 1
    for g in problem.groups:
        total *= sum(math.comb(g.n, v)
                     for v in range(risk_budget(g.epsilon, g.n) + 1))
    return total


def solve_oracle(problem: CcpProblem) -> SolveReport:
    """Exhaustive scenario-subset search (exact sample optimum).

    Per group, any keep-set of all but floor(eps*n) scenarios certifies the
    rate; larger keep-sets only shrink the feasible region, so minimizing
    over the exact-size subsets equals minimizing over all subsets of at
    least that size.  Guarded by the full enumeration count.
    """
    count = oracle_enumeration_count(problem)
    if count > ORACLE_CAP:
        raise CapacityError(
            f"oracle enumeration would visit {count} subset combinations "
            f"(cap {ORACLE_CAP})")
    asm = SStepAssembler(problem)
    pools = [list(itertools.combinations(
                 range(g.n), g.n - risk_budget(g.epsilon, g.n)))
             for g in problem.groups]
    best_obj = np.inf
    best_x = None
    for combo in itertools.product(*pools):
        masks = []
        for g, subset in zip(problem.groups, combo):
            mask = np.zeros(g.n, dtype=bool)
            mask[list(subset)] = True
            masks.append(mask)
        sol = lp.solve_lp(scenario_hard_lp(asm, masks))
        x = _point(sol, problem, "oracle subproblem")
        if x is not None and sol.objective < best_obj:
            best_obj, best_x = sol.objective, x
    return _report(problem, METHOD_ORACLE, best_x)


def out_of_sample_reliability(x: np.ndarray, groups: list[JccGroup],
                              test_sets: list[SampleSet]) -> list[float]:
    """Per-group fraction of held-out scenarios fully satisfied at x, at
    radius 0 (see ``evaluate_group``)."""
    if len(groups) != len(test_sets):
        raise ModelError("one test set per group required")
    return [evaluate_group(g, x, ts).rate for g, ts in zip(groups, test_sets)]


def applicable_methods(problem: CcpProblem) -> list[str]:
    """METHODS in order, less also-x-single on several groups and the
    oracle above ORACLE_CAP subset combinations."""
    return [m for m in METHODS
            if (m != METHOD_ALSO_X_SINGLE or problem.n_groups == 1)
            and (m != METHOD_ORACLE
                 or oracle_enumeration_count(problem) <= ORACLE_CAP)]


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
                 METHOD_ALSO_X_SINGLE: solve_also_x_single,
                 METHOD_INTUITIVE: solve_intuitive_extension}
    if method not in bisection:
        raise ModelError(f"unknown method {method!r}")
    return bisection[method](problem, cfg)
