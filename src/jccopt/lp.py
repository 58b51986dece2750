"""Dense linear programming core.

Solves   min c'x  s.t.  G x <= h,  A_eq x = b_eq,  lower <= x <= upper
with a bounded-variable two-phase primal simplex on a dense tableau.
Bounds are handled natively (nonbasic variables rest at either bound),
so boxes never inflate the row count.  Pricing is largest-reduced-cost
with a deterministic lowest-index tie-break; after a degenerate stall
the solver switches permanently to Bland's rule, which guarantees
termination.  Everything is plain numpy and fully deterministic.

A pivot updates only the block it changes: the rows where the pivot
column is nonzero, crossed with the columns where the normalised pivot
row is nonzero.  Every other entry of the rank-one update would subtract
a zero, so the block update gives the same tableau as the dense one (up
to the sign of some zeros) at a fraction of the cost on scenario LPs,
whose pivot rows and columns are mostly zero.  A cold ``solve`` drops its
tableau's ``T`` before recomputing the basic values, since it never
pivots again; sessions keep theirs for warm re-solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Internal feasibility / dual-feasibility tolerance.
FEAS_TOL = 1e-9
# Residual level reported solutions are audited against.
REPORT_TOL = 1e-7
# Smallest pivot magnitude accepted during elimination.
PIVOT_TOL = 1e-10
# Iteration cap factor: 50 * (rows + cols).
ITER_FACTOR = 50

_BASIC, _NB_LO, _NB_UP, _NB_FREE, _FIXED = 0, 1, 2, 3, 4
# Pricing sign per vstat: a nonbasic column at its lower bound improves
# when its reduced cost is negative, one at its upper bound when positive.
# Free columns are priced on -|d| separately.  Basic and fixed columns
# never enter; artificials are always one or the other.
_PRICE_SIGN = np.array([0.0, 1.0, -1.0, 0.0, 0.0])


def _as_matrix(a, rows, cols, name):
    m = np.asarray(a, dtype=float)
    if m.shape != (rows, cols):
        raise ModelError(f"{name}: expected shape {(rows, cols)}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ModelError(f"{name}: entries must be finite")
    return m


@dataclass
class LpProblem:
    """LP description.  ``None`` blocks mean "absent"; bounds default to free."""

    c: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    var_names: list[str] | None = None

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if self.c.ndim != 1 or self.c.size == 0:
            raise ModelError("c must be a nonempty vector")
        if not np.all(np.isfinite(self.c)):
            raise ModelError("c: entries must be finite")
        n = self.c.size
        if (self.G is None) != (self.h is None):
            raise ModelError("G and h must be given together")
        if (self.A_eq is None) != (self.b_eq is None):
            raise ModelError("A_eq and b_eq must be given together")
        if self.G is not None:
            self.h = np.atleast_1d(np.asarray(self.h, dtype=float))
            self.G = _as_matrix(self.G, self.h.size, n, "G")
            if not np.all(np.isfinite(self.h)):
                raise ModelError("h: entries must be finite")
        if self.A_eq is not None:
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
            self.A_eq = _as_matrix(self.A_eq, self.b_eq.size, n, "A_eq")
            if not np.all(np.isfinite(self.b_eq)):
                raise ModelError("b_eq: entries must be finite")
        self.lower = (np.full(n, -np.inf) if self.lower is None
                      else np.atleast_1d(np.asarray(self.lower, dtype=float)))
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ModelError("bounds must match the variable count")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ModelError("bounds may be infinite but not NaN")
        if np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise ModelError("a lower bound may not be +inf, nor an upper bound -inf")
        if self.var_names is not None and len(self.var_names) != n:
            raise ModelError("var_names must match the variable count")

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_ineq(self) -> int:
        return 0 if self.G is None else self.G.shape[0]

    @property
    def n_eq(self) -> int:
        return 0 if self.A_eq is None else self.A_eq.shape[0]


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def residuals(problem: LpProblem, x: np.ndarray) -> dict:
    """Worst-case constraint violations of a candidate point (audit helper)."""
    out = {"ineq": 0.0, "eq": 0.0, "bounds": 0.0}
    if problem.G is not None:
        out["ineq"] = float(max(0.0, np.max(problem.G @ x - problem.h, initial=0.0)))
    if problem.A_eq is not None:
        out["eq"] = float(np.max(np.abs(problem.A_eq @ x - problem.b_eq), initial=0.0))
    lo = np.max(problem.lower - x, initial=0.0)
    hi = np.max(x - problem.upper, initial=0.0)
    out["bounds"] = float(max(0.0, lo, hi))
    return out


def dump_lp(problem: LpProblem) -> str:
    """Plain-text listing of an LpProblem, for eyeballing small models."""
    names = problem.var_names or [f"x{j}" for j in range(problem.n_vars)]

    def row(coefs):
        parts = [f"{c:+g} {names[j]}" for j, c in enumerate(coefs) if c != 0.0]
        return " ".join(parts) if parts else "0"

    lines = ["minimize", "  " + row(problem.c), "subject to"]
    if problem.G is not None:
        for i in range(problem.n_ineq):
            lines.append(f"  r{i}: {row(problem.G[i])} <= {problem.h[i]:g}")
    if problem.A_eq is not None:
        for i in range(problem.n_eq):
            lines.append(f"  e{i}: {row(problem.A_eq[i])} = {problem.b_eq[i]:g}")
    lines.append("bounds")
    for j, nm in enumerate(names):
        lines.append(f"  {problem.lower[j]:g} <= {nm} <= {problem.upper[j]:g}")
    return "\n".join(lines)


class _Tableau:
    """Bounded-variable simplex state over the standard-form system A y = b.

    Columns: structural vars, then one slack per inequality row, then
    artificials.  ``vstat`` tracks where each nonbasic column rests;
    basic values live in ``xb`` (positionally parallel to ``basis``).
    """

    def __init__(self, problem: LpProblem):
        n, mi, me = problem.n_vars, problem.n_ineq, problem.n_eq
        m = mi + me
        cols = n + mi
        A = np.zeros((m, cols))
        b = np.zeros(m)
        if mi:
            A[:mi, :n] = problem.G
            A[np.arange(mi), n + np.arange(mi)] = 1.0
            b[:mi] = problem.h
        if me:
            A[mi:, :n] = problem.A_eq
            b[mi:] = problem.b_eq
        self.A, self.b = A, b
        self.lo = np.concatenate([problem.lower, np.zeros(mi)])
        self.hi = np.concatenate([problem.upper, np.full(mi, np.inf)])
        self.n_struct = n
        self.n_ineq = mi
        self.m = m
        self.cost = np.concatenate([problem.c, np.zeros(mi)])
        self.iterations = 0
        self.max_iter = ITER_FACTOR * (m + cols)
        self.bland = False
        self._stall = 0
        self._crash()

    def _crash(self):
        """Initial basis: nonbasics at a finite bound, slacks absorbing what
        they can, artificials covering the rest."""
        m = self.m
        cols = self.A.shape[1]
        vstat = np.full(cols, _NB_LO, dtype=np.int8)
        val = np.where(np.isfinite(self.lo), self.lo, 0.0)
        no_lo = ~np.isfinite(self.lo)
        at_up = no_lo & np.isfinite(self.hi)
        vstat[at_up] = _NB_UP
        val[at_up] = self.hi[at_up]
        free = no_lo & ~np.isfinite(self.hi)
        vstat[free] = _NB_FREE
        val[free] = 0.0
        self.free_cols = np.flatnonzero(free)
        vstat[np.isfinite(self.lo) & (self.hi == self.lo)] = _FIXED

        resid = self.b - self.A @ val
        basis = np.full(m, -1, dtype=int)
        art_rows = []
        for i in range(m):
            if i < self.n_ineq and resid[i] >= 0.0:
                sc = self.n_struct + i
                basis[i] = sc
                vstat[sc] = _BASIC
            else:
                art_rows.append(i)
        n_art = len(art_rows)
        if n_art:
            art = np.zeros((m, n_art))
            for k, i in enumerate(art_rows):
                art[i, k] = 1.0 if resid[i] >= 0.0 else -1.0
            self.A = np.hstack([self.A, art])
            self.lo = np.concatenate([self.lo, np.zeros(n_art)])
            self.hi = np.concatenate([self.hi, np.full(n_art, np.inf)])
            self.cost = np.concatenate([self.cost, np.zeros(n_art)])
            vstat = np.concatenate([vstat, np.full(n_art, _BASIC, dtype=np.int8)])
            val = np.concatenate([val, np.zeros(n_art)])
            for k, i in enumerate(art_rows):
                basis[i] = self.A.shape[1] - n_art + k
        self.first_art = self.A.shape[1] - n_art
        self.vstat = vstat
        self.basis = basis
        self.nb_val = val  # meaningful only where nonbasic
        # T = B^-1 A: the crash basis is +-unit columns, so rows whose
        # artificial has coefficient -1 are negated, the rest copied.
        self.T = self.A.copy()
        for k, i in enumerate(art_rows):
            if self.A[i, self.first_art + k] < 0:
                self.T[i] *= -1.0
        self.xb = np.abs(resid)
        for i in range(m):
            if basis[i] < self.first_art:
                self.xb[i] = resid[i]

    def has_artificials_in_basis(self) -> bool:
        return bool(np.any(self.basis >= self.first_art))

    def reduced_costs(self, c):
        return c - c[self.basis] @ self.T

    def _entering(self, d):
        st = self.vstat
        score = d * _PRICE_SIGN[st]
        if self.free_cols.size:
            fr = self.free_cols[st[self.free_cols] == _NB_FREE]
            score[fr] = -np.abs(d[fr])
        if self.bland:
            cand = score < -FEAS_TOL
            q = int(cand.argmax())
            if not cand[q]:
                return -1, 0
        else:
            q = int(score.argmin())
            if not score[q] < -FEAS_TOL:
                return -1, 0
        if st[q] == _NB_UP:
            direction = -1
        elif st[q] == _NB_FREE:
            direction = 1 if d[q] < 0 else -1
        else:
            direction = 1
        return q, direction

    def _ratio(self, q, direction):
        """Largest step t >= 0 for the entering column.  Returns
        (t, blocking_row or -1, is_bound_flip)."""
        w = self.T[:, q]
        # Rows whose basic variable moves; the others never block.
        rows = (np.abs(w) > PIVOT_TOL).nonzero()[0]
        delta = -direction * w[rows]  # change in xb per unit step
        basic = self.basis[rows]
        xb = self.xb[rows]
        # An infinite bound gives an infinite limit.
        lim = np.where(delta < 0.0, (xb - self.lo[basic]) / (-delta),
                       (self.hi[basic] - xb) / delta)
        lim = np.maximum(lim, 0.0)
        lim_min = float(lim.min(initial=np.inf))
        span = self.hi[q] - self.lo[q]
        t_flip = float(span) if np.isfinite(span) else np.inf
        if t_flip <= lim_min:
            if not np.isfinite(t_flip):
                return np.inf, -1, False
            return t_flip, -1, True
        ties = (lim <= lim_min + 1e-12).nonzero()[0]
        if self.bland:
            k = ties[np.argmin(basic[ties])]
        else:
            k = ties[np.argmax(np.abs(delta[ties]))]
        return float(lim[k]), int(rows[k]), False

    def _pivot(self, r, q, entering_value):
        piv = self.T[r, q]
        if abs(piv) < PIVOT_TOL:
            raise NumericError(
                f"pivot {piv:.3e} below tolerance at row {r}, col {q} "
                f"(iteration {self.iterations})")
        T = self.T
        T[r] /= piv
        prow = T[r]
        # Only the block of rows where column q is nonzero and columns
        # where row r is nonzero changes.  Column q is reset below, so
        # zeroing T[r, q] first keeps row r and column q out of the block.
        T[r, q] = 0.0
        rows = T[:, q].nonzero()[0]
        cols = prow.nonzero()[0]
        T[rows[:, None], cols] -= T[rows, q][:, None] * prow[cols]
        T[rows, q] = 0.0
        T[r, q] = 1.0
        leave = int(self.basis[r])
        self.basis[r] = q
        self.xb[r] = entering_value
        return leave

    def step(self, d):
        """One simplex iteration.  Returns 'optimal', 'unbounded' or 'moved'."""
        q, direction = self._entering(d)
        if q < 0:
            return "optimal"
        t, r, is_flip = self._ratio(q, direction)
        if not np.isfinite(t):
            return "unbounded"
        w = self.T[:, q].copy()
        gain = abs(d[q]) * t
        self.xb -= direction * t * w
        if is_flip:
            self.vstat[q] = _NB_UP if self.vstat[q] == _NB_LO else _NB_LO
            self.nb_val[q] = self.hi[q] if self.vstat[q] == _NB_UP else self.lo[q]
        else:
            enter_val = self.nb_val[q] + direction * t
            leave = self._pivot(r, q, enter_val)
            self.vstat[q] = _BASIC
            # Leaving variable rests at whichever bound blocked it.
            went_down = -direction * w[r] < 0
            lv = self.lo[leave] if went_down else self.hi[leave]
            self.nb_val[leave] = lv
            self.vstat[leave] = _NB_LO if went_down else _NB_UP
            if leave >= self.first_art:
                self.lo[leave] = self.hi[leave] = 0.0
                self.nb_val[leave] = 0.0
                self.vstat[leave] = _FIXED
            dq = d[q]
            d -= dq * self.T[r]
            d[q] = 0.0
        self.iterations += 1
        if gain > 1e-12:
            self._stall = 0
        else:
            self._stall += 1
            if self._stall > 2 * (self.m + 10):
                self.bland = True  # anti-cycling from here on
        return "moved"

    def run(self, c):
        """Pivot until optimal/unbounded under cost vector c."""
        d = self.reduced_costs(c)
        confirmed = False
        while True:
            if self.iterations > self.max_iter:
                raise NumericError(
                    f"simplex iteration cap {self.max_iter} exceeded "
                    f"({self.m} rows, {self.A.shape[1]} cols)")
            outcome = self.step(d)
            if outcome == "moved":
                confirmed = False
                continue
            if outcome == "unbounded":
                return outcome
            if confirmed:
                return "optimal"
            # Optimality claimed off incrementally-updated reduced costs;
            # recompute them once from scratch before accepting.
            d = self.reduced_costs(c)
            confirmed = True

    def full_values(self):
        v = self.nb_val.copy()
        v[self.basis] = self.xb
        return v

    def refresh_basics(self):
        """Recompute basic values exactly from the original system, clearing
        any drift the rank-one tableau updates accumulated."""
        B = self.A[:, self.basis]
        v = self.nb_val.copy()
        v[self.basis] = 0.0
        rhs = self.b - self.A @ v
        try:
            self.xb = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"basis matrix became singular: {exc}") from None


class SimplexBackend:
    """Bundled dense two-phase simplex.  Stateless; safe to share."""

    def solve(self, problem: LpProblem) -> LpSolution:
        tab, status, sol = self._solve_tableau(problem)
        if sol is not None:
            return sol
        tab.T = None  # no more pivots; free it before refresh_basics
        return self._extract(problem, tab, status)

    def start_session(self, problem: LpProblem) -> "SimplexSession":
        """Resumable re-solves of one constraint system under changing
        objectives (phase 1 runs at most once)."""
        return SimplexSession(self, problem)

    def _solve_tableau(self, problem):
        if np.any(problem.lower > problem.upper):
            return None, INFEASIBLE, LpSolution(INFEASIBLE)
        if problem.n_ineq + problem.n_eq == 0:
            return None, OPTIMAL, self._bounds_only(problem)
        tab = _Tableau(problem)
        if tab.has_artificials_in_basis():
            c1 = np.zeros(tab.A.shape[1])
            c1[tab.first_art:] = 1.0
            outcome = tab.run(c1)
            art_basic = tab.basis >= tab.first_art
            p1 = float(np.sum(np.abs(tab.xb[art_basic]))) if np.any(art_basic) else 0.0
            infeas_tol = FEAS_TOL * max(1.0, float(np.max(np.abs(tab.b), initial=1.0)))
            if outcome != "optimal" or p1 > infeas_tol:
                return tab, INFEASIBLE, None
            # Freeze artificials at zero for phase 2.
            tab.lo[tab.first_art:] = 0.0
            tab.hi[tab.first_art:] = 0.0
            nonbasic_art = tab.vstat[tab.first_art:] != _BASIC
            tab.vstat[tab.first_art:][nonbasic_art] = _FIXED
            tab.nb_val[tab.first_art:] = 0.0
            tab._stall = 0
            tab.bland = False
        outcome = tab.run(tab.cost)
        if outcome == "unbounded":
            return tab, UNBOUNDED, None
        return tab, OPTIMAL, None

    def _extract(self, problem, tab, status):
        if status != OPTIMAL:
            return LpSolution(status, iterations=tab.iterations if tab else 0)
        tab.refresh_basics()
        v = tab.full_values()
        x = v[:problem.n_vars]
        res = residuals(problem, x)
        if max(res.values()) > REPORT_TOL:
            raise NumericError(f"solution failed the feasibility audit: {res}")
        x = np.clip(x, problem.lower, problem.upper)
        return LpSolution(OPTIMAL, x=x,
                          objective=float(problem.c @ x),
                          iterations=tab.iterations)

    @staticmethod
    def _bounds_only(problem):
        lo, hi, c = problem.lower, problem.upper, problem.c
        x = np.zeros_like(c)
        for j in range(c.size):
            if c[j] > 0:
                if not np.isfinite(lo[j]):
                    return LpSolution(UNBOUNDED)
                x[j] = lo[j]
            elif c[j] < 0:
                if not np.isfinite(hi[j]):
                    return LpSolution(UNBOUNDED)
                x[j] = hi[j]
            else:
                x[j] = lo[j] if np.isfinite(lo[j]) else (min(hi[j], 0.0) if np.isfinite(hi[j]) else 0.0)
        return LpSolution(OPTIMAL, x=x, objective=float(c @ x), iterations=0)


class SimplexSession:
    """Warm re-solve helper: constraints fixed, objective varies."""

    def __init__(self, backend: SimplexBackend, problem: LpProblem):
        self._backend = backend
        self._problem = problem
        self._tab = None
        self._infeasible = False
        self._retired = 0  # pivots of tableaux dropped by a cold retry

    def solve(self, c: np.ndarray | None = None) -> LpSolution:
        """Re-solve under objective ``c`` (default: the session LP's own).

        A warm re-solve that fails numerically is retried once cold, from
        a fresh tableau: the rank-one updates accumulated over earlier
        re-solves can drift past the feasibility audit.  ``iterations``
        counts the session's pivots so far, across such retries.
        """
        if self._infeasible:
            return LpSolution(INFEASIBLE)
        prob = self._problem
        if c is not None:
            c = np.asarray(c, dtype=float)
            if c.shape != prob.c.shape:
                raise ModelError("session objective has the wrong length")
            prob = LpProblem(c, prob.G, prob.h, prob.A_eq, prob.b_eq,
                             prob.lower, prob.upper)
        if self._tab is not None:
            try:
                sol = self._warm(prob)
            except NumericError:
                self._retired += self._tab.iterations
                self._tab = None
            else:
                sol.iterations += self._retired
                return sol
        tab, status, sol = self._backend._solve_tableau(prob)
        if sol is not None:
            if sol.status == INFEASIBLE:
                self._infeasible = True
            return sol
        if status == INFEASIBLE:
            self._infeasible = True
        elif status == OPTIMAL:
            self._tab = tab
        sol = self._backend._extract(prob, tab, status)
        sol.iterations += self._retired
        return sol

    def _warm(self, prob: LpProblem) -> LpSolution:
        tab = self._tab
        cost = np.concatenate([prob.c, np.zeros(tab.A.shape[1] - prob.c.size)])
        tab._stall = 0
        tab.bland = False
        outcome = tab.run(cost)
        if outcome == "unbounded":
            return LpSolution(UNBOUNDED, iterations=tab.iterations)
        return self._backend._extract(prob, tab, OPTIMAL)


_SIMPLEX = SimplexBackend()


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an LP with the bundled simplex."""
    return _SIMPLEX.solve(problem)
