"""Linear programming core: a bounded-variable simplex on a dense tableau.

Solves   min c'x  s.t.  G x <= h,  A_eq x = b_eq,  lower <= x <= upper
with a bounded-variable simplex.  A one-shot solve (``solve_lp``) whose
slack basis is dual feasible under c (no column of positive cost without
a finite lower bound, none of negative cost without a finite upper one)
starts there, with every column at the bound its cost prefers, and runs
the bounded dual simplex with no phase 1; the primal simplex then
confirms the optimum.  Every other cold solve runs the two-phase primal
simplex: a session's first one, and a one-shot solve asked to keep the
primal start (``dual_start=False``; the level bracket of ``algorithms``,
whose ends every bisection midpoint follows).  The constraint matrix
is kept as its structural block alone (the ``G`` and ``A_eq`` rows over
the problem's variables); slacks and artificials are unit columns known
by their row and sign.  The tableau ``T`` stores the
structural and slack columns, and the basic values are recomputed from
the structural block of the basis alone (``_Tableau.refresh_basics``).
Bounds are handled natively (nonbasic variables rest at either bound),
so boxes never inflate the row count.  Pricing is largest-reduced-cost
with a deterministic lowest-index tie-break; after a degenerate stall
a run switches to Bland's rule until it ends, which guarantees
termination.  Everything is plain numpy and fully deterministic.

Each iteration gathers the entering column of ``T`` once, as a copy,
for the ratio test, the basic values and the pivot.  A pivot updates
only the block it changes: the rows where the pivot column is nonzero,
crossed with the columns where the normalised pivot row is nonzero,
in one read-modify-write pass over the block's flat indices
(``np.subtract.at``).  Every other entry of the rank-one update would
subtract a zero, so the block update gives the same tableau as the
dense one (up to the sign of some zeros) at a fraction of the cost on
scenario LPs, whose pivot rows and columns are mostly zero.

Every solve is a ``SimplexSession`` driving five tableau calls:
``_Tableau(problem)`` (``_Tableau(problem, c)`` for the dual start),
``cold(c)``, ``resolve(dual_cost, c)`` (warm), ``set_rhs(h)`` and
``refresh_basics()``/``full_values()``.  ``solve_lp`` is a one-shot
session: it drops ``T`` before recomputing the basic values, since it
never pivots again.  A re-solve that makes no pivot returns the point
the session last refreshed and audited.

A session can also restart from another session's tableau when only the
inequality rhs differs (the bisection levels of ``algorithms``).  The old
basis stays dual feasible under the cost it was last optimal for, so the
new basic values are patched in through the slack columns of ``T`` and a
bounded dual simplex restores primal feasibility; the primal simplex then
takes over under the requested objective.  The tableau moves from one
session to the next, it is never copied.
"""

from __future__ import annotations

import copy
import math
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
_PRICE_SIGN.setflags(write=False)


def check_blocks(blocks, n: int, where: str = "") -> None:
    """Convert and check in place the blocks of an LpProblem or Polytope
    over n variables (a block that needs no conversion is not assigned
    again): paired ``G``/``h`` and ``A_eq``/``b_eq`` of matching
    shapes and finite entries; bounds of length n, infinite where absent,
    never NaN, and never +inf below or -inf above.  ``where`` prefixes the
    error messages."""
    for lhs, rhs in (("G", "h"), ("A_eq", "b_eq")):
        M, b = getattr(blocks, lhs), getattr(blocks, rhs)
        if (M is None) != (b is None):
            raise ModelError(f"{where}{lhs} and {rhs} must be given together")
        if M is None:
            continue
        given = {lhs: M, rhs: b}
        b = np.atleast_1d(np.asarray(b, dtype=float))
        M = np.atleast_2d(np.asarray(M, dtype=float))
        if M.shape != (b.size, n):
            raise ModelError(f"{where}{lhs} must be {(b.size, n)}, got {M.shape}")
        for name, arr in ((lhs, M), (rhs, b)):
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"{where}{name}: entries must be finite")
            if arr is not given[name]:  # a Polytope keeps its records
                setattr(blocks, name, arr)
    blocks.lower = (np.full(n, -np.inf) if blocks.lower is None
                    else np.atleast_1d(np.asarray(blocks.lower, dtype=float)))
    blocks.upper = (np.full(n, np.inf) if blocks.upper is None
                    else np.atleast_1d(np.asarray(blocks.upper, dtype=float)))
    if blocks.lower.shape != (n,) or blocks.upper.shape != (n,):
        raise ModelError(f"{where}bounds must match the variable count")
    if np.any(np.isnan(blocks.lower)) or np.any(np.isnan(blocks.upper)):
        raise ModelError(f"{where}bounds may be infinite but not NaN")
    if np.any(blocks.lower == np.inf) or np.any(blocks.upper == -np.inf):
        raise ModelError(f"{where}a lower bound may not be +inf, nor an upper "
                         "bound -inf")


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

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if self.c.ndim != 1 or self.c.size == 0:
            raise ModelError("c must be a nonempty vector")
        if not np.all(np.isfinite(self.c)):
            raise ModelError("c: entries must be finite")
        check_blocks(self, self.c.size)

    def derive(self, c, h=None, rows=None, cols=None) -> "LpProblem":
        """This LP with objective ``c`` and, when given, inequality rhs
        ``h``; with ``rows`` and ``cols`` (given together) cut to those
        inequality rows and variables, where no rows leave no inequality
        block.

        The blocks this LP checked when it was built are reused or sliced
        without a second check.  Only ``c`` and ``h`` are checked; when one
        has the wrong length or a non-finite entry, the LP is built through
        the constructor, which raises its message."""
        G, b, A_eq, lower, upper = (self.G, self.h, self.A_eq, self.lower,
                                    self.upper)
        if rows is not None:
            G, b = (G[np.ix_(rows, cols)], b[rows]) if len(rows) else (None, None)
            A_eq = None if A_eq is None else A_eq[:, cols]
            lower, upper = lower[cols], upper[cols]
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if h is not None:
            b = np.atleast_1d(np.asarray(h, dtype=float))
        checked = (c.shape == lower.shape and bool(np.all(np.isfinite(c)))
                   and (b is None if G is None else
                        b.shape == G.shape[:1] and bool(np.all(np.isfinite(b)))))
        if not checked:
            return LpProblem(c, G, b, A_eq, self.b_eq, lower, upper)
        out = copy.copy(self)
        out.c, out.G, out.h, out.A_eq, out.lower, out.upper = (
            c, G, b, A_eq, lower, upper)
        return out

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


class _Tableau:
    """Bounded-variable simplex state over the standard-form system A y = b.

    Columns: structural vars, then one slack per inequality row, then the
    artificials the crash basis needs.  Every column j >= n_struct is the
    unit column ``unit_sign[j - n_struct] * e_{unit_rows[j - n_struct]}``.
    ``A`` is the structural block only (m x n_struct: the ``G`` rows, then
    the ``A_eq`` rows); the crash and ``refresh_basics`` add the unit
    columns from ``unit_rows`` and ``unit_sign``.  ``T`` stores the
    ``first_art`` columns before the artificials: an artificial is read
    only while basic, as its unit column, and once it leaves the basis it
    is fixed at zero, so it is never priced and never enters a ratio
    test.  ``lo``, ``hi``, ``vstat`` and ``nb_val`` cover every column,
    artificials included; ``vstat`` tracks where each nonbasic column
    rests, and basic values live in ``xb`` (positionally parallel to
    ``basis``).
    """

    def __init__(self, problem: LpProblem, c=None):
        n, mi, me = problem.n_vars, problem.n_ineq, problem.n_eq
        m = mi + me
        cols = n + mi
        A = np.empty((m, n))
        b = np.empty(m)
        if mi:
            A[:mi] = problem.G
            b[:mi] = problem.h
        if me:
            A[mi:] = problem.A_eq
            b[mi:] = problem.b_eq
        self.A, self.b = A, b
        self.lo = np.concatenate([problem.lower, np.zeros(mi)])
        self.hi = np.concatenate([problem.upper, np.full(mi, np.inf)])
        self.n_struct = n
        self.n_ineq = mi
        self.m = m
        self.iterations = 0
        self.max_iter = ITER_FACTOR * (m + cols)
        self.bland = False
        self._stall = 0
        # True while xb is exactly what refresh_basics last computed: no
        # pivot, bound flip or rhs change since.
        self._fresh = False
        # True after an rhs change: the basic values may violate their
        # bounds, so the next resolve runs the dual simplex first.
        self._rhs_moved = False
        self._crash(c)

    def _crash(self, c):
        """Initial basis.  The dual start, when a structural cost c is given
        and the slack basis is dual feasible under it (no column of
        positive cost lacks a finite lower bound, none of negative cost a
        finite upper one): each structural column rests at the bound its
        cost prefers, every inequality slack is basic, whatever its value,
        and each equality row is covered by an artificial fixed at [0, 0];
        ``cold`` then needs no phase 1.  Otherwise the primal crash:
        slacks absorb what they can and artificials of bounds [0, inf)
        cover the rest.  Either way a zero-cost column rests at a finite
        bound, the lower one first, and a free one at 0."""
        m, n, mi = self.m, self.n_struct, self.n_ineq
        cols = n + mi
        vstat = np.full(cols, _NB_LO, dtype=np.int8)
        val = np.where(np.isfinite(self.lo), self.lo, 0.0)
        no_lo = ~np.isfinite(self.lo)
        at_up = no_lo & np.isfinite(self.hi)
        self.dual_start = c is not None and not (
            np.any(no_lo[:n] & (c > 0.0))
            or np.any(~np.isfinite(self.hi[:n]) & (c < 0.0)))
        if self.dual_start:
            at_up[:n] |= c < 0.0
        vstat[at_up] = _NB_UP
        val[at_up] = self.hi[at_up]
        free = no_lo & ~np.isfinite(self.hi)
        vstat[free] = _NB_FREE
        val[free] = 0.0
        self.free_cols = np.flatnonzero(free)
        vstat[np.isfinite(self.lo) & (self.hi == self.lo)] = _FIXED

        resid = self.b - self.A @ val[:n]
        resid[:mi] -= val[n:]
        slack = np.zeros(m, dtype=bool)
        slack[:mi] = True if self.dual_start else resid[:mi] >= 0.0
        rows, art_rows = np.flatnonzero(slack), np.flatnonzero(~slack)
        n_art = art_rows.size
        basis = np.empty(m, dtype=int)
        basis[rows] = n + rows
        vstat[n + rows] = _BASIC
        basis[art_rows] = cols + np.arange(n_art)
        # Each artificial is +-e_i, signed so that it starts at |resid_i|;
        # each slack is +e_i.
        sign = np.where(slack | (resid >= 0.0), 1.0, -1.0)
        self.unit_rows = np.concatenate([np.arange(mi), art_rows])
        self.unit_sign = np.concatenate([np.ones(mi), sign[art_rows]])
        self.lo = np.concatenate([self.lo, np.zeros(n_art)])
        self.hi = np.concatenate([self.hi, np.full(
            n_art, 0.0 if self.dual_start else np.inf)])
        self.first_art = cols
        self.vstat = np.concatenate([vstat, np.full(n_art, _BASIC, dtype=np.int8)])
        self.basis = basis
        # nb_val is meaningful only where nonbasic.
        self.nb_val = np.concatenate([val, np.zeros(n_art)])
        # T = B^-1 [A I]: the crash basis is +-unit columns, so T is the
        # structural block and the slack identity with the rows of the -1
        # artificials negated.  Both are written straight into T; the slack
        # block's zeros carry the row sign, as a product would give them.
        T = np.empty((m, cols))
        np.multiply(self.A, sign[:, None], out=T[:, :n])
        T[:, n:] = np.copysign(0.0, sign)[:, None]
        T[np.arange(mi), n + np.arange(mi)] = sign[:mi]
        self.T = T
        self.xb = np.where(slack, resid, np.abs(resid))

    def _extend(self, c):
        """A structural cost vector, zero over slacks and artificials."""
        return np.concatenate([c, np.zeros(self.lo.size - c.size)])

    def reduced_costs(self, c):
        """Reduced costs of the stored columns under a full-length c."""
        return c[:self.first_art] - c[self.basis] @ self.T

    def _entering(self, d):
        st = self.vstat[:self.first_art]
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

    def _ratio(self, w, q, direction):
        """Largest step t >= 0 for the entering column q, whose tableau
        column is w.  Returns (t, blocking_row or -1, is_bound_flip)."""
        # Rows whose basic variable moves; the others never block.
        rows = (np.abs(w) > PIVOT_TOL).nonzero()[0]
        delta = -direction * w[rows]  # change in xb per unit step
        basic = self.basis[rows]
        # The limit toward the bound each basic value moves to:
        # (lo - xb)/delta is (xb - lo)/(-delta) bit for bit.  An infinite
        # bound gives an infinite limit.
        bound = np.where(delta < 0.0, self.lo[basic], self.hi[basic])
        lim = (bound - self.xb[rows]) / delta
        np.maximum(lim, 0.0, out=lim)
        lim_min = float(lim.min(initial=np.inf))
        # Infinite when q lacks a bound, since lo < inf and hi > -inf.
        t_flip = float(self.hi[q] - self.lo[q])
        if t_flip <= lim_min:
            if not math.isfinite(t_flip):
                return math.inf, -1, False
            return t_flip, -1, True
        ties = (lim <= lim_min + 1e-12).nonzero()[0]
        if self.bland:
            k = ties[np.argmin(basic[ties])]
        else:
            k = ties[np.argmax(np.abs(delta[ties]))]
        return float(lim[k]), int(rows[k]), False

    def _pivot(self, r, q, entering_value, w):
        """Column q enters the basis at row r; w is a copy of column q,
        which the call consumes."""
        piv = w[r]
        if abs(piv) < PIVOT_TOL:
            raise NumericError(
                f"pivot {piv:.3e} below tolerance at row {r}, col {q} "
                f"(iteration {self.iterations})")
        T = self.T
        prow = T[r]
        prow /= piv
        # Only the block of rows where column q is nonzero and columns
        # where row r is nonzero changes.  Column q is reset below, so
        # zeroing it first in row r and in w keeps row r and column q out
        # of the block.  The block is updated in one pass over its flat
        # indices (T is C-contiguous, so reshape gives a view): each entry
        # loses the same product as in T -= w prow.
        prow[q] = 0.0
        w[r] = 0.0
        rows = w.nonzero()[0]
        cols = prow.nonzero()[0]
        np.subtract.at(T.reshape(-1), (rows[:, None] * T.shape[1] + cols).ravel(),
                       np.multiply.outer(w[rows], prow[cols]).ravel())
        T[rows, q] = 0.0
        T[r, q] = 1.0
        leave = int(self.basis[r])
        self.basis[r] = q
        self.xb[r] = entering_value
        return leave

    def _swap(self, r, q, w, step, leave_at_lo, d, gain):
        """Basis change shared by the primal and dual iterations: column q,
        whose tableau column w is a copy, moves by ``step`` and enters at
        row r, the leaving column rests at its lower bound if
        ``leave_at_lo`` else at its upper one (an artificial is fixed at
        zero), and d is updated in place."""
        self.xb -= step * w
        leave = self._pivot(r, q, self.nb_val[q] + step, w)
        self.vstat[q] = _BASIC
        if leave >= self.first_art:
            self.lo[leave] = self.hi[leave] = 0.0
            self.nb_val[leave] = 0.0
            self.vstat[leave] = _FIXED
        else:
            self.nb_val[leave] = self.lo[leave] if leave_at_lo else self.hi[leave]
            self.vstat[leave] = _NB_LO if leave_at_lo else _NB_UP
        dq = d[q]
        d -= dq * self.T[r]
        d[q] = 0.0
        self._moved(gain)

    def step(self, d):
        """One simplex iteration.  Returns 'optimal', 'unbounded' or 'moved'."""
        q, direction = self._entering(d)
        if q < 0:
            return "optimal"
        # The entering column, gathered once for the ratio test, the
        # basic values and the pivot.
        w = self.T[:, q].copy()
        t, r, is_flip = self._ratio(w, q, direction)
        if not math.isfinite(t):
            return "unbounded"
        gain = abs(d[q]) * t
        if not is_flip:
            # The leaving variable rests at whichever bound blocked it.
            self._swap(r, q, w, direction * t, -direction * w[r] < 0, d, gain)
            return "moved"
        self.xb -= direction * t * w
        self.vstat[q] = _NB_UP if self.vstat[q] == _NB_LO else _NB_LO
        self.nb_val[q] = self.hi[q] if self.vstat[q] == _NB_UP else self.lo[q]
        self._moved(gain)
        return "moved"

    def _moved(self, gain):
        self._fresh = False
        self.iterations += 1
        if gain > 1e-12:
            self._stall = 0
        else:
            self._stall += 1
            if self._stall > 2 * (self.m + 10):
                self.bland = True  # anti-cycling from here on

    def _check_cap(self):
        if self.iterations > self.max_iter:
            raise NumericError(
                f"simplex iteration cap {self.max_iter} exceeded "
                f"({self.m} rows, {self.lo.size} cols)")

    def run(self, c):
        """Pivot until optimal/unbounded under cost vector c."""
        self._stall = 0
        self.bland = False
        d = self.reduced_costs(c)
        # d is fresh until the first pivot: an optimal first step stands.
        confirmed = True
        while True:
            self._check_cap()
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

    def cold(self, c):
        """Cold solve from the crash basis under the structural cost c,
        the one a dual start was built for.  From the dual start the dual
        simplex restores primal feasibility; from the primal crash phase 1
        drives the artificials to zero.  The primal simplex then minimises
        c (from the dual start it only confirms).  Returns OPTIMAL,
        INFEASIBLE or UNBOUNDED."""
        if np.any(self.lo > self.hi):
            return INFEASIBLE
        if self.dual_start:
            if self.dual(self._extend(c)) == "infeasible":
                return INFEASIBLE
        elif np.any(self.basis >= self.first_art):
            c1 = np.zeros(self.lo.size)
            c1[self.first_art:] = 1.0
            outcome = self.run(c1)
            p1 = float(np.sum(np.abs(self.xb[self.basis >= self.first_art])))
            infeas_tol = FEAS_TOL * max(1.0, float(np.max(np.abs(self.b), initial=1.0)))
            if outcome != "optimal" or p1 > infeas_tol:
                return INFEASIBLE
            # Freeze artificials at zero for phase 2.
            self.lo[self.first_art:] = 0.0
            self.hi[self.first_art:] = 0.0
            art = self.vstat[self.first_art:]
            art[art != _BASIC] = _FIXED
            self.nb_val[self.first_art:] = 0.0
        return UNBOUNDED if self.run(self._extend(c)) == "unbounded" else OPTIMAL

    def resolve(self, dual_cost, c):
        """Warm solve from the current basis.  After an rhs change the dual
        simplex first restores primal feasibility under ``dual_cost``, for
        which the basis must be dual feasible; the primal simplex then
        minimises c.  Returns OPTIMAL, INFEASIBLE or UNBOUNDED."""
        if self._rhs_moved:
            if self.dual(self._extend(dual_cost)) == "infeasible":
                return INFEASIBLE
            self._rhs_moved = False
        return UNBOUNDED if self.run(self._extend(c)) == "unbounded" else OPTIMAL

    def set_rhs(self, h):
        """Move the inequality rhs to ``h``.  Row i's slack column of T is
        B^-1 e_i, so the basic values follow without a solve; they may
        leave their bounds, which the next ``resolve`` repairs."""
        n = self.n_struct
        for i in np.flatnonzero(self.b[:self.n_ineq] != h):
            self.xb += self.T[:, n + i] * (h[i] - self.b[i])
            self.b[i] = h[i]
            self._fresh = False
        self._rhs_moved = True

    def dual_step(self, d):
        """One bounded dual simplex iteration on reduced costs d, which
        must be dual feasible.  Returns 'optimal' once every basic value
        is within its bounds, 'infeasible' when the leaving row proves
        that no point is, else 'moved'."""
        basic = self.basis
        lo, hi = self.lo[basic], self.hi[basic]
        below = lo - self.xb
        viol = np.maximum(below, self.xb - hi)
        # Leaving row: the largest bound violation (the lowest basic index
        # under Bland's rule).  A basic artificial has bounds [0, 0].
        cand = (viol > FEAS_TOL).nonzero()[0]
        if not cand.size:
            return "optimal"
        r = int(cand[np.argmin(basic[cand])] if self.bland else viol.argmax())
        rise = below[r] > 0.0
        # The leaving variable moves by -alpha_j dx_j when x_j moves by dx_j;
        # a column at its lower bound can only rise, one at its upper bound
        # only fall, a free one either way.  With the pricing sign (+1 at
        # the lower bound, -1 at the upper, 0 otherwise), column j helps
        # when sign_j * alpha_j < 0 for a rising leaving variable and > 0
        # for a falling one; a free column, when alpha_j is not 0.
        alpha = self.T[r]
        st = self.vstat[:self.first_art]
        sign = _PRICE_SIGN[st]
        along = sign * alpha
        helps = along < -PIVOT_TOL if rise else along > PIVOT_TOL
        has_free = self.free_cols.size > 0
        if has_free:
            free = self.free_cols[st[self.free_cols] == _NB_FREE]
            helps[free] = np.abs(alpha[free]) > PIVOT_TOL
        cols = helps.nonzero()[0]
        if not cols.size:
            return "infeasible"
        # Dual ratio test: how far each candidate's reduced cost is from
        # changing sign (sign_j d_j, or |d_j| when free), per unit of the
        # leaving row's dual step.
        dj = d[cols]
        slack = sign[cols] * dj
        if has_free:
            at = st[cols] == _NB_FREE
            slack[at] = np.abs(dj[at])
        np.maximum(slack, 0.0, out=slack)
        a = np.abs(alpha[cols])
        ratio = slack / a
        if self.bland:
            k = int((ratio <= ratio.min() + 1e-12).nonzero()[0][0])
        else:
            # Harris's two passes: among the ratios within the tolerance
            # of the smallest bound, take the largest pivot.
            ok = (ratio <= ((slack + FEAS_TOL) / a).min()).nonzero()[0]
            k = int(ok[np.argmax(a[ok])])
        q = int(cols[k])
        # The leaving variable rests at the bound it violated.
        target = lo[r] if rise else hi[r]
        self._swap(r, q, self.T[:, q].copy(), (self.xb[r] - target) / alpha[q],
                   rise, d, ratio[k] * viol[r])
        return "moved"

    def dual(self, c):
        """Dual simplex under cost c, for which the basis must be dual
        feasible: 'optimal' once the basic values are within bounds, or
        'infeasible'."""
        self._stall = 0
        self.bland = False
        d = self.reduced_costs(c)
        while True:
            self._check_cap()
            outcome = self.dual_step(d)
            if outcome != "moved":
                return outcome

    def full_values(self):
        v = self.nb_val.copy()
        v[self.basis] = self.xb
        return v

    def refresh_basics(self):
        """Recompute basic values exactly from the original system, clearing
        any drift the rank-one tableau updates accumulated.  Nothing to do
        when nothing moved since the last refresh.

        Every basic slack or artificial is a unit column +-e_u, so only the
        structural block ``A`` needs a factor: the rows W that no basic
        unit column covers give the square system A[W, S] x_S = r[W] for
        the basic structural columns S, and each unit row u then reads off
        x_u = sign_u (r_u - A[u, S] x_S).  The rhs r is b less the
        structural and slack columns at their nonbasic values."""
        if self._fresh:
            return
        n, basis = self.n_struct, self.basis
        v = self.nb_val[:self.first_art].copy()
        v[basis[basis < self.first_art]] = 0.0
        rhs = self.b - self.A @ v[:n]
        rhs[:self.n_ineq] -= v[n:]
        s = basis < n
        k = basis[~s] - n
        u, sign = self.unit_rows[k], self.unit_sign[k]
        w = np.ones(self.m, dtype=bool)
        w[u] = False
        A_s = self.A[:, basis[s]]
        try:
            # A[W, S] is not even square when two unit columns cover a row.
            x_s = np.linalg.solve(A_s[w], rhs[w])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"basis matrix became singular: {exc}") from None
        self.xb = np.empty(self.m)
        self.xb[s] = x_s
        self.xb[~s] = sign * (rhs[u] - (A_s @ x_s)[u])
        self._fresh = True


class SimplexBackend:
    """Bundled dense simplex.  Stateless; safe to share."""

    def start_session(self, problem: LpProblem,
                      warm: "SimplexSession | None" = None) -> "SimplexSession":
        """Resumable re-solves of one constraint system under changing
        objectives (phase 1 runs at most once).  With ``warm``, a session
        of a system that differs from ``problem`` at most in the inequality
        rhs, the new session takes over its tableau and restarts from its
        basis instead of solving cold; ``warm`` keeps no tableau after."""
        return SimplexSession(problem, warm)


def _same_array(a, b) -> bool:
    return a is b or np.array_equal(a, b)


class SimplexSession:
    """Solves of one constraint system under changing objectives: the
    first solve is cold (or restarts from a handed-over tableau), later
    ones re-solve warm from the last basis.

    A re-solve that makes no pivot or bound flip returns the point the
    solve before it refreshed and audited, bit for bit, without doing
    either again; ``repeated`` says whether the last solve did.
    """

    def __init__(self, problem: LpProblem, warm: "SimplexSession | None" = None):
        self._problem = problem
        self._tab = None
        # The objective under which the tableau's basis is dual feasible,
        # or None when the session has no optimal basis to hand over.
        self._cost = None
        self._infeasible = False
        self._retired = 0  # pivots of tableaux dropped by a cold retry
        # The audited point of the last solve, while the tableau's basic
        # values are still the ones refresh_basics computed for it.
        self._x = None
        self.repeated = False
        if warm is not None and warm._cost is not None and all(
                _same_array(getattr(warm._problem, k), getattr(problem, k))
                for k in ("G", "A_eq", "b_eq", "lower", "upper")):
            self._tab, self._cost = warm._tab, warm._cost
            warm._tab = warm._cost = None
            self._tab.set_rhs(problem.h)
            self._tab.iterations = 0

    def solve(self, c: np.ndarray | None = None) -> LpSolution:
        """Re-solve under objective ``c`` (default: the session LP's own).

        A warm re-solve that fails numerically is retried once cold, from
        a fresh tableau: the rank-one updates accumulated over earlier
        re-solves (or the tableau's earlier sessions) can drift past the
        feasibility audit.  A failed cold primal solve is retried from the
        dual start.  ``iterations`` counts pivots across such retries.
        """
        own = self._problem.c
        if c is None:
            c = own
        else:
            c = np.array(c, dtype=float)
            if c.shape != own.shape:
                raise ModelError("session objective has the wrong length")
            if not np.all(np.isfinite(c)):
                raise ModelError("c: entries must be finite")
        return self._solve(c)

    def _solve(self, c, one_shot=False, dual_start=False):
        self.repeated = False
        if self._infeasible:
            return LpSolution(INFEASIBLE)
        if self._tab is not None:
            try:
                return self._finish(c, self._tab.resolve(self._cost, c), one_shot)
            except NumericError:
                self._retire()
        if not dual_start:
            self._tab = _Tableau(self._problem)
            try:
                return self._finish(c, self._tab.cold(c), one_shot)
            except NumericError:
                self._retire()
        self._tab = _Tableau(self._problem, c)
        return self._finish(c, self._tab.cold(c), one_shot)

    def _retire(self):
        """Drop a tableau whose solve failed numerically; count its pivots."""
        self._retired += self._tab.iterations
        self._tab = self._cost = self._x = None

    def _finish(self, c, status, one_shot):
        """The solution of a finished run, audited against the LP's rows."""
        tab, p = self._tab, self._problem
        iterations = tab.iterations + self._retired
        if status != OPTIMAL:
            # After an infeasible restart the basis stays dual feasible,
            # so a later session can still restart from it.
            self._infeasible = status == INFEASIBLE
            if status == UNBOUNDED:
                self._cost = None
            self._x = None
            return LpSolution(status, iterations=iterations)
        self._cost = c
        self.repeated = tab._fresh and self._x is not None
        if not self.repeated:
            self._x = None
            if one_shot:
                tab.T = None  # no more pivots; free it before refresh_basics
            tab.refresh_basics()
            x = tab.full_values()[:p.n_vars]
            res = residuals(p, x)
            if max(res.values()) > REPORT_TOL:
                raise NumericError(f"solution failed the feasibility audit: {res}")
            self._x = np.clip(x, p.lower, p.upper)
        x = self._x
        return LpSolution(OPTIMAL, x=x.copy(), objective=float(c @ x),
                          iterations=iterations)


def solve_lp(problem: LpProblem, dual_start: bool = True) -> LpSolution:
    """Solve an LP with the bundled simplex, as a one-shot session, from
    the dual start when it can; ``dual_start=False`` keeps the primal
    crash and phase 1, as a session's cold solve does.  Where the optimum
    is not unique the two can end on different vertices."""
    return SimplexSession(problem)._solve(problem.c, one_shot=True,
                                          dual_start=dual_start)
