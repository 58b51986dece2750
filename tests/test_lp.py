"""LP core: trivial cases, invariants, and a scipy cross-check."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from jccopt import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, ModelError,
                    NumericError, SimplexBackend, solve_lp)
from jccopt import algorithms, lp
from jccopt.cases import three_bus_case
from jccopt.dispatch import build_ccp
from jccopt.lp import _Tableau, residuals
from jccopt.model import problem_from_dict, problem_to_dict
from jccopt.toys import interval_toy


def test_box_only_minimum():
    sol = solve_lp(LpProblem(c=[1.0], lower=[3.0], upper=[7.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_box_as_rows_minimum():
    sol = solve_lp(LpProblem(c=[1.0], G=[[-1.0], [1.0]], h=[-3.0, 7.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_empty_box_is_infeasible():
    sol = solve_lp(LpProblem(c=[1.0], lower=[5.0], upper=[2.0]))
    assert sol.status == INFEASIBLE


def test_unbounded_below():
    assert solve_lp(LpProblem(c=[-1.0], lower=[0.0])).status == UNBOUNDED
    assert solve_lp(LpProblem(c=[-1.0], G=[[-1.0]], h=[0.0])).status == UNBOUNDED


def test_contradictory_rows_infeasible():
    sol = solve_lp(LpProblem(c=[1.0], G=[[1.0], [-1.0]], h=[1.0, -2.0]))
    assert sol.status == INFEASIBLE


def test_equality_with_negative_lower_bounds():
    sol = solve_lp(LpProblem(c=[1.0, 1.0], G=[[-1.0, -1.0]], h=[5.0],
                             lower=[-3.0, -4.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)


def test_dimension_mismatch_raises_model_error():
    with pytest.raises(ModelError):
        LpProblem(c=[1.0, 2.0], G=[[1.0]], h=[1.0])
    with pytest.raises(ModelError):
        LpProblem(c=[1.0], lower=[0.0, 0.0])
    with pytest.raises(ModelError):
        LpProblem(c=[np.nan])


def test_bounds_infinite_on_the_wrong_side_raise_model_error():
    inf = np.inf
    with pytest.raises(ModelError, match="lower bound"):
        LpProblem([1.0, 1.0], G=[[1.0, 1.0]], h=[5.0],
                  lower=[inf, 0.0], upper=[inf, 1.0])
    with pytest.raises(ModelError, match="upper bound"):
        LpProblem([1.0], upper=[-inf])
    # json reads the Infinity literal, so a problem file is checked at load
    d = problem_to_dict(interval_toy(0.4))
    d["polytope"]["bounds"] = [{"lower": "INF"}]
    with pytest.raises(ModelError, match="lower bound"):
        problem_from_dict(json.loads(json.dumps(d).replace('"INF"', "Infinity")))


def test_iteration_cap_raises_numeric_error(monkeypatch):
    import jccopt.lp as lpmod
    monkeypatch.setattr(lpmod, "ITER_FACTOR", 0)
    rng = np.random.default_rng(0)
    p = LpProblem(rng.normal(size=6), G=rng.normal(size=(8, 6)),
                  h=np.full(8, 5.0), lower=np.zeros(6))
    with pytest.raises(NumericError):
        solve_lp(p)


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    p = LpProblem(rng.normal(size=10), G=rng.normal(size=(25, 10)),
                  h=rng.normal(size=25) + 3.0,
                  lower=np.full(10, -4.0), upper=np.full(10, 4.0))
    a = solve_lp(p)
    b = solve_lp(p)
    assert a.status == b.status == OPTIMAL
    assert a.objective == b.objective  # exact equality, not approx
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


@given(lam=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=40, deadline=None)
def test_objective_scaling_invariance(lam):
    rng = np.random.default_rng(11)
    c = rng.normal(size=5)
    p1 = LpProblem(c, G=rng.normal(size=(8, 5)), h=rng.normal(size=8) + 4.0,
                   lower=np.full(5, -3.0), upper=np.full(5, 3.0))
    p2 = LpProblem(lam * c, p1.G, p1.h, lower=p1.lower, upper=p1.upper)
    s1, s2 = solve_lp(p1), solve_lp(p2)
    assert s1.status == s2.status == OPTIMAL
    assert np.allclose(s1.x, s2.x, atol=1e-7)
    assert s2.objective == pytest.approx(lam * s1.objective, rel=1e-7, abs=1e-9)


def _random_problem(rng):
    n = int(rng.integers(1, 8))
    mi = int(rng.integers(0, 10))
    me = int(rng.integers(0, min(n, 3) + 1))
    c = rng.normal(size=n)
    G = rng.normal(size=(mi, n)) if mi else None
    h = rng.normal(size=mi) * 2 + 1 if mi else None
    A = rng.normal(size=(me, n)) if me else None
    b = rng.normal(size=me) if me else None
    lo = np.where(rng.random(n) < 0.8, rng.uniform(-5, 0, n), -np.inf)
    hi = np.where(rng.random(n) < 0.8, rng.uniform(0.0, 5, n), np.inf)
    return LpProblem(c, G, h, A, b, lo, hi)


def _scipy_solve(p):
    bounds = list(zip(np.where(np.isfinite(p.lower), p.lower, None),
                      np.where(np.isfinite(p.upper), p.upper, None)))
    return linprog(p.c, A_ub=p.G, b_ub=p.h, A_eq=p.A_eq, b_eq=p.b_eq,
                   bounds=bounds, method="highs")


def _scipy_is_feasible(p):
    bounds = list(zip(np.where(np.isfinite(p.lower), p.lower, None),
                      np.where(np.isfinite(p.upper), p.upper, None)))
    probe = linprog(np.zeros(p.n_vars), A_ub=p.G, b_ub=p.h, A_eq=p.A_eq,
                    b_eq=p.b_eq, bounds=bounds, method="highs")
    return probe.status == 0


def test_cross_check_against_scipy():
    """200 random LPs: statuses and objectives must agree with HiGHS.

    HiGHS presolve reports some unbounded problems as infeasible;
    disagreements are adjudicated with an explicit feasibility probe.
    """
    rng = np.random.default_rng(12345)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(200):
        p = _random_problem(rng)
        mine = solve_lp(p)
        ref = _scipy_solve(p)
        ref_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(ref.status)
        seen[mine.status] += 1
        if mine.status != ref_status:
            if mine.status == UNBOUNDED and ref_status == INFEASIBLE:
                assert _scipy_is_feasible(p), "claimed unbounded on an infeasible LP"
                continue
            pytest.fail(f"status disagreement: {mine.status} vs {ref_status}")
        if mine.status == OPTIMAL:
            scale = max(1.0, abs(ref.fun))
            assert abs(mine.objective - ref.fun) <= 1e-7 * scale
            res = residuals(p, mine.x)
            assert res["ineq"] <= 1e-7 and res["eq"] <= 1e-7
            assert res["bounds"] <= 1e-9
    # the generator must actually exercise all three outcomes
    assert all(v > 0 for v in seen.values())


def test_degenerate_lp_terminates():
    # Many redundant rows through the same vertex: a degenerate optimum that
    # the largest-coefficient rule reaches in a few pivots, without ever
    # stalling (test_cycling_lp_switches_to_blands_rule covers the switch).
    n = 5
    G = np.vstack([np.eye(n), np.eye(n) * 2.0, np.eye(n) * 3.0, -np.eye(n)])
    h = np.concatenate([np.ones(n), 2 * np.ones(n), 3 * np.ones(n), np.zeros(n)])
    p = LpProblem(-np.ones(n), G, h)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-n, abs=1e-8)


def test_price_signs_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        lp._PRICE_SIGN[lp._NB_LO] = -1.0
    assert lp._PRICE_SIGN.tolist() == [0.0, 1.0, -1.0, 0.0, 0.0]


def _cycling_lp():
    """Marshall and Suurballe's LP: from the all-slack basis the
    largest-coefficient rule pivots through degenerate bases forever."""
    return LpProblem(-np.array([10.0, -57.0, -9.0, -24.0]),
                     G=[[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0],
                        [1.0, 0.0, 0.0, 0.0]],
                     h=[0.0, 0.0, 1.0], lower=np.zeros(4))


def _bland_reads(rule: bool):
    """A _Tableau whose ``bland`` always reads ``rule``: the stall switch
    and the reset at the start of each run leave it unchanged."""
    class Tableau(lp._Tableau):
        bland = property(lambda self: rule, lambda self, value: None)
    return Tableau


def test_cycling_lp_switches_to_blands_rule(monkeypatch):
    """Without the switch the run cycles into the iteration cap.  With it,
    Bland's rule takes over once 2(m+10) pivots in a row gained nothing,
    and the run ends at HiGHS's optimum."""
    p = _cycling_lp()
    status, objective = _highs(p)
    assert status == OPTIMAL
    switched = []
    real_moved = lp._Tableau._moved

    def moved(self, gain):
        real_moved(self, gain)
        switched.append(self.bland)

    monkeypatch.setattr(lp._Tableau, "_moved", moved)
    _agree(solve_lp(p), status, objective)
    assert switched.index(True) == 2 * (p.n_ineq + 10)
    assert all(switched[switched.index(True):])

    monkeypatch.setattr(lp, "_Tableau", _bland_reads(False))
    with pytest.raises(NumericError, match="iteration cap"):
        solve_lp(p)


def test_blands_rule_matches_highs(monkeypatch):
    """Every pivot under Bland's rule: cold solves of random LPs and level
    restarts through the dual simplex agree with HiGHS.  Each Bland branch
    runs: the primal entering column and ratio tie, and the dual leaving
    row and ratio."""
    tableau = _bland_reads(True)
    monkeypatch.setattr(lp, "_Tableau", tableau)
    ran = {"_entering": 0, "_ratio": 0, "dual_step": 0}

    def count(name, hit):
        real = getattr(tableau, name)

        def wrapped(self, *args):
            out = real(self, *args)
            ran[name] += bool(hit(out))
            return out
        monkeypatch.setattr(tableau, name, wrapped)

    count("_entering", lambda out: out[0] >= 0)
    count("_ratio", lambda out: out[1] >= 0)   # a row blocks: the tie-break ran
    count("dual_step", lambda out: out == "moved")

    rng = np.random.default_rng(2024)
    for _ in range(60):
        p = _random_problem(rng)
        status, objective = _highs(p)
        sol = solve_lp(p)
        if sol.status == UNBOUNDED and status == INFEASIBLE:
            # HiGHS presolve reports some unbounded LPs as infeasible
            assert _scipy_is_feasible(p)
            continue
        _agree(sol, status, objective)
    for seed in range(4):
        base = _restart_problem(np.random.default_rng(seed))
        backend = SimplexBackend()
        sess = backend.start_session(base)
        _agree(sess.solve(), *_highs(base))
        for f in (2.0, 6.0, -1.0, 3.0):
            h = base.h.copy()
            h[0] = f
            p = LpProblem(base.c, base.G, h, base.A_eq, base.b_eq,
                          base.lower, base.upper)
            sess = backend.start_session(p, warm=sess)
            _agree(sess.solve(), *_highs(p))
    assert min(ran.values()) > 0, ran


def test_session_matches_cold_solves():
    rng = np.random.default_rng(3)
    p = LpProblem(rng.normal(size=6), G=rng.normal(size=(12, 6)),
                  h=rng.normal(size=12) + 5.0,
                  lower=np.full(6, -2.0), upper=np.full(6, 2.0))
    sess = SimplexBackend().start_session(p)
    for k in range(4):
        c2 = np.asarray(rng.normal(size=6))
        warm = sess.solve(c2)
        cold = solve_lp(LpProblem(c2, p.G, p.h, lower=p.lower, upper=p.upper))
        assert warm.status == cold.status == OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)


def test_session_caches_infeasibility():
    p = LpProblem(c=[1.0], G=[[1.0], [-1.0]], h=[1.0, -2.0])
    sess = SimplexBackend().start_session(p)
    assert sess.solve().status == INFEASIBLE
    assert sess.solve(np.array([-5.0])).status == INFEASIBLE


def test_session_retries_a_failed_warm_solve_cold(monkeypatch):
    import jccopt.lp as lpmod
    rng = np.random.default_rng(3)
    p = LpProblem(rng.normal(size=6), G=rng.normal(size=(12, 6)),
                  h=rng.normal(size=12) + 5.0,
                  lower=np.full(6, -2.0), upper=np.full(6, 2.0))
    c2 = rng.normal(size=6)

    def fail(cost):
        raise NumericError("forced warm failure")

    sess = SimplexBackend().start_session(p)
    first = sess.solve()
    assert first.status == OPTIMAL
    monkeypatch.setattr(sess._tab, "run", fail)
    warm = sess.solve(c2)
    cold = solve_lp(LpProblem(c2, p.G, p.h, lower=p.lower, upper=p.upper))
    assert warm.status == cold.status == OPTIMAL
    assert warm.objective == cold.objective
    assert np.array_equal(warm.x, cold.x)
    # The session's pivot count stays cumulative across the retry.
    assert warm.iterations > first.iterations
    assert warm.iterations == first.iterations + cold.iterations

    # Only one retry: an error from the cold solve propagates.
    monkeypatch.setattr(sess._tab, "run", fail)
    monkeypatch.setattr(lpmod, "ITER_FACTOR", 0)
    with pytest.raises(NumericError, match="iteration cap"):
        sess.solve(p.c)


def _dense_pivot(T, r, q):
    """The full rank-one pivot update, kept as the block update's reference."""
    T = T.copy()
    T[r] /= T[r, q]
    col = T[:, q].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r][None, :]
    T[:, q] = 0.0
    T[r, q] = 1.0
    return T


@pytest.mark.parametrize("case", ["random", "lone_column", "lone_row", "lone_both"])
def test_block_pivot_equals_dense_update(case):
    rng = np.random.default_rng(7)
    m, n = 9, 5
    for _ in range(50):
        tab = _Tableau(LpProblem(np.zeros(n), G=np.zeros((m, n)), h=np.ones(m)))
        dens = rng.uniform(0.05, 0.6)
        T = np.where(rng.random(tab.T.shape) < dens, rng.normal(size=tab.T.shape), 0.0)
        T[rng.random(T.shape) < 0.05] = -0.0
        r, q = int(rng.integers(m)), int(rng.integers(T.shape[1]))
        T[r, q] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        if case in ("lone_column", "lone_both"):
            T[np.arange(m) != r, q] = 0.0
        if case in ("lone_row", "lone_both"):
            T[r, np.arange(T.shape[1]) != q] = 0.0
        want = _dense_pivot(T, r, q)
        tab.T = T.copy()
        tab._pivot(r, q, 0.0)
        assert np.array_equal(tab.T, want)  # == treats -0.0 and 0.0 as equal



def _slacks(tab):
    """The slack columns written out: +e_i for each inequality row i."""
    mi = tab.n_ineq
    slacks = np.zeros((tab.m, mi))
    slacks[np.arange(mi), np.arange(mi)] = 1.0
    return slacks


def _crash_by_rows(tab):
    """The crash basis built row by row, with its slack and artificial
    columns stored: the reference for the vectorised ``_Tableau._crash``.
    Returns (basis, A, T, xb) with A and T over every column, artificials
    included."""
    cols, m, n = tab.first_art, tab.m, tab.n_struct
    S = _slacks(tab)
    resid = tab.b - tab.A @ tab.nb_val[:n] - S @ tab.nb_val[n:cols]
    basis = np.full(m, -1)
    art_rows = []
    for i in range(m):
        if i < tab.n_ineq and resid[i] >= 0.0:
            basis[i] = tab.n_struct + i
        else:
            art_rows.append(i)
    art = np.zeros((m, len(art_rows)))
    for k, i in enumerate(art_rows):
        art[i, k] = 1.0 if resid[i] >= 0.0 else -1.0
        basis[i] = cols + k
    A = np.hstack([tab.A, S, art])
    T = A.copy()
    for k, i in enumerate(art_rows):
        if A[i, cols + k] < 0:
            T[i] *= -1.0
    xb = np.abs(resid)
    for i in range(m):
        if basis[i] < cols:
            xb[i] = resid[i]
    return basis, A, T, xb


def test_crash_equals_the_row_loop():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = _random_problem(rng)
        # Residuals of exactly +0.0 and -0.0: every column starts at 0 and
        # some rhs entries are signed zeros.
        if rng.random() < 0.5:
            p.lower[:] = 0.0
        for rhs in (p.h, p.b_eq):
            if rhs is not None:
                pick = rng.random(rhs.size) < 0.4
                rhs[pick] = rng.choice([0.0, -0.0], size=int(pick.sum()))
        if p.G is not None:
            p.G[rng.random(p.G.shape) < 0.3] = -0.0
        tab = _Tableau(p)
        basis, A, T, xb = _crash_by_rows(tab)
        cols = tab.first_art
        assert np.array_equal(tab.basis, basis)
        # A is the structural block, the G rows then the A_eq rows ...
        assert tab.A.shape == (tab.m, tab.n_struct)
        blocks = [M for M in (p.G, p.A_eq) if M is not None]
        assert tab.A.tobytes() == np.vstack(
            [np.zeros((0, tab.n_struct)), *blocks]).tobytes()
        # ... T stores only the columns before the artificials ...
        assert tab.T.shape[1] == cols
        assert tab.T.tobytes() == T[:, :cols].tobytes()  # signs of zeros included
        # ... and knows each slack and artificial column by its row and sign.
        mi = tab.n_ineq
        k, rows = np.nonzero(A[:, cols:].T)  # one entry per artificial
        assert np.array_equal(k, np.arange(tab.unit_rows.size - mi))
        assert np.array_equal(tab.unit_rows, np.concatenate([np.arange(mi), rows]))
        assert tab.unit_sign.tobytes() == np.concatenate(
            [np.ones(mi), A[rows, cols + k]]).tobytes()
        assert tab.xb.tobytes() == xb.tobytes()

# The CVaR LP of the bundled three-bus case: the pivot count and objective of
# the dense-update simplex.  The block update must reproduce both.
@pytest.mark.parametrize("rho, iterations, objective", [
    (0.0, 171, 92.62545841376078),
    (0.01, 237, 92.96545841376079),
])
def test_three_bus_cvar_lp_is_pinned(monkeypatch, rho, iterations, objective):
    seen = []

    def grab(problem):
        sol = solve_lp(problem)
        seen.append((problem, sol))
        return sol

    monkeypatch.setattr(lp, "solve_lp", grab)
    algorithms.solve_cvar(build_ccp(three_bus_case(), rho_override=rho).problem)
    [(problem, sol)] = seen
    assert sol.status == OPTIMAL
    assert sol.iterations == iterations
    # The last bits come from the LAPACK solve of the structural block in
    # refresh_basics.
    assert sol.objective == pytest.approx(objective, rel=1e-12, abs=0.0)
    ref = _scipy_solve(problem)
    assert ref.status == 0
    assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))



# -- level restarts: a new session adopts the previous one's tableau ------------

def _restart_problem(rng):
    """Equality rows (one of them redundant, so phase 1 leaves its
    artificial basic at 0), boxed, one-sided and free columns, and box rows
    that keep the free columns bounded.  Row 0 is the row whose rhs moves."""
    n = 7
    lo = np.array([0.0, -2.0, -np.inf, 0.0, -1.0, -np.inf, 0.0])
    hi = np.array([3.0, 2.0, np.inf, np.inf, 1.0, np.inf, 4.0])
    free = np.flatnonzero(~np.isfinite(lo) & ~np.isfinite(hi))
    G = np.vstack([rng.uniform(0.5, 1.5, size=n),
                   rng.normal(size=(5, n)),
                   np.eye(n)[free], -np.eye(n)[free]])
    h = np.concatenate([[4.0], rng.uniform(1.0, 3.0, 5), np.full(2 * free.size, 5.0)])
    E = rng.normal(size=(2, n))
    x0 = np.clip(rng.normal(size=n) * 0.2, lo, hi)  # keeps the rows consistent
    A_eq = np.vstack([E, E[0] + E[1]])
    return LpProblem(rng.normal(size=n), G, h, A_eq, A_eq @ x0, lo, hi)


def _highs(p, c=None):
    ref = _scipy_solve(LpProblem(p.c if c is None else c, p.G, p.h, p.A_eq,
                                 p.b_eq, p.lower, p.upper))
    return {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status], ref.fun


def _agree(sol, status, objective):
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)



@pytest.mark.parametrize("lo, hi", [(-1.0, 2.0), (-1.0, np.inf), (-np.inf, 2.0),
                                    (-np.inf, np.inf)],
                         ids=["boxed", "lower_only", "upper_only", "free"])
def test_rowless_lp_matches_highs(lo, hi):
    """Without rows the ratio test sees only the column's own span: a
    bound flip, or unbounded.  One-shot solves and a session's warm
    re-solves (also after an unbounded one) agree with HiGHS."""
    p = LpProblem([0.0, -0.5], lower=[lo, 0.0], upper=[hi, 3.0])
    sess = SimplexBackend().start_session(p)
    for cj in (1.5, -1.5, 0.0):
        c = np.array([cj, -0.5])
        status, objective = _highs(p, c)
        for sol in (solve_lp(LpProblem(c, lower=p.lower, upper=p.upper)),
                    sess.solve(c)):
            _agree(sol, status, objective)
            if status == OPTIMAL:
                assert np.all(p.lower <= sol.x) and np.all(sol.x <= p.upper)
                assert sol.objective == float(c @ sol.x)

@pytest.mark.parametrize("seed", range(8))
def test_level_restart_matches_cold_and_highs(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    base = _restart_problem(rng)
    assert _scipy_solve(base).status == 0
    # The smallest row-0 value the other rows allow: below it the LP is
    # infeasible.
    rest = LpProblem(base.G[0], base.G[1:], base.h[1:], base.A_eq, base.b_eq,
                     base.lower, base.upper)
    floor = _scipy_solve(rest).fun
    c2 = rng.normal(size=base.n_vars)
    backend = SimplexBackend()
    sess = backend.start_session(base)
    cold_starts = []
    real = lp._Tableau
    monkeypatch.setattr(lp, "_Tableau", lambda q: cold_starts.append(q) or real(q))
    first = sess.solve()
    assert first.status == OPTIMAL
    tab = sess._tab
    assert np.any(tab.basis >= tab.first_art)  # a basic artificial at 0
    levels = [floor + 1.0, floor + 0.2, floor - 0.5, floor + 0.1, floor + 3.0]
    references = 0  # cold one-shot solves, one tableau each
    for f in levels:
        h = base.h.copy()
        h[0] = f
        p = LpProblem(base.c, base.G, h, base.A_eq, base.b_eq,
                      base.lower, base.upper)
        tab = sess._tab
        sess = backend.start_session(p, warm=sess)
        assert sess._tab is tab and tab is not None  # adopted, not copied
        for c in (None, c2):
            warm = sess.solve(c)
            cold = solve_lp(LpProblem(p.c if c is None else c, p.G, p.h,
                                      p.A_eq, p.b_eq, p.lower, p.upper))
            references += 1
            status, objective = _highs(p, c)
            assert status == (INFEASIBLE if f < floor else OPTIMAL)
            _agree(warm, status, objective)
            _agree(cold, status, objective)
            if status == OPTIMAL:
                assert max(residuals(p, warm.x).values()) <= 1e-9
    # Only the first level started cold; the dual simplex found the
    # infeasible level and came back from it.
    assert len(cold_starts) == 1 + references and cold_starts[0] is base


def test_restart_needs_the_same_system():
    rng = np.random.default_rng(0)
    p = _restart_problem(rng)
    backend = SimplexBackend()
    changed = [
        LpProblem(p.c, p.G * 2.0, p.h, p.A_eq, p.b_eq, p.lower, p.upper),
        LpProblem(p.c, p.G, p.h, p.A_eq, p.b_eq + 1.0, p.lower, p.upper),
        LpProblem(p.c, p.G, p.h, p.A_eq, p.b_eq, p.lower - 1.0, p.upper),
    ]
    for q in changed:
        sess = backend.start_session(p)
        assert sess.solve().status == OPTIMAL
        tab = sess._tab
        nxt = backend.start_session(q, warm=sess)
        assert nxt._tab is None and sess._tab is tab
    # A session with no optimal basis has nothing to hand over.
    bad = LpProblem(c=[1.0], G=[[1.0], [-1.0]], h=[1.0, -2.0])
    sess = backend.start_session(bad)
    assert sess.solve().status == INFEASIBLE
    assert backend.start_session(bad, warm=sess)._tab is None


def test_failed_dual_restart_solves_the_level_cold_once(monkeypatch):
    rng = np.random.default_rng(1)
    base = _restart_problem(rng)
    backend = SimplexBackend()
    sess = backend.start_session(base)
    assert sess.solve().status == OPTIMAL
    h = base.h.copy()
    h[0] -= 0.5
    p = LpProblem(base.c, base.G, h, base.A_eq, base.b_eq, base.lower, base.upper)
    sess = backend.start_session(p, warm=sess)
    tab = sess._tab

    def fail(cost):
        tab.iterations += 3  # pivots made before the failure
        raise NumericError("forced dual failure")

    monkeypatch.setattr(tab, "dual", fail)
    cold_calls = []
    real = lp._Tableau

    def counted(problem):
        cold_calls.append(problem)
        return real(problem)

    monkeypatch.setattr(lp, "_Tableau", counted)
    sol = sess.solve()
    assert len(cold_calls) == 1
    monkeypatch.setattr(lp, "_Tableau", real)
    cold = solve_lp(p)
    assert sol.status == cold.status == OPTIMAL
    assert sol.objective == cold.objective
    assert np.array_equal(sol.x, cold.x)
    # The pivots of the failed restart stay in the session's count.
    assert sol.iterations == 3 + cold.iterations
    # The level's own tableau now serves the later re-solves warm.
    assert sess._tab is not tab
    assert sess.solve(rng.normal(size=p.n_vars)).status == OPTIMAL
    assert len(cold_calls) == 1


def test_skipped_refresh_equals_the_dense_solve(monkeypatch):
    rng = np.random.default_rng(4)
    p = _restart_problem(rng)
    sess = SimplexBackend().start_session(p)
    first = sess.solve()
    tab = sess._tab
    solves = []
    real = np.linalg.solve

    def counted(B, rhs):
        solves.append(1)
        return real(B, rhs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    # A re-solve that makes no pivot skips the dense solve ...
    again = sess.solve()
    assert again.iterations == first.iterations
    assert solves == []
    assert np.array_equal(again.x, first.x)
    skipped = tab.xb.copy()
    # ... and a forced one gives the same bits.
    tab._fresh = False
    tab.refresh_basics()
    assert solves == [1]
    assert tab.xb.tobytes() == skipped.tobytes()
    # Any pivot, bound flip or rhs change makes the next refresh solve.
    h = p.h.copy()
    h[0] += 0.25
    tab.set_rhs(h)
    tab.refresh_basics()
    assert solves == [1, 1]


def _dense_refresh(tab):
    """The basic values by a dense solve of the full m x m basis, with the
    artificial columns written out: the reference for the structural-block
    ``refresh_basics``."""
    rows, sign = tab.unit_rows[tab.n_ineq:], tab.unit_sign[tab.n_ineq:]
    art = np.zeros((tab.m, rows.size))
    art[rows, np.arange(rows.size)] = sign
    A = np.hstack([tab.A, _slacks(tab), art])
    v = tab.nb_val.copy()
    v[tab.basis] = 0.0
    return np.linalg.solve(A[:, tab.basis], tab.b - A @ v)


def _check_refresh(tab):
    want = _dense_refresh(tab)
    tab._fresh = False
    tab.refresh_basics()
    scale = max(1.0, np.abs(want).max(initial=0.0))
    assert np.all(np.abs(tab.xb - want) <= 1e-9 * scale)
    return np.abs(tab.xb[tab.basis >= tab.first_art]).max(initial=-1.0)


def test_refresh_equals_the_dense_solve_of_the_full_basis(monkeypatch):
    """After every basis change of cold solves, warm re-solves and level
    restarts, and at every optimum, the structural-block refresh gives the
    basic values of the full basis, artificials included."""
    art_values = []  # the largest basic artificial value at each check
    real = _Tableau._swap

    def swap(tab, *args):
        real(tab, *args)
        art_values.append(_check_refresh(tab))

    rng = np.random.default_rng(5)
    backend = SimplexBackend()
    problems = ([_random_problem(rng) for _ in range(30)]
                + [_restart_problem(rng) for _ in range(10)])
    monkeypatch.setattr(_Tableau, "_swap", swap)
    for p in problems:
        tab = _Tableau(p)
        assert tab.A.shape == (tab.m, p.n_vars)
        assert tab.T.shape[1] == p.n_vars + p.n_ineq
        art_values.append(_check_refresh(tab))  # the crash basis
        sess = backend.start_session(p)
        if sess.solve().status != OPTIMAL:
            continue
        for shift in (0.5, -0.25) if p.n_ineq else ():
            h = p.h.copy()
            h[0] += shift
            q = LpProblem(p.c, p.G, h, p.A_eq, p.b_eq, p.lower, p.upper)
            sess = backend.start_session(q, warm=sess)
            sess.solve(rng.normal(size=p.n_vars))
        if sess._tab is not None:
            art_values.append(_check_refresh(sess._tab))
    art_values = np.array(art_values)
    assert np.any(art_values > 1e-3)  # basic artificials away from 0 ...
    assert np.any((art_values >= 0.0) & (art_values <= 1e-9))  # ... and at 0


def test_refresh_of_a_singular_basis_raises():
    # Columns 0 and 1 are equal, so a basis holding both is singular.
    p = LpProblem(np.ones(2), G=[[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]],
                  h=[1.0, 2.0, 3.0], lower=[0.0, 0.0])
    tab = _Tableau(p)
    tab.basis[:] = [0, 1, 4]
    tab._fresh = False
    with pytest.raises(NumericError, match="singular"):
        tab.refresh_basics()
    # Row 0 needs an artificial; with row 0's slack also basic, two unit
    # columns cover row 0 and none covers row 1.
    p = LpProblem(np.ones(2), G=[[1.0, 1.0], [1.0, -1.0]], h=[-1.0, 2.0],
                  lower=[0.0, 0.0])
    tab = _Tableau(p)
    assert tab.basis.tolist() == [tab.first_art, 3]
    tab.basis[1] = 2
    tab._fresh = False
    with pytest.raises(NumericError, match="singular"):
        tab.refresh_basics()


def _perfbench_inputs():
    """The benchmark's seeded case generators, imported by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Phase 1 of this cold solve is clean (277 pivots).  In phase 2, pivot 436
# lands on a basis with condition number 2.6e7; by pivot 437 the true basis
# is exactly singular and the tableau pivots on an entry of 9.2e14, which
# leaves the basic values 1.47 off.  A factored basis that is refactored
# periodically removes that drift.
@pytest.mark.xfail(strict=True, raises=NumericError,
                   reason="the dense tableau drifts through a singular basis "
                   "and fails its feasibility audit (ineq residual 1.117)")
def test_cold_solve_of_a_drawn_three_bus_level_lp_matches_highs():
    inputs = _perfbench_inputs()
    p = build_ccp(inputs.three_bus_draw(201, 20, 0), rho_override=0.0).problem
    ones = [np.ones(g.n) for g in p.groups]
    level_lp = algorithms.SStepAssembler(p).lp_at(94.70310507636037, ones)
    status, objective = _highs(level_lp)
    _agree(solve_lp(level_lp), status, objective)
