"""LP core: trivial cases, invariants, and a scipy cross-check."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from jccopt import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, ModelError,
                    NumericError, SimplexBackend, dump_lp, solve_lp)
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
    # json reads the Infinity literal, so a problem file reaches the LP too
    d = problem_to_dict(interval_toy(0.4))
    d["polytope"]["bounds"] = [{"lower": "INF"}]
    p = problem_from_dict(json.loads(json.dumps(d).replace('"INF"', "Infinity")))
    assert p.polytope.lower[0] == inf
    with pytest.raises(ModelError, match="lower bound"):
        algorithms.solve(p, "cvar")


def test_iteration_cap_raises_numeric_error(monkeypatch):
    import jccopt.lp as lpmod
    monkeypatch.setattr(lpmod, "ITER_FACTOR", 0)
    rng = np.random.default_rng(0)
    p = LpProblem(rng.normal(size=6), G=rng.normal(size=(8, 6)),
                  h=np.full(8, 5.0), lower=np.zeros(6))
    with pytest.raises(NumericError):
        SimplexBackend().solve(p)


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
    # Many redundant rows through the same vertex: stresses the stall->Bland path.
    n = 5
    G = np.vstack([np.eye(n), np.eye(n) * 2.0, np.eye(n) * 3.0, -np.eye(n)])
    h = np.concatenate([np.ones(n), 2 * np.ones(n), 3 * np.ones(n), np.zeros(n)])
    p = LpProblem(-np.ones(n), G, h)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-n, abs=1e-8)


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
    # The last bits come from the LAPACK solve in refresh_basics.
    assert sol.objective == pytest.approx(objective, rel=1e-12, abs=0.0)
    ref = _scipy_solve(problem)
    assert ref.status == 0
    assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))


def test_dump_lp_lists_everything():
    p = LpProblem(c=[1.0, 0.0], G=[[1.0, 2.0]], h=[3.0],
                  A_eq=[[1.0, -1.0]], b_eq=[0.0],
                  lower=[0.0, -np.inf], upper=[np.inf, 5.0],
                  var_names=["alpha", "beta"])
    text = dump_lp(p)
    assert "minimize" in text and "alpha" in text and "beta" in text
    assert "<= 3" in text and "= 0" in text
