import itertools
import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jccopt import (METHODS, BiAffineConstraint, BisectionConfig,
                    CapacityError, CcpProblem, JccGroup, ModelError,
                    NumericError, Polytope, SampleSet, SStepAssembler,
                    init_bounds, inner_alternation, solve,
                    solve_also_x_multi, solve_cvar,
                    solve_intuitive_extension, solve_oracle, z_step)
from jccopt.algorithms import (applicable_methods, gamma_value, mean_value_lp,
                               oracle_enumeration_count)
from jccopt.cases import overlap_case, three_bus_case
from jccopt.dispatch import build_ccp, rho_sweep
from jccopt import algorithms, lp
from jccopt.model import TOL_ZERO, evaluate_group
from jccopt.toys import (INTERVAL_BOUNDS, TWO_GROUP_BOUNDS, interval_toy,
                         two_group_toy)

from helpers import (all_groups_cvar, mean_point, over_cap_problem,
                     random_instance, s_step, scipy_solve, z_step_lp)


def interval_cfg():
    return BisectionConfig(*INTERVAL_BOUNDS, delta1=1e-4)


# -- z step -------------------------------------------------------------------

def test_z_step_worked_example():
    s = np.array([5.0, 1.0, 2.0, 3.0, 4.0])
    z = z_step(s, 0.2)
    np.testing.assert_array_equal(z, [0.0, 1.0, 1.0, 1.0, 1.0])
    assert z @ s == 10.0


def test_z_step_zero_shortfalls_keep_everything():
    np.testing.assert_array_equal(z_step(np.zeros(6), 0.5), np.ones(6))


def test_z_step_of_no_scenarios_is_empty():
    assert z_step(np.zeros(0), 0.5).shape == (0,)


def test_z_step_eps_zero_keeps_everything():
    np.testing.assert_array_equal(z_step(np.array([3.0, 1.0]), 0.0), np.ones(2))


def test_z_step_fractional_slot():
    # n=3, eps=0.5: one full drop plus half a drop on the runner-up
    z = z_step(np.array([3.0, 2.0, 1.0]), 0.5)
    np.testing.assert_allclose(z, [0.0, 0.5, 1.0])
    assert np.mean(z) == pytest.approx(0.5)


def test_z_step_tie_breaks_by_index():
    z = z_step(np.array([2.0, 2.0, 2.0, 1.0]), 0.5)
    np.testing.assert_array_equal(z, [0.0, 0.0, 1.0, 1.0])


def test_z_step_matches_lp_on_200_draws():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        s = rng.exponential(1.0, size=n) * rng.integers(0, 2, size=n)
        eps = float(rng.uniform(0.0, 0.95))
        z = z_step(s, eps)
        assert np.all((0.0 <= z) & (z <= 1.0))
        assert np.mean(z) >= 1.0 - eps - 1e-12
        z_ref = z_step_lp(s, eps)
        assert z @ s <= z_ref @ s + 1e-9


# -- s step -------------------------------------------------------------------

def test_s_step_closed_form_shortfalls():
    p = interval_toy(0.4)
    x, s, status = s_step(p, [np.ones(g.n) for g in p.groups], f=8.0)
    assert status == lp.OPTIMAL
    lo, hi = p.groups[0].samples.data.T
    expected = np.maximum(np.maximum(lo - x[0], x[0] - hi), 0.0)
    np.testing.assert_allclose(s[0], expected, atol=1e-9)


def test_s_step_all_satisfiable_gives_zero():
    # one scenario, wide interval: nothing to relax
    g = JccGroup(
        constraints=[BiAffineConstraint(A=np.zeros((2, 1)), a0=[1.0, 0.0], c=[-1.0]),
                     BiAffineConstraint(A=np.zeros((2, 1)), a0=[0.0, -1.0], c=[1.0])],
        samples=SampleSet([[0.0, 10.0]]), epsilon=0.0)
    p = CcpProblem(objective=[1.0], polytope=Polytope(lower=[-100.0]), groups=[g])
    x, s, status = s_step(p, [np.ones(1)], f=100.0)
    assert status == lp.OPTIMAL
    np.testing.assert_allclose(s[0], [0.0], atol=1e-12)


def test_s_step_monotone_in_rho():
    base = random_instance(7)
    robust = CcpProblem(
        objective=base.objective, polytope=base.polytope,
        groups=[JccGroup(g.constraints, g.samples, g.epsilon, 0.1, g.norm,
                         g.label + "-rho")
                for g in base.groups])
    plain = CcpProblem(
        objective=base.objective, polytope=base.polytope,
        groups=[JccGroup(g.constraints, g.samples, g.epsilon, 0.0, g.norm,
                         g.label)
                for g in base.groups])
    f = 3.0
    z = [np.ones(g.n) for g in base.groups]
    _, s_plain, st1 = s_step(plain, z, f)
    _, s_rob, st2 = s_step(robust, z, f)
    assert st1 == st2 == lp.OPTIMAL
    for a, b in zip(s_plain, s_rob):
        assert np.all(b >= a - 1e-9)


def test_s_step_level_below_polytope_minimum_is_infeasible():
    p = random_instance(3)  # objective coefficients >= 0.5, x >= 0
    x, s, status = s_step(p, [np.ones(g.n) for g in p.groups], f=-1.0)
    assert status == lp.INFEASIBLE
    assert x is None and s is None


def test_s_step_rejects_l2_groups():
    """A norm set after the group was built fails in the LP builder
    rather than being read as another norm."""
    p = interval_toy(0.4, rho=0.1)
    p.groups[0].norm = "l2"
    with pytest.raises(ModelError, match="l2"):
        s_step(p, [np.ones(g.n) for g in p.groups], f=8.0)


# -- inner alternation ---------------------------------------------------------

def test_inner_alternation_one_shot_at_loose_level():
    res = inner_alternation(SStepAssembler(interval_toy(0.4)), 8.0)
    assert res.reason == "gamma"
    assert res.iterations == 1
    assert res.gamma == 0.0


def test_inner_alternation_tight_level_stays_positive():
    res = inner_alternation(SStepAssembler(interval_toy(0.4)), 0.5)
    assert res.reason in ("delta", "max_inner")  # x=0.5 is inside the polytope
    assert res.gamma > 0.0


def test_inner_alternation_stops_after_max_inner(monkeypatch):
    monkeypatch.setattr(algorithms, "MAX_INNER", 1)
    res = inner_alternation(SStepAssembler(two_group_toy(0)), 1.0)
    assert res.reason == "max_inner"
    assert res.iterations == 1
    assert res.gamma > algorithms.GAMMA_TOL


def test_inner_alternation_raises_when_the_shortfall_rises(monkeypatch):
    rising = itertools.count(1.0)
    monkeypatch.setattr(algorithms, "gamma_value", lambda z, s: next(rising))
    with pytest.raises(NumericError, match=r"^weighted shortfall increased "
                                           r"\(1\.0 -> 2\.0\)"):
        inner_alternation(SStepAssembler(interval_toy(0.4)), 8.0)


def test_gamma_sequences_nonincreasing():
    for seed in range(5):
        asm = SStepAssembler(two_group_toy(seed))
        for f in (2.0, 3.0, 4.0, 6.0):
            res = inner_alternation(asm, f)
            for a, b in zip(res.gammas, res.gammas[1:]):
                assert b <= a + 1e-12


def test_a_pivot_free_level_resolve_reuses_its_shortfalls(monkeypatch):
    """A re-solve at the same level that makes no pivot returns the
    session's last point, and ``level_point`` reuses that point's
    shortfalls instead of computing them again."""
    calls = []
    real = algorithms.shortfalls
    monkeypatch.setattr(algorithms, "shortfalls",
                        lambda p, x: calls.append(1) or real(p, x))
    problem = two_group_toy(0)
    asm = SStepAssembler(problem)
    z = [np.ones(g.n) for g in problem.groups]
    x, s = asm.level_point(3.0, z)
    assert not asm.session.repeated and len(calls) == 1
    x2, s2 = asm.level_point(3.0, [2.0 * zi for zi in z])
    assert asm.session.repeated and len(calls) == 1
    assert x2.tobytes() == x.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(s2, real(problem, x)))
    asm.level_point(4.0, z)  # another level: a new session
    assert not asm.session.repeated and len(calls) == 2


# -- bounds -------------------------------------------------------------------

def test_init_bounds_interval_toy():
    assert init_bounds(interval_toy(0.4))[:2] == (3.0, 6.0)


def test_init_bounds_uses_cvar_when_feasible():
    p = random_instance(11)
    f_lo, f_hi, _, _ = init_bounds(p)
    cvar = solve_cvar(p)
    assert cvar.is_feasible
    assert f_hi == pytest.approx(cvar.objective)
    assert f_lo <= f_hi


def test_init_bounds_zero_lower_guard():
    # free objective weight 0: mean LP gives 0; CVaR infeasible as in the
    # interval toy at eps=0.2 -> guard upper bound 1
    p = interval_toy(0.2)
    q = CcpProblem(objective=[0.0], polytope=p.polytope, groups=p.groups)
    assert init_bounds(q)[:2] == (0.0, 1.0)


def test_mean_value_lp_is_deterministic_counterpart():
    p = interval_toy(0.4)
    sol = lp.solve_lp(mean_value_lp(p))
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(3.0)  # mean bounds [3, 5]


# -- frozen interval-toy table --------------------------------------------------

TABLE = {0.0: None, 0.2: None, 0.4: 3.0, 0.6: 2.0, 0.8: 1.0}


@pytest.mark.parametrize("eps,expected", sorted(TABLE.items()))
def test_interval_table_multi(eps, expected):
    r = solve_also_x_multi(interval_toy(eps), interval_cfg())
    if expected is None:
        assert not r.is_feasible
        assert r.f_upper == INTERVAL_BOUNDS[1]  # never lowered
    else:
        assert r.is_feasible
        assert r.objective == pytest.approx(expected, abs=1e-4)
        assert r.per_group[0].violation_rate <= eps + 1e-12


@pytest.mark.parametrize("eps,expected", sorted(TABLE.items()))
def test_interval_table_single(eps, expected):
    """On one group, intuitive is the single-JCC ALSO-X of Table I."""
    r = solve_intuitive_extension(interval_toy(eps), interval_cfg())
    if expected is None:
        assert not r.is_feasible
    else:
        assert r.objective == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("eps,expected", sorted(TABLE.items()))
def test_interval_table_oracle(eps, expected):
    r = solve_oracle(interval_toy(eps))
    if expected is None:
        assert not r.is_feasible
    else:
        assert r.objective == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("eps", sorted(TABLE))
def test_interval_cvar_always_infeasible(eps):
    assert not solve_cvar(interval_toy(eps)).is_feasible


@pytest.mark.xfail(strict=True, reason="every level in (3, 4) stalls on the "
                   "DELTA2 test, so the default bracket (3, 6) ends at 4")
def test_interval_default_bracket_reaches_the_oracle():
    p = interval_toy(0.4)
    assert solve(p, "also-x").objective == pytest.approx(
        solve_oracle(p).objective, abs=1e-4)


# -- solver behavior ------------------------------------------------------------

NAMED_SOLVERS = {
    "also-x": solve_also_x_multi,
    "intuitive": solve_intuitive_extension,
    "cvar": solve_cvar,
    "oracle": solve_oracle,
}


# Problems small enough that every method applies to both.
@pytest.mark.parametrize("p", [interval_toy(0.4), random_instance(3)],
                         ids=["interval", "random3"])
@pytest.mark.parametrize("method", METHODS)
def test_solve_runs_the_named_solver(method, p):
    assert solve(p, method).to_dict() == NAMED_SOLVERS[method](p).to_dict()


def test_unknown_method_is_a_model_error():
    with pytest.raises(ModelError, match="unknown method 'bogus'"):
        solve(interval_toy(0.4), "bogus")
    with pytest.raises(ModelError, match="unknown method 'bogus'"):
        rho_sweep(overlap_case(), [0.0], methods=("bogus",))


def test_two_group_exact_rates_and_ordering():
    p = two_group_toy(0)
    rm = solve_also_x_multi(p, BisectionConfig(*TWO_GROUP_BOUNDS))
    ri = solve_intuitive_extension(p, BisectionConfig(*TWO_GROUP_BOUNDS))
    assert (rm.per_group[0].violation_rate, rm.per_group[1].violation_rate) \
        == (16 / 20, 4 / 20)
    d1 = BisectionConfig(*TWO_GROUP_BOUNDS).delta1
    assert rm.objective <= ri.objective + d1


def test_solver_reports_are_deterministic():
    p = two_group_toy(5)
    a = solve_also_x_multi(p, BisectionConfig(*TWO_GROUP_BOUNDS))
    b = solve_also_x_multi(p, BisectionConfig(*TWO_GROUP_BOUNDS))
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert [t.to_dict() for t in a.trace] == [t.to_dict() for t in b.trace]


def test_trace_records_bisection_path():
    r = solve_also_x_multi(interval_toy(0.4), interval_cfg())
    assert r.trace, "bisection should test at least one level"
    assert any(t.accepted for t in r.trace)
    fs = [t.f for t in r.trace]
    assert all(INTERVAL_BOUNDS[0] < f < INTERVAL_BOUNDS[1] for f in fs)
    assert r.f_upper - r.f_lower <= 1e-4 + 1e-15


@pytest.mark.parametrize("method", ["also-x", "intuitive"])
def test_levels_below_the_polytope_minimum_are_recorded_infeasible(method):
    # y1 + 2*y2 >= 0 on the toy's polytope, so the first midpoint, -1, has
    # no point at all; bisection moves up from it and still finds a level.
    problem = two_group_toy(0)
    report = solve(problem, method, BisectionConfig(-10.0, 8.0))
    first = report.trace[0]
    assert first.f == -1.0 and not first.accepted
    assert first.objective is None and first.gamma is None
    assert first.violation_rates is None and first.delta is None
    assert all(r.f > -1.0 for r in report.trace[1:])
    assert report.is_feasible
    inner = inner_alternation(SStepAssembler(problem), -1.0)
    assert inner.reason == "lp-infeasible" and inner.iterations == 0
    assert inner.x is None and inner.gamma is None


@pytest.mark.parametrize("outcome", ["raises", lp.UNBOUNDED, lp.INFEASIBLE])
def test_polish_falls_back_to_the_accepted_point(monkeypatch, outcome):
    problem = two_group_toy(0)
    asm = SStepAssembler(problem)
    accepted = np.arange(problem.n_vars, dtype=float)

    def polish_lp(p):
        if outcome == "raises":
            raise NumericError("pivot below tolerance")
        return lp.LpSolution(outcome)

    monkeypatch.setattr(lp, "solve_lp", polish_lp)
    masks = [np.ones(g.n, dtype=bool) for g in problem.groups]
    assert algorithms._polish(asm, masks, accepted) is accepted


def test_unbounded_lps_raise_numeric_errors_naming_the_lp():
    # x1 sits in no row and lowers the cost without end.
    g = JccGroup(constraints=[BiAffineConstraint(A=np.zeros((1, 2)), a0=[1.0],
                                                 c=[-1.0, 0.0])],
                 samples=SampleSet([[0.5], [1.0]]), epsilon=0.5)
    p = CcpProblem(objective=[1.0, -1.0], polytope=Polytope(lower=[0.0, 0.0]),
                   groups=[g])
    for solver, what in ((solve_cvar, "CVaR LP"),
                         (solve_oracle, "oracle subproblem")):
        with pytest.raises(NumericError, match=f"^{what} unbounded"):
            solver(p)


def test_oracle_counts_the_selections_within_the_risk_budget():
    # eps 0.4 of 5 scenarios: keep-sets that drop exactly 2, C(5, 2)
    assert oracle_enumeration_count(interval_toy(0.4)) == 10
    # 0.2 * 20 drops 4 of the tight group, 0.8 * 20 drops 16 of the loose
    assert oracle_enumeration_count(two_group_toy(0)) == comb(20, 16) * comb(20, 4)


@pytest.mark.parametrize("method", ["also-x", "intuitive"])
def test_levels_restart_from_the_previous_basis(monkeypatch, method):
    """Each level after the first adopts the previous level's tableau, and
    no session is alive while the polish LP solves."""
    made, warm_ids, alive_at_polish = [], [], []
    real_start = lp.SimplexBackend.start_session
    real_solve = lp.solve_lp

    def start(backend, problem, warm=None):
        warm_ids.append(None if warm is None else id(warm))
        session = real_start(backend, problem, warm=warm)
        made.append((id(session), weakref.ref(session)))
        return session

    def solve_lp(problem):
        alive_at_polish.append(sum(ref() is not None for _, ref in made))
        return real_solve(problem)

    monkeypatch.setattr(lp.SimplexBackend, "start_session", start)
    monkeypatch.setattr(lp, "solve_lp", solve_lp)
    # An explicit bracket: the only cold LP left is the polish.
    report = solve(two_group_toy(0), method, BisectionConfig(*TWO_GROUP_BOUNDS))
    assert report.is_feasible
    assert len(made) == len(report.trace) > 1
    assert warm_ids == [None] + [sid for sid, _ in made[:-1]]
    assert alive_at_polish == [0]


LEVEL_CASES = (
    [(f"three-bus-rho{rho}",
      lambda rho=rho: (build_ccp(three_bus_case(), rho_override=rho).problem, None))
     for rho in (0.0, 0.01)]
    + [(f"two-group-{seed}",
        lambda seed=seed: (two_group_toy(seed), BisectionConfig(*TWO_GROUP_BOUNDS)))
       for seed in range(4)]
    + [(f"random-{seed}", lambda seed=seed: (random_instance(seed), None))
       for seed in range(6)])


@pytest.mark.parametrize("method", ["also-x", "intuitive"])
@pytest.mark.parametrize("make", [m for _, m in LEVEL_CASES],
                         ids=[name for name, _ in LEVEL_CASES])
def test_level_rates_match_evaluate_group(monkeypatch, method, make):
    """Each level's violation rates, counted from the level's shortfalls,
    equal a fresh evaluate_group at the level's point; so do a
    full-activation level's acceptance and the scenarios its polish
    keeps.  The report's per_group entries are evaluate_group's at the
    final point."""
    problem, cfg = make()
    points, found_at = [], {}
    real = algorithms._level_record
    real_full = algorithms._full_activation_level

    def level_record(problem, f, x, *rest):
        record = real(problem, f, x, *rest)
        points.append((record, x))
        return record

    def full_activation_level(asm, f):
        record, found = real_full(asm, f)
        found_at[id(record)] = found
        return record, found

    monkeypatch.setattr(algorithms, "_level_record", level_record)
    monkeypatch.setattr(algorithms, "_full_activation_level",
                        full_activation_level)
    report = solve(problem, method, cfg)
    assert [r for r, _ in points] == report.trace
    assert len(found_at) == (len(points) if method == "intuitive" else 0)
    for record, x in points:
        expected = (None if x is None else
                    [evaluate_group(g, x).violation_rate for g in problem.groups])
        assert record.violation_rates == expected
        if method != "intuitive":
            continue
        found = found_at[id(record)]
        refs = ([] if x is None else
                [evaluate_group(g, x) for g in problem.groups])
        assert record.accepted == (x is not None and all(r.satisfied for r in refs))
        assert (found is not None) == record.accepted
        if found is not None:
            assert found[0] is x
            for mask, ref in zip(found[1], refs, strict=True):
                assert np.array_equal(mask, ref.worst <= TOL_ZERO)
                assert np.count_nonzero(mask) == ref.n_satisfied
    if report.is_feasible:
        refs = [evaluate_group(g, report.x) for g in problem.groups]
        assert report.to_dict()["per_group"] == [
            {"label": g.label, "epsilon": g.epsilon, "rho": g.rho,
             "violation_rate": ref.violation_rate,
             "satisfied": ref.violation_rate <= g.epsilon + 1e-12}
            for g, ref in zip(problem.groups, refs)]


def test_cvar_eps_zero_is_worst_case():
    g = JccGroup(
        constraints=[BiAffineConstraint(A=np.zeros((2, 1)), a0=[1.0, 0.0], c=[-1.0]),
                     BiAffineConstraint(A=np.zeros((2, 1)), a0=[0.0, -1.0], c=[1.0])],
        samples=SampleSet([[1.0, 9.0], [2.0, 8.0]]), epsilon=0.0)
    p = CcpProblem(objective=[1.0], polytope=Polytope(), groups=[g])
    r = solve_cvar(p)
    assert r.is_feasible
    assert r.objective == pytest.approx(2.0)  # x >= max lo


def test_oracle_capacity_guard():
    with pytest.raises(CapacityError, match="cap"):
        solve_oracle(over_cap_problem())


@pytest.mark.parametrize("problem, expected", [
    (interval_toy(0.4), list(METHODS)),
    (two_group_toy(0), ["also-x", "intuitive", "cvar"]),
    (over_cap_problem(), ["also-x", "intuitive", "cvar"]),
], ids=["interval", "two-group", "over-cap"])
def test_applicable_methods(problem, expected):
    assert applicable_methods(problem) == expected


@pytest.mark.parametrize("lo, hi", [(8.0, 0.0), (np.nan, 8.0), (0.0, np.inf),
                                    (-np.inf, 8.0)])
def test_bisection_config_rejects_inverted_or_non_finite_bracket(lo, hi):
    with pytest.raises(ModelError, match="must be finite and ordered"):
        solve(interval_toy(0.4), "also-x", BisectionConfig(lo, hi))


@pytest.mark.parametrize("delta1", [-1.0, 0.0, np.nan, np.inf])
def test_bisection_config_rejects_a_gap_that_is_not_positive_and_finite(delta1):
    with pytest.raises(ModelError, match="delta1"):
        BisectionConfig(*INTERVAL_BOUNDS, delta1=delta1)


def test_bisection_config_resolves_delta1_at_construction():
    assert BisectionConfig(1.0, 3.0).delta1 == pytest.approx(4e-4)
    assert BisectionConfig(-2.0, 1.0).delta1 == 1e-4
    assert BisectionConfig(3.0, 3.0, delta1=0.5).delta1 == 0.5


def test_init_bounds_upper_end_never_below_lower_end(monkeypatch):
    """A CVaR optimum that round-off puts just below the mean-value one
    still gives an ordered bracket."""
    p = interval_toy(0.4)
    f_lo = init_bounds(p)[0]
    monkeypatch.setattr(algorithms, "_cvar_point", lambda problem, groups,
                        dual_start: (np.array([f_lo - 1e-12]), groups))
    assert init_bounds(p)[:2] == (f_lo, f_lo)
    assert BisectionConfig.from_problem(p).f_upper == f_lo


def test_multi_rejects_l2_groups():
    p = interval_toy(0.4, rho=0.05)
    p.groups[0].norm = "l2"
    with pytest.raises(ModelError, match="l2"):
        solve_also_x_multi(p, interval_cfg())
    with pytest.raises(ModelError, match="l2"):
        solve_cvar(p)


def test_gamma_value_weighs_groups_equally():
    z = [np.ones(2), np.ones(4)]
    s = [np.array([1.0, 1.0]), np.zeros(4)]
    assert gamma_value(z, s) == pytest.approx(0.5)


# -- working set of groups --------------------------------------------------------

WORKING_SET_CASES = (
    [(f"random-{s}", lambda s=s: random_instance(s)) for s in range(50)]
    + [(f"two-group-{s}", lambda s=s: two_group_toy(s)) for s in range(16)]
    + [(f"three-bus-n{n}", lambda n=n: build_ccp(
        three_bus_case(n_train=n), rho_override=0.0).problem) for n in (10, 20)])


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


@pytest.mark.parametrize("method", ["also-x", "intuitive", "cvar"])
@pytest.mark.parametrize("make", [m for _, m in WORKING_SET_CASES],
                         ids=[name for name, _ in WORKING_SET_CASES])
def test_the_working_set_agrees_with_all_groups(monkeypatch, method, make):
    """The default bracket and the cvar method solve on the groups that
    bind at the mean-value point.  The same bracket given explicitly
    keeps every group, as does the all-groups CVaR LP.  Both reach the
    same status and objective, and the bracket's upper end is the one
    the all-groups CVaR LP gives; except where no level passes its test,
    and the default bracket reports its CVaR point, which an explicit
    bracket does not have."""
    problem = make()
    f_lower, f_upper, _, x_cvar = init_bounds(problem)
    if problem.n_groups == 6:  # three-bus: its line groups start out
        assert len(algorithms._binding_groups(problem, mean_point(problem))) < 6
    seeded = solve(problem, method)
    if method == "cvar":
        every = all_groups_cvar(problem)
        monkeypatch.setattr(algorithms, "_binding_groups",
                            lambda problem, x: list(range(problem.n_groups)))
        every_lower, every_upper, _, _ = init_bounds(problem)
        assert every_lower == f_lower and _close(f_upper, every_upper)
    else:
        every = solve(problem, method, BisectionConfig(f_lower, f_upper))
        if seeded.is_feasible and not every.is_feasible:
            assert ([(r.f, r.accepted) for r in seeded.trace]
                    == [(r.f, r.accepted) for r in every.trace])
            assert not any(r.accepted for r in seeded.trace)
            assert np.array_equal(seeded.x, x_cvar)
            return
    assert seeded.status == every.status
    if every.is_feasible:
        assert _close(seeded.objective, every.objective)


@pytest.mark.parametrize("rho", [0.0, 0.01])
def test_the_working_cvar_lp_is_smaller_at_forty_scenarios(monkeypatch, rho):
    """Three-bus n_train=40: the cvar objective is HiGHS's on the
    all-groups CVaR LP, from a working LP of fewer rows."""
    problem = build_ccp(three_bus_case(n_train=40), rho_override=rho).problem
    solved = []
    real_solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda p, **kw:
                        solved.append(p) or real_solve(p, **kw))
    report = solve(problem, "cvar")
    full = algorithms.cvar_lp(problem)
    ref = scipy_solve(full)
    assert report.is_feasible and ref.status == 0
    assert abs(report.objective - ref.fun) <= 1e-7 * abs(ref.fun)
    assert solved[-1].n_ineq < full.n_ineq


def _bound_group(sign, xi, epsilon, label):
    """One scenario row per xi: xi <= x for sign 1, x <= xi for sign -1."""
    con = BiAffineConstraint(A=np.zeros((1, 1)), a0=[float(sign)], c=[-float(sign)])
    return JccGroup(constraints=[con],
                    samples=SampleSet(np.asarray(xi, dtype=float)[:, None]),
                    epsilon=epsilon, label=label)


def _on_a_line(*groups):
    """min x over [0, 10] under the given groups."""
    return CcpProblem(objective=[1.0], polytope=Polytope(lower=[0.0], upper=[10.0]),
                      groups=list(groups))


def _slack_cap_at_the_mean():
    """The cap x <= xi is slack at the mean-value point x = 3, but the
    cover's CVaR alone puts x at 4.8 > 4; with the cap, whose CVaR
    allows x <= 5.5, the LP ends at 4.8 again."""
    return _on_a_line(_bound_group(1, [1.0, 2.0, 3.0, 4.2, 4.8], 0.2, "cover"),
                      _bound_group(-1, [4.0, 7.0, 8.0, 9.0], 0.5, "cap"))


def test_a_group_slack_at_the_mean_joins_the_cvar_lp(monkeypatch):
    p = _slack_cap_at_the_mean()
    assert algorithms._binding_groups(p, mean_point(p)) == [0]
    built = []
    real_cvar_lp = algorithms.cvar_lp

    def cvar_lp(problem, groups=None):
        built.append(list(groups))
        return real_cvar_lp(problem, groups)

    monkeypatch.setattr(algorithms, "cvar_lp", cvar_lp)
    report = solve(p, "cvar")
    assert built == [[0], [0, 1]]
    assert report.to_dict() == all_groups_cvar(p).to_dict()
    assert report.objective == 4.8


@pytest.mark.parametrize("method", ["also-x", "intuitive"])
def test_the_bracket_hands_its_cvar_set_to_the_bisection(monkeypatch, method):
    """The cap joins the CVaR LP, so a default-bracket solve builds its
    level skeleton once, on both groups, and never grows it."""
    p = _slack_cap_at_the_mean()
    f_lower, f_upper, groups, _ = init_bounds(p)
    assert groups == [0, 1]
    every = solve(p, method, BisectionConfig(f_lower, f_upper))
    built = []
    real_init = SStepAssembler.__init__

    def init(asm, problem, groups=None):
        real_init(asm, problem, groups)
        built.append(asm.groups)

    monkeypatch.setattr(SStepAssembler, "__init__", init)
    report = solve(p, method)
    assert built == [(0, 1)]
    assert report.to_dict() == every.to_dict()


@pytest.mark.parametrize("seed", range(8))
def test_a_default_bracket_reports_its_cvar_point_when_no_level_passes(seed):
    """On two_group_toy(0-7) the pooled test passes no level of the
    default bracket, not even its top, where the bracket's CVaR point
    lies: the report is that point, which meets both risk levels."""
    p = two_group_toy(seed)
    _, f_upper, _, x_cvar = init_bounds(p)
    report = solve(p, "intuitive")
    cvar = solve(p, "cvar")
    assert not any(r.accepted for r in report.trace)
    assert report.trace[-1].f == f_upper
    assert report.is_feasible and cvar.is_feasible
    assert np.array_equal(report.x, x_cvar)
    assert report.objective == f_upper
    assert _close(cvar.objective, f_upper)
    assert 4.5 < f_upper < 5.25
    assert all(r.satisfied for r in report.per_group)


@pytest.mark.parametrize("method", ["also-x", "cvar"])
def test_only_the_bracket_lps_keep_the_primal_start(monkeypatch, method):
    """The level bracket's mean-value and CVaR LPs start primal, since
    every midpoint follows from the bracket's ends; the cvar method's
    own LPs and the polish LP start dual."""
    kinds, starts = {}, []
    for name in ("mean_value_lp", "cvar_lp"):
        def build(*args, real=getattr(algorithms, name), name=name):
            lp_ = real(*args)
            kinds[id(lp_)] = name, lp_  # kept alive, so its id stays its own
            return lp_
        monkeypatch.setattr(algorithms, name, build)
    real_solve = lp.solve_lp

    def solve_lp(p, dual_start=True):
        starts.append((kinds.get(id(p), ("polish",))[0], dual_start))
        return real_solve(p, dual_start)

    monkeypatch.setattr(lp, "solve_lp", solve_lp)
    report = solve(two_group_toy(1), method)
    assert report.is_feasible
    assert {kind for kind, _ in starts} == (
        {"mean_value_lp", "cvar_lp", "polish"} if method == "also-x"
        else {"mean_value_lp", "cvar_lp"})
    for kind, dual_start in starts:
        assert dual_start == (method == "cvar" or kind == "polish")


@pytest.mark.parametrize("method", ["also-x", "intuitive", "cvar"])
def test_the_mean_value_lp_is_solved_once_per_solve(monkeypatch, method):
    """init_bounds seeds one working set from its mean-value point: the
    point is scored once."""
    built, seeded = [], []
    real = algorithms.mean_value_lp
    monkeypatch.setattr(algorithms, "mean_value_lp",
                        lambda problem: built.append(problem) or real(problem))
    real_seed = algorithms._binding_groups
    monkeypatch.setattr(algorithms, "_binding_groups", lambda problem, x:
                        seeded.append(x) or real_seed(problem, x))
    solve(two_group_toy(0), method)
    assert len(built) == 1
    assert len(seeded) == 1


def test_a_cvar_lp_on_no_group_is_the_polytope_lp():
    # Every scenario of the cover is below 0 at the mean-value point
    # x = 0, so the CVaR LP starts on no group and no inequality row.
    p = _on_a_line(_bound_group(1, [-1.0, -2.0], 0.5, "cover"))
    assert algorithms._binding_groups(p, mean_point(p)) == []
    assert algorithms.cvar_lp(p, []).G is None
    assert solve(p, "cvar").to_dict() == all_groups_cvar(p).to_dict()
    assert solve(p, "cvar").objective == 0.0


def test_an_unbounded_working_cvar_lp_is_solved_over_every_group(monkeypatch):
    # At x = 100 the cover is slack, so the working set seeded there
    # starts empty, and min x without it is unbounded below; every group
    # bounds it at 4.8.
    cover = _bound_group(1, [1.0, 2.0, 3.0, 4.2, 4.8], 0.2, "cover")
    p = CcpProblem(objective=[1.0], polytope=Polytope(lower=[-np.inf]),
                   groups=[cover])
    real = algorithms._binding_groups
    assert real(p, np.array([100.0])) == []
    monkeypatch.setattr(algorithms, "_binding_groups",
                        lambda problem, x: real(problem, np.array([100.0])))
    assert solve_cvar(p).objective == 4.8


def _watch_growth(monkeypatch):
    """Log (where, f, working set before, after) of every level solve
    and polish."""
    log = []
    real_level, real_polish = SStepAssembler.level_point, algorithms._polish

    def level_point(asm, f, z):
        before = asm.groups
        out = real_level(asm, f, z)
        log.append(("level", f, before, asm.groups))
        return out

    def polish(asm, masks, fallback_x):
        before = asm.groups
        out = real_polish(asm, masks, fallback_x)
        log.append(("polish", None, before, asm.groups))
        return out

    monkeypatch.setattr(SStepAssembler, "level_point", level_point)
    monkeypatch.setattr(algorithms, "_polish", polish)
    return log


@pytest.mark.parametrize("method", ["also-x", "intuitive"])
def test_a_group_violated_at_a_level_joins_there(monkeypatch, method):
    # The cap x <= xi holds at the mean-value point x = 3 (bracket [3, 6],
    # the CVaR LP is infeasible) but not at the first midpoint, where the
    # cover alone puts x at the level, 4.5 > 3.5.  The CVaR LP takes the
    # cap in before it comes back infeasible, so the bracket's set is
    # (0, 1); the levels here start from the seed (0,) instead.
    p = _on_a_line(_bound_group(1, [1.0, 2.0, 3.0, 4.2, 4.8], 0.2, "cover"),
                   _bound_group(-1, [3.5, 7.0, 8.0, 9.0], 0.25, "cap"))
    f_lower, f_upper, groups, x_cvar = init_bounds(p)
    assert (f_lower, f_upper) == (3.0, 6.0)
    assert algorithms._binding_groups(p, mean_point(p)) == [0]
    assert groups == [0, 1]
    every = solve(p, method, BisectionConfig(f_lower, f_upper))
    monkeypatch.setattr(algorithms, "init_bounds",
                        lambda problem: (f_lower, f_upper, [0], x_cvar))
    log = _watch_growth(monkeypatch)
    starts = []  # (level solves before it, id of its warm session, its id)
    real_start = lp.SimplexBackend.start_session

    def start(backend, problem, warm=None):
        session = real_start(backend, problem, warm=warm)
        starts.append((len(log), None if warm is None else id(warm), id(session)))
        return session

    monkeypatch.setattr(lp.SimplexBackend, "start_session", start)
    report = solve(p, method)
    assert log[0] == ("level", 4.5, (0,), (0, 1))
    assert all(before == (0, 1) for _, _, before, _ in log[1:])
    assert report.to_dict() == every.to_dict()
    assert report.objective == 4.2
    # The grown level starts cold, then cold again on the grown skeleton;
    # each later level starts one session, warm from the previous level's,
    # and the inner iterations at a level start none.
    levels = [f for where, f, _, _ in log if where == "level"]
    started = [[(warm, sid) for call, warm, sid in starts if call == i]
               for i in range(len(levels))]
    assert [warm for warm, _ in started[0]] == [None, None]
    assert len(starts) == sum(map(len, started))
    previous = started[0][-1][1]
    for i in range(1, len(levels)):
        if levels[i] == levels[i - 1]:
            assert started[i] == []
        else:
            [(warm, sid)] = started[i]
            assert warm == previous
            previous = sid
    assert len(set(levels)) == len(report.trace) > 1


@pytest.mark.parametrize("method", ["also-x", "intuitive"])
def test_a_group_violated_only_by_the_polish_joins_there(monkeypatch, method):
    # The levels never go below the mean-value cost 2.6, where the floor
    # 2 <= x holds; the polish drops the cover's 9 and reaches x = 1,
    # which breaks the floor, so the floor joins and the polish ends at 2.
    p = _on_a_line(_bound_group(1, [1.0, 1.0, 1.0, 1.0, 9.0], 0.2, "cover"),
                   _bound_group(1, [2.0, 0.0, 0.0, 0.0], 0.25, "floor"))
    f_lower, f_upper, groups, _ = init_bounds(p)
    assert algorithms._binding_groups(p, mean_point(p)) == [0]
    assert groups == [0]
    every = solve(p, method, BisectionConfig(f_lower, f_upper))
    log = _watch_growth(monkeypatch)
    report = solve(p, method)
    assert all(entry[2:] == ((0,), (0,)) for entry in log[:-1])
    assert log[-1] == ("polish", None, (0,), (0, 1))
    assert report.to_dict() == every.to_dict()
    assert report.objective == 2.0


@pytest.mark.parametrize("method", ["also-x", "intuitive"])
def test_an_explicit_bracket_keeps_every_group(monkeypatch, method):
    built = []
    real_init = SStepAssembler.__init__

    def init(asm, problem, groups=None):
        real_init(asm, problem, groups)
        built.append((asm.groups, problem.n_groups))

    monkeypatch.setattr(SStepAssembler, "__init__", init)
    three_bus = build_ccp(three_bus_case(), rho_override=0.01).problem
    for problem, cfg in ((two_group_toy(0), BisectionConfig(*TWO_GROUP_BOUNDS)),
                         (interval_toy(0.4), interval_cfg()),
                         (three_bus, BisectionConfig(*init_bounds(three_bus)[:2]))):
        built.clear()
        assert solve(problem, method, cfg).is_feasible
        assert built == [(tuple(range(problem.n_groups)), problem.n_groups)]


# -- sandwich spot-check (full 50-instance sweep lives in test_acceptance) -----

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sandwich_spot(seed):
    p = random_instance(seed)
    oracle = solve_oracle(p)
    multi = solve_also_x_multi(p)
    intuitive = solve_intuitive_extension(p)
    cvar = solve_cvar(p)
    d1 = 1e-4 * max(1.0, sum(init_bounds(p)[:2]))
    if cvar.is_feasible:
        assert multi.is_feasible
        assert multi.objective <= cvar.objective + d1
    if oracle.is_feasible and multi.is_feasible and intuitive.is_feasible:
        assert oracle.objective <= multi.objective
        assert multi.objective <= intuitive.objective


@given(st.integers(100, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_feasible_reports_meet_risk_levels(seed):
    p = random_instance(seed)
    r = solve_also_x_multi(p)
    if r.is_feasible:
        for g_stats in r.per_group:
            assert g_stats.violation_rate <= g_stats.epsilon + 1e-12
        assert r.objective == pytest.approx(float(p.objective @ r.x))
