"""The screened oracle reports what a cold solve of every keep-set reports.

``solve_oracle`` screens the keep-sets by warm rhs restarts of one session
and solves only the near-best and the untrusted ones cold; ``cold_oracle``
solves every keep-set cold.  Status, objective and x must agree bit for
bit, and the screen must actually spare the cold solves.  ``exact_optimum``,
HiGHS's MILP of the sampled problem, must give the oracle's objective, and
no method may report a cost below it.
"""

import numpy as np
import pytest

from jccopt import (BiAffineConstraint, CcpProblem, JccGroup, NumericError,
                    Polytope, SampleSet, algorithms, lp)
from jccopt.algorithms import (SStepAssembler, applicable_methods,
                               oracle_enumeration_count, solve, solve_oracle)
from jccopt.cases import three_bus_case
from jccopt.dispatch import build_ccp
from jccopt.toys import interval_toy, two_group_toy

import helpers
from helpers import cold_oracle, exact_optimum, random_instance

EPS_GRID = (0.0, 0.2, 0.4, 0.6, 0.8)
RHO_GRID = (0.0, 1e-3, 1e-2, 5e-2)


def assert_same_report(problem):
    got, want = solve_oracle(problem), cold_oracle(problem)
    assert got.status == want.status
    assert got.objective == want.objective
    assert (got.x is None and want.x is None) or np.array_equal(got.x, want.x)


def capped_cover() -> CcpProblem:
    """x in [0, 2.5] covers xi <= x in each of two groups: every keep-set
    that keeps the scenario at 3 or at 4 is infeasible, and so is the
    all-kept LP that the screen restarts from."""
    def group(label):
        con = BiAffineConstraint(A=np.zeros((1, 1)), a0=[1.0], c=[-1.0])
        return JccGroup(constraints=[con],
                        samples=SampleSet([[1.0], [3.0], [2.0], [4.0]]),
                        epsilon=0.5, label=label)

    return CcpProblem(objective=[1.0], polytope=Polytope(lower=[0.0], upper=[2.5]),
                      groups=[group("a"), group("b")])


def far_optima() -> CcpProblem:
    """min x + y over x >= -1e8, y >= -1e7 with one of two scenario rows
    kept: 1e3 x >= 1 or y >= 1.  Neither keep-set LP reaches its optimum
    within the screen's offset of the dropped row, so both screened values
    are too high, the first by less than the second: trusting them would
    confirm only the keep-set that is not the best."""
    con = BiAffineConstraint(A=-np.eye(2), a0=[0.0, 0.0], c=[0.0, 0.0], d=1.0)
    group = JccGroup(constraints=[con], samples=SampleSet([[1e3, 0.0], [0.0, 1.0]]),
                     epsilon=0.5)
    return CcpProblem(objective=[1.0, 1.0],
                      polytope=Polytope(lower=[-1e8, -1e7]), groups=[group])


@pytest.mark.parametrize("rho", RHO_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_interval_toys_match_the_cold_enumeration(eps, rho):
    assert_same_report(interval_toy(eps, rho))


def test_random_instances_match_the_cold_enumeration():
    for seed in range(50):
        assert_same_report(random_instance(seed))


def test_infeasible_keep_sets_are_confirmed_cold():
    problem = capped_cover()
    values = algorithms._screened_values(SStepAssembler(problem))
    assert np.isnan(values).any() and not np.isnan(values).all()
    assert_same_report(problem)
    assert solve_oracle(problem).objective == 2.0


def test_keep_sets_whose_relaxed_rows_bind_are_confirmed_cold():
    problem = far_optima()
    assert np.isnan(algorithms._screened_values(SStepAssembler(problem))).all()
    assert_same_report(problem)
    assert solve_oracle(problem).objective == 1.0 - 1e8


def count_cold_solves(monkeypatch):
    solved = []
    solve_lp = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda p: solved.append(p) or solve_lp(p))
    return solved


def test_a_zero_offset_confirms_every_keep_set_cold(monkeypatch):
    # Each node is then the all-kept LP, so every trusted value is the
    # same one, the best, and is confirmed.
    monkeypatch.setattr(algorithms, "ORACLE_RELAX", 0.0)
    problems = ([interval_toy(eps) for eps in EPS_GRID]
                + [random_instance(seed) for seed in range(10)]
                + [capped_cover(), far_optima()])
    for problem in problems:
        solved = count_cold_solves(monkeypatch)
        assert_same_report(problem)
        keep_sets = sum(1 for _ in algorithms._keep_sets(problem))
        assert len(solved) == 2 * keep_sets  # the screened oracle's, then the reference's


def record_warm_starts(monkeypatch):
    starts = []
    start_session = lp.SimplexBackend.start_session
    monkeypatch.setattr(lp.SimplexBackend, "start_session",
                        lambda backend, p, warm=None:
                        starts.append(warm) or start_session(backend, p, warm))
    return starts


def test_screening_spares_the_cold_solves(monkeypatch):
    problem = random_instance(1)
    starts = record_warm_starts(monkeypatch)
    solved = count_cold_solves(monkeypatch)
    report = solve_oracle(problem)
    assert report.is_feasible
    # C(6, 3) * C(5, 2) keep-sets, each one warm node after the first
    assert len(starts) == sum(1 for _ in algorithms._keep_sets(problem)) == 200
    assert all(warm is not None for warm in starts[1:])
    assert len(solved) == 1


def test_a_failed_node_is_confirmed_cold_and_the_next_starts_cold(monkeypatch):
    starts, calls = record_warm_starts(monkeypatch), []
    solve = lp.SimplexSession.solve

    def every_third_fails(session, c=None):
        calls.append(session)
        if len(calls) % 3 == 0:
            raise NumericError("injected")
        return solve(session, c)

    monkeypatch.setattr(lp.SimplexSession, "solve", every_third_fails)
    assert_same_report(random_instance(1))
    assert [warm is None for warm in starts] == [
        k % 3 == 0 for k in range(len(starts))]


def test_the_cap_counts_the_keep_sets_walked():
    problems = ([interval_toy(eps) for eps in EPS_GRID]
                + [random_instance(seed) for seed in range(50)])
    for problem in problems:
        assert oracle_enumeration_count(problem) == sum(
            1 for _ in algorithms._keep_sets(problem))


def test_a_small_walk_under_a_large_selection_count_runs():
    # The loose group of the two-group toy alone: C(20, 16) = 4,845
    # keep-sets, though 1,047,225 selections drop at most 16 scenarios.
    toy = two_group_toy(0)
    loose = CcpProblem(objective=toy.objective, polytope=toy.polytope,
                       groups=toy.groups[:1])
    assert oracle_enumeration_count(loose) == 4845
    assert "oracle" in applicable_methods(loose)
    assert solve_oracle(loose).is_feasible


def test_the_cap_admits_a_walk_of_exactly_its_size(monkeypatch):
    # random_instance(1) walks C(6, 3) * C(5, 2) = 200 keep-sets.
    monkeypatch.setattr(algorithms, "ORACLE_CAP", 200)
    assert_same_report(random_instance(1))


# -- the MILP reference ---------------------------------------------------------

def test_the_milp_reference_equals_the_oracle_on_random_instances():
    for seed in range(50):
        problem = random_instance(seed)
        got, want = exact_optimum(problem), solve_oracle(problem)
        assert got.status == want.status
        if want.is_feasible:
            assert abs(got.objective - want.objective) <= \
                1e-9 * max(1.0, abs(want.objective))


def test_the_milp_reference_fails_when_big_m_binds(monkeypatch):
    # Dropping [4, 6] and [5, 7] at x = 3 relaxes their rows by 1 and 2,
    # both within M = 2.5, but 2 is not below M/2.
    monkeypatch.setattr(helpers, "EXACT_BIG_M", 2.5)
    with pytest.raises(AssertionError, match="big-M"):
        exact_optimum(interval_toy(0.4))


SANDWICH_CASES = (
    [(f"two-group-{s}", lambda s=s: two_group_toy(s)) for s in range(8)]
    + [("three-bus-n20", lambda: build_ccp(three_bus_case(n_train=20),
                                           rho_override=0.0).problem)])


@pytest.mark.parametrize("make", [m for _, m in SANDWICH_CASES],
                         ids=[name for name, _ in SANDWICH_CASES])
def test_no_method_lies_below_the_exact_optimum(make):
    problem = make()
    exact = exact_optimum(problem)
    assert exact.is_feasible
    if problem.n_groups == 6:  # three-bus
        assert exact.objective == pytest.approx(92.99090, abs=5e-6)
    floor = exact.objective - 1e-9 * max(1.0, abs(exact.objective))
    for method in ("also-x", "intuitive", "cvar"):
        report = solve(problem, method)
        assert not report.is_feasible or report.objective >= floor
