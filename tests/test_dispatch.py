"""Dispatch compilation: PTDF, builder semantics, audits, case files."""

import json
import re

import numpy as np
import pytest

from jccopt import (Adn, BiAffineConstraint, Bus, DispatchCase, Generator,
                    JccGroup, Line, ModelError, Network, NumericError,
                    SampleSet, Segment, SolveReport, ViolationReport, WindFarm,
                    WindScenarioSet, aggregate_errors, algorithms,
                    audit_dispatch, build_ccp, case_from_dict, case_to_dict,
                    compute_ptdf, deterministic_dispatch, evaluate_group,
                    load_case, lp, out_of_sample_reliability, rho_sweep,
                    solve_also_x_multi)
from jccopt.cases import overlap_case, render_case, three_bus_case
from jccopt.model import problem_to_dict

from helpers import random_dispatch_case


# -- ptdf ---------------------------------------------------------------------

def two_bus_network():
    return Network(buses=[Bus(0, np.zeros(1)), Bus(1, np.zeros(1))],
                   lines=[Line(0, 1, capacity=5.0, reactance=0.4)])


def triangle_network():
    return Network(
        buses=[Bus(b, np.zeros(1)) for b in range(3)],
        lines=[Line(0, 1, capacity=5.0, reactance=1.0),
               Line(1, 2, capacity=5.0, reactance=1.0),
               Line(0, 2, capacity=5.0, reactance=1.0)],
        slack_bus=0)


def test_ptdf_two_bus():
    psi = compute_ptdf(two_bus_network())
    # injecting at the slack moves nothing; at bus 1 the whole MW flows 1->0
    assert np.allclose(psi, [[0.0, -1.0]], atol=1e-12)


def test_ptdf_triangle_matches_dc_solve():
    psi = compute_ptdf(triangle_network())
    assert psi.shape == (3, 3)
    np.testing.assert_allclose(psi[:, 0], 0.0, atol=1e-14)
    # hand-reduced fractions for a unit injection at bus 1
    np.testing.assert_allclose(psi[:, 1], [-2.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0],
                               atol=1e-12)
    # independent route: solve the reduced DC system directly
    B = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    for k in (1, 2):
        inj = np.zeros(3)
        inj[k] = 1.0
        theta = np.zeros(3)
        theta[1:] = np.linalg.solve(B[1:, 1:], inj[1:])
        flows = [theta[0] - theta[1], theta[1] - theta[2], theta[0] - theta[2]]
        np.testing.assert_allclose(psi[:, k], flows, atol=1e-12)


def test_ptdf_disconnected_raises():
    net = Network(buses=[Bus(0, np.zeros(1)), Bus(1, np.zeros(1)),
                         Bus(2, np.zeros(1))],
                  lines=[Line(0, 1, capacity=5.0, reactance=1.0)])
    with pytest.raises(ModelError, match="disconnected"):
        compute_ptdf(net)


def test_ptdf_requires_reactance():
    net = Network(buses=[Bus(0, np.zeros(1)), Bus(1, np.zeros(1))],
                  lines=[Line(0, 1, capacity=5.0)])
    with pytest.raises(ModelError, match="reactance"):
        compute_ptdf(net)


# -- error aggregation --------------------------------------------------------

def _compiled(case) -> str:
    return json.dumps(problem_to_dict(build_ccp(case).problem))


def test_supplied_ptdf_compiles_like_the_reactances():
    case = three_bus_case()
    reference = _compiled(case)
    net = case.network
    case.network = Network(net.buses, net.lines, net.slack_bus,
                           ptdf=compute_ptdf(net))
    assert _compiled(case) == reference
    # Written out and read back without reactances, the case compiles
    # from the supplied matrix alone.
    data = json.loads(json.dumps(case_to_dict(case)))
    assert data["network"]["ptdf"] == case.network.ptdf.tolist()
    for ld in data["network"]["lines"]:
        ld["reactance"] = None
    clone = case_from_dict(data)
    np.testing.assert_array_equal(clone.network.ptdf, case.network.ptdf)
    assert _compiled(clone) == reference


def test_supplied_ptdf_must_be_lines_by_buses():
    net = triangle_network()
    message = re.escape("ptdf must be (lines x buses) = (3, 3), got (3, 2)")
    with pytest.raises(ModelError, match=message):
        Network(net.buses, net.lines, ptdf=np.zeros((3, 2)))
    data = case_to_dict(three_bus_case())
    data["network"]["ptdf"] = np.zeros((3, 2)).tolist()
    with pytest.raises(ModelError, match=message):
        case_from_dict(data)


def test_aggregate_errors_split_is_complementary():
    rng = np.random.default_rng(3)
    wind = WindScenarioSet(
        farms=[WindFarm(0, np.zeros(5)), WindFarm(1, np.zeros(5))],
        errors=rng.normal(size=(7, 2, 5)))
    plus, minus = aggregate_errors(wind)
    assert np.all(plus >= 0.0) and np.all(minus <= 0.0)
    assert np.all(plus * minus == 0.0)
    np.testing.assert_allclose(plus + minus, wind.errors.sum(axis=1))


# -- input validation ---------------------------------------------------------

def test_generator_segment_widths_must_cover_range():
    with pytest.raises(ModelError, match="segment widths"):
        Generator(bus=0, p_min=1.0, p_max=5.0, ramp_dn=-1.0, ramp_up=1.0,
                  segments=[Segment(3.0, 10.0)])


def test_generator_costs_must_be_nondecreasing():
    with pytest.raises(ModelError, match="nondecreasing"):
        Generator(bus=0, p_min=0.0, p_max=4.0, ramp_dn=-1.0, ramp_up=1.0,
                  segments=[Segment(2.0, 20.0), Segment(2.0, 10.0)])


def test_generator_ramp_sign_convention():
    with pytest.raises(ModelError, match="ramp_dn <= 0"):
        Generator(bus=0, p_min=0.0, p_max=4.0, ramp_dn=1.0, ramp_up=1.0,
                  segments=[Segment(4.0, 10.0)])


def test_adn_rejects_crossed_boundaries():
    with pytest.raises(ModelError, match="p_lower > p_upper"):
        Adn(bus=0, p_lower=np.array([[2.0]]), p_upper=np.array([[1.0]]),
            e_lower=np.array([[0.0]]), e_upper=np.array([[1.0]]))


def test_dispatch_radii_must_be_finite_and_nonnegative():
    for rho in (-0.1, np.nan, np.inf):
        with pytest.raises(ModelError, match="rho must be finite and nonnegative"):
            Generator(bus=0, p_min=0.0, p_max=4.0, ramp_dn=-1.0, ramp_up=1.0,
                      segments=[Segment(4.0, 10.0)], rho=rho)
        with pytest.raises(ModelError, match="rho must be finite and nonnegative"):
            Adn(bus=0, p_lower=np.zeros((1, 1)), p_upper=np.ones((1, 1)),
                e_lower=np.zeros((1, 1)), e_upper=np.ones((1, 1)), rho=rho)
        with pytest.raises(ModelError, match="rho must be finite and nonnegative"):
            Line(0, 1, capacity=1.0, rho=rho)


# Every owner of a risk setting, built with the given epsilon and rho.
RISK_OWNERS = {
    "group 'u'": lambda **risk: JccGroup(
        constraints=[BiAffineConstraint(np.zeros((1, 1)), [1.0], [-1.0])],
        samples=SampleSet(np.zeros((1, 1))), label="u", **risk),
    "generator 'u'": lambda **risk: Generator(
        bus=0, p_min=0.0, p_max=4.0, ramp_dn=-1.0, ramp_up=1.0,
        segments=[Segment(4.0, 10.0)], name="u", **risk),
    "adn 'u'": lambda **risk: Adn(
        bus=0, p_lower=np.zeros((1, 1)), p_upper=np.ones((1, 1)),
        e_lower=np.zeros((1, 1)), e_upper=np.ones((1, 1)), name="u", **risk),
    "line 'u'": lambda **risk: Line(0, 1, capacity=1.0, name="u", **risk),
}


@pytest.mark.parametrize("owner", list(RISK_OWNERS))
@pytest.mark.parametrize("risk, message", [
    ({"epsilon": 1.0}, "epsilon must be in [0, 1)"),
    ({"epsilon": -0.1}, "epsilon must be in [0, 1)"),
    ({"epsilon": np.nan}, "epsilon must be in [0, 1)"),
    ({"rho": -0.1}, "rho must be finite and nonnegative"),
    ({"rho": np.nan}, "rho must be finite and nonnegative"),
    ({"rho": np.inf}, "rho must be finite and nonnegative"),
], ids=["eps-one", "eps-negative", "eps-nan", "rho-negative", "rho-nan",
        "rho-inf"])
def test_risk_settings_follow_one_rule(owner, risk, message):
    make = RISK_OWNERS[owner]
    with pytest.raises(ModelError, match=f"^{re.escape(owner)}: {re.escape(message)}$"):
        make(**{"epsilon": 0.1, "rho": 0.0, **risk})
    unit = make(epsilon=0, rho=0)
    assert (type(unit.epsilon), type(unit.rho)) == (float, float)


def test_case_requires_paired_scenario_counts():
    case = three_bus_case(n_train=10)
    case.adns[0] = Adn(bus=2, p_lower=np.zeros((7, 4)),
                       p_upper=np.ones((7, 4)), e_lower=np.zeros((7, 4)),
                       e_upper=np.ones((7, 4)))
    with pytest.raises(ModelError, match="boundary scenarios"):
        case.validate()


# -- compiled model structure --------------------------------------------------

def day_ahead_case() -> DispatchCase:
    """T=24 case read through the day-ahead variant: two wind farms on
    different buses (farm columns w > 0 in the line rows), a
    three-segment generator and 23 ramp pairs per generator."""
    T = 24
    rng = np.random.default_rng(24)
    shape = 1.0 + 0.3 * np.sin(2.0 * np.pi * (np.arange(T) - 8) / T)
    network = Network(
        buses=[Bus(0, np.zeros(T)), Bus(1, 4.0 * shape), Bus(2, 7.0 * shape)],
        lines=[Line(0, 1, capacity=12.0, reactance=1.0, name="l01"),
               Line(1, 2, capacity=12.0, reactance=0.5, name="l12")],
        slack_bus=0)
    gens = [
        Generator(bus=0, p_min=1.0, p_max=13.0, ramp_dn=-3.0, ramp_up=3.0,
                  segments=[Segment(4.0, 10.0), Segment(4.0, 20.0),
                            Segment(4.0, 30.0)],
                  fixed_cost=2.0, reserve_cost_up=3.0, reserve_cost_dn=2.0,
                  name="g3"),
        Generator(bus=2, p_min=0.5, p_max=6.5, ramp_dn=-2.0, ramp_up=2.0,
                  segments=[Segment(6.0, 35.0)], reserve_cost_up=4.0,
                  reserve_cost_dn=3.0, name="g1"),
    ]
    farms = [WindFarm(bus=1, forecast=1.5 + 0.5 * np.cos(np.arange(T) / 4.0)),
             WindFarm(bus=2, forecast=np.full(T, 1.0))]
    wind = WindScenarioSet(farms=farms, errors=np.clip(
        rng.normal(0.0, 0.3, size=(2, 2, T)), -0.8, 0.8))
    data = case_to_dict(DispatchCase(horizon=T, step=1.0, network=network,
                                     generators=gens, wind=wind))
    del data["horizon"], data["step"]
    data["options"] = {"variant": "day-ahead"}
    return case_from_dict(data)


@pytest.fixture(scope="module")
def three_bus_model():
    return build_ccp(three_bus_case())


@pytest.fixture(scope="module")
def day_ahead_model():
    return build_ccp(day_ahead_case())


def test_day_ahead_case_reaches_every_segment(day_ahead_model):
    case = day_ahead_model.case
    assert (case.horizon, case.step) == (24, 1.0)
    # per generator 24 capacity/headroom pairs and 23 ramp pairs
    assert day_ahead_model.problem.polytope.n_ineq == 2 * (2 * 24 + 2 * 23)
    _, det = deterministic_dispatch(case)
    assert np.all(det.x[day_ahead_model.index.seg[0]].max(axis=1) > 1.0)


def test_three_bus_shapes(three_bus_model):
    p = three_bus_model.problem
    # 2 gens * (2 segments + 5 series) * 4 steps + 1 adn * 3 series * 4 steps
    assert p.n_vars == 2 * 7 * 4 + 3 * 4
    assert [g.label for g in p.groups] == ["g1", "g2", "adn2",
                                           "l01", "l12", "l02"]
    assert [g.constraints[0].xi_dim for g in p.groups] == [8, 8, 20,
                                                           12, 12, 12]
    assert all(g.n == 10 for g in p.groups)


def test_balance_rhs_is_load_minus_forecast(three_bus_model):
    case = three_bus_model.case
    b_eq = three_bus_model.problem.polytope.b_eq
    # rows: 8 segment anchors, then 4 balance rows
    balance = b_eq[8:12]
    expected = case.network.buses[2].fixed_load - case.wind.farms[0].forecast
    np.testing.assert_allclose(balance, expected)


def test_energy_rows_encode_prefix_sums_exactly(three_bus_model):
    model = three_bus_model
    T = model.case.horizon
    dt = model.case.step
    adn_group = model.problem.groups[2]
    p_cols = model.index.adn_p[0]
    r_cols = model.index.adn_r_up[0]
    lower = adn_group.constraints[2 * T:3 * T]
    upper = adn_group.constraints[3 * T:4 * T]
    for t in range(T):
        lo_c = lower[t].c
        assert np.all(lo_c[p_cols[:t + 1]] == -dt)
        assert np.all(lo_c[p_cols[t + 1:]] == 0.0)
        hi_c = upper[t].c
        assert np.all(hi_c[p_cols[:t + 1]] == dt)
        assert np.all(hi_c[r_cols[:t + 1]] == dt)
        assert np.all(hi_c[p_cols[t + 1:]] == 0.0)


def test_low_reserve_bound_direction():
    case = three_bus_case()

    def has_row(G, h_val, p_coef, r_coef, model):
        col_p = model.index.p[0, 0]
        col_r = model.index.r_dn[0, 0]
        h = model.problem.polytope.h
        for i in range(G.shape[0]):
            if G[i, col_p] == p_coef and G[i, col_r] == r_coef \
                    and h[i] == h_val:
                return True
        return False

    model = build_ccp(case)
    assert has_row(model.problem.polytope.G, -case.generators[0].p_min,
                   -1.0, 1.0, model)


def test_no_wind_case_degenerates_to_deterministic():
    case = DispatchCase(
        horizon=1, step=1.0,
        network=Network(buses=[Bus(0, np.array([4.0]))]),
        generators=[Generator(bus=0, p_min=0.0, p_max=8.0, ramp_dn=-5.0,
                              ramp_up=5.0, segments=[Segment(8.0, 12.0)],
                              epsilon=0.05)])
    model = build_ccp(case)
    g = model.problem.groups[0]
    assert g.n == 1 and not np.any(g.samples.data)
    report = solve_also_x_multi(model.problem)
    assert report.is_feasible
    assert report.x[model.index.p[0, 0]] == pytest.approx(4.0)
    assert report.objective == pytest.approx(4.0 * 12.0)


# -- bi-affine equivalence ------------------------------------------------------

def direct_constraint_values(model, label, x, xi):
    """Constraint values recomputed from the stated formulas, bypassing
    the bi-affine encoding."""
    case, idx = model.case, model.index
    T, dt = case.horizon, case.step
    kinds = {g.name or f"g{i}": ("gen", i) for i, g in enumerate(case.generators)}
    kinds.update({d.name or f"d{i}": ("adn", i) for i, d in enumerate(case.adns)})
    kinds.update({ln.name or f"line{i}": ("line", i)
                  for i, ln in enumerate(case.network.lines)})
    kind, pos = kinds[label]
    vals = []
    if kind == "gen":
        op, om = xi[:T], xi[T:2 * T]
        vals = list(np.concatenate([x[idx.a_dn[pos]] * op - x[idx.r_dn[pos]],
                                    -x[idx.a_up[pos]] * om - x[idx.r_up[pos]]]))
    elif kind == "adn":
        op = xi[:T]
        pl, pu = xi[T:2 * T], xi[2 * T:3 * T]
        el, eu = xi[3 * T:4 * T], xi[4 * T:5 * T]
        p = x[idx.adn_p[pos]]
        r = x[idx.adn_r_up[pos]]
        a = x[idx.adn_a_up[pos]]
        vals = list(np.concatenate([pl - p, p + r - pu,
                                    el - dt * np.cumsum(p),
                                    dt * np.cumsum(p + r) - eu,
                                    a * op - r]))
    else:
        W = len(case.wind.farms) if case.wind is not None else 0
        psi = case.network.resolved_ptdf()[pos]
        op = xi[W * T:W * T + T]
        om = xi[W * T + T:]
        cap = case.network.lines[pos].capacity
        for t in range(T):
            flow = 0.0
            for gi, g in enumerate(case.generators):
                flow += psi[case.network.bus_pos(g.bus)] * (
                    x[idx.p[gi, t]] - x[idx.a_dn[gi, t]] * op[t]
                    - x[idx.a_up[gi, t]] * om[t])
            for w in range(W):
                f = case.wind.farms[w]
                flow += psi[case.network.bus_pos(f.bus)] * (
                    f.forecast[t] + xi[w * T + t])
            for di, d in enumerate(case.adns):
                flow -= psi[case.network.bus_pos(d.bus)] * (
                    x[idx.adn_p[di, t]] + x[idx.adn_a_up[di, t]] * op[t])
            for b in case.network.buses:
                flow -= psi[case.network.bus_pos(b.id)] * b.fixed_load[t]
            vals.append(flow - cap)
            vals.append(-flow - cap)
    return np.array(vals, dtype=float)


@pytest.mark.parametrize("compiled", ["three_bus_model", "day_ahead_model"])
def test_bi_affine_encoding_matches_direct_formulas(compiled, request):
    model = request.getfixturevalue(compiled)
    rng = np.random.default_rng(99)
    n_pairs = 0
    while n_pairs < 100:
        x = rng.uniform(-1.0, 3.0, size=model.problem.n_vars)
        for group in model.problem.groups:
            xi = rng.uniform(-2.0, 2.0, size=group.constraints[0].xi_dim)
            direct = direct_constraint_values(model, group.label, x, xi)
            encoded = group.values(x, xi[None, :], rho=0.0)[0]
            np.testing.assert_allclose(encoded, direct, atol=1e-10)
            n_pairs += 1


# -- audits ---------------------------------------------------------------------

@pytest.mark.parametrize("compiled", ["three_bus_model", "day_ahead_model"])
def test_audit_clean_on_solved_three_bus(compiled, request):
    model = request.getfixturevalue(compiled)
    report = solve_also_x_multi(model.problem)
    assert report.is_feasible
    audit = audit_dispatch(model, report.x)
    assert audit["balance"] <= 1e-6
    assert audit["partition_up"] <= 1e-9
    assert audit["partition_down"] <= 1e-9
    assert audit["min_factor"] >= -1e-12
    assert audit["segment_sum"] <= 1e-9
    assert audit["segment_order"] <= 1e-7


def test_audit_flags_wrong_fill_order(three_bus_model):
    model = three_bus_model
    x = np.zeros(model.problem.n_vars)
    # cheap segment left empty while the dear one carries 1 MW
    x[model.index.seg[0][1, 0]] = 1.0
    audit = audit_dispatch(model, x)
    assert audit["segment_order"] >= 1.0 - 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_audit_random_cases(seed):
    case = random_dispatch_case(seed)
    model = build_ccp(case)
    report = solve_also_x_multi(model.problem)
    assert report.is_feasible
    audit = audit_dispatch(model, report.x)
    assert audit["balance"] <= 1e-6
    assert audit["partition_up"] <= 1e-9 and audit["partition_down"] <= 1e-9
    assert audit["min_factor"] >= -1e-12
    assert audit["segment_sum"] <= 1e-9
    assert audit["segment_order"] <= 1e-7


# -- solves -----------------------------------------------------------------------

def test_deterministic_bound_below_also_x(three_bus_model):
    model, det = deterministic_dispatch(three_bus_model.case)
    assert det.status == "feasible"
    full = solve_also_x_multi(three_bus_model.problem)
    assert det.objective <= full.objective + 1e-9


def test_deterministic_dispatch_raises_on_an_unbounded_lp(monkeypatch):
    monkeypatch.setattr(lp, "solve_lp", lambda p: lp.LpSolution(lp.UNBOUNDED))
    with pytest.raises(NumericError, match="^mean-value LP unbounded"):
        deterministic_dispatch(overlap_case())


def test_held_out_sets_are_scored_at_radius_zero():
    # The radius hedges training only.  At 0.05 the cvar point keeps 38 of
    # adn2's 100 held-out scenarios within the margin and 77 within the
    # raw constraints; a held-out set is scored on the raw ones.
    model = build_ccp(three_bus_case(), rho_override=0.05)
    x = algorithms.solve(model.problem, "cvar").x
    groups, tests = model.problem.groups, model.test_sample_sets()
    held_out = [evaluate_group(g, x, ts) for g, ts in zip(groups, tests)]
    assert [r.rho for r in held_out] == [0.0] * len(groups)
    assert [r.rate for r in held_out] == out_of_sample_reliability(x, groups, tests)
    adn2 = groups[2]
    assert adn2.label == "adn2" and held_out[2].rate == 0.77
    margin = adn2.values(x, tests[2].data).max(axis=1)
    assert np.count_nonzero(margin <= 1e-6) == 38
    assert evaluate_group(adn2, x).rho == 0.05  # training rows: its radius


def test_overlap_sweep_separates_methods():
    rows = rho_sweep(overlap_case(), [0.0, 1e-2])
    by = {(r["rho"], r["method"]): r for r in rows}
    assert by[(0.0, "cvar")]["status"] == "infeasible"
    assert by[(1e-2, "cvar")]["status"] == "infeasible"
    assert by[(0.0, "also-x")]["status"] == "feasible"
    assert by[(0.0, "also-x")]["cost"] == pytest.approx(25.8)
    assert by[(1e-2, "also-x")]["cost"] >= by[(0.0, "also-x")]["cost"] - 1e-9


def test_held_out_sets_need_wind_rows_when_the_case_has_wind():
    # Boundary test rows without wind test rows would score the held-out
    # scenarios with zero wind error and drop the farm columns.
    case = three_bus_case()
    case.test_wind_rows = None
    with pytest.raises(ModelError, match="no wind test data"):
        build_ccp(case).test_sample_sets()
    with pytest.raises(ModelError, match="no wind test data"):
        rho_sweep(case, [0.0], methods=("cvar",))
    # Without wind, boundary test rows alone are complete.
    case.wind = None
    model = build_ccp(case)
    sets = model.test_sample_sets()
    assert [ts.dim for ts in sets] == [g.samples.dim for g in model.problem.groups]
    assert all(ts.n == 100 for ts in sets)


def test_rho_sweep_in_sample_reliability_is_the_report_rate(monkeypatch):
    # Without held-out rows the sweep reports each group's in-sample rate,
    # one integer division: 1/3, where 1 - 2/3 is 0.33333333333333337.
    def solve(problem, method, cfg=None):
        per_group = [ViolationReport(g.label, g.epsilon, g.rho, 1, 3, np.zeros(3))
                     for g in problem.groups]
        return SolveReport(method, algorithms.FEASIBLE, np.zeros(problem.n_vars),
                           0.0, per_group)

    monkeypatch.setattr(algorithms, "solve", solve)
    case = overlap_case()
    assert case.test_wind_rows is None and case.test_boundary_rows is None
    [row] = rho_sweep(case, [0.0], methods=("cvar",))
    assert row["reliability"] == [1 / 3] * len(row["labels"])


def test_rho_sweep_rejects_negative_radius():
    for rho in (-0.1, np.nan, np.inf):
        with pytest.raises(ModelError, match="finite and nonnegative"):
            rho_sweep(overlap_case(), [rho])


# -- case files -------------------------------------------------------------------

def test_case_dict_round_trip_preserves_model():
    case = three_bus_case()
    clone = case_from_dict(case_to_dict(case))
    a = build_ccp(case).problem
    b = build_ccp(clone).problem
    np.testing.assert_array_equal(a.objective, b.objective)
    np.testing.assert_array_equal(a.polytope.G, b.polytope.G)
    np.testing.assert_array_equal(a.polytope.b_eq, b.polytope.b_eq)
    for ga, gb in zip(a.groups, b.groups):
        np.testing.assert_array_equal(ga.samples.data, gb.samples.data)
        assert ga.epsilon == gb.epsilon and ga.rho == gb.rho


def test_unnamed_units_share_one_default_name():
    # Group labels, variable names and a case file that omits the names
    # all read g<i>, d<i> and line<i>.
    case = three_bus_case()
    for unit in case.generators + case.adns + case.network.lines:
        unit.name = ""
    model = build_ccp(case)
    labels = ["g0", "g1", "d0", "line0", "line1", "line2"]
    assert [g.label for g in model.problem.groups] == labels
    assert {"p[g1,0]", "seg[g0,1,0]", "adn_p[d0,0]"} <= set(model.index.names)
    data = case_to_dict(case)
    for unit in data["generators"] + data["adns"] + data["network"]["lines"]:
        assert unit.pop("name") == ""
    clone = case_from_dict(data)
    assert [u.name for u in clone.generators + clone.adns
            + clone.network.lines] == labels
    assert build_ccp(clone).index.names == model.index.names


def test_omitted_fields_read_the_dataclass_defaults():
    data = case_to_dict(three_bus_case())
    optional = {"generators": ("fixed_cost", "reserve_cost_up",
                               "reserve_cost_dn", "epsilon", "rho"),
                "adns": ("reserve_cost_up", "epsilon", "rho"),
                "lines": ("reactance", "epsilon", "rho")}
    data["network"]["ptdf"] = compute_ptdf(three_bus_case().network).tolist()
    units = {"generators": data["generators"], "adns": data["adns"],
             "lines": data["network"]["lines"]}
    for kind, keys in optional.items():
        for unit in units[kind]:
            for key in keys:
                del unit[key]
    clone = case_from_dict(data)
    g, d, ln = clone.generators[0], clone.adns[0], clone.network.lines[0]
    assert (g.fixed_cost, g.reserve_cost_up, g.reserve_cost_dn, g.epsilon,
            g.rho) == (0.0, 0.0, 0.0, 0.05, 0.0)
    assert (d.reserve_cost_up, d.epsilon, d.rho) == (0.0, 0.05, 0.0)
    assert (ln.reactance, ln.epsilon, ln.rho) == (None, 0.1, 0.0)


@pytest.mark.parametrize("unit, edit, path", [
    ("generators", {"segments": [{"width": "4"}], "bus": "0"},
     "/generators/0/segments/0/width"),
    ("generators", {"bus": "0", "p_min": "2", "name": 7}, "/generators/0/bus"),
    ("generators", {"fixed_cost": "5", "epsilon": "0.05", "name": 7},
     "/generators/0/fixed_cost"),
    ("adns", {"bus": "2", "boundary_samples": "x"}, "/adns/0/bus"),
    ("adns", {"boundary_samples": "x", "reserve_cost_up": "2"},
     "/adns/0/boundary_samples"),
    ("adns", {"reserve_cost_up": "2", "name": 7}, "/adns/0/reserve_cost_up"),
    ("lines", {"from_bus": "0", "capacity": "8"}, "/network/lines/0/from_bus"),
    ("lines", {"reactance": "1", "rho": "0"}, "/network/lines/0/reactance"),
])
def test_first_bad_field_in_reading_order_is_reported(unit, edit, path):
    data = case_to_dict(three_bus_case())
    units = data["network"]["lines"] if unit == "lines" else data[unit]
    units[0].update(edit)
    with pytest.raises(ModelError, match=f"^{re.escape(path)}: "):
        case_from_dict(data)


def test_bundled_json_matches_factories():
    from jccopt.cases import bundled_case_path
    for name in ("three_bus", "overlap"):
        assert bundled_case_path(name).read_text() == render_case(name)


def test_case_missing_field_names_pointer(tmp_path):
    data = case_to_dict(overlap_case())
    del data["generators"][0]["p_max"]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="/generators/0: missing field 'p_max'"):
        load_case(path)


def test_case_requires_ptdf_or_reactance(tmp_path):
    data = case_to_dict(three_bus_case())
    for ld in data["network"]["lines"]:
        ld["reactance"] = None
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="ptdf"):
        load_case(path)


def test_case_scenarios_from_csv(tmp_path):
    case = three_bus_case()
    data = case_to_dict(case)
    SampleSet(np.asarray(data["wind"]["errors"])).to_csv(tmp_path / "w.csv")
    SampleSet(np.asarray(data["adns"][0]["boundary_samples"])).to_csv(
        tmp_path / "b.csv")
    data["wind"]["errors"] = {"csv": "w.csv"}
    data["adns"][0]["boundary_samples"] = {"csv": "b.csv"}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data))
    loaded = load_case(path)
    np.testing.assert_array_equal(loaded.wind.errors, case.wind.errors)
    np.testing.assert_array_equal(loaded.adns[0].p_lower, case.adns[0].p_lower)


def _drop_last_column(rows):
    for row in rows:
        del row[-1]


def _second_adn_without_test_rows(data):
    adn = dict(data["adns"][0], name="adn3")
    del adn["test_boundary_samples"]
    data["adns"].append(adn)


def _cross_first_power_window(data):
    row = data["adns"][0]["test_boundary_samples"][0]
    row[0] = row[4] + 1.0       # p_lower[0] above p_upper[0] (T = 4)


@pytest.mark.parametrize("edit, message", [
    (lambda d: _drop_last_column(d["wind"]["test_errors"]),
     "wind test_errors rows are 3 wide, expected W*T = 4"),
    (lambda d: _drop_last_column(d["adns"][0]["test_boundary_samples"]),
     "adn 'adn2': test_boundary_samples rows are 15 wide, expected 4*T = 16"),
    (_second_adn_without_test_rows, "1 test_boundary_samples blocks for 2 adns"),
    (lambda d: d["wind"]["test_errors"].pop(),
     "held-out blocks must have equal row counts, got wind test_errors 99, "
     "adn 'adn2': test_boundary_samples 100"),
    (_cross_first_power_window,
     "adn 'adn2': test_boundary_samples: p_lower > p_upper in a scenario"),
    (lambda d: d["wind"].pop("test_errors"),
     "case embeds adn boundary test data but no wind test data"),
    (lambda d: d["adns"][0].pop("test_boundary_samples"),
     "case embeds wind test data but no adn boundary test data"),
], ids=["wind-width", "boundary-width", "adn-block-missing", "unequal-rows",
        "band-order", "wind-rows-absent", "boundary-rows-absent"])
def test_load_case_checks_held_out_rows(tmp_path, edit, message):
    data = case_to_dict(three_bus_case())
    edit(data)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        load_case(path)


def _set_cell(block, index, value):
    def edit(case):
        block(case)[index] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_cell(lambda c: c.test_wind_rows, (0, 0), np.nan),
     "wind test_errors row 0: entries must be finite"),
    (_set_cell(lambda c: c.test_boundary_rows[0], (3, 2), np.inf),
     "adn 'adn2': test_boundary_samples row 3: entries must be finite"),
    (_set_cell(lambda c: c.wind.errors, (2, 0, 1), np.nan),
     "wind error row 2: entries must be finite"),
    (_set_cell(lambda c: c.adns[0].e_upper, (4, 1), -np.inf),
     "adn 'adn2': e_upper row 4: entries must be finite"),
    (_set_cell(lambda c: c.adns[0].p_lower, (9, 0), np.nan),
     "adn 'adn2': p_lower row 9: entries must be finite"),
], ids=["held-out-wind", "held-out-boundary", "wind", "adn-energy", "adn-power"])
def test_non_finite_scenario_rows_name_their_block_and_row(edit, message):
    # Rows built in Python, not read from a file, reach validate unchecked.
    case = three_bus_case()
    edit(case)
    for check in (case.validate, lambda: build_ccp(case)):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            check()


def test_adn_rows_must_be_finite():
    rows = three_bus_case().adns[0].to_rows()
    rows[1, 5] = np.nan
    with pytest.raises(ModelError, match=re.escape(
            "adn 'a': boundary row 1: entries must be finite")):
        Adn.from_rows(bus=2, rows=rows, horizon=4, name="a")


def _two_farm_case() -> DispatchCase:
    """The three-bus case with a second wind farm at bus 2."""
    case = three_bus_case()
    rng = np.random.default_rng(7)
    T, n, n_test = case.horizon, case.wind.n, len(case.test_wind_rows)
    farms = case.wind.farms + [WindFarm(bus=2, forecast=np.full(T, 1.5))]
    case.wind = WindScenarioSet(farms, np.concatenate(
        [case.wind.errors, rng.normal(0.0, 0.5, size=(n, 1, T))], axis=1))
    case.test_wind_rows = np.hstack(
        [case.test_wind_rows, rng.normal(0.0, 0.5, size=(n_test, T))])
    case.validate()
    return case


def _reference_stacks(case, wind, adns):
    """Per-group scenario stacks from a wind set and whole ADNs."""
    omega_p, omega_m = aggregate_errors(wind)
    return ([np.hstack([omega_p, omega_m]) for _ in case.generators]
            + [np.hstack([omega_p, d.p_lower, d.p_upper, d.e_lower, d.e_upper])
               for d in adns]
            + [np.hstack([wind.to_rows(), omega_p, omega_m])
               for _ in case.network.lines])


@pytest.mark.parametrize("make", [three_bus_case, _two_farm_case],
                         ids=["one-farm", "two-farms"])
def test_scenario_stacks_keep_their_bytes(make):
    case = make()
    model = build_ccp(case)
    T = case.horizon
    test_wind = WindScenarioSet.from_rows(case.wind.farms, case.test_wind_rows, T)
    test_adns = [Adn.from_rows(d.bus, rows, T, name=d.name)
                 for d, rows in zip(case.adns, case.test_boundary_rows)]

    def layout(arrays):
        return [(a.shape, a.tobytes()) for a in arrays]

    assert layout(g.samples.data for g in model.problem.groups) == layout(
        _reference_stacks(case, case.wind, case.adns))
    assert layout(s.data for s in model.test_sample_sets()) == layout(
        _reference_stacks(case, test_wind, test_adns))


def test_embedded_test_sets_match_group_layout(three_bus_model):
    sets = three_bus_model.test_sample_sets()
    assert sets is not None and len(sets) == 6
    for g, ts in zip(three_bus_model.problem.groups, sets):
        assert ts.dim == g.constraints[0].xi_dim
        assert ts.n == 100
