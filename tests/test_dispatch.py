"""Dispatch compilation: PTDF, builder semantics, audits, case files."""

import json

import numpy as np
import pytest

from jccopt import (Adn, Bus, DispatchCase, Generator, Line, ModelError,
                    Network, SampleSet, Segment, WindFarm, WindScenarioSet,
                    aggregate_errors, audit_dispatch, build_ccp, case_from_dict,
                    case_to_dict, compute_ptdf, deterministic_dispatch,
                    load_case, rho_sweep, solve_also_x_multi)
from jccopt.cases import overlap_case, render_case, three_bus_case

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


def test_case_requires_paired_scenario_counts():
    case = three_bus_case(n_train=10)
    case.adns[0] = Adn(bus=2, p_lower=np.zeros((7, 4)),
                       p_upper=np.ones((7, 4)), e_lower=np.zeros((7, 4)),
                       e_upper=np.ones((7, 4)))
    with pytest.raises(ModelError, match="boundary scenarios"):
        case.validate()


# -- compiled model structure --------------------------------------------------

@pytest.fixture(scope="module")
def three_bus_model():
    return build_ccp(three_bus_case())


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
    p_cols = [model.index.col("adn_p", 0, t) for t in range(T)]
    r_cols = [model.index.col("adn_r_up", 0, t) for t in range(T)]
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


def test_low_reserve_bound_direction_and_printed_override():
    case = three_bus_case()
    G = build_ccp(case).problem.polytope.G

    def has_row(G, h_val, p_coef, r_coef, model):
        col_p = model.index.col("p", 0, 0)
        col_r = model.index.col("r_dn", 0, 0)
        h = model.problem.polytope.h
        for i in range(G.shape[0]):
            if G[i, col_p] == p_coef and G[i, col_r] == r_coef \
                    and h[i] == h_val:
                return True
        return False

    model = build_ccp(case)
    assert has_row(model.problem.polytope.G, -case.generators[0].p_min,
                   -1.0, 1.0, model)
    case.options["printed_low_reserve_bound"] = True
    printed = build_ccp(case)
    assert has_row(printed.problem.polytope.G, case.generators[0].p_min,
                   1.0, -1.0, printed)
    case.options.pop("printed_low_reserve_bound")


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
    assert model.index.value(report.x, "p", 0, 0) == pytest.approx(4.0)
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
        for t in range(T):
            vals.append(idx.value(x, "a_dn", pos, t) * op[t]
                        - idx.value(x, "r_dn", pos, t))
        for t in range(T):
            vals.append(-idx.value(x, "a_up", pos, t) * om[t]
                        - idx.value(x, "r_up", pos, t))
    elif kind == "adn":
        op = xi[:T]
        pl, pu = xi[T:2 * T], xi[2 * T:3 * T]
        el, eu = xi[3 * T:4 * T], xi[4 * T:5 * T]
        p = idx.series(x, "adn_p", pos)
        r = idx.series(x, "adn_r_up", pos)
        a = idx.series(x, "adn_a_up", pos)
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
                    idx.value(x, "p", gi, t)
                    - idx.value(x, "a_dn", gi, t) * op[t]
                    - idx.value(x, "a_up", gi, t) * om[t])
            for w in range(W):
                f = case.wind.farms[w]
                flow += psi[case.network.bus_pos(f.bus)] * (
                    f.forecast[t] + xi[w * T + t])
            for di, d in enumerate(case.adns):
                flow -= psi[case.network.bus_pos(d.bus)] * (
                    idx.value(x, "adn_p", di, t)
                    + idx.value(x, "adn_a_up", di, t) * op[t])
            for b in case.network.buses:
                flow -= psi[case.network.bus_pos(b.id)] * b.fixed_load[t]
            vals.append(flow - cap)
            vals.append(-flow - cap)
    return np.array(vals, dtype=float)


def test_bi_affine_encoding_matches_direct_formulas(three_bus_model):
    model = three_bus_model
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

def test_audit_clean_on_solved_three_bus(three_bus_model):
    report = solve_also_x_multi(three_bus_model.problem)
    assert report.is_feasible
    audit = audit_dispatch(three_bus_model, report.x)
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
    x[model.index.col("seg", 0, 1, 0)] = 1.0
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


def test_overlap_sweep_separates_methods():
    rows = rho_sweep(overlap_case(), [0.0, 1e-2])
    by = {(r["rho"], r["method"]): r for r in rows}
    assert by[(0.0, "cvar")]["status"] == "infeasible"
    assert by[(1e-2, "cvar")]["status"] == "infeasible"
    assert by[(0.0, "also-x")]["status"] == "feasible"
    assert by[(0.0, "also-x")]["cost"] == pytest.approx(25.8)
    assert by[(1e-2, "also-x")]["cost"] >= by[(0.0, "also-x")]["cost"] - 1e-9


def test_rho_sweep_rejects_negative_radius():
    with pytest.raises(ModelError, match="nonnegative"):
        rho_sweep(overlap_case(), [-0.1])


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


def test_embedded_test_sets_match_group_layout(three_bus_model):
    sets = three_bus_model.test_sample_sets()
    assert sets is not None and len(sets) == 6
    for g, ts in zip(three_bus_model.problem.groups, sets):
        assert ts.dim == g.constraints[0].xi_dim
        assert ts.n == 100
