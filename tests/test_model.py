import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jccopt import (BiAffineConstraint, CcpProblem, JccGroup, ModelError,
                    Polytope, SampleSet, evaluate_group, problem_from_dict,
                    problem_to_dict)
from jccopt.cases import three_bus_case
from jccopt.dispatch import build_ccp
from jccopt.model import ViolationReport, dual_norm, norm_value, risk_budget
from jccopt.toys import INTERVAL_SCENARIOS, interval_toy, two_group_toy

from helpers import random_instance


def test_dual_norm_pairs():
    assert dual_norm("l1") == "linf"
    assert dual_norm("linf") == "l1"
    with pytest.raises(ModelError):
        dual_norm("l3")


def test_norm_value_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 8))
        assert norm_value(v, "l1") == pytest.approx(np.linalg.norm(v, 1))
        assert norm_value(v, "linf") == pytest.approx(np.linalg.norm(v, np.inf))


def test_dual_norm_is_support_function():
    # rho*||a||_inf must equal max of zeta'a over the l1 ball of radius rho;
    # the maximizer puts all mass on one largest-|a| coordinate.
    rng = np.random.default_rng(11)
    rho = 0.7
    for _ in range(1000):
        a = rng.normal(size=rng.integers(1, 6))
        support = rho * np.max(np.abs(a))
        k = np.argmax(np.abs(a))
        zeta = np.zeros_like(a)
        zeta[k] = rho * np.sign(a[k]) if a[k] != 0 else rho
        assert abs(support - zeta @ a) <= 1e-9
        assert norm_value(a, dual_norm("l1")) * rho == pytest.approx(support, abs=1e-9)


def _reference_values(group, x, data, rho):
    """Per-constraint worst-case values, written out one constraint at a
    time: the formula ``JccGroup.values`` must reproduce bit for bit."""
    cols = []
    for con in group.constraints:
        a = con.A @ x + con.a0
        b = float(con.c @ x + con.d)
        margin = 0.0 if rho == 0.0 else rho * norm_value(a, dual_norm(group.norm))
        cols.append(margin + (data @ a + b))
    return np.column_stack(cols)


def _assert_values_match_reference(group, x, data=None, rho=None):
    """``group`` scored on ``data`` at radius ``rho`` where given: its copy
    with those samples and that radius."""
    if data is not None:
        group = dataclasses.replace(group, samples=SampleSet(data))
    if rho is not None:
        group = dataclasses.replace(group, rho=rho)
    got = group.values(x)
    ref = _reference_values(group, np.asarray(x, dtype=float),
                            group.samples.data, group.rho)
    assert got.shape == (ref.shape[0], len(group.constraints))
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_group_values_equal_the_per_constraint_formula():
    rng = np.random.default_rng(23)
    for rho in (0.0, 0.01):
        p = build_ccp(three_bus_case(), rho_override=rho).problem
        for _ in range(3):
            x = rng.uniform(-1.0, 3.0, size=p.n_vars)
            for g in p.groups:
                _assert_values_match_reference(g, x)
                _assert_values_match_reference(g, x, rho=0.0)
    for seed in range(20):  # l1 and linf groups, with -0.0 entries
        for g in random_instance(seed).groups:
            cons = []
            for con in g.constraints:
                A = con.A
                A[rng.random(A.shape) < 0.3] = -0.0
                cons.append(BiAffineConstraint(
                    A, np.where(con.a0 == 0.0, -0.0, con.a0), con.c, -0.0))
            g = JccGroup(cons, g.samples, g.epsilon, norm=g.norm)
            for rho in (0.0, 0.02):
                for x in (rng.uniform(0.0, 10.0, size=g.x_dim),
                          np.zeros(g.x_dim), np.full(g.x_dim, -0.0)):
                    _assert_values_match_reference(g, x, rho=rho)
                    held_out = rng.uniform(0.2, 1.0, size=(3, g.samples.dim))
                    _assert_values_match_reference(g, x, held_out, rho)


def test_robustification_monotone_in_rho():
    rng = np.random.default_rng(5)
    g = BiAffineConstraint(A=rng.normal(size=(3, 2)), a0=rng.normal(size=3),
                           c=rng.normal(size=2), d=0.3)
    x = rng.normal(size=2)
    xi = rng.normal(size=3)
    group = JccGroup([g], SampleSet(xi[None, :]), epsilon=0.0, norm="l1")
    vals = [dataclasses.replace(group, rho=rho).values(x)[0, 0]
            for rho in (0.0, 0.01, 0.1, 0.5, 2.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # rho=0 is bit-equal to the raw constraint
    assert vals[0] == (xi[None, :] @ (g.A @ x + g.a0) + float(g.c @ x + g.d))[0]


@pytest.mark.parametrize("norm", ["l2", "l3"])
def test_a_norm_no_lp_can_solve_fails_at_construction_and_at_load(norm):
    """Only l1 and linf margins embed in an LP; any other norm fails when
    its group is built, and a problem file names the field, even at rho 0."""
    g = BiAffineConstraint(A=np.eye(2), a0=[0.0, 0.0], c=[0.0, 0.0], d=0.0)
    with pytest.raises(ModelError, match=f"unknown norm '{norm}'"):
        JccGroup([g], SampleSet([[0.0, 0.0]]), epsilon=0.0, rho=0.5, norm=norm)
    data = problem_to_dict(interval_toy(0.4))
    data["groups"][0]["norm"] = norm
    with pytest.raises(ModelError, match=rf"^/groups/0/norm: unknown norm '{norm}'; "
                       r"expected one of \('l1', 'linf'\)$"):
        problem_from_dict(data)


def test_evaluate_group_interval_toy():
    p = interval_toy(0.4)
    rep = evaluate_group(p.groups[0], np.array([3.0]))
    assert rep.n == 5
    assert rep.n_satisfied == 3
    assert rep.rate == 3 / 5
    assert rep.violation_rate == 2 / 5
    # worst value per scenario: max(lo - x, x - hi)
    lo, hi = p.groups[0].samples.data.T
    np.testing.assert_allclose(rep.worst, np.maximum(lo - 3.0, 3.0 - hi))
    assert rep.satisfied  # 0.4 <= eps


def test_held_out_set_of_the_wrong_dimension_is_a_model_error():
    # Held-out scoring builds the group's copy on the held-out set, whose
    # own check names the constraint and both dimensions.
    group = interval_toy(0.4).groups[0]
    with pytest.raises(ModelError, match=re.escape(
            "group 'interval': constraint 0 expects xi of dim 2, samples "
            "have dim 3")):
        evaluate_group(group, np.array([3.0]), SampleSet(np.zeros((4, 3))))


@pytest.mark.parametrize("epsilon, n, budget", [
    (0.0, 50, 0), (0.05, 19, 0), (0.05, 20, 1), (0.1, 30, 3), (0.29, 100, 29),
    (0.4, 5, 2), (0.8, 20, 16), (0.7, 10, 7)])
def test_risk_budget_is_floor_of_epsilon_n(epsilon, n, budget):
    # 0.29 * 100 is 28.999999999999996 in floats: the budget is still 29.
    assert risk_budget(epsilon, n) == budget
    for violated in range(n + 1):
        report = ViolationReport("g", epsilon, 0.0, n - violated, n, np.zeros(n))
        assert report.satisfied == (violated <= budget)
        # the rate rule the budget replaced, to the last bit
        assert report.satisfied == (violated / n <= epsilon + 1e-12)


@given(st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_rate_is_a_multiple_of_one_over_n(n, seed):
    rng = np.random.default_rng(seed)
    g = JccGroup(
        constraints=[BiAffineConstraint(A=np.zeros((1, 1)), a0=[1.0], c=[-1.0])],
        samples=SampleSet(rng.normal(size=(n, 1))), epsilon=0.3)
    rep = evaluate_group(g, rng.normal(size=1))
    assert 0.0 <= rep.rate <= 1.0
    assert rep.rate * n == pytest.approx(round(rep.rate * n))


def test_sample_set_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    s = SampleSet(rng.normal(size=(7, 3)))
    path = tmp_path / "s.csv"
    s.to_csv(path)
    back = SampleSet.from_csv(path)
    assert np.array_equal(back.data, s.data)  # bitwise via repr() floats


def test_sample_set_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ModelError, match="ragged"):
        SampleSet.from_csv(ragged)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ModelError, match="line 3"):
        SampleSet.from_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    with pytest.raises(ModelError, match="no scenario rows"):
        SampleSet.from_csv(empty)


def test_empty_sample_set_is_a_model_error():
    # every scored set needs a rate, which an empty one would divide 0 by 0
    with pytest.raises(ModelError, match="^a scenario set may not be empty$"):
        SampleSet(np.zeros((0, 2)))


@pytest.mark.parametrize("data", [[], np.zeros(0)], ids=["list", "vector"])
def test_an_empty_vector_is_no_scenario(data):
    # atleast_2d alone would read an empty vector as one scenario of dim 0
    with pytest.raises(ModelError, match="^a scenario set may not be empty$"):
        SampleSet(data)


def test_empty_problem_samples_name_their_path():
    d = problem_to_dict(interval_toy(0.4))
    d["groups"][0]["samples"] = []
    with pytest.raises(ModelError, match="^/groups/0/samples: a scenario set "
                       "may not be empty$"):
        problem_from_dict(d)


def test_sample_set_rejects_non_finite():
    with pytest.raises(ModelError, match="finite"):
        SampleSet(np.array([[1.0, np.nan]]))


def test_group_constructor_guards():
    samples = SampleSet(np.zeros((3, 1)))
    con = BiAffineConstraint(A=np.zeros((1, 1)), a0=[1.0], c=[-1.0])
    with pytest.raises(ModelError, match="at least one"):
        JccGroup(constraints=[], samples=samples, epsilon=0.1)
    with pytest.raises(ModelError, match=r"\[0, 1\)"):
        JccGroup(constraints=[con], samples=samples, epsilon=1.0)
    for rho in (-1.0, np.nan, np.inf):
        with pytest.raises(ModelError, match="rho must be finite and nonnegative"):
            JccGroup(constraints=[con], samples=samples, epsilon=0.1, rho=rho)
    with pytest.raises(ModelError, match="rho must be finite and nonnegative"):
        interval_toy(0.4, rho=np.nan)
    with pytest.raises(ModelError, match="dim"):
        JccGroup(constraints=[con],
                 samples=SampleSet(np.zeros((3, 2))), epsilon=0.1)


def test_problem_json_roundtrip_bitwise():
    p = two_group_toy(3)
    blob = json.dumps(problem_to_dict(p))
    q = problem_from_dict(json.loads(blob))
    assert np.array_equal(q.objective, p.objective)
    assert q.var_names == p.var_names
    assert np.array_equal(q.polytope.lower, p.polytope.lower)
    assert np.array_equal(q.polytope.upper, p.polytope.upper)
    assert np.array_equal(q.polytope.A_eq, p.polytope.A_eq)
    assert np.array_equal(q.polytope.b_eq, p.polytope.b_eq)
    assert len(q.groups) == len(p.groups)
    for ga, gb in zip(q.groups, p.groups):
        assert ga.label == gb.label
        assert ga.epsilon == gb.epsilon
        assert ga.rho == gb.rho
        assert ga.norm == gb.norm
        assert np.array_equal(ga.samples.data, gb.samples.data)
        for ca, cb in zip(ga.constraints, gb.constraints):
            assert np.array_equal(ca.A, cb.A)
            assert np.array_equal(ca.a0, cb.a0)
            assert np.array_equal(ca.c, cb.c)
            assert ca.d == cb.d


def _stored(M):
    return np.count_nonzero((M != 0.0) | np.signbit(M))


def _A_matrices():
    """Constraint matrices with signed zeros, all-zero ones and random
    sparse ones."""
    rng = np.random.default_rng(11)
    mats = [np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -2.0]]),
            np.full((2, 3), -0.0), np.zeros((1, 4)), np.array([[3.0]])]
    for _ in range(20):
        k, n = rng.integers(1, 6, size=2)
        M = np.where(rng.random((k, n)) < 0.3, rng.normal(size=(k, n)), 0.0)
        M[rng.random((k, n)) < 0.2] = -0.0
        mats.append(M)
    return mats


def test_bi_affine_A_reads_back_exactly():
    for M in _A_matrices():
        con = BiAffineConstraint(A=M, a0=np.zeros(M.shape[0]), c=np.zeros(M.shape[1]))
        A = con.A
        assert A.shape == M.shape and A.dtype == np.float64
        assert np.array_equal(A, M)
        assert np.array_equal(np.signbit(A), np.signbit(M))
        assert con.A_index.size == _stored(M)
        assert con.A is not con.A
        A[...] = 7.0  # a read is a copy: the constraint does not change
        assert np.array_equal(con.A, M)


def _one_constraint_problem(M):
    con = BiAffineConstraint(A=M, a0=np.zeros(M.shape[0]), c=np.ones(M.shape[1]))
    g = JccGroup(constraints=[con], samples=SampleSet(np.ones((2, M.shape[0]))),
                 epsilon=0.1)
    return CcpProblem(objective=np.ones(M.shape[1]), polytope=Polytope(), groups=[g])


def test_sparse_A_round_trips_bit_exactly():
    for M in _A_matrices():
        d = json.loads(json.dumps(problem_to_dict(_one_constraint_problem(M))))
        stored = np.flatnonzero((M != 0.0) | np.signbit(M))
        assert d["groups"][0]["constraints"][0]["A"] == {
            "shape": list(M.shape), "index": stored.tolist(),
            "value": M.ravel()[stored].tolist()}
        con = problem_from_dict(d).groups[0].constraints[0]
        assert con.A.tobytes() == M.tobytes()  # signs of zeros included
        assert np.array_equal(con.A_index, stored)


def test_dense_A_reads_to_the_same_problem():
    d = problem_to_dict(build_ccp(three_bus_case()).problem)
    dense = json.loads(json.dumps(d))
    for gd, g in zip(dense["groups"], problem_from_dict(d).groups):
        for cd, con in zip(gd["constraints"], g.constraints):
            cd["A"] = con.A.tolist()
    assert problem_to_dict(problem_from_dict(dense)) == d
    for M in _A_matrices():
        d = problem_to_dict(_one_constraint_problem(M))
        d["groups"][0]["constraints"][0]["A"] = M.tolist()
        assert problem_from_dict(d).groups[0].constraints[0].A.tobytes() == M.tobytes()


def _sparse_A_edit(key, value):
    def edit(A):
        A[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_sparse_A_edit("shape", [0, 3]),
     "/A/shape: expected two positive whole numbers, got [0, 3]"),
    (_sparse_A_edit("shape", [2, 1.5]),
     "/A/shape: expected two positive whole numbers, got [2, 1.5]"),
    (_sparse_A_edit("shape", [2, 3, 1]),
     "/A/shape: expected two positive whole numbers, got [2, 3, 1]"),
    (_sparse_A_edit("shape", "2x3"),
     "/A/shape: expected two positive whole numbers, got '2x3'"),
    (_sparse_A_edit("shape", [2, True]),
     "/A/shape: expected two positive whole numbers, got [2, True]"),
    (_sparse_A_edit("index", [1, 2.5, 5]),
     "/A/index/1: expected a whole number, got 2.5"),
    (_sparse_A_edit("index", [1, "2", 5]),
     "/A/index/1: expected a whole number, got str"),
    (_sparse_A_edit("index", [1, 2, 6]),
     "/A/index/2: 6 is out of range for shape [2, 3]"),
    (_sparse_A_edit("index", [-1, 2, 5]),
     "/A/index/0: -1 is out of range for shape [2, 3]"),
    (_sparse_A_edit("index", [2, 1, 5]),
     "/A/index/1: 1 is below the entry before; indices must be strictly increasing"),
    (_sparse_A_edit("index", [1, 1, 5]),
     "/A/index/1: 1 repeats the entry before; indices must be strictly increasing"),
    (_sparse_A_edit("value", [-0.0, float("nan"), -2.0]),
     "/A/value/1: expected a finite number, got nan"),
    (_sparse_A_edit("value", [-0.0, float("inf"), -2.0]),
     "/A/value/1: expected a finite number, got inf"),
    (_sparse_A_edit("value", [-0.0, None, -2.0]),
     "/A/value/1: expected a number, got NoneType"),
    (_sparse_A_edit("value", [-0.0, 1.5]), "/A: index has 3 entries, value 2"),
    (lambda A: A.pop("index"), "/A: missing field 'index'"),
    (_sparse_A_edit("value", 1.5), "/A/value: expected an array, got float"),
    (_sparse_A_edit("shape", [3, 3]),
     ": a0 must have length 3 (rows of A), got (2,)"),
], ids=["shape-zero", "shape-fraction", "shape-three", "shape-string", "shape-bool",
        "index-fraction", "index-string", "index-above", "index-below",
        "index-decreasing", "index-duplicate", "value-nan", "value-inf",
        "value-null", "lengths-differ", "index-missing", "value-not-array",
        "shape-against-a0"])
def test_sparse_A_malformed_forms_name_their_path(edit, message):
    M = np.array([[0.0, -0.0, 1.5], [0.0, 0.0, -2.0]])
    d = problem_to_dict(_one_constraint_problem(M))
    A = d["groups"][0]["constraints"][0]["A"]
    assert A == {"shape": [2, 3], "index": [1, 2, 5], "value": [-0.0, 1.5, -2.0]}
    edit(A)
    where = "/groups/0/constraints/0"
    with pytest.raises(ModelError, match=f"^{re.escape(where + message)}$"):
        problem_from_dict(d)


def test_three_bus_constraints_store_only_their_entries():
    p = build_ccp(three_bus_case()).problem
    cons = [con for g in p.groups for con in g.constraints]
    for con in cons:
        assert con.A_index.size == con.A_value.size == _stored(con.A)
    # 92 nonzeros and 24 negative zeros out of 55,488 dense entries.
    assert sum(con.A.size for con in cons) == 55488
    assert sum(np.count_nonzero(con.A) for con in cons) == 92
    assert sum(con.A_index.size for con in cons) == 116
    blob = json.dumps(problem_to_dict(p))
    assert json.dumps(problem_to_dict(problem_from_dict(json.loads(blob)))) == blob


def test_problem_json_omits_infinite_bounds():
    p = interval_toy(0.4)  # x unbounded both sides
    d = problem_to_dict(p)
    assert d["polytope"]["bounds"] == [{}]
    q = problem_from_dict(d)
    assert q.polytope.lower[0] == -np.inf
    assert q.polytope.upper[0] == np.inf
    assert "nan" not in json.dumps(d).lower()
    assert "inf" not in json.dumps(d).lower()


def test_problem_from_dict_pointer_errors():
    d = problem_to_dict(interval_toy(0.4))
    del d["groups"][0]["epsilon"]
    with pytest.raises(ModelError, match="/groups/0"):
        problem_from_dict(d)
    with pytest.raises(ModelError, match="/objective"):
        problem_from_dict({})


def test_group_fields_default_to_the_dataclass():
    d = problem_to_dict(two_group_toy(3))
    for gd in d["groups"]:
        for key in ("rho", "norm", "label"):
            del gd[key]
    q = problem_from_dict(d)
    assert [(g.rho, g.norm, g.label) for g in q.groups] == [
        (0.0, "l1", "group0"), (0.0, "l1", "group1")]


def test_bi_affine_shape_guards():
    with pytest.raises(ModelError, match="a0"):
        BiAffineConstraint(A=np.zeros((2, 1)), a0=[1.0], c=[0.0])
    with pytest.raises(ModelError, match="c must"):
        BiAffineConstraint(A=np.zeros((2, 1)), a0=[1.0, 0.0], c=[0.0, 1.0])
    with pytest.raises(ModelError, match="finite"):
        BiAffineConstraint(A=np.full((1, 1), np.inf), a0=[0.0], c=[0.0])


def test_ccp_problem_cross_validation():
    con = BiAffineConstraint(A=np.zeros((1, 2)), a0=[1.0], c=[-1.0, 0.0])
    g = JccGroup(constraints=[con], samples=SampleSet(np.zeros((2, 1))),
                 epsilon=0.1)
    with pytest.raises(ModelError, match="x-dim"):
        CcpProblem(objective=[1.0], polytope=Polytope(), groups=[g])


def test_polytope_validate_shapes():
    p = Polytope(G=[[1.0, 0.0]], h=[1.0])
    p.validate(2)
    assert p.lower.shape == (2,)
    with pytest.raises(ModelError, match="G must be"):
        Polytope(G=[[1.0]], h=[1.0]).validate(2)
    with pytest.raises(ModelError, match="together"):
        Polytope(G=[[1.0]]).validate(1)


@pytest.mark.parametrize("blocks, message", [
    ({"G": [[np.nan]], "h": [0.0]}, "polytope: G: entries must be finite"),
    ({"G": [[1.0]], "h": [np.inf]}, "polytope: h: entries must be finite"),
    ({"A_eq": [[np.inf]], "b_eq": [0.0]},
     "polytope: A_eq: entries must be finite"),
    ({"lower": [np.nan]}, "polytope: bounds may be infinite but not NaN"),
    ({"lower": [np.inf]},
     "polytope: a lower bound may not be +inf, nor an upper bound -inf"),
    ({"upper": [-np.inf]},
     "polytope: a lower bound may not be +inf, nor an upper bound -inf"),
], ids=["G-nan", "h-inf", "A_eq-inf", "lower-nan", "lower-plus-inf",
        "upper-minus-inf"])
def test_polytope_blocks_are_checked_when_the_problem_is_built(blocks, message):
    # the LP block rule, so a bad polytope fails here, not in its first LP
    con = BiAffineConstraint(A=np.zeros((1, 1)), a0=[1.0], c=[-1.0])
    g = JccGroup(constraints=[con], samples=SampleSet(np.zeros((2, 1))),
                 epsilon=0.1)
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        CcpProblem(objective=[1.0], polytope=Polytope(**blocks), groups=[g])


def test_interval_toys_do_not_share_scenarios():
    toy = interval_toy(0.4)
    toy.groups[0].samples.data[0, 0] = 99.0
    assert interval_toy(0.4).groups[0].samples.data[0, 0] == 1.0
    assert INTERVAL_SCENARIOS[0, 0] == 1.0
    with pytest.raises(ValueError):
        INTERVAL_SCENARIOS[0, 0] = 99.0


def test_every_export_resolves():
    import jccopt
    assert [name for name in jccopt.__all__ if not hasattr(jccopt, name)] == []


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_numpy_deprecations_in_jccopt_fail_the_tests(category):
    # pyproject's filterwarnings: raised from a jccopt module, an error.
    with pytest.raises(category):
        warnings.warn_explicit("deprecated", category, "model.py", 1,
                               module="jccopt.model")
