import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jccopt import (BiAffineConstraint, CcpProblem, JccGroup, ModelError,
                    Polytope, SampleSet, evaluate_group, problem_from_dict,
                    problem_to_dict, validate_problem)
from jccopt.cases import three_bus_case
from jccopt.dispatch import build_ccp
from jccopt.model import dual_norm, norm_value
from jccopt.toys import interval_toy, two_group_toy

from helpers import random_instance


def test_dual_norm_pairs():
    assert dual_norm("l1") == "linf"
    assert dual_norm("linf") == "l1"
    assert dual_norm("l2") == "l2"
    with pytest.raises(ModelError):
        dual_norm("l3")


def test_norm_value_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 8))
        assert norm_value(v, "l1") == pytest.approx(np.linalg.norm(v, 1))
        assert norm_value(v, "l2") == pytest.approx(np.linalg.norm(v, 2))
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
    got = group.values(x, data, rho)
    ref = _reference_values(group, np.asarray(x, dtype=float),
                            group.samples.data if data is None else data,
                            group.rho if rho is None else rho)
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
    g = JccGroup([BiAffineConstraint(A=np.eye(2), a0=[0.5, -0.0], c=[1.0, 0.0])],
                 SampleSet([[0.3, -0.2]]), epsilon=0.0, rho=0.5, norm="l2")
    _assert_values_match_reference(g, [3.0, 4.0])


def test_robustification_monotone_in_rho():
    rng = np.random.default_rng(5)
    g = BiAffineConstraint(A=rng.normal(size=(3, 2)), a0=rng.normal(size=3),
                           c=rng.normal(size=2), d=0.3)
    x = rng.normal(size=2)
    xi = rng.normal(size=3)
    group = JccGroup([g], SampleSet(xi[None, :]), epsilon=0.0, norm="l1")
    vals = [group.values(x, rho=rho)[0, 0] for rho in (0.0, 0.01, 0.1, 0.5, 2.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # rho=0 is bit-equal to the raw constraint
    assert vals[0] == (xi[None, :] @ (g.A @ x + g.a0) + float(g.c @ x + g.d))[0]


def test_robustified_l2_point_eval_works():
    g = BiAffineConstraint(A=np.eye(2), a0=[0.0, 0.0], c=[0.0, 0.0], d=0.0)
    group = JccGroup([g], SampleSet([[0.0, 0.0]]), epsilon=0.0, rho=0.5, norm="l2")
    # a(x) = x, margin = 0.5*||x||_2
    assert group.values([3.0, 4.0])[0, 0] == pytest.approx(2.5)


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
    s.to_csv(path, header=["a", "b", "c"])
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
    with pytest.raises(ModelError, match="nonnegative"):
        JccGroup(constraints=[con], samples=samples, epsilon=0.1, rho=-1.0)
    with pytest.raises(ModelError, match="dim"):
        JccGroup(constraints=[con],
                 samples=SampleSet(np.zeros((3, 2))), epsilon=0.1)


def test_validate_problem_clean_toy():
    assert validate_problem(interval_toy(0.4)) == []
    assert validate_problem(two_group_toy(0)) == []


def test_validate_problem_diagnostics():
    p = interval_toy(0.4)
    p.groups[0].epsilon = 1.0  # mutate past the constructor guard
    notes = validate_problem(p)
    assert any("outside [0, 1)" in n for n in notes)

    q = interval_toy(0.1)
    notes = validate_problem(q)
    assert any("< 1" in n for n in notes)  # eps*n = 0.5, nothing droppable

    r = two_group_toy(1)
    r.groups[1].label = r.groups[0].label
    assert any("not unique" in n for n in validate_problem(r))


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


def test_bi_affine_A_reads_back_exactly():
    rng = np.random.default_rng(11)
    mats = [np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -2.0]]),
            np.full((2, 3), -0.0), np.zeros((1, 4)), np.array([[3.0]])]
    for _ in range(20):
        k, n = rng.integers(1, 6, size=2)
        M = np.where(rng.random((k, n)) < 0.3, rng.normal(size=(k, n)), 0.0)
        M[rng.random((k, n)) < 0.2] = -0.0
        mats.append(M)
    for M in mats:
        con = BiAffineConstraint(A=M, a0=np.zeros(M.shape[0]), c=np.zeros(M.shape[1]))
        A = con.A
        assert A.shape == M.shape and A.dtype == np.float64
        assert np.array_equal(A, M)
        assert np.array_equal(np.signbit(A), np.signbit(M))
        assert con.A_index.size == _stored(M)
        assert con.A is not con.A
        A[...] = 7.0  # a read is a copy: the constraint does not change
        assert np.array_equal(con.A, M)


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
