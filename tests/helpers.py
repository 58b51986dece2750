"""Shared fixtures-by-construction for the solver tests."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from jccopt import (OPTIMAL, UNBOUNDED, BiAffineConstraint, CcpProblem,
                    JccGroup, LpProblem, ModelError, NumericError, Polytope,
                    SampleSet, SStepAssembler, algorithms, lp, shortfalls,
                    solve_lp)
from jccopt.algorithms import (_hard_rows, _point, _report, cvar_lp,
                               scenario_hard_lp)
from jccopt.model import NORMS, risk_budget


def s_step(problem: CcpProblem, z: list[np.ndarray], f: float):
    """Weighted-shortfall LP at level f with per-group weights ``z``, solved
    cold on a fresh skeleton: the single step that ``inner_alternation``
    repeats on a warm session.

    Returns (x, shortfall list, lp status); (None, None, 'infeasible') when
    the polytope cannot reach the level.  Shortfalls are recomputed from x
    (zero-weight scenarios have free LP slots, the canonical value is what
    the activation step should rank).
    """
    asm = SStepAssembler(problem)
    sol = solve_lp(asm.lp_at(f, z))
    if sol.status == UNBOUNDED:
        raise NumericError(
            "shortfall LP unbounded: the polytope is unbounded along a "
            "direction that the level row does not cap")
    if sol.status != OPTIMAL:
        return None, None, sol.status
    x = sol.x[:problem.n_vars]
    return x, shortfalls(problem, x), sol.status


def z_step_lp(s: np.ndarray, epsilon: float) -> np.ndarray:
    """LP formulation of the activation step, the reference that the
    closed-form z_step is checked against."""
    s = np.asarray(s, dtype=float)
    n = s.size
    p = LpProblem(s, G=-np.ones((1, n)) / n, h=np.array([-(1.0 - epsilon)]),
                  lower=np.zeros(n), upper=np.ones(n))
    sol = solve_lp(p)
    if sol.status != OPTIMAL:
        raise NumericError(f"activation LP came back {sol.status}")
    return sol.x


def cold_oracle(problem: CcpProblem):
    """The oracle as one cold LP per keep-set, in enumeration order under
    a strict ``<``: the reference that the screened ``solve_oracle`` must
    reproduce bit for bit."""
    asm = SStepAssembler(problem)
    pools = [list(itertools.combinations(
                 range(g.n), g.n - risk_budget(g.epsilon, g.n)))
             for g in problem.groups]
    best_obj = np.inf
    best_x = None
    for combo in itertools.product(*pools):
        masks = []
        for g, subset in zip(problem.groups, combo):
            mask = np.zeros(g.n, dtype=bool)
            mask[list(subset)] = True
            masks.append(mask)
        sol = lp.solve_lp(scenario_hard_lp(asm, masks))
        x = _point(sol, problem, "oracle subproblem")
        if x is not None and sol.objective < best_obj:
            best_obj, best_x = sol.objective, x
    return _report(problem, algorithms.METHOD_ORACLE, best_x)


# How far a dropped scenario's rows are relaxed in ``exact_optimum``.
EXACT_BIG_M = 1e3


def exact_optimum(problem: CcpProblem):
    """The exact sample optimum from HiGHS's MILP (Luedtke & Ahmed's
    big-M form of the sampled problem): the all-kept hard LP, plus one
    binary per (group, scenario) that relaxes that scenario's rows by
    EXACT_BIG_M, at most floor(eps*n) of them per group.  The selection
    it picks is re-solved with ``solve_lp``, and the report is that
    LP's.  Fails when a relaxed row at the MILP point is not below
    EXACT_BIG_M / 2: M may then have cut off the optimum."""
    asm = SStepAssembler(problem)
    all_kept = [np.ones(g.n, dtype=bool) for g in problem.groups]
    full = scenario_hard_lp(asm, all_kept)
    # Row of ``full`` that each skeleton row became.
    position = np.zeros(asm.lp_template.h.size, dtype=int)
    kept = _hard_rows(asm, all_kept)
    position[kept] = np.arange(kept.size)
    n_x, n_bin = full.c.size, sum(g.n for g in problem.groups)
    relax = np.zeros((full.h.size, n_bin))
    budget = np.zeros((problem.n_groups, n_bin))
    first = np.cumsum([0] + [g.n for g in problem.groups])
    for gi, g in enumerate(problem.groups):
        cols = first[gi] + np.arange(g.n)
        relax[position[asm.scenario_rows[gi]], cols] = -EXACT_BIG_M
        budget[gi, cols] = 1.0
    constraints = [
        LinearConstraint(np.hstack([full.G, relax]), -np.inf, full.h),
        LinearConstraint(np.hstack([np.zeros((problem.n_groups, n_x)), budget]),
                         -np.inf, [risk_budget(g.epsilon, g.n)
                                   for g in problem.groups])]
    if full.A_eq is not None:
        constraints.append(LinearConstraint(
            np.hstack([full.A_eq, np.zeros((full.A_eq.shape[0], n_bin))]),
            full.b_eq, full.b_eq))
    res = milp(np.r_[full.c, np.zeros(n_bin)], constraints=constraints,
               integrality=np.r_[np.zeros(n_x), np.ones(n_bin)],
               bounds=Bounds(np.r_[full.lower, np.zeros(n_bin)],
                             np.r_[full.upper, np.ones(n_bin)]),
               options={"mip_rel_gap": 0.0})
    if res.status == 2:  # infeasible
        return _report(problem, algorithms.METHOD_ORACLE, None)
    assert res.status == 0, res.message
    dropped = res.x[n_x:] > 0.5
    rows = np.flatnonzero(relax[:, dropped].any(axis=1))
    excess = full.G[rows] @ res.x[:n_x] - full.h[rows]
    assert np.all(excess < 0.5 * EXACT_BIG_M), "big-M too small"
    masks = np.split(~dropped, first[1:-1])
    x = _point(solve_lp(scenario_hard_lp(asm, masks)), problem,
               "exact-optimum LP")
    return _report(problem, algorithms.METHOD_ORACLE, x)


def over_cap_problem() -> CcpProblem:
    """One variable, one group of 40 scenarios at epsilon 0.5: more subset
    combinations than the oracle enumerates."""
    g = JccGroup(
        constraints=[BiAffineConstraint(A=np.zeros((1, 1)), a0=[1.0], c=[-1.0])],
        samples=SampleSet(np.linspace(0, 1, 40)[:, None]), epsilon=0.5)
    return CcpProblem(objective=[1.0], polytope=Polytope(lower=[0.0]), groups=[g])


def random_instance(seed: int) -> CcpProblem:
    """Small covering-style instance with benign geometry.

    Each constraint reads xi_j <= row.x (+ small bi-affine coupling), so
    x = 10*ones covers every scenario: the mean-value LP and CVaR stay
    feasible and the oracle enumeration stays tiny.  Dimensions respect
    dim x <= 3, M <= 2, n_l <= 6, m_l <= 3.
    """
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 4))
    n_groups = int(rng.integers(1, 3))
    groups = []
    for gi in range(n_groups):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(4, 7))
        cons = []
        for j in range(m):
            a0 = np.zeros(m)
            a0[j] = 1.0
            cons.append(BiAffineConstraint(
                A=rng.uniform(0.0, 0.02, size=(m, nx)),
                a0=a0,
                c=-rng.uniform(0.1, 1.0, size=nx),
                d=-float(rng.uniform(0.0, 0.2))))
        groups.append(JccGroup(
            constraints=cons,
            samples=SampleSet(rng.uniform(0.2, 1.0, size=(n, m))),
            epsilon=float(rng.choice([0.25, 1.0 / 3.0, 0.4, 0.5])),
            rho=float(rng.choice([0.0, 0.02])),
            norm=str(rng.choice(["l1", "linf"])),
            label=f"g{gi}"))
    return CcpProblem(
        objective=rng.uniform(0.5, 2.0, size=nx),
        polytope=Polytope(lower=np.zeros(nx), upper=np.full(nx, 10.0)),
        groups=groups)


def perfbench_inputs():
    """The benchmark's seeded case generators, imported by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_dispatch_case(seed: int):
    """Small feasible dispatch case for audit sweeps.

    Loads dominate wind so net demand stays above the p_min floor, error
    clipping keeps the reserve requirement inside the down-headroom, and
    boundary windows bracket a base trajectory with slack.  T=2 keeps the
    LPs tiny.
    """
    from jccopt import (Adn, Bus, DispatchCase, Generator, Line, Network,
                        Segment, WindFarm, WindScenarioSet)

    rng = np.random.default_rng(seed)
    T, dt, n = 2, 0.5, 4
    nb = int(rng.integers(1, 3))
    buses = [Bus(b, np.zeros(T)) for b in range(nb)]
    buses[-1].fixed_load = rng.uniform(4.0, 7.0, size=T)
    lines = []
    if nb == 2:
        lines.append(Line(0, 1, capacity=50.0, reactance=1.0, epsilon=0.25))
    network = Network(buses=buses, lines=lines, slack_bus=0)

    gens = []
    for gi in range(int(rng.integers(1, 3))):
        p_min = float(rng.uniform(0.1, 0.3))
        span = float(rng.uniform(8.0, 12.0))
        n_seg = int(rng.integers(1, 3))
        costs = np.sort(rng.uniform(5.0, 30.0, size=n_seg))
        if n_seg == 1:
            widths = [span]
        else:
            cut = float(rng.uniform(0.3, 0.7)) * span
            widths = [cut, span - cut]
        gens.append(Generator(
            bus=int(rng.integers(0, nb)), p_min=p_min, p_max=p_min + span,
            ramp_dn=-20.0, ramp_up=20.0,
            segments=[Segment(w, c) for w, c in zip(widths, costs)],
            fixed_cost=float(rng.uniform(0.0, 2.0)),
            reserve_cost_up=float(rng.uniform(1.0, 4.0)),
            reserve_cost_dn=float(rng.uniform(1.0, 4.0)),
            epsilon=0.25, name=f"g{gi}"))

    adns = []
    if rng.random() < 0.5:
        base = rng.uniform(1.0, 2.0, size=T)
        p_lo = base - 1.5 - 0.3 * rng.uniform(size=(n, T))
        p_hi = base + 1.5 + 0.3 * rng.uniform(size=(n, T))
        e_base = dt * np.cumsum(base)
        adns.append(Adn(
            bus=nb - 1, p_lower=p_lo, p_upper=p_hi,
            e_lower=e_base - 1.0 - 0.2 * rng.uniform(size=(n, T)),
            e_upper=e_base + 1.0 + 0.2 * rng.uniform(size=(n, T)),
            reserve_cost_up=float(rng.uniform(0.5, 2.0)),
            epsilon=0.25, name="d0"))

    wind = None
    if rng.random() < 0.5:
        wind = WindScenarioSet(
            farms=[WindFarm(bus=min(1, nb - 1),
                            forecast=rng.uniform(0.5, 1.5, size=T))],
            errors=np.clip(rng.normal(0.0, 0.2, size=(n, 1, T)), -0.5, 0.5))

    case = DispatchCase(horizon=T, step=dt, network=network, generators=gens,
                        adns=adns, wind=wind)
    case.validate()
    return case


def scipy_solve(p: LpProblem):
    """scipy's HiGHS on the LP p."""
    bounds = list(zip(np.where(np.isfinite(p.lower), p.lower, None),
                      np.where(np.isfinite(p.upper), p.upper, None)))
    return linprog(p.c, A_ub=p.G, b_ub=p.h, A_eq=p.A_eq, b_eq=p.b_eq,
                   bounds=bounds, method="highs")


def all_groups_cvar(problem: CcpProblem):
    """The CVaR report from one solve of the all-groups CVaR LP, the
    reference for the working-set ``solve_cvar``."""
    x = _point(solve_lp(cvar_lp(problem)), problem, "CVaR LP")
    return _report(problem, algorithms.METHOD_CVAR, x)


def mean_point(problem: CcpProblem) -> np.ndarray:
    """The mean-value LP's point, where ``_binding_groups`` seeds a
    working set."""
    return solve_lp(algorithms.mean_value_lp(problem)).x


def norm_value(v: np.ndarray, norm: str) -> float:
    """The l1 or linf norm of the vector v, one sum or max at a time: the
    reference for ``model._row_norms``."""
    v = np.asarray(v, dtype=float)
    if norm == "l1":
        return float(np.sum(np.abs(v)))
    if norm == "linf":
        return float(np.max(np.abs(v), initial=0.0))
    raise ModelError(f"unknown norm {norm!r}; expected one of {NORMS}")


def _dense(shape, entries=()) -> np.ndarray:
    """Zeros of ``shape`` with ``out[index] = value`` for each (index,
    value) entry, in order."""
    out = np.zeros(shape)
    for index, value in entries:
        out[index] = value
    return out


def _constraint(k: int, nv: int, A=(), a0=(), c=(), d: float = 0.0):
    """The dense (A, a0, c, d) of xi'(A x + a0) + c'x + d <= 0 over xi of
    length k and x of length nv, from the (index, value) entries of A, a0
    and c."""
    return _dense((k, nv), A), _dense(k, a0), _dense(nv, c), float(d)


def dense_dispatch_rows(case):
    """The rows that ``dispatch.build_ccp`` compiles, assembled one dense
    row and one dense member at a time: the reference for its index
    arithmetic.  Returns (G, h, A_eq, b_eq) and, per group in group
    order, the dense (A, a0, c, d) of each member."""
    from jccopt.dispatch import VarIndex, _net_load

    T, dt = case.horizon, case.step
    idx = VarIndex(case)
    nv = idx.n_vars
    gens, adns, lines = case.generators, case.adns, case.network.lines

    # segment anchoring: p[g,t] - sum_s seg[g,s,t] = p_min
    eq = [(_dense(nv, [(idx.p[gi, t], 1.0), (idx.seg[gi][:, t], -1.0)]),
           g.p_min) for gi, g in enumerate(gens) for t in range(T)]
    # balance: sum_g p + sum_w forecast = sum_d adn_p + fixed load
    load, forecast = _net_load(case)
    eq += [(_dense(nv, [(idx.p[:, t], 1.0), (idx.adn_p[:, t], -1.0)]),
            load[t] - forecast[t]) for t in range(T)]
    # participation partitions
    eq += [(_dense(nv, [(idx.a_up[:, t], 1.0)]), 1.0) for t in range(T)]
    eq += [(_dense(nv, [(idx.a_dn[:, t], 1.0), (idx.adn_a_up[:, t], 1.0)]),
            1.0) for t in range(T)]
    ineq = []
    for gi, g in enumerate(gens):
        p = idx.p[gi]
        for t in range(T):
            # p + r_up <= p_max; headroom below: p - r_dn >= p_min
            ineq.append((_dense(nv, [(p[t], 1.0), (idx.r_up[gi, t], 1.0)]),
                         g.p_max))
            ineq.append((_dense(nv, [(p[t], -1.0), (idx.r_dn[gi, t], 1.0)]),
                         -g.p_min))
        for t in range(T - 1):
            # ramp_dn*dt <= p[t+1] - p[t] <= ramp_up*dt
            row = _dense(nv, [(p[t + 1], 1.0), (p[t], -1.0)])
            ineq += [(row, g.ramp_up * dt), (-row, -g.ramp_dn * dt)]
    G, h = (np.array(v) for v in zip(*ineq))
    A_eq, b_eq = (np.array(v) for v in zip(*eq))

    groups = []
    for gi, g in enumerate(gens):
        # xi = [omega_plus (T), omega_minus (T)];
        # a_dn * omega_plus - r_dn <= 0, then -a_up * omega_minus - r_up <= 0
        k = 2 * T
        groups.append(
            [_constraint(k, nv, A=[((t, idx.a_dn[gi, t]), 1.0)],
                         c=[(idx.r_dn[gi, t], -1.0)]) for t in range(T)]
            + [_constraint(k, nv, A=[((T + t, idx.a_up[gi, t]), -1.0)],
                           c=[(idx.r_up[gi, t], -1.0)]) for t in range(T)])
    for di, d in enumerate(adns):
        # xi = [omega_plus (T), p_lo (T), p_hi (T), e_lo (T), e_hi (T)]
        p, r, a = idx.adn_p[di], idx.adn_r_up[di], idx.adn_a_up[di]
        k = 5 * T
        groups.append(
            # p_lo_t - adn_p_t <= 0
            [_constraint(k, nv, a0=[(T + t, 1.0)], c=[(p[t], -1.0)])
             for t in range(T)]
            # adn_p_t + r_t - p_hi_t <= 0
            + [_constraint(k, nv, a0=[(2 * T + t, -1.0)],
                           c=[(p[t], 1.0), (r[t], 1.0)]) for t in range(T)]
            # e_lo_t - dt*sum_{tau<=t} adn_p_tau <= 0
            + [_constraint(k, nv, a0=[(3 * T + t, 1.0)], c=[(p[:t + 1], -dt)])
               for t in range(T)]
            # dt*sum_{tau<=t} (adn_p + r) - e_hi_t <= 0
            + [_constraint(k, nv, a0=[(4 * T + t, -1.0)],
                           c=[(p[:t + 1], dt), (r[:t + 1], dt)])
               for t in range(T)]
            # a_up * omega_plus - r <= 0
            + [_constraint(k, nv, A=[((t, a[t]), 1.0)], c=[(r[t], -1.0)])
               for t in range(T)])
    farms = case.wind.farms if case.wind is not None else []
    W = len(farms)
    psi = case.network.resolved_ptdf()
    gen_bus = [case.network.bus_pos(g.bus) for g in gens]
    adn_bus = [case.network.bus_pos(d.bus) for d in adns]
    farm_bus = [case.network.bus_pos(f.bus) for f in farms]
    loads = np.array([b.fixed_load for b in case.network.buses])
    forecasts = np.array([f.forecast for f in farms]).reshape(W, T)
    for li, ln in enumerate(lines):
        # xi = [farm errors (W*T, farm-major), omega_plus (T), omega_minus (T)]
        psi_g, psi_d = psi[li, gen_bus], psi[li, adn_bus]
        psi_w = psi[li, farm_bus]
        k = (W + 2) * T
        cons = []
        for t in range(T):
            # flow of the forecasts and fixed loads, summed term by term
            const = sum(psi_w * forecasts[:, t]) - sum(psi[li] * loads[:, t])
            for sign in (1.0, -1.0):
                cons.append(_constraint(
                    k, nv,
                    A=[((W * T + t, idx.a_dn[:, t]), -sign * psi_g),
                       ((W * T + T + t, idx.a_up[:, t]), -sign * psi_g),
                       ((W * T + t, idx.adn_a_up[:, t]), -sign * psi_d)],
                    a0=[(np.arange(W) * T + t, sign * psi_w)],
                    c=[(idx.p[:, t], sign * psi_g),
                       (idx.adn_p[:, t], -sign * psi_d)],
                    d=sign * const - ln.capacity))
        groups.append(cons)
    return (G, h, A_eq, b_eq), groups
