"""Shared fixtures-by-construction for the solver tests."""

import numpy as np

from jccopt import (OPTIMAL, UNBOUNDED, BiAffineConstraint, CcpProblem,
                    JccGroup, LpProblem, NumericError, Polytope, SampleSet,
                    SStepAssembler, shortfalls, solve_lp)


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
