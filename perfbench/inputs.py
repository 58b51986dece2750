"""Seeded input generators for the benchmark workloads.

Every input the program sees is drawn here from the workload seed; the
same seed always gives the same inputs.  No seed is excluded.
"""

from __future__ import annotations

import itertools

import numpy as np

from jccopt.cases import three_bus_case
from jccopt.dispatch import Adn, WindScenarioSet
from jccopt.model import BiAffineConstraint, CcpProblem, JccGroup, Polytope, SampleSet
from jccopt.toys import TWO_GROUP_EPSILONS

# Independent random streams per input family, so adding one family never
# shifts another's draws.
_WIND, _ADN, _TEST_WIND, _TEST_ADN, _COVER, _TWO_GROUP, _JITTER = range(7)


def _rng(seed: int, stream: int, draw: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, draw])


def _wind_errors(rng, n: int, T: int) -> np.ndarray:
    """Clipped normal forecast errors, as in the bundled three-bus case."""
    return np.clip(rng.normal(0.0, 0.6, size=(n, 1, T)), -2.0, 2.0)


def _adn_boundaries(rng, n: int, T: int, dt: float) -> np.ndarray:
    """ADN power/energy windows bracketing the bundled base profile."""
    base = np.array([2.0, 2.2, 2.4, 2.2])
    p_lo = base - 0.8 - 0.3 * rng.uniform(size=(n, T))
    p_hi = base + 0.8 + 0.3 * rng.uniform(size=(n, T))
    e_base = dt * np.cumsum(base)
    e_lo = e_base - 0.3 - 0.2 * rng.uniform(size=(n, T))
    e_hi = e_base + 0.3 + 0.2 * rng.uniform(size=(n, T))
    return np.hstack([p_lo, p_hi, e_lo, e_hi])


def _with_rows(case, seed: int, draw: int, adn_rows, wind_errors, n_test: int):
    """``case`` with the given training rows and freshly drawn held-out rows."""
    T, dt = case.horizon, case.step
    old = case.adns[0]
    case.adns = [Adn.from_rows(
        bus=old.bus, rows=adn_rows, horizon=T,
        reserve_cost_up=old.reserve_cost_up, epsilon=old.epsilon, name=old.name)]
    case.wind = WindScenarioSet(farms=case.wind.farms, errors=wind_errors)
    case.test_wind_rows = _wind_errors(
        _rng(seed, _TEST_WIND, draw), n_test, T).reshape(n_test, -1)
    case.test_boundary_rows = [
        _adn_boundaries(_rng(seed, _TEST_ADN, draw), n_test, T, dt)]
    case.validate()
    return case


def three_bus_draw(seed: int, n_train: int, draw: int = 0, n_test: int = 100):
    """The bundled three-bus network with freshly drawn wind errors and ADN
    boundaries (training and held-out), same distributions as the
    fixture.  ``draw`` numbers independent cases under one seed."""
    case = three_bus_case(n_train=1, n_test=1)
    T, dt = case.horizon, case.step
    return _with_rows(
        case, seed, draw,
        _adn_boundaries(_rng(seed, _ADN, draw), n_train, T, dt),
        _wind_errors(_rng(seed, _WIND, draw), n_train, T), n_test)


# Relative size of the seeded jitter on the bundled training rows.  Small
# enough that the dense simplex takes the same number of pivots on every
# seed (with 20 rows, 243-245 at rho 0 and 308 at rho 0.01; a jitter of
# 1e-3 already spreads them by 5% with 40 rows), large enough that every
# seed is its own LP with its own optimum.
FIXTURE_JITTER = 1e-5


def three_bus_jittered(seed: int, n_train: int, draw: int = 0, n_test: int = 100):
    """The bundled three-bus case with its own ``n_train`` training rows,
    each entry scaled by ``1 + FIXTURE_JITTER * N(0, 1)`` from the seed, and
    freshly drawn held-out rows.

    Pivot counts of a freshly drawn case vary by about 10% from draw to
    draw, so op time on a few drawn cases measures the draw as much as the
    LP engine; here the pivot count is the fixture's on every seed.
    """
    case = three_bus_case(n_train=n_train, n_test=1)
    rng = _rng(seed, _JITTER, draw)
    adn_rows = case.adns[0].to_rows()
    adn_rows = adn_rows * (1.0 + FIXTURE_JITTER * rng.standard_normal(adn_rows.shape))
    errors = case.wind.errors
    errors = np.clip(errors * (1.0 + FIXTURE_JITTER * rng.standard_normal(errors.shape)),
                     -2.0, 2.0)
    return _with_rows(case, seed, draw, adn_rows, errors, n_test)


# Structure of the covering instances: (variables, groups, norm, radius),
# cycled in a fixed order so that every seed gets the same mix of shapes
# and only the numbers are drawn.  Shape decides how many LPs a method and
# the oracle solve, so a drawn shape would make run time a lottery; the
# cost and coverage coefficients are drawn from narrow ranges for the same
# reason, so that cost_mean varies little from seed to seed.
COVERING_SHAPES = list(itertools.product((2, 3), (1, 2), ("l1", "linf"),
                                         (0.0, 0.02)))
COVERING_EPSILONS = (0.25, 1.0 / 3.0, 0.4, 0.5)


def covering_instance(rng, i: int) -> CcpProblem:
    """Small covering instance number ``i``: at most 3 variables, 2 groups
    of at most 3 constraints and 6 scenarios.

    Each constraint asks row.x to cover one scenario component (with a
    small bi-affine coupling), so x = 10*ones covers everything and the
    mean-value, CVaR and oracle problems stay feasible.
    """
    nx, n_groups, norm, rho = COVERING_SHAPES[i % len(COVERING_SHAPES)]
    groups = []
    for gi in range(n_groups):
        m = 1 + (i + gi) % 3
        n = 4 + (i // 3 + gi) % 3
        cons = []
        for j in range(m):
            a0 = np.zeros(m)
            a0[j] = 1.0
            cons.append(BiAffineConstraint(
                A=rng.uniform(0.0, 0.02, size=(m, nx)), a0=a0,
                c=-rng.uniform(0.8, 1.0, size=nx),
                d=-float(rng.uniform(0.0, 0.2))))
        groups.append(JccGroup(
            constraints=cons,
            samples=SampleSet(rng.uniform(0.2, 1.0, size=(n, m))),
            epsilon=COVERING_EPSILONS[(i + 2 * gi) % len(COVERING_EPSILONS)],
            rho=rho, norm=norm, label=f"g{gi}"))
    return CcpProblem(
        objective=rng.uniform(0.8, 1.2, size=nx),
        polytope=Polytope(lower=np.zeros(nx), upper=np.full(nx, 10.0)),
        groups=groups)


def covering_instances(seed: int, count: int) -> list[CcpProblem]:
    rng = _rng(seed, _COVER)
    return [covering_instance(rng, i) for i in range(count)]


def two_group_instance(rng, n: int = 20) -> CcpProblem:
    """Two covering groups sharing a budget, shaped like the two-group toy:
    min y1 + 2*y2  s.t.  x1+x2+x3+x4 = y1+y2, y1 in [0, 2], and per group
    (x_a, x_b) >= xi componentwise on n uniform [0,1]^2 scenarios at risk
    0.8 (loose) and 0.2 (tight)."""
    xi_loose = rng.uniform(0.0, 1.0, size=(n, 2))
    xi_tight = rng.uniform(0.0, 1.0, size=(n, 2))
    nvar = 6

    def cover(xcol: int, comp: int) -> BiAffineConstraint:
        c = np.zeros(nvar)
        c[xcol] = -1.0
        a0 = np.zeros(2)
        a0[comp] = 1.0
        return BiAffineConstraint(A=np.zeros((2, nvar)), a0=a0, c=c)

    loose = JccGroup(constraints=[cover(0, 0), cover(1, 1)],
                     samples=SampleSet(xi_loose),
                     epsilon=TWO_GROUP_EPSILONS[0], label="loose")
    tight = JccGroup(constraints=[cover(2, 0), cover(3, 1)],
                     samples=SampleSet(xi_tight),
                     epsilon=TWO_GROUP_EPSILONS[1], label="tight")
    polytope = Polytope(A_eq=[[1.0, 1.0, 1.0, 1.0, -1.0, -1.0]], b_eq=[0.0],
                        lower=[0.0] * 6, upper=[np.inf] * 4 + [2.0, np.inf])
    return CcpProblem(objective=[0, 0, 0, 0, 1.0, 2.0], polytope=polytope,
                      groups=[loose, tight])


def two_group_instances(seed: int, count: int) -> list[CcpProblem]:
    rng = _rng(seed, _TWO_GROUP)
    return [two_group_instance(rng) for _ in range(count)]
