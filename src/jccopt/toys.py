"""Small worked instances used by the CLI demos and the test suite."""

from __future__ import annotations

import numpy as np

from .model import BiAffineConstraint, CcpProblem, JccGroup, Polytope, SampleSet

# Five (lo, hi) interval scenarios; the point must land inside a
# 1-epsilon fraction of them.  Infeasible for eps < 0.4 (no point is in
# four of the five intervals), then the optimum walks down 3, 2, 1.
# Read-only: each toy holds its own copy.
INTERVAL_SCENARIOS = np.array([
    [1.0, 3.0],
    [2.0, 4.0],
    [3.0, 5.0],
    [4.0, 6.0],
    [5.0, 7.0],
])
INTERVAL_SCENARIOS.setflags(write=False)

# Level bracket the interval toy is traditionally solved under.
INTERVAL_BOUNDS = (0.0, 8.0)


def interval_toy(epsilon: float, rho: float = 0.0) -> CcpProblem:
    """min x  s.t.  P[xi_lo <= x <= xi_hi] >= 1 - epsilon  over the five
    fixed interval scenarios."""
    below = BiAffineConstraint(A=np.zeros((2, 1)), a0=[1.0, 0.0], c=[-1.0])
    above = BiAffineConstraint(A=np.zeros((2, 1)), a0=[0.0, -1.0], c=[1.0])
    group = JccGroup(constraints=[below, above],
                     samples=SampleSet(INTERVAL_SCENARIOS.copy()),
                     epsilon=epsilon, rho=rho, label="interval")
    polytope = Polytope(lower=[-np.inf], upper=[np.inf])
    return CcpProblem(objective=[1.0], polytope=polytope, groups=[group],
                      var_names=["x"])


# Level bracket for the covering toy.
TWO_GROUP_BOUNDS = (0.0, 10.0)
TWO_GROUP_EPSILONS = (0.8, 0.2)


def two_group_toy(seed: int = 0, n: int = 20) -> CcpProblem:
    """Two independent covering groups sharing a budget.

    Variables (x1..x4, y1, y2): minimize y1 + 2*y2 subject to
    x1+x2+x3+x4 = y1 + y2, y1 in [0,2], y2 >= 0, and two chance groups:
    (x1, x2) >= xi componentwise at risk 0.8, (x3, x4) >= xi at risk 0.2,
    each on its own n uniform-[0,1]^2 scenarios.  The loose first group
    may drop most of its scenarios, the tight second one almost none; a
    per-group activation split exploits that, a pooled one cannot.
    """
    rng = np.random.default_rng(seed)
    xi1 = rng.uniform(0.0, 1.0, size=(n, 2))
    xi2 = rng.uniform(0.0, 1.0, size=(n, 2))
    nvar = 6

    def cover(xcol: int, xicomp: int) -> BiAffineConstraint:
        c = np.zeros(nvar)
        c[xcol] = -1.0
        a0 = np.zeros(2)
        a0[xicomp] = 1.0
        return BiAffineConstraint(A=np.zeros((2, nvar)), a0=a0, c=c)

    g1 = JccGroup(constraints=[cover(0, 0), cover(1, 1)],
                  samples=SampleSet(xi1), epsilon=TWO_GROUP_EPSILONS[0],
                  label="loose")
    g2 = JccGroup(constraints=[cover(2, 0), cover(3, 1)],
                  samples=SampleSet(xi2), epsilon=TWO_GROUP_EPSILONS[1],
                  label="tight")
    polytope = Polytope(
        A_eq=[[1.0, 1.0, 1.0, 1.0, -1.0, -1.0]], b_eq=[0.0],
        lower=[0.0] * 4 + [0.0, 0.0],
        upper=[np.inf] * 4 + [2.0, np.inf])
    return CcpProblem(objective=[0, 0, 0, 0, 1.0, 2.0], polytope=polytope,
                      groups=[g1, g2],
                      var_names=["x1", "x2", "x3", "x4", "y1", "y2"])
