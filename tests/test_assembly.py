"""The LPs cut from the shortfall skeleton equal the LPs that a separate
builder pass assembles, byte for byte.

``_ReferenceBuilder`` is the row-selecting builder the hard LPs were once
assembled with: it takes a scenario mask, pads every row block to the
final width and stacks the copies.  The polish and oracle LPs
(``scenario_hard_lp``), the skeleton itself, the all-groups CVaR LP
(``cvar_lp``) and the mean-value LP must come out bit-identical to its
passes, so pivots and answers cannot move.
"""

import numpy as np
import pytest

from jccopt import lp
from jccopt.algorithms import (SStepAssembler, cvar_lp, mean_value_lp,
                               scenario_hard_lp)
from jccopt.cases import overlap_case, three_bus_case
from jccopt.dispatch import build_ccp
from jccopt.errors import ModelError
from jccopt.toys import interval_toy, two_group_toy

from helpers import random_instance


class _ReferenceBuilder:
    """Column layout: x first, then the added blocks; rows of the masked
    scenarios only, padded to the final width when the LP is finished."""

    def __init__(self, problem):
        self.problem = problem
        self.n = problem.n_vars
        self.cols = self.n
        self.rows = []
        self.rhs = []
        self.lo_extra = []
        self.hi_extra = []

    def add_block(self, size, lo=0.0, hi=np.inf):
        blk = slice(self.cols, self.cols + size)
        self.cols += size
        self.lo_extra.append(np.full(size, lo))
        self.hi_extra.append(np.full(size, hi))
        return blk

    def append_rows(self, mat, rhs):
        self.rows.append(mat)
        self.rhs.append(np.atleast_1d(rhs))

    def add_margins(self, group):
        rho = group.rho
        if rho == 0.0:
            return [{} for _ in group.constraints]
        As = [con.A for con in group.constraints]
        nz = [np.flatnonzero((con.a0 != 0.0) | np.any(A != 0.0, axis=1))
              for con, A in zip(group.constraints, As)]
        if group.norm == "l1":
            blk = self.add_block(len(nz))
            bound_cols = [np.full(r.size, blk.start + j) for j, r in enumerate(nz)]
            terms = [{blk.start + j: rho} for j in range(len(nz))]
        else:
            blk = self.add_block(sum(r.size for r in nz))
            ends = np.cumsum([r.size for r in nz])[:-1]
            bound_cols = np.split(np.arange(blk.start, blk.stop), ends)
            terms = [{int(col): rho for col in cols} for cols in bound_cols]
        for con, A, r, cols in zip(group.constraints, As, nz, bound_cols):
            comp = np.repeat(r, 2)
            sign = np.tile([1.0, -1.0], r.size)
            block = np.zeros((comp.size, self.cols))
            block[:, :self.n] = sign[:, None] * A[comp]
            block[np.arange(comp.size), np.repeat(cols, 2)] = -1.0
            self.append_rows(block, -sign * con.a0[comp])
        return terms

    def scenario_rows(self, group, mask, terms, diag=None):
        data = group.samples.data[mask]
        cnt = data.shape[0]
        if cnt == 0:
            return
        for con, extra in zip(group.constraints, terms):
            block = np.zeros((cnt, self.cols))
            block[:, :self.n] = data @ con.A + con.c
            for col, coeff in extra.items():
                block[:, col] = coeff
            if diag is not None:
                block[np.arange(cnt), diag + np.arange(cnt)] = -1.0
            self.append_rows(block, 0.0 - (data @ con.a0 + con.d))

    def finish(self, objective):
        poly = self.problem.polytope
        pieces, rhs_pieces = [], []
        if poly.G is not None:
            side = np.zeros((poly.G.shape[0], self.cols - self.n))
            pieces.append(np.hstack([poly.G, side]))
            rhs_pieces.append(poly.h)
        if self.rows:
            pieces.extend(self._padded(self.rows))
            rhs_pieces.extend(self.rhs)
        G = np.vstack(pieces) if pieces else None
        h = np.concatenate(rhs_pieces) if pieces else None
        A_eq = b_eq = None
        if poly.A_eq is not None:
            A_eq = np.hstack([poly.A_eq,
                              np.zeros((poly.A_eq.shape[0], self.cols - self.n))])
            b_eq = poly.b_eq
        lo = np.concatenate([poly.lower] + self.lo_extra) if self.lo_extra else poly.lower
        hi = np.concatenate([poly.upper] + self.hi_extra) if self.hi_extra else poly.upper
        return lp.LpProblem(objective, G, h, A_eq, b_eq, lo, hi)

    def _padded(self, rows):
        out = []
        for mat in rows:
            if mat.shape[1] < self.cols:
                pad = np.zeros((mat.shape[0], self.cols - mat.shape[1]))
                out.append(np.hstack([mat, pad]))
            else:
                out.append(mat)
        return out

    def objective(self):
        obj = np.zeros(self.cols)
        obj[:self.n] = self.problem.objective
        return obj


def reference_hard_lp(problem, masks):
    builder = _ReferenceBuilder(problem)
    for g, mask in zip(problem.groups, masks):
        terms = builder.add_margins(g)
        builder.scenario_rows(g, np.asarray(mask, dtype=bool), terms)
    return builder.finish(builder.objective())


def reference_skeleton(problem):
    builder = _ReferenceBuilder(problem)
    s_blocks = [builder.add_block(g.n) for g in problem.groups]
    margins = [builder.add_margins(g) for g in problem.groups]
    level = np.zeros(builder.cols)
    level[:problem.n_vars] = problem.objective
    builder.append_rows(level[None, :], np.array([0.0]))
    for g, terms, blk in zip(problem.groups, margins, s_blocks):
        builder.scenario_rows(g, np.ones(g.n, dtype=bool), terms, blk.start)
    return builder.finish(np.zeros(builder.cols))


def reference_cvar_lp(problem):
    builder = _ReferenceBuilder(problem)
    for g in problem.groups:
        terms = builder.add_margins(g)
        mask = np.ones(g.n, dtype=bool)
        if g.epsilon == 0.0:
            builder.scenario_rows(g, mask, terms)
            continue
        t_blk = builder.add_block(1, lo=-np.inf)
        w_blk = builder.add_block(g.n, lo=0.0)
        builder.scenario_rows(g, mask, [{**m, t_blk.start: -1.0} for m in terms],
                              w_blk.start)
        row = np.zeros((1, builder.cols))
        row[0, t_blk.start] = 1.0
        row[0, w_blk] = 1.0 / (g.epsilon * g.n)
        builder.append_rows(row, np.array([0.0]))
    return builder.finish(builder.objective())


def reference_mean_value_lp(problem):
    builder = _ReferenceBuilder(problem)
    for g in problem.groups:
        mean = g.samples.mean
        for con in g.constraints:
            row = np.zeros((1, builder.cols))
            row[0, :builder.n] = mean @ con.A + con.c
            builder.append_rows(row, np.array([-(mean @ con.a0 + con.d)]))
    return builder.finish(builder.objective())


def assert_same_lp(got, want, what):
    for name in ("c", "G", "h", "A_eq", "b_eq", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), f"{what}: {name} present on one side"
        if a is not None:
            assert a.shape == b.shape and a.dtype == b.dtype, f"{what}: {name}"
            assert a.tobytes() == b.tobytes(), f"{what}: {name} bytes differ"


RANDOM_SEEDS = (0, 1, 2, 3, 4, 8, 12, 16, 17)  # one and two groups, l1 and
# linf, rho 0 and 0.02 (see helpers.random_instance)

CASES = {
    **{f"three-bus-rho{rho}": (lambda rho=rho: build_ccp(
        three_bus_case(), rho_override=rho).problem) for rho in (0.0, 0.01)},
    "overlap": lambda: build_ccp(overlap_case()).problem,
    "overlap-rho0.001": lambda: build_ccp(overlap_case(),
                                          rho_override=0.001).problem,
    "two-group": lambda: two_group_toy(3),
    "interval": lambda: interval_toy(0.4),
    "interval-rho0.1": lambda: interval_toy(0.4, rho=0.1),
    **{f"random-{s}": (lambda s=s: random_instance(s)) for s in RANDOM_SEEDS},
}


def _masks(problem, seed):
    """All kept, random keep-sets, and keep-sets where one group keeps
    none (group 0, then the last group)."""
    rng = np.random.default_rng(seed)
    ones = [np.ones(g.n, dtype=bool) for g in problem.groups]
    out = [("all", ones)]
    for k in range(3):
        out.append((f"random{k}", [rng.random(g.n) < 0.6 for g in problem.groups]))
    for gi in sorted({0, problem.n_groups - 1}):
        masks = [rng.random(g.n) < 0.6 for g in problem.groups]
        masks[gi] = np.zeros(problem.groups[gi].n, dtype=bool)
        out.append((f"group{gi}-keeps-none", masks))
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_lps_equal_the_reference_builder(name):
    problem = CASES[name]()
    asm = SStepAssembler(problem)
    assert_same_lp(asm.lp_template, reference_skeleton(problem), "skeleton")
    for label, masks in _masks(problem, 11):
        assert_same_lp(scenario_hard_lp(asm, masks),
                       reference_hard_lp(problem, masks), f"hard LP, {label}")
    assert_same_lp(mean_value_lp(problem), reference_mean_value_lp(problem),
                   "mean-value LP")
    assert_same_lp(cvar_lp(problem), reference_cvar_lp(problem), "CVaR LP")


def test_hard_lp_rejects_a_mask_of_the_wrong_length():
    problem = two_group_toy(0)
    masks = [np.ones(g.n, dtype=bool) for g in problem.groups]
    masks[1] = masks[1][:-1]
    with pytest.raises(ModelError, match="mask for group 1"):
        scenario_hard_lp(SStepAssembler(problem), masks)
