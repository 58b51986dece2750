"""The benchmark workloads: seeded set-up, the timed ops, and their checks.

A workload is a list of ops, one pass; the run repeats whole passes.  An
op is one solve with its compile and output, except in cvar-n20, where
one op is one case solved at both radii, and in toy-batch, where one op
is one instance solved by every method the workload applies to it:
single toy solves take a few milliseconds each and their median jumps
between clusters from run to run.  Every op is checked after the timed
loop by :mod:`check`.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from jccopt import algorithms as alg
from jccopt import cli
from jccopt import dispatch as dp
from jccopt.dispatch import case_to_dict
from jccopt.toys import INTERVAL_BOUNDS, TWO_GROUP_BOUNDS, interval_toy

import check
import inputs

# The l1 radii: dispatch-cli alternates between them, cvar-n20 solves each
# case at both.  Each dispatch-cli op draws its own case: pivot counts vary
# with the draw, and independent draws average out better than one case
# solved at both radii.
RHOS = (0.0, 0.01)
# Training rows and jittered cases per pass of cvar-n20.  Op time on the
# dense simplex grows about 8x each time the rows double: 40 rows make
# ops of 10-40 s, two to a run, and one slow spell of the host moves the
# run's median; 20 rows make ops of 3.5-8 s.  Five of them make a pass
# longer than the 15 s run on a fast host too, so that every run is one
# pass: runs of one and two passes would differ in length and peak RSS.
CVAR_N_TRAIN = 20
CVAR_DRAWS = 5
# Cases per dispatch-cli pass, one per op.  Solve time varies by about 13%
# from one drawn case to the next, so a pass averages over several.
DISPATCH_DRAWS = 6
# The oracle goes first: the other methods are checked against it.
COVERING_METHODS = ("oracle", "also-x", "intuitive", "cvar")
TWO_GROUP_METHODS = ("also-x", "intuitive")
TABLE_I_EPS = (0.0, 0.2, 0.4, 0.6, 0.8)
TABLE_I = (None, None, 3.0, 2.0, 1.0)
INTERVAL_DELTA1 = 1e-4
N_COVERING = 48
N_TWO_GROUP = 8


@dataclass
class Op:
    """One timed unit.  ``run`` returns the output ``check`` judges; the
    label is the same on every pass, so passes can be compared."""

    label: str
    run: Callable[[int], object]
    check: Callable[[object], check.Verdict]


# -- dispatch-cli --------------------------------------------------------------

def dispatch_cli(seed: int, workdir: Path) -> list[Op]:
    """The CLI dispatch path with ``also-x``: each op solves its own freshly
    drawn three-bus case, the l1 radius alternating between 0 and 0.01."""
    ops = []
    for draw in range(DISPATCH_DRAWS):
        rho = RHOS[draw % len(RHOS)]
        case = inputs.three_bus_draw(seed, n_train=10, draw=draw)
        case_path = workdir / f"case{draw}.json"
        case_path.write_text(json.dumps(case_to_dict(case), sort_keys=True))

        def run(k: int, case_path=case_path, rho=rho):
            out = workdir / f"op{k}"
            argv = ["dispatch", str(case_path), "--rho", repr(rho),
                    "--method", "also-x", "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv), out

        def judge(result, case=case, rho=rho) -> check.Verdict:
            code, out = result
            if code != 0:
                return check.Verdict.failed(f"cli exited with {code}")
            model = dp.build_ccp(case, rho_override=rho)
            return check.dispatch_report(model, out, "also-x")

        ops.append(Op(f"dispatch draw={draw} rho={rho:g}", run, judge))
    return ops


# -- cvar-n20 --------------------------------------------------------------------

def cvar_n20(seed: int, workdir: Path) -> list[Op]:
    """Large cold CVaR LPs: each op compiles, solves and audits the bundled
    three-bus case with its first ``CVAR_N_TRAIN`` training rows, jittered
    from the seed, at both radii.  One op holds both radii so that op
    times form one cluster, whose median a slow spell of the host moves
    less than it moves the gap between two clusters."""
    ops = []
    for draw in range(CVAR_DRAWS):
        case = inputs.three_bus_jittered(seed, n_train=CVAR_N_TRAIN, draw=draw)

        def run(k: int, case=case):
            results = []
            for rho in RHOS:
                model = dp.build_ccp(case, rho_override=rho)
                report = alg.solve_cvar(model.problem)
                audit = (dp.audit_dispatch(model, report.x)
                         if report.is_feasible else None)
                results.append((model, report, audit))
            return results

        def judge(results) -> check.Verdict:
            return check.Verdict.combine(
                [check.dispatch_solution(*r) for r in results])

        ops.append(Op(f"cvar draw={draw}", run, judge))
    return ops


# -- toy-batch -------------------------------------------------------------------

def _solve(problem, method: str, cfg=None):
    if method == "cvar":
        return alg.solve_cvar(problem)
    if method == "oracle":
        return alg.solve_oracle(problem)
    solver = {"also-x": alg.solve_also_x_multi,
              "intuitive": alg.solve_intuitive_extension}[method]
    if cfg is None:
        cfg = alg.BisectionConfig.from_problem(problem)
    return solver(problem, cfg)


def toy_batch(seed: int, workdir: Path) -> list[Op]:
    """Many small instances, one op each: seeded covering instances under
    every method, seeded two-group instances under the alternating and
    pooled methods, and the interval toy at the Table-I epsilons."""
    ops = []
    for i, problem in enumerate(inputs.covering_instances(seed, N_COVERING)):
        def run(k, problem=problem):
            return [_solve(problem, m) for m in COVERING_METHODS]

        def judge(reports, problem=problem):
            return check.Verdict.combine(
                [check.solution(problem, r, oracle=reports[0]) for r in reports])

        ops.append(Op(f"covering{i}", run, judge))
    for i, problem in enumerate(inputs.two_group_instances(seed, N_TWO_GROUP)):
        def run(k, problem=problem):
            return [_solve(problem, m, alg.BisectionConfig(*TWO_GROUP_BOUNDS))
                    for m in TWO_GROUP_METHODS]

        def judge(reports, problem=problem):
            return check.Verdict.combine(
                [check.solution(problem, r) for r in reports])

        ops.append(Op(f"two-group{i}", run, judge))
    problems = [interval_toy(eps) for eps in TABLE_I_EPS]

    def run(k):
        cfg = alg.BisectionConfig(*INTERVAL_BOUNDS, delta1=INTERVAL_DELTA1)
        return [_solve(p, "also-x", cfg) for p in problems]

    def judge(reports):
        return check.Verdict.combine(
            [check.solution(p, r, expected=want, expected_tol=INTERVAL_DELTA1)
             for p, r, want in zip(problems, reports, TABLE_I)])

    ops.append(Op("interval", run, judge))
    return ops


WORKLOADS = {
    "dispatch-cli": dispatch_cli,
    "cvar-n20": cvar_n20,
    "toy-batch": toy_batch,
}
