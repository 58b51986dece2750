"""Correctness checks, run after the timed loop.

Each returned point is re-checked in numpy against the raw problem data:
the polytope residual, every group's in-sample violation rate with the
Wasserstein margin recomputed here, the reported objective against c'x,
and for dispatch the physical audits.  A failed check marks the answer
wrong and fails its op; an op that ends in a program error (no answer)
fails too.  Neither is ever filtered out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-6
SCENARIO_TOL = 1e-6
OBJECTIVE_RTOL = 1e-9
ORACLE_RTOL = 1e-6
# Audit limits of the dispatch acceptance gate.
AUDIT_MAX = {"balance": 1e-6, "partition_up": 1e-9, "partition_down": 1e-9,
             "segment_sum": 1e-7, "segment_order": 1e-7}
AUDIT_MIN = {"min_factor": -1e-12}
_UNSET = object()


@dataclass
class Verdict:
    """Outcome of one op's checks.  The op made ``solves`` solves; each one
    that returned a checked feasible answer left its cost in ``costs``.
    ``error`` says why the program gave no answer; ``problems`` list the
    ways an answer it gave is wrong."""

    solves: int = 1
    costs: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    error: str | None = None
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems

    @classmethod
    def failed(cls, why: str) -> "Verdict":
        return cls(error=why)

    @classmethod
    def combine(cls, parts: list["Verdict"]) -> "Verdict":
        errors = [v.error for v in parts if v.error is not None]
        return cls(solves=sum(v.solves for v in parts),
                   costs=[c for v in parts for c in v.costs],
                   problems=[p for v in parts for p in v.problems],
                   error="; ".join(errors) if errors else None,
                   bytes_written=sum(v.bytes_written for v in parts))


def _dual_norm(v: np.ndarray, norm: str) -> float:
    if norm == "l1":
        return float(np.max(np.abs(v), initial=0.0))
    if norm == "linf":
        return float(np.sum(np.abs(v)))
    return float(np.sqrt(v @ v))


def polytope_residual(poly, x: np.ndarray) -> float:
    worst = max(float(np.max(poly.lower - x, initial=0.0)),
                float(np.max(x - poly.upper, initial=0.0)))
    if poly.G is not None:
        worst = max(worst, float(np.max(poly.G @ x - poly.h, initial=0.0)))
    if poly.A_eq is not None:
        worst = max(worst, float(np.max(np.abs(poly.A_eq @ x - poly.b_eq),
                                        initial=0.0)))
    return worst


def violation_rate(group, x: np.ndarray) -> float:
    """Share of the group's scenarios on which some constraint, plus its
    Wasserstein margin rho*||A x + a0||_dual, exceeds zero."""
    xi = group.samples.data
    worst = np.full(xi.shape[0], -np.inf)
    for con in group.constraints:
        a = con.A @ x + con.a0
        value = xi @ a + con.c @ x + con.d + group.rho * _dual_norm(a, group.norm)
        worst = np.maximum(worst, value)
    return float(np.count_nonzero(worst > SCENARIO_TOL)) / xi.shape[0]


def point(problem, x, objective: float) -> list[str]:
    """Problems with a point claimed feasible at the given objective."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n_vars,) or not np.all(np.isfinite(x)):
        return [f"x has shape {x.shape} or non-finite entries"]
    out = []
    res = polytope_residual(problem.polytope, x)
    if res > RESIDUAL_TOL:
        out.append(f"polytope residual {res:.3e}")
    for g in problem.groups:
        rate = violation_rate(g, x)
        if rate > g.epsilon + 1e-12:
            out.append(f"group {g.label}: violation {rate:.4f} > eps {g.epsilon:g}")
    cx = float(problem.objective @ x)
    if abs(objective - cx) > OBJECTIVE_RTOL * max(1.0, abs(cx)):
        out.append(f"objective {objective!r} differs from c'x {cx!r}")
    return out


def solution(problem, report, oracle=None, expected=_UNSET,
             expected_tol: float = 0.0) -> Verdict:
    """Check a SolveReport.  ``oracle`` is the exact sample optimum's report
    (others may not beat it); ``expected`` is a known optimum, None meaning
    infeasible."""
    v = Verdict()
    if report.is_feasible:
        v.costs.append(float(report.objective))
        v.problems += point(problem, report.x, report.objective)
    if expected is not _UNSET:
        if expected is None and report.is_feasible:
            v.problems.append(f"expected infeasible, got {report.objective!r}")
        elif expected is not None and (not report.is_feasible or
                                       abs(report.objective - expected) > expected_tol):
            v.problems.append(f"expected {expected!r}, got {report.status} "
                              f"{report.objective!r}")
    if oracle is not None and oracle is not report and report.is_feasible:
        if not oracle.is_feasible:
            v.problems.append("feasible where the oracle found no solution")
        elif report.objective < oracle.objective - ORACLE_RTOL * max(1.0, abs(oracle.objective)):
            v.problems.append(f"objective {report.objective!r} below the "
                              f"oracle's {oracle.objective!r}")
    return v


def audit(values: dict | None) -> list[str]:
    if values is None:
        return ["missing audit"]
    out = [f"audit {k} = {values[k]!r}" for k, lim in AUDIT_MAX.items()
           if not values[k] <= lim]
    out += [f"audit {k} = {values[k]!r}" for k, lim in AUDIT_MIN.items()
            if not values[k] >= lim]
    return out


def dispatch_solution(model, report, audit_values) -> Verdict:
    """A dispatch solve: the point check plus clean audits; the cost
    includes the fixed-cost offset."""
    v = solution(model.problem, report)
    if report.is_feasible:
        v.costs = [v.costs[0] + model.cost_offset]
        v.problems += audit(audit_values)
    return v


def dispatch_report(model, out_dir: Path, method: str) -> Verdict:
    """Check the ``dispatch_report.json`` the CLI wrote for ``method``."""
    try:
        payload = json.loads((out_dir / "dispatch_report.json").read_text())
        res = payload["results"][method]
    except (OSError, ValueError, KeyError) as exc:
        return Verdict(problems=[f"unreadable dispatch report: {exc!r}"])
    v = Verdict(bytes_written=sum(f.stat().st_size for f in out_dir.iterdir()))
    if res["status"] != "feasible":
        return v
    cost = float(res["dispatch_cost"])
    v.costs.append(cost)
    v.problems += point(model.problem, res["x"], res["objective"])
    if abs(cost - (res["objective"] + model.cost_offset)) > \
            OBJECTIVE_RTOL * max(1.0, abs(cost)):
        v.problems.append("dispatch_cost is not objective + cost_offset")
    v.problems += audit(payload.get("audits", {}).get(method))
    return v
