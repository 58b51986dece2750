"""The traced run: spans around the calls into each layer, per-layer
metrics derived from them, and a cross-check of every LP against HiGHS.

Spans are recorded from outside the program, by replacing the public
module attributes each layer is called through.  A span holds its name,
start, end, parent span and op id; the spans stay in memory and are
written out when the run ends.  A layer's self time is its spans'
durations minus the parts their child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

from jccopt import algorithms, cli, dispatch, lp, model
from jccopt.errors import NumericError

from layers import LAYER_METRICS

BISECTION_SOLVERS = ("algorithms.solve_also_x_multi",
                     "algorithms.solve_also_x_single",
                     "algorithms.solve_intuitive_extension")
SOLVERS = BISECTION_SOLVERS + ("algorithms.solve_cvar",
                               "algorithms.solve_oracle")
ASSEMBLY = ("algorithms.SStepAssembler", "algorithms.scenario_hard_lp",
            "algorithms.mean_value_lp")
REF_STATUS = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}
REF_RTOL = 1e-7


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Installs the span wrappers; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo = []
        self.op = -1
        self.record_lps = False
        self.lps = []            # (LpProblem, objective override, status, objective)
        self.lp_failed = 0
        self.largest_lp = None   # (rows * cols, rows, cols, LpProblem)
        self._session_lp = {}    # id(session) -> [LpProblem, cumulative iterations]

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else None,
                        tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except NumericError:
                if name.startswith("lp."):
                    tracer.lp_failed += 1
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def install(self):
        w = self.wrap
        w(lp, "solve_lp", "lp.solve_lp", self._after_solve)
        w(lp.SimplexBackend, "start_session", "lp.start_session",
          self._after_start_session)
        w(lp.SimplexSession, "solve", "lp.session_solve",
          self._after_session_solve)
        for fn in ("init_bounds", "scenario_hard_lp", "mean_value_lp",
                   "shortfalls", "z_step"):
            w(algorithms, fn, f"algorithms.{fn}")
        w(algorithms.SStepAssembler, "__init__", "algorithms.SStepAssembler")
        for fn in SOLVERS:
            w(algorithms, fn.split(".")[1], fn, self._after_solver)
        # evaluate_group is imported by name into the modules that call it.
        for owner in (model, algorithms, cli):
            w(owner, "evaluate_group", "model.evaluate_group")
        for fn in ("load_case", "build_ccp", "audit_dispatch"):
            w(dispatch, fn, f"dispatch.{fn}")
        w(cli, "main", "cli.main")
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        span = Span("bench.op", None, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()

    def end_op(self):
        self.spans[self._stack.pop()].end = time.perf_counter()
        self._stack.clear()

    # -- counters taken at the layer boundaries ---------------------------------

    def _lp_seen(self, span, problem, c, result, iterations):
        span.info = iterations
        rows, cols = problem.n_ineq + problem.n_eq, problem.n_vars
        if self.largest_lp is None or rows * cols > self.largest_lp[0]:
            self.largest_lp = (rows * cols, rows, cols, problem)
        if self.record_lps:
            self.lps.append((problem, c, result.status, result.objective))

    def _after_solve(self, span, args, kwargs, result):
        self._lp_seen(span, args[0], None, result, result.iterations)

    def _after_start_session(self, span, args, kwargs, session):
        self._session_lp[id(session)] = [args[1], 0]

    def _after_session_solve(self, span, args, kwargs, result):
        entry = self._session_lp[id(args[0])]
        c = args[1] if len(args) > 1 else kwargs.get("c")
        # Session iteration counts are cumulative over its solves.
        done = max(0, result.iterations - entry[1])
        entry[1] = max(entry[1], result.iterations)
        self._lp_seen(span, entry[0], None if c is None else np.asarray(c, float),
                      result, done)

    def _after_solver(self, span, args, kwargs, report):
        span.info = (args[0], report)


# -- per-layer metrics ---------------------------------------------------------

def _storage(problem) -> tuple[int, int, int]:
    """(scenario rows, dense A entries, A nonzeros) of a CcpProblem."""
    rows = entries = nonzeros = 0
    for g in problem.groups:
        rows += g.n * len(g.constraints)
        for con in g.constraints:
            entries += con.A.size
            nonzeros += int(np.count_nonzero(con.A))
    return rows, entries, nonzeros


def _nnz_frac(problem) -> float:
    nnz = sum(int(np.count_nonzero(m)) for m in (problem.G, problem.A_eq)
              if m is not None)
    return nnz / ((problem.n_ineq + problem.n_eq) * problem.n_vars)


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple[dict, dict]:
    """Per-op means (times and counts) and run maxima (shapes) of every
    per-layer metric, plus each layer's self time per op."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            children.setdefault(s.parent, []).append(i)

    total = {}
    count = {}
    self_by_layer = {}
    for i, s in enumerate(spans):
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        count[s.name] = count.get(s.name, 0) + 1
        layer = s.name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + d - child_time[i]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def n(*names):
        return sum(count.get(nm, 0) for nm in names)

    cold_iters = sum(s.info for s in spans if s.name == "lp.solve_lp" and s.info)
    warm_iters = sum(s.info for s in spans if s.name == "lp.session_solve" and s.info)
    driver_self = polish = 0.0
    oracle_lps = levels = accepted = inner = 0
    storage = (0, 0, 0)
    seen = set()
    for i, s in enumerate(spans):
        if s.name not in SOLVERS:
            continue
        driver_self += s.end - s.start - child_time[i]
        problem, report = s.info if s.info else (None, None)
        if problem is not None and id(problem) not in seen:
            seen.add(id(problem))
            storage = tuple(map(max, storage, _storage(problem)))
        kids = [spans[k] for k in children.get(i, [])]
        if s.name == "algorithms.solve_oracle":
            oracle_lps += sum(k.name == "lp.solve_lp" for k in kids)
        if s.name in BISECTION_SOLVERS:
            for a, b in zip(kids, kids[1:]):
                if a.name == "algorithms.scenario_hard_lp" and b.name == "lp.solve_lp":
                    polish += (a.end - a.start) + (b.end - b.start)
            if report is not None:
                levels += len(report.trace)
                accepted += sum(r.accepted for r in report.trace)
                inner += sum(r.inner_iterations for r in report.trace)

    op_time = t("bench.op")
    largest = tracer.largest_lp
    per_op = {
        "lp.solve_s": t("lp.solve_lp"),
        "lp.solve_calls": n("lp.solve_lp"),
        "lp.session_solve_s": t("lp.session_solve"),
        "lp.sessions": n("lp.start_session"),
        "lp.session_solves": n("lp.session_solve"),
        "lp.iterations": cold_iters + warm_iters,
        "algorithms.bracket_s": t("algorithms.init_bounds"),
        "algorithms.assemble_s": t(*ASSEMBLY),
        "algorithms.driver_self_s": driver_self,
        "algorithms.polish_s": polish,
        "algorithms.oracle_lps": oracle_lps,
        "algorithms.levels": levels,
        "algorithms.levels_accepted": accepted,
        "algorithms.inner_iterations": inner,
        "algorithms.shortfalls_s": t("algorithms.shortfalls"),
        "algorithms.shortfalls_calls": n("algorithms.shortfalls"),
        "algorithms.z_step_s": t("algorithms.z_step"),
        "algorithms.z_step_calls": n("algorithms.z_step"),
        "model.evaluate_s": t("model.evaluate_group"),
        "model.evaluate_calls": n("model.evaluate_group"),
        "dispatch.load_case_s": t("dispatch.load_case"),
        "dispatch.build_ccp_s": t("dispatch.build_ccp"),
        "dispatch.audit_s": t("dispatch.audit_dispatch"),
        "cli.self_s": self_by_layer.get("cli", 0.0),
        "trace.spans": len(spans),
    }
    out = {k: v / n_ops for k, v in per_op.items()}
    out.update({
        "lp.iterations_per_solve": cold_iters / max(1, n("lp.solve_lp")),
        "lp.rows_max": largest[1] if largest else 0,
        "lp.cols_max": largest[2] if largest else 0,
        "lp.nnz_frac": _nnz_frac(largest[3]) if largest else 0.0,
        "lp.failed": tracer.lp_failed,
        "lp.self_frac": self_by_layer.get("lp", 0.0) / op_time,
        "model.scenario_rows": storage[0],
        "model.A_entries": storage[1],
        "model.A_nonzeros": storage[2],
    })
    self_per_op = {k: v / n_ops for k, v in sorted(self_by_layer.items())}
    return out, self_per_op


def reference_mismatches(lps) -> tuple[int, list[str]]:
    """Re-solve each recorded LP with scipy's HiGHS; count status
    disagreements and objectives differing by more than REF_RTOL."""
    from scipy.optimize import linprog

    bad = []
    for k, (p, c, status, objective) in enumerate(lps):
        res = linprog(p.c if c is None else c, A_ub=p.G, b_ub=p.h,
                      A_eq=p.A_eq, b_eq=p.b_eq,
                      bounds=np.column_stack([p.lower, p.upper]),
                      method="highs")
        ref = REF_STATUS.get(res.status, f"highs-status-{res.status}")
        if ref != status:
            bad.append(f"LP {k}: status {status} vs HiGHS {ref}")
        elif status == lp.OPTIMAL and \
                abs(objective - res.fun) > REF_RTOL * max(1.0, abs(res.fun)):
            bad.append(f"LP {k}: objective {objective!r} vs HiGHS {res.fun!r}")
    return len(bad), bad


def write_spans(tracer: Tracer, path: Path) -> None:
    names = sorted({s.name for s in tracer.spans})
    index = {nm: i for i, nm in enumerate(names)}
    rows = [[index[s.name], s.start, s.end, s.parent, s.op] for s in tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                "names": names, "spans": rows}))


def layer_table(self_per_op: dict, op_p50: float, metrics: dict) -> str:
    lines = [f"{'layer':<12}{'self s/op':>12}{'share':>8}"]
    total = sum(self_per_op.values())
    for layer, v in self_per_op.items():
        lines.append(f"{layer:<12}{v:>12.6f}{v / total:>8.1%}")
    lines.append(f"traced op_s_p50 {op_p50:.6f} s")
    for name, (unit, _, moves) in LAYER_METRICS.items():
        lines.append(f"  {name:<30}{metrics[name]:>14.6g} {unit:<6} -> {moves}")
    return "\n".join(lines)
