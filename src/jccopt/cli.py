"""Command line front end.

Subcommands: example1, example2, solve, dispatch, evaluate, generate.
Exit codes: 0 on success (an Infeasible verdict is a successful answer),
1 on usage or input errors, 2 on numeric failures.  All stdout and file
output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import algorithms as alg
from . import dispatch as dp
from .errors import ModelError, NumericError
from .model import (SampleSet, evaluate_group, floats, load_json,
                    problem_from_dict, problem_to_dict, read_field)
from .scenarios import generate_scenarios, spec_from_dict
from .toys import INTERVAL_BOUNDS, TWO_GROUP_BOUNDS, interval_toy, two_group_toy

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 2
METHOD_CHOICES = alg.METHODS + ("all",)
EXAMPLE1_EPS = (0.0, 0.2, 0.4, 0.6, 0.8)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 is reserved for numeric
    failures here, so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value, digits: int = 6) -> str:
    if value is None:
        return "n/a"
    return f"{value:.{digits}f}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _methods(problem, requested: str) -> list[str]:
    """The methods a --method choice names: one, or all that apply."""
    return alg.applicable_methods(problem) if requested == "all" else [requested]


def _rates(report) -> str:
    if not report.per_group:
        return "n/a"
    return "/".join(f"{g.violation_rate:.4f}" for g in report.per_group)


# -- subcommands -------------------------------------------------------------

def cmd_example1(args) -> int:
    eps_list = args.eps if args.eps is not None else list(EXAMPLE1_EPS)
    results = {}
    for eps in eps_list:
        if not 0.0 <= eps < 1.0:
            raise ModelError(f"--eps {eps:g} outside [0, 1)")
        problem = interval_toy(eps)
        cfg = alg.BisectionConfig(*INTERVAL_BOUNDS, delta1=1e-4)
        per_method = {}
        for method in _methods(problem, args.method):
            report = alg.solve(problem, method, cfg)
            per_method[method] = report.to_dict()
            print(f"eps={eps:.2f} method={method:<14} {report.status:<10} "
                  f"objective={_fmt(report.objective)} viol={_rates(report)}")
        results[f"{eps:.2f}"] = per_method
    if args.out:
        out = _out_dir(args) / "example1.json"
        out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return EXIT_OK


def cmd_example2(args) -> int:
    problem = two_group_toy(seed=args.seed)
    out = _out_dir(args)
    for method in (alg.METHOD_ALSO_X, alg.METHOD_INTUITIVE):
        report = alg.solve(problem, method,
                           alg.BisectionConfig(*TWO_GROUP_BOUNDS))
        rows = []
        for k, rec in enumerate(report.trace, start=1):
            vr = rec.violation_rates or (None, None)
            rows.append((k, rec.objective, vr[0], vr[1]))
        path = out / f"example2_{method}_trace.csv"
        _write_csv(path, ["iteration", "objective", "vp_group1", "vp_group2"],
                   rows)
        print(f"seed={args.seed} method={method:<14} {report.status:<10} "
              f"objective={_fmt(report.objective)} viol={_rates(report)} "
              f"trace={path}")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = problem_from_dict(load_json(args.problem))
    if (args.f_lower is None) != (args.f_upper is None):
        raise ModelError("--f-lower and --f-upper must be given together")
    cfg = (None if args.f_lower is None
           else alg.BisectionConfig(args.f_lower, args.f_upper))
    results = {}
    for method in _methods(problem, args.method):
        report = alg.solve(problem, method, cfg)
        results[method] = report.to_dict()
        print(f"method={method:<14} {report.status:<10} "
              f"objective={_fmt(report.objective)} viol={_rates(report)}")
    payload = {"problem": problem_to_dict(problem), "results": results}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _write_trajectories(out: Path, model: dp.DispatchModel,
                        x: np.ndarray) -> list[Path]:
    """Cumulative-energy plot data per ADN: dispatched energy, energy if
    the up-reserve fully activates, and each boundary sample, all with the
    boundary family's sample-mean trajectory subtracted."""
    case, idx = model.case, model.index
    dt = case.step
    written = []
    for di, adn in enumerate(case.adns):
        name = dp.unit_name(dp.Adn, di, adn.name)
        p = x[idx.adn_p[di]]
        r = x[idx.adn_r_up[di]]
        energy = dt * np.cumsum(p)
        with_reserve = dt * np.cumsum(p + r)
        for side, samples in (("lower", adn.e_lower), ("upper", adn.e_upper)):
            center = samples.mean(axis=0)
            header = ["t", "energy", "energy_plus_reserve"]
            header += [f"bound_sample_{k}" for k in range(samples.shape[0])]
            rows = []
            for t in range(case.horizon):
                row = [t + 1, energy[t] - center[t],
                       with_reserve[t] - center[t]]
                row += [samples[k, t] - center[t]
                        for k in range(samples.shape[0])]
                rows.append(row)
            path = out / f"trajectory_{name}_{side}.csv"
            _write_csv(path, header, rows)
            written.append(path)
    return written


def cmd_dispatch(args) -> int:
    case = dp.load_case(Path(args.case))
    out = _out_dir(args)
    if args.rho is not None and args.rho_grid is not None:
        raise ModelError("give --rho or --rho-grid, not both")

    if args.rho_grid is not None:
        try:
            grid = [float(v) for v in args.rho_grid.split(",") if v.strip()]
        except ValueError as exc:
            raise ModelError(f"--rho-grid: {exc}") from None
        if not grid:
            raise ModelError("--rho-grid: empty grid")
        rows = (dp.rho_sweep(case, grid) if args.method == "all"
                else dp.rho_sweep(case, grid, methods=(args.method,)))
        csv_rows = []
        for r in rows:
            print(f"rho={r['rho']:g} method={r['method']:<7} "
                  f"{r['status']:<10} cost={_fmt(r['cost'])}")
            if r["reliability"] is None:
                csv_rows.append((r["rho"], r["method"], "", r["status"],
                                 r["cost"], None))
            else:
                for label, rel in zip(r["labels"], r["reliability"]):
                    csv_rows.append((r["rho"], r["method"], label,
                                     r["status"], r["cost"], rel))
        path = out / "sweep.csv"
        _write_csv(path, ["rho", "method", "group", "status", "cost",
                          "reliability"], csv_rows)
        print(f"wrote {path}")
        return EXIT_OK

    model = dp.build_ccp(case, rho_override=args.rho)
    results = {}
    audits = {}
    trajectory_x = None
    for method in _methods(model.problem, args.method):
        report = alg.solve(model.problem, method)
        results[method] = report.to_dict()
        cost = (None if report.objective is None
                else report.objective + model.cost_offset)
        results[method]["dispatch_cost"] = cost
        if report.is_feasible:
            audits[method] = dp.audit_dispatch(model, report.x)
            if trajectory_x is None:
                trajectory_x = report.x
        print(f"method={method:<14} {report.status:<10} cost={_fmt(cost)} "
              f"viol={_rates(report)}")
    if trajectory_x is not None and case.adns:
        for path in _write_trajectories(out, model, trajectory_x):
            print(f"wrote {path}")
    payload = {"rho": args.rho, "cost_offset": model.cost_offset,
               "problem": problem_to_dict(model.problem),
               "results": results, "audits": audits}
    path = out / "dispatch_report.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    report = load_json(args.report)
    problem = problem_from_dict(read_field(report, "problem", "/", dict), "/problem")
    results = read_field(report, "results", "/", dict)
    xs = {m: read_field(read_field(results, m, "/results", dict), "x",
                        f"/results/{m}", lambda v: floats(v, (problem.n_vars,)),
                        None) for m in results}
    feasible = sorted(m for m in xs if xs[m] is not None)
    if not feasible:
        raise ModelError(f"{args.report}: no feasible solution to evaluate")
    method = feasible[0] if args.method is None else args.method
    if method not in feasible:
        raise ModelError(f"{args.report}: no feasible {method!r} solution")
    test = SampleSet.from_csv(Path(args.scenarios))
    groups = problem.groups
    if args.group is not None:
        groups = [g for g in groups if g.label == args.group]
        if not groups:
            raise ModelError(f"no group labelled {args.group!r}")
    groups = [g for g in groups
              if g.constraints[0].xi_dim == test.dim]
    if not groups:
        raise ModelError(
            f"{args.scenarios}: {test.dim} columns match no group's "
            "uncertainty dimension")
    print("group,reliability")
    for g in groups:
        rate = evaluate_group(g, xs[method], test).rate
        print(f"{g.label},{rate!r}")
    return EXIT_OK


def cmd_generate(args) -> int:
    spec_path = Path(args.spec)
    spec = spec_from_dict(load_json(spec_path))
    samples = generate_scenarios(spec, base_dir=spec_path.parent)
    out = Path(spec_path.parent, spec.output)
    samples.to_csv(out)
    print(f"wrote {out} ({samples.n} rows x {samples.dim} columns)")
    return EXIT_OK


# -- wiring ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="jccopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example1", parents=[], help="interval toy sweep")
    p.add_argument("--eps", type=float, nargs="+", default=None,
                   help=f"risk levels (default {' '.join(map(str, EXAMPLE1_EPS))})")
    p.add_argument("--method", choices=METHOD_CHOICES, default="all")
    p.add_argument("--out", default=None, help="directory for example1.json")
    p.set_defaults(func=cmd_example1)

    p = sub.add_parser("example2", help="two-group toy with trace export")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="directory for trace CSVs")
    p.set_defaults(func=cmd_example2)

    p = sub.add_parser("solve", help="solve a problem JSON file")
    p.add_argument("problem")
    p.add_argument("--method", choices=METHOD_CHOICES, default="all")
    p.add_argument("--f-lower", type=float, default=None)
    p.add_argument("--f-upper", type=float, default=None)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dispatch", help="solve a dispatch case JSON file")
    p.add_argument("case")
    p.add_argument("--rho", type=float, default=None,
                   help="override every group's robustness radius")
    p.add_argument("--rho-grid", default=None,
                   help="comma-separated radii; writes sweep.csv")
    p.add_argument("--method", choices=METHOD_CHOICES, default="all")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_dispatch)

    p = sub.add_parser("evaluate", help="out-of-sample reliability of a report")
    p.add_argument("report", help="solve/dispatch report JSON")
    p.add_argument("scenarios", help="held-out scenario CSV")
    p.add_argument("--method", default=None,
                   help="which solution in the report (default: first feasible)")
    p.add_argument("--group", default=None, help="restrict to one group label")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="draw scenario CSVs from a spec")
    p.add_argument("spec", help="generation spec JSON")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
