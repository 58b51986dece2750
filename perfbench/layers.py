"""Per-layer metrics of the traced run: unit, direction, and the
end-to-end metric and workload each one should move.

Times (``_s``) and counts are means per op over the traced run; shapes
(``_max``, ``nnz_frac``, ``model.*`` storage) are the largest seen in the
run; ``lp.failed`` and the ``lp.ref_*`` counts are run totals, the HiGHS
cross-check covering the first pass (later passes repeat its LPs);
``_frac`` values are shares of the run.
"""

_TWO_GROUP = "op_s_p50 on dispatch-cli and the two-group part of toy-batch"
_COLD = "op_s_p50 and peak_rss_mb on cvar-n20, ops_per_s on toy-batch"
_DRIVER = "op_s_p50 on dispatch-cli, ops_per_s on toy-batch"
_ALTERNATION = "op_s_p50 and cost_mean on toy-batch, op_s_p50 on dispatch-cli"
_EVAL = "ops_per_s on toy-batch, report_bytes on dispatch-cli"
_IO = "op_s_p50 and report_bytes on dispatch-cli"
_FAIL = "failed_frac on every workload"

LAYER_METRICS = {
    "lp.session_solve_s": ("s", "lower", _TWO_GROUP),
    "lp.sessions": ("count", "lower", _TWO_GROUP),
    "lp.session_solves": ("count", "lower", _TWO_GROUP),
    "lp.iterations": ("count", "lower", _TWO_GROUP),
    "lp.solve_s": ("s", "lower", _COLD),
    "lp.solve_calls": ("count", "lower", _COLD),
    "lp.iterations_per_solve": ("count", "lower", _COLD),
    "lp.rows_max": ("count", "lower", _COLD),
    "lp.cols_max": ("count", "lower", _COLD),
    "lp.nnz_frac": ("frac", "higher", _COLD),
    "lp.self_frac": ("frac", "lower", "share of op time spent in lp"),
    "lp.failed": ("count", "lower", _FAIL),
    "lp.ref_mismatch": ("count", "lower", _FAIL),
    "lp.ref_checked": ("count", "higher", "LPs re-solved with HiGHS"),
    "algorithms.bracket_s": ("s", "lower", _DRIVER),
    "algorithms.assemble_s": ("s", "lower", _DRIVER),
    "algorithms.driver_self_s": ("s", "lower", _DRIVER),
    "algorithms.polish_s": ("s", "lower", _DRIVER),
    "algorithms.oracle_lps": ("count", "lower", _DRIVER),
    "algorithms.levels": ("count", "lower", _ALTERNATION),
    "algorithms.levels_accepted": ("count", "lower", _ALTERNATION),
    "algorithms.inner_iterations": ("count", "lower", _ALTERNATION),
    "algorithms.shortfalls_s": ("s", "lower", _ALTERNATION),
    "algorithms.shortfalls_calls": ("count", "lower", _ALTERNATION),
    "algorithms.z_step_s": ("s", "lower", _ALTERNATION),
    "algorithms.z_step_calls": ("count", "lower", _ALTERNATION),
    "model.evaluate_s": ("s", "lower", _EVAL),
    "model.evaluate_calls": ("count", "lower", _EVAL),
    "model.scenario_rows": ("count", "lower", _EVAL),
    "model.A_entries": ("count", "lower", _EVAL),
    "model.A_nonzeros": ("count", "lower", _EVAL),
    "dispatch.load_case_s": ("s", "lower", _IO),
    "dispatch.build_ccp_s": ("s", "lower", _IO),
    "dispatch.audit_s": ("s", "lower", _IO),
    "cli.self_s": ("s", "lower", _IO),
    "cli.report_bytes": ("B", "lower", _IO),
    "bench.failed_frac": ("frac", "lower", _FAIL),
    "trace.op_s_p50": ("s", "lower", "traced op_s_p50; minus the untraced "
                       "op_s_p50 it is the tracing overhead"),
    "trace.spans": ("count", "lower", "spans recorded per op"),
}
