"""The benchmark tracer (perfbench/tracing.py) wraps program functions by
name; a deleted or renamed one fails here, not only in a traced run."""

import importlib.util
from pathlib import Path

from jccopt import algorithms, cli, dispatch, lp, model
from jccopt.toys import interval_toy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (algorithms, algorithms.SStepAssembler, cli, dispatch, lp,
          lp.SimplexBackend, lp.SimplexSession, model)


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports layers
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = {(owner, name): value for owner in OWNERS
              for name, value in vars(owner).items()}

    tracer = tracing.Tracer().install()
    try:
        assert algorithms.solve_cvar is not before[(algorithms, "solve_cvar")]
        algorithms.solve(interval_toy(0.4), algorithms.METHOD_CVAR)
        assert {"algorithms.solve_cvar", "lp.solve_lp"} <= \
            {span.name for span in tracer.spans}
    finally:
        tracer.uninstall()
    assert all(vars(owner).get(name) is value
               for (owner, name), value in before.items())


def test_oracle_sessions_are_traced(monkeypatch):
    # The tracer looks each session up by the id that start_session
    # recorded, so a session started around it fails here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer().install()
    try:
        algorithms.solve_oracle(interval_toy(0.4))
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("lp.session_solve") == names.count("lp.start_session") > 0
