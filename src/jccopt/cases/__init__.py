"""Bundled dispatch cases.

Two fixtures ship as JSON next to this module: ``three_bus.json``, a small
but fully featured network (two generators, one wind farm, one ADN, a
triangle of lines, embedded held-out test scenarios), and ``overlap.json``,
a single-bus case whose ADN carries one rogue boundary scenario so that
tail-averaging methods are infeasible at every radius while scenario
removal is not.

The factories below are the source of truth; the JSON files are their
serialized output (a test keeps them in sync).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from ..dispatch import (Adn, Bus, DispatchCase, Generator, Line, Network,
                        Segment, WindFarm, WindScenarioSet, case_to_dict)

__all__ = ["three_bus_case", "overlap_case", "bundled_case_path",
           "write_bundled"]


def three_bus_case(n_train: int = 10, n_test: int = 100) -> DispatchCase:
    """Three buses in a triangle of equal reactances, T=4 quarter-hour steps.

    Bus 0: slack, cheap generator.  Bus 1: dearer generator plus the wind
    farm.  Bus 2: fixed load plus a flexible ADN.  Wind errors are clipped
    normals; ADN boundaries bracket a fixed base profile so every scenario
    admits the base trajectory.
    """
    T = 4
    dt = 0.25
    gens = [
        Generator(bus=0, p_min=2.0, p_max=10.0, ramp_dn=-8.0, ramp_up=8.0,
                  segments=[Segment(4.0, 20.0), Segment(4.0, 30.0)],
                  fixed_cost=5.0, reserve_cost_up=4.0, reserve_cost_dn=3.0,
                  epsilon=0.05, name="g1"),
        Generator(bus=1, p_min=1.0, p_max=7.0, ramp_dn=-6.0, ramp_up=6.0,
                  segments=[Segment(3.0, 25.0), Segment(3.0, 35.0)],
                  fixed_cost=3.0, reserve_cost_up=5.0, reserve_cost_dn=4.0,
                  epsilon=0.05, name="g2"),
    ]
    network = Network(
        buses=[Bus(0, np.zeros(T)), Bus(1, np.zeros(T)),
               Bus(2, np.array([8.0, 9.0, 9.5, 9.0]))],
        lines=[Line(0, 1, capacity=8.0, reactance=1.0, epsilon=0.1, name="l01"),
               Line(1, 2, capacity=8.0, reactance=1.0, epsilon=0.1, name="l12"),
               Line(0, 2, capacity=8.0, reactance=1.0, epsilon=0.1, name="l02")],
        slack_bus=0)

    def wind_errors(seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.clip(rng.normal(0.0, 0.6, size=(n, 1, T)), -2.0, 2.0)

    def boundaries(seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        base = np.array([2.0, 2.2, 2.4, 2.2])
        p_lo = base - 0.8 - 0.3 * rng.uniform(size=(n, T))
        p_hi = base + 0.8 + 0.3 * rng.uniform(size=(n, T))
        e_base = dt * np.cumsum(base)
        e_lo = e_base - 0.3 - 0.2 * rng.uniform(size=(n, T))
        e_hi = e_base + 0.3 + 0.2 * rng.uniform(size=(n, T))
        return np.hstack([p_lo, p_hi, e_lo, e_hi])

    train_b = boundaries(202, n_train)
    adn = Adn.from_rows(bus=2, rows=train_b, horizon=T, reserve_cost_up=2.0,
                        epsilon=0.05, name="adn2")
    wind = WindScenarioSet(
        farms=[WindFarm(bus=1, forecast=np.array([3.0, 3.5, 4.0, 3.5]))],
        errors=wind_errors(101, n_train))
    case = DispatchCase(
        horizon=T, step=dt, network=network, generators=gens, adns=[adn],
        wind=wind,
        test_wind_rows=wind_errors(1101, n_test).reshape(n_test, -1),
        test_boundary_rows=[boundaries(1202, n_test)])
    case.validate()
    return case


def overlap_case() -> DispatchCase:
    """Single bus, one generator, one ADN, ten boundary scenarios of which
    one demands more power than the system can deliver.

    With eps = 0.1 the scenario-removal budget is exactly one scenario, so
    dropping the rogue restores feasibility; any method that averages over
    the worst tail keeps the rogue in play and stays infeasible at every
    robustness radius.
    """
    T = 2
    dt = 0.25
    gens = [Generator(bus=0, p_min=1.0, p_max=10.0, ramp_dn=-40.0,
                      ramp_up=40.0, segments=[Segment(9.0, 10.0)],
                      reserve_cost_up=2.0, reserve_cost_dn=2.0,
                      epsilon=0.05, name="g1")]
    network = Network(buses=[Bus(0, np.array([5.0, 5.0]))], slack_bus=0)
    idx = np.arange(9, dtype=float)
    p_lo = np.tile(1.0 + 0.02 * idx[:, None], (1, T))
    p_hi = np.tile(3.0 - 0.02 * idx[:, None], (1, T))
    e_lo = np.zeros((9, T))
    e_hi = dt * np.cumsum(p_hi, axis=1) + 1.0
    rogue_p_lo = np.full((1, T), 6.0)
    rogue_p_hi = np.full((1, T), 6.5)
    rogue_e_hi = dt * np.cumsum(rogue_p_hi, axis=1) + 1.0
    adn = Adn(bus=0,
              p_lower=np.vstack([p_lo, rogue_p_lo]),
              p_upper=np.vstack([p_hi, rogue_p_hi]),
              e_lower=np.vstack([e_lo, np.zeros((1, T))]),
              e_upper=np.vstack([e_hi, rogue_e_hi]),
              reserve_cost_up=1.0, epsilon=0.1, name="adn0")
    case = DispatchCase(horizon=T, step=dt, network=network, generators=gens,
                        adns=[adn], wind=None)
    case.validate()
    return case


_FACTORIES = {"three_bus": three_bus_case, "overlap": overlap_case}


def bundled_case_path(name: str) -> Path:
    """Filesystem path of a bundled case JSON ('three_bus' or 'overlap')."""
    if name not in _FACTORIES:
        raise KeyError(f"no bundled case {name!r}; have {sorted(_FACTORIES)}")
    return Path(str(resources.files(__package__) / f"{name}.json"))


def render_case(name: str) -> str:
    return json.dumps(case_to_dict(_FACTORIES[name]()), indent=2,
                      sort_keys=True) + "\n"


def write_bundled(target_dir: Path | None = None) -> list[Path]:
    """Regenerate the bundled JSON files from the factories."""
    target_dir = Path(target_dir) if target_dir else Path(__file__).parent
    written = []
    for name in _FACTORIES:
        path = target_dir / f"{name}.json"
        path.write_text(render_case(name))
        written.append(path)
    return written
