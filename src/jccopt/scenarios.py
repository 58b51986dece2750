"""Seeded scenario generation for CSV sample files.

Draws come from numpy's default generator (PCG64), so a given (seed, spec)
pair produces identical samples on every platform numpy supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModelError
from .model import SampleSet, floats, integer, read_field, read_fields, text

DISTRIBUTIONS = ("uniform", "gaussian", "from-file")


@dataclass
class ScenarioGenSpec:
    """What to draw: n rows of `columns` values from one distribution.

    uniform needs low/high, gaussian needs mean/std (scalars broadcast,
    or one value per column); from-file copies an existing CSV through the
    writer unchanged.
    """

    n: int
    columns: int
    kind: str
    seed: int = 0
    low: float | np.ndarray = 0.0
    high: float | np.ndarray = 1.0
    mean: float | np.ndarray = 0.0
    std: float | np.ndarray = 1.0
    path: str | None = None
    output: str = "scenarios.csv"

    def __post_init__(self):
        if self.kind not in DISTRIBUTIONS:
            raise ModelError(
                f"/distribution/kind: {self.kind!r} not one of {DISTRIBUTIONS}")
        if self.kind != "from-file" and (self.n < 1 or self.columns < 1):
            raise ModelError("/n,/columns: need at least one row and column")
        if self.seed < 0:
            raise ModelError("/seed: must be nonnegative")
        if self.kind == "from-file" and not self.path:
            raise ModelError("/distribution/path: required for from-file")


def spec_from_dict(data: dict) -> ScenarioGenSpec:
    """The spec of a JSON object: its top-level fields, then those of its
    ``distribution``; an omitted field reads as the default that
    ``ScenarioGenSpec`` declares, and an omitted ``n`` or ``columns`` as
    0 (which only ``from-file`` accepts)."""
    top = read_fields(ScenarioGenSpec, data, "/", {
        "n": integer, "columns": integer, "seed": integer, "output": text},
        n=0, columns=0)
    dist = read_field(data, "distribution", "/", dict)
    return ScenarioGenSpec(**top, **read_fields(
        ScenarioGenSpec, dist, "/distribution", {
            "kind": text, "low": floats, "high": floats, "mean": floats,
            "std": floats, "path": text}))


def _per_column(value, columns: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape == (1,):
        arr = np.repeat(arr, columns)
    if arr.shape != (columns,):
        raise ModelError(f"/distribution/{name}: scalar or one value per column")
    return arr


def generate_scenarios(spec: ScenarioGenSpec,
                       base_dir: Path | None = None) -> SampleSet:
    if spec.kind == "from-file":
        return SampleSet.from_csv(Path(base_dir or "", spec.path))
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        low = _per_column(spec.low, spec.columns, "low")
        high = _per_column(spec.high, spec.columns, "high")
        if np.any(low > high):
            raise ModelError("/distribution: low > high")
        data = rng.uniform(low, high, size=(spec.n, spec.columns))
    else:
        mean = _per_column(spec.mean, spec.columns, "mean")
        std = _per_column(spec.std, spec.columns, "std")
        if np.any(std < 0):
            raise ModelError("/distribution/std: negative")
        data = mean + std * rng.standard_normal((spec.n, spec.columns))
    return SampleSet(data)
