"""Problem model: scenario sets, bi-affine constraints, chance groups.

A problem is  min c'x  over a polytope, subject to one joint chance
constraint per group:  P[ g_j(x, xi) <= 0  for all j ] >= 1 - epsilon,
estimated on that group's scenario set.  Every g is bi-affine,

    g(x, xi) = xi'(A x + a0) + c'x + d,

which keeps the scenario rows linear in x and admits a closed-form
worst-case over a Wasserstein ball of radius rho around the empirical
scenarios:  gbar(x, xi) = rho * ||A x + a0||_dual + g(x, xi),
where the dual norm pairs with the chosen uncertainty norm.
``JccGroup.values`` computes gbar for every constraint of a group on every
scenario; group evaluation and the alternation's shortfalls both read it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ModelError
from .lp import check_blocks

# A scenario counts as satisfied when its worst constraint value is below
# this; absorbs LP vertex noise without hiding real violations.
TOL_ZERO = 1e-6

NORMS = ("l1", "linf")
_DUAL = {"l1": "linf", "linf": "l1"}


def dual_norm(norm: str) -> str:
    """Name of the norm dual to an uncertainty norm."""
    try:
        return _DUAL[norm]
    except KeyError:
        raise ModelError(f"unknown norm {norm!r}; expected one of {NORMS}") from None


def norm_value(v: np.ndarray, norm: str) -> float:
    v = np.asarray(v, dtype=float)
    if norm == "l1":
        return float(np.sum(np.abs(v)))
    if norm == "linf":
        return float(np.max(np.abs(v), initial=0.0))
    raise ModelError(f"unknown norm {norm!r}; expected one of {NORMS}")


@dataclass
class SampleSet:
    """n >= 1 scenarios of a k-dimensional uncertain vector, one per row."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        # Before atleast_2d, which reads an empty vector as one scenario
        # of dimension 0.
        if data.ndim and data.shape[0] == 0:
            raise ModelError("a scenario set may not be empty")
        self.data = np.atleast_2d(data)
        if self.data.ndim != 2:
            raise ModelError("samples must form a 2-d array (scenarios x dim)")
        if not np.all(np.isfinite(self.data)):
            raise ModelError("samples must be finite")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self.data.mean(axis=0)

    @classmethod
    def from_csv(cls, path) -> "SampleSet":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for i, row in enumerate(reader):
                row = [cell.strip() for cell in row if cell.strip() != ""]
                if not row:
                    continue
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError:
                    if i == 0:
                        continue  # header row
                    raise ModelError(f"{path}: non-numeric value on line {i + 1}") from None
                if not all(map(math.isfinite, rows[-1])):
                    raise ModelError(f"{path}: non-finite value on line {i + 1}")
        if not rows:
            raise ModelError(f"{path}: no scenario rows found")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ModelError(f"{path}: ragged rows (widths {sorted(widths)})")
        return cls(np.asarray(rows))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"xi{j}" for j in range(self.dim)])
            for row in self.data:
                writer.writerow([repr(float(v)) for v in row])


class BiAffineConstraint:
    """g(x, xi) = xi'(A x + a0) + c'x + d  <= 0 (target form).

    ``A`` (xi-dim x x-dim) is stored as the flat indices and values of its
    stored entries: the nonzeros and any ``-0.0``, so that every entry,
    sign of zero included, reads back exactly; fewer than one entry in
    500 of a compiled dispatch constraint is nonzero.  ``A`` is read-only:
    each read returns a fresh dense float64 array, and writing into that
    array leaves the constraint unchanged.
    """

    def __init__(self, A, a0, c, d: float = 0.0):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        flat = A.ravel()
        index = np.flatnonzero((flat != 0.0) | np.signbit(flat))
        self._store(A.shape, index, flat[index], a0, c, d)

    @classmethod
    def from_entries(cls, shape, index, value, a0, c,
                     d: float = 0.0) -> "BiAffineConstraint":
        """The constraint whose ``A`` of ``shape`` holds ``value`` at the
        flat row-major positions ``index`` (strictly increasing, in range)
        and 0.0 elsewhere, built without the dense matrix."""
        value = np.asarray(value, dtype=float)
        keep = (value != 0.0) | np.signbit(value)
        con = cls.__new__(cls)
        con._store(tuple(shape), np.asarray(index, dtype=np.intp)[keep],
                   value[keep], a0, c, d)
        return con

    def _store(self, shape, index, value, a0, c, d):
        self.a0 = np.atleast_1d(np.asarray(a0, dtype=float))
        self.c = np.atleast_1d(np.asarray(c, dtype=float))
        self.d = float(d)
        k, n = shape
        if self.a0.shape != (k,):
            raise ModelError(f"a0 must have length {k} (rows of A), got {self.a0.shape}")
        if self.c.shape != (n,):
            raise ModelError(f"c must have length {n} (cols of A), got {self.c.shape}")
        for name, arr in (("A", value), ("a0", self.a0), ("c", self.c)):
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"{name} must be finite")
        if not np.isfinite(self.d):
            raise ModelError("d must be finite")
        self.A_shape = (k, n)
        self.A_index = index
        self.A_value = value

    @property
    def A(self) -> np.ndarray:
        out = np.zeros(self.A_shape)
        out.ravel()[self.A_index] = self.A_value
        return out

    @property
    def xi_dim(self) -> int:
        return self.A_shape[0]

    @property
    def x_dim(self) -> int:
        return self.A_shape[1]


@dataclass
class Polytope:
    """Deterministic feasible set: G x <= h, A_eq x = b_eq, lower/upper."""

    G: np.ndarray | None = None
    h: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def validate(self, n: int) -> None:
        check_blocks(self, n, "polytope: ")

    @property
    def n_ineq(self) -> int:
        return 0 if self.G is None else self.G.shape[0]


def check_risk(owner: str, epsilon, rho) -> tuple[float, float]:
    """A risk level and a Wasserstein radius as floats, checked: epsilon in
    [0, 1), rho finite and nonnegative.  ``owner`` starts the messages."""
    epsilon, rho = float(epsilon), float(rho)
    if not 0.0 <= epsilon < 1.0:
        raise ModelError(f"{owner}: epsilon must be in [0, 1)")
    if not 0.0 <= rho < math.inf:
        raise ModelError(f"{owner}: rho must be finite and nonnegative")
    return epsilon, rho


def risk_budget(epsilon: float, n: int) -> int:
    """floor(epsilon * n): how many of a group's n scenarios may be
    violated at risk epsilon.  Every acceptance rule reads this count."""
    return math.floor(epsilon * n + 1e-9)


@dataclass
class JccGroup:
    """One joint chance constraint: all member constraints must hold
    simultaneously with probability >= 1 - epsilon on this group's samples."""

    constraints: list[BiAffineConstraint]
    samples: SampleSet
    epsilon: float
    rho: float = 0.0
    norm: str = "l1"
    label: str = ""

    def __post_init__(self):
        if not self.constraints:
            raise ModelError(f"group {self.label!r}: needs at least one constraint")
        self.epsilon, self.rho = check_risk(f"group {self.label!r}",
                                            self.epsilon, self.rho)
        dual_norm(self.norm)
        k = self.samples.dim
        for j, g in enumerate(self.constraints):
            if g.xi_dim != k:
                raise ModelError(
                    f"group {self.label!r}: constraint {j} expects xi of dim "
                    f"{g.xi_dim}, samples have dim {k}")

    @property
    def n(self) -> int:
        return self.samples.n

    @property
    def x_dim(self) -> int:
        return self.constraints[0].x_dim

    def values(self, x: np.ndarray) -> np.ndarray:
        """Worst-case values gbar_j(x, xi_i) = rho*||A_j x + a0_j||_dual +
        g_j(x, xi_i) on the group's samples at its radius: one row per
        scenario, one column per constraint; rho = 0 gives the plain
        constraint values."""
        data, rho = self.samples.data, self.rho
        x = np.asarray(x, dtype=float)
        out = np.empty((data.shape[0], len(self.constraints)))
        for j, con in enumerate(self.constraints):
            a = con.A @ x + con.a0
            margin = 0.0 if rho == 0.0 else rho * norm_value(a, dual_norm(self.norm))
            # one product per constraint: a stacked product rounds differently
            out[:, j] = margin + (data @ a + float(con.c @ x + con.d))
        return out


@dataclass
class CcpProblem:
    """min objective'x over polytope, s.t. one JCC per group."""

    objective: np.ndarray
    polytope: Polytope
    groups: list[JccGroup]
    var_names: list[str] | None = None

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = self.objective.size
        if n == 0:
            raise ModelError("objective must be nonempty")
        self.polytope.validate(n)
        if not self.groups:
            raise ModelError("a problem needs at least one chance group")
        for g in self.groups:
            for j, con in enumerate(g.constraints):
                if con.x_dim != n:
                    raise ModelError(
                        f"group {g.label!r}: constraint {j} has x-dim "
                        f"{con.x_dim}, problem has {n} variables")
        if self.var_names is not None and len(self.var_names) != n:
            raise ModelError("var_names must match the variable count")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_groups(self) -> int:
        return len(self.groups)


@dataclass
class ViolationReport:
    """In-sample (or test-set) evaluation of one group at a point, at
    radius ``rho``: the per-group result of every solve report and the
    verdict of every bisection level.  Build it with ``of``.

    Rates are formed by a single integer-count division so that, e.g.,
    16 violations out of 20 compares bit-equal to 16/20."""

    label: str
    epsilon: float
    rho: float
    n_satisfied: int
    n: int
    worst: np.ndarray            # per-scenario max constraint value

    @classmethod
    def of(cls, group: JccGroup, worst: np.ndarray) -> "ViolationReport":
        """The group's verdict on its per-scenario worst values: a scenario
        is satisfied when its worst value is at most TOL_ZERO.  Shortfalls
        max(worst, 0) give the same verdict, since TOL_ZERO > 0."""
        n_sat = int(np.count_nonzero(worst <= TOL_ZERO))
        return cls(group.label, group.epsilon, group.rho, n_sat, worst.size,
                   worst)

    @property
    def kept(self) -> np.ndarray:
        """Mask of the satisfied scenarios."""
        return self.worst <= TOL_ZERO

    @property
    def rate(self) -> float:
        """Fraction of scenarios fully satisfied."""
        return self.n_satisfied / self.n

    @property
    def violation_rate(self) -> float:
        return (self.n - self.n_satisfied) / self.n

    @property
    def satisfied(self) -> bool:
        return self.n - self.n_satisfied <= risk_budget(self.epsilon, self.n)

    def to_dict(self):
        return {"label": self.label, "epsilon": self.epsilon, "rho": self.rho,
                "violation_rate": self.violation_rate, "satisfied": self.satisfied}


def evaluate_group(group: JccGroup, x: np.ndarray,
                   scenarios: SampleSet | None = None) -> ViolationReport:
    """Fraction of scenarios on which every group constraint holds at x.

    Scores the group's own samples at its radius, or a held-out set
    ``scenarios`` at radius 0: the Wasserstein margin hedges training
    only, so held-out scenarios are measured on the raw constraints.
    """
    if scenarios is not None:
        group = replace(group, samples=scenarios, rho=0.0)
    return ViolationReport.of(group, group.values(x).max(axis=1))


# -- serialization -----------------------------------------------------------

# The default of a field that must be given, as in a dataclass.
REQUIRED = MISSING


def number(value, finite: bool = True) -> float:
    """A JSON number as a float.  Strings, booleans and NaN raise instead
    of being converted, and so do the infinities unless not ``finite``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value) or (finite and math.isinf(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def floats(value, shape=None) -> np.ndarray:
    """A JSON number or (nested, rectangular) array of finite numbers as a
    float array; any other entry raises, as in ``number``, and so does an
    array of another ``shape`` when one is given."""
    arr = np.asarray(value, dtype=object)
    odd = [type(v) for v in arr.flat if type(v) not in (int, float)]
    if odd:
        raise TypeError("expected numbers, got " + (
            "a ragged array" if odd[0] is list else odd[0].__name__))
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite numbers")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return arr


def integer(value) -> int:
    """A JSON whole number as an int.  Strings, booleans and numbers with a
    fractional part raise instead of being converted or truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a whole number, got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def text(value) -> str:
    """A JSON string; any other value raises instead of being converted."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def norm_name(value) -> str:
    """A JSON string naming an uncertainty norm, one of NORMS."""
    if text(value) not in NORMS:
        raise ValueError(f"unknown norm {value!r}; expected one of {NORMS}")
    return value


def texts(value) -> list[str]:
    """A JSON array of strings."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return [text(v) for v in value]


def read_field(data, key: str, where: str, kind=None, default=REQUIRED):
    """Field ``key`` of the JSON object at path ``where``, passed through
    ``kind``: a callable, or ``dict``/``list`` to require an object or an
    array.  A missing field, or a null one whose default is None, reads as
    ``default``.  A value of the wrong type, or a ``data`` that is no
    object, raises a ModelError naming its path; a ModelError from
    ``kind`` passes unchanged."""
    if not isinstance(data, dict):
        raise ModelError(f"{where}: expected an object, got {type(data).__name__}")
    if key not in data or (data[key] is None and default is None):
        if default is REQUIRED:
            raise ModelError(f"{where}: missing field {key!r}")
        return default
    value, path = data[key], f"{where.rstrip('/')}/{key}"
    if kind in (dict, list) and not isinstance(value, kind):
        raise ModelError(f"{path}: expected an {'object' if kind is dict else 'array'}"
                         f", got {type(value).__name__}")
    if kind in (None, dict, list):
        return value
    try:
        return kind(value)
    except ModelError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{path}: {exc}") from None


def read_fields(cls, data, where: str, kinds: dict, **defaults) -> dict:
    """Fields of the dataclass ``cls`` from the JSON object ``data`` at
    path ``where``, read in the order of ``kinds``, which maps each to its
    kind (see ``read_field``).  A missing field reads as its default in
    ``defaults``, else as the one ``cls`` declares; a field with neither
    is required."""
    defaults = {f.name: f.default for f in fields(cls)} | defaults
    return {key: read_field(data, key, where, kind, defaults[key])
            for key, kind in kinds.items()}


def load_json(path):
    """The JSON value in the file at ``path``; text that is not JSON
    raises a ModelError naming the file."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: not valid JSON ({exc})") from None


def _bounds_to_json(lower, upper):
    out = []
    for lo, hi in zip(lower, upper):
        entry = {}
        if np.isfinite(lo):
            entry["lower"] = float(lo)
        if np.isfinite(hi):
            entry["upper"] = float(hi)
        out.append(entry)
    return out


def _bound(value) -> float:
    """A bound: a JSON number, or +-Infinity for none (``check_blocks``
    rejects an infinity on the wrong side)."""
    return number(value, finite=False)


def _bounds_from_json(entries, n, path):
    if len(entries) > n:
        raise ModelError(f"{path}: {len(entries)} entries for {n} variables")
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    for j, entry in enumerate(entries):
        where = f"{path}/{j}"
        lower[j] = read_field(entry, "lower", where, _bound, -np.inf)
        upper[j] = read_field(entry, "upper", where, _bound, np.inf)
    return lower, upper


def _shape(value) -> tuple[int, int]:
    """A JSON array of two positive whole numbers, as a matrix shape."""
    try:
        k, n = map(integer, value)
    except (TypeError, ValueError):
        k = n = 0
    if min(k, n) < 1:
        raise ValueError(f"expected two positive whole numbers, got {value!r}")
    return k, n


def _entries_from_json(data, where) -> tuple:
    """The (shape, index, value) of a matrix written as the JSON object
    ``{"shape": [k, n], "index": [...], "value": [...]}`` at path
    ``where``: ``value[i]`` sits at flat row-major position ``index[i]``,
    the indices strictly increasing, and every other entry is 0.0."""
    shape = read_field(data, "shape", where, _shape)
    index = read_field(data, "index", where, list)
    value = read_field(data, "value", where, list)
    if len(index) != len(value):
        raise ModelError(f"{where}: index has {len(index)} entries, value "
                         f"{len(value)}")
    positions, values = [], []
    for i, (j, v) in enumerate(zip(index, value)):
        try:
            j = integer(j)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"{where}/index/{i}: {exc}") from None
        if not 0 <= j < shape[0] * shape[1]:
            raise ModelError(f"{where}/index/{i}: {j} is out of range for "
                             f"shape {list(shape)}")
        if positions and j <= positions[-1]:
            raise ModelError(f"{where}/index/{i}: {j} " + (
                "repeats the entry before" if j == positions[-1] else
                "is below the entry before") + "; indices must be strictly "
                "increasing")
        positions.append(j)
        try:
            values.append(number(v))
        except (TypeError, ValueError) as exc:
            raise ModelError(f"{where}/value/{i}: {exc}") from None
    return shape, positions, values


def _constraint_from_json(data, where) -> BiAffineConstraint:
    """The constraint of the JSON object at path ``where``, whose ``A`` is
    a dense nested list or its stored entries (``_entries_from_json``)."""
    A = read_field(data, "A", where)
    build = (partial(BiAffineConstraint.from_entries,
                     *_entries_from_json(A, f"{where}/A"))
             if isinstance(A, dict)
             else partial(BiAffineConstraint, read_field(data, "A", where, floats)))
    rest = [read_field(data, k, where, floats) for k in ("a0", "c")]
    rest.append(read_field(data, "d", where, number))
    try:
        return build(*rest)
    except ModelError as exc:  # a0 or c against the shape of A
        raise ModelError(f"{where}: {exc}") from None


def problem_to_dict(problem: CcpProblem) -> dict:
    """JSON-ready dict; numbers survive a round trip bit-exactly.  Each
    constraint's ``A`` is written as its stored entries (the nonzeros and
    any -0.0, at their flat row-major positions); every other block is
    dense."""
    poly = problem.polytope
    out = {
        "objective": problem.objective.tolist(),
        "polytope": {
            "bounds": _bounds_to_json(poly.lower, poly.upper),
        },
        "groups": [],
    }
    if problem.var_names is not None:
        out["var_names"] = list(problem.var_names)
    if poly.G is not None:
        out["polytope"]["ineq_lhs"] = poly.G.tolist()
        out["polytope"]["ineq_rhs"] = poly.h.tolist()
    if poly.A_eq is not None:
        out["polytope"]["eq_lhs"] = poly.A_eq.tolist()
        out["polytope"]["eq_rhs"] = poly.b_eq.tolist()
    for g in problem.groups:
        out["groups"].append({
            "label": g.label,
            "epsilon": g.epsilon,
            "rho": g.rho,
            "norm": g.norm,
            "constraints": [
                {"A": {"shape": list(c.A_shape), "index": c.A_index.tolist(),
                       "value": c.A_value.tolist()},
                 "a0": c.a0.tolist(), "c": c.c.tolist(), "d": c.d}
                for c in g.constraints
            ],
            "samples": g.samples.data.tolist(),
        })
    return out


def problem_from_dict(data: dict, path: str = "/") -> CcpProblem:
    """The problem of the JSON object ``data``, found at ``path`` of its
    file; error messages name paths from there."""
    root = path.rstrip("/")
    objective = read_field(data, "objective", path, floats, None)
    if objective is None:
        raise ModelError(f"{root}/objective: missing")
    n = objective.size
    poly_data = read_field(data, "polytope", path, dict, {})
    lower = upper = None
    bounds = read_field(poly_data, "bounds", f"{root}/polytope", list, None)
    if bounds is not None:
        lower, upper = _bounds_from_json(bounds, n, f"{root}/polytope/bounds")
    poly = Polytope(*(read_field(poly_data, k, f"{root}/polytope", floats, None)
                      for k in ("ineq_lhs", "ineq_rhs", "eq_lhs", "eq_rhs")),
                    lower=lower, upper=upper)
    group_data = read_field(data, "groups", path, list, [])
    if not group_data:
        raise ModelError(f"{root}/groups: a problem needs at least one chance group")
    groups = []
    for gi, gd in enumerate(group_data):
        where = f"{root}/groups/{gi}"
        constraints = [
            _constraint_from_json(cd, f"{where}/constraints/{ci}")
            for ci, cd in enumerate(read_field(gd, "constraints", where, list))]
        scenarios = read_field(gd, "samples", where, floats)
        try:
            samples = SampleSet(scenarios)
        except ModelError as exc:
            raise ModelError(f"{where}/samples: {exc}") from None
        groups.append(JccGroup(
            constraints=constraints,
            samples=samples,
            **read_fields(JccGroup, gd, where, {
                "epsilon": number, "rho": number, "norm": norm_name,
                "label": text},
                label=f"group{gi}")))
    return CcpProblem(objective=objective, polytope=poly, groups=groups,
                      var_names=read_field(data, "var_names", path, texts, None))
