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
A group stores its constraints stacked (``ConstraintStack``), not one
object each.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, fields, replace
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
        write_csv(path, [f"xi{j}" for j in range(self.dim)], self.data)


def write_csv(path, header, rows) -> None:
    """``header``, then ``rows``, to the file at ``path`` (``write_rows``)."""
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, rows)


def write_rows(fh, header, rows) -> None:
    """``header``, then ``rows``, to the text stream ``fh`` through
    csv.writer with LF line ends: a cell holding a comma or a quote is
    quoted, None is an empty cell, and a number is written as str() gives
    it (a float's shortest repr)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


class _Entries:
    """A float64 array kept as its stored entries: the one storage of every
    model matrix (a constraint's ``A``, a group's stacked ``A`` and ``c``,
    a polytope's ``G`` and ``A_eq``).  It holds the array's ``shape``, the
    flat row-major positions ``index`` of its stored entries, strictly
    increasing, and their float64 ``value``s.  The stored entries are the
    nonzeros and every ``-0.0``; every other entry is ``0.0``, so a read
    gives back each entry, sign of zero included."""

    __slots__ = ("shape", "index", "value")

    def __init__(self, shape, index, value):
        """The array of ``shape`` that holds ``value`` at the flat positions
        ``index`` (strictly increasing, in range) and 0.0 elsewhere: the
        entries that are not 0.0 are stored."""
        value = np.asarray(value, dtype=float)
        keep = (value != 0.0) | np.signbit(value)
        self.shape = tuple(shape)
        self.index, self.value = np.asarray(index, dtype=np.intp)[keep], value[keep]

    @classmethod
    def of(cls, M) -> "_Entries":
        """The record of the dense array ``M``."""
        M = np.asarray(M, dtype=float)
        return cls(M.shape, np.arange(M.size), M.reshape(-1))

    def dense(self) -> np.ndarray:
        """The array, as a fresh dense one."""
        out = np.zeros(self.shape)
        out.reshape(-1)[self.index] = self.value
        return out

    def rows(self, lo: int, hi: int) -> "_Entries":
        """The record of ``M[lo:hi]``, sliced out of this one."""
        if (lo, hi) == (0, self.shape[0]):
            return self
        stride = math.prod(self.shape[1:])
        part = slice(*np.searchsorted(self.index, (lo * stride, hi * stride)))
        return _Entries((hi - lo, *self.shape[1:]),
                        self.index[part] - lo * stride, self.value[part])


def _check_finite(**arrays) -> None:
    """Raise a ModelError naming the first of ``arrays`` that is not finite."""
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ModelError(f"{name} must be finite")


class BiAffineConstraint:
    """g(x, xi) = xi'(A x + a0) + c'x + d  <= 0 (target form).

    ``A`` (xi-dim x x-dim) is kept as its stored entries (``_Entries``, which
    may also be given instead of the dense matrix): fewer than one entry in
    500 of a compiled dispatch constraint is stored.  ``A`` is read-only:
    each read returns a fresh dense float64 array, and writing into that
    array leaves the constraint unchanged.
    """

    def __init__(self, A, a0, c, d: float = 0.0):
        A = A if isinstance(A, _Entries) else _Entries.of(np.atleast_2d(A))
        self.a0 = np.atleast_1d(np.asarray(a0, dtype=float))
        self.c = np.atleast_1d(np.asarray(c, dtype=float))
        self.d = float(d)
        k, n = A.shape
        if self.a0.shape != (k,):
            raise ModelError(f"a0 must have length {k} (rows of A), got {self.a0.shape}")
        if self.c.shape != (n,):
            raise ModelError(f"c must have length {n} (cols of A), got {self.c.shape}")
        _check_finite(A=A.value, a0=self.a0, c=self.c, d=self.d)
        self._A = A

    @property
    def A(self) -> np.ndarray:
        return self._A.dense()

    @property
    def xi_dim(self) -> int:
        return self._A.shape[0]

    @property
    def x_dim(self) -> int:
        return self._A.shape[1]


def _aligned_rows(m: int, k: int) -> np.ndarray:
    """An uninitialised (m, k) array whose rows each start 16-byte aligned
    (rows padded to an even length), as a member's own vector does: on
    some kernels (OpenBLAS's Prescott) a dot or matrix-vector product
    whose vector starts 8 bytes off rounds differently."""
    return np.empty((m, k + k % 2))[:, :k]


# The most entries a dense block of several members' A holds (256 KiB of
# float64); a member larger than that is densified alone.
BLOCK_ENTRIES = 1 << 15


class ConstraintStack(Sequence):
    """The m member constraints of a chance group, over xi of length k and
    x of length n, stored stacked instead of one object each: every
    member's ``A`` as one (m, k, n) record of stored entries
    (``_Entries``), every ``c`` as one (m, n) record, and ``a0`` (m x k)
    and ``d`` (m,) as read-only arrays.

    Reads return fresh dense arrays: ``A_blocks()`` gives consecutive
    members' ``A`` in blocks of at most ``BLOCK_ENTRIES`` entries (or one
    member), and ``c`` every member's at once (m x n).  ``JccGroup.values``
    and the LP rows (``algorithms._ScenarioLpBuilder``) read members only
    through ``A_blocks``, with per-member BLAS calls (batched ``np.matmul``
    or ``np.matvec`` over a block, ``np.matvec`` or ``np.vecdot`` over the
    rows of ``a0`` and ``c``): each is the call a member's own product
    makes, so it rounds alike, where one product over all members would
    not.  Indexing gives a member as a new BiAffineConstraint (a list of
    them for a slice); the stack itself never changes.
    """

    __slots__ = ("shape", "_A", "_c", "a0", "d")

    def __init__(self, shape, index, value, a0, c, d):
        """The stack whose members' ``A``, stacked (m, k, n), are
        ``_Entries(shape, index, value)``, with the dense ``a0``
        (m x k), ``c`` (m x n) and ``d`` (m,)."""
        self._A = _Entries(shape, index, value)
        self._c = _Entries.of(c)
        m, k, _ = self.shape = self._A.shape
        self.a0 = _aligned_rows(m, k)
        self.a0[:] = a0
        self.d = np.array(d, dtype=float)
        _check_finite(A=self._A.value, a0=self.a0, c=self._c.value, d=self.d)
        self.a0.setflags(write=False)
        self.d.setflags(write=False)

    @classmethod
    def of(cls, members: list[BiAffineConstraint]) -> "ConstraintStack":
        """The stack of ``members``, all over the same xi and x lengths."""
        k, n = members[0]._A.shape
        return cls((len(members), k, n),
                   np.concatenate([con._A.index + j * (k * n)
                                   for j, con in enumerate(members)]),
                   np.concatenate([con._A.value for con in members]),
                   *([getattr(con, key) for con in members]
                     for key in ("a0", "c", "d")))

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, j):
        j = range(len(self))[j]  # a range for a slice
        if isinstance(j, range):
            return [self[i] for i in j]
        A, c = self._A.rows(j, j + 1), self._c.rows(j, j + 1)
        return BiAffineConstraint(_Entries(A.shape[1:], A.index, A.value),
                                  self.a0[j], c.dense()[0], self.d[j])

    def A_blocks(self):
        """The members' dense ``A`` in order, as pairs (j, block): a fresh
        (members, k, n) block from member j on, of at most
        ``BLOCK_ENTRIES`` entries or of one member."""
        m, k, n = self.shape
        step = max(1, BLOCK_ENTRIES // max(1, k * n))
        for lo in range(0, m, step):
            yield lo, self._A.rows(lo, min(lo + step, m)).dense()

    @property
    def c(self) -> np.ndarray:
        """Every member's dense ``c``, as one fresh (m, n) array."""
        return self._c.dense()


class Polytope:
    """Deterministic feasible set: G x <= h, A_eq x = b_eq, lower/upper.

    ``G`` and ``A_eq`` are kept as their stored entries (``_Entries``), as
    a group's constraints are: a dispatch polytope has two nonzeros per
    row.  Each read returns a fresh dense array (None when the block is
    absent); assigning a matrix stores it so."""

    def __init__(self, G=None, h=None, A_eq=None, b_eq=None, lower=None,
                 upper=None):
        self.G, self.h, self.A_eq, self.b_eq = G, h, A_eq, b_eq
        self.lower, self.upper = lower, upper

    @property
    def G(self):
        return None if self._G is None else self._G.dense()

    @G.setter
    def G(self, M):
        self._G = None if M is None else _Entries.of(M)

    @property
    def A_eq(self):
        return None if self._A_eq is None else self._A_eq.dense()

    @A_eq.setter
    def A_eq(self, M):
        self._A_eq = None if M is None else _Entries.of(M)

    def validate(self, n: int) -> None:
        check_blocks(self, n, "polytope: ")

    @property
    def n_ineq(self) -> int:
        return 0 if self._G is None else self._G.shape[0]


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
    simultaneously with probability >= 1 - epsilon on this group's samples.

    ``constraints`` is given as a list of BiAffineConstraint, all over the
    same xi and x lengths, and kept as their ``ConstraintStack``."""

    constraints: ConstraintStack
    samples: SampleSet
    epsilon: float
    rho: float = 0.0
    norm: str = "l1"
    label: str = ""

    def __post_init__(self):
        if not len(self.constraints):
            raise ModelError(f"group {self.label!r}: needs at least one constraint")
        self.epsilon, self.rho = check_risk(f"group {self.label!r}",
                                            self.epsilon, self.rho)
        dual_norm(self.norm)
        k, cons = self.samples.dim, self.constraints
        stacked = isinstance(cons, ConstraintStack)
        shapes = [cons.shape[1:]] if stacked else [(g.xi_dim, g.x_dim) for g in cons]
        for j, (xi_dim, x_dim) in enumerate(shapes):
            if xi_dim != k:
                raise ModelError(
                    f"group {self.label!r}: constraint {j} expects xi of dim "
                    f"{xi_dim}, samples have dim {k}")
            if x_dim != shapes[0][1]:
                raise ModelError(
                    f"group {self.label!r}: constraint {j} has x-dim "
                    f"{x_dim}, constraint 0 has {shapes[0][1]}")
        if not stacked:
            self.constraints = ConstraintStack.of(cons)

    @property
    def n(self) -> int:
        return self.samples.n

    @property
    def x_dim(self) -> int:
        return self.constraints.shape[2]

    def values(self, x: np.ndarray) -> np.ndarray:
        """Worst-case values gbar_j(x, xi_i) = rho*||A_j x + a0_j||_dual +
        g_j(x, xi_i) on the group's samples at its radius: one row per
        scenario, one column per constraint; rho = 0 gives the plain
        constraint values."""
        data, rho = self.samples.data, self.rho
        x = np.asarray(x, dtype=float)
        cons = self.constraints
        # Row j of a is A_j x + a0_j, row j of g is g_j on every scenario,
        # from per-member BLAS calls (see ConstraintStack).
        a = _aligned_rows(*cons.shape[:2])
        for j, block in cons.A_blocks():
            np.matvec(block, x, out=a[j:j + len(block)])
        a += cons.a0
        g = np.matvec(data, a)
        g += (np.vecdot(cons.c, x) + cons.d)[:, None]
        # The margin comes last; at rho = 0 it is 0.0, which still turns
        # a -0.0 into 0.0.
        if rho == 0.0:
            g += 0.0
        else:
            g += rho * _row_norms(a, dual_norm(self.norm))[:, None]
        return np.ascontiguousarray(g.T)


def _row_norms(a: np.ndarray, norm: str) -> np.ndarray:
    """The dual norm of each row of a, in one reduction: the row sums add
    in the order a row's own sum does, so each equals the one-row
    reference ``norm_value`` of tests/helpers.py bit for bit."""
    if norm == "l1":
        return np.abs(a).sum(axis=1)
    return np.max(np.abs(a), axis=1, initial=0.0)


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
            if g.x_dim != n:
                raise ModelError(
                    f"group {g.label!r}: its constraints have x-dim "
                    f"{g.x_dim}, problem has {n} variables")
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


def report_json(value) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, the
    reports' format, written faster: a list whose items are all finite
    floats (a point, a row of a matrix) is one join of their reprs, which
    is json's own float text; dicts with str keys and other lists are
    walked here, and every other value is written by json."""
    out = []
    _report_json(value, "\n", out)
    return "".join(out)


def _report_json(value, nl: str, out: list) -> None:
    """Append ``value``'s text to ``out``; ``nl`` is a newline and the
    indent of the line ``value`` starts on."""
    inner = nl + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + json.dumps(key) + ": ")
            _report_json(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)) and value:
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float
            text = None
        # Only nan and inf put an "n" in a float's repr; json writes them
        # as NaN and Infinity.
        if text is not None and "n" not in text:
            out.append("[" + inner + text + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _report_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, (dict, list, tuple)):
        # json escapes every newline inside a string, so each newline in
        # its text starts a line to indent.
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))
    else:
        out.append(json.dumps(value))  # a scalar's text has no indent


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


def _entries_from_json(data, where) -> _Entries:
    """The record of a matrix written as the JSON object
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
    return _Entries(shape, positions, values)


def _constraint_from_json(data, where) -> BiAffineConstraint:
    """The constraint of the JSON object at path ``where``, whose ``A`` is
    a dense nested list or its stored entries (``_entries_from_json``)."""
    A = read_field(data, "A", where)
    A = (_entries_from_json(A, f"{where}/A") if isinstance(A, dict)
         else read_field(data, "A", where, floats))
    a0, c, d = (read_field(data, key, where, kind) for key, kind in
                (("a0", floats), ("c", floats), ("d", number)))
    try:
        return BiAffineConstraint(A, a0, c, d)
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
    for kind, M, b in (("ineq", poly.G, poly.h), ("eq", poly.A_eq, poly.b_eq)):
        if M is not None:
            out["polytope"] |= {f"{kind}_lhs": M.tolist(), f"{kind}_rhs": b.tolist()}
    for g in problem.groups:
        cons = g.constraints
        out["groups"].append({
            "label": g.label,
            "epsilon": g.epsilon,
            "rho": g.rho,
            "norm": g.norm,
            "constraints": [
                {"A": {"shape": list(A.shape[1:]), "index": A.index.tolist(),
                       "value": A.value.tolist()},
                 "a0": a0, "c": c, "d": d}
                for A, a0, c, d in zip(
                    (cons._A.rows(j, j + 1) for j in range(len(cons))),
                    cons.a0.tolist(), cons.c.tolist(), cons.d.tolist())
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
