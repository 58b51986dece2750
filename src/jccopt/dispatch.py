"""Multiperiod reserve dispatch compiled into a chance-constrained LP.

Generators sell energy over piecewise-linear cost segments and hold
asymmetric up/down reserve; aggregated distribution networks (ADNs)
absorb renewable surplus inside uncertain power-energy boundaries; line
flows follow PTDF sensitivities.  Renewable forecast errors enter per
scenario through their system-wide positive/negative aggregates (computed
as data, never as an optimization-side max), and every probabilistic
requirement lands in one JccGroup per generator, ADN, and line.

Units: MW, MWh, $/MWh, hours.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import algorithms, lp
from .errors import ModelError
from .model import (REQUIRED, BiAffineConstraint, CcpProblem, JccGroup,
                    Polytope, SampleSet, check_risk, floats, integer, load_json,
                    number, read_field, read_fields, text)

VARIANTS = {"day-ahead": (24, 1.0), "intraday": (4, 0.25)}


def _rows(rows, width: int, what: str, formula: str) -> np.ndarray:
    """Scenario ``rows`` as a 2-d float array of finite entries that must
    be ``width`` wide; ``what`` names the rows and ``formula`` their width
    in the message."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != width:
        raise ModelError(f"{what} rows are {rows.shape[1]} wide, expected "
                         f"{formula} = {width}")
    _check_finite(what, rows)
    return rows


def _check_finite(what: str, rows) -> None:
    """Every scenario row (the leading axis) of ``rows`` must be finite;
    the message names ``what`` and the first row that is not."""
    finite = np.isfinite(rows.reshape(rows.shape[0], -1)).all(axis=1)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ModelError(f"{what} row {bad[0]}: entries must be finite")


def _check_bands(owner: str, p_lower, p_upper, e_lower, e_upper) -> None:
    """ADN boundary windows must be ordered in every scenario."""
    if np.any(p_lower > p_upper + 1e-12):
        raise ModelError(f"{owner}: p_lower > p_upper in a scenario")
    if np.any(e_lower > e_upper + 1e-12):
        raise ModelError(f"{owner}: e_lower > e_upper in a scenario")


@dataclass
class Segment:
    """One generation cost segment: width in MW, marginal cost in $/MWh."""

    width: float
    cost: float

    def __post_init__(self):
        self.width = float(self.width)
        self.cost = float(self.cost)
        if self.width < 0:
            raise ModelError("segment width must be nonnegative")


@dataclass
class Generator:
    bus: int
    p_min: float
    p_max: float
    ramp_dn: float          # MW/h, nonpositive (downward rate)
    ramp_up: float          # MW/h, nonnegative
    segments: list[Segment]
    fixed_cost: float = 0.0
    reserve_cost_up: float = 0.0
    reserve_cost_dn: float = 0.0
    epsilon: float = 0.05
    rho: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.p_min > self.p_max:
            raise ModelError(f"generator {self.name!r}: p_min > p_max")
        if not self.segments:
            raise ModelError(f"generator {self.name!r}: needs >= 1 cost segment")
        costs = [s.cost for s in self.segments]
        if any(b < a for a, b in zip(costs, costs[1:])):
            raise ModelError(
                f"generator {self.name!r}: segment costs must be nondecreasing "
                "(convex piecewise cost keeps the LP binary-free)")
        total = sum(s.width for s in self.segments)
        if abs(total - (self.p_max - self.p_min)) > 1e-9:
            raise ModelError(
                f"generator {self.name!r}: segment widths sum to {total}, "
                f"expected p_max - p_min = {self.p_max - self.p_min}")
        if not self.ramp_dn <= 0.0 <= self.ramp_up:
            raise ModelError(
                f"generator {self.name!r}: need ramp_dn <= 0 <= ramp_up "
                "(down-rate stored as a negative number)")
        self.epsilon, self.rho = check_risk(f"generator {self.name!r}",
                                            self.epsilon, self.rho)


@dataclass
class Adn:
    """Aggregated distribution network with uncertain flexibility boundaries.

    Per boundary scenario: instantaneous power window [p_lower, p_upper]
    (MW) and cumulative energy window [e_lower, e_upper] (MWh), each over
    the full horizon.  ADNs offer up-reserve only: they can absorb
    renewable surplus by raising consumption, never the reverse.
    """

    bus: int
    p_lower: np.ndarray     # (n, T)
    p_upper: np.ndarray
    e_lower: np.ndarray
    e_upper: np.ndarray
    reserve_cost_up: float = 0.0
    epsilon: float = 0.05
    rho: float = 0.0
    name: str = ""

    def __post_init__(self):
        arrs = {}
        for key in ("p_lower", "p_upper", "e_lower", "e_upper"):
            arrs[key] = np.atleast_2d(np.asarray(getattr(self, key), dtype=float))
            setattr(self, key, arrs[key])
        shapes = {a.shape for a in arrs.values()}
        if len(shapes) != 1:
            raise ModelError(f"adn {self.name!r}: boundary arrays must share a "
                             f"shape, got {sorted(shapes)}")
        _check_bands(f"adn {self.name!r}", self.p_lower, self.p_upper,
                     self.e_lower, self.e_upper)
        self.epsilon, self.rho = check_risk(f"adn {self.name!r}",
                                            self.epsilon, self.rho)

    @property
    def n(self) -> int:
        return self.p_lower.shape[0]

    @property
    def horizon(self) -> int:
        return self.p_lower.shape[1]

    @classmethod
    def from_rows(cls, bus: int, rows, horizon: int, **kw) -> "Adn":
        """Rows of width 4T ordered p_lower[T], p_upper[T], e_lower[T],
        e_upper[T] (the boundary CSV layout)."""
        rows = _rows(rows, 4 * horizon,
                     f"adn {kw.get('name', '')!r}: boundary", "4*T")
        T = horizon
        return cls(bus=bus, p_lower=rows[:, 0:T], p_upper=rows[:, T:2 * T],
                   e_lower=rows[:, 2 * T:3 * T], e_upper=rows[:, 3 * T:4 * T],
                   **kw)

    def to_rows(self) -> np.ndarray:
        return np.hstack([self.p_lower, self.p_upper, self.e_lower, self.e_upper])


@dataclass
class WindFarm:
    bus: int
    forecast: np.ndarray    # (T,) MW

    def __post_init__(self):
        self.forecast = np.atleast_1d(np.asarray(self.forecast, dtype=float))


@dataclass
class WindScenarioSet:
    farms: list[WindFarm]
    errors: np.ndarray      # (n, W, T) MW forecast errors

    def __post_init__(self):
        self.errors = np.asarray(self.errors, dtype=float)
        if self.errors.ndim != 3:
            raise ModelError("wind errors must be a (scenario, farm, time) tensor")
        if self.errors.shape[1] != len(self.farms):
            raise ModelError(
                f"wind errors cover {self.errors.shape[1]} farms, "
                f"{len(self.farms)} declared")

    @property
    def n(self) -> int:
        return self.errors.shape[0]

    @property
    def horizon(self) -> int:
        return self.errors.shape[2]

    @classmethod
    def from_rows(cls, farms, rows, horizon: int) -> "WindScenarioSet":
        """Rows of width W*T, farm-major then time (the wind CSV layout)."""
        w = len(farms)
        rows = _rows(rows, w * horizon, "wind error", "W*T")
        return cls(farms=farms, errors=rows.reshape(rows.shape[0], w, horizon))

    def to_rows(self) -> np.ndarray:
        return self.errors.reshape(self.n, -1)


def aggregate_errors(wind: WindScenarioSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-(scenario, t) system surplus and deficit of renewable output.

    omega_plus = max(0, sum over farms), omega_minus = min(0, sum): plain
    data transforms, so the kink never reaches the LP.  Exactly one of the
    two is nonzero per entry.
    """
    total = wind.errors.sum(axis=1)
    return np.maximum(total, 0.0), np.minimum(total, 0.0)


@dataclass
class Bus:
    id: int
    fixed_load: np.ndarray  # (T,) MW

    def __post_init__(self):
        self.fixed_load = np.atleast_1d(np.asarray(self.fixed_load, dtype=float))


@dataclass
class Line:
    from_bus: int
    to_bus: int
    capacity: float
    reactance: float | None = None
    epsilon: float = 0.1
    rho: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.capacity <= 0:
            raise ModelError(f"line {self.name!r}: capacity must be positive")
        self.epsilon, self.rho = check_risk(f"line {self.name!r}",
                                            self.epsilon, self.rho)


def unit_name(kind, i: int, name: str = "") -> str:
    """``name``, or else the default name of the i-th unit of ``kind``
    (Generator, Adn or Line): g0, d0, line0, ...  Group labels, variable
    names, file names and the names a case file may omit all read it."""
    return name or {Generator: "g", Adn: "d", Line: "line"}[kind] + str(i)


@dataclass
class Network:
    buses: list[Bus]
    lines: list[Line] = field(default_factory=list)
    slack_bus: int = 0
    ptdf: np.ndarray | None = None  # (L, B), columns in bus list order

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ModelError("duplicate bus ids")
        if self.ptdf is not None:
            self.ptdf = np.atleast_2d(np.asarray(self.ptdf, dtype=float))
            if self.ptdf.shape != (len(self.lines), len(self.buses)):
                raise ModelError(
                    f"ptdf must be (lines x buses) = "
                    f"{(len(self.lines), len(self.buses))}, got {self.ptdf.shape}")

    def bus_pos(self, bus_id: int) -> int:
        for k, b in enumerate(self.buses):
            if b.id == bus_id:
                return k
        raise ModelError(f"unknown bus id {bus_id}")

    def resolved_ptdf(self) -> np.ndarray:
        if self.ptdf is not None:
            return self.ptdf
        return compute_ptdf(self)


def compute_ptdf(network: Network) -> np.ndarray:
    """DC power-transfer distribution factors relative to the slack bus.

    Entry (l, k) is the flow change on line l (oriented from_bus -> to_bus)
    per MW injected at bus k and withdrawn at the slack.  The slack column
    is identically zero.
    """
    nb = len(network.buses)
    nl = len(network.lines)
    if nl == 0:
        return np.zeros((0, nb))
    for ln in network.lines:
        if ln.reactance is None or ln.reactance <= 0:
            raise ModelError(
                f"line {ln.name!r}: positive reactance required to compute "
                "the ptdf (or supply network.ptdf directly)")
    # connectivity first: a singular reduced matrix gives a worse message
    adj = {b.id: set() for b in network.buses}
    for ln in network.lines:
        adj[ln.from_bus].add(ln.to_bus)
        adj[ln.to_bus].add(ln.from_bus)
    seen = {network.buses[0].id}
    stack = [network.buses[0].id]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != nb:
        raise ModelError("network is disconnected; ptdf undefined")

    B = np.zeros((nb, nb))
    for ln in network.lines:
        i = network.bus_pos(ln.from_bus)
        j = network.bus_pos(ln.to_bus)
        b = 1.0 / ln.reactance
        B[i, i] += b
        B[j, j] += b
        B[i, j] -= b
        B[j, i] -= b
    s = network.bus_pos(network.slack_bus)
    keep = [k for k in range(nb) if k != s]
    X = np.zeros((nb, nb))
    try:
        X[np.ix_(keep, keep)] = np.linalg.inv(B[np.ix_(keep, keep)])
    except np.linalg.LinAlgError:
        raise ModelError("singular susceptance matrix; ptdf undefined") from None
    ptdf = np.zeros((nl, nb))
    for li, ln in enumerate(network.lines):
        i = network.bus_pos(ln.from_bus)
        j = network.bus_pos(ln.to_bus)
        ptdf[li] = (X[i] - X[j]) / ln.reactance
    return ptdf


@dataclass
class DispatchCase:
    horizon: int
    step: float             # hours
    network: Network
    generators: list[Generator]
    adns: list[Adn] = field(default_factory=list)
    wind: WindScenarioSet | None = None
    test_wind_rows: np.ndarray | None = None        # (n_test, W*T)
    test_boundary_rows: list[np.ndarray] | None = None  # per adn (n_test, 4T)

    def validate(self) -> None:
        T = self.horizon
        if T < 1 or self.step <= 0:
            raise ModelError("horizon must be >= 1 and step positive")
        if not self.generators:
            raise ModelError("at least one generator required")
        for b in self.network.buses:
            if b.fixed_load.shape != (T,):
                raise ModelError(f"bus {b.id}: fixed_load must have length {T}")
        for g in self.generators:
            self.network.bus_pos(g.bus)
        for d in self.adns:
            self.network.bus_pos(d.bus)
            if d.horizon != T:
                raise ModelError(f"adn {d.name!r}: boundaries cover "
                                 f"{d.horizon} steps, horizon is {T}")
            for key in ("p_lower", "p_upper", "e_lower", "e_upper"):
                _check_finite(f"adn {d.name!r}: {key}", getattr(d, key))
        if self.wind is not None:
            if self.wind.horizon != T:
                raise ModelError("wind scenarios do not match the horizon")
            _check_finite("wind error", self.wind.errors)
            for f in self.wind.farms:
                self.network.bus_pos(f.bus)
                if f.forecast.shape != (T,):
                    raise ModelError("wind forecast must have length T")
            for d in self.adns:
                if d.n != self.wind.n:
                    raise ModelError(
                        f"adn {d.name!r} has {d.n} boundary scenarios, wind has "
                        f"{self.wind.n}; scenario-paired groups need equal counts")
        counts = {d.n for d in self.adns}
        if len(counts) > 1:
            raise ModelError("all adns must carry the same scenario count")

        # held-out rows: each block the groups stack, in its training
        # layout, all with one row count
        wind_rows = self.test_wind_rows
        boundary_rows = self.test_boundary_rows or []
        if wind_rows is None and not boundary_rows:
            return
        farms = self.wind.farms if self.wind is not None else []
        if wind_rows is None and farms:
            raise ModelError("case embeds adn boundary test data but no wind "
                             "test data")
        if not boundary_rows and self.adns:
            raise ModelError("case embeds wind test data but no adn "
                             "boundary test data")
        if len(boundary_rows) != len(self.adns):
            raise ModelError(f"{len(boundary_rows)} test_boundary_samples "
                             f"blocks for {len(self.adns)} adns")
        n_rows = {}
        if wind_rows is not None:
            n_rows["wind test_errors"] = _rows(
                wind_rows, len(farms) * T, "wind test_errors", "W*T").shape[0]
        for d, rows in zip(self.adns, boundary_rows):
            what = f"adn {d.name!r}: test_boundary_samples"
            rows = _rows(rows, 4 * T, what, "4*T")
            _check_bands(what, *np.hsplit(rows, 4))
            n_rows[what] = rows.shape[0]
        if len(set(n_rows.values())) > 1:
            raise ModelError("held-out blocks must have equal row counts, got "
                             + ", ".join(f"{k} {n}" for k, n in n_rows.items()))


# -- variable indexing ---------------------------------------------------------

GEN_KINDS = ("p", "r_up", "r_dn", "a_up", "a_dn")
ADN_KINDS = ("adn_p", "adn_r_up", "adn_a_up")


class VarIndex:
    """Flat column layout of the dispatch decision vector: one integer
    array of column numbers per variable kind.

    ``seg[g]`` is (segments, T); ``p``, ``r_up``, ``r_dn``, ``a_up`` and
    ``a_dn`` are (G, T); ``adn_p``, ``adn_r_up`` and ``adn_a_up`` are
    (D, T).  Columns run per generator through its segment powers
    (s-major, then t) and its five series, then per ADN through its three
    series; ``names`` labels them in that order.
    """

    def __init__(self, case: DispatchCase):
        T = case.horizon
        self.names: list[str] = []

        def block(heads: list[str]) -> np.ndarray:
            # T columns per head, named "<head>,<t>]"
            start = len(self.names)
            self.names.extend(f"{h},{t}]" for h in heads for t in range(T))
            return start + np.arange(len(heads) * T).reshape(len(heads), T)

        self.seg: list[np.ndarray] = []
        series = {kind: [] for kind in GEN_KINDS + ADN_KINDS}
        for gi, g in enumerate(case.generators):
            tag = unit_name(Generator, gi, g.name)
            self.seg.append(block([f"seg[{tag},{s}"
                                   for s in range(len(g.segments))]))
            for kind in GEN_KINDS:
                series[kind].append(block([f"{kind}[{tag}"])[0])
        for di, d in enumerate(case.adns):
            tag = unit_name(Adn, di, d.name)
            for kind in ADN_KINDS:
                series[kind].append(block([f"{kind}[{tag}"])[0])
        (self.p, self.r_up, self.r_dn, self.a_up, self.a_dn,
         self.adn_p, self.adn_r_up, self.adn_a_up) = (
            np.array(series[kind], dtype=int).reshape(-1, T)
            for kind in GEN_KINDS + ADN_KINDS)

    @property
    def n_vars(self) -> int:
        return len(self.names)


# -- model assembly --------------------------------------------------------------

@dataclass
class DispatchModel:
    """Compiled dispatch: the chance-constrained LP plus bookkeeping."""

    problem: CcpProblem
    index: VarIndex
    cost_offset: float      # fixed generator cost, not part of the LP vector
    case: DispatchCase

    def test_sample_sets(self) -> list[SampleSet] | None:
        """Held-out per-group scenario sets from the case's embedded test
        data (which ``DispatchCase.validate`` checks), stacked exactly like
        the training groups."""
        case = self.case
        if case.test_wind_rows is None and not case.test_boundary_rows:
            return None
        stacks = _group_scenario_stacks(case, case.test_wind_rows,
                                        case.test_boundary_rows or [])
        return [SampleSet(s) for s in stacks]


def _group_scenario_stacks(case: DispatchCase, wind_rows,
                           boundary_rows) -> list[np.ndarray]:
    """Per-group stacked scenario matrices, in group order (generators,
    ADNs, lines), from wind forecast error rows (``None`` without wind
    farms) and one block of boundary rows per ADN, in the case CSV
    layouts; the blocks must have one row count."""
    if wind_rows is None:
        n = np.atleast_2d(boundary_rows[0]).shape[0] if boundary_rows else 1
        wind_rows = np.zeros((n, 0))
    farms = case.wind.farms if case.wind is not None else []
    wind = WindScenarioSet.from_rows(farms, wind_rows, case.horizon)
    omega_p, omega_m = aggregate_errors(wind)
    gen_stack = np.hstack([omega_p, omega_m])
    stacks = [gen_stack for _ in case.generators]
    stacks.extend(np.hstack([omega_p, np.atleast_2d(rows)])
                  for rows in boundary_rows)
    line_stack = np.hstack([wind.to_rows(), omega_p, omega_m])
    stacks.extend(line_stack for _ in case.network.lines)
    return stacks


def _net_load(case: DispatchCase) -> tuple[np.ndarray, np.ndarray]:
    """System fixed load and total wind forecast, per step."""
    load = np.zeros(case.horizon)
    for b in case.network.buses:
        load = load + b.fixed_load
    forecast = np.zeros(case.horizon)
    for f in (case.wind.farms if case.wind is not None else []):
        forecast = forecast + f.forecast
    return load, forecast


def _dense(shape, entries=()) -> np.ndarray:
    """Zeros of ``shape`` with ``out[index] = value`` for each (index,
    value) entry, in order."""
    out = np.zeros(shape)
    for index, value in entries:
        out[index] = value
    return out


def _constraint(k: int, nv: int, A=(), a0=(), c=(),
                d: float = 0.0) -> BiAffineConstraint:
    """xi'(A x + a0) + c'x + d <= 0 over xi of length k and x of length
    nv, from the (index, value) entries of A, a0 and c."""
    return BiAffineConstraint(A=_dense((k, nv), A), a0=_dense(k, a0),
                              c=_dense(nv, c), d=d)


def build_ccp(case: DispatchCase, rho_override: float | None = None) -> DispatchModel:
    """Compile the dispatch case into min-cost LP + one JCC per generator,
    ADN, and line.

    Deterministic rows: segment anchoring P = p_min + sum(seg), system
    balance, participation partitions (up: generators only; down:
    generators plus ADNs), capacity-with-reserve, ramping.  Scenario rows
    (in the groups): reserve adequacy against the error aggregates,
    ADN power/energy boundaries, PTDF line limits under recourse.
    ``rho_override`` replaces every group's Wasserstein radius (sweeps).
    """
    case.validate()
    T, dt = case.horizon, case.step
    idx = VarIndex(case)
    nv = idx.n_vars
    gens, adns, lines = case.generators, case.adns, case.network.lines

    c = np.zeros(nv)
    lower = np.full(nv, -np.inf)
    upper = np.full(nv, np.inf)
    for g, seg, r_up, r_dn in zip(gens, idx.seg, idx.r_up, idx.r_dn):
        for s, cols in zip(g.segments, seg):
            c[cols] = s.cost * dt
            lower[cols] = 0.0
            upper[cols] = s.width
        c[r_up] = g.reserve_cost_up * dt
        c[r_dn] = g.reserve_cost_dn * dt
    for d, r_up in zip(adns, idx.adn_r_up):
        c[r_up] = d.reserve_cost_up * dt
    for cols in (idx.r_up, idx.r_dn, idx.a_up, idx.a_dn, idx.adn_r_up,
                 idx.adn_a_up):
        lower[cols] = 0.0
    for cols in (idx.a_up, idx.a_dn, idx.adn_a_up):
        upper[cols] = 1.0
    cost_offset = dt * T * sum(g.fixed_cost for g in gens)

    # segment anchoring: p[g,t] - sum_s seg[g,s,t] = p_min
    eq = [(_dense(nv, [(idx.p[gi, t], 1.0), (idx.seg[gi][:, t], -1.0)]),
           g.p_min) for gi, g in enumerate(gens) for t in range(T)]
    # balance: sum_g p + sum_w forecast = sum_d adn_p + fixed load
    load, forecast = _net_load(case)
    eq += [(_dense(nv, [(idx.p[:, t], 1.0), (idx.adn_p[:, t], -1.0)]),
            load[t] - forecast[t]) for t in range(T)]
    # participation partitions
    eq += [(_dense(nv, [(idx.a_up[:, t], 1.0)]), 1.0) for t in range(T)]
    eq += [(_dense(nv, [(idx.a_dn[:, t], 1.0), (idx.adn_a_up[:, t], 1.0)]),
            1.0) for t in range(T)]

    ineq = []
    for gi, g in enumerate(gens):
        p = idx.p[gi]
        for t in range(T):
            # p + r_up <= p_max; headroom below: p - r_dn >= p_min
            ineq.append((_dense(nv, [(p[t], 1.0), (idx.r_up[gi, t], 1.0)]),
                         g.p_max))
            ineq.append((_dense(nv, [(p[t], -1.0), (idx.r_dn[gi, t], 1.0)]),
                         -g.p_min))
        for t in range(T - 1):
            # ramp_dn*dt <= p[t+1] - p[t] <= ramp_up*dt
            row = _dense(nv, [(p[t + 1], 1.0), (p[t], -1.0)])
            ineq += [(row, g.ramp_up * dt), (-row, -g.ramp_dn * dt)]

    G, h = (np.array(v) for v in zip(*ineq))
    A_eq, b_eq = (np.array(v) for v in zip(*eq))
    polytope = Polytope(G=G, h=h, A_eq=A_eq, b_eq=b_eq,
                        lower=lower, upper=upper)

    # -- chance groups: (label, unit, constraints) in group order --
    units = []
    for gi, g in enumerate(gens):
        # xi = [omega_plus (T), omega_minus (T)];
        # a_dn * omega_plus - r_dn <= 0, then -a_up * omega_minus - r_up <= 0
        k = 2 * T
        cons = ([_constraint(k, nv, A=[((t, idx.a_dn[gi, t]), 1.0)],
                             c=[(idx.r_dn[gi, t], -1.0)]) for t in range(T)]
                + [_constraint(k, nv, A=[((T + t, idx.a_up[gi, t]), -1.0)],
                               c=[(idx.r_up[gi, t], -1.0)]) for t in range(T)])
        units.append((unit_name(Generator, gi, g.name), g, cons))

    for di, d in enumerate(adns):
        # xi = [omega_plus (T), p_lo (T), p_hi (T), e_lo (T), e_hi (T)]
        p, r, a = idx.adn_p[di], idx.adn_r_up[di], idx.adn_a_up[di]
        k = 5 * T
        cons = (
            # p_lo_t - adn_p_t <= 0
            [_constraint(k, nv, a0=[(T + t, 1.0)], c=[(p[t], -1.0)])
             for t in range(T)]
            # adn_p_t + r_t - p_hi_t <= 0
            + [_constraint(k, nv, a0=[(2 * T + t, -1.0)],
                           c=[(p[t], 1.0), (r[t], 1.0)]) for t in range(T)]
            # e_lo_t - dt*sum_{tau<=t} adn_p_tau <= 0
            + [_constraint(k, nv, a0=[(3 * T + t, 1.0)], c=[(p[:t + 1], -dt)])
               for t in range(T)]
            # dt*sum_{tau<=t} (adn_p + r) - e_hi_t <= 0
            + [_constraint(k, nv, a0=[(4 * T + t, -1.0)],
                           c=[(p[:t + 1], dt), (r[:t + 1], dt)])
               for t in range(T)]
            # a_up * omega_plus - r <= 0
            + [_constraint(k, nv, A=[((t, a[t]), 1.0)], c=[(r[t], -1.0)])
               for t in range(T)])
        units.append((unit_name(Adn, di, d.name), d, cons))

    farms = case.wind.farms if case.wind is not None else []
    W = len(farms)
    psi = case.network.resolved_ptdf()
    gen_bus = [case.network.bus_pos(g.bus) for g in gens]
    adn_bus = [case.network.bus_pos(d.bus) for d in adns]
    farm_bus = [case.network.bus_pos(f.bus) for f in farms]
    loads = np.array([b.fixed_load for b in case.network.buses])
    forecasts = np.array([f.forecast for f in farms]).reshape(W, T)
    for li, ln in enumerate(lines):
        # xi = [farm errors (W*T, farm-major), omega_plus (T), omega_minus (T)]
        psi_g, psi_d = psi[li, gen_bus], psi[li, adn_bus]
        psi_w = psi[li, farm_bus]
        k = (W + 2) * T
        cons = []
        for t in range(T):
            # flow of the forecasts and fixed loads, summed term by term
            const = sum(psi_w * forecasts[:, t]) - sum(psi[li] * loads[:, t])
            for sign in (1.0, -1.0):
                cons.append(_constraint(
                    k, nv,
                    A=[((W * T + t, idx.a_dn[:, t]), -sign * psi_g),
                       ((W * T + T + t, idx.a_up[:, t]), -sign * psi_g),
                       ((W * T + t, idx.adn_a_up[:, t]), -sign * psi_d)],
                    a0=[(np.arange(W) * T + t, sign * psi_w)],
                    c=[(idx.p[:, t], sign * psi_g),
                       (idx.adn_p[:, t], -sign * psi_d)],
                    d=sign * const - ln.capacity))
        units.append((unit_name(Line, li, ln.name), ln, cons))

    stacks = _group_scenario_stacks(
        case, None if case.wind is None else case.wind.to_rows(),
        [d.to_rows() for d in adns])
    radius = None if rho_override is None else float(rho_override)
    groups = [JccGroup(constraints=cons, samples=SampleSet(stack),
                       epsilon=unit.epsilon,
                       rho=unit.rho if radius is None else radius, label=label)
              for (label, unit, cons), stack in zip(units, stacks)]
    problem = CcpProblem(objective=c, polytope=polytope, groups=groups,
                         var_names=idx.names)
    return DispatchModel(problem=problem, index=idx, cost_offset=cost_offset,
                         case=case)


# -- audits ----------------------------------------------------------------------

def audit_dispatch(model: DispatchModel, x: np.ndarray) -> dict[str, float]:
    """Physical-consistency residuals of a dispatch vector.

    Keys: balance (max |MW| mismatch), partition_up / partition_down (max
    deviation from 1), min_factor (most negative participation factor),
    segment_sum (max |p - p_min - sum seg|), segment_order (largest amount
    by which a segment is used while a cheaper one below it has slack).
    """
    case, idx = model.case, model.index
    x = np.asarray(x, dtype=float)
    load, forecast = _net_load(case)

    def total(cols) -> float:
        # the builtin sum over Python floats, left to right
        return sum(x[cols].tolist())

    balance = part_up = part_dn = seg_sum = seg_order = 0.0
    min_factor = np.inf
    for t in range(case.horizon):
        balance = max(balance, abs(total(idx.p[:, t]) + forecast[t]
                                   - total(idx.adn_p[:, t]) - load[t]))
        part_up = max(part_up, abs(total(idx.a_up[:, t]) - 1.0))
        part_dn = max(part_dn, abs(total(idx.a_dn[:, t])
                                   + total(idx.adn_a_up[:, t]) - 1.0))
        # per generator a_up then a_dn, then the ADNs: min keeps the
        # first of equal values, so this order fixes the sign of a zero
        gen_factors = np.column_stack([idx.a_up[:, t], idx.a_dn[:, t]])
        min_factor = min([min_factor, *x[gen_factors.ravel()].tolist(),
                          *x[idx.adn_a_up[:, t]].tolist()])
    for g, seg, p in zip(case.generators, idx.seg, idx.p):
        for t in range(case.horizon):
            segs = x[seg[:, t]].tolist()
            seg_sum = max(seg_sum, abs(float(x[p[t]]) - g.p_min - sum(segs)))
            for s in range(len(segs) - 1):
                seg_order = max(seg_order, min(g.segments[s].width - segs[s],
                                               segs[s + 1]))
    return {"balance": balance, "partition_up": part_up,
            "partition_down": part_dn, "min_factor": float(min_factor),
            "segment_sum": seg_sum, "segment_order": seg_order}


# -- solves ----------------------------------------------------------------------

def deterministic_dispatch(case: DispatchCase):
    """Dispatch with every uncertain quantity at its scenario mean and all
    group constraints imposed hard (no relaxation, no margin): the
    mean-value LP that ``init_bounds`` also solves for the lower level
    bound, here compiled from a case and reported like a solve."""
    model = build_ccp(case)
    x = algorithms._point(lp.solve_lp(algorithms.mean_value_lp(model.problem)),
                          model.problem, "mean-value LP")
    return model, algorithms._report(model.problem, "deterministic", x)


def rho_sweep(case: DispatchCase, rho_grid, methods=(
        algorithms.METHOD_ALSO_X, algorithms.METHOD_CVAR)) -> list[dict]:
    """Solve the case across a shared-radius grid.

    One row per (rho, method): status, objective (LP part), full cost
    (objective + fixed), per-group out-of-sample reliability when the case
    embeds test data (in-sample satisfaction rates otherwise).
    """
    rows = []
    for rho in rho_grid:
        model = build_ccp(case, rho_override=float(rho))
        test_sets = model.test_sample_sets()
        for method in methods:
            report = algorithms.solve(model.problem, method)
            if report.is_feasible:
                if test_sets is not None:
                    rel = algorithms.out_of_sample_reliability(
                        report.x, model.problem.groups, test_sets)
                else:
                    rel = [g.rate for g in report.per_group]
            else:
                rel = None
            rows.append({
                "rho": float(rho), "method": method, "status": report.status,
                "objective": report.objective,
                "cost": (None if report.objective is None
                         else report.objective + model.cost_offset),
                "reliability": rel,
                "labels": [g.label for g in model.problem.groups],
                "report": report,
            })
    return rows


# -- case (de)serialization --------------------------------------------------------

def _scenario_rows(data: dict, key: str, where: str, base_dir: Path | None,
                   default=REQUIRED):
    """Scenario payload of a field: inline rows or {"csv": path}."""
    def rows(value):
        if isinstance(value, dict):
            path = read_field(value, "csv", f"{where}/{key}", text)
            return SampleSet.from_csv(Path(base_dir or "", path)).data
        return np.atleast_2d(floats(value))
    return read_field(data, key, where, rows, default)


# The risk fields and name that every generator, ADN and line reads.
_UNIT_KINDS = {"epsilon": number, "rho": number, "name": text}


def case_from_dict(data: dict, base_dir: Path | None = None) -> DispatchCase:
    options = read_field(data, "options", "/", dict, {})
    variant = read_field(options, "variant", "/options", text, None)
    if variant is not None and variant not in VARIANTS:
        raise ModelError(f"/options/variant: unknown variant {variant!r}")
    horizon = read_field(data, "horizon", "/", integer,
                         VARIANTS[variant][0] if variant else None)
    step = read_field(data, "step", "/", number,
                      VARIANTS[variant][1] if variant else None)
    if horizon is None or step is None:
        raise ModelError("/horizon,/step: give both, or set options.variant")

    net_data = read_field(data, "network", "/", dict)
    buses = [Bus(**read_fields(Bus, bd, f"/network/buses/{bi}",
                               {"id": integer, "fixed_load": floats}))
             for bi, bd in enumerate(read_field(net_data, "buses", "/network", list, []))]
    lines = [Line(**read_fields(Line, ld, f"/network/lines/{li}", {
                 "from_bus": integer, "to_bus": integer, "capacity": number,
                 "reactance": number, **_UNIT_KINDS}, name=unit_name(Line, li)))
             for li, ld in enumerate(read_field(net_data, "lines", "/network", list, []))]
    network = Network(buses=buses, lines=lines, **read_fields(
        Network, net_data, "/network", {"slack_bus": integer, "ptdf": floats}))
    if lines and network.ptdf is None:
        missing = [ln.name for ln in lines if ln.reactance is None]
        if missing:
            raise ModelError(
                f"/network: no 'ptdf' given and lines {missing} lack "
                "'reactance'; provide one of the two")

    generators = []
    for gi, gd in enumerate(read_field(data, "generators", "/", list, [])):
        where = f"/generators/{gi}"
        segs = [Segment(**read_fields(Segment, sd, f"{where}/segments/{si}",
                                      {"width": number, "cost": number}))
                for si, sd in enumerate(read_field(gd, "segments", where, list))]
        generators.append(Generator(segments=segs, **read_fields(
            Generator, gd, where,
            {"bus": integer, "p_min": number, "p_max": number,
             "ramp_dn": number, "ramp_up": number, "fixed_cost": number,
             "reserve_cost_up": number, "reserve_cost_dn": number,
             **_UNIT_KINDS},
            name=unit_name(Generator, gi))))

    adns = []
    test_boundary_rows = []
    for di, dd in enumerate(read_field(data, "adns", "/", list, [])):
        where = f"/adns/{di}"
        adns.append(Adn.from_rows(
            bus=read_field(dd, "bus", where, integer),
            rows=_scenario_rows(dd, "boundary_samples", where, base_dir),
            horizon=horizon,
            **read_fields(Adn, dd, where,
                          {"reserve_cost_up": number, **_UNIT_KINDS},
                          name=unit_name(Adn, di))))
        test_rows = _scenario_rows(dd, "test_boundary_samples", where, base_dir, None)
        if test_rows is not None:
            test_boundary_rows.append(test_rows)

    wind = None
    test_wind_rows = None
    wd = read_field(data, "wind", "/", dict, None)
    if wd is not None:
        farms = [WindFarm(**read_fields(WindFarm, fd, f"/wind/farms/{fi}",
                                        {"bus": integer, "forecast": floats}))
                 for fi, fd in enumerate(read_field(wd, "farms", "/wind", list))]
        rows = _scenario_rows(wd, "errors", "/wind", base_dir)
        wind = WindScenarioSet.from_rows(farms, rows, horizon)
        test_wind_rows = _scenario_rows(wd, "test_errors", "/wind", base_dir, None)

    case = DispatchCase(
        horizon=horizon, step=step, network=network,
        generators=generators, adns=adns, wind=wind,
        test_wind_rows=test_wind_rows,
        test_boundary_rows=test_boundary_rows or None)
    case.validate()
    return case


def _json_fields(unit) -> dict:
    """Every field of a dataclass unit, arrays written as lists."""
    return dataclasses.asdict(unit, dict_factory=lambda items: {
        k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items})


def case_to_dict(case: DispatchCase) -> dict:
    data = {
        "horizon": case.horizon,
        "step": case.step,
        "network": {
            "slack_bus": case.network.slack_bus,
            "buses": [_json_fields(b) for b in case.network.buses],
            "lines": [_json_fields(ln) for ln in case.network.lines],
        },
        "generators": [_json_fields(g) for g in case.generators],
        "adns": [{
            "bus": d.bus,
            "boundary_samples": d.to_rows().tolist(),
            "reserve_cost_up": d.reserve_cost_up,
            "epsilon": d.epsilon, "rho": d.rho, "name": d.name,
        } for d in case.adns],
    }
    if case.network.ptdf is not None:
        data["network"]["ptdf"] = case.network.ptdf.tolist()
    if case.wind is not None:
        data["wind"] = {
            "farms": [_json_fields(f) for f in case.wind.farms],
            "errors": case.wind.to_rows().tolist(),
        }
        if case.test_wind_rows is not None:
            data["wind"]["test_errors"] = np.asarray(case.test_wind_rows).tolist()
    if case.test_boundary_rows is not None:
        for dd, rows in zip(data["adns"], case.test_boundary_rows):
            dd["test_boundary_samples"] = np.asarray(rows).tolist()
    return data


def load_case(path) -> DispatchCase:
    return case_from_dict(load_json(path), base_dir=Path(path).parent)
