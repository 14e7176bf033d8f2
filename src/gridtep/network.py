"""Planning case data model.

A case bundles buses, transmission lines (existing plus candidate), the
generator fleet, a 12-point monthly load curve and the cost parameters.
Cases are loaded from JSON files, validated against the model invariants,
and turned into concrete network topologies by applying a build plan
(one bit per candidate line).
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import CaseParseError, CaseValidationError

EXISTING = "existing"
CANDIDATE = "candidate"

MONTHS = tuple(range(1, 13))


@dataclass(frozen=True)
class Bus:
    id: int
    base_demand: float
    is_slack: bool = False


@dataclass(frozen=True)
class LineSpec:
    id: int
    from_bus: int
    to_bus: int
    length_km: float
    reactance: float
    forced_outage_rate: float
    status: str  # EXISTING or CANDIDATE
    base_capacity_mw: float


@dataclass(frozen=True)
class GeneratorSpec:
    bus: int
    capacity_mw: float
    forced_outage_rate: float
    capital_cost: float  # k$/kW, charged only for new units
    operating_cost: float  # k$/kWh, merit-order key
    revenue_loss_rate: float  # k$/MWh of cut-off output
    is_new: bool = False


@dataclass(frozen=True)
class LoadDurationCurve:
    monthly_multipliers: tuple[float, ...]

    def peak_month(self) -> int:
        """1-based month with the largest multiplier (ties: earliest)."""
        return int(np.argmax(self.monthly_multipliers)) + 1


@dataclass(frozen=True)
class CostParameters:
    c_edns: tuple[float, ...]  # k$/MWh, one entry per month
    c_egns: tuple[float, ...]
    c_ewl: tuple[float, ...]
    c_t2: float  # k$/MW/km, line operating and maintenance
    hours_per_month: float = 730.0


@dataclass(frozen=True)
class NetworkCase:
    buses: tuple[Bus, ...]
    lines: tuple[LineSpec, ...]
    generators: tuple[GeneratorSpec, ...]
    ldc: LoadDurationCurve
    costs: CostParameters
    min_online_generators: int = 2

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def base_demand(self) -> np.ndarray:
        d = np.array([b.base_demand for b in self.buses], dtype=float)
        d.flags.writeable = False
        return d

    @cached_property
    def generator_buses(self) -> np.ndarray:
        """Each generator's bus position, in fleet order."""
        a = np.array([self.bus_index[g.bus] for g in self.generators],
                     dtype=np.intp)
        a.flags.writeable = False
        return a

    @cached_property
    def existing_lines(self) -> tuple[LineSpec, ...]:
        return tuple(ln for ln in self.lines if ln.status == EXISTING)

    @cached_property
    def generator_outage_rates(self) -> tuple[float, ...]:
        return tuple(g.forced_outage_rate for g in self.generators)

    @cached_property
    def candidate_lines(self) -> tuple[LineSpec, ...]:
        return tuple(ln for ln in self.lines if ln.status == CANDIDATE)


@dataclass(frozen=True)
class Chromosome:
    """Build decision: one bit per candidate line, case order (1 = build)."""

    bits: tuple[bool, ...]

    @classmethod
    def from_ints(cls, values) -> "Chromosome":
        return cls(bits=tuple(bool(v) for v in values))

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class ActiveNetwork:
    """The topology of a built plan: the case's buses, every existing line
    and the candidates the plan builds.

    Line ratings are not part of it. They are a vector aligned with
    ``lines``: sizing grows one from ``base_capacities`` and
    ``PlanEvaluator.evaluate`` prices it.
    """

    buses: tuple[Bus, ...]
    lines: tuple[LineSpec, ...]

    @cached_property
    def slack_bus(self) -> int:
        return next(b.id for b in self.buses if b.is_slack)

    @cached_property
    def base_capacities(self) -> tuple[float, ...]:
        return tuple(ln.base_capacity_mw for ln in self.lines)

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def n_buses(self) -> int:
        return len(self.buses)

    @cached_property
    def from_idx(self) -> np.ndarray:
        a = np.array([self.bus_index[ln.from_bus] for ln in self.lines], dtype=np.intp)
        a.flags.writeable = False
        return a

    @cached_property
    def to_idx(self) -> np.ndarray:
        a = np.array([self.bus_index[ln.to_bus] for ln in self.lines], dtype=np.intp)
        a.flags.writeable = False
        return a

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(from, to) line-by-bus 0/1 matrices: row k marks line k's
        from bus and its to bus."""
        rows = np.arange(len(self.lines))
        a_from = np.zeros((len(self.lines), self.n_buses))
        a_from[rows, self.from_idx] = 1.0
        a_to = np.zeros((len(self.lines), self.n_buses))
        a_to[rows, self.to_idx] = 1.0
        a_from.flags.writeable = False
        a_to.flags.writeable = False
        return a_from, a_to

    @cached_property
    def susceptance(self) -> np.ndarray:
        a = np.array([1.0 / ln.reactance for ln in self.lines], dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def line_ids(self) -> tuple[int, ...]:
        return tuple(ln.id for ln in self.lines)

    @cached_property
    def line_position(self) -> dict[int, int]:
        """Line id -> position in ``lines``."""
        return {ln.id: k for k, ln in enumerate(self.lines)}

    @cached_property
    def laplacian_cells(self) -> np.ndarray:
        """(4, lines) flat index into a bus-by-bus matrix of each line's
        susceptance terms: from-bus and to-bus diagonal, from-to and to-from
        off-diagonal."""
        i, j, n = self.from_idx, self.to_idx, self.n_buses
        a = np.stack([i * n + i, j * n + j, i * n + j, j * n + i])
        a.flags.writeable = False
        return a

    @cached_property
    def laplacian_terms(self) -> np.ndarray:
        """(4, lines) values matching ``laplacian_cells``."""
        w = self.susceptance
        a = np.stack([w, w, -w, -w])
        a.flags.writeable = False
        return a

    @cached_property
    def line_outage_rates(self) -> tuple[float, ...]:
        return tuple(ln.forced_outage_rate for ln in self.lines)


def connected_components(
    net: ActiveNetwork, line_in_service: np.ndarray | None = None
) -> np.ndarray:
    """Component label per bus index, over the in-service lines."""
    parent = list(range(net.n_buses))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    i, j = net.from_idx, net.to_idx
    if line_in_service is not None:
        i, j = i[line_in_service], j[line_in_service]
    for a, b in zip(i.tolist(), j.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return np.array([find(k) for k in range(net.n_buses)])


# ---------------------------------------------------------------------------
# Validation

def _check(failures, ok, path, message):
    if not ok:
        failures.append((path, message))
    return ok


def validate_case(case: NetworkCase) -> list[tuple[str, str]]:
    """Return a list of (field_path, message) invariant violations."""
    f: list[tuple[str, str]] = []

    ids = [b.id for b in case.buses]
    _check(f, len(ids) == len(set(ids)), "buses", "bus ids must be unique")
    _check(f, sorted(ids) == list(range(1, len(ids) + 1)), "buses",
           "bus ids must be contiguous 1..b")
    n_slack = sum(1 for b in case.buses if b.is_slack)
    _check(f, n_slack == 1, "buses.is_slack",
           f"exactly one slack bus required, found {n_slack}")
    for i, b in enumerate(case.buses):
        _check(f, b.base_demand >= 0, f"buses[{i}].base_demand", "must be >= 0")

    id_set = set(ids)
    line_ids = [ln.id for ln in case.lines]
    _check(f, len(line_ids) == len(set(line_ids)), "lines", "line ids must be unique")
    for i, ln in enumerate(case.lines):
        p = f"lines[{i}]"
        _check(f, ln.from_bus in id_set, f"{p}.from_bus", "unknown bus id")
        _check(f, ln.to_bus in id_set, f"{p}.to_bus", "unknown bus id")
        _check(f, ln.from_bus != ln.to_bus, f"{p}.to_bus",
               "line endpoints must differ")
        _check(f, ln.length_km > 0, f"{p}.length_km", "must be > 0")
        _check(f, ln.reactance > 0, f"{p}.reactance", "must be > 0")
        _check(f, 0 <= ln.forced_outage_rate < 1, f"{p}.forced_outage_rate",
               "must be in [0, 1)")
        _check(f, ln.status in (EXISTING, CANDIDATE), f"{p}.status",
               f"must be '{EXISTING}' or '{CANDIDATE}'")
        _check(f, ln.base_capacity_mw >= 0, f"{p}.base_capacity_mw", "must be >= 0")

    for i, g in enumerate(case.generators):
        p = f"generators[{i}]"
        _check(f, g.bus in id_set, f"{p}.bus", "unknown bus id")
        _check(f, g.capacity_mw > 0, f"{p}.capacity_mw", "must be > 0")
        _check(f, 0 <= g.forced_outage_rate < 1, f"{p}.forced_outage_rate",
               "must be in [0, 1)")
        for name in ("capital_cost", "operating_cost", "revenue_loss_rate"):
            _check(f, getattr(g, name) >= 0, f"{p}.{name}", "must be >= 0")

    m = case.ldc.monthly_multipliers
    if _check(f, len(m) == 12, "ldc.monthly_multipliers",
              f"must have exactly 12 entries, found {len(m)}"):
        _check(f, all(0 < v <= 1 for v in m), "ldc.monthly_multipliers",
               "all entries must be in (0, 1]")

    for name in ("c_edns", "c_egns", "c_ewl"):
        vec = getattr(case.costs, name)
        ok = _check(f, len(vec) == 12, f"costs.{name}",
                    f"must have exactly 12 entries, found {len(vec)}")
        if ok:
            _check(f, all(v >= 0 for v in vec), f"costs.{name}",
                   "entries must be >= 0")
    _check(f, case.costs.c_t2 >= 0, "costs.c_t2", "must be >= 0")
    _check(f, case.costs.hours_per_month == 730.0, "costs.hours_per_month",
           "must be 730")
    _check(f, case.min_online_generators >= 1, "options.min_online_generators",
           "must be >= 1")
    _check(f, case.min_online_generators <= len(case.generators),
           "options.min_online_generators",
           f"must be <= the generator count ({len(case.generators)})")

    # Existing lines must form one connected component (new-generator buses
    # may be line-less until candidates are built). An unknown endpoint,
    # reported above, stands in as a bus of its own. A line's two ends
    # share a component, so its from ends name every component touched.
    unknown = {b for ln in case.existing_lines
               for b in (ln.from_bus, ln.to_bus)} - id_set
    grid = ActiveNetwork((*case.buses, *(Bus(b, 0.0) for b in unknown)),
                         case.existing_lines)
    if grid.lines:
        touched = set(connected_components(grid)[grid.from_idx])
        _check(f, len(touched) == 1, "lines",
               "existing lines must form a single connected component")

    total_capacity = sum(g.capacity_mw for g in case.generators)
    if len(m) == 12 and m:
        peak = max(m) * sum(b.base_demand for b in case.buses)
        _check(f, total_capacity >= peak, "generators",
               f"total generator capacity {total_capacity} MW below peak demand {peak} MW")

    return f


# ---------------------------------------------------------------------------
# JSON I/O

# Fields of NetworkCase that a case file keeps under "options".
_OPTIONS = ("min_online_generators",)

# Field name -> type of a case dataclass (annotations are strings here).
_field_types = cache(get_type_hints)


def _read(tp, value, path):
    """``value`` from parsed JSON as the field type ``tp``: a case
    dataclass, ``tuple[T, ...]``, int, float, bool or str. Raises
    CaseValidationError naming ``path`` at the first malformed value."""
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CaseValidationError([(path, "expected int/float")])
        # False for NaN, infinities and integers beyond the float range.
        if not abs(value) <= sys.float_info.max:
            raise CaseValidationError([(path, "must be finite")])
        return float(value)
    if tp in (int, bool, str):
        # JSON true/false parse to bool, a subclass of int.
        if not isinstance(value, tp) or (tp is int and isinstance(value, bool)):
            raise CaseValidationError([(path, f"expected {tp.__name__}")])
        return value
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise CaseValidationError([(path, "expected list")])
        return tuple(_read(get_args(tp)[0], v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    return tp(**_read_fields(tp, value, path, fields(tp)))


def _read_fields(cls, obj, path, wanted):
    """Keyword arguments for the fields ``wanted`` of dataclass ``cls``,
    read from the JSON object ``obj``. A field with a default may be
    omitted; unknown keys are ignored."""
    if not isinstance(obj, dict):
        raise CaseValidationError([(path, "expected dict")])
    hints = _field_types(cls)
    kwargs = {}
    for f in wanted:
        key_path = f"{path}.{f.name}" if path else f.name
        if f.name in obj:
            kwargs[f.name] = _read(hints[f.name], obj[f.name], key_path)
        elif f.default is MISSING:
            raise CaseValidationError([(key_path, "missing field")])
    return kwargs


def case_from_dict(data: dict) -> NetworkCase:
    """Build a NetworkCase from parsed JSON, validating all invariants."""
    top = [f for f in fields(NetworkCase) if f.name not in _OPTIONS]
    options = [f for f in fields(NetworkCase) if f.name in _OPTIONS]
    kwargs = _read_fields(NetworkCase, data, "", top)
    kwargs |= _read_fields(NetworkCase, data.get("options", {}), "options",
                           options)
    case = NetworkCase(**kwargs)
    failures = validate_case(case)
    if failures:
        raise CaseValidationError(failures)
    return case


def _write(value):
    """A case dataclass as JSON data: records become dicts, tuples lists."""
    if isinstance(value, tuple):
        return [_write(v) for v in value]
    if is_dataclass(value):
        return {f.name: _write(getattr(value, f.name)) for f in fields(value)}
    return value


def case_to_dict(case: NetworkCase) -> dict:
    data = _write(case)
    data["options"] = {name: data.pop(name) for name in _OPTIONS}
    return data


def load_case(path) -> NetworkCase:
    """Load and validate a case file. Raises CaseParseError on malformed
    JSON and CaseValidationError naming the offending field otherwise."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise CaseParseError(f"cannot read case file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise CaseParseError(f"case file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CaseParseError(f"case file {p} must contain a JSON object")
    return case_from_dict(data)


def save_case(case: NetworkCase, path) -> None:
    Path(path).write_text(json.dumps(case_to_dict(case), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Plan application and scenarios

def apply_plan(case: NetworkCase, chromosome: Chromosome) -> ActiveNetwork:
    """Topology for one build plan: every existing line plus the candidate
    lines whose bit is set."""
    candidates = case.candidate_lines
    if len(chromosome.bits) != len(candidates):
        raise ValueError(
            f"chromosome length {len(chromosome.bits)} does not match "
            f"candidate count {len(candidates)}")
    lines = list(case.existing_lines)
    lines += [ln for bit, ln in zip(chromosome.bits, candidates) if bit]
    return ActiveNetwork(buses=case.buses, lines=tuple(lines))


def scenario_demand(case: NetworkCase, month: int) -> np.ndarray:
    """Per-bus demand (MW) for one monthly load scenario."""
    if month not in MONTHS:
        raise ValueError(f"month must be in 1..12, got {month}")
    return case.base_demand * case.ldc.monthly_multipliers[month - 1]
