"""Planning case data model.

A case bundles buses, transmission lines (existing plus candidate), the
generator fleet, a 12-point monthly load curve and the cost parameters.
Cases are loaded from JSON files, validated against the model invariants,
and turned into concrete network topologies by applying a build plan
(one bit per candidate line).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CaseParseError, CaseValidationError

EXISTING = "existing"
CANDIDATE = "candidate"

MONTHS = tuple(range(1, 13))


@dataclass(frozen=True)
class Bus:
    id: int
    base_demand: float = 0.0
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
    def slack_bus(self) -> int:
        return next(b.id for b in self.buses if b.is_slack)

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def base_demand(self) -> np.ndarray:
        d = np.array([b.base_demand for b in self.buses], dtype=float)
        d.flags.writeable = False
        return d

    @cached_property
    def existing_lines(self) -> tuple[LineSpec, ...]:
        return tuple(ln for ln in self.lines if ln.status == EXISTING)

    @cached_property
    def generator_outage_rates(self) -> tuple[float, ...]:
        return tuple(g.forced_outage_rate for g in self.generators)

    @cached_property
    def candidate_lines(self) -> tuple[LineSpec, ...]:
        return tuple(ln for ln in self.lines if ln.status == CANDIDATE)

    def nominal_slack_generator(self) -> GeneratorSpec | None:
        """Generator at the slack bus, if one exists."""
        for g in self.generators:
            if g.bus == self.slack_bus:
                return g
        return None


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
    """A concrete topology: all existing lines plus the selected candidates.

    ``capacities`` holds each line's current rating in the same order as
    ``lines``. Instances are immutable; capacity updates produce a new
    network via :meth:`with_capacities`.
    """

    buses: tuple[Bus, ...]
    lines: tuple[LineSpec, ...]
    capacities: tuple[float, ...]
    slack_bus: int

    def __post_init__(self):
        if len(self.capacities) != len(self.lines):
            raise ValueError("capacities length must match lines length")

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
    def susceptance(self) -> np.ndarray:
        a = np.array([1.0 / ln.reactance for ln in self.lines], dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def capacity_array(self) -> np.ndarray:
        a = np.array(self.capacities, dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def line_ids(self) -> tuple[int, ...]:
        return tuple(ln.id for ln in self.lines)

    @cached_property
    def line_pos(self) -> dict[int, int]:
        return {ln.id: i for i, ln in enumerate(self.lines)}

    @cached_property
    def line_outage_rates(self) -> tuple[float, ...]:
        return tuple(ln.forced_outage_rate for ln in self.lines)

    @cached_property
    def slack_connected_memo(self) -> dict[frozenset[int], np.ndarray]:
        """Per-instance memo of :func:`gridtep.dcflow.slack_connected`:
        outage set (line ids) -> bus mask. Networks built by
        :meth:`with_capacities` start with an empty one."""
        return {}

    def with_capacities(self, capacities) -> "ActiveNetwork":
        return replace(self, capacities=tuple(float(c) for c in capacities))

    def capacity_of(self, line_id: int) -> float:
        return self.capacities[self.line_pos[line_id]]


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
        _check(f, g.operating_cost >= 0, f"{p}.operating_cost", "must be >= 0")

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

    # Existing lines must form one connected component (new-generator buses
    # may be line-less until candidates are built).
    touched = set()
    for ln in case.existing_lines:
        touched.add(ln.from_bus)
        touched.add(ln.to_bus)
    if touched:
        parent = {b: b for b in touched}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ln in case.existing_lines:
            ra, rb = find(ln.from_bus), find(ln.to_bus)
            if ra != rb:
                parent[ra] = rb
        roots = {find(b) for b in touched}
        _check(f, len(roots) == 1, "lines",
               "existing lines must form a single connected component")

    total_capacity = sum(g.capacity_mw for g in case.generators)
    if len(m) == 12 and m:
        peak = max(m) * sum(b.base_demand for b in case.buses)
        _check(f, total_capacity >= peak, "generators",
               f"total generator capacity {total_capacity} MW below peak demand {peak} MW")

    return f


# ---------------------------------------------------------------------------
# JSON I/O

def _require(obj, key, path, expected=None):
    if key not in obj:
        raise CaseValidationError([(f"{path}.{key}" if path else key, "missing field")])
    value = obj[key]
    if expected is not None and not isinstance(value, expected):
        names = expected if isinstance(expected, tuple) else (expected,)
        raise CaseValidationError([
            (f"{path}.{key}" if path else key,
             f"expected {'/'.join(t.__name__ for t in names)}")
        ])
    return value


def case_from_dict(data: dict) -> NetworkCase:
    """Build a NetworkCase from parsed JSON, validating all invariants."""
    buses = tuple(
        Bus(
            id=int(_require(b, "id", f"buses[{i}]", int)),
            base_demand=float(_require(b, "base_demand", f"buses[{i}]", (int, float))),
            is_slack=bool(b.get("is_slack", False)),
        )
        for i, b in enumerate(_require(data, "buses", "", list))
    )
    lines = tuple(
        LineSpec(
            id=int(_require(ln, "id", f"lines[{i}]", int)),
            from_bus=int(_require(ln, "from_bus", f"lines[{i}]", int)),
            to_bus=int(_require(ln, "to_bus", f"lines[{i}]", int)),
            length_km=float(_require(ln, "length_km", f"lines[{i}]", (int, float))),
            reactance=float(_require(ln, "reactance", f"lines[{i}]", (int, float))),
            forced_outage_rate=float(
                _require(ln, "forced_outage_rate", f"lines[{i}]", (int, float))),
            status=str(_require(ln, "status", f"lines[{i}]", str)),
            base_capacity_mw=float(
                _require(ln, "base_capacity_mw", f"lines[{i}]", (int, float))),
        )
        for i, ln in enumerate(_require(data, "lines", "", list))
    )
    generators = tuple(
        GeneratorSpec(
            bus=int(_require(g, "bus", f"generators[{i}]", int)),
            capacity_mw=float(_require(g, "capacity_mw", f"generators[{i}]", (int, float))),
            forced_outage_rate=float(
                _require(g, "forced_outage_rate", f"generators[{i}]", (int, float))),
            capital_cost=float(_require(g, "capital_cost", f"generators[{i}]", (int, float))),
            operating_cost=float(
                _require(g, "operating_cost", f"generators[{i}]", (int, float))),
            revenue_loss_rate=float(
                _require(g, "revenue_loss_rate", f"generators[{i}]", (int, float))),
            is_new=bool(g.get("is_new", False)),
        )
        for i, g in enumerate(_require(data, "generators", "", list))
    )
    ldc_obj = _require(data, "ldc", "", dict)
    ldc = LoadDurationCurve(
        monthly_multipliers=tuple(
            float(v) for v in _require(ldc_obj, "monthly_multipliers", "ldc", list))
    )
    c = _require(data, "costs", "", dict)
    costs = CostParameters(
        c_edns=tuple(float(v) for v in _require(c, "c_edns", "costs", list)),
        c_egns=tuple(float(v) for v in _require(c, "c_egns", "costs", list)),
        c_ewl=tuple(float(v) for v in _require(c, "c_ewl", "costs", list)),
        c_t2=float(_require(c, "c_t2", "costs", (int, float))),
        hours_per_month=float(c.get("hours_per_month", 730.0)),
    )
    options = data.get("options", {})
    case = NetworkCase(
        buses=buses,
        lines=lines,
        generators=generators,
        ldc=ldc,
        costs=costs,
        min_online_generators=int(options.get("min_online_generators", 2)),
    )
    failures = validate_case(case)
    if failures:
        raise CaseValidationError(failures)
    return case


def case_to_dict(case: NetworkCase) -> dict:
    return {
        "buses": [
            {"id": b.id, "base_demand": b.base_demand, "is_slack": b.is_slack}
            for b in case.buses
        ],
        "lines": [
            {
                "id": ln.id,
                "from_bus": ln.from_bus,
                "to_bus": ln.to_bus,
                "length_km": ln.length_km,
                "reactance": ln.reactance,
                "forced_outage_rate": ln.forced_outage_rate,
                "status": ln.status,
                "base_capacity_mw": ln.base_capacity_mw,
            }
            for ln in case.lines
        ],
        "generators": [
            {
                "bus": g.bus,
                "capacity_mw": g.capacity_mw,
                "forced_outage_rate": g.forced_outage_rate,
                "capital_cost": g.capital_cost,
                "operating_cost": g.operating_cost,
                "revenue_loss_rate": g.revenue_loss_rate,
                "is_new": g.is_new,
            }
            for g in case.generators
        ],
        "ldc": {"monthly_multipliers": list(case.ldc.monthly_multipliers)},
        "costs": {
            "c_edns": list(case.costs.c_edns),
            "c_egns": list(case.costs.c_egns),
            "c_ewl": list(case.costs.c_ewl),
            "c_t2": case.costs.c_t2,
            "hours_per_month": case.costs.hours_per_month,
        },
        "options": {"min_online_generators": case.min_online_generators},
    }


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
    except json.JSONDecodeError as exc:
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
    lines whose bit is set, each starting at its base capacity."""
    candidates = case.candidate_lines
    if len(chromosome.bits) != len(candidates):
        raise ValueError(
            f"chromosome length {len(chromosome.bits)} does not match "
            f"candidate count {len(candidates)}")
    lines = list(case.existing_lines)
    lines += [ln for bit, ln in zip(chromosome.bits, candidates) if bit]
    return ActiveNetwork(
        buses=case.buses,
        lines=tuple(lines),
        capacities=tuple(ln.base_capacity_mw for ln in lines),
        slack_bus=case.slack_bus,
    )


def scenario_demand(case: NetworkCase, month: int) -> np.ndarray:
    """Per-bus demand (MW) for one monthly load scenario."""
    if month not in MONTHS:
        raise ValueError(f"month must be in 1..12, got {month}")
    return case.base_demand * case.ldc.monthly_multipliers[month - 1]
