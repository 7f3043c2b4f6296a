"""Seeded scenario generation and JSON persistence for instances and solutions.

Generation uses numpy's counter-based Philox generator so a (config, seed)
pair reproduces bit-identically across platforms; the generator name is
recorded in the instance file. Files are schema-versioned JSON written with
sorted keys, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cache
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter, not_
from typing import Optional

import numpy as np

from .model import (
    EconomicParams,
    FleetColumns,
    ProblemInstance,
    RouteParams,
    TruckKind,
    TruckSpec,
)
from .solution import Solution
from .utility import LEADER_BY_CODE, ROLE_BY_CODE, PlatoonTable

SCHEMA_VERSION = 1
RNG_NAME = "numpy-philox4x64"
_RESAMPLE_BUDGET = 1000


class GenerationError(RuntimeError):
    """Scenario generation could not satisfy its constraints."""


class InstanceFormatError(ValueError):
    """An instance or solution file is malformed or has an unknown schema."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the random fleet generator.

    Defaults describe the reference scenario used throughout the test suite:
    1000 trucks, 30% electric, arrivals uniform over a 24 h horizon, one
    200 km hub-to-hub leg.
    """

    n_trucks: int = 1000
    et_share: float = 0.3
    arrival_lo: int = 1
    arrival_hi: int = 1440
    horizon: float = 1440.0
    distance: float = 200.0
    max_platoon_size: int = 8
    follower_coeff: float = 0.82
    wait_cost: float = 0.4
    charge_cost: float = 0.2
    et_follower_profit: float = 10.0
    ft_follower_profit: float = 14.0
    charge_rate: float = 1.07
    discharge_rate: float = 0.286
    safe_soc: float = 10.0
    max_soc: float = 100.0
    soc_lo: Optional[float] = None   # default: safe_soc
    soc_hi: Optional[float] = None   # default: max_soc
    seed: int = 0

    def route(self) -> RouteParams:
        return RouteParams(
            distance=self.distance,
            horizon=self.horizon,
            max_platoon_size=self.max_platoon_size,
            follower_coeff=self.follower_coeff,
        )

    def econ(self) -> EconomicParams:
        return EconomicParams(
            wait_cost=self.wait_cost,
            charge_cost=self.charge_cost,
            et_follower_profit=self.et_follower_profit,
            ft_follower_profit=self.ft_follower_profit,
        )


def generate(config: ScenarioConfig) -> ProblemInstance:
    """Draw a fleet deterministically from (config, config.seed).

    Exactly round(n_trucks * et_share) trucks are electric, at positions
    drawn once up front. A truck whose mandatory charge would push it past
    the horizon is redrawn, with a bounded retry budget.
    """
    if not 0 <= config.et_share <= 1:
        raise GenerationError("et_share must be in [0, 1]")
    if config.arrival_lo > config.arrival_hi or config.arrival_lo < 0:
        raise GenerationError("arrival range must satisfy 0 <= lo <= hi")
    if config.n_trucks < 1:
        raise GenerationError("n_trucks must be >= 1")
    if config.seed < 0:
        raise GenerationError("seed must be >= 0")
    follower_need = config.safe_soc + config.follower_coeff * config.discharge_rate * config.distance
    if follower_need > config.max_soc:
        raise GenerationError(
            "electric trucks could never follow safely: "
            f"required departure SoC {follower_need:.6g}% exceeds capacity "
            f"{config.max_soc:.6g}%"
        )
    soc_lo = config.safe_soc if config.soc_lo is None else config.soc_lo
    soc_hi = config.max_soc if config.soc_hi is None else config.soc_hi
    if not config.safe_soc <= soc_lo <= soc_hi <= config.max_soc:
        raise GenerationError("SoC range must lie within [safe_soc, max_soc]")

    rng = np.random.Generator(np.random.Philox(config.seed))
    n_et = int(round(config.n_trucks * config.et_share))
    et_positions = set(rng.permutation(config.n_trucks)[:n_et].tolist())

    trucks = []
    for pos in range(config.n_trucks):
        electric = pos in et_positions
        for attempt in range(_RESAMPLE_BUDGET):
            arrival = float(rng.integers(config.arrival_lo, config.arrival_hi + 1))
            if electric:
                soc = float(rng.uniform(soc_lo, soc_hi))
                charge = max(0.0, (follower_need - soc) / config.charge_rate)
            else:
                soc = None
                charge = 0.0
            if arrival + charge <= config.horizon:
                break
        else:
            raise GenerationError(
                f"could not draw truck {pos + 1} with earliest departure inside "
                f"the horizon after {_RESAMPLE_BUDGET} attempts"
            )
        if electric:
            trucks.append(TruckSpec(
                id=pos + 1,
                kind=TruckKind.ELECTRIC,
                arrival_time=arrival,
                initial_soc=soc,
                charge_rate=config.charge_rate,
                discharge_rate=config.discharge_rate,
                safe_soc=config.safe_soc,
                max_soc=config.max_soc,
            ))
        else:
            trucks.append(TruckSpec(id=pos + 1, kind=TruckKind.FUEL, arrival_time=arrival))

    return ProblemInstance(
        trucks=tuple(trucks),
        route=config.route(),
        econ=config.econ(),
        seed=config.seed,
    )


def _require(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise InstanceFormatError(f"{ctx}: missing field '{key}'")
    return obj[key]


def _object(obj: dict, key: str, ctx: str) -> dict:
    value = _require(obj, key, ctx)
    if not isinstance(value, dict):
        raise InstanceFormatError(f"{ctx}: '{key}' must be an object, got {value!r}")
    return value


def _number(obj: dict, key: str, ctx: str):
    value = _require(obj, key, ctx)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{ctx}: field '{key}' must be a number, got {value!r}")
    return value


def _integer(obj: dict, key: str, ctx: str) -> int:
    value = _require(obj, key, ctx)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(f"{ctx}: field '{key}' must be an integer, got {value!r}")
    return value


def _truck_from_row(row, ctx: str) -> TruckSpec:
    """One truck row, field by field, naming the first fault it finds."""
    if not isinstance(row, dict):
        raise InstanceFormatError(f"{ctx}: must be an object, got {row!r}")
    kind_tag = _require(row, "kind", ctx)
    try:
        kind = TruckKind(kind_tag)
    except ValueError:
        raise InstanceFormatError(f"{ctx}: unknown kind {kind_tag!r}") from None
    if kind is TruckKind.ELECTRIC:
        return TruckSpec(
            id=_require(row, "id", ctx),
            kind=kind,
            arrival_time=_number(row, "arrival", ctx),
            initial_soc=_number(row, "soc0", ctx),
            charge_rate=_number(row, "rate", ctx),
            discharge_rate=_number(row, "vrate", ctx),
            safe_soc=_number(row, "safe", ctx),
            max_soc=_number(row, "max", ctx),
        )
    return TruckSpec(
        id=_require(row, "id", ctx),
        kind=kind,
        arrival_time=_number(row, "arrival", ctx),
    )


# The battery fields of an ET row, in `TruckSpec` order.
_BATTERY_KEYS = ("soc0", "rate", "vrate", "safe", "max")
_NUMBER_TYPES = {int, float}


def _fleet_columns(rows: list) -> Optional[FleetColumns]:
    """The columns of these truck rows, read one field at a time, or None
    unless every row is an object of a known kind with its fields, every
    numeric field an int or a float, and every truck passes the checks of
    `TruckSpec`. Rows that are not read here take `_truck_from_row`, which
    names the first fault; a field that no such check reads is ignored by
    both, such as battery fields on a fuel truck."""
    try:
        kinds = list(map(itemgetter("kind"), rows))
        electric = [kind == "ET" for kind in kinds]
        ets = list(compress(rows, electric))
        if len(ets) + kinds.count("FT") != len(rows):
            return None
        ids = list(map(itemgetter("id"), rows))
        arrival = list(map(itemgetter("arrival"), rows))
        battery = tuple(list(map(itemgetter(key), ets)) for key in _BATTERY_KEYS)
    except (TypeError, KeyError):  # a row that is not an object, or lacks a field
        return None
    if not all(set(map(type, column)) <= _NUMBER_TYPES for column in (arrival, *battery)):
        return None
    try:
        columns = FleetColumns(ids, electric, arrival, battery)
    except OverflowError:  # an int beyond float64; `TruckSpec` accepts it
        return None
    return columns if columns.pass_truck_checks() else None


def load_instance(path: str) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}: {exc.msg})"
        ) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    version = _integer(doc, "version", path)
    if version != SCHEMA_VERSION:
        raise InstanceFormatError(
            f"{path}: unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    route_doc = _object(doc, "route", path)
    econ_doc = _object(doc, "econ", path)
    trucks_doc = _require(doc, "trucks", path)
    if not isinstance(trucks_doc, list) or not trucks_doc:
        raise InstanceFormatError(f"{path}: 'trucks' must be a non-empty list")

    route = RouteParams(
        distance=_number(route_doc, "d", f"{path}: route"),
        horizon=_number(route_doc, "T", f"{path}: route"),
        max_platoon_size=_integer(route_doc, "nbar", f"{path}: route"),
        follower_coeff=_number(route_doc, "beta_f", f"{path}: route"),
    )
    econ = EconomicParams(
        wait_cost=_number(econ_doc, "ew", f"{path}: econ"),
        charge_cost=_number(econ_doc, "ec", f"{path}: econ"),
        et_follower_profit=_number(econ_doc, "xiE", f"{path}: econ"),
        ft_follower_profit=_number(econ_doc, "xiF", f"{path}: econ"),
    )
    columns = _fleet_columns(trucks_doc)
    if columns is None:
        trucks = tuple(_truck_from_row(row, f"{path}: trucks[{k}]")
                       for k, row in enumerate(trucks_doc))
    seed = _integer(doc, "seed", path)
    try:
        if columns is None:
            return ProblemInstance(trucks=trucks, route=route, econ=econ, seed=seed)
        return ProblemInstance._from_columns(columns, route, econ, seed)
    except TypeError as exc:  # the uniqueness check hashes every truck id
        raise InstanceFormatError(f"{path}: truck ids must be scalars ({exc})") from None


def _scalar(value) -> str:
    """JSON text of one value, as `json.dump` writes it. The dispatch is on
    the exact type, as in `json`: float subclasses such as `np.float64`,
    whose repr is not JSON, non-finite floats and anything else go through
    `json.dumps`."""
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return repr(value)
    elif kind is int:
        return repr(value)
    elif kind is str:
        return encode_basestring_ascii(value)
    elif value is None:
        return "null"
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    return json.dumps(value)


@cache
def _frame(brackets: str, depth: int):
    """The text that opens, separates and closes the items of a JSON array
    or object at nesting `depth`, as `json.dump(indent=2)` lays them out."""
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad, "," + pad, "\n" + "  " * depth + brackets[1]


def _container(brackets: str, items: list, depth: int) -> str:
    """A JSON array or object of rendered items at nesting `depth`."""
    if not items:
        return brackets
    opening, sep, closing = _frame(brackets, depth)
    return opening + sep.join(items) + closing


def _scalar_object(mapping: dict, depth: int) -> str:
    """A JSON object of scalar values at nesting `depth`, keys sorted."""
    return _container("{}", [f"{_scalar(k)}: {_scalar(v)}" for k, v in sorted(mapping.items())],
                      depth)


def _array_chunks(count: int, render, depth: int, per_chunk: int):
    """A JSON array of `count` items at nesting `depth`, in pieces of
    `per_chunk` items, so that a writer holds one piece, not the array.
    `render(lo, hi)` gives the texts of items `lo` .. `hi - 1`."""
    if not count:
        yield "[]"
        return
    opening, sep, closing = _frame("[]", depth)
    for k in range(0, count, per_chunk):
        yield (sep if k else opening) + sep.join(render(k, min(k + per_chunk, count)))
    yield closing


# The instance file up to its truck array and after it, and a truck row of
# each kind, keys in sorted order and indented as at their nesting depth.
_INSTANCE_HEAD = """{
  "config": %s,
  "econ": {
    "ec": %s,
    "ew": %s,
    "xiE": %s,
    "xiF": %s
  },
  "rng": %s,
  "route": {
    "T": %s,
    "beta_f": %s,
    "d": %s,
    "nbar": %s
  },
  "seed": %s,
  "trucks": """
_INSTANCE_TAIL = """,
  "version": %s
}
"""
_ET_TRUCK = """{
      "arrival": %s,
      "id": %s,
      "kind": "ET",
      "max": %s,
      "rate": %s,
      "safe": %s,
      "soc0": %s,
      "vrate": %s
    }"""
_FT_TRUCK = """{
      "arrival": %s,
      "id": %s,
      "kind": "FT"
    }"""


def _truck(t: TruckSpec) -> str:
    truck_id, kind, arrival, soc0, rate, vrate, safe, cap = t
    if kind is TruckKind.FUEL:
        return _FT_TRUCK % (_scalar(arrival), _scalar(truck_id))
    return _ET_TRUCK % (_scalar(arrival), _scalar(truck_id), _scalar(cap), _scalar(rate),
                        _scalar(safe), _scalar(soc0), _scalar(vrate))


# Trucks rendered per chunk: about the text of `_PLATOONS_PER_CHUNK` platoons.
_TRUCKS_PER_CHUNK = 128


def _instance_chunks(instance: ProblemInstance, config: Optional[ScenarioConfig]):
    """The instance file in chunks of a few trucks each: the bytes
    `json.dump(doc, fh, indent=2, sort_keys=True)` and a newline give for the
    schema document. This is the one statement of the instance layout."""
    route, econ = instance.route, instance.econ
    yield _INSTANCE_HEAD % (
        "null" if config is None else _scalar_object(asdict(config), 1),
        _scalar(econ.charge_cost),
        _scalar(econ.wait_cost),
        _scalar(econ.et_follower_profit),
        _scalar(econ.ft_follower_profit),
        _scalar(RNG_NAME),
        _scalar(route.horizon),
        _scalar(route.follower_coeff),
        _scalar(route.distance),
        _scalar(route.max_platoon_size),
        _scalar(instance.seed),
    )
    trucks = instance.trucks
    yield from _array_chunks(len(trucks), lambda lo, hi: map(_truck, trucks[lo:hi]), 1,
                             _TRUCKS_PER_CHUNK)
    yield _INSTANCE_TAIL % _scalar(SCHEMA_VERSION)


def instance_text(instance: ProblemInstance, config: Optional[ScenarioConfig] = None) -> str:
    """The instance file as one string: the bytes `save_instance` writes."""
    return "".join(_instance_chunks(instance, config))


def save_instance(instance: ProblemInstance, path: str,
                  config: Optional[ScenarioConfig] = None) -> None:
    # As in `save_solution`: chunks of tens of kB through a 1 MiB buffer.
    with open(path, "w", encoding="utf-8", buffering=1 << 20) as fh:
        fh.writelines(_instance_chunks(instance, config))


# Ledger rows, platoons and the file, keys in sorted order and indented as at
# their nesting depth; `_frame` places the opening brace of each item.
_ET_ROW = """{
          "charge": %s,
          "id": %s,
          "role": %s,
          "soc_arr": %s,
          "soc_dep": %s,
          "wait": %s
        }"""
_FT_ROW = """{
          "charge": %s,
          "id": %s,
          "role": %s,
          "wait": %s
        }"""
_PLATOON = """{
      "depart": %s,
      "leader_id": %s,
      "leader_type": %s,
      "ledger": %s,
      "members": %s
    }"""
_HEAD = """{
  "diagnostics": {
    "backend": %s,
    "dp_updates": %s,
    "dp_value": %s,
    "et_led": %s,
    "ft_led": %s,
    "horizon_violation": %s,
    "platoon_sizes": %s,
    "solve_ms": %s
  },
  "method": %s,
  "platoons": """
_TAIL = """,
  "totals": {
    "J": %s,
    "L": %s,
    "R": %s
  },
  "version": %s
}
"""


_FLOAT, _INT = {float}, {int}


def _texts(values) -> list:
    """`_scalar` of every value. When every value is exactly a finite float,
    or exactly an int, `repr` renders them at C speed. A sum of finite floats
    is finite unless it overflows, and that only costs the slow path."""
    kinds = set(map(type, values))
    if kinds == _FLOAT and math.isfinite(sum(values)):
        return list(map(float.__repr__, values))
    if kinds == _INT:
        return list(map(int.__repr__, values))
    return list(map(_scalar, values))


_ROLE_VALUE = tuple(role.value for role in ROLE_BY_CODE)
_LEADER_VALUE = tuple(kind.value for kind in LEADER_BY_CODE)
_ROLE_TEXT = tuple(map(_scalar, _ROLE_VALUE))
_LEADER_TEXT = tuple(map(_scalar, _LEADER_VALUE))


def _platoon_texts(t: PlatoonTable, lo: int, hi: int):
    """The texts of platoons `lo` .. `hi - 1`, rendered column by column."""
    m0, m1 = t.start[lo], t.start[hi - 1] + t.size[hi - 1]
    fuel = t.fuel[m0:m1]
    electric = list(map(not_, fuel))
    ids = _texts(t.truck_id[m0:m1])
    soc_dep = iter(_texts(list(compress(t.departure_soc[m0:m1], electric))))
    soc_arr = iter(_texts(list(compress(t.arrival_soc[m0:m1], electric))))
    rows = [
        _FT_ROW % (charge, i, role, wait) if f
        else _ET_ROW % (charge, i, role, next(soc_arr), next(soc_dep), wait)
        for charge, i, role, wait, f in zip(
            _texts(t.charge[m0:m1]), ids, map(_ROLE_TEXT.__getitem__, t.role[m0:m1]),
            _texts(t.wait[m0:m1]), fuel)
    ]
    for s, n, code, lp, depart in zip(t.start[lo:hi], t.size[lo:hi], t.leader[lo:hi],
                                      t.leader_pos[lo:hi], _texts(t.departure[lo:hi])):
        o = s - m0
        yield _PLATOON % (depart, ids[o + lp], _LEADER_TEXT[code],
                          _container("[]", rows[o:o + n], 3),
                          _container("[]", ids[o:o + n], 3))


# Platoons rendered per chunk: tens of kB of text, few enough writes.
_PLATOONS_PER_CHUNK = 16


def _solution_chunks(solution: Solution, include_timing: bool):
    """The solution file in chunks of a few platoons each: the bytes
    `json.dump(doc, fh, indent=2, sort_keys=True)` and a newline give for the
    schema document. This is the one statement of the solution layout.
    Wall-clock timing is volatile, so it is written as null unless
    explicitly requested."""
    diag = solution.diagnostics
    sizes = {str(k): v for k, v in diag.platoon_sizes.items()}
    yield _HEAD % (
        _scalar(diag.backend),
        _scalar(diag.dp_updates),
        _scalar(diag.dp_value),
        _scalar(diag.et_led),
        _scalar(diag.ft_led),
        _scalar(diag.horizon_violation),
        _scalar_object(sizes, 2),
        _scalar(diag.solve_ms if include_timing else None),
        _scalar(solution.method),
    )
    table = solution.table
    yield from _array_chunks(len(table), lambda lo, hi: _platoon_texts(table, lo, hi), 1,
                             _PLATOONS_PER_CHUNK)
    yield _TAIL % (
        _scalar(solution.utility),
        _scalar(solution.loss),
        _scalar(solution.profit),
        _scalar(SCHEMA_VERSION),
    )


def solution_csv_rows(solution: Solution):
    """The rows of the CSV form of a solution: a header, then one row per
    platoon member, rendered from the columns a few platoons at a time."""
    yield ["platoon", "depart", "leader_id", "leader_type", "id", "role",
           "charge", "wait", "soc_dep", "soc_arr"]
    t = solution.table
    for lo in range(0, len(t), _PLATOONS_PER_CHUNK):
        hi = min(lo + _PLATOONS_PER_CHUNK, len(t))
        m0, m1 = t.start[lo], t.start[hi - 1] + t.size[hi - 1]
        fuel = t.fuel[m0:m1]
        members = list(zip(
            t.truck_id[m0:m1],
            map(_ROLE_VALUE.__getitem__, t.role[m0:m1]),
            map(repr, t.charge[m0:m1]),
            map(repr, t.wait[m0:m1]),
            ["" if f else repr(soc) for f, soc in zip(fuel, t.departure_soc[m0:m1])],
            ["" if f else repr(soc) for f, soc in zip(fuel, t.arrival_soc[m0:m1])],
        ))
        for k, s, n, code, lp, depart in zip(range(lo, hi), t.start[lo:hi], t.size[lo:hi],
                                             t.leader[lo:hi], t.leader_pos[lo:hi],
                                             t.departure[lo:hi]):
            head = (k, repr(depart), t.truck_id[s + lp], _LEADER_VALUE[code])
            for row in members[s - m0:s - m0 + n]:
                yield head + row


def solution_text(solution: Solution, include_timing: bool = False) -> str:
    """The solution file as one string: the bytes `save_solution` writes."""
    return "".join(_solution_chunks(solution, include_timing))


def solution_to_json(solution: Solution, include_timing: bool = False) -> dict:
    """Schema dict of a solution, parsed from `solution_text`."""
    return json.loads(solution_text(solution, include_timing))


def save_solution(solution: Solution, path: str, include_timing: bool = False) -> None:
    # The chunks are tens of kB: a 1 MiB buffer gathers them into few system
    # calls while holding at most 1 MiB of the file.
    with open(path, "w", encoding="utf-8", buffering=1 << 20) as fh:
        fh.writelines(_solution_chunks(solution, include_timing))
