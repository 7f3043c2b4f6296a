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
from itertools import accumulate, compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter, not_
from typing import Optional

import numpy as np

from .discretize import _mandatory_charge
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
    drawn once up front. Each truck then draws its arrival minute and, if
    electric, its initial SoC; a truck whose mandatory charge would push it
    past the horizon is redrawn, with a bounded retry budget. The fleet is
    filled as columns (`_draw_fleet`), so no `TruckSpec` is built.
    """
    for name in ("n_trucks", "arrival_lo", "arrival_hi", "seed"):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise GenerationError(f"{name} must be an integer, got {value!r}")
    if not 0 <= config.et_share <= 1:
        raise GenerationError("et_share must be in [0, 1]")
    lo, hi = config.arrival_lo, config.arrival_hi
    # 2**63 - 1 is numpy's largest int64; a span of 2**32 or more would
    # take numpy's 64-bit draw, which `_draw_fleet` does not decode.
    if not 0 <= lo <= hi < 2**63:
        raise GenerationError("arrival range must satisfy 0 <= lo <= hi < 2**63")
    if hi - lo >= 2**32:
        raise GenerationError("arrival_hi - arrival_lo must be below 2**32")
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

    route, econ = config.route(), config.econ()

    bitgen = np.random.Philox(config.seed)
    n = config.n_trucks
    n_et = int(round(n * config.et_share))
    electric = np.zeros(n, dtype=bool)
    electric[np.random.Generator(bitgen).permutation(n)[:n_et]] = True
    fixed = (config.charge_rate, config.discharge_rate, config.safe_soc, config.max_soc)
    if n_et:
        # Every ET shares these fields, and its SoC lies in [safe_soc, max_soc],
        # so a fault in them is the first ET's, which a fleet of that ET alone
        # reports; drawing would divide by the rate.
        first = FleetColumns([int(electric.argmax()) + 1], [True], [lo],
                             ([soc_lo], *([v] for v in fixed)))
        ProblemInstance._from_columns(first, route, econ)
    arrival, soc = _draw_fleet(bitgen, electric, lo, hi - lo, soc_lo, soc_hi, route, fixed)
    columns = FleetColumns(list(range(1, n + 1)), electric.tolist(), arrival.tolist(),
                           (soc[electric].tolist(), *([v] * n_et for v in fixed)))
    return ProblemInstance._from_columns(columns, route, econ, config.seed)


# How numpy's `Generator` turns Philox's 64-bit words into the scalar draws
# of `_draw_fleet` (tests/test_scenario.py checks it against those draws):
# - `integers(lo, lo + span + 1)` with 0 < span < 2**32 takes a 32-bit half u
#   through Lemire's method: with m = u * (span + 1), it rejects u and takes
#   another half while m mod 2**32 < (2**32 - 1 - span) mod (span + 1), and
#   otherwise returns lo + (m >> 32). A span of 0 takes nothing. The halves
#   come from the bit generator's `next_uint32`, which takes the low half of
#   a fresh word and keeps the high half for its next call.
# - `uniform(a, b)` takes a whole fresh word w, leaving a kept half alone,
#   as a + (b - a) * ((w >> 11) * 2**-53).
_LOW_HALF = np.uint64(0xFFFFFFFF)
_UNIT = 2.0**-53
# The fewest slots one window lays out after a window that ended early.
_MIN_WINDOW = 64


def _draw_fleet(bitgen, electric, lo: int, span: int, soc_lo, soc_hi, route: RouteParams,
                fixed):
    """Each truck's arrival minute and, for an ET, initial SoC (zero for an
    FT), as float64 columns: the values of the scalar loop

        for each truck, for up to `_RESAMPLE_BUDGET` attempts:
            arrival = float(rng.integers(lo, lo + span + 1))
            if electric: soc = float(rng.uniform(soc_lo, soc_hi))
            charge = the mandatory charge of an ET with soc and the `fixed`
                     battery fields (`prepare_fleet`) if electric else 0.0
            stop if arrival + charge <= route.horizon

    on a `Generator` over `bitgen`, decoded in numpy from its raw words.
    Every word is decoded up front in each role it can take: its two halves
    as arrival draws (NaN where Lemire's method rejects them) and the whole
    word as a SoC draw and its charge. Where each truck's draws lie follows
    from the ET flags as long as no draw fails, so a window of trucks is
    laid out at once, one slot of draws per truck. A truck whose draw fails
    draws again from the next slot, which holds the right words while the
    trucks the slots were laid out for are of its kind; the next window
    starts where they are not, past the words the draws before used."""
    n = electric.size
    arrival, soc = np.empty(n), np.zeros(n)
    excl, threshold = np.uint64(span + 1), (2**32 - 1 - span) % (span + 1)
    base = float(soc_lo)
    scale = float(soc_hi) - base

    def decode(words):
        halves = np.stack((words & _LOW_HALF, words >> np.uint64(32)), axis=1).ravel()
        scaled = halves * excl
        value = ((scaled >> np.uint64(32)).astype(np.int64) + lo).astype(float)
        value[(scaled & _LOW_HALF) < threshold] = np.nan
        s = base + scale * ((words >> np.uint64(11)).astype(float) * _UNIT)
        return value, s, _mandatory_charge(route, s, *fixed)[2]

    # Word 0 stands for the half `next_uint32` keeps, as its high half; an FT
    # takes it as its SoC word, with SoC and charge zero.
    state = bitgen.state
    kept = 0 if state["has_uint32"] else None  # the word whose high half is kept
    value, socs, charge = decode(np.array([state["uinteger"] << 32], dtype=np.uint64))
    socs[0] = charge[0] = 0.0
    # Which arrival draws take a fresh word: every other one, as halves alternate.
    alternate = np.arange(n + 1) % 2 == 0 if span else np.zeros(n + 1, dtype=bool)
    soc_taken = electric.astype(np.int64)  # the words an attempt's SoC draw takes
    pos, cursor, attempts = 0, 1, 0  # next truck, next unused word, its failed draws
    window = n
    while pos < n:
        et = electric[pos:pos + window]
        m = et.size
        fresh = alternate[kept is not None:][:m]
        taken = fresh + soc_taken[pos:pos + m]
        first = cursor + np.cumsum(taken) - taken  # each slot's first word
        end = cursor + int(taken.sum())
        if end > socs.size:  # one SoC per word decoded so far
            more = decode(bitgen.random_raw(max(end - socs.size, socs.size)))
            value, socs, charge = (np.concatenate(pair) for pair in zip((value, socs, charge), more))
        if span:
            # A fresh draw takes its word's low half, the next draw the high one
            # (the kept word's for the first truck; any word if its draw is fresh).
            owner = np.concatenate(([kept or 0], first[:-1]))
            a = value[np.where(fresh, 2 * first, 2 * owner + 1)]
        else:
            a = np.full(m, float(lo))
        soc_word = np.where(et, first + fresh, 0)
        fits = a + charge[soc_word] <= route.horizon  # False for a rejected draw's NaN
        rejected = np.isnan(a)
        # A truck that fails draws again in the next slot, which is laid out
        # for the next truck: right while that truck is of the same kind, as
        # a retry takes an ET's words or an FT's half again. A rejected ET
        # draw is retried without its SoC draw, so it ends the window too.
        truck = np.cumsum(fits) - fits  # the truck each slot serves, from pos
        bad = (et[truck] != et) | (rejected & et)
        k = int(bad.argmax())
        if not bad[k]:
            k = m
        served = np.flatnonzero(fits[:k])
        done = served.size
        arrival[pos:pos + done], soc[pos:pos + done] = a[served], socs[soc_word[served]]
        if done < k:  # some draw failed or was rejected
            failures = np.bincount(truck[:k][~(fits[:k] | rejected[:k])], minlength=done + 1)
            failures[0] += attempts
            exhausted = failures >= _RESAMPLE_BUDGET
            if exhausted.any():
                raise GenerationError(
                    f"could not draw truck {pos + int(exhausted.argmax()) + 1} with earliest "
                    f"departure inside the horizon after {_RESAMPLE_BUDGET} attempts"
                )
            attempts = int(failures[done])
        elif done:  # the truck after them has not drawn yet
            attempts = 0
        if k == m:
            last, cursor, window = m - 1, end, 2 * window
        elif rejected[k]:
            # The rejected draw's half is spent.
            last, cursor, window = k, int(first[k] + fresh[k]), max(_MIN_WINDOW, 2 * k)
        else:
            last, cursor, window = k - 1, int(first[k]), max(_MIN_WINDOW, 2 * k)
        if span:
            kept = int(first[last]) if fresh[last] else None
        pos += done
    return arrival, soc


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
    try:
        float(value)
    except OverflowError:  # an int beyond float64
        raise InstanceFormatError(f"{ctx}: field '{key}' is beyond the float range") from None
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
    unless every row is an object of a known kind with its fields, and
    every numeric field an int or a float within float64's range. Rows that
    are not read here take `_truck_from_row`, which names the first fault;
    a field that no such check reads is ignored by both, such as battery
    fields on a fuel truck. The values are checked by `ProblemInstance`."""
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
        return FleetColumns(ids, electric, arrival, battery)
    except OverflowError:  # an int beyond float64
        return None


def load_instance(path: str) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
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
    seed = _integer(doc, "seed", path)
    columns = _fleet_columns(trucks_doc)
    if columns is None:
        columns = FleetColumns.from_trucks([_truck_from_row(row, f"{path}: trucks[{k}]")
                                            for k, row in enumerate(trucks_doc)])
    try:
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


def _truck_texts(ids: list, electric: list, arrival: list, battery) -> list:
    """The texts of these trucks' rows, rendered column by column; `battery`
    holds the five battery columns of the ETs among them."""
    soc0, rate, vrate, safe, cap = map(_texts, battery)
    et_fields = zip(cap, rate, safe, soc0, vrate)
    return [_ET_TRUCK % (a, i, *next(et_fields)) if e else _FT_TRUCK % (a, i)
            for i, e, a in zip(_texts(ids), electric, _texts(arrival))]


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
    columns = instance.columns
    ids, electric, arrival = columns.ids, columns.electric, columns.arrival
    n, per_chunk = len(ids), _TRUCKS_PER_CHUNK
    # The place of each chunk's first ET among the ETs.
    et_start = list(accumulate((electric[lo:lo + per_chunk].count(True)
                                for lo in range(0, n, per_chunk)), initial=0))

    def render(lo, hi):
        e0, e1 = et_start[lo // per_chunk], et_start[lo // per_chunk + 1]
        return _truck_texts(ids[lo:hi], electric[lo:hi], arrival[lo:hi],
                            [column[e0:e1] for column in columns.battery])
    yield from _array_chunks(n, render, 1, per_chunk)
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
