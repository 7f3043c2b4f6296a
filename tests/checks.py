"""Shared validators used by solver tests and the acceptance suite."""

import numpy as np

from platoon_coord import LeaderType, Role, aggregate
from platoon_coord.kernels import fleet_arrays
from platoon_coord.model import LEAD_COEFF, MONEY_TOL, SOC_TOL, TIME_TOL, departure_soc_bounds
from platoon_coord.utility import alone_departure


def assert_solution_valid(solution, prepared, route, consecutive=True):
    """Partition exactness, SoC safety, horizon, and money consistency."""
    by_rank = {m.rank: m for m in prepared}

    ranks = sorted(r for p in solution.platoons for r in p.ranks)
    assert ranks == list(range(len(prepared))), "fleet partition is not exact"

    profit, loss, utility = aggregate(solution.platoons)
    assert abs(solution.profit - profit) <= MONEY_TOL
    assert abs(solution.loss - loss) <= MONEY_TOL
    assert abs(solution.utility - utility) <= MONEY_TOL
    assert abs(solution.utility - (solution.profit - solution.loss)) <= MONEY_TOL

    last_depart = None
    for p in solution.platoons:
        assert 1 <= p.size <= route.max_platoon_size
        if consecutive:
            assert list(p.ranks) == list(range(p.ranks[0], p.ranks[-1] + 1))
        assert abs(p.utility - (p.profit - p.loss)) <= MONEY_TOL
        assert p.leader_rank in p.ranks
        if last_depart is not None:
            assert p.departure_time >= last_depart - TIME_TOL
        last_depart = p.departure_time
        if not solution.diagnostics.horizon_violation:
            assert p.departure_time <= route.horizon + TIME_TOL
        for row in p.ledger:
            member = by_rank[row.rank]
            assert row.wait_time >= -TIME_TOL
            assert row.charge_time >= -TIME_TOL
            assert p.departure_time >= member.earliest_departure - TIME_TOL
            if row.departure_soc is None:
                continue
            assert row.arrival_soc >= member.spec.safe_soc - SOC_TOL, (
                f"truck {row.truck_id} arrives at {row.arrival_soc} "
                f"below its safety floor"
            )
            if row.role in (Role.LEADER, Role.ALONE):
                assert p.leader_type is LeaderType.ELECTRIC or row.role is Role.ALONE


def _scalar_columns(m, route):
    """The `fleet_arrays` entries of one truck, from the scalar formulas."""
    if not m.is_electric:
        zero = dict.fromkeys(("tau_cmin", "fill_time", "rate", "need_lead",
                              "init_soc", "max_soc", "vrate"), 0.0)
        return dict(zero, tau_delta=m.earliest_departure, is_et=0,
                    alone_depart=m.earliest_departure, arrival=m.arrival_time)
    spec = m.spec
    need, _ = departure_soc_bounds(spec, route, LEAD_COEFF)
    return dict(
        tau_delta=m.earliest_departure,
        tau_cmin=m.min_charge_time,
        is_et=1,
        fill_time=(spec.max_soc - m.min_departure_soc) / spec.charge_rate,
        rate=spec.charge_rate,
        need_lead=need,
        alone_depart=alone_departure(m, route),
        arrival=m.arrival_time,
        init_soc=spec.initial_soc,
        max_soc=spec.max_soc,
        vrate=spec.discharge_rate,
    )


def assert_fleet_arrays_match_scalar(fleet, route, records=None):
    """Every `fleet_arrays` column of a prepared fleet equals, bit for bit,
    its scalar formula over `records` (the fleet's own by default). A
    float64 column holds `float(value)` of a field given as an int or a
    numpy float."""
    columns = vars(fleet_arrays(fleet, route))
    for name, col in columns.items():
        assert isinstance(col, np.ndarray) and col.shape == (len(fleet),), name
    for m in fleet if records is None else records:
        scalar = _scalar_columns(m, route)
        assert set(scalar) == set(columns)
        for name, value in scalar.items():
            got = columns[name][m.rank].item()
            value = type(got)(value)
            assert got == value and repr(got) == repr(value), (name, m.rank)
