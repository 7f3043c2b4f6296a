from dataclasses import replace

import pytest
from hypothesis import strategies as st

from platoon_coord import (
    EconomicParams,
    ProblemInstance,
    RouteParams,
    TruckKind,
    TruckSpec,
    prepare_fleet,
)

# Reference parameter set used across the suite: 200 km leg, 24 h horizon,
# platoons capped at 8, follower discharge factor 0.82, wait 0.4 and charge
# 0.2 euro per minute, follower profits 10 (ET) and 14 (FT) euro.
REF_ROUTE = RouteParams(distance=200.0, horizon=1440.0, max_platoon_size=8,
                        follower_coeff=0.82)
REF_ECON = EconomicParams(wait_cost=0.4, charge_cost=0.2,
                          et_follower_profit=10.0, ft_follower_profit=14.0)

ET_RATE = 1.07       # percent per minute
ET_VRATE = 0.286     # percent per km
ET_SAFE = 10.0
ET_MAX = 100.0

# Departure SoC an ET needs to follow safely / to lead or drive alone.
FOLLOW_NEED = ET_SAFE + 0.82 * ET_VRATE * 200.0   # 56.904
LEAD_NEED = ET_SAFE + ET_VRATE * 200.0            # 67.2


def ft(truck_id, arrival):
    return TruckSpec(id=truck_id, kind=TruckKind.FUEL, arrival_time=arrival)


def et(truck_id, arrival, soc, rate=ET_RATE, vrate=ET_VRATE, safe=ET_SAFE,
       max_soc=ET_MAX):
    return TruckSpec(id=truck_id, kind=TruckKind.ELECTRIC, arrival_time=arrival,
                     initial_soc=soc, charge_rate=rate, discharge_rate=vrate,
                     safe_soc=safe, max_soc=max_soc)


def prepare(trucks, route=REF_ROUTE, econ=REF_ECON, seed=0):
    instance = ProblemInstance(trucks=tuple(trucks), route=route, econ=econ, seed=seed)
    return prepare_fleet(instance)


@pytest.fixture
def truck_specs_built(monkeypatch):
    """The list to which every `TruckSpec` built from here on appends its
    fields."""
    built = []
    real = TruckSpec.__new__
    monkeypatch.setattr(TruckSpec, "__new__", lambda cls, *args, **kwargs: (
        built.append(args or kwargs) or real(cls, *args, **kwargs)))
    return built


@pytest.fixture
def route():
    return REF_ROUTE


@pytest.fixture
def econ():
    return REF_ECON


# Discharging 0.5 %/km, an ET needs 110 % to lead the 200 km leg: it can
# follow but never lead or drive alone.
UNLEADABLE = 0.5


@st.composite
def fleet_instances(draw):
    """Instances of one to 8 trucks: exact ties on a few shared arrival
    instants (some of them integers), all-ET fleets, ETs that can follow but
    never lead, nbar in {1, 2, 8}, zero follower profits, ec == ew, and a
    tight horizon that some ETs cannot charge within."""
    all_et = draw(st.booleans())
    trucks = []
    for k in range(draw(st.integers(1, 8))):
        arrival = draw(st.sampled_from((0.0, 0.0, 4, 4.0, 12.5, 40)))
        if not all_et and draw(st.booleans()):
            trucks.append(ft(k + 1, arrival))
        else:
            vrate = draw(st.one_of(st.sampled_from((ET_VRATE, UNLEADABLE)),
                                   st.floats(0.05, 0.45)))
            trucks.append(et(k + 1, arrival, soc=draw(st.floats(0.0, 100.0)),
                             rate=draw(st.floats(0.2, 3.0)), vrate=vrate))
    route = replace(REF_ROUTE, max_platoon_size=draw(st.sampled_from((1, 2, 8))),
                    horizon=draw(st.sampled_from((1440.0, 1440.0, 90.0))))
    wait = draw(st.sampled_from((0.0, 0.4, 1.0)))
    econ = EconomicParams(
        wait_cost=wait,
        charge_cost=draw(st.sampled_from((0.0, wait / 2, wait))),
        et_follower_profit=draw(st.sampled_from((0.0, 10.0, 14.0))),
        ft_follower_profit=draw(st.sampled_from((0.0, 14.0))),
    )
    return ProblemInstance(trucks=tuple(trucks), route=route, econ=econ,
                           seed=draw(st.integers(0, 3)))
