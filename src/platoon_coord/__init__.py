"""Hub-based platoon coordination for mixed fuel/electric truck fleets."""

from .baselines import FIXED_INTERVAL, SPONTANEOUS, solve_fixed_interval, solve_spontaneous
from .discretize import PreparedFleet, prepare_fleet
from .dp import DP_LS, DP_NLS, DpState, run_dp, solve_dp_ls, solve_dp_nls
from .model import (
    ContractViolation,
    EconomicParams,
    HorizonExceededError,
    InfeasibleTruckError,
    NoFeasibleScheduleError,
    ProblemInstance,
    RouteParams,
    TruckKind,
    TruckSpec,
    departure_soc_bounds,
    soc_after_charge,
    soc_after_trip,
)
from .oracle import ORACLE, oracle_consecutive, oracle_full
from .scenario import (
    GenerationError,
    InstanceFormatError,
    ScenarioConfig,
    generate,
    load_instance,
    save_instance,
    save_solution,
)
from .solution import Diagnostics, Solution
from .utility import (
    LeaderType,
    MemberLedger,
    PlatoonAssignment,
    Role,
    aggregate,
    evaluate_platoon,
    leader_feasible,
    platoon_profit,
)

__version__ = "0.1.0"
