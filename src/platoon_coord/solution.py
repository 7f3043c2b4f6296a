"""Solution container shared by every solver: platoons, totals, diagnostics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from .model import ContractViolation
from .utility import PlatoonAssignment, PlatoonTable, check_cover, departure_order, ordered_sum


@dataclass
class Diagnostics:
    platoon_sizes: Dict[int, int] = field(default_factory=dict)
    et_led: int = 0
    ft_led: int = 0
    dp_updates: Optional[int] = None   # value-function candidate evaluations
    dp_value: Optional[float] = None   # optimal value reported by the recursion
    solve_ms: Optional[float] = None
    horizon_violation: bool = False
    backend: Optional[str] = None


@dataclass
class Solution:
    """A complete schedule: partition of the fleet into platoons plus totals.

    The platoons are held as a `PlatoonTable` in (departure, first rank)
    order, so output order is stable even when a postponed solo leaves after
    the block that follows it in rank. The table's constructors deliver that
    order (`utility.departure_order`); `from_table` only checks it.
    `platoons` gives them as records, built on first access.
    """

    method: str
    table: PlatoonTable
    profit: float
    loss: float
    utility: float
    diagnostics: Diagnostics

    @cached_property
    def platoons(self) -> List[PlatoonAssignment]:
        """The platoons as records, in departure order."""
        return self.table.records()

    @classmethod
    def from_table(cls, method: str, table: PlatoonTable,
                   diagnostics: Optional[Diagnostics] = None) -> "Solution":
        """The solution of a table in (departure, first rank) order, its
        totals summed one platoon after the other in that order."""
        check_cover(table.rank)
        order = departure_order(table.departure, [table.rank[s] for s in table.start])
        if (order != np.arange(order.size)).any():
            raise ContractViolation("platoons must be in (departure, first rank) order")
        profit = ordered_sum(table.profit)
        loss = ordered_sum(table.loss)
        diag = diagnostics if diagnostics is not None else Diagnostics()
        diag.platoon_sizes = dict(sorted(Counter(table.size).items()))
        diag.et_led = table.leader.count(0)
        diag.ft_led = len(table) - diag.et_led
        return cls(
            method=method,
            table=table,
            profit=profit,
            loss=loss,
            utility=profit - loss,
            diagnostics=diag,
        )

    @classmethod
    def from_platoons(cls, method: str, platoons: Sequence[PlatoonAssignment],
                      diagnostics: Optional[Diagnostics] = None) -> "Solution":
        """Assemble a solution from platoon records in any order."""
        return cls.from_table(method, PlatoonTable.from_records(platoons), diagnostics)
