"""Whole-horizon Phase-1 planning: one pass of draws, columnar results.

The horizon population path (:meth:`SimulationEngine.generate_population`,
and its scalar oracle) splits Phase 1 into two passes:

* **draws** -- a single flat sweep over the horizon that performs every
  RNG draw (registration counts, creation times, profiles, screening,
  materialization, detection, dormancy) in the canonical order,
  recording the per-account outcomes into the columnar arrays held
  here;
* **build** -- a draw-free pass that trims each materialized account to
  its recorded activity end and assembles the account summaries.

The :class:`PopulationPlan` is the durable product of the draws pass:
whole-horizon arrays (registration days, creation times, activity ends
/ lifetimes, churn events) that downstream consumers slice per day
instead of re-looping -- ``registration_day`` is nondecreasing by
construction, so :meth:`PopulationPlan.day_slice` is a pair of
``searchsorted`` lookups, and the per-day aggregates are ``bincount``
reductions.

Nothing in this module touches the named RNG streams: the plan records
draw *results*; the engine owns the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PopulationPlan", "PlanRecorder"]


@dataclass(frozen=True)
class PopulationPlan:
    """Columnar whole-horizon record of the Phase-1 draws pass.

    All arrays are parallel over accounts in generation order (the
    order ``adv_row`` indexes); ``registration_day`` is nondecreasing.
    """

    #: Horizon length in days.
    days: int
    #: Integer day each account registered on (nondecreasing).
    registration_day: np.ndarray
    #: Exact creation time (``registration_day + U[0,1)`` draw).
    created_time: np.ndarray
    #: Study-level end of activity: shutdown time, dormancy onset, or
    #: the horizon end -- the value account summaries report.
    activity_end: np.ndarray
    #: Fraud-profile flag per account.
    is_fraud: np.ndarray
    #: True where the account materialized ads and bids (posted its first
    #: ad inside the study and survived registration screening).
    materialized: np.ndarray
    #: Detection shutdown time, ``nan`` where never shut down.
    shutdown_time: np.ndarray

    def __len__(self) -> int:
        return len(self.registration_day)

    @property
    def lifetime(self) -> np.ndarray:
        """Observed activity span per account (``activity_end - created``)."""
        return self.activity_end - self.created_time

    def day_slice(self, day: int) -> slice:
        """Index slice of accounts registered on ``day`` (O(log n))."""
        lo = int(np.searchsorted(self.registration_day, day, side="left"))
        hi = int(np.searchsorted(self.registration_day, day, side="right"))
        return slice(lo, hi)

    def registrations_per_day(self) -> np.ndarray:
        """Accounts registered per day, length ``days``."""
        return np.bincount(self.registration_day, minlength=self.days)

    def churn_per_day(self) -> np.ndarray:
        """Churn events (shutdown or dormancy onset) bucketed by day.

        An account churns within the study when its activity ends
        before the horizon does; the event day is
        ``int(activity_end)``.  Accounts active through the study end
        contribute nothing.
        """
        ended = self.activity_end < float(self.days)
        days = self.activity_end[ended].astype(np.int64)
        return np.bincount(
            np.clip(days, 0, self.days - 1), minlength=self.days
        )

    def shutdowns_per_day(self) -> np.ndarray:
        """Detection shutdowns bucketed by ``int(shutdown_time)``."""
        shut = ~np.isnan(self.shutdown_time)
        inside = shut & (self.shutdown_time < float(self.days))
        days = self.shutdown_time[inside].astype(np.int64)
        return np.bincount(
            np.clip(days, 0, self.days - 1), minlength=self.days
        )


class PlanRecorder:
    """Accumulates per-account outcomes during the draws pass."""

    def __init__(self, days: int) -> None:
        self.days = days
        self._registration_day: list[int] = []
        self._created_time: list[float] = []
        self._activity_end: list[float] = []
        self._is_fraud: list[bool] = []
        self._materialized: list[bool] = []
        self._shutdown_time: list[float] = []

    def record(
        self,
        day: int,
        created_time: float,
        activity_end: float,
        is_fraud: bool,
        materialized: bool,
        shutdown_time: float | None,
    ) -> None:
        self._registration_day.append(day)
        self._created_time.append(created_time)
        self._activity_end.append(activity_end)
        self._is_fraud.append(is_fraud)
        self._materialized.append(materialized)
        self._shutdown_time.append(
            float("nan") if shutdown_time is None else float(shutdown_time)
        )

    def __len__(self) -> int:
        return len(self._registration_day)

    def build(self) -> PopulationPlan:
        return PopulationPlan(
            days=self.days,
            registration_day=np.asarray(self._registration_day, dtype=np.int64),
            created_time=np.asarray(self._created_time, dtype=np.float64),
            activity_end=np.asarray(self._activity_end, dtype=np.float64),
            is_fraud=np.asarray(self._is_fraud, dtype=np.bool_),
            materialized=np.asarray(self._materialized, dtype=np.bool_),
            shutdown_time=np.asarray(self._shutdown_time, dtype=np.float64),
        )
