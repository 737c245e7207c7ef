"""Output checks run on every benchmark result, and the operation tally.

Every workload step and every check is one *operation*.  A check that
finds a problem, a step that raises, and a worker process that dies are
all counted as failed operations; the run is correct only when none
failed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = [
    "Ops",
    "agreement",
    "check_detections",
    "check_impressions",
    "check_summaries",
    "result_digest",
]


class Ops:
    """Attempted/failed tally with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, problems: list[str] | None = None) -> bool:
        """Count one operation; failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: {'; '.join(problems[:3])}")
            return False
        return True

    def merge(self, payload: dict) -> None:
        self.attempted += int(payload["attempted"])
        self.failed += int(payload["failed"])
        self.failures.extend(payload["failures"])

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
        }


def agreement(digests: list[str]) -> list[str]:
    """Problems when the repetitions of one config disagree on the digest."""
    distinct = sorted(set(digests))
    if len(distinct) <= 1:
        return []
    return [f"{len(distinct)} different digests: "
            + ", ".join(d[:12] for d in distinct)]


def _bad(mask: np.ndarray, what: str) -> list[str]:
    count = int(np.count_nonzero(mask))
    return [f"{count} rows {what}"] if count else []


def check_impressions(table, auction_config, days: int) -> list[str]:
    """Row invariants of an impression table."""
    if len(table) == 0:
        return ["impression table is empty"]
    problems: list[str] = []
    position = table.position.astype(np.int64)
    n_shown = table.n_shown.astype(np.int64)
    n_fraud = table.n_fraud_shown.astype(np.int64)
    problems += _bad(table.spend != table.clicks * table.price,
                     "with spend != clicks * price")
    problems += _bad(position < 1, "with position < 1")
    problems += _bad(position > n_shown, "with position > n_shown")
    problems += _bad(n_shown > auction_config.total_slots,
                     "with n_shown above the slot count")
    problems += _bad(
        table.mainline & (position > auction_config.mainline_slots),
        "in the mainline below its last slot",
    )
    problems += _bad(n_fraud < 0, "with n_fraud_shown < 0")
    problems += _bad(n_fraud > n_shown, "with n_fraud_shown > n_shown")
    problems += _bad(table.fraud_labeled & (n_fraud < 1),
                     "fraud-labeled in an auction with no fraud shown")
    problems += _bad((table.clicks < 0) | (table.clicks != np.floor(table.clicks)),
                     "with a negative or fractional click count")
    problems += _bad(table.price < 0, "with a negative price")
    problems += _bad(table.weight <= 0, "with a non-positive query weight")
    problems += _bad((table.day < 0) | (table.day >= days), "outside the horizon")
    problems += _bad((table.match_type < 0) | (table.match_type > 2),
                     "with an unknown match type")
    return problems


def check_summaries(result) -> list[str]:
    """Account-summary invariants."""
    accounts = result.accounts
    if not accounts:
        return ["no accounts"]
    days = float(result.config.days)
    problems: list[str] = []
    ids = np.array([a.advertiser_id for a in accounts])
    if np.any(np.diff(ids) <= 0):
        problems.append("advertiser ids are not strictly increasing")
    for row, account in enumerate(accounts):
        where = f"account {account.advertiser_id}"
        if account.adv_row != row:
            problems.append(f"{where}: adv_row {account.adv_row} != {row}")
        if not 0.0 <= account.created_time < days:
            problems.append(f"{where}: created outside the horizon")
        if not account.created_time <= account.activity_end <= days:
            problems.append(f"{where}: activity_end outside [created, days]")
        if account.shutdown_time is not None and not (
            account.created_time <= account.shutdown_time < days
        ):
            problems.append(f"{where}: shutdown outside [created, days)")
        if account.labeled_fraud and account.shutdown_time is None:
            problems.append(f"{where}: labeled fraud but never shut down")
        if account.n_ads < 0 or account.n_keywords < 0:
            problems.append(f"{where}: negative entity count")
        if len(problems) >= 5:
            break
    known = set(ids.tolist())
    unknown = np.setdiff1d(np.unique(result.impressions.advertiser_id), ids)
    if unknown.size:
        problems.append(f"{unknown.size} impression advertisers have no account")
    if len(known) != len(accounts):
        problems.append("duplicate advertiser ids")
    return problems


def check_detections(result) -> list[str]:
    """Detection records agree one-to-one with account shutdowns."""
    problems: list[str] = []
    by_id = {a.advertiser_id: a for a in result.accounts}
    seen: set[int] = set()
    for record in result.detections:
        account = by_id.get(record.advertiser_id)
        if account is None:
            problems.append(f"detection for unknown account {record.advertiser_id}")
            continue
        if record.advertiser_id in seen:
            problems.append(f"account {record.advertiser_id} detected twice")
        seen.add(record.advertiser_id)
        if account.shutdown_time != record.time:
            problems.append(
                f"account {record.advertiser_id}: detection time "
                f"{record.time} != shutdown {account.shutdown_time}"
            )
        if record.labeled_fraud != account.labeled_fraud:
            problems.append(f"account {record.advertiser_id}: label mismatch")
        if len(problems) >= 5:
            return problems
    shut = sum(1 for a in result.accounts if a.shutdown_time is not None)
    if shut != len(result.detections):
        problems.append(f"{shut} shutdowns but {len(result.detections)} detections")
    return problems


def _hash_array(digest, name: str, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values)
    digest.update(f"{name}:{values.dtype.str}:{values.shape}".encode())
    digest.update(memoryview(values).cast("B"))


def result_digest(result, rng_states: dict) -> str:
    """sha256 over the result columns plus the five RNG stream states."""
    digest = hashlib.sha256()
    for name, values in result.impressions.to_columns().items():
        _hash_array(digest, f"impressions.{name}", values)
    accounts = result.accounts
    nan = math.nan
    _hash_array(digest, "accounts.advertiser_id",
                np.array([a.advertiser_id for a in accounts], dtype=np.int64))
    _hash_array(digest, "accounts.labeled_fraud",
                np.array([a.labeled_fraud for a in accounts], dtype=bool))
    for field in ("created_time", "shutdown_time", "activity_end"):
        column = [getattr(a, field) for a in accounts]
        _hash_array(digest, f"accounts.{field}", np.array(
            [nan if v is None else v for v in column], dtype=np.float64))
    detections = [
        [d.advertiser_id, d.time, d.stage, d.labeled_fraud]
        for d in result.detections
    ]
    digest.update(json.dumps(detections).encode())
    digest.update(json.dumps(rng_states, sort_keys=True).encode())
    return digest.hexdigest()
