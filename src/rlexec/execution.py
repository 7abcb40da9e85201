"""Market-order execution against visible depth.

Child orders walk the book level by level under a participation cap; residual
volume rolls into the next period and a cap-free terminal order liquidates
what is left, or reports how much the book could not absorb. One level loop,
_walk_books, walks a whole block of orders against one book or a stack of
books; walk_book is its validated scalar view. execute_schedule is the one
run engine: it walks period j of every day in a (days, periods) stack of bars
as one block, so the static trade list and the Q-modulated one are the same
call, the first at beta = 1 everywhere and the second at the beta a (T, I, B,
W) policy table gives each day's state. Scoring is Perold-style
implementation shortfall against the arrival price, in signed basis points
(negative = cost for a buy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .market_data import Bars, Side


@dataclass(frozen=True)
class Fill:
    """One order's fill, as walk_book returns it."""

    requested: float
    executed: float
    vwap: float
    residual: float
    levels_consumed: int


@dataclass
class ISRecord:
    """One run's implementation shortfall with its per-period fills: shares
    executed and their vwap (0 where none), and the shares the terminal order
    left unexecuted (0 when the run liquidated)."""

    reference_price: float
    total_volume: int
    executed: np.ndarray
    vwap: np.ndarray
    shortfall_bps: float
    unexecuted: float

    @property
    def executed_total(self) -> float:
        return math.fsum(self.executed.tolist())


class _Walk(NamedTuple):
    executed: np.ndarray
    vwap: np.ndarray
    residual: np.ndarray
    levels: np.ndarray


def _walk_books(prices, volumes, requests, cap: float = 1.0) -> _Walk:
    """Walk a block of market orders, levels on the last axis of the books.

    `prices` and `volumes` hold one book, shape (L,), or a stack, shape
    (..., L); `requests` broadcasts against the stack's leading axes. Each
    request is filled by the scalar rule of walk_book, with the same per-level
    min / take > 0 arithmetic in the same order, so every element is bit for
    bit the scalar walk of its book. (Cumulative depth plus searchsorted would
    sum the value in another order.)

    The name is private so that a call tracer wrapping the module's public
    functions sees one span per walk_book call, not a second one inside it.
    """
    requests = np.asarray(requests, dtype=float)
    if not np.isfinite(requests).all():
        raise ValueError("non-finite volume")
    if (requests < 0).any():
        raise ValueError("negative volume")
    if not 0.0 < cap <= 1.0:
        raise ValueError("cap must be in (0, 1]")
    prices = np.asarray(prices, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    depth = np.floor(cap * volumes.sum(axis=-1))
    executable = np.where(depth < requests, depth, requests)  # min(request, depth)
    remaining = executable
    value = np.zeros(executable.shape)
    levels = np.zeros(executable.shape, dtype=np.int64)
    for k in range(prices.shape[-1]):
        if not remaining.any():  # remaining never drops below zero
            break
        take = np.fmin(remaining, volumes[..., k])  # min(remaining, avail), NaN depth included
        hit = take > 0.0
        value = np.where(hit, value + take * prices[..., k], value)
        remaining = remaining - np.where(hit, take, 0.0)
        levels += hit
    remaining = np.where((remaining > 0.0) & (remaining < 1e-9), 0.0, remaining)  # dust from fractional averaged depth
    executed = executable - remaining
    vwap = np.divide(value, executed, out=np.zeros(executed.shape), where=executed > 0.0)
    return _Walk(executed, vwap, requests - executed, levels)


def walk_book(prices: np.ndarray, volumes: np.ndarray, volume: float, cap: float = 1.0) -> Fill:
    """Fill a market order by consuming levels in price order.

    Executable volume is min(volume, floor(cap * total visible depth)) in
    whole shares; whatever the cap or depth withholds comes back as residual,
    never as an exception. A negative or non-finite volume is a ValueError.
    """
    walk = _walk_books(prices, volumes, volume, cap)
    return Fill(
        requested=float(volume),
        executed=float(walk.executed),
        vwap=float(walk.vwap),
        residual=float(walk.residual),
        levels_consumed=int(walk.levels),
    )


def implementation_shortfall(reference: float, executed, vwap, total: float) -> float:
    """(V * S_ref - sum executed * vwap) / (V * S_ref) in basis points, over
    one run's per-period fills.

    The sign convention is fixed to the buy side: paying above the reference
    comes out negative. Mirroring the book and flipping the side negates it.
    """
    if reference <= 0:
        raise ValueError("reference price must be positive")
    if total <= 0:
        raise ValueError("total volume must be positive")
    cost = math.fsum((np.asarray(executed, dtype=float) * np.asarray(vwap, dtype=float)).tolist())
    target = total * reference
    return (target - cost) / target * 1e4


def _child_volume(beta, inventory, planned, still_planned):
    """beta x the list's remaining weight (planned / still_planned) x the
    planned inventory, rounded half to even, clipped to [0, inventory];
    elementwise. At beta = 1 on the list's own inventory it gives `planned`."""
    weight = planned / still_planned if still_planned > 0 else 0.0
    return np.minimum(np.maximum(np.rint(beta * (inventory * weight)), 0.0), inventory)


def _inventory_bucket(remaining, total: int, buckets: int) -> np.ndarray:
    """ceil(remaining / total * buckets) in integer arithmetic, elementwise,
    after rounding to whole shares (half to even); zero shares map to bucket
    1 by convention. Shares past `total` are clipped to it (they take the top
    bucket either way), so the largest intermediate is total * (buckets + 1) - 1."""
    if total * (buckets + 1) > 2**63:
        raise ValueError(f"{total} shares in {buckets} inventory buckets overflow int64 bucket arithmetic")
    shares = np.minimum(np.rint(remaining).astype(np.int64), total)
    return np.where(shares <= 0, 1, np.minimum(buckets, (shares * buckets + total - 1) // total))


def execute_schedule(
    windows: Bars,
    schedule: np.ndarray,
    cap: float,
    side: Side = Side.BUY,
    reference: np.ndarray | None = None,
    policy: np.ndarray | None = None,
    buckets: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[ISRecord]:
    """Execute a per-period share schedule on every window of `windows`, the
    bars indexed (days, periods) as day_windows gives them: one record per day.

    Period j of every day is one block: each day walks its bar for the
    scheduled volume plus any carried residual, capped at `cap` of visible
    depth. The final period lifts the cap (terminal market order); what its
    book cannot absorb is the record's `unexecuted`. `reference` holds each
    day's arrival price, by default its first bar's mid.

    Each non-final child is sized by _child_volume at beta 1 without a
    policy, else at the entry of `policy`, a (T, I, B, W) table of betas, for
    the day's state: the remaining periods, the inventory bucket of the
    shares not yet executed, and the bar's spread and volume buckets from
    `buckets`, the two (days, periods) arrays state_buckets gives. The final
    period plans all the inventory still planned. Carried residual is
    re-requested, not re-scaled, so beta = 1 everywhere replays the list
    fill for fill.
    """
    schedule = np.asarray(schedule)
    days, periods = windows.start.shape
    if len(schedule) != periods:
        raise ValueError("schedule length must match the number of periods")
    if periods == 0:
        raise ValueError("no periods")
    if np.any(schedule < 0):
        raise ValueError("negative scheduled volume")
    total = int(schedule.sum())
    if total <= 0:
        raise ValueError("empty schedule")
    refs = windows.mid[:, 0] if reference is None else np.asarray(reference, dtype=float)
    suffix = np.cumsum(schedule[::-1])[::-1]  # shares still planned from each period on
    prices, volumes = windows.levels(side)
    planned_remaining = np.full(days, total)  # inventory net of carried residual
    remaining = np.full(days, float(total))  # inventory not yet executed
    carry = np.zeros(days)
    executed, vwap = np.zeros((2, days, periods))
    for j in range(periods):
        if j == periods - 1:
            planned = planned_remaining
        else:
            beta = 1.0
            if policy is not None:
                inventory = _inventory_bucket(remaining, total, policy.shape[1])
                beta = policy[periods - 1 - j, inventory - 1, buckets[0][:, j] - 1, buckets[1][:, j] - 1]
            planned = _child_volume(beta, planned_remaining, schedule[j], suffix[j]).astype(np.int64)
        planned_remaining = planned_remaining - planned
        walk = _walk_books(prices[:, j], volumes[:, j], planned + carry, cap=1.0 if j == periods - 1 else cap)
        carry = walk.residual
        remaining = remaining - walk.executed
        executed[:, j], vwap[:, j] = walk.executed, walk.vwap
    return [
        ISRecord(ref, total, executed[d], vwap[d], implementation_shortfall(ref, executed[d], vwap[d], total), left)
        for d, (ref, left) in enumerate(zip(refs.tolist(), carry.tolist()))
    ]
