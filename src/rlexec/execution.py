"""Market-order execution against visible depth.

Child orders walk the book level by level under a participation cap; residual
volume rolls into the next period and a cap-free terminal order guarantees
complete liquidation. One level loop walks a whole block of orders, against
one book or a stack of books, and walk_book is its validated scalar view, so
the training sweep and the calibration probes walk each block at once and
still fill every order exactly as walk_book would. An optional per-period
multiplier beta re-sizes each non-final child order; beta = 1 everywhere
replays the trade list fill for fill. Scoring is Perold-style implementation
shortfall against the arrival price, in signed basis points (negative = cost
for a buy).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .market_data import IntervalBar, Side


class LiquidationError(RuntimeError):
    """The run could not execute its full volume (terminal book too thin)."""


@dataclass(frozen=True)
class Fill:
    requested: float
    executed: float
    vwap: float
    residual: float
    levels_consumed: int


@dataclass
class ISRecord:
    """Per-run implementation shortfall with its fill breakdown."""

    reference_price: float
    total_volume: int
    fills: list[tuple[int, Fill]]
    shortfall_bps: float

    @property
    def executed_total(self) -> float:
        return math.fsum(fill.executed for _, fill in self.fills)


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


def implementation_shortfall(
    reference: float, fills: list[tuple[int, Fill]], total: float
) -> float:
    """(V * S_ref - sum executed * vwap) / (V * S_ref) in basis points.

    The sign convention is fixed to the buy side: paying above the reference
    comes out negative. Mirroring the book and flipping the side negates it.
    """
    if reference <= 0:
        raise ValueError("reference price must be positive")
    if total <= 0:
        raise ValueError("total volume must be positive")
    cost = math.fsum(fill.executed * fill.vwap for _, fill in fills)
    target = total * reference
    return (target - cost) / target * 1e4


def _schedule_total(schedule: np.ndarray, periods: int) -> int:
    """Shares a trade list plans over `periods`; raises on a list no run can execute."""
    if len(schedule) != periods:
        raise ValueError("schedule length must match the number of periods")
    if periods == 0:
        raise ValueError("no periods")
    if np.any(schedule < 0):
        raise ValueError("negative scheduled volume")
    total = int(schedule.sum())
    if total <= 0:
        raise ValueError("empty schedule")
    return total


def execute_schedule(
    bars: list[IntervalBar],
    schedule: np.ndarray,
    cap: float,
    side: Side = Side.BUY,
    reference: float | None = None,
    beta: Callable[[int, IntervalBar, float], float] | None = None,
) -> ISRecord:
    """Execute a per-period share schedule against per-period books.

    Each period walks its bar for the scheduled volume plus any carried
    residual, capped at `cap` of visible depth; the final period lifts the cap
    (terminal market order). If the final book cannot absorb what remains the
    run has failed its liquidation guarantee and raises LiquidationError.

    With `beta(remaining_periods, bar, remaining_shares)`, each non-final
    child is beta times the list's remaining weight for the period applied to
    the inventory still planned, and the final period plans all of that
    inventory. Carried residual is re-requested, not re-scaled, so beta = 1
    everywhere replays the list fill for fill.
    """
    schedule = np.asarray(schedule)
    total = _schedule_total(schedule, len(bars))
    ref = bars[0].mid if reference is None else float(reference)
    last = len(bars)
    suffix = np.cumsum(schedule[::-1])[::-1]  # shares still planned from each period on
    planned_remaining = total  # inventory net of carried residual
    remaining = total  # inventory not yet executed
    carry = 0.0
    fills: list[tuple[int, Fill]] = []
    for period, (bar, planned) in enumerate(zip(bars, schedule), start=1):
        if beta is not None:
            if period == last:
                planned = planned_remaining
            else:
                weight = planned / suffix[period - 1] if suffix[period - 1] > 0 else 0.0
                b = beta(last - period + 1, bar, remaining)
                planned = min(max(int(round(b * (planned_remaining * weight))), 0), planned_remaining)
            planned_remaining -= planned
        request = float(planned) + carry
        prices, volumes = bar.levels(side)
        fill = walk_book(prices, volumes, request, cap=1.0 if period == last else cap)
        carry = fill.residual
        remaining -= fill.executed
        fills.append((period, fill))
    if carry > 0.0:
        raise LiquidationError(f"{carry:g} shares unexecuted after the terminal order")
    return ISRecord(
        reference_price=ref,
        total_volume=total,
        fills=fills,
        shortfall_bps=implementation_shortfall(ref, fills, total),
    )
