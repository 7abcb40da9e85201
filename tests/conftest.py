"""Shared builders: the two worked-example books and quick depth-row, frame and bar factories."""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from rlexec.market_data import ASK_PRICES, ASK_VOLUMES, BID_PRICES, N_LEVELS, Bars, BookFrame, Side

# Five-level ask books from the worked reward example: walking 10000 shares
# through BOOK_A gives VWAP 100.89 (displayed 100.9 at source precision) and
# through BOOK_B gives 100.12; at reference 99.5 the two-period schedule
# [10000, 10000] runs -101 bps.
BOOK_A = (
    np.array([100.00, 100.50, 102.30, 103.00, 105.50]),
    np.array([3000.0, 4000.0, 5000.0, 6000.0, 2000.0]),
)
BOOK_B = (
    np.array([99.80, 99.90, 101.30, 107.00, 108.50]),
    np.array([6000.0, 2000.0, 7000.0, 3000.0, 1000.0]),
)
PAPER_REFERENCE = 99.5

T0 = datetime(2024, 3, 4, 10, 0, tzinfo=timezone.utc)


def make_row(
    mid: float = 100.0,
    spread: float = 0.10,
    level_volume: float = 5000.0,
    step: float = 0.05,
    ask_levels: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The depth row, in DEPTH_CSV_COLUMNS order, of an evenly stepped book,
    with `ask_levels` (prices, volumes) in place of its ask side if given."""
    offsets = step * np.arange(5)
    row = np.full(4 * N_LEVELS, float(level_volume))
    row[BID_PRICES] = mid - spread / 2 - offsets
    row[ASK_PRICES] = mid + spread / 2 + offsets
    if ask_levels is not None:
        row[ASK_PRICES], row[ASK_VOLUMES] = ask_levels
    return row


def make_frame(stamps: list[datetime], rows: list[np.ndarray]) -> BookFrame:
    return BookFrame(timestamps=list(stamps), values=np.array(rows, dtype=float).reshape(len(stamps), 4 * N_LEVELS))


def make_bars(rows: list[np.ndarray], start: datetime = T0, tau: float = 300.0, side: Side = Side.BUY) -> Bars:
    """Consecutive tau-second bars for an order on `side` from `start`, one
    per depth row, each of one snapshot."""
    n = len(rows)
    return Bars(
        tau=tau,
        side=side,
        start=start.timestamp() + tau * np.arange(n),
        utc_offset=np.full(n, start.utcoffset().total_seconds()),
        n_snapshots=np.ones(n, dtype=np.int64),
        row=np.array(rows, dtype=float).reshape(n, 4 * N_LEVELS),
    )


def make_bar_sequence(n: int, start: datetime = T0, tau: float = 300.0, side: Side = Side.BUY, **kwargs) -> Bars:
    return make_bars([make_row(**kwargs)] * n, start, tau, side)


def make_bar(start: datetime = T0, **kwargs) -> Bars:
    """One bar: the bars at one index."""
    return make_bar_sequence(1, start, **kwargs)[0]


@pytest.fixture
def paper_bars() -> Bars:
    """Two periods whose ask sides are the worked-example books."""
    return make_bars([make_row(ask_levels=BOOK_A), make_row(mid=99.75, ask_levels=BOOK_B)])
