"""Order book market data: depth-CSV ingestion, interval bars, synthetic books.

Raw 5-level depth snapshots are held as one `BookFrame`: a timestamp list and
one (rows, 20) float array in the depth CSV's column order. Ingestion parses
the CSV into that array, validates every row with one vectorized check and
tallies rejects per reason; aggregation averages the rows into fixed-length
interval bars (mean level prices and volumes) with one grouped sum. The bars
are the time grid for everything downstream: hour-conditioned spread/volume
percentile distributions for state encoding, calibration inputs, and the
execution substrate for book walks.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from pathlib import Path

import numpy as np

N_LEVELS = 5

#: Canonical depth CSV schema: timestamp, five bid (price, volume) pairs from
#: the best bid down, five ask (price, volume) pairs from the best ask up.
DEPTH_CSV_COLUMNS = (
    "ts",
    *(f"{name}{lvl}" for lvl in range(1, N_LEVELS + 1) for name in ("bp", "bv")),
    *(f"{name}{lvl}" for lvl in range(1, N_LEVELS + 1) for name in ("ap", "av")),
)
#: Column slices of one depth row (the CSV columns after ``ts``).
BID_PRICES = slice(0, 2 * N_LEVELS, 2)
BID_VOLUMES = slice(1, 2 * N_LEVELS, 2)
ASK_PRICES = slice(2 * N_LEVELS, 4 * N_LEVELS, 2)
ASK_VOLUMES = slice(2 * N_LEVELS + 1, 4 * N_LEVELS, 2)

#: Book invariants in precedence order: a row failing several is reported
#: under the first.
BOOK_CHECKS = (
    "negative volume",
    "non-positive price",
    "bid prices not strictly descending",
    "ask prices not strictly ascending",
    "crossed book",
)


def first_book_failure(values: np.ndarray) -> np.ndarray:
    """Index into BOOK_CHECKS of each depth row's first failing check, -1
    where the row passes them all. A NaN fails the order and crossing checks
    (its comparisons are false) but not the sign checks."""
    bid_p, bid_v = values[:, BID_PRICES], values[:, BID_VOLUMES]
    ask_p, ask_v = values[:, ASK_PRICES], values[:, ASK_VOLUMES]
    failed = np.column_stack(
        (
            (bid_v < 0).any(axis=1) | (ask_v < 0).any(axis=1),
            (bid_p <= 0).any(axis=1) | (ask_p <= 0).any(axis=1),
            ~(np.diff(bid_p, axis=1) < 0).all(axis=1),
            ~(np.diff(ask_p, axis=1) > 0).all(axis=1),
            ~(ask_p[:, 0] > bid_p[:, 0]),
        )
    )
    return np.where(failed.any(axis=1), failed.argmax(axis=1), -1)


class Side(Enum):
    BUY = "buy"
    SELL = "sell"


@dataclass
class BookSnapshot:
    """One timestamped 5-level depth observation, best level first per side."""

    timestamp: datetime
    bid_prices: np.ndarray
    bid_volumes: np.ndarray
    ask_prices: np.ndarray
    ask_volumes: np.ndarray

    def __post_init__(self) -> None:
        if self.timestamp.tzinfo is None:
            raise ValueError("naive timestamp")
        self.bid_prices = np.asarray(self.bid_prices, dtype=float)
        self.bid_volumes = np.asarray(self.bid_volumes, dtype=float)
        self.ask_prices = np.asarray(self.ask_prices, dtype=float)
        self.ask_volumes = np.asarray(self.ask_volumes, dtype=float)
        for name in ("bid_prices", "bid_volumes", "ask_prices", "ask_volumes"):
            if getattr(self, name).shape != (N_LEVELS,):
                raise ValueError(f"{name} must hold exactly {N_LEVELS} levels")
        failure = first_book_failure(self.row()[np.newaxis])[0]
        if failure >= 0:
            raise ValueError(BOOK_CHECKS[failure])

    def row(self) -> np.ndarray:
        """The snapshot's levels as one depth row."""
        row = np.empty(4 * N_LEVELS)
        row[BID_PRICES], row[BID_VOLUMES] = self.bid_prices, self.bid_volumes
        row[ASK_PRICES], row[ASK_VOLUMES] = self.ask_prices, self.ask_volumes
        return row

    @property
    def mid(self) -> float:
        return 0.5 * (self.ask_prices[0] + self.bid_prices[0])

    def levels(self, side: Side) -> tuple[np.ndarray, np.ndarray]:
        """Price/volume levels of the side a `side` order consumes, in order."""
        if side is Side.BUY:
            return self.ask_prices, self.ask_volumes
        return self.bid_prices, self.bid_volumes


@dataclass
class BookFrame:
    """The snapshot store as columns: one timestamp per row and a (rows, 20)
    float array of depth rows in DEPTH_CSV_COLUMNS order (``ts`` excluded).

    Every row passes BOOK_CHECKS. Indexing a frame gives the row as a
    `BookSnapshot` viewing the array.
    """

    timestamps: list[datetime]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.timestamps), 4 * N_LEVELS):
            raise ValueError(f"values must be ({len(self.timestamps)}, {4 * N_LEVELS}), got {self.values.shape}")
        failure = first_book_failure(self.values)
        bad = np.flatnonzero(failure >= 0)
        if len(bad):
            raise ValueError(f"row {bad[0]}: {BOOK_CHECKS[failure[bad[0]]]}")

    @classmethod
    def from_snapshots(cls, snapshots: Sequence[BookSnapshot]) -> "BookFrame":
        values = np.empty((len(snapshots), 4 * N_LEVELS))
        for k, snap in enumerate(snapshots):
            values[k] = snap.row()
        return cls(timestamps=[snap.timestamp for snap in snapshots], values=values)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, k: int) -> BookSnapshot:
        row = self.values[k]
        return BookSnapshot(
            timestamp=self.timestamps[k],
            bid_prices=row[BID_PRICES],
            bid_volumes=row[BID_VOLUMES],
            ask_prices=row[ASK_PRICES],
            ask_volumes=row[ASK_VOLUMES],
        )

    def __iter__(self) -> Iterator[BookSnapshot]:
        return (self[k] for k in range(len(self)))


@dataclass
class IntervalBar:
    """A tau-length aggregate of snapshots: per-level mean prices and volumes."""

    start: datetime
    duration: float
    avg_bid_prices: np.ndarray
    avg_bid_volumes: np.ndarray
    avg_ask_prices: np.ndarray
    avg_ask_volumes: np.ndarray
    spread: float
    quote_volume: float
    hour: int
    n_snapshots: int

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("non-positive duration")
        if self.spread <= 0:
            raise ValueError("non-positive spread")
        if not 0 <= self.hour <= 23:
            raise ValueError("hour outside 0..23")

    @property
    def mid(self) -> float:
        return 0.5 * (self.avg_ask_prices[0] + self.avg_bid_prices[0])

    def levels(self, side: Side) -> tuple[np.ndarray, np.ndarray]:
        if side is Side.BUY:
            return self.avg_ask_prices, self.avg_ask_volumes
        return self.avg_bid_prices, self.avg_bid_volumes


@dataclass
class HistoricalDistribution:
    """Sorted spread/volume samples for one trading hour of the training set."""

    hour: int
    spread_samples: np.ndarray
    volume_samples: np.ndarray

    def __post_init__(self) -> None:
        self.spread_samples = np.sort(np.asarray(self.spread_samples, dtype=float))
        self.volume_samples = np.sort(np.asarray(self.volume_samples, dtype=float))

    def samples(self, field_name: str) -> np.ndarray:
        if field_name == "spread":
            return self.spread_samples
        if field_name == "volume":
            return self.volume_samples
        raise ValueError(f"unknown field {field_name!r}")


def bucket_of(dist: HistoricalDistribution, field_name: str, value: float, buckets: int) -> int:
    """Percentile bucket ceil(p * buckets) in 1..buckets, computed exactly.

    p is the inclusive empirical percentile (count <= value) / n, clamped
    below at 1/n so the map onto 1..buckets is total. Uses integer arithmetic
    on the sample count so bucket boundaries never shift by a float rounding
    of the percentile.
    """
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    samples = dist.samples(field_name)
    n = len(samples)
    if n == 0:
        raise ValueError(f"empty {field_name} distribution for hour {dist.hour}")
    count = max(int(np.searchsorted(samples, value, side="right")), 1)
    return (count * buckets + n - 1) // n


@dataclass
class DataSplit:
    """Chronological train/test partition of interval bars."""

    training: list[IntervalBar]
    testing: list[IntervalBar]

    def __post_init__(self) -> None:
        if self.training and self.testing:
            if max(b.start for b in self.training) >= min(b.start for b in self.testing):
                raise ValueError("training bars must strictly pre-date testing bars")

    @classmethod
    def at_boundary(cls, bars: list[IntervalBar], boundary: datetime) -> "DataSplit":
        """Bars starting before `boundary` train; the rest test."""
        training = [b for b in bars if b.start < boundary]
        testing = [b for b in bars if b.start >= boundary]
        return cls(training=training, testing=testing)


@dataclass
class IngestResult:
    snapshots: BookFrame
    rejected_rows: int
    row_errors: Counter


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        raise ValueError("naive timestamp")
    return ts


def ingest_csv(path: str | Path) -> IngestResult:
    """Read a DEPTH_CSV_COLUMNS file into validated snapshots sorted by timestamp.

    Rows that fail parsing or book invariants are skipped and tallied per
    reason in ``row_errors``, under the first failing of: column count,
    parsing (a naive timestamp or a non-finite cell is an unparseable row),
    then BOOK_CHECKS in order. A file with a bad header or zero valid rows is
    an error.
    """
    path = Path(path)
    stamps: list[datetime] = []
    flat = array("d")  # the parsed rows' depth cells, row after row
    errors: Counter = Counter()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, no header") from None
        if header != list(DEPTH_CSV_COLUMNS):
            raise ValueError(f"{path}: malformed header {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(DEPTH_CSV_COLUMNS):
                errors["wrong column count"] += 1
                continue
            mark = len(flat)
            try:
                ts = _parse_timestamp(row[0])
                flat.extend(map(float, row[1:]))
            except ValueError:
                del flat[mark:]
                errors["unparseable row"] += 1
                continue
            stamps.append(ts)
    values = np.frombuffer(flat, dtype=float).reshape(len(stamps), 4 * N_LEVELS)
    finite = np.isfinite(values).all(axis=1)
    # a row with a non-finite cell is unparseable, whatever its book checks say
    reasons = (*BOOK_CHECKS, "unparseable row")
    failure = np.full(len(stamps), len(BOOK_CHECKS))
    failure[finite] = first_book_failure(values[finite])
    for code, count in zip(*np.unique(failure[failure >= 0], return_counts=True)):
        errors[reasons[code]] += int(count)
    kept = sorted(np.flatnonzero(failure < 0).tolist(), key=stamps.__getitem__)
    if not kept:
        raise ValueError(f"{path}: no valid rows")
    frame = BookFrame(timestamps=[stamps[k] for k in kept], values=values[kept])
    return IngestResult(snapshots=frame, rejected_rows=sum(errors.values()), row_errors=errors)


#: Rows formatted per block by write_snapshots_csv; bounds its Python objects.
_WRITE_BLOCK = 1024


def write_snapshots_csv(path: str | Path, snapshots: BookFrame) -> None:
    """Write snapshots in the canonical depth CSV schema (finite integral
    values as integers, other values in shortest round-trip form).

    Lines are comma-separated and CRLF-terminated, as csv.writer's default
    dialect writes them; no cell (ISO timestamps, numbers) needs quoting.
    """
    values = snapshots.values
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(DEPTH_CSV_COLUMNS) + "\r\n")
        for start in range(0, len(snapshots), _WRITE_BLOCK):
            block = values[start : start + _WRITE_BLOCK]
            cells = block.astype(object)  # Python floats, whose str is their repr
            integral = np.isfinite(block) & (block == np.trunc(block))
            cells[integral] = [int(x) for x in block[integral]]
            stamps = snapshots.timestamps[start : start + _WRITE_BLOCK]
            fh.writelines(
                f"{ts.isoformat()},{','.join(map(str, row))}\r\n" for ts, row in zip(stamps, cells.tolist())
            )


def aggregate_intervals(snapshots: BookFrame, tau: float, side: Side = Side.BUY) -> list[IntervalBar]:
    """Aggregate snapshots into tau-second bars aligned to the epoch grid.

    Each bar holds the simple mean of per-level prices and volumes over the
    snapshots whose timestamps fall in [start, start + tau); empty intervals
    are omitted. A bar's start carries the tz of its first snapshot in input
    order. ``quote_volume`` is the averaged level-1 volume of the side a
    `side` order consumes.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not len(snapshots):
        raise ValueError("no snapshots to aggregate")
    epochs = np.array([ts.timestamp() for ts in snapshots.timestamps])
    starts, first, group = np.unique(np.floor(epochs / tau) * tau, return_index=True, return_inverse=True)
    # np.add.at adds each group's rows onto +0.0 in input order, as np.mean
    # over the group's stacked rows does, so the means are bit-identical to
    # it (np.add.reduceat's are not: they differ in the last bit in places).
    sums = np.zeros((len(starts), 4 * N_LEVELS))
    np.add.at(sums, group, snapshots.values)
    counts = np.bincount(group, minlength=len(starts))
    means = sums / counts[:, np.newaxis]
    bars: list[IntervalBar] = []
    for start_epoch, k, mean, n in zip(starts.tolist(), first.tolist(), means, counts.tolist()):
        start = datetime.fromtimestamp(start_epoch, tz=snapshots.timestamps[k].tzinfo)
        bid_p, bid_v = mean[BID_PRICES].copy(), mean[BID_VOLUMES].copy()
        ask_p, ask_v = mean[ASK_PRICES].copy(), mean[ASK_VOLUMES].copy()
        bars.append(
            IntervalBar(
                start=start,
                duration=tau,
                avg_bid_prices=bid_p,
                avg_bid_volumes=bid_v,
                avg_ask_prices=ask_p,
                avg_ask_volumes=ask_v,
                spread=float(ask_p[0] - bid_p[0]),
                quote_volume=float(ask_v[0] if side is Side.BUY else bid_v[0]),
                hour=start.hour,
                n_snapshots=n,
            )
        )
    return bars


def build_distributions(bars: list[IntervalBar]) -> dict[int, HistoricalDistribution]:
    """Per-hour sorted spread and quote-volume samples from training bars."""
    if not bars:
        raise ValueError("no bars")
    spreads: dict[int, list[float]] = defaultdict(list)
    volumes: dict[int, list[float]] = defaultdict(list)
    for bar in bars:
        spreads[bar.hour].append(bar.spread)
        volumes[bar.hour].append(bar.quote_volume)
    return {
        hour: HistoricalDistribution(
            hour=hour,
            spread_samples=np.asarray(spreads[hour]),
            volume_samples=np.asarray(volumes[hour]),
        )
        for hour in sorted(spreads)
    }


@dataclass(frozen=True)
class DayWindow:
    """T consecutive bars of one day, anchored at the trading hour."""

    day: date
    bars: tuple[IntervalBar, ...]


def arrival_reference(window: DayWindow, side: Side, kind: str = "mid") -> float:
    """Benchmark price at t=0 of a run: the arrival mid, or with kind="ask"
    the level-1 price of the consumed side (the stricter buy benchmark)."""
    if kind == "mid":
        return window.bars[0].mid
    if kind == "ask":
        prices, _ = window.bars[0].levels(side)
        return float(prices[0])
    raise ValueError(f"unknown reference kind {kind!r}")


def day_windows(
    bars: list[IntervalBar], hour: int, periods: int, tau: float
) -> tuple[list[DayWindow], list[tuple[date, str]]]:
    """Per-day windows of `periods` consecutive bars starting at `hour`.

    Days without a bar at the hour, or with a gap inside the window, are
    skipped and reported with a reason.
    """
    by_day: dict[date, list[IntervalBar]] = defaultdict(list)
    for bar in bars:
        by_day[bar.start.date()].append(bar)
    windows: list[DayWindow] = []
    skipped: list[tuple[date, str]] = []
    step = timedelta(seconds=tau)
    for day in sorted(by_day):
        day_bars = sorted(by_day[day], key=lambda b: b.start)
        anchor = next((k for k, b in enumerate(day_bars) if b.hour == hour), None)
        if anchor is None:
            skipped.append((day, f"no bars at hour {hour}"))
            continue
        if anchor + periods > len(day_bars):
            skipped.append((day, f"fewer than {periods} bars from hour {hour}"))
            continue
        window = day_bars[anchor : anchor + periods]
        gaps = [
            k
            for k in range(1, periods)
            if window[k].start != window[k - 1].start + step
        ]
        if gaps:
            skipped.append((day, "gap inside window"))
            continue
        windows.append(DayWindow(day=day, bars=tuple(window)))
    return windows, skipped


# ---------------------------------------------------------------------------
# Synthetic depth generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BookRegime:
    """Book shape for one interval: L1 spread, per-level depth, level spacing."""

    spread: float
    level_volume: float
    level_step: float
    spread_jitter: float = 0.0  # uniform +/- absolute on the spread
    volume_jitter: float = 0.0  # uniform +/- relative on level volumes


@dataclass(frozen=True)
class MixedRegime:
    """Hour whose tau-intervals flip between two regimes at random.

    The first `lead_in` intervals of the hour keep the surrounding regime, so
    a window anchored at the hour opens on a representative book before the
    alternation starts.
    """

    favorable: BookRegime
    unfavorable: BookRegime
    p_favorable: float = 0.5
    lead_in: int = 0


#: Synthetic days run from START_DAY, one UTC session of SESSION_HOURS each,
#: with SNAPSHOTS_PER_INTERVAL evenly spaced snapshots per tau-interval.
START_DAY = date(2024, 1, 1)
SESSION_HOURS = range(9, 17)
SNAPSHOTS_PER_INTERVAL = 5


@dataclass
class SyntheticConfig:
    """Synthetic market: random-walk mid, a default book and mixed hours."""

    base_price: float = 100.0
    walk_sigma: float = 0.02  # mid-price std per tau interval
    tau: float = 300.0
    default_regime: BookRegime = field(
        default_factory=lambda: BookRegime(spread=0.12, level_volume=8000.0, level_step=0.06)
    )
    mixed_hours: dict[int, MixedRegime] = field(default_factory=dict)


def planted_regime_config(hour: int = 10) -> SyntheticConfig:
    """Alternating favorable (tight/deep) and unfavorable (wide/thin) intervals
    planted at one hour; the rest of the session runs the default regime.

    The first interval of the planted hour keeps the default book, so a run
    anchored there prices its arrival benchmark off a representative spread
    sitting strictly between the two regimes. The unfavorable book stays deep
    enough (5 levels x 3500) that a full terminal order for the default demo
    volume always liquidates.

    Its walk_sigma of 0.015 holds only for direct callers: the CLI's
    `ExperimentConfig.synthetic_config` overwrites it with the config's
    walk_sigma (0.02 by default) in every run.
    """
    favorable = BookRegime(
        spread=0.04, level_volume=30000.0, level_step=0.02,
        spread_jitter=0.004, volume_jitter=0.05,
    )
    unfavorable = BookRegime(
        spread=0.60, level_volume=3000.0, level_step=0.30,
        spread_jitter=0.05, volume_jitter=0.05,
    )
    return SyntheticConfig(
        walk_sigma=0.015,
        default_regime=BookRegime(spread=0.16, level_volume=8000.0, level_step=0.08),
        mixed_hours={hour: MixedRegime(favorable, unfavorable, p_favorable=0.5, lead_in=1)},
    )


def _interval_regime(
    config: SyntheticConfig, hour: int, interval: int, rng: np.random.Generator
) -> BookRegime:
    mixed = config.mixed_hours.get(hour)
    if mixed is not None and interval >= mixed.lead_in:
        return mixed.favorable if rng.random() < mixed.p_favorable else mixed.unfavorable
    return config.default_regime


def generate_synthetic(seed: int, days: int, config: SyntheticConfig | None = None) -> BookFrame:
    """Deterministic synthetic depth stream: same seed, same snapshots.

    The mid price follows a discrete arithmetic random walk; each tau-interval
    draws a book regime from the schedule and renders snapshots around the
    walking mid.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    cfg = config if config is not None else SyntheticConfig()
    rng = np.random.default_rng(seed)
    intervals_per_hour = int(round(3600.0 / cfg.tau))
    snap_step = cfg.tau / SNAPSHOTS_PER_INTERVAL
    step_sigma = cfg.walk_sigma / math.sqrt(SNAPSHOTS_PER_INTERVAL)
    offsets = np.arange(N_LEVELS, dtype=float)
    mid = cfg.base_price
    values = np.empty((days * len(SESSION_HOURS) * intervals_per_hour * SNAPSHOTS_PER_INTERVAL, 4 * N_LEVELS))
    stamps: list[datetime] = []
    for d in range(days):
        day_start = datetime.combine(START_DAY + timedelta(days=d), time(0), tzinfo=timezone.utc)
        for hour in SESSION_HOURS:
            for k in range(intervals_per_hour):
                regime = _interval_regime(cfg, hour, k, rng)
                t0 = day_start + timedelta(hours=hour, seconds=k * cfg.tau)
                for s in range(SNAPSHOTS_PER_INTERVAL):
                    mid = max(mid + rng.normal(0.0, step_sigma), 1.0)
                    spread = max(
                        regime.spread + regime.spread_jitter * rng.uniform(-1.0, 1.0),
                        0.01,
                    )
                    half = 0.5 * spread
                    bid_v = regime.level_volume * (
                        1.0 + regime.volume_jitter * rng.uniform(-1.0, 1.0, size=N_LEVELS)
                    )
                    ask_v = regime.level_volume * (
                        1.0 + regime.volume_jitter * rng.uniform(-1.0, 1.0, size=N_LEVELS)
                    )
                    row = values[len(stamps)]
                    row[BID_PRICES] = mid - half - regime.level_step * offsets
                    row[BID_VOLUMES] = np.maximum(np.rint(bid_v), 1.0)
                    row[ASK_PRICES] = mid + half + regime.level_step * offsets
                    row[ASK_VOLUMES] = np.maximum(np.rint(ask_v), 1.0)
                    stamps.append(t0 + timedelta(seconds=s * snap_step))
    return BookFrame(timestamps=stamps, values=values)
