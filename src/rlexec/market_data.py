"""Order book market data: depth-CSV ingestion, interval bars, synthetic books.

Depth has one layout from CSV to bar: a row of 20 floats in the CSV's column
order, sliced by BID_PRICES, BID_VOLUMES, ASK_PRICES and ASK_VOLUMES. Raw
snapshots are one `BookFrame` (two int64 timestamp columns, UTC microseconds
and UTC offset microseconds, and a (rows, 20) array); ingestion validates
every row `rlexec.depth_csv` parses with one vectorized check, tallies
rejects per reason and sorts the kept rows inside the parsed block.

Interval bars are one column table, `Bars`, from aggregation to execution:
per bar its start epoch, its start's UTC offset, its snapshot count and its
row of the means, which aggregation computes with one grouped sum. Hour,
local day, mid, spread, quote volume and book levels are column expressions;
a mask, an index or an (n, T) index array gives a split, a window or a stack
of windows. `save_bars` writes the columns as they are and `load_bars` reads
them back, refusing a table no aggregation gives. The bars are the time grid
for everything downstream: hour-conditioned spread/volume percentile
distributions for state encoding, calibration inputs, and the execution
substrate for book walks.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from pathlib import Path
from types import SimpleNamespace
from typing import TextIO

import numpy as np

from .config import HANDOFFS, N_LEVELS, SESSION_HOURS, SNAPSHOTS_PER_INTERVAL, Field, synthetic_rows

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


#: Timestamp columns count microseconds from the epoch: UTC instants, and UTC offsets.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


@dataclass
class BookFrame:
    """The snapshot store, as columns: per row its timestamp, as the int64 UTC
    microseconds since the epoch ``utc_us`` and the int64 UTC offset in
    microseconds ``offset_us`` of the zone it was written in, and a (rows, 20)
    float array of depth rows in DEPTH_CSV_COLUMNS order (``ts`` excluded),
    whose levels BID_PRICES, BID_VOLUMES, ASK_PRICES and ASK_VOLUMES slice.

    Every row passes BOOK_CHECKS. `timestamps`, the datetime view of the two
    timestamp columns, and iteration over rows serve the tests and perfbench;
    the pipeline reads the columns.
    """

    utc_us: np.ndarray
    offset_us: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        rows = len(self.utc_us)
        shapes = (self.utc_us.shape, self.offset_us.shape, self.values.shape)
        want = ((rows,), (rows,), (rows, 4 * N_LEVELS))
        if shapes != want:
            raise ValueError(f"utc_us, offset_us and values must be of shapes {want}, got {shapes}")
        failure = first_book_failure(self.values)
        bad = np.flatnonzero(failure >= 0)
        if len(bad):
            raise ValueError(f"row {bad[0]}: {BOOK_CHECKS[failure[bad[0]]]}")

    @classmethod
    def _of_checked_rows(cls, utc_us: np.ndarray, offset_us: np.ndarray, values: np.ndarray) -> BookFrame:
        """The frame of columns whose rows `first_book_failure` has passed
        already, as ingest_csv's kept rows have: built without a second check."""
        frame = cls.__new__(cls)
        frame.utc_us, frame.offset_us, frame.values = utc_us, offset_us, values
        return frame

    @property
    def timestamps(self) -> list[datetime]:
        """Each row's timestamp as an aware datetime on its zone's clock."""
        local = datetime(1970, 1, 1)
        return [
            (local + timedelta(microseconds=utc + offset)).replace(tzinfo=timezone(timedelta(microseconds=offset)))
            for utc, offset in zip(self.utc_us.tolist(), self.offset_us.tolist())
        ]

    def __len__(self) -> int:
        return len(self.utc_us)

    def __iter__(self) -> Iterator[SimpleNamespace]:
        """Each row's timestamp and level views, for perfbench's ingest test;
        the pipeline reads the columns whole."""
        for ts, r in zip(self.timestamps, self.values):
            yield SimpleNamespace(timestamp=ts, bid_prices=r[BID_PRICES], bid_volumes=r[BID_VOLUMES],
                                  ask_prices=r[ASK_PRICES], ask_volumes=r[ASK_VOLUMES])


def _microseconds(seconds):
    """Whole microseconds in `seconds`, elementwise, the fraction rounded half
    to even as datetime.fromtimestamp and timedelta round it."""
    whole = np.floor(seconds)
    return whole.astype(np.int64) * 1_000_000 + np.rint((seconds - whole) * 1e6).astype(np.int64)


@dataclass(frozen=True)
class Bars:
    """Tau-second bars as columns: per bar its start epoch in seconds, the UTC
    offset in seconds of its start (the zone most of its snapshots carry), its
    snapshot count and its mean depth row in the BookFrame layout.

    The bars are the one source of the run's bar length and order side:
    ``tau`` is the step `follows` checks, and ``side`` the side of the order
    whose consumed book ``levels`` gives, whose level-1 volume is
    ``quote_volume``. Calibration, training, windows and execution read them
    here; they take no side or tau of their own.

    The columns share their leading axes: (n,) for a run of bars, (n, T) for
    a stack of windows. Indexing indexes every column at once, so a mask gives
    a split, an index one bar, and iteration runs over the first axis. Starts
    count in whole microseconds, rounded as datetime rounds them; hour and day
    (a datetime64[D]) are the start's on its own zone's clock.
    """

    tau: float
    side: Side
    start: np.ndarray
    utc_offset: np.ndarray
    n_snapshots: np.ndarray
    row: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, index) -> Bars:
        columns = (self.start, self.utc_offset, self.n_snapshots, self.row)
        return Bars(self.tau, self.side, *(column[index] for column in columns))

    @property
    def start_us(self) -> np.ndarray:
        return _microseconds(self.start)

    @property
    def _local_us(self) -> np.ndarray:
        return self.start_us + _microseconds(self.utc_offset)

    @property
    def hour(self) -> np.ndarray:
        return self._local_us // 3_600_000_000 % 24

    @property
    def day(self) -> np.ndarray:
        return (self._local_us // 86_400_000_000).astype("datetime64[D]")

    def follows(self) -> np.ndarray:
        """Whether each bar after the first on the last axis starts tau
        seconds after the one before it."""
        return np.diff(self.start_us, axis=-1) == _microseconds(self.tau)

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.row[..., ASK_PRICES.start] + self.row[..., BID_PRICES.start])

    @property
    def spread(self) -> np.ndarray:
        return self.row[..., ASK_PRICES.start] - self.row[..., BID_PRICES.start]

    @property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Price/volume levels of the book side an order on ``side`` consumes, best first."""
        if self.side is Side.BUY:
            return self.row[..., ASK_PRICES], self.row[..., ASK_VOLUMES]
        return self.row[..., BID_PRICES], self.row[..., BID_VOLUMES]

    @property
    def quote_volume(self) -> np.ndarray:
        return self.levels[1][..., 0]


#: Bar starts a date can hold in any zone: from a day into year 1 to a day before year 10000.
_START_RANGE = tuple(datetime(*ymd, tzinfo=timezone.utc).timestamp() for ymd in ((1, 1, 2), (9999, 12, 31)))


def _check_bars(bars: Bars, source: str = "") -> Bars:
    """`bars`, a run of bars, unless one is a bar no aggregation of valid
    snapshots gives: then a ValueError, prefixed by `source`, naming the first
    such bar and why. Means of valid rows fail only by a rounded-away spread
    or an overflow."""
    row, start, offset = bars.row, bars.start, bars.utc_offset
    volumes, prices = row[:, 1::2], row[:, ::2]  # the depth row alternates price, volume
    checks = {
        "non-finite cell": ~(np.isfinite(row).all(axis=1) & np.isfinite(start) & np.isfinite(offset)),
        "negative volume": (volumes < 0).any(axis=1),
        "non-positive price": (prices <= 0).any(axis=1),
        "non-positive spread": ~(bars.spread > 0),
        "no snapshots": bars.n_snapshots < 1,
        "UTC offset of a day or more": ~(np.abs(offset) < 86_400),
        "start outside the datetime range": ~((start >= _START_RANGE[0]) & (start <= _START_RANGE[1])),
        "start not after the previous bar's": np.r_[False, ~(np.diff(start) > 0)],
    }
    for reason, failed in checks.items():
        if failed.any():
            raise ValueError(f"{source}bar {int(failed.argmax())}: {reason}")
    return bars


@dataclass
class HistoricalDistribution:
    """Sorted spread/volume samples for one trading hour of the training set."""

    spread_samples: np.ndarray
    volume_samples: np.ndarray

    def __post_init__(self) -> None:
        self.spread_samples = np.sort(np.asarray(self.spread_samples, dtype=float))
        self.volume_samples = np.sort(np.asarray(self.volume_samples, dtype=float))


def bucket_of(samples: np.ndarray, value, buckets: int):
    """Percentile bucket ceil(p * buckets) in 1..buckets of each value against
    the sorted `samples`, elementwise, computed exactly.

    p is the inclusive empirical percentile (count <= value) / n, clamped
    below at 1/n so the map onto 1..buckets is total. Uses integer arithmetic
    on the sample count so bucket boundaries never shift by a float rounding
    of the percentile.
    """
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample distribution")
    if n * (buckets + 1) > 2**63:  # the largest intermediate is n * (buckets + 1) - 1
        raise ValueError(f"{n} samples in {buckets} buckets overflow int64 bucket arithmetic")
    count = np.maximum(np.searchsorted(samples, value, side="right"), 1)
    return (count * buckets + n - 1) // n


def _median(values) -> float:
    """np.median of `values`, bit for bit (NaN if any is NaN), without the
    numpy.ma import np.median and a plain np.unique make: ~15 ms a process."""
    mid, odd = divmod(np.size(values), 2)
    part = np.partition(values, [mid, -1] if odd else [mid - 1, mid, -1], axis=None)  # np.median's; NaN sorts last
    if np.isnan(part[-1]):
        return float(part[-1])
    # np.median means the middle values with a sum that starts at +0.0, so -0.0 reads 0.0
    return float(0.0 + part[mid] if odd else (0.0 + part[mid - 1] + part[mid]) / 2)


def state_buckets(
    bars: Bars, dists: dict[int, HistoricalDistribution], spread_buckets: int, vol_buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """The spread and volume buckets of every bar, in the shape of `bars`,
    against the historical distribution of the bar's hour: the market half
    of the agent's state. A bar whose hour has no distribution in `dists`
    gets bucket 0."""
    hours, spread, volume = bars.hour, bars.spread, bars.quote_volume
    spread_bucket = np.zeros(hours.shape, dtype=np.int64)
    volume_bucket = np.zeros(hours.shape, dtype=np.int64)
    for hour in sorted(set(hours.ravel().tolist())):
        if hour in dists:
            at = hours == hour
            spread_bucket[at] = bucket_of(dists[hour].spread_samples, spread[at], spread_buckets)
            volume_bucket[at] = bucket_of(dists[hour].volume_samples, volume[at], vol_buckets)
    return spread_bucket, volume_bucket


@dataclass
class IngestResult:
    snapshots: BookFrame
    rejected_rows: int
    row_errors: Counter


def ingest_csv(path: str | Path) -> IngestResult:
    """Read a DEPTH_CSV_COLUMNS file into validated snapshots sorted by timestamp.

    Rows that fail parsing or book invariants are skipped and tallied per
    reason in ``row_errors``, under the first failing of: column count,
    parsing (a naive timestamp or a non-finite cell is an unparseable row),
    then BOOK_CHECKS in order. A file with a bad header, zero valid rows, a
    line the csv module cannot split (such as a field over
    csv.field_size_limit()) or bytes that are not UTF-8 is a ValueError
    naming `path`; with several such lines, the first in file order.

    `rlexec.depth_csv.parse` reads the rows into one (rows, 20) block and two
    int64 timestamp columns. It cuts the file once into blocks of whole lines
    of about 512 KiB, which go through NumPy's C reader. On Linux it parses
    them in runs, one per usable CPU but at most one per two blocks, each run
    after the first in a forked child whose part, rows only, comes back
    through a spool file. A block that
    cannot be read so sends the whole file through the csv module in this
    process, which raises every data error. The rows are joined in file
    order before the checks, and the kept rows are put in timestamp order (a
    stable sort on the UTC microseconds) inside that block, so the result,
    errors included, is the one-range result.
    """
    from .depth_csv import parse  # here: the stages that load bars.npz never load the parser

    path = Path(path)
    utc_us, offset_us, values, errors = parse(path)
    # a row with a non-finite cell is unparseable, whatever its book checks say
    reasons = (*BOOK_CHECKS, "unparseable row")
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row's order check
        failure = first_book_failure(values)
    failure[~np.isfinite(values).all(axis=1)] = len(BOOK_CHECKS)
    for code, count in zip(*np.unique(failure[failure >= 0], return_counts=True)):
        errors[reasons[code]] += int(count)
    kept = np.flatnonzero(failure < 0)
    if not len(kept):
        raise ValueError(f"{path}: no valid rows")
    rank = np.argsort(utc_us[kept], kind="stable")
    _take_rows(values, kept, rank)
    order = kept[rank]
    frame = BookFrame._of_checked_rows(utc_us[order], offset_us[order], values[: len(order)])
    return IngestResult(snapshots=frame, rejected_rows=sum(errors.values()), row_errors=errors)


#: Rows _take_rows moves per step; bounds the copy it keeps beside the block.
_TAKE_ROWS = 4096


def _take_rows(values: np.ndarray, kept: np.ndarray, rank: np.ndarray) -> None:
    """Put rows kept[rank] of `values` in its first len(rank) rows, in place,
    for ascending `kept`. It copies a _TAKE_ROWS step of rows at a time, then
    the rows `rank` moves, never a second block."""
    # drop the rejected rows from the first one on: a step reads rows at or
    # after those it writes, so no later step reads a row a step wrote
    shifted = np.flatnonzero(kept != np.arange(len(kept)))
    for lo in range(shifted[0] if len(shifted) else len(kept), len(kept), _TAKE_ROWS):
        step = kept[lo : lo + _TAKE_ROWS]
        values[lo : lo + len(step)] = values[step]
    # then sort: the moved rows are all read before any is written
    moved = np.flatnonzero(rank != np.arange(len(rank)))
    values[moved] = values[rank[moved]]


#: Rows formatted per block by each write part of write_snapshots_csv: a
#: process holds the Python objects and the text of one block at a time, not
#: of its part. At 512 rows fine_grid's ingest keeps about 1 MB less resident
#: after the write than at 1024, at the same speed.
_WRITE_BLOCK = 512
#: A store splits into at most one write part per _WRITE_PART_ROWS rows.
_WRITE_PART_ROWS = 4096


def _isoformat(utc_us: np.ndarray, offset_us: np.ndarray) -> list[str]:
    """Each timestamp as datetime.isoformat writes it on its zone's clock:
    the fraction only when not zero, then the offset."""
    local = utc_us + offset_us
    text = np.datetime_as_string(local.astype("datetime64[us]"), unit="us")
    text = np.where(local % 1_000_000 == 0, text.astype("U19"), text).tolist()
    zones, zone = np.unique(offset_us, return_inverse=True)
    suffix = [datetime(1970, 1, 1, tzinfo=timezone(timedelta(microseconds=z))).isoformat()[19:] for z in zones.tolist()]
    return [f"{stamp}{suffix[z]}" for stamp, z in zip(text, zone.tolist())]


def _cells(column: np.ndarray) -> list[str]:
    """Each value of `column` as the store writes it: a finite integral value
    as an integer, any other in shortest round-trip form (its repr)."""
    values = column.tolist()
    integral = np.isfinite(column) & (column == np.trunc(column))
    if integral.all():
        return list(map(str, map(int, values)))
    cells = list(map(repr, values))
    for k in np.flatnonzero(integral).tolist():
        cells[k] = str(int(values[k]))
    return cells


def _write_store_rows(snapshots: BookFrame, fh: TextIO, start: int, stop: int) -> None:
    """Write rows `start` to `stop` of `snapshots` to `fh` as depth CSV lines,
    _WRITE_BLOCK rows at a time, each block formatted column by column."""
    for lo in range(start, stop, _WRITE_BLOCK):
        hi = min(lo + _WRITE_BLOCK, stop)
        columns = map(_cells, snapshots.values[lo:hi].T)
        stamps = _isoformat(snapshots.utc_us[lo:hi], snapshots.offset_us[lo:hi])
        fh.write("\r\n".join(map(",".join, zip(stamps, *columns))) + "\r\n")


def write_snapshots_csv(path: str | Path, snapshots: BookFrame) -> None:
    """Write snapshots in the canonical depth CSV schema (finite integral
    values as integers, other values in shortest round-trip form).

    Lines are comma-separated and CRLF-terminated, as csv.writer's default
    dialect writes them; no cell (ISO timestamps, numbers) needs quoting.

    The rows are written in ranges, one per usable CPU but at most one per
    _WRITE_PART_ROWS rows (`rlexec.parts.write_parts`): the first here, each
    other at the same time by a forked child into an unlinked spool file
    beside `path`, appended in order, so the bytes are the one-range bytes.
    A child that fails is a ChildProcessError naming `path`, and leaves
    `path` as it was.
    """
    from .parts import even_ranges, usable_parts, write_parts  # here: only ingest writes a store

    rows = len(snapshots)
    ranges = even_ranges(rows, usable_parts(rows, _WRITE_PART_ROWS))
    write_parts(path, ",".join(DEPTH_CSV_COLUMNS) + "\r\n", ranges, functools.partial(_write_store_rows, snapshots))


def aggregate_intervals(snapshots: BookFrame, tau: float) -> Bars:
    """Aggregate snapshots into tau-second bars aligned to the epoch grid.

    Each bar's row is the simple mean of the depth rows whose timestamps fall
    in [start, start + tau); empty intervals are omitted. A bar's UTC offset
    is the one most of its snapshots carry; a tie goes to the tied offset
    that comes first in the bar in input order. The bars are a buy order's,
    which `save_bars` does not store: a run takes its side from `load_bars`.

    Epochs and offsets in seconds come from the timestamp columns, each the
    quotient datetime.timestamp and timedelta.total_seconds give.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not len(snapshots):
        raise ValueError("no snapshots to aggregate")
    epochs = snapshots.utc_us / 1e6
    # past 2**53 an int64 rounds on its way to float64 and the quotient rounds
    # again; Python's int division rounds once, as datetime.timestamp's does
    far = np.flatnonzero(np.abs(snapshots.utc_us) > 2**53)
    epochs[far] = [utc / 10**6 for utc in snapshots.utc_us[far].tolist()]
    with np.errstate(over="ignore"):
        grid = np.floor(epochs / tau) * tau
    if not np.isfinite(grid).all():
        raise ValueError(f"tau {tau!r} is too short to put the timestamps on a bar grid")
    starts, group = np.unique(grid, return_inverse=True)
    # np.add.at adds each group's rows onto +0.0 in input order, as np.mean
    # over the group's stacked rows does, so the means are bit-identical to
    # it (np.add.reduceat's are not: they differ in the last bit in places).
    sums = np.zeros((len(starts), 4 * N_LEVELS))
    np.add.at(sums, group, snapshots.values)
    counts = np.bincount(group, minlength=len(starts))
    zones = snapshots.offset_us / 1e6
    return _check_bars(Bars(tau, Side.BUY, starts, _majority(group, zones), counts, sums / counts[:, np.newaxis]))


def _majority(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per group 0..max(group), the value most of its rows carry; a tie goes
    to the tied value whose first row comes first in input order."""
    # one stable sort by group, then value, lays each (group, value) pair's
    # rows out as one run in input order, so a run's first entry is its first row
    order = np.lexsort((values, group))
    g, v = group[order], values[order]
    start = np.flatnonzero(np.r_[True, (g[1:] != g[:-1]) | (v[1:] != v[:-1])])
    count = np.diff(np.r_[start, len(order)])
    owner = g[start]
    pick = np.lexsort((order[start], -count, owner))  # by group, most rows first, then earliest
    lead = np.r_[True, owner[pick][1:] != owner[pick][:-1]]
    return v[start][pick[lead]]


def _load_npz(path: str | Path, fields: dict[str, Field], dims: dict[str, int]) -> dict[str, np.ndarray]:
    """The arrays `fields` names in the .npz file at `path`, each of its
    field's exact dtype, shape (`dims` fixes named dimensions), finiteness
    and range; else, or for a header declaring more bytes than the file holds
    (checked before NumPy allocates them), a ValueError naming `path`."""
    size = Path(path).stat().st_size
    with open(path, "rb") as fh:
        try:
            with np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
                missing = [name for name in fields if name not in npz.files]
                if missing:
                    raise ValueError(f"missing arrays {missing}")
                for name in fields:
                    with npz.zip.open(f"{name}.npy") as member:
                        major, _ = np.lib.format.read_magic(member)
                        read_header = np.lib.format.read_array_header_1_0 if major == 1 else np.lib.format.read_array_header_2_0
                        shape, _, dtype = read_header(member)
                    if math.prod(shape) * dtype.itemsize > size:
                        raise ValueError(f"array {name!r} of shape {shape} needs more than the file's {size} bytes")
                arrays = {name: npz[name] for name in fields}
        # zipfile and NumPy fail on damaged bytes in many ways: BadZipFile, NotImplementedError
        # (compression method), RuntimeError (encryption), OSError (seek), KeyError, SyntaxError, ...
        except Exception as exc:  # noqa: BLE001
            raise ValueError(f"{path}: unreadable .npz file: {exc}") from None
    sizes = dict(dims)
    for name, field in fields.items():
        array, shape = arrays[name], field.bind(arrays[name].shape, sizes)
        if array.dtype != field.kind or array.shape != shape:
            found = f"dtype {array.dtype} and shape {array.shape}"
            raise ValueError(f"{path}: array {name!r} has {found}, not {field.kind} and {shape}")
        if field.finite and not np.isfinite(array).all():
            raise ValueError(f"{path}: array {name!r} holds a non-finite value")
        if field.low is not None and (array < field.low).any():
            raise ValueError(f"{path}: array {name!r} holds a value below {field.low}")
    return arrays


def save_bars(path: str | Path, bars: Bars, source_sha256: str) -> None:
    """Write the columns of one `aggregate_intervals` call to an .npz file,
    with the sha256 of the source depth CSV they came from.

    The file holds no side-dependent field, and the same bars give the same
    bytes (the zip entries carry a fixed date).
    """
    if not len(bars):
        raise ValueError("no bars to save")
    columns = {name: getattr(bars, name) for name in ("start", "utc_offset", "n_snapshots", "row")}
    np.savez(path, **columns, tau=np.float64(bars.tau), source_sha256=np.str_(source_sha256))


def load_bars(
    path: str | Path, tau: float, source_sha256: str, side: Side, recorded_in: str | Path | None = None
) -> Bars:
    """The bars `save_bars` wrote, with ``quote_volume`` for `side`. A file
    `_load_npz` refuses under `HANDOFFS`, none, bars of another tau or source
    depth CSV, or a bar `_check_bars` refuses is a ValueError naming `path`;
    one of another source depth CSV than `source_sha256` also names the file
    `recorded_in` that records that digest, since either may be at fault."""
    arrays = _load_npz(path, HANDOFFS["bars.npz"].fields, {})
    if len(arrays["start"]) == 0:
        raise ValueError(f"{path}: no bars")
    if float(arrays["tau"]) != tau:
        raise ValueError(f"{path}: bars are {float(arrays['tau'])!r} s long, not tau = {tau!r}")
    if arrays["source_sha256"].item() != source_sha256:
        files = path if recorded_in is None else f"{recorded_in} and {path}"
        found = arrays["source_sha256"].item()
        raise ValueError(f"{files}: bars of source depth CSV sha256 {found}, not {source_sha256}")
    bars = Bars(tau, side, arrays["start"], arrays["utc_offset"], arrays["n_snapshots"], arrays["row"])
    return _check_bars(bars, f"{path}: ")


def build_distributions(bars: Bars) -> dict[int, HistoricalDistribution]:
    """Per-hour sorted spread and quote-volume samples from training bars."""
    if not len(bars):
        raise ValueError("no bars")
    hours, spreads, volumes = bars.hour, bars.spread, bars.quote_volume
    return {h: HistoricalDistribution(spreads[hours == h], volumes[hours == h]) for h in sorted(set(hours.tolist()))}


def arrival_reference(windows: Bars, kind: str) -> np.ndarray:
    """Benchmark price at t=0 of a run over each window, periods on the last
    axis of `windows`: the arrival mid, or with kind="ask" the level-1 price
    of the side the windows' orders consume (the stricter buy benchmark)."""
    if kind == "mid":
        return windows.mid[..., 0]
    if kind == "ask":
        prices, _ = windows.levels
        return prices[..., 0, 0]
    raise ValueError(f"unknown reference kind {kind!r}")


def day_windows(bars: Bars, hour: int, periods: int) -> tuple[Bars, list[tuple[date, str]]]:
    """Per-day windows of `periods` consecutive bars starting at `hour`, as
    the bars indexed (windows, periods), one window per day in day order;
    consecutive means the bars' own tau apart.

    A day is a start's date in its own zone. Days without a bar at the hour,
    or with a gap inside the window, are skipped and reported with a reason.
    """
    day = bars.day
    order = np.lexsort((bars.start_us, day))  # by day, then by start
    days, firsts = np.unique(day[order], return_index=True)
    at_hour = bars.hour[order] == hour
    picked: list[np.ndarray] = []
    skipped: list[tuple[date, str]] = []
    for day, lo, hi in zip(days.tolist(), firsts.tolist(), [*firsts[1:].tolist(), len(order)]):
        hits = np.flatnonzero(at_hour[lo:hi])
        if not len(hits):
            skipped.append((day, f"no bars at hour {hour}"))
            continue
        anchor = lo + int(hits[0])
        if anchor + periods > hi:
            skipped.append((day, f"fewer than {periods} bars from hour {hour}"))
            continue
        window = order[anchor : anchor + periods]
        if not bars[window].follows().all():
            skipped.append((day, "gap inside window"))
            continue
        picked.append(window)
    return bars[np.array(picked, dtype=np.intp).reshape(len(picked), periods)], skipped


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


#: Synthetic days run from START_DAY, one UTC session of SESSION_HOURS each.
START_DAY = date(2024, 1, 1)


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


def planted_regime_config(hour: int) -> SyntheticConfig:
    """Alternating favorable (tight/deep) and unfavorable (wide/thin) intervals
    planted at one hour; the rest of the session runs the default regime.

    The first interval of the planted hour keeps the default book, so a run
    anchored there prices its arrival benchmark off a representative spread
    sitting strictly between the two regimes. The unfavorable book stays deep
    enough (5 levels x 3500) that a full terminal order for the default demo
    volume always liquidates. The base price and the walk are the
    `SyntheticConfig` defaults.
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
        default_regime=BookRegime(spread=0.16, level_volume=8000.0, level_step=0.08),
        mixed_hours={hour: MixedRegime(favorable, unfavorable, p_favorable=0.5, lead_in=1)},
    )


def generate_synthetic(seed: int, days: int, config: SyntheticConfig) -> BookFrame:
    """Deterministic synthetic depth stream: same seed, same snapshots.

    The mid price follows a discrete arithmetic random walk, floored at 1.0;
    each tau-interval takes a book regime from the schedule and renders
    snapshots around the walking mid.

    The stream contract, which the tests pin bit for bit: `seed` seeds one
    `np.random.default_rng`, and the rows draw from it in time order. A
    mixed hour's interval at or past its `lead_in` first draws one
    ``random()``, below `p_favorable` for the favorable book. Then each of
    the interval's snapshots draws one standard normal, the mid's step
    (times walk_sigma / sqrt(SNAPSHOTS_PER_INTERVAL)), then 11 uniforms on
    [-1, 1): the spread jitter, the five bid-level and the five ask-level
    volume jitters, best level first.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    rows = synthetic_rows(days, config.tau)
    rng = np.random.default_rng(seed)
    intervals_per_hour = int(round(3600.0 / config.tau))
    snap_step = config.tau / SNAPSHOTS_PER_INTERVAL
    step_sigma = config.walk_sigma / math.sqrt(SNAPSHOTS_PER_INTERVAL)

    # per interval of a day, the mixed regime that draws its book, else None
    plan = [
        mixed if mixed is not None and k >= mixed.lead_in else None
        for mixed in map(config.mixed_hours.get, SESSION_HOURS)
        for k in range(intervals_per_hour)
    ]
    regimes: list[BookRegime] = []  # each interval's book
    mid, mids = config.base_price, np.empty(rows)
    draws = np.empty((rows, 1 + 2 * N_LEVELS))
    for interval, mixed in enumerate(plan * days):
        regime = config.default_regime
        if mixed is not None:
            regime = mixed.favorable if rng.random() < mixed.p_favorable else mixed.unfavorable
        regimes.append(regime)
        for row in range(interval * SNAPSHOTS_PER_INTERVAL, (interval + 1) * SNAPSHOTS_PER_INTERVAL):
            # 0 + sigma * z here and -1 + 2 * u below are what normal(0, sigma)
            # and uniform(-1, 1) compute from the same draws
            mid = max(mid + (0.0 + step_sigma * rng.standard_normal()), 1.0)
            mids[row] = mid
            rng.random(out=draws[row])
    draws *= 2.0
    draws -= 1.0

    # each row's book as (rows, 1) columns; the arithmetic keeps a per-row
    # loop's operation order, so every value is bit-identical to that loop's
    params = np.array([(r.spread, r.spread_jitter, r.level_volume, r.volume_jitter, r.level_step) for r in regimes])
    spread, spread_jitter, level_volume, volume_jitter, level_step = np.hsplit(
        np.repeat(params.reshape(len(regimes), 5), SNAPSHOTS_PER_INTERVAL, axis=0), 5
    )
    mids = mids[:, np.newaxis]
    half = 0.5 * np.maximum(spread + spread_jitter * draws[:, :1], 0.01)
    steps = level_step * np.arange(N_LEVELS, dtype=float)
    values = np.empty((rows, 4 * N_LEVELS))
    values[:, BID_PRICES] = mids - half - steps
    values[:, ASK_PRICES] = mids + half + steps
    for levels, jitter in ((BID_VOLUMES, draws[:, 1 : 1 + N_LEVELS]), (ASK_VOLUMES, draws[:, 1 + N_LEVELS :])):
        values[:, levels] = np.maximum(np.rint(level_volume * (1.0 + volume_jitter * jitter)), 1.0)

    # one day's snapshot offsets from midnight in microseconds, each the sum
    # of the interval's and the snapshot's rounded timedelta (exact: timedeltas
    # add integer microseconds), after each day's UTC midnight
    pattern = [
        (timedelta(hours=hour, seconds=k * config.tau) + timedelta(seconds=s * snap_step)) // _MICROSECOND
        for hour in SESSION_HOURS
        for k in range(intervals_per_hour)
        for s in range(SNAPSHOTS_PER_INTERVAL)
    ]
    midnight = (datetime.combine(START_DAY, time(0), tzinfo=timezone.utc) - _EPOCH) // _MICROSECOND
    days_us = midnight + np.arange(days, dtype=np.int64) * (timedelta(days=1) // _MICROSECOND)
    utc_us = (days_us[:, np.newaxis] + np.array(pattern, dtype=np.int64)).reshape(rows)
    return BookFrame(utc_us, np.zeros(rows, dtype=np.int64), values)
