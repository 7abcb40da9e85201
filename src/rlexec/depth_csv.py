"""The raw depth CSV parser behind `market_data.ingest_csv`.

`parse` reads a DEPTH_CSV_COLUMNS file into columns of its rows: each
timestamp as int64 UTC microseconds since the epoch and int64 UTC offset
microseconds, the depth cells as one (rows, 20) float64 block, and the tally
of rows rejected before the book checks.

Ranges. On Linux a file of two or more _PART_BYTES without a `"` byte is
parsed in byte ranges that each start a line, one per usable CPU but at most
one per _PART_BYTES: the first range in this process, each other in a forked
child, at the same time. A child sends its two timestamp columns, its tally
and its line count in one pickle, then its cells as raw float64 bytes, which
the parent reads straight into that range's slice of the block. The parts are
joined in file order, so the result is the one-range result.

Blocks. `_parse_range` reads a range in blocks of whole lines of at most
_BLOCK_BYTES. In a block, a line of exactly 20 commas whose depth cells hold
only `0-9 . + - e E` goes to np.loadtxt, NumPy's C reader, which rounds a cell
through the PyOS_string_to_double that float() calls; each other line of 21
cells goes through float() one cell at a time, as do all of a block's lines
when the reader refuses one of its cells (such as an empty cell or `1e`).
`_decode_stamps` turns each timestamp written YYYY-MM-DDTHH:MM:SS[.ffffff]
with a Z or ±HH:MM zone into its two columns with integer arithmetic; any
other is read by datetime.fromisoformat, as `_parse_rows` reads them all.

A range the block path cannot certify, because it holds a `"`, bytes that are
not UTF-8, a header that is not DEPTH_CSV_COLUMNS or a line longer than
csv.field_size_limit() or than a block, is parsed from its start by
`_parse_rows`, the csv-module loop. It raises every data error, so the order
of the errors is its own and the block path raises none.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import re
import signal
import warnings
from array import array
from collections import Counter
from datetime import datetime
from pathlib import Path

import numpy as np

from .market_data import _EPOCH, _MICROSECOND, DEPTH_CSV_COLUMNS

#: A file splits into at most one parse part per _PART_BYTES bytes.
_PART_BYTES = 1 << 20
#: Bytes read at a time while scanning a file for a quote or a line end.
_SCAN_BYTES = 1 << 16
#: The line ends csv.reader splits on when read with newline="".
_LINE_END = re.compile(rb"\r\n?|\n")
#: The most bytes `_parse_range` reads for one block of whole lines.
_BLOCK_BYTES = 1 << 19
#: Depth cells per row: the columns after ``ts``, and the commas before them.
_CELLS = len(DEPTH_CSV_COLUMNS) - 1
#: Maps each byte a depth cell np.loadtxt reads may hold, and the comma
#: between cells, to 0, and every other byte to 1.
_OUTSIDE = bytes(byte not in b"0123456789.+-eE," for byte in range(256))

#: The rows of a range: UTC and offset microseconds, the depth cells in
#: blocks of rows, the tally of rejected rows and the lines read.
_Part = tuple[np.ndarray, np.ndarray, list[np.ndarray], Counter, int]


def _parse_timestamp(raw: str) -> tuple[int, int]:
    """The UTC microseconds since the epoch and the UTC offset microseconds of
    an ISO timestamp with a zone."""
    ts = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    offset = ts.utcoffset()
    if offset is None:
        raise ValueError("naive timestamp")
    return (ts - _EPOCH) // _MICROSECOND, offset // _MICROSECOND


class _ByteRange(io.RawIOBase):
    """Bytes `start` to `stop` of the open binary file `raw`, read as a whole file."""

    def __init__(self, raw: io.RawIOBase, start: int, stop: int):
        super().__init__()
        raw.seek(start)
        self._raw, self._left = raw, stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        read = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= read
        return read


class _RangeError(Exception):
    """A line of a byte range that csv cannot split, `line` counting the
    range's own lines, or with line None, bytes that are not UTF-8."""

    def __init__(self, line: int | None, message: str):
        super().__init__(line, message)
        self.line, self.message = line, message

    def naming(self, path: Path, lines_before: int) -> ValueError:
        """The error as `parse` raises it, after `lines_before` lines of earlier ranges."""
        if self.line is None:
            return ValueError(f"{path}: {self.message}")
        return ValueError(f"{path}: line {lines_before + self.line}: {self.message}")


def _parse_rows(path: Path, start: int, stop: int) -> _Part:
    """The depth rows of bytes `start` to `stop` of the depth CSV at `path`,
    a range that starts a line, read by the csv module. The range at 0 starts
    with the header, which is checked."""
    utc_us, offset_us, flat = array("q"), array("q"), array("d")
    errors: Counter = Counter()
    with (
        open(path, "rb", buffering=0) as raw,
        io.TextIOWrapper(io.BufferedReader(_ByteRange(raw, start, stop)), encoding="utf-8", newline="") as fh,
    ):
        reader = csv.reader(fh)
        try:
            if start == 0:
                header = next(reader, None)
                if header is None:
                    raise ValueError(f"{path}: empty file, no header")
                header = [cell.strip() for cell in header]
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
                    utc, offset = _parse_timestamp(row[0])
                    flat.extend(map(float, row[1:]))
                except ValueError:
                    del flat[mark:]
                    errors["unparseable row"] += 1
                    continue
                utc_us.append(utc)
                offset_us.append(offset)
        except csv.Error as exc:
            raise _RangeError(reader.line_num, str(exc)) from None
        except UnicodeDecodeError as exc:
            raise _RangeError(None, str(exc)) from None
    utc, offset = (np.frombuffer(column, dtype=np.int64) for column in (utc_us, offset_us))
    return utc, offset, [np.frombuffer(flat, dtype=np.float64).reshape(-1, _CELLS)], errors, reader.line_num


def _block_rows(block: bytes, header: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, Counter, int] | None:
    """The depth rows of `block`, whole lines of a range, as `_parse_rows`
    reads them: UTC and offset microseconds, the cells, the tally and the
    lines read; the first line is the header when `header`. None when
    `_parse_rows` must read the range: for a `"`, bytes that are not UTF-8, a
    header that is not DEPTH_CSV_COLUMNS or a line over csv.field_size_limit()."""
    if b'"' in block:
        return None
    try:
        block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    data = np.frombuffer(block, dtype=np.uint8)
    # csv.reader ends a line at each \r, \n and \r\n; the empty line this
    # split leaves between a \r and its \n is a blank line, which has no row
    cr = b"\r" in block
    ends = np.flatnonzero((data == ord("\n")) | (data == ord("\r")) if cr else data == ord("\n"))
    line_starts, line_stops = np.r_[0, ends + 1], np.r_[ends, len(data)]
    lines = len(ends) - (block.count(b"\r\n") if cr else 0) + int(line_starts[-1] < len(data))
    if (line_stops - line_starts).max() > csv.field_size_limit():
        return None
    if header and [cell.strip() for cell in block[: line_stops[0]].decode().split(",")] != list(DEPTH_CSV_COLUMNS):
        return None
    commas = np.flatnonzero(data == ord(","))
    first = np.searchsorted(commas, line_starts)
    written = line_stops > line_starts
    body = written.copy()
    body[0] &= not header
    row = body & (np.searchsorted(commas, line_stops) - first == _CELLS)
    errors = Counter({"wrong column count": int((body & ~row).sum())})
    at = np.flatnonzero(row)
    starts, comma, stops = line_starts[at], commas[first[at]], line_stops[at]
    # a row goes to np.loadtxt when no byte after its first comma is _OUTSIDE
    outside = np.flatnonzero(np.frombuffer(block.translate(_OUTSIDE), dtype=bool))
    screened = np.searchsorted(outside, stops) == np.searchsorted(outside, comma)
    utc_us, offset_us, decoded = _decode_stamps(data, starts, comma)
    values = np.empty((len(at), _CELLS))
    if screened.any():
        # the block without the text of its other lines, whose line ends
        # stay as blank lines, which np.loadtxt skips
        hidden = written.copy()
        hidden[at[screened]] = False
        cut = [0, *np.column_stack((line_starts[hidden], line_stops[hidden])).ravel().tolist(), len(block)]
        text = b"".join(block[lo:hi] for lo, hi in zip(cut[::2], cut[1::2])).replace(b"\r", b"\n").decode()
        try:
            cells = np.loadtxt(text.split("\n"), delimiter=",", comments=None, usecols=range(1, _CELLS + 1), ndmin=2)
        except ValueError:  # a screened cell that is no number, such as "" or "1e": float() refuses it below
            screened[:] = False
        else:
            values[screened] = cells
    # the other timestamps and cells one row at a time, as _parse_rows reads them
    parsed = np.ones(len(at), dtype=bool)
    for k in np.flatnonzero(~(decoded & screened)).tolist():
        lo, mid, hi = int(starts[k]), int(comma[k]), int(stops[k])
        try:
            if not decoded[k]:
                utc_us[k], offset_us[k] = _parse_timestamp(block[lo:mid].decode())
            if not screened[k]:
                values[k] = [float(cell) for cell in block[mid + 1 : hi].decode().split(",")]
        except ValueError:
            parsed[k] = False
    errors["unparseable row"] = len(at) - int(parsed.sum())
    if not parsed.all():
        utc_us, offset_us, values = utc_us[parsed], offset_us[parsed], values[parsed]
    return utc_us, offset_us, values, +errors, lines


#: How the block path's timestamp cells start, '0' standing for a digit:
#: YYYY-MM-DDTHH:MM:SS, then an optional .ffffff, then Z or ±HH:MM.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
#: Days in each month of a common year, by month number.
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _decode_stamps(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, ...]:
    """The UTC and UTC offset microseconds of each timestamp cell
    data[start:stop] written as _STAMP says with every field in range, and a
    mask of those cells; fromisoformat reads such a cell alike. The other
    cells, with any other form, space or field, are `_parse_timestamp`'s."""
    width = stops - starts
    cells = data[np.minimum(starts[:, np.newaxis] + np.arange(32), len(data) - 1)]
    digit = cells.astype(np.int16) - ord("0")
    is_digit = (digit >= 0) & (digit <= 9)
    fraction = (width == 27) | (width == 32)
    zone = np.where(fraction, 26, 19)[:, np.newaxis] + np.arange(6)  # Z, or the sign, HH, :, MM
    sign, zone_digit = np.take_along_axis(cells, zone, axis=1)[:, 0], np.take_along_axis(digit, zone, axis=1)
    utc = (width == zone[:, 0] + 1) & (sign == ord("Z"))
    signed = (sign == ord("+")) | (sign == ord("-"))
    signed &= (width == zone[:, 0] + 6) & (zone_digit[:, 3] == ord(":") - ord("0"))
    signed &= ((zone_digit[:, [1, 2, 4, 5]] >= 0) & (zone_digit[:, [1, 2, 4, 5]] <= 9)).all(axis=1)
    decoded = np.where(_STAMP == ord("0"), is_digit[:, :19], cells[:, :19] == _STAMP).all(axis=1) & (utc | signed)
    decoded &= ~fraction | ((cells[:, 19] == ord(".")) & is_digit[:, 20:26].all(axis=1))

    def number(columns: slice, of: np.ndarray = digit) -> np.ndarray:
        tens = 10 ** np.arange(columns.stop - columns.start - 1, -1, -1)
        return of[:, columns] @ tens

    year, month, day = number(slice(0, 4)), number(slice(5, 7)), number(slice(8, 10))
    hour, minute, second = number(slice(11, 13)), number(slice(14, 16)), number(slice(17, 19))
    micro = np.where(fraction, number(slice(20, 26)), 0)
    zone_hours = np.where(signed, number(slice(1, 3), zone_digit), 0)
    zone_minutes = np.where(signed, number(slice(4, 6), zone_digit), 0)
    leap = (year % 4 == 0) & (year % 100 != 0) | (year % 400 == 0)
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    decoded &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    decoded &= (hour <= 23) & (minute <= 59) & (second <= 59) & (zone_hours <= 23) & (zone_minutes <= 59)
    # days from 1970-01-01 of the proleptic Gregorian date, by years starting in March
    march_year = year - (month <= 2)
    era, year_of_era = np.divmod(march_year, 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146_097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year - 719_468
    offset = np.where(sign == ord("-"), -1, 1) * (zone_hours * 60 + zone_minutes) * 60_000_000
    utc_us = (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000 + micro - offset
    return utc_us, offset, decoded


def _parse_range(path: Path, start: int, stop: int) -> _Part:
    """The depth rows of bytes `start` to `stop` of the depth CSV at `path`,
    a range that starts a line, read by `_block_rows` in blocks of whole lines
    of at most _BLOCK_BYTES, or from its start by `_parse_rows` once a block
    cannot be certified or holds a line longer than a block."""
    utc_us: list[np.ndarray] = []
    offset_us: list[np.ndarray] = []
    values: list[np.ndarray] = []
    errors: Counter = Counter()
    lines = 0
    with open(path, "rb") as fh:
        fh.seek(start)
        left, rest = stop - start, b""
        while True:
            chunk = fh.read(min(_BLOCK_BYTES, left))
            left = left - len(chunk) if chunk else 0
            block = rest + chunk
            if left:
                # the block ends at its last line end; a \r that ends the chunk may have its \n ahead
                cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
                if not cut:
                    return _parse_rows(path, start, stop)
                block, rest = block[:cut], block[cut:]
            part = _block_rows(block, header=start == 0 and not lines)
            if part is None:
                return _parse_rows(path, start, stop)
            for column, got in zip((utc_us, offset_us, values), part):
                column.append(got)
            errors.update(part[3])
            lines += part[4]
            if not left:
                break
    return np.concatenate(utc_us), np.concatenate(offset_us), values, errors, lines


def _line_start(fh: io.BufferedReader, pos: int) -> int:
    """The offset of the first line that starts after byte `pos` of the
    binary file `fh`, or the file's size if none does."""
    fh.seek(pos)
    while chunk := fh.read(_SCAN_BYTES):
        end = _LINE_END.search(chunk)
        if end:
            # a CR that ends the chunk ends the line only if no LF follows it
            crlf = end.group() == b"\r" and end.end() == len(chunk) and fh.read(1) == b"\n"
            return pos + end.end() + crlf
        pos += len(chunk)
    return pos


def _byte_ranges(path: Path) -> list[tuple[int, int]]:
    """The byte ranges, each starting a line, that `parse` reads `path`
    in: one per usable CPU, but at most one per _PART_BYTES. The file stays
    one range off Linux (no os.sched_getaffinity) and when it holds a `"`
    byte, since a quoted field may hold a line end where a cut would land
    inside a record."""
    size = path.stat().st_size
    parts = min(len(os.sched_getaffinity(0)), size // _PART_BYTES) if hasattr(os, "sched_getaffinity") else 1
    if parts < 2:
        return [(0, size)]
    with open(path, "rb") as fh:
        if any(b'"' in chunk for chunk in iter(lambda: fh.read(_SCAN_BYTES), b"")):
            return [(0, size)]
        cuts = sorted({0, size, *(_line_start(fh, k * size // parts) for k in range(1, parts))})
    return list(zip(cuts, cuts[1:]))


def _fork_parse(path: Path, start: int, stop: int) -> tuple[int, io.BufferedReader]:
    """Fork a child that parses bytes `start` to `stop` of `path` and sends
    back a pickle of (UTC microseconds, offset microseconds, tally, lines
    read), or of its _RangeError, then its depth cells as raw float64 bytes;
    the child's pid and the pipe it writes to."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork warns in a threaded process, as NumPy's
            # BLAS pool makes every process. The child is safe: it makes no
            # BLAS call, and leaves by os._exit, running no cleanup of the
            # parent's.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                try:
                    utc_us, offset_us, values, errors, lines = _parse_range(path, start, stop)
                except _RangeError as exc:
                    pickle.dump(exc, out, pickle.HIGHEST_PROTOCOL)
                else:
                    pickle.dump((utc_us, offset_us, errors, lines), out, pickle.HIGHEST_PROTOCOL)
                    for block in values:
                        out.write(block)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def parse(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, Counter]:
    """The rows of the depth CSV at `path`: their UTC and UTC offset
    microseconds, their depth cells as one (rows, 20) block, and the tally of
    rows rejected before the book checks, parsed in `_byte_ranges` and joined
    in file order. A bad header, a line csv cannot split or bytes that are
    not UTF-8 is a ValueError naming `path`, the first such in file order. No
    child outlives the call."""
    ranges = _byte_ranges(path)
    children: list[tuple[int, io.BufferedReader]] = []

    def reap(child: tuple[int, io.BufferedReader], start: int, stop: int, sent: bool) -> None:
        """Close a child's pipe and wait for it; unless it `sent` its whole
        part and exited 0, a ChildProcessError."""
        pid, pipe = child
        pipe.close()
        children.remove(child)
        _, status = os.waitpid(pid, 0)
        if status or not sent:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"{path}: the parse of bytes {start} to {stop} ended with exit code {code}")

    try:
        for start, stop in ranges[1:]:
            children.append(_fork_parse(path, start, stop))
        try:
            utc_us, offset_us, blocks, errors, lines = _parse_range(path, *ranges[0])
        except _RangeError as exc:
            raise exc.naming(path, 0) from None
        stamps, sizes = [(utc_us, offset_us)], [sum(map(len, blocks))]
        for (start, stop), child in zip(ranges[1:], list(children)):
            try:
                part = pickle.load(child[1])
            except (EOFError, pickle.UnpicklingError):
                part = None
            if part is None:
                reap(child, start, stop, sent=False)
            if isinstance(part, _RangeError):
                raise part.naming(path, lines)
            part_utc, part_offset, part_errors, part_lines = part
            stamps.append((part_utc, part_offset))
            sizes.append(len(part_utc))
            errors.update(part_errors)
            lines += part_lines
        # one block for the cells of every range: this range's land block by
        # block, freeing each, and each other's straight from its child's pipe
        values = np.empty((sum(sizes), _CELLS))
        row = 0
        while blocks:
            block = blocks.pop(0)
            values[row : row + len(block)] = block
            row += len(block)
        for (start, stop), size, child in zip(ranges[1:], sizes[1:], list(children)):
            view = memoryview(values[row : row + size].reshape(-1).view(np.uint8))
            while view and (read := child[1].readinto(view)):
                view = view[read:]
            reap(child, start, stop, sent=not view)
            row += size
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    utc_us, offset_us = (np.concatenate(column) for column in zip(*stamps))
    return utc_us, offset_us, values, errors
