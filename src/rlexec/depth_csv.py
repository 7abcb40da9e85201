"""The raw depth CSV parser behind `market_data.ingest_csv`.

`parse` reads a DEPTH_CSV_COLUMNS file into its rows' timestamps, their depth
cells and the tally of rows rejected before the book checks. On Linux it
parses a file of two or more _PART_BYTES without a `"` byte in byte ranges
that each start a line, one per usable CPU but at most one per _PART_BYTES:
the first range in this process, each other in a forked child, at the same
time. The parts are joined in file order, so the result is the one-range
result.
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

from .market_data import DEPTH_CSV_COLUMNS


#: A file splits into at most one parse part per _PART_BYTES bytes.
_PART_BYTES = 1 << 20
#: Bytes read at a time while scanning a file for a quote or a line end.
_SCAN_BYTES = 1 << 16
#: The line ends csv.reader splits on when read with newline="".
_LINE_END = re.compile(rb"\r\n?|\n")


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        raise ValueError("naive timestamp")
    return ts


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


def _parse_rows(path: Path, start: int, stop: int) -> tuple[list[datetime], array, Counter, int]:
    """The depth rows of bytes `start` to `stop` of the depth CSV at `path`,
    a range that starts a line: their timestamps, their depth cells row
    after row, the tally of rows rejected before the book checks, and the
    lines read. The range at 0 starts with the header, which is checked."""
    stamps: list[datetime] = []
    flat = array("d")
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
                    ts = _parse_timestamp(row[0])
                    flat.extend(map(float, row[1:]))
                except ValueError:
                    del flat[mark:]
                    errors["unparseable row"] += 1
                    continue
                stamps.append(ts)
        except csv.Error as exc:
            raise _RangeError(reader.line_num, str(exc)) from None
        except UnicodeDecodeError as exc:
            raise _RangeError(None, str(exc)) from None
    return stamps, flat, errors, reader.line_num


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
    """Fork a child that parses bytes `start` to `stop` of `path` and pickles
    back its rows as (ISO timestamps, cell bytes, tally, lines read), or its
    _RangeError; the child's pid and the pipe it writes to."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork warns in a threaded process, as NumPy's
            # BLAS pool makes every process. The child is safe: it runs the
            # pure-Python parse, makes no BLAS call, and leaves by os._exit,
            # running no cleanup of the parent's.
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
                    stamps, flat, errors, lines = _parse_rows(path, start, stop)
                except _RangeError as exc:
                    pickle.dump(exc, out, pickle.HIGHEST_PROTOCOL)
                else:
                    # the timestamps as ISO lines, which fromisoformat reads back
                    # field for field: a pickled datetime each costs more to
                    # pickle and load, and the load's memo fragments the heap
                    text = "".join(f"{ts.isoformat()}\n" for ts in stamps)
                    pickle.dump((text, flat.tobytes(), errors, lines), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def parse(path: Path) -> tuple[list[datetime], array, Counter]:
    """The rows of the depth CSV at `path`: their timestamps, their depth
    cells row after row, and the tally of rows rejected before the book
    checks, parsed in `_byte_ranges` and joined in file order. A bad header,
    a line csv cannot split or bytes that are not UTF-8 is a ValueError
    naming `path`, the first such in file order. No child outlives the call."""
    ranges = _byte_ranges(path)
    children: list[tuple[int, io.BufferedReader]] = []
    try:
        for start, stop in ranges[1:]:
            children.append(_fork_parse(path, start, stop))
        try:
            stamps, flat, errors, lines = _parse_rows(path, *ranges[0])
        except _RangeError as exc:
            raise exc.naming(path, 0) from None
        for start, stop in ranges[1:]:
            pid, pipe = children[0]
            with pipe:
                try:
                    part = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    part = None
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if part is None or status:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"{path}: the parse of bytes {start} to {stop} ended with exit code {code}")
            if isinstance(part, _RangeError):
                raise part.naming(path, lines)
            text, cells, part_errors, part_lines = part
            flat.frombytes(cells)
            # a line at a time: a list of every line would fragment the heap too
            stamps += (datetime.fromisoformat(line[:-1]) for line in io.StringIO(text))
            errors.update(part_errors)
            lines += part_lines
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return stamps, flat, errors
