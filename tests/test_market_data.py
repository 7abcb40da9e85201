"""Ingestion, aggregation, distributions, and the synthetic generator."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import pickle
import re
import sys
import warnings
import zipfile
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, time, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rlexec import depth_csv, market_data
from rlexec.almgren_chriss import calibrate
from rlexec.cli import _load_split
from rlexec.config import ExperimentConfig, Field
from rlexec.market_data import (
    ASK_PRICES,
    ASK_VOLUMES,
    BID_PRICES,
    BID_VOLUMES,
    BOOK_CHECKS,
    DEPTH_CSV_COLUMNS,
    N_LEVELS,
    SESSION_HOURS,
    SNAPSHOTS_PER_INTERVAL,
    START_DAY,
    BookFrame,
    BookRegime,
    HistoricalDistribution,
    MixedRegime,
    Side,
    SyntheticConfig,
    _load_npz,
    _median,
    aggregate_intervals,
    bucket_of,
    state_buckets,
    build_distributions,
    day_windows,
    first_book_failure,
    generate_synthetic,
    ingest_csv,
    load_bars,
    planted_regime_config,
    save_bars,
    write_snapshots_csv,
)

from conftest import T0, assert_no_child_left, forked_parts, make_bar_sequence, make_bars, make_frame, make_row

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from rawcsv import DEFECTS, write_raw_depth_csv  # noqa: E402

HEADER = ",".join(DEPTH_CSV_COLUMNS)


def row(ts: str, bid0: float = 99.95, ask0: float = 100.05) -> str:
    cells = [ts]
    for lvl in range(5):
        cells += [f"{bid0 - 0.05 * lvl:.2f}", "1000"]
    for lvl in range(5):
        cells += [f"{ask0 + 0.05 * lvl:.2f}", "1000"]
    return ",".join(cells)


class TestBookFrame:
    def test_rejects_crossed_book(self):
        with pytest.raises(ValueError, match="row 0: crossed book"):
            make_frame([T0], [make_row(spread=-0.02)])

    def test_rejects_naive_timestamp(self):
        # a naive frame would put its bars in the host's local zone
        with pytest.raises(ValueError, match="row 1: naive timestamp"):
            make_frame([T0, datetime(2024, 3, 4, 10, 0)], [make_row(), make_row()])

    def test_rejects_negative_volume(self):
        row = make_row()
        row[BID_VOLUMES] = [100.0, -1.0, 100.0, 100.0, 100.0]
        with pytest.raises(ValueError, match="row 0: negative volume"):
            make_frame([T0], [row])

    def test_rejects_unsorted_levels(self):
        row = make_row()
        row[ASK_PRICES] = row[ASK_PRICES][::-1].copy()
        with pytest.raises(ValueError, match="row 0: ask prices not strictly ascending"):
            make_frame([T0], [row])


def scalar_first_failure(row: list[float]) -> int:
    """Per-row reference for first_book_failure, one check after another."""
    bid_p, bid_v, ask_p, ask_v = row[0:10:2], row[1:10:2], row[10:20:2], row[11:20:2]
    if any(v < 0 for v in bid_v + ask_v):
        return 0
    if any(p <= 0 for p in bid_p + ask_p):
        return 1
    if not all(b - a < 0 for a, b in zip(bid_p, bid_p[1:])):
        return 2
    if not all(b - a > 0 for a, b in zip(ask_p, ask_p[1:])):
        return 3
    if not ask_p[0] > bid_p[0]:
        return 4
    return -1


# values that sit on or next to a check's boundary
EDGE_VALUES = st.sampled_from([0.0, -0.0, -1.0, -1e-9, 1e-9, 99.9, 100.0, 100.1, float("nan")])


@st.composite
def depth_rows(draw) -> list[float]:
    """A valid book, often with some cells overwritten by edge values or by
    the cell beside them (equal adjacent levels)."""
    mid = draw(st.floats(1.0, 200.0))
    half = draw(st.floats(0.0, 1.0))
    step = draw(st.sampled_from([0.0, 0.01, 0.5]))
    row: list[float] = []
    for side in (-1, 1):
        for lvl in range(5):
            row += [mid + side * (half + step * lvl), draw(st.sampled_from([0.0, 1.0, 500.0]))]
    for cell in draw(st.lists(st.integers(0, 19), max_size=3)):
        if draw(st.booleans()):
            row[cell] = draw(EDGE_VALUES)
        else:
            row[cell] = row[cell - 2 if cell >= 2 else cell + 2]
    return row


class TestBookValidator:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(depth_rows(), min_size=1, max_size=12))
    def test_matches_per_row_reference(self, rows):
        expected = [scalar_first_failure(r) for r in rows]
        assert first_book_failure(np.array(rows)).tolist() == expected
        for r, code in zip(rows, expected):
            if code < 0:
                make_frame([T0], [r])
            else:
                with pytest.raises(ValueError, match=f"row 0: {BOOK_CHECKS[code]}"):
                    make_frame([T0], [r])


class TestIngest:
    def test_well_formed_rows_pass_through(self, tmp_path):
        src = tmp_path / "depth.csv"
        src.write_text(
            "\n".join(
                [
                    HEADER,
                    row("2024-03-04T10:00:00+00:00"),
                    row("2024-03-04T10:00:30+00:00"),
                    row("2024-03-04T10:01:00+00:00"),
                ]
            ),
            encoding="utf-8",
        )
        result = ingest_csv(src)
        assert len(result.snapshots) == 3
        assert result.rejected_rows == 0
        stamps = result.snapshots.timestamps
        assert stamps == sorted(stamps)

    def test_crossed_book_row_skipped_with_diagnostic(self, tmp_path):
        src = tmp_path / "depth.csv"
        src.write_text(
            "\n".join(
                [
                    HEADER,
                    row("2024-03-04T10:00:00+00:00"),
                    row("2024-03-04T10:00:30+00:00", bid0=100.10, ask0=100.05),
                ]
            ),
            encoding="utf-8",
        )
        result = ingest_csv(src)
        assert len(result.snapshots) == 1
        assert result.rejected_rows == 1
        assert result.row_errors["crossed book"] == 1

    def test_non_finite_cells_are_unparseable(self, tmp_path):
        cells = row("2024-03-04T10:00:30+00:00").split(",")
        nan_volume = cells.copy()
        nan_volume[DEPTH_CSV_COLUMNS.index("av1")] = "nan"
        inf_volume = cells.copy()
        inf_volume[DEPTH_CSV_COLUMNS.index("bv2")] = "-inf"
        src = tmp_path / "depth.csv"
        src.write_text(
            "\n".join([HEADER, row("2024-03-04T10:00:00+00:00"), ",".join(nan_volume), ",".join(inf_volume)]),
            encoding="utf-8",
        )
        result = ingest_csv(src)
        assert len(result.snapshots) == 1
        assert result.row_errors == {"unparseable row": 2}
        assert np.isfinite(result.snapshots.values).all()

    def test_descending_file_sorted_ascending(self, tmp_path):
        # oracle: an independent sort of the raw timestamps
        stamps = [f"2024-03-04T10:0{k}:00+00:00" for k in range(5)]
        src = tmp_path / "depth.csv"
        src.write_text("\n".join([HEADER] + [row(ts) for ts in reversed(stamps)]), encoding="utf-8")
        result = ingest_csv(src)
        expected = sorted(datetime.fromisoformat(ts) for ts in stamps)
        assert result.snapshots.timestamps == expected

    def test_malformed_header(self, tmp_path):
        src = tmp_path / "depth.csv"
        src.write_text("time,stuff\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            ingest_csv(src)

    def test_zero_valid_rows(self, tmp_path):
        src = tmp_path / "depth.csv"
        src.write_text(HEADER + "\nnot,a,row\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no valid rows"):
            ingest_csv(src)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_csv(tmp_path / "absent.csv")

    def test_roundtrip_via_writer(self, tmp_path):
        frame = make_frame([T0 + timedelta(seconds=30 * k) for k in range(4)], [make_row()] * 4)
        path = tmp_path / "store.csv"
        write_snapshots_csv(path, frame)
        back = ingest_csv(path)
        assert back.snapshots.timestamps == frame.timestamps
        assert np.array_equal(back.snapshots.values, frame.values)


    def test_each_row_is_book_checked_once(self, tmp_path, monkeypatch):
        # ingest_csv checks the parsed rows; the frame of its kept rows is not checked again
        path = tmp_path / "store.csv"
        write_snapshots_csv(path, generate_synthetic(7, 2, SyntheticConfig()))
        checked, check = [], market_data.first_book_failure
        monkeypatch.setattr(market_data, "first_book_failure", lambda values: checked.append(len(values)) or check(values))
        assert len(ingest_csv(path).snapshots) == checked[0] == 960
        assert checked == [960]
        # a frame built directly still checks its rows
        with pytest.raises(ValueError, match="row 1: crossed book"):
            BookFrame(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64), np.array([make_row(), make_row(spread=-0.02)]))
        assert checked == [960, 2]

    def test_synthetic_store_bytes_are_pinned(self, tmp_path):
        # sha256 of the file the per-snapshot writer produced for this input
        path = tmp_path / "store.csv"
        write_snapshots_csv(path, generate_synthetic(7, 2, SyntheticConfig()))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "80fa0aa904dac9a68116d28147f4edac93dc7e57a4bedc77e98780d793f88d44"

    @settings(max_examples=500, deadline=None)
    @given(
        st.tuples(
            st.sampled_from([0, 1, 4, 1900, 1970, 2000, 2024, 2100, 9999]) | st.integers(0, 9999),
            st.sampled_from([0, 2, 12, 13]) | st.integers(0, 13),
            st.sampled_from([0, 28, 29, 30, 31, 32]) | st.integers(0, 32),
            st.sampled_from([0, 23, 24]) | st.integers(0, 24),
            st.sampled_from([0, 59, 60]) | st.integers(0, 60),
            st.sampled_from([0, 59, 60]) | st.integers(0, 60),
        ),
        st.none() | st.integers(0, 999_999),
        st.sampled_from(["Z", "+", "-"]),
        st.sampled_from([0, 23, 24]) | st.integers(0, 24),
        st.sampled_from([0, 59, 60]) | st.integers(0, 60),
        st.text(alphabet="0123456789-:T.+Z ", max_size=3),
        st.integers(0, 31),
    )
    @example((1900, 2, 29, 0, 0, 0), None, "Z", 0, 0, "", 0)  # a century, no leap year
    @example((2000, 2, 29, 23, 59, 59), 999_999, "-", 23, 59, "", 0)
    @example((0, 1, 1, 24, 0, 60), None, "+", 23, 60, "", 0)
    @example((1, 1, 1, 0, 0, 0), None, "+", 23, 59, "", 0)  # 0000-12-31 on the UTC clock
    def test_decoded_timestamps_are_what_fromisoformat_reads(self, fields, micro, sign, hours, minutes, noise, at):
        # fields on and past their ranges; a cell decodes to what
        # fromisoformat reads, or is left to it
        text = "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}".format(*fields)
        text += ("" if micro is None else f".{micro:06}") + ("Z" if sign == "Z" else f"{sign}{hours:02}:{minutes:02}")
        cells = [text, text[:at] + noise + text[at + len(noise) :]]
        data = np.frombuffer(",".join(cells).encode(), dtype=np.uint8)
        starts = np.array([0, len(text) + 1])
        utc_us, offset_us, decoded = depth_csv._decode_stamps(data, starts, starts + [len(cell) for cell in cells])
        read = []
        for cell, utc, offset, ok in zip(cells, utc_us.tolist(), offset_us.tolist(), decoded.tolist()):
            try:
                read.append(depth_csv._parse_timestamp(cell))
            except ValueError:
                read.append(None)
            if ok:
                assert (utc, offset) == read[-1], cell
        # the written form decodes whenever fromisoformat reads it, but for an
        # hour of 24 or a zone minute of 60, which some Pythons take
        if fields[3] <= 23 and minutes <= 59:
            assert decoded[0] == (read[0] is not None), text

@contextmanager
def parse_parts(cpus: int, block_bytes: int, scan_bytes: int = 1 << 16):
    """ingest_csv cuts a file into blocks after the first LF at or after each
    multiple of `block_bytes`, and parses them in runs on `cpus` usable CPUs."""
    with forked_parts(cpus, depth_csv, "_BLOCK_BYTES", block_bytes), pytest.MonkeyPatch.context() as patch:
        patch.setattr(depth_csv, "_SCAN_BYTES", scan_bytes)
        yield


def ingest_outcome(path):
    """What ingest_csv gives for `path`: its rows, timestamps as written
    (datetimes of one instant in two zones compare equal), values as bytes
    and the reject tally, or its ValueError's text."""
    try:
        result = ingest_csv(path)
    except ValueError as exc:
        return str(exc)
    frame = result.snapshots
    return [ts.isoformat() for ts in frame.timestamps], frame.values.tobytes(), result.row_errors


#: Cells float() takes but NumPy's reader must not see; cells both refuse
#: that hold only 0-9 . + - e E; and cells of other kinds. A row takes one in
#: its timestamp or a depth column.
ODD_CELLS = (
    ("1_0", " 5 ", "\xa05", "\u0665"),
    ("", "1e", "+", "."),
    ("nan", "inf", "1e999", "-0", "#", "\0"),
)


#: The line ends a raw file may use: LF, CRLF, both, a lone CR (to csv.reader
#: a line end, to the block path a reason to fall back) or all three.
LINE_ENDS = (("\n",), ("\r\n",), ("\n", "\r\n"), ("\r",), ("\n", "\r\n", "\r"))


@st.composite
def raw_depth_files(draw, odd_cells: bool = False, lone_cr: bool = True, quotes: bool = True) -> bytes:
    """Raw depth CSV: rows at unsorted times in a few zones, each clean or
    with one perfbench defect, maybe a quoted cell, which may be the last
    cell written with a line end inside its quotes, blank lines, and line
    ends of one of LINE_ENDS; with `odd_cells`, some rows hold one of
    ODD_CELLS. Without `lone_cr`, no file holds a CR but before an LF;
    without `quotes`, no file holds a quote."""
    ends = st.sampled_from(draw(st.sampled_from([end for end in LINE_ENDS if lone_cr or "\r" not in end])))
    lines = [HEADER]
    for second in draw(st.lists(st.integers(0, 7200), min_size=1, max_size=40)):
        zone = draw(st.sampled_from(["+00:00", "Z", "+02:00"]))
        cells = row((datetime(2024, 3, 4, 9, tzinfo=timezone.utc) + timedelta(seconds=second)).isoformat()).split(",")
        cells[0] = cells[0].replace("+00:00", zone)
        defect = draw(st.sampled_from([None, *DEFECTS]))
        if defect is not None:
            defect(cells)
        if odd_cells and draw(st.booleans()):
            column = draw(st.one_of(st.just(0), st.integers(1, len(cells) - 1)))
            cells[column] = draw(st.sampled_from([cell for kind in ODD_CELLS for cell in kind]))
        if quotes and draw(st.integers(0, 9)) == 0:
            # float() reads "1000\n" as 1000.0, so a row whose last cell holds its line end is valid
            column = draw(st.integers(0, len(cells) - 1))
            inside = draw(ends) if column == len(cells) - 1 and draw(st.booleans()) else ""
            cells[column] = f'"{cells[column]}{inside}"'
        lines.append(",".join(cells))
        lines += [""] * draw(st.integers(0, 1))
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1] + draw(st.one_of(st.just(""), ends))
    return text.encode("utf-8")


def range_rows(part) -> tuple:
    """A parser's result, its cells (a list of blocks or one block) as bytes, to compare."""
    utc_us, offset_us, blocks, errors = part
    return utc_us.tolist(), offset_us.tolist(), b"".join(block.tobytes() for block in blocks), errors


@contextmanager
def screened_reader():
    """np.loadtxt, failing when a line it is handed holds a byte other than
    0-9 . + - e E among its depth cells, those after its first comma."""
    loadtxt = np.loadtxt

    def screened(lines, *args, **kwargs):
        lines = list(lines)
        for line in lines:
            assert set(line.partition(",")[2]) <= set("0123456789.+-eE,"), line
        return loadtxt(lines, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", screened)
        yield


class TestIngestParts:
    """A file parsed in byte ranges, the first here and each other in a
    forked child, gives what one range gives."""

    @settings(max_examples=200, deadline=None)
    @given(raw_depth_files(odd_cells=True), st.integers(1, 6), st.integers(16, 2000))
    def test_block_path_is_the_csv_module_parse(self, tmp_path_factory, raw, cpus, block_bytes):
        # NumPy's reader sees only screened cells, and never a block without one:
        # its "input contained no data" warning is an error under filterwarnings.
        # Blocks of a few lines cut after an LF; a quote or a lone CR sends
        # the file to the csv module
        path = tmp_path_factory.mktemp("blocks") / "raw.csv"
        path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(depth_csv, "_parse_range", lambda *args: None)
            csv_module = ingest_outcome(path)
        with parse_parts(cpus, block_bytes), screened_reader():
            assert ingest_outcome(path) == csv_module
            # and every block in one part, which the block path certifies alike, before any check or sort
            part = depth_csv._parse_range(path, [block for run in depth_csv._byte_ranges(path) for block in run])
            if part is not None:
                assert range_rows(part) == range_rows(depth_csv._parse_rows(path))
        assert_no_child_left()

    @settings(max_examples=150, deadline=None)
    @given(raw_depth_files(odd_cells=True, lone_cr=False, quotes=False), st.integers(16, 2000))
    def test_every_lf_or_crlf_block_is_certified(self, tmp_path_factory, raw, block_bytes):
        # no quote, no lone CR, UTF-8 bytes and a good header: nothing leaves the block path
        path = tmp_path_factory.mktemp("certified") / "raw.csv"
        path.write_bytes(raw)
        with parse_parts(1, block_bytes), screened_reader():
            part = depth_csv._parse_range(path, [block for run in depth_csv._byte_ranges(path) for block in run])
        assert part is not None
        assert range_rows(part) == range_rows(depth_csv._parse_rows(path))

    @settings(max_examples=100, deadline=None)
    @given(raw_depth_files(odd_cells=True, lone_cr=False, quotes=False), st.integers(1, 6), st.integers(16, 2000), st.data())
    def test_one_lone_cr_anywhere_sends_the_file_to_the_csv_module(self, tmp_path_factory, raw, cpus, block_bytes, data):
        at = data.draw(st.integers(0, len(raw)))
        assume(raw[at : at + 1] != b"\n")
        assert depth_csv._block_rows(raw, header=True) is not None
        raw = raw[:at] + b"\r" + raw[at:]
        assert depth_csv._block_rows(raw, header=True) is None
        path = tmp_path_factory.mktemp("lone-cr") / "raw.csv"
        path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(depth_csv, "_parse_range", lambda *args: None)
            csv_module = ingest_outcome(path)
        with parse_parts(cpus, block_bytes):
            assert depth_csv._parse_range(path, [block for run in depth_csv._byte_ranges(path) for block in run]) is None
            assert ingest_outcome(path) == csv_module
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_benchmark_inputs_never_fall_back(self, tmp_path, monkeypatch, cpus):
        # the store write_snapshots_csv writes (CRLF), and perfbench's raw file
        # of the same rows (LF, a copy of some with each defect kind, some swapped)
        store, raw = tmp_path / "snapshots.csv", tmp_path / "raw.csv"
        write_snapshots_csv(store, generate_synthetic(3, 2, SyntheticConfig()))
        _, tally = write_raw_depth_csv(raw, 3, 2, SyntheticConfig())
        assert len(tally) == len(BOOK_CHECKS) + 2 and b"\r" not in raw.read_bytes()

        def fallen_back(path):
            raise AssertionError(f"{path} fell back to the csv module")

        monkeypatch.setattr(depth_csv, "_parse_rows", fallen_back)
        with parse_parts(cpus, block_bytes=1 << 16):
            assert [len(depth_csv._byte_ranges(path)) for path in (store, raw)] == [cpus, cpus]
            read = [ingest_outcome(path) for path in (store, raw)]
        assert read[0][:2] == read[1][:2] and read[0][2] == {} and read[1][2] == tally
        assert_no_child_left()

    @settings(max_examples=80, deadline=None)
    @given(raw_depth_files(), st.integers(16, 512), st.integers(1, 64))
    def test_blocks_are_cut_once_whatever_the_cpu_count(self, tmp_path_factory, raw, block_bytes, scan_bytes):
        # after the first LF at or after each multiple of block_bytes:
        # never between a \r and its \n
        path = tmp_path_factory.mktemp("cuts") / "raw.csv"
        path.write_bytes(raw)
        line_starts = [end.end() for end in re.finditer(rb"\n", raw)]
        cuts = sorted({0, len(raw)} | {min((s for s in line_starts if s > pos), default=len(raw))
                                        for pos in range(block_bytes, len(raw), block_bytes)})
        for cpus in range(1, 7):
            with parse_parts(cpus, block_bytes, scan_bytes):
                parts = depth_csv._byte_ranges(path)
            blocks = [block for part in parts for block in part]
            assert blocks == (list(zip(cuts, cuts[1:])) or [(0, 0)])
            assert all(raw[start - 1 : start + 1] != b"\r\n" for start, _ in blocks)
            assert all(part for part in parts) and len(parts) == min(cpus, max(1, len(blocks) // 2))

    @settings(max_examples=80, deadline=None)
    @given(raw_depth_files(), st.integers(2, 6), st.integers(16, 512))
    def test_split_parse_is_the_one_range_parse(self, tmp_path_factory, raw, cpus, block_bytes):
        path = tmp_path_factory.mktemp("parts") / "raw.csv"
        path.write_bytes(raw)
        one_range = ingest_outcome(path)
        with parse_parts(cpus, block_bytes):
            split = ingest_outcome(path)
        assert split == one_range
        assert_no_child_left()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda line: b"9" * (csv.field_size_limit() + 1) + line, "line {line}: field larger than field limit"),
            (lambda line: line[:30] + b"\0" + line[31:], None),  # csv splits a NUL: an unparseable row
            (lambda line: line[:30] + b"\xff" + line[31:], "'utf-8' codec can't decode byte 0xff in position"),
        ],
        ids=["oversized-field", "nul-byte", "not-utf-8"],
    )
    def test_a_defect_in_the_last_range_reads_as_in_one_range(self, tmp_path, damage, message):
        path = tmp_path / "raw.csv"
        write_snapshots_csv(path, generate_synthetic(3, 2, SyntheticConfig()))
        lines = path.read_bytes().splitlines(keepends=True)
        damaged = len(lines) - 20
        lines[damaged] = damage(lines[damaged])
        path.write_bytes(b"".join(lines))
        one_range = ingest_outcome(path)
        with parse_parts(cpus=2, block_bytes=1 << 16):
            parts = depth_csv._byte_ranges(path)
            split = ingest_outcome(path)
        assert len(parts) == 2 and parts[-1][0][0] < sum(map(len, lines[:damaged]))
        assert split == one_range
        if message is None:
            assert one_range[2] == {"unparseable row": 1}
        else:
            assert split.startswith(f"{path}: {message.format(line=damaged + 1)}")
        assert_no_child_left()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda lines: [b"time,stuff\n", *lines[1:]], "malformed header"),
            (lambda lines: [lines[0], b"9" * (csv.field_size_limit() + 1) + lines[1], *lines[2:]], "line 2: field larger"),
            (lambda lines: [lines[0], *(b"x\n" for _ in lines[1:])], "no valid rows"),
        ],
        ids=["bad-header", "oversized-field-in-range-0", "no-valid-rows"],
    )
    def test_no_child_outlives_a_failed_parse(self, tmp_path, damage, message):
        path = tmp_path / "raw.csv"
        write_snapshots_csv(path, generate_synthetic(3, 2, SyntheticConfig()))
        path.write_bytes(b"".join(damage(path.read_bytes().splitlines(keepends=True))))
        with parse_parts(cpus=4, block_bytes=1 << 12), pytest.raises(ValueError, match=message):
            ingest_csv(path)
        assert_no_child_left()

    def test_no_child_outlives_an_interrupt_or_a_failed_child(self, tmp_path, monkeypatch):
        path = tmp_path / "raw.csv"
        write_snapshots_csv(path, generate_synthetic(3, 2, SyntheticConfig()))
        parent, parse_range = os.getpid(), depth_csv._parse_range

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return parse_range(*args)

        def child_dies(*args):
            if os.getpid() != parent:
                os._exit(3)
            return parse_range(*args)

        def short_of_its_cells(path, blocks, out):
            # the head whole, then one cell of the part's, and exit code 0
            utc_us, offset_us, values, errors = parse_range(path, blocks)
            pickle.dump((utc_us, offset_us, errors), out, pickle.HIGHEST_PROTOCOL)
            out.write(values[0][:1].tobytes())
            out.flush()
            os._exit(0)

        fds = len(os.listdir("/proc/self/fd"))
        with parse_parts(cpus=4, block_bytes=1 << 12), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            part = depth_csv._byte_ranges(path)[1]
            named = f"^{path}: the parse of bytes {part[0][0]} to {part[-1][1]} ended"
            monkeypatch.setattr(depth_csv, "_parse_range", interrupted)
            with pytest.raises(KeyboardInterrupt):
                ingest_csv(path)
            assert_no_child_left()
            monkeypatch.setattr(depth_csv, "_parse_range", child_dies)
            with pytest.raises(ChildProcessError, match=f"{named} with exit code 3$"):
                ingest_csv(path)
            assert_no_child_left()
            monkeypatch.setattr(depth_csv, "_parse_range", parse_range)
            monkeypatch.setattr(depth_csv, "_send_part", short_of_its_cells)
            with pytest.raises(ChildProcessError, match=f"{named} short of its cells$"):
                ingest_csv(path)
            assert_no_child_left()
            gc.collect()
        # every spool closed, none left to a finalizer
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first-range", "middle-range", "last-range"])
    def test_a_quote_in_any_range_reads_as_in_one_range(self, tmp_path, at):
        lines = [HEADER, *(row((T0 + timedelta(seconds=k)).isoformat()) for k in range(200))]
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines), encoding="utf-8")
        with parse_parts(cpus=3, block_bytes=64):
            part = depth_csv._byte_ranges(path)[at]
            start, stop = part[0][0], part[-1][1]
            # a line in the middle of the range: its last cell, quoted with its line end inside
            quoted = np.searchsorted(np.cumsum([len(line) + 1 for line in lines]), (start + stop) // 2)
            lines[quoted] = lines[quoted].rpartition(",")[0] + ',"1000\n"'
            path.write_text("\n".join(lines), encoding="utf-8")
            parts = depth_csv._byte_ranges(path)
            split = ingest_outcome(path)
            assert len(parts) == 3 and parts[at][0][0] <= path.read_bytes().index(b'"') < parts[at][-1][1]
            assert depth_csv._parse_range(path, parts[at]) is None
        assert split == ingest_outcome(path)
        assert len(split[0]) == 200 and split[2] == {}
        assert_no_child_left()


def reference_store(path: Path, frame: BookFrame) -> None:
    """The store as a per-cell writer writes it: a finite integral value as
    an integer, any other as its repr, timestamps by datetime.isoformat."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(DEPTH_CSV_COLUMNS) + "\r\n")
        for ts, values in zip(frame.timestamps, frame.values.tolist()):
            cells = (str(int(x)) if math.isfinite(x) and x == math.trunc(x) else repr(x) for x in values)
            fh.write(f"{ts.isoformat()},{','.join(cells)}\r\n")


#: Volumes BookFrame admits, among them NaN, the infinities' positive one and -0.0.
ODD_VOLUMES = (1000.0, 0.5, math.nan, math.inf, 1e300, -0.0, 3.0, 5e-324, 2.0**63)


@st.composite
def depth_frames(draw, rows: int) -> BookFrame:
    """`rows` depth rows at rising times in a few zones, some with integral
    prices, some with ODD_VOLUMES."""
    stamps, values = [], []
    for k in range(rows):
        zone = timezone(timedelta(minutes=draw(st.sampled_from([0, 600, -90]))))
        micro = draw(st.sampled_from([0, 0, 250_000, 1]))
        stamps.append((T0 + timedelta(seconds=k, microseconds=micro)).astimezone(zone))
        integral = draw(st.booleans())
        row = make_row(mid=100.5 if integral else draw(st.sampled_from([100.0, 99.123456789, 1e6 + 0.25])),
                       spread=1.0 if integral else 0.1, step=1.0 if integral else 0.05)
        row[BID_VOLUMES] = draw(st.lists(st.sampled_from(ODD_VOLUMES), min_size=N_LEVELS, max_size=N_LEVELS))
        row[ASK_VOLUMES] = draw(st.lists(st.sampled_from(ODD_VOLUMES), min_size=N_LEVELS, max_size=N_LEVELS))
        values.append(row)
    return make_frame(stamps, values)


class TestStoreParts:
    """A store written in row ranges, the first here and each other in a
    forked child, is the one-range store byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 8), st.data())
    def test_parts_write_the_per_cell_bytes(self, tmp_path_factory, cpus, floor, data):
        rows = data.draw(st.sampled_from([0, 1, floor - 1, floor, 2 * floor - 1, 2 * floor, 4 * floor + 1]))
        frame = data.draw(depth_frames(max(rows, 0)))
        tmp = tmp_path_factory.mktemp("store")
        reference_store(tmp / "reference.csv", frame)
        with forked_parts(cpus, market_data, "_WRITE_PART_ROWS", floor), pytest.MonkeyPatch.context() as patch:
            patch.setattr(market_data, "_WRITE_BLOCK", 3)  # a part of several blocks
            write_snapshots_csv(tmp / "split.csv", frame)
        assert (tmp / "split.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
        assert_no_child_left()

    def test_fine_grid_splits_on_two_cpus_and_a_two_day_store_does_not(self, monkeypatch):
        from rlexec.parts import usable_parts

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rows = lambda days: len(generate_synthetic(1, days, SyntheticConfig()))  # noqa: E731
        assert (rows(30), rows(2)) == (14_400, 960)
        assert usable_parts(14_400, market_data._WRITE_PART_ROWS) == 2
        assert usable_parts(960, market_data._WRITE_PART_ROWS) == 1

    def test_a_child_that_dies_is_a_child_process_error_naming_the_file(self, tmp_path, monkeypatch):
        frame = generate_synthetic(3, 2, SyntheticConfig())
        path = tmp_path / "snapshots.csv"
        parent, write_rows = os.getpid(), market_data._write_store_rows

        def child_dies(*args):
            if os.getpid() != parent:
                os._exit(3)
            return write_rows(*args)

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return write_rows(*args)

        fds = len(os.listdir("/proc/self/fd"))
        with forked_parts(4, market_data, "_WRITE_PART_ROWS", 100), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for before in (None, b"an earlier export\r\n"):
                if before is not None:
                    path.write_bytes(before)
                monkeypatch.setattr(market_data, "_write_store_rows", child_dies)
                with pytest.raises(ChildProcessError, match=f"^{path}: writing part 2 of 4 ended with exit code 3$"):
                    write_snapshots_csv(path, frame)
                assert_no_child_left()
                monkeypatch.setattr(market_data, "_write_store_rows", interrupted)
                with pytest.raises(KeyboardInterrupt):
                    write_snapshots_csv(path, frame)
                assert_no_child_left()
                # no part of the export at `path` or beside it: a fresh directory stays empty
                assert [(p.name, p.read_bytes()) for p in tmp_path.iterdir()] == ([] if before is None else [(path.name, before)])
            gc.collect()
        # every spool closed, none left to a finalizer
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_a_child_process_error_is_an_io_error_of_the_stage(self, tmp_path, capsys, monkeypatch):
        from rlexec import cli

        parent, write_rows = os.getpid(), market_data._write_store_rows

        def child_dies(*args):
            if os.getpid() != parent:
                os._exit(3)
            write_rows(*args)

        monkeypatch.setattr(market_data, "_write_store_rows", child_dies)
        with forked_parts(2, market_data, "_WRITE_PART_ROWS", 100):
            code = cli.main(["ingest", "--days", "2", "--split", "2024-01-02T00:00:00+00:00", "--out", str(tmp_path)])
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (code, error["error"]) == (3, "io-error")
        assert error["message"] == f"{tmp_path / 'snapshots.csv'}: writing part 2 of 2 ended with exit code 3"
        assert_no_child_left()


class TestAggregate:
    def test_single_snapshot_bar_equals_snapshot(self):
        row = make_row()
        (bar,) = aggregate_intervals(make_frame([T0], [row]), 300.0)
        assert np.array_equal(bar.row, row)
        assert np.array_equal(bar.levels[0], row[ASK_PRICES])
        assert np.array_equal(replace(bar, side=Side.SELL).levels[1], row[BID_VOLUMES])
        assert bar.n_snapshots == 1
        assert bar.hour == 10

    def test_two_snapshot_mean(self):
        frame = make_frame([T0, T0 + timedelta(seconds=60)], [make_row(mid=100.0), make_row(mid=102.0)])
        (bar,) = aggregate_intervals(frame, 300.0)
        assert bar.levels[0][0] == pytest.approx(101.05)
        assert bar.mid == pytest.approx(101.0)

    def test_random_hour_matches_bruteforce_grouping(self):
        rng = np.random.default_rng(42)
        snaps = []
        for _ in range(1000):
            offset = float(rng.uniform(0, 3600))
            row = make_row(mid=float(rng.uniform(95, 105)), level_volume=float(rng.integers(100, 9000)))
            snaps.append((T0 + timedelta(seconds=offset), row))
        snaps.sort(key=lambda s: s[0])
        bars = aggregate_intervals(make_frame(*zip(*snaps)), 300.0)
        assert len(bars) == 12

        # brute-force oracle: group by floor(epoch / tau) and average
        groups = defaultdict(list)
        for ts, row in snaps:
            groups[math.floor(ts.timestamp() / 300.0)].append(row)
        assert len(groups) == len(bars)
        for bar in bars:
            key = math.floor(bar.start / 300.0)
            members = groups[key]
            assert bar.n_snapshots == len(members)
            expected_ask = np.mean([m[ASK_PRICES] for m in members], axis=0)
            expected_vol = np.mean([m[ASK_VOLUMES] for m in members], axis=0)
            prices, volumes = bar.levels
            assert np.allclose(prices, expected_ask, rtol=0, atol=1e-12)
            assert np.allclose(volumes, expected_vol, rtol=0, atol=1e-12)

    def test_count_conservation(self):
        rng = np.random.default_rng(5)
        stamps = sorted(T0 + timedelta(seconds=float(rng.uniform(0, 7200))) for _ in range(333))
        bars = aggregate_intervals(make_frame(stamps, [make_row()] * len(stamps)), 300.0)
        assert sum(b.n_snapshots for b in bars) == len(stamps)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            aggregate_intervals(make_frame([], []), 300.0)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            aggregate_intervals(make_frame([T0], [make_row()]), 0.0)

    def test_tau_too_short_for_the_epoch_grid(self):
        # epoch / 5e-324 overflows, so no bar start would be finite
        with pytest.raises(ValueError, match="too short"):
            aggregate_intervals(make_frame([T0], [make_row()]), 5e-324)

    def test_far_starts_are_datetime_epochs(self):
        # past 2**53 microseconds an int64 to float64 division rounds twice,
        # and would read 173069044958.99905 for this instant
        far = datetime(7454, 5, 4, 22, 42, 38, 999029, tzinfo=timezone.utc)
        (bar,) = aggregate_intervals(make_frame([far], [make_row()]), 1e-5)
        assert bar.start == math.floor(far.timestamp() / 1e-5) * 1e-5

    def test_quote_volume_follows_side(self):
        row = make_row()
        row[ASK_VOLUMES.start] = 700.0
        frame = make_frame([T0], [row])
        (buy_bar,) = aggregate_intervals(frame, 300.0)
        (sell_bar,) = replace(aggregate_intervals(frame, 300.0), side=Side.SELL)
        assert buy_bar.side is Side.BUY
        assert buy_bar.quote_volume == 700.0
        assert sell_bar.quote_volume == row[BID_VOLUMES.start] == 5000.0

    def test_deterministic(self):
        snaps = make_frame(
            [T0 + timedelta(seconds=17 * k) for k in range(50)], [make_row(mid=100 + 0.01 * k) for k in range(50)]
        )
        a = aggregate_intervals(snaps, 300.0)
        b = aggregate_intervals(snaps, 300.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.start == y.start
            assert np.array_equal(x.row, y.row)
            assert x.spread == y.spread


    def test_unsorted_two_offsets_match_mean_bit_for_bit(self):
        # oracle: group in input order, np.mean(axis=0) per group; the bar's
        # start carries the tz most of the group's members carry, a tie going
        # to the tied tz whose first member comes first in input order
        rng = np.random.default_rng(11)
        zones = (timezone.utc, timezone(timedelta(hours=2)))
        snaps = [
            (
                (T0 + timedelta(seconds=float(rng.uniform(0, 7200)))).astimezone(zones[rng.integers(2)]),
                make_row(
                    mid=float(rng.uniform(95, 105)),
                    spread=float(rng.uniform(0.01, 0.3)),
                    level_volume=float(rng.uniform(1, 9000)),
                ),
            )
            for _ in range(2000)
        ]
        # alone in its bar: np.mean sums onto +0.0, so its -0.0 volumes average to +0.0
        snaps.append((T0 + timedelta(hours=3), make_row(level_volume=-0.0)))
        bars = replace(aggregate_intervals(make_frame(*zip(*snaps)), 300.0), side=Side.SELL)

        groups = defaultdict(list)
        for ts, row in snaps:
            groups[math.floor(ts.timestamp() / 300.0) * 300.0].append((ts, row))
        assert bars.start.tolist() == sorted(groups)
        for bar in bars:
            members = groups[bar.start]
            tally = Counter(ts.utcoffset() for ts, _ in members)  # most_common breaks ties by first occurrence
            assert bar.utc_offset == tally.most_common(1)[0][0].total_seconds()
            assert bar.n_snapshots == len(members)
            buy, sell = replace(bar, side=Side.BUY).levels, bar.levels
            for got, levels in (
                (sell[0], BID_PRICES),
                (sell[1], BID_VOLUMES),
                (buy[0], ASK_PRICES),
                (buy[1], ASK_VOLUMES),
            ):
                want = np.mean([row[levels] for _, row in members], axis=0)
                assert got.tobytes() == want.tobytes()
                assert bar.row[levels].tobytes() == want.tobytes()
            assert bar.quote_volume == sell[1][0]


@st.composite
def zone_votes(draw):
    """Snapshots over a few bars, each stamped in one of three zones, so
    bars have clear majorities and ties of two or three zones; and a tau."""
    zones = (timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5, minutes=-30)))
    tau = draw(st.sampled_from([60.0, 300.0, 1234.567]))
    stamps = [
        (T0 + timedelta(seconds=draw(st.floats(0.0, 4 * tau, exclude_max=True)))).astimezone(draw(st.sampled_from(zones)))
        for _ in range(draw(st.integers(1, 40)))
    ]
    return make_frame(stamps, [make_row()] * len(stamps)), tau


class TestBarOffset:
    @settings(max_examples=200, deadline=None)
    @given(zone_votes())
    def test_majority_offset_matches_a_counter_reference(self, drawn):
        # reference: per bar, Counter over its snapshots' offsets in input
        # order; most_common lists equal counts in first-occurrence order
        frame, tau = drawn
        members = defaultdict(list)
        for ts in frame.timestamps:
            members[math.floor(ts.timestamp() / tau) * tau].append(ts.utcoffset().total_seconds())
        want = [Counter(members[start]).most_common(1)[0][0] for start in sorted(members)]
        assert aggregate_intervals(frame, tau).utc_offset.tolist() == want


SOURCE_SHA256 = hashlib.sha256(b"store").hexdigest()


@st.composite
def mixed_zone_frames(draw):
    """Unsorted snapshots over two hours, each stamped in UTC or +02:00."""
    zones = (timezone.utc, timezone(timedelta(hours=2)))
    stamps, rows = [], []
    for _ in range(draw(st.integers(1, 30))):
        offset = draw(st.floats(0.0, 7200.0, exclude_max=True))
        stamps.append((T0 + timedelta(seconds=offset)).astimezone(draw(st.sampled_from(zones))))
        rows.append(
            make_row(
                mid=draw(st.floats(50.0, 150.0)),
                spread=draw(st.floats(0.01, 0.5)),
                level_volume=draw(st.sampled_from([-0.0, 1.0, 333.0, 5000.5])),
            )
        )
    return make_frame(stamps, rows)


class TestSavedBars:
    @settings(max_examples=150, deadline=None)
    @given(mixed_zone_frames(), st.sampled_from([7.5, 60.0, 300.0, 1234.567]))
    def test_load_gives_the_aggregated_bars(self, tmp_path_factory, frame, tau):
        path = tmp_path_factory.mktemp("bars") / "bars.npz"
        save_bars(path, aggregate_intervals(frame, tau), SOURCE_SHA256)
        for side in Side:
            want = replace(aggregate_intervals(frame, tau), side=side)
            got = load_bars(path, tau, SOURCE_SHA256, side)
            assert (got.tau, got.side) == (want.tau, want.side) == (tau, side)
            for column in ("start", "utc_offset", "n_snapshots", "row", "hour", "day", "spread", "quote_volume"):
                a, b = getattr(got, column), getattr(want, column)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column


ZONES = (timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5)))
DAY0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


@st.composite
def clock_frames(draw):
    """Sorted snapshots of one to three 20:00-04:00 UTC sessions, one or two
    per bar interval, each stamped in UTC, +02:00 or -05:00, with intervals
    and whole hours dropped; so local days change inside a session, and
    some lack a given hour. Returns the frame and its bar length."""
    tau = draw(st.sampled_from([600.0, 900.0, 1234.567]))
    slots = int(8 * 3600 // tau)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stamps, rows = [], []
    for day in range(draw(st.integers(1, 3))):
        session = DAY0 + timedelta(days=day, hours=20)
        dropped = draw(st.sets(st.integers(0, slots - 1), max_size=slots // 8))
        dropped_hours = draw(st.sets(st.integers(0, 7), max_size=2))
        zones = draw(st.lists(st.sampled_from(ZONES), min_size=2 * slots, max_size=2 * slots))
        for k in range(slots):
            if k in dropped or int(k * tau // 3600) in dropped_hours:
                continue
            for s in range(1 + k % 2):
                stamps.append((session + timedelta(seconds=k * tau + s * tau / 3)).astimezone(zones[2 * k + s]))
                rows.append(make_row(mid=float(rng.uniform(95, 105)), spread=float(rng.uniform(0.01, 0.3))))
    return make_frame(stamps, rows), tau


def reference_windows(starts: list[datetime], hour: int, periods: int, tau: float):
    """day_windows over datetime starts, as (day, bar indices) windows and
    skipped days: the per-bar loop the column arithmetic replaced."""
    by_day = defaultdict(list)
    for k, start in enumerate(starts):
        by_day[start.date()].append(k)
    windows, skipped = [], []
    for day in sorted(by_day):
        ks = sorted(by_day[day], key=starts.__getitem__)
        anchor = next((i for i, k in enumerate(ks) if starts[k].hour == hour), None)
        if anchor is None:
            skipped.append((day, f"no bars at hour {hour}"))
        elif anchor + periods > len(ks):
            skipped.append((day, f"fewer than {periods} bars from hour {hour}"))
        elif any(starts[ks[anchor + i]] != starts[ks[anchor + i - 1]] + timedelta(seconds=tau) for i in range(1, periods)):
            skipped.append((day, "gap inside window"))
        else:
            windows.append((day, ks[anchor : anchor + periods]))
    return windows, skipped


class TestBarClock:
    """Hour, local day, gaps and the split from the columns equal a loop over
    each bar's start as a datetime in its own zone."""

    @settings(max_examples=60, deadline=None)
    @given(
        clock_frames(),
        st.integers(0, 23),
        st.integers(1, 4),
        st.sampled_from(list(Side)),
        st.integers(0, 4 * 24),
        st.sampled_from(ZONES),
    )
    def test_columns_match_a_datetime_reference(self, tmp_path_factory, drawn, hour, periods, side, boundary_hour, zone):
        frame, tau = drawn
        bars = replace(aggregate_intervals(frame, tau), side=side)
        starts = [
            datetime.fromtimestamp(start, timezone(timedelta(seconds=offset)))
            for start, offset in zip(bars.start.tolist(), bars.utc_offset.tolist())
        ]

        # the split, as the stages load it
        boundary = (DAY0 + timedelta(hours=boundary_hour)).astimezone(zone)
        out = tmp_path_factory.mktemp("split")
        save_bars(out / "bars.npz", bars, SOURCE_SHA256)
        (out / "ingest_meta.json").write_text(json.dumps({"sha256": SOURCE_SHA256}), encoding="utf-8")
        cfg = ExperimentConfig(split=boundary.isoformat(), tau=tau, side=side.value, out=str(out))
        training = [start < boundary for start in starts]
        if any(training) and not all(training):
            got = _load_split(cfg)
            assert [part.start.tolist() for part in got] == [bars.start[np.array(training) == t].tolist() for t in (True, False)]
        else:
            with pytest.raises(ValueError, match="no (training|testing) bars"):
                _load_split(cfg)

        # build_distributions' per-hour samples
        spreads, volumes = defaultdict(list), defaultdict(list)
        for k, start in enumerate(starts):
            spreads[start.hour].append(bars.spread[k])
            volumes[start.hour].append(bars.quote_volume[k])
        dists = build_distributions(bars)
        assert list(dists) == sorted(spreads)
        for h, dist in dists.items():
            assert dist.spread_samples.tolist() == sorted(spreads[h])
            assert dist.volume_samples.tolist() == sorted(volumes[h])

        # day_windows' days, window starts and skip reasons
        windows, skipped = day_windows(bars, hour, periods)
        want, want_skipped = reference_windows(starts, hour, periods, tau)
        assert skipped == want_skipped
        assert windows.day[:, 0].tolist() == [day for day, _ in want]
        assert windows.start.tolist() == [bars.start[ks].tolist() for _, ks in want]

        # calibrate's sigma over bars that follow one another by tau
        diffs = [
            bars.mid[k + 1] - bars.mid[k]
            for k in range(len(bars) - 1)
            if starts[k + 1] - starts[k] == timedelta(seconds=tau)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a flat impact fit floors eta
            if diffs:
                assert calibrate(bars, 0.01, 1000, 2).sigma == float(np.std(diffs))
            else:
                with pytest.raises(ValueError):
                    calibrate(bars, 0.01, 1000, 2)


class TestLoadNpz:
    SPEC = {"a": Field("float64", ("n",)), "b": Field("int64", ("n", 2))}

    def refused(self, path, spec=SPEC, dims=None) -> str:
        with pytest.raises(ValueError) as info:
            _load_npz(path, spec, dims or {})
        assert str(info.value).startswith(f"{path}: ")
        return str(info.value)

    def test_named_dimension_is_read_from_the_first_array_naming_it(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.arange(3.0), b=np.zeros((3, 2), dtype=np.int64), extra=np.zeros(5))
        arrays = _load_npz(path, self.SPEC, {})
        assert sorted(arrays) == ["a", "b"]
        assert arrays["a"].tolist() == [0.0, 1.0, 2.0]

    def test_named_dimension_must_agree_across_arrays(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.arange(3.0), b=np.zeros((4, 2), dtype=np.int64))
        assert "array 'b' has dtype int64 and shape (4, 2), not int64 and (3, 2)" in self.refused(path)

    def test_a_dimension_the_caller_gives_is_not_bound_by_the_file(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.arange(3.0), b=np.zeros((3, 2), dtype=np.int64))
        assert "array 'a' has dtype float64 and shape (3,), not float64 and (4,)" in self.refused(path, dims={"n": 4})

    def test_finiteness_and_least_value_are_checked(self, tmp_path):
        path = tmp_path / "x.npz"
        spec = {"a": Field("float64", ("n",), finite=True), "b": Field("int64", ("n", 2), low=0)}
        np.savez(path, a=np.array([0.0, -np.inf]), b=np.zeros((2, 2), dtype=np.int64))
        assert "array 'a' holds a non-finite value" in self.refused(path, spec)
        np.savez(path, a=np.zeros(2), b=np.array([[0, 0], [0, -1]]))
        assert "array 'b' holds a value below 0" in self.refused(path, spec)
        np.savez(path, a=np.array([np.nan, 0.0]), b=np.zeros((2, 2), dtype=np.int64))
        assert sorted(_load_npz(path, self.SPEC, {})) == ["a", "b"]  # neither is checked unless declared

    def test_dtype_kind_is_checked(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.arange(3), b=np.zeros((3, 2), dtype=np.int64))
        assert "array 'a' has dtype int64 and shape (3,)" in self.refused(path)

    def test_exact_dtype_is_checked(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.arange(3.0, dtype=np.float32), b=np.zeros((3, 2), dtype=np.int64))
        assert "array 'a' has dtype float32 and shape (3,)" in self.refused(path)
        np.savez(path, a=np.arange(3.0), b=np.zeros((3, 2), dtype=np.int32))
        assert "array 'b' has dtype int32 and shape (3, 2)" in self.refused(path)

    @pytest.mark.parametrize("write_header", ["write_array_header_1_0", "write_array_header_2_0"])
    def test_oversized_header_is_refused_before_allocation(self, tmp_path, write_header):
        path = tmp_path / "x.npz"
        header = io.BytesIO()
        getattr(np.lib.format, write_header)(header, {"descr": "<f8", "fortran_order": False, "shape": (10**12,)})
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("a.npy", header.getvalue() + bytes(64))
            zf.writestr("b.npy", b"")
        assert "unreadable .npz file: array 'a' of shape (1000000000000,) needs more than the file's" in self.refused(path)

    def test_a_plain_npy_is_not_an_npz_archive(self, tmp_path):
        path = tmp_path / "x.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.arange(3.0))
        assert "unreadable .npz file: File is not a zip file" in self.refused(path)

    def test_an_object_array_is_refused_without_unpickling(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.array([{"x": 1}, None], dtype=object), b=np.zeros((2, 2), dtype=np.int64))
        assert "unreadable .npz file: Object arrays cannot be loaded when allow_pickle=False" in self.refused(path)

    def test_a_member_not_saved_as_npy_is_unreadable(self, tmp_path):
        path = tmp_path / "x.npz"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("a", b"raw bytes")
            zf.writestr("b.npy", b"")
        assert "unreadable .npz file: " in self.refused(path)


class TestDistributions:
    def test_single_hour_key(self):
        bars = make_bar_sequence(5, start=T0.replace(hour=9))
        dists = build_distributions(bars)
        assert sorted(dists) == [9]

    def test_membership(self):
        bars = make_bar_sequence(1, spread=0.05)
        bar = bars[0]
        dists = build_distributions(bars)
        assert bar.spread in dists[10].spread_samples
        assert bar.spread == pytest.approx(0.05)

    def test_per_hour_counts_match_tally(self):
        rng = np.random.default_rng(11)
        hours = rng.integers(9, 17, size=100).tolist()
        bars = make_bars([make_row(spread=float(rng.uniform(0.01, 0.5))) for _ in hours])
        bars.start[:] = [T0.replace(hour=hour).timestamp() for hour in hours]
        tally = defaultdict(int)
        for hour in hours:
            tally[hour] += 1
        dists = build_distributions(bars)
        assert sorted(dists) == sorted(tally)
        for hour, dist in dists.items():
            assert len(dist.spread_samples) == tally[hour]
            assert len(dist.volume_samples) == tally[hour]
            assert np.all(np.diff(dist.spread_samples) >= 0)

    def test_empty_bars(self):
        with pytest.raises(ValueError):
            build_distributions(make_bar_sequence(0))


class TestMedian:
    def test_matches_numpy_bit_for_bit(self):
        # odd and even lengths; the specials put signed zeros, infinities and
        # NaNs (which must give NaN) among the middle values
        rng = np.random.default_rng(17)
        specials = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1 / 3])
        for n in range(1, 41):
            for _ in range(25):
                for values in (rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6), rng.choice(specials, n)):
                    with np.errstate(all="ignore"):
                        want = np.float64(np.median(values)).tobytes()
                        assert np.float64(_median(values)).tobytes() == want
                        assert np.float64(_median(values.tolist())).tobytes() == want

    def test_a_nan_anywhere_gives_nan(self):
        for n in (1, 2, 5, 6):
            for at in range(n):
                values = np.arange(float(n))
                values[at] = np.nan
                assert math.isnan(_median(values))


class TestPercentile:
    def dist(self, samples) -> np.ndarray:
        """The sorted samples bucket_of takes."""
        return np.sort(np.asarray(samples, dtype=float))

    def test_below_all_clamps_to_one_over_n(self):
        # the percentile clamps to 1/n, not the bucket to 1: with 8 buckets
        # over 4 samples a value below them all lands where the minimum does
        d = self.dist([1.0, 2.0, 3.0, 4.0])
        assert bucket_of(d, 0.5, 4) == 1
        assert bucket_of(d, 0.5, 8) == 2 == bucket_of(d, 1.0, 8)

    def test_at_maximum_is_one(self):
        # percentile one at (and above) the maximum: the top bucket
        d = self.dist([1.0, 2.0, 3.0, 4.0])
        for buckets in (1, 2, 3, 5, 10):
            assert bucket_of(d, 4.0, buckets) == buckets
            assert bucket_of(d, 9.0, buckets) == buckets

    def test_median_order_statistic(self):
        samples = np.arange(1.0, 101.0)  # 1..100
        d = self.dist(samples)
        assert bucket_of(d, 50.0, 100) == 50
        assert bucket_of(d, 50.5, 2) == 1  # 50 of 100 at or below
        assert bucket_of(d, 51.0, 2) == 2

    def test_monotone_and_in_range(self):
        rng = np.random.default_rng(3)
        d = self.dist(np.sort(rng.uniform(0, 1, size=57)))
        values = np.sort(rng.uniform(-0.5, 1.5, size=200))
        buckets = [bucket_of(d, v, 5) for v in values]
        assert all(1 <= b <= 5 for b in buckets)
        assert all(b >= a for a, b in zip(buckets, buckets[1:]))
        assert buckets[0] == 1 and buckets[-1] == 5

    def test_rank_consistency_with_naive_count(self):
        # with one bucket per sample the bucket is the value's rank
        rng = np.random.default_rng(9)
        samples = rng.uniform(0, 10, size=83)
        d = self.dist(samples)
        for value in samples[:25]:
            naive = sum(1 for s in samples if s <= value)
            assert bucket_of(d, value, len(samples)) == naive

    def test_bucket_matches_exact_ceiling(self):
        rng = np.random.default_rng(21)
        samples = rng.uniform(0, 1, size=60)
        d = self.dist(samples)
        for buckets in (2, 3, 5, 10):
            for value in rng.uniform(-0.1, 1.1, size=50):
                count = max(int(np.sum(np.sort(samples) <= value)), 1)
                expected = math.ceil(Fraction(count * buckets, 60))
                got = bucket_of(d, float(value), buckets)
                assert got == expected
                assert 1 <= got <= buckets

    @settings(max_examples=300, deadline=None)
    @given(
        samples=st.lists(st.integers(0, 20).map(lambda k: k / 4), min_size=1, max_size=40),
        extra=st.lists(st.floats(-10.0, 10.0), max_size=20),
        buckets=st.integers(1, 50),
    )
    def test_array_call_is_a_total_map_matching_the_integer_formula(self, samples, extra, buckets):
        # values below the minimum, above the maximum, on every sample (ties
        # included, the grid is coarse) and in between
        d = self.dist(samples)
        values = np.array([min(samples) - 1.0, max(samples) + 1.0, *samples, *extra])
        got = bucket_of(d, values, buckets)
        assert got.shape == values.shape
        for value, bucket in zip(values.tolist(), got.tolist()):
            count = max(sum(1 for x in samples if x <= value), 1)
            assert bucket == math.ceil(Fraction(count * buckets, len(samples)))
            assert bucket == bucket_of(d, value, buckets)
            assert 1 <= bucket <= buckets

    def test_state_buckets_match_per_bar_calls(self):
        # a (days, periods) stack over three hours, one of them without a
        # distribution: its bars take bucket 0
        rng = np.random.default_rng(12)
        bars = make_bars([make_row(spread=float(s), level_volume=float(v)) for s, v in zip(rng.uniform(0.01, 0.3, 36), rng.integers(1, 9000, 36))])
        bars = bars[np.arange(36).reshape(3, 12)]  # 10:00 to 12:55 in 5-minute bars
        dists = {
            10: HistoricalDistribution(rng.uniform(0.01, 0.3, 17), rng.integers(1, 9000, 17)),
            12: HistoricalDistribution(rng.uniform(0.01, 0.3, 5), rng.integers(1, 9000, 5)),
        }
        spread, volume = state_buckets(bars, dists, 4, 3)
        for index in np.ndindex(bars.start.shape):
            dist = dists.get(int(bars.hour[index]))
            assert spread[index] == (0 if dist is None else bucket_of(dist.spread_samples, bars.spread[index], 4))
            assert volume[index] == (0 if dist is None else bucket_of(dist.volume_samples, bars.quote_volume[index], 3))
        assert (spread == 0).sum() == 12

    def test_bucket_arithmetic_stays_within_int64(self):
        # the same bound as the inventory buckets: n * (buckets + 1) <= 2**63
        d = self.dist([1.0, 2.0, 3.0, 4.0])
        assert bucket_of(d, np.array([0.0, 2.0, 9.0]), 2**61 - 1).tolist() == [2**59, 2**60, 2**61 - 1]
        with pytest.raises(ValueError, match="overflow int64"):
            bucket_of(d, 1.0, 2**61)

    def test_empty_distribution(self):
        d = HistoricalDistribution(spread_samples=np.array([]), volume_samples=np.array([1.0]))
        with pytest.raises(ValueError, match="empty"):
            bucket_of(d.spread_samples, 1.0, 3)



class TestDayWindows:
    def test_window_at_hour(self):
        bars = make_bar_sequence(16, start=T0.replace(hour=9))
        windows, skipped = day_windows(bars, 10, 4)
        assert not skipped
        assert windows.start.shape == (1, 4)
        assert windows.start[0, 0] == T0.timestamp()  # 10:00
        assert windows.hour[0].tolist() == [10] * 4

    def test_gap_skips_day(self):
        bars = make_bar_sequence(6, start=T0)[[0, 1, 3, 4, 5]]
        windows, skipped = day_windows(bars, 10, 4)
        assert not windows
        assert skipped and skipped[0][1] == "gap inside window"

    def test_short_day_skips(self):
        bars = make_bar_sequence(2, start=T0)
        windows, skipped = day_windows(bars, 10, 4)
        assert not windows
        assert "fewer than 4 bars" in skipped[0][1]

    def test_missing_hour_skips(self):
        bars = make_bar_sequence(4, start=T0.replace(hour=9))
        windows, skipped = day_windows(bars, 14, 2)
        assert not windows
        assert "no bars at hour 14" in skipped[0][1]


def reference_synthetic(seed: int, days: int, cfg: SyntheticConfig) -> tuple[list[datetime], np.ndarray, list[float]]:
    """generate_synthetic as a per-snapshot loop making the RNG calls one at
    a time: the timestamps, the depth rows and the walking mid of each row."""
    rng = np.random.default_rng(seed)
    intervals_per_hour = int(round(3600.0 / cfg.tau))
    snap_step = cfg.tau / SNAPSHOTS_PER_INTERVAL
    step_sigma = cfg.walk_sigma / math.sqrt(SNAPSHOTS_PER_INTERVAL)
    offsets = np.arange(N_LEVELS, dtype=float)
    mid = cfg.base_price
    stamps, rows, mids = [], [], []
    for d in range(days):
        day_start = datetime.combine(START_DAY + timedelta(days=d), time(0), tzinfo=timezone.utc)
        for hour in SESSION_HOURS:
            for k in range(intervals_per_hour):
                regime = cfg.default_regime
                mixed = cfg.mixed_hours.get(hour)
                if mixed is not None and k >= mixed.lead_in:
                    regime = mixed.favorable if rng.random() < mixed.p_favorable else mixed.unfavorable
                t0 = day_start + timedelta(hours=hour, seconds=k * cfg.tau)
                for s in range(SNAPSHOTS_PER_INTERVAL):
                    mid = max(mid + rng.normal(0.0, step_sigma), 1.0)
                    spread = max(regime.spread + regime.spread_jitter * rng.uniform(-1.0, 1.0), 0.01)
                    half = 0.5 * spread
                    bid_v = regime.level_volume * (1.0 + regime.volume_jitter * rng.uniform(-1.0, 1.0, size=N_LEVELS))
                    ask_v = regime.level_volume * (1.0 + regime.volume_jitter * rng.uniform(-1.0, 1.0, size=N_LEVELS))
                    row = np.empty(4 * N_LEVELS)
                    row[BID_PRICES] = mid - half - regime.level_step * offsets
                    row[BID_VOLUMES] = np.maximum(np.rint(bid_v), 1.0)
                    row[ASK_PRICES] = mid + half + regime.level_step * offsets
                    row[ASK_VOLUMES] = np.maximum(np.rint(ask_v), 1.0)
                    stamps.append(t0 + timedelta(seconds=s * snap_step))
                    rows.append(row)
                    mids.append(mid)
    return stamps, np.array(rows).reshape(len(rows), 4 * N_LEVELS), mids


def _synthetic_markets() -> dict[str, SyntheticConfig]:
    planted = planted_regime_config(10)
    favorable, unfavorable = planted.mixed_hours[10].favorable, planted.mixed_hours[10].unfavorable
    calm = BookRegime(spread=0.08, level_volume=12000.0, level_step=0.04, spread_jitter=0.01, volume_jitter=0.1)
    stormy = BookRegime(spread=0.40, level_volume=2000.0, level_step=0.20, spread_jitter=0.03, volume_jitter=0.2)
    still = BookRegime(spread=0.20, level_volume=5000.0, level_step=0.10)
    return {
        "default only": SyntheticConfig(),
        "planted": planted,
        "never favorable": replace(planted, mixed_hours={10: MixedRegime(favorable, unfavorable, p_favorable=0.0)}),
        "always favorable": replace(planted, mixed_hours={10: MixedRegime(favorable, unfavorable, p_favorable=1.0)}),
        "two mixed hours": replace(
            planted,
            mixed_hours={
                9: MixedRegime(favorable, unfavorable, p_favorable=0.3, lead_in=0),
                14: MixedRegime(calm, stormy, p_favorable=0.7, lead_in=3),
            },
        ),
        "zero jitters": SyntheticConfig(
            default_regime=still, mixed_hours={12: MixedRegime(still, replace(still, spread=0.5))}
        ),
        "floored walk": SyntheticConfig(base_price=1.0, walk_sigma=5.0),
    }


SYNTHETIC_MARKETS = _synthetic_markets()


@st.composite
def synthetic_runs(draw) -> tuple[int, int, float]:
    """A seed, a day count and a tau. 7.5 s bars make 19,200 rows a day, which
    the reference loop takes most of a second over, so they run one day."""
    tau = draw(st.sampled_from([300.0, 60.0, 7.5, 1234.567]))
    return draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 1 if tau == 7.5 else 3)), tau


class TestSynthetic:
    @pytest.mark.parametrize("market", sorted(SYNTHETIC_MARKETS))
    @settings(max_examples=3, deadline=None)
    @given(synthetic_runs())
    def test_stream_matches_a_per_snapshot_loop_bit_for_bit(self, market, run):
        seed, days, tau = run
        cfg = replace(SYNTHETIC_MARKETS[market], tau=tau)
        stamps, values, mids = reference_synthetic(seed, days, cfg)
        frame = generate_synthetic(seed, days, cfg)
        assert frame.timestamps == stamps
        assert frame.values.tobytes() == values.tobytes()
        if market == "floored walk":
            # an example whose walk never comes back down to the floor (seed
            # 55927, 1 day, tau 1234.567) tests no clamp: it does not count
            assume(1.0 in mids)

    def test_same_seed_bitwise_identical(self):
        cfg = planted_regime_config(hour=10)
        a = generate_synthetic(123, days=2, config=cfg)
        b = generate_synthetic(123, days=2, config=cfg)
        assert a.timestamps == b.timestamps
        assert a.values.tobytes() == b.values.tobytes()

    def test_different_seed_differs(self):
        cfg = SyntheticConfig()
        a = generate_synthetic(1, days=1, config=cfg)
        b = generate_synthetic(2, days=1, config=cfg)
        assert not np.array_equal(a.values[:, ASK_PRICES], b.values[:, ASK_PRICES])

    def test_constant_spread_regime(self):
        cfg = SyntheticConfig(
            default_regime=BookRegime(spread=0.10, level_volume=500.0, level_step=0.05)
        )
        values = generate_synthetic(0, days=1, config=cfg).values
        spreads = values[:, ASK_PRICES.start] - values[:, BID_PRICES.start]
        assert np.allclose(spreads, 0.10, rtol=0, atol=1e-9)

    def test_runaway_store_is_refused_before_allocation(self):
        with pytest.raises(ValueError, match="synthetic rows, more than 1,000,000"):
            generate_synthetic(0, days=10**9, config=SyntheticConfig())
        with pytest.raises(ValueError, match="need inf synthetic rows"):
            generate_synthetic(0, days=1, config=SyntheticConfig(tau=5e-324))

    def test_mixed_hour_lead_in_keeps_default_book(self):
        cfg = planted_regime_config(hour=10)
        snaps = generate_synthetic(4, days=1, config=cfg)
        lead = [k for k, ts in enumerate(snaps.timestamps) if ts.hour == 10 and ts.minute < 5]
        values = snaps.values[lead]
        spreads = values[:, ASK_PRICES.start] - values[:, BID_PRICES.start]
        assert len(lead) == 5
        assert np.allclose(spreads, cfg.default_regime.spread, rtol=0, atol=1e-9)

    def test_days_validated(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, days=0, config=SyntheticConfig())
