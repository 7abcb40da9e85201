"""Ingestion, aggregation, distributions, and the synthetic generator."""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlexec.market_data import (
    BOOK_CHECKS,
    DEPTH_CSV_COLUMNS,
    BookFrame,
    BookRegime,
    BookSnapshot,
    DataSplit,
    HistoricalDistribution,
    MixedRegime,
    Side,
    SyntheticConfig,
    aggregate_intervals,
    bucket_of,
    build_distributions,
    day_windows,
    first_book_failure,
    generate_synthetic,
    ingest_csv,
    planted_regime_config,
    write_snapshots_csv,
)

from conftest import T0, make_bar, make_bar_sequence, make_snapshot

HEADER = ",".join(DEPTH_CSV_COLUMNS)


def row(ts: str, bid0: float = 99.95, ask0: float = 100.05) -> str:
    cells = [ts]
    for lvl in range(5):
        cells += [f"{bid0 - 0.05 * lvl:.2f}", "1000"]
    for lvl in range(5):
        cells += [f"{ask0 + 0.05 * lvl:.2f}", "1000"]
    return ",".join(cells)


class TestBookSnapshot:
    def test_rejects_crossed_book(self):
        with pytest.raises(ValueError, match="crossed"):
            make_snapshot(spread=-0.02)

    def test_rejects_naive_timestamp(self):
        with pytest.raises(ValueError, match="naive"):
            make_snapshot(ts=datetime(2024, 3, 4, 10, 0))

    def test_rejects_negative_volume(self):
        snap = make_snapshot()
        with pytest.raises(ValueError, match="negative volume"):
            BookSnapshot(
                timestamp=snap.timestamp,
                bid_prices=snap.bid_prices,
                bid_volumes=np.array([100.0, -1.0, 100.0, 100.0, 100.0]),
                ask_prices=snap.ask_prices,
                ask_volumes=snap.ask_volumes,
            )

    def test_rejects_unsorted_levels(self):
        snap = make_snapshot()
        with pytest.raises(ValueError, match="ascending"):
            BookSnapshot(
                timestamp=snap.timestamp,
                bid_prices=snap.bid_prices,
                bid_volumes=snap.bid_volumes,
                ask_prices=snap.ask_prices[::-1].copy(),
                ask_volumes=snap.ask_volumes,
            )


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
            snap = dict(
                timestamp=T0,
                bid_prices=r[0:10:2],
                bid_volumes=r[1:10:2],
                ask_prices=r[10:20:2],
                ask_volumes=r[11:20:2],
            )
            if code < 0:
                BookSnapshot(**snap)
            else:
                with pytest.raises(ValueError, match=BOOK_CHECKS[code]):
                    BookSnapshot(**snap)


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
        stamps = [s.timestamp for s in result.snapshots]
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
        assert [s.timestamp for s in result.snapshots] == expected

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
        snaps = [make_snapshot(ts=T0 + timedelta(seconds=30 * k)) for k in range(4)]
        path = tmp_path / "store.csv"
        write_snapshots_csv(path, BookFrame.from_snapshots(snaps))
        back = ingest_csv(path)
        assert len(back.snapshots) == 4
        for a, b in zip(snaps, back.snapshots):
            assert a.timestamp == b.timestamp
            assert np.array_equal(a.ask_prices, b.ask_prices)
            assert np.array_equal(a.bid_volumes, b.bid_volumes)


    def test_synthetic_store_bytes_are_pinned(self, tmp_path):
        # sha256 of the file the per-snapshot writer produced for this input
        path = tmp_path / "store.csv"
        write_snapshots_csv(path, generate_synthetic(7, 2))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "80fa0aa904dac9a68116d28147f4edac93dc7e57a4bedc77e98780d793f88d44"

class TestAggregate:
    def test_single_snapshot_bar_equals_snapshot(self):
        snap = make_snapshot()
        (bar,) = aggregate_intervals(BookFrame.from_snapshots([snap]), 300.0)
        assert np.array_equal(bar.avg_ask_prices, snap.ask_prices)
        assert np.array_equal(bar.avg_bid_volumes, snap.bid_volumes)
        assert bar.n_snapshots == 1
        assert bar.hour == 10

    def test_two_snapshot_mean(self):
        s1 = make_snapshot(mid=100.0, spread=0.10)
        s2 = make_snapshot(ts=T0 + timedelta(seconds=60), mid=102.0, spread=0.10)
        (bar,) = aggregate_intervals(BookFrame.from_snapshots([s1, s2]), 300.0)
        assert bar.avg_ask_prices[0] == pytest.approx(101.05)
        assert bar.mid == pytest.approx(101.0)

    def test_random_hour_matches_bruteforce_grouping(self):
        rng = np.random.default_rng(42)
        snaps = []
        for _ in range(1000):
            offset = float(rng.uniform(0, 3600))
            snaps.append(
                make_snapshot(
                    ts=T0 + timedelta(seconds=offset),
                    mid=float(rng.uniform(95, 105)),
                    level_volume=float(rng.integers(100, 9000)),
                )
            )
        snaps.sort(key=lambda s: s.timestamp)
        bars = aggregate_intervals(BookFrame.from_snapshots(snaps), 300.0)
        assert len(bars) == 12

        # brute-force oracle: group by floor(epoch / tau) and average
        groups = defaultdict(list)
        for snap in snaps:
            groups[math.floor(snap.timestamp.timestamp() / 300.0)].append(snap)
        assert len(groups) == len(bars)
        for bar in bars:
            key = math.floor(bar.start.timestamp() / 300.0)
            members = groups[key]
            assert bar.n_snapshots == len(members)
            expected_ask = np.mean([m.ask_prices for m in members], axis=0)
            expected_vol = np.mean([m.ask_volumes for m in members], axis=0)
            assert np.allclose(bar.avg_ask_prices, expected_ask, rtol=0, atol=1e-12)
            assert np.allclose(bar.avg_ask_volumes, expected_vol, rtol=0, atol=1e-12)

    def test_count_conservation(self):
        rng = np.random.default_rng(5)
        snaps = sorted(
            (
                make_snapshot(ts=T0 + timedelta(seconds=float(rng.uniform(0, 7200))))
                for _ in range(333)
            ),
            key=lambda s: s.timestamp,
        )
        bars = aggregate_intervals(BookFrame.from_snapshots(snaps), 300.0)
        assert sum(b.n_snapshots for b in bars) == len(snaps)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            aggregate_intervals(BookFrame.from_snapshots([]), 300.0)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            aggregate_intervals(BookFrame.from_snapshots([make_snapshot()]), 0.0)

    def test_quote_volume_follows_side(self):
        snap = make_snapshot()
        frame = BookFrame.from_snapshots([snap])
        (buy_bar,) = aggregate_intervals(frame, 300.0, side=Side.BUY)
        (sell_bar,) = aggregate_intervals(frame, 300.0, side=Side.SELL)
        assert buy_bar.quote_volume == snap.ask_volumes[0]
        assert sell_bar.quote_volume == snap.bid_volumes[0]

    def test_deterministic(self):
        snaps = BookFrame.from_snapshots(
            [make_snapshot(ts=T0 + timedelta(seconds=17 * k), mid=100 + 0.01 * k) for k in range(50)]
        )
        a = aggregate_intervals(snaps, 300.0)
        b = aggregate_intervals(snaps, 300.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.start == y.start
            assert np.array_equal(x.avg_ask_prices, y.avg_ask_prices)
            assert x.spread == y.spread


    def test_unsorted_two_offsets_match_mean_bit_for_bit(self):
        # oracle: group in input order, np.mean(axis=0) per group; the bar's
        # start carries the tz of the group's first member in input order
        rng = np.random.default_rng(11)
        zones = (timezone.utc, timezone(timedelta(hours=2)))
        snaps = [
            make_snapshot(
                ts=(T0 + timedelta(seconds=float(rng.uniform(0, 7200)))).astimezone(zones[rng.integers(2)]),
                mid=float(rng.uniform(95, 105)),
                spread=float(rng.uniform(0.01, 0.3)),
                level_volume=float(rng.uniform(1, 9000)),
            )
            for _ in range(2000)
        ]
        # alone in its bar: np.mean sums onto +0.0, so its -0.0 volumes average to +0.0
        snaps.append(make_snapshot(ts=T0 + timedelta(hours=3), level_volume=-0.0))
        bars = aggregate_intervals(BookFrame.from_snapshots(snaps), 300.0, side=Side.SELL)

        groups = defaultdict(list)
        for snap in snaps:
            groups[math.floor(snap.timestamp.timestamp() / 300.0) * 300.0].append(snap)
        assert [bar.start.timestamp() for bar in bars] == sorted(groups)
        for bar in bars:
            members = groups[bar.start.timestamp()]
            assert bar.start.tzinfo == members[0].timestamp.tzinfo
            assert bar.n_snapshots == len(members)
            for got, name in (
                (bar.avg_bid_prices, "bid_prices"),
                (bar.avg_bid_volumes, "bid_volumes"),
                (bar.avg_ask_prices, "ask_prices"),
                (bar.avg_ask_volumes, "ask_volumes"),
            ):
                want = np.mean([getattr(m, name) for m in members], axis=0)
                assert got.tobytes() == want.tobytes()
            assert bar.quote_volume == bar.avg_bid_volumes[0]

class TestDistributions:
    def test_single_hour_key(self):
        bars = make_bar_sequence(5, start=T0.replace(hour=9))
        dists = build_distributions(bars)
        assert sorted(dists) == [9]

    def test_membership(self):
        bar = make_bar(spread=0.05)
        dists = build_distributions([bar])
        assert bar.spread in dists[10].spread_samples
        assert bar.spread == pytest.approx(0.05)

    def test_per_hour_counts_match_tally(self):
        rng = np.random.default_rng(11)
        bars = []
        tally = defaultdict(int)
        for _ in range(100):
            hour = int(rng.integers(9, 17))
            bars.append(make_bar(start=T0.replace(hour=hour), spread=float(rng.uniform(0.01, 0.5))))
            tally[hour] += 1
        dists = build_distributions(bars)
        assert sorted(dists) == sorted(tally)
        for hour, dist in dists.items():
            assert len(dist.spread_samples) == tally[hour]
            assert len(dist.volume_samples) == tally[hour]
            assert np.all(np.diff(dist.spread_samples) >= 0)

    def test_empty_bars(self):
        with pytest.raises(ValueError):
            build_distributions([])


class TestPercentile:
    def dist(self, samples) -> HistoricalDistribution:
        return HistoricalDistribution(hour=10, spread_samples=np.asarray(samples, dtype=float), volume_samples=np.asarray(samples, dtype=float))

    def test_below_all_clamps_to_one_over_n(self):
        # the percentile clamps to 1/n, not the bucket to 1: with 8 buckets
        # over 4 samples a value below them all lands where the minimum does
        d = self.dist([1.0, 2.0, 3.0, 4.0])
        assert bucket_of(d, "spread", 0.5, 4) == 1
        assert bucket_of(d, "spread", 0.5, 8) == 2 == bucket_of(d, "spread", 1.0, 8)

    def test_at_maximum_is_one(self):
        # percentile one at (and above) the maximum: the top bucket
        d = self.dist([1.0, 2.0, 3.0, 4.0])
        for buckets in (1, 2, 3, 5, 10):
            assert bucket_of(d, "spread", 4.0, buckets) == buckets
            assert bucket_of(d, "spread", 9.0, buckets) == buckets

    def test_median_order_statistic(self):
        samples = np.arange(1.0, 101.0)  # 1..100
        d = self.dist(samples)
        assert bucket_of(d, "spread", 50.0, 100) == 50
        assert bucket_of(d, "spread", 50.5, 2) == 1  # 50 of 100 at or below
        assert bucket_of(d, "spread", 51.0, 2) == 2

    def test_monotone_and_in_range(self):
        rng = np.random.default_rng(3)
        d = self.dist(np.sort(rng.uniform(0, 1, size=57)))
        values = np.sort(rng.uniform(-0.5, 1.5, size=200))
        buckets = [bucket_of(d, "volume", v, 5) for v in values]
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
            assert bucket_of(d, "spread", value, len(samples)) == naive

    def test_bucket_matches_exact_ceiling(self):
        rng = np.random.default_rng(21)
        samples = rng.uniform(0, 1, size=60)
        d = self.dist(samples)
        for buckets in (2, 3, 5, 10):
            for value in rng.uniform(-0.1, 1.1, size=50):
                count = max(int(np.sum(np.sort(samples) <= value)), 1)
                expected = math.ceil(Fraction(count * buckets, 60))
                got = bucket_of(d, "spread", float(value), buckets)
                assert got == expected
                assert 1 <= got <= buckets

    def test_empty_distribution(self):
        d = HistoricalDistribution(hour=10, spread_samples=np.array([]), volume_samples=np.array([1.0]))
        with pytest.raises(ValueError, match="empty"):
            bucket_of(d, "spread", 1.0, 3)

    def test_unknown_field(self):
        d = self.dist([1.0])
        with pytest.raises(ValueError, match="unknown field"):
            bucket_of(d, "depth", 1.0, 3)


class TestDataSplit:
    def test_boundary_split(self):
        bars = make_bar_sequence(10)
        boundary = bars[6].start
        split = DataSplit.at_boundary(bars, boundary)
        assert len(split.training) == 6
        assert len(split.testing) == 4
        assert max(b.start for b in split.training) < min(b.start for b in split.testing)

    def test_overlap_rejected(self):
        bars = make_bar_sequence(4)
        with pytest.raises(ValueError, match="pre-date"):
            DataSplit(training=bars[1:], testing=bars[:1])


class TestDayWindows:
    def test_window_at_hour(self):
        bars = make_bar_sequence(16, start=T0.replace(hour=9))
        windows, skipped = day_windows(bars, 10, 4, 300.0)
        assert not skipped
        assert len(windows) == 1
        assert windows[0].bars[0].start.hour == 10
        assert windows[0].bars[0].start.minute == 0
        assert len(windows[0].bars) == 4

    def test_gap_skips_day(self):
        bars = make_bar_sequence(6, start=T0)
        del bars[2]
        windows, skipped = day_windows(bars, 10, 4, 300.0)
        assert not windows
        assert skipped and skipped[0][1] == "gap inside window"

    def test_short_day_skips(self):
        bars = make_bar_sequence(2, start=T0)
        windows, skipped = day_windows(bars, 10, 4, 300.0)
        assert not windows
        assert "fewer than 4 bars" in skipped[0][1]

    def test_missing_hour_skips(self):
        bars = make_bar_sequence(4, start=T0.replace(hour=9))
        windows, skipped = day_windows(bars, 14, 2, 300.0)
        assert not windows
        assert "no bars at hour 14" in skipped[0][1]


class TestSynthetic:
    def test_same_seed_bitwise_identical(self):
        cfg = planted_regime_config()
        a = generate_synthetic(123, days=2, config=cfg)
        b = generate_synthetic(123, days=2, config=cfg)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.timestamp == y.timestamp
            assert np.array_equal(x.bid_prices, y.bid_prices)
            assert np.array_equal(x.bid_volumes, y.bid_volumes)
            assert np.array_equal(x.ask_prices, y.ask_prices)
            assert np.array_equal(x.ask_volumes, y.ask_volumes)

    def test_different_seed_differs(self):
        cfg = SyntheticConfig()
        a = generate_synthetic(1, days=1, config=cfg)
        b = generate_synthetic(2, days=1, config=cfg)
        assert any(
            not np.array_equal(x.ask_prices, y.ask_prices) for x, y in zip(a, b)
        )

    def test_constant_spread_regime(self):
        cfg = SyntheticConfig(
            default_regime=BookRegime(spread=0.10, level_volume=500.0, level_step=0.05)
        )
        snaps = generate_synthetic(0, days=1, config=cfg)
        for snap in snaps:
            assert snap.ask_prices[0] - snap.bid_prices[0] == pytest.approx(0.10, abs=1e-9)

    def test_mixed_hour_lead_in_keeps_default_book(self):
        cfg = planted_regime_config(hour=10)
        snaps = generate_synthetic(4, days=1, config=cfg)
        lead = [
            s
            for s in snaps
            if s.timestamp.hour == 10 and s.timestamp.minute < 5
        ]
        default_spread = cfg.default_regime.spread
        for snap in lead:
            assert snap.ask_prices[0] - snap.bid_prices[0] == pytest.approx(default_spread, abs=1e-9)

    def test_days_validated(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, days=0)
