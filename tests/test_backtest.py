"""Day runs, paired statistics, and the report bundle."""

from __future__ import annotations

import csv
import statistics
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from rlexec.agent import QTable
from rlexec.backtest import (
    ISStatistics,
    compare,
    run_ac,
    run_rl,
    write_report,
    write_runs_csv,
)
from rlexec.config import ExperimentConfig
from rlexec.execution import ISRecord, walk_book
from rlexec.market_data import (
    Bars,
    Side,
    aggregate_intervals,
    build_distributions,
    generate_synthetic,
    planted_regime_config,
)

from conftest import T0, make_bar_sequence

BARS_COLUMNS = ("start", "utc_offset", "n_snapshots", "row")


def config(**kwargs) -> ExperimentConfig:
    base = dict(V=10000, T=4, H=10, I=2, B=3, W=3, tau=300.0, cap=0.2, side="buy")
    base.update(kwargs)
    return ExperimentConfig(**base)


def record_with_bps(bps: float) -> ISRecord:
    return ISRecord(
        reference_price=100.0,
        total_volume=100,
        executed=np.array([100.0]),
        vwap=np.array([100.0]),
        shortfall_bps=bps,
        unexecuted=0.0,
    )


def trading_day(n: int) -> date:
    """Fabricate the `date` key that `run_ac`/`run_rl` produce for a test day."""
    return date(2024, 5, 1) + timedelta(days=n)


class TestRunAC:
    def test_single_day(self):
        bars = make_bar_sequence(4, level_volume=20000.0)
        runs = run_ac(config(), bars, np.array([2500, 2500, 2500, 2500]))
        assert len(runs.records) == 1
        assert not runs.skipped

    def test_identical_books_replicate_single_walk(self):
        bars = make_bar_sequence(4, level_volume=20000.0)
        schedule = np.array([2500, 2500, 2500, 2500])
        runs = run_ac(config(cap=1.0), bars, schedule)
        (record,) = runs.records.values()
        fill = walk_book(*bars[0].levels(Side.BUY), 2500)
        expected = (10000 * bars[0].mid - 4 * fill.executed * fill.vwap) / (10000 * bars[0].mid) * 1e4
        assert record.shortfall_bps == pytest.approx(expected, abs=1e-9)

    def test_synthetic_days_match_scripted_replay(self):
        # independent oracle: a list-based walker with carry, written apart
        # from the engine
        snaps = generate_synthetic(3, days=10, config=planted_regime_config(hour=10))
        bars = aggregate_intervals(snaps, 300.0)
        cfg = config()
        schedule = np.array([4000, 3000, 2000, 1000])
        runs = run_ac(cfg, bars, schedule)
        assert len(runs.records) == 10

        by_day = {}
        for k, start in enumerate(bars.start.tolist()):
            stamp = datetime.fromtimestamp(start, timezone.utc)
            if stamp.hour == 10:
                by_day.setdefault(stamp.date(), []).append(k)
        for day, record in runs.records.items():
            window = [bars[k] for k in sorted(by_day[day], key=lambda k: bars.start[k])[:4]]
            ref = window[0].mid
            carry = 0.0
            cash = 0.0
            executed_total = 0.0
            for k, bar in enumerate(window):
                request = float(schedule[k]) + carry
                prices, vols = map(list, bar.levels(Side.BUY))
                cap_limit = float(np.floor((cfg.cap if k < 3 else 1.0) * sum(vols)))
                todo = min(request, cap_limit)
                done = 0.0
                for p, v in zip(prices, vols):
                    take = min(todo - done, v)
                    if take <= 0:
                        break
                    cash += take * p
                    done += take
                executed_total += done
                carry = request - done
            expected_bps = (10000 * ref - cash) / (10000 * ref) * 1e4
            assert record.shortfall_bps == pytest.approx(expected_bps, abs=1e-6)
            assert executed_total == 10000

    def test_days_without_window_are_skipped(self):
        bars = make_bar_sequence(2)  # too short for T=4
        runs = run_ac(config(), bars, np.array([2500, 2500, 2500, 2500]))
        assert not runs.records
        assert runs.skipped


class TestRunRL:
    def setup_env(self, seed=11, days=12):
        snaps = generate_synthetic(seed, days=days, config=planted_regime_config(hour=10))
        bars = aggregate_intervals(snaps, 300.0)
        training = bars.start < datetime(2024, 1, 1 + days // 2, tzinfo=timezone.utc).timestamp()
        return bars[~training], build_distributions(bars[training])

    def test_identity_policy_equals_static_runs(self):
        testing, dists = self.setup_env()
        cfg = config(cap=0.15)
        schedule = np.array([3000, 3000, 2000, 2000])
        q = QTable.zeros(4, 2, 3, 3, 9)  # all zeros: greedy beta = 1 everywhere
        ac = run_ac(cfg, testing, schedule)
        rl = run_rl(cfg, testing, schedule, q, dists)
        assert ac.records.keys() == rl.records.keys()
        for day in ac.records:
            left, right = ac.records[day], rl.records[day]
            assert left.shortfall_bps == right.shortfall_bps
            assert left.executed.tobytes() == right.executed.tobytes()
            assert left.vwap.tobytes() == right.vwap.tobytes()

    def test_all_deferral_policy_hits_terminal_order(self):
        testing, dists = self.setup_env()
        cfg = config()
        schedule = np.array([2500, 2500, 2500, 2500])
        q = QTable.zeros(4, 2, 3, 3, 9)
        q.values[:, :, :, :, 1:] = -1.0  # beta = 0 strictly best everywhere
        rl = run_rl(cfg, testing, schedule, q, dists)
        assert rl.records
        for record in rl.records.values():
            assert record.executed.tolist() == [0, 0, 0, 10000]

    def test_conservation(self):
        testing, dists = self.setup_env(seed=5)
        cfg = config()
        q = QTable.zeros(4, 2, 3, 3, 9)
        rl = run_rl(cfg, testing, np.array([4000, 3000, 2000, 1000]), q, dists)
        for record in rl.records.values():
            assert record.executed_total == 10000

    def test_skip_reasons_and_their_order(self):
        # five days, each a run of bars starting at the given minute past
        # 10:00: a full window; one whose final bar is at 11:00; one with a
        # non-final bar at 11:00; one whose book is too thin to liquidate;
        # and one too short to hold a window
        day = lambda n, minute, bars, **kwargs: make_bar_sequence(bars, T0 + timedelta(days=n, minutes=minute), **kwargs)
        runs = [day(0, 0, 4), day(1, 45, 4), day(2, 50, 4), day(3, 0, 4, level_volume=500.0), day(4, 0, 2)]
        bars = Bars(300.0, Side.BUY, *(np.concatenate([getattr(r, c) for r in runs]) for c in BARS_COLUMNS))
        dists = build_distributions(bars)
        del dists[11]  # the final bar's hour is never encoded: its child is the remainder
        schedule = np.array([2500, 2500, 2500, 2500])
        ac = run_ac(config(), bars, schedule)
        rl = run_rl(config(), bars, schedule, QTable.zeros(4, 2, 3, 3, 9), dists)
        dates = [(T0 + timedelta(days=n)).date() for n in range(5)]
        short = (dates[4], "fewer than 4 bars from hour 10")
        thin = (dates[3], "6000 shares unexecuted after the terminal order")
        assert ac.skipped == [short, thin]
        assert rl.skipped == [short, (dates[2], "no historical distribution for hour 11"), thin]
        assert sorted(ac.records) == dates[:3]
        assert sorted(rl.records) == dates[:2]
        for n in range(2):
            assert rl.records[dates[n]].shortfall_bps == ac.records[dates[n]].shortfall_bps


def test_day(tmp_path):
    # the day keys the hand-made records below stand in for: what the
    # backtest itself produces from a few synthetic days
    snaps = generate_synthetic(3, days=4, config=planted_regime_config(hour=10))
    bars = aggregate_intervals(snaps, 300.0)
    cfg = config()
    schedule = np.array([2500, 2500, 2500, 2500])
    q = QTable.zeros(4, 2, 3, 3, 9)
    ac = run_ac(cfg, bars, schedule)
    rl = run_rl(cfg, bars, schedule, q, build_distributions(bars))

    days = sorted(
        {stamp.date() for stamp in (datetime.fromtimestamp(s, timezone.utc) for s in bars.start.tolist()) if stamp.hour == cfg.H}
    )
    assert len(days) == 4
    for runs in (ac, rl):
        assert not runs.skipped
        assert sorted(runs.records) == days
        assert all(type(day) is date for day in runs.records)  # datetime is a date subclass
    assert compare(ac.records, rl.records).dates == days

    path = tmp_path / "runs.csv"
    write_runs_csv(path, cfg, {"ac": ac, "rl": rl})
    rows, _ = read_csv(path)
    assert [row[:2] for row in rows[1:]] == [
        [f"{model}-{day.isoformat()}", day.isoformat()] for model in ("ac", "rl") for day in days
    ]
    # the shortfall cell is a plain float literal for both models
    cells = {(row[3], row[1]): row[4] for row in rows[1:]}
    for model, runs in (("ac", ac), ("rl", rl)):
        for day, record in runs.records.items():
            cell = cells[(model, day.isoformat())]
            assert float(cell) == record.shortfall_bps
            assert cell == repr(float(record.shortfall_bps))


class TestCompare:
    def test_identical_records(self):
        records = {trading_day(n): record_with_bps(-100.0 - n) for n in range(5)}
        stats = compare(records, dict(records))
        assert stats.median_improvement_pct == 0.0
        assert stats.std_rl_pct == stats.std_ac_pct
        assert stats.n_days == 5

    def test_definition_arithmetic(self):
        ac = {trading_day(n): record_with_bps(v) for n, v in enumerate([-110, -100, -90])}
        rl = {trading_day(n): record_with_bps(v) for n, v in enumerate([-95, -90, -85])}
        stats = compare(ac, rl)
        assert stats.median_ac == -100.0
        assert stats.median_rl == -90.0
        assert stats.median_improvement_pct == pytest.approx(10.0)

    def test_zero_median_gives_undefined_marker(self):
        ac = {trading_day(n): record_with_bps(v) for n, v in enumerate([-10, 0, 10])}
        rl = {trading_day(n): record_with_bps(v) for n, v in enumerate([-5, 5, 15])}
        assert compare(ac, rl).median_improvement_pct is None

    def test_random_samples_match_statistics_module(self):
        rng = np.random.default_rng(41)
        ac_vals = rng.uniform(-200, 0, size=31)
        rl_vals = rng.uniform(-200, 0, size=31)
        ac = {trading_day(n): record_with_bps(float(v)) for n, v in enumerate(ac_vals)}
        rl = {trading_day(n): record_with_bps(float(v)) for n, v in enumerate(rl_vals)}
        stats = compare(ac, rl)
        assert stats.median_ac == pytest.approx(statistics.median(ac_vals))
        assert stats.median_rl == pytest.approx(statistics.median(rl_vals))
        assert stats.std_ac_pct == pytest.approx(statistics.stdev(ac_vals) / 100)
        assert stats.std_rl_pct == pytest.approx(statistics.stdev(rl_vals) / 100)

    def test_unpaired_days_excluded(self):
        ac = {trading_day(n): record_with_bps(-100.0) for n in range(4)}
        rl = {trading_day(n): record_with_bps(-90.0) for n in range(1, 6)}
        stats = compare(ac, rl)
        assert stats.n_days == 3
        assert stats.dates == [trading_day(1), trading_day(2), trading_day(3)]

    def test_no_common_days(self):
        with pytest.raises(ValueError):
            compare({trading_day(0): record_with_bps(-1)}, {trading_day(1): record_with_bps(-1)})


def stats_with(improvement: float | None, std_ac=0.10, std_rl=0.20) -> ISStatistics:
    return ISStatistics(
        dates=[trading_day(0)],
        ac_bps=[-100.0],
        rl_bps=[-90.0],
        median_ac=-100.0,
        median_rl=-90.0,
        median_improvement_pct=improvement,
        std_ac_pct=std_ac,
        std_rl_pct=std_rl,
        n_days=1,
    )


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if not (r and r[0].startswith("# "))]
    comments = [
        line for line in path.read_text(encoding="utf-8").splitlines() if line.startswith("# ")
    ]
    return rows, comments


class TestReport:
    def test_single_config_single_row(self, tmp_path):
        paths = write_report(tmp_path, [(config(), stats_with(12.5))])
        rows, _ = read_csv(paths["table1"])
        assert rows[0] == ["V", "T", "IBW", "9", "10", "11", "12", "13", "14", "15", "16", "average"]
        assert len(rows) == 2
        row = rows[1]
        assert row[:3] == ["10000", "4", "2/3/3"]
        assert row[4] == "12.5000"  # hour-10 column
        assert row[-1] == "12.5000"

    def test_hour_sweep_fills_eight_columns(self, tmp_path):
        entries = [(config(H=h), stats_with(float(h))) for h in range(9, 17)]
        paths = write_report(tmp_path, entries)
        rows, _ = read_csv(paths["table1"])
        assert len(rows) == 2
        hour_cells = rows[1][3:11]
        assert hour_cells == [f"{float(h):.4f}" for h in range(9, 17)]

    def test_twelve_parameter_rows(self, tmp_path):
        entries = []
        for v in (100000, 1000000):
            for t in (4, 8, 12):
                for ibw in (5, 10):
                    entries.append(
                        (
                            config(V=v, T=t, I=ibw, B=ibw, W=ibw),
                            stats_with(1.0),
                        )
                    )
        paths = write_report(tmp_path, entries)
        rows, _ = read_csv(paths["table1"])
        assert len(rows) == 1 + 12
        rows2, _ = read_csv(paths["table2"])
        assert len(rows2) == 1 + 12 + 1  # header, rows, aggregate average row
        assert rows2[-1][0] == "average"

    def test_undefined_improvement_marker(self, tmp_path):
        paths = write_report(tmp_path, [(config(), stats_with(None))])
        rows, _ = read_csv(paths["table1"])
        assert rows[1][4] == "NA"
        assert rows[1][-1] == ""

    def test_trace_skips_undefined_points(self, tmp_path):
        trace = [(10, None), (20, 0.5), (30, 0.75)]
        paths = write_report(tmp_path, [(config(), stats_with(1.0))], trace=trace)
        rows, _ = read_csv(paths["fig2_trace"])
        assert rows[0] == ["tuple_visit_index", "pct_correct_actions"]
        assert rows[1:] == [["20", "0.500000"], ["30", "0.750000"]]

    def test_config_echo_embedded(self, tmp_path):
        paths = write_report(
            tmp_path, [(config(), stats_with(1.0))], config_echo={"seed": 42, "V": 10000}
        )
        _, comments = read_csv(paths["table1"])
        assert "# config V=10000" in comments
        assert "# config seed=42" in comments

    def test_deterministic_bytes(self, tmp_path):
        entries = [(config(), stats_with(3.21))]
        a = write_report(tmp_path / "a", entries, trace=[(5, 0.4)], config_echo={"seed": 1})
        b = write_report(tmp_path / "b", entries, trace=[(5, 0.4)], config_echo={"seed": 1})
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()


class TestRunsCsv:
    def test_layout(self, tmp_path):
        cfg = config(T=2)
        record = ISRecord(
            reference_price=100.0,
            total_volume=200,
            executed=np.array([100.0, 100.0]),
            vwap=np.array([100.5, 100.25]),
            shortfall_bps=-37.5,
            unexecuted=0.0,
        )
        from rlexec.backtest import StrategyRuns

        runs = StrategyRuns(records={trading_day(0): record}, skipped=[])
        path = tmp_path / "runs.csv"
        write_runs_csv(path, cfg, {"ac": runs, "rl": runs})
        rows, _ = read_csv(path)
        assert rows[0] == [
            "run_id", "date", "hour", "model", "shortfall_bps",
            "executed_1", "executed_2", "vwap_1", "vwap_2",
        ]
        assert len(rows) == 3
        assert rows[1][0] == "ac-2024-05-01"
        assert rows[2][3] == "rl"
