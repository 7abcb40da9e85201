"""The static and Q-modulated strategies over every test day.

Each test day supplies one window of bars at the configured hour: a row of
the test bars indexed (days, periods) by day_windows. Both strategies are one
execute_schedule call over all the windows: the static strategy at beta = 1,
the adaptive one at the greedy beta extract_policy reads from the Q table for
each day's live state. A day is skipped, with its reason, when it has no
window, when a non-final bar's hour has no historical distribution to encode
its state (adaptive only), or when its terminal order leaves shares
unexecuted. Runs are scored by implementation shortfall and compared by
medians and dispersion, which `rlexec.report` tabulates. Every run function
takes the experiment as the pipeline's own `ExperimentConfig`: its hour,
horizon, cap, reference and beta grid drive the runs. The order side and the
bar length are the test bars' own.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .agent import QTable, extract_policy
from .config import ExperimentConfig
# walk_book stays bound here, unused: perfbench/tests/test_bench_tracer.py reaches it through this binding
from .execution import ISRecord, execute_schedule, walk_book  # noqa: F401
from .market_data import Bars, HistoricalDistribution, _median, arrival_reference, day_windows, state_buckets
from .report import ISStatistics


@dataclass
class StrategyRuns:
    records: dict[date, ISRecord]
    skipped: list[tuple[date, str]]


def _strategy_runs(
    windows: Bars, skipped: list[tuple[date, str]], records: list[ISRecord], reasons: list[str | None]
) -> StrategyRuns:
    """Key the runs by day. A day with a reason was not run (`records` holds
    the other days' runs, in order); a run whose terminal order left shares
    unexecuted is skipped too. Both follow the window skips, in day order."""
    runs = StrategyRuns(records={}, skipped=skipped)
    pending = iter(records)
    for day, why in zip(windows.day[:, 0].tolist(), reasons):
        if why is None:
            record = next(pending)
            if not record.unexecuted > 0.0:
                runs.records[day] = record
                continue
            why = f"{record.unexecuted:g} shares unexecuted after the terminal order"
        runs.skipped.append((day, why))
    return runs


def run_ac(cfg: ExperimentConfig, test_bars: Bars, schedule_shares: np.ndarray) -> StrategyRuns:
    """Replay the static trade list on every test day at the configured hour."""
    windows, skipped = day_windows(test_bars, cfg.H, cfg.T)
    records = execute_schedule(windows, schedule_shares, cfg.cap, reference=arrival_reference(windows, cfg.reference))
    return _strategy_runs(windows, skipped, records, [None] * len(windows))


def run_rl(
    cfg: ExperimentConfig,
    test_bars: Bars,
    schedule_shares: np.ndarray,
    q: QTable,
    dists: dict[int, HistoricalDistribution],
) -> StrategyRuns:
    """Execute the Q-modulated trade list on every test day; the state grid
    is the Q table's own. Only non-final bars need a state: the final
    period's child is the whole remainder."""
    windows, skipped = day_windows(test_bars, cfg.H, cfg.T)
    _, _, spread_buckets, vol_buckets, _ = q.values.shape
    s_bucket, v_bucket = state_buckets(windows, dists, spread_buckets, vol_buckets)
    unknown = s_bucket[:, :-1] == 0  # a non-final bar whose hour has no distribution
    hours = np.where(unknown, windows.hour[:, :-1], -1).tolist()
    reasons = [next((f"no historical distribution for hour {h}" for h in row if h >= 0), None) for row in hours]
    run = ~unknown.any(axis=1)
    known = windows[run]
    records = execute_schedule(
        known,
        schedule_shares,
        cfg.cap,
        reference=arrival_reference(known, cfg.reference),
        policy=extract_policy(q, cfg.grid()),
        buckets=(s_bucket[run], v_bucket[run]),
    )
    return _strategy_runs(windows, skipped, records, reasons)


def compare(ac: dict[date, ISRecord], rl: dict[date, ISRecord]) -> ISStatistics:
    """Pairwise statistics over the days both strategies completed.

    Improvement is (median_rl - median_ac) / |median_ac| * 100: positive means
    the adaptive shortfall is less negative (a cost reduction). Standard
    deviations are reported in percent of the reference (bps / 100).
    """
    common = sorted(set(ac) & set(rl))
    if not common:
        raise ValueError("no common days to compare")
    ac_bps = [ac[d].shortfall_bps for d in common]
    rl_bps = [rl[d].shortfall_bps for d in common]
    median_ac = _median(ac_bps)
    median_rl = _median(rl_bps)
    improvement = None
    if median_ac != 0.0:
        improvement = (median_rl - median_ac) / abs(median_ac) * 100.0
    return ISStatistics(
        dates=common, ac_bps=ac_bps, rl_bps=rl_bps, median_ac=median_ac, median_rl=median_rl,
        median_improvement_pct=improvement, std_ac_pct=_std_pct(ac_bps), std_rl_pct=_std_pct(rl_bps), n_days=len(common),
    )


def _std_pct(bps: list[float]) -> float:
    if len(bps) < 2:
        return 0.0
    return float(np.std(bps, ddof=1)) / 100.0


def write_runs_csv(path: str | Path, cfg: ExperimentConfig, runs_by_model: dict[str, StrategyRuns]) -> None:
    """Per-run rows: id, date, hour, model, shortfall, per-period fills."""
    periods = cfg.T
    header = ["run_id", "date", "hour", "model", "shortfall_bps"]
    header += [f"executed_{p}" for p in range(1, periods + 1)]
    header += [f"vwap_{p}" for p in range(1, periods + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for model in sorted(runs_by_model):
            runs = runs_by_model[model]
            for day in sorted(runs.records):
                record = runs.records[day]
                cells = [record.shortfall_bps, *record.executed.tolist(), *record.vwap.tolist()]
                writer.writerow([f"{model}-{day.isoformat()}", day.isoformat(), cfg.H, model, *map(repr, cells)])
