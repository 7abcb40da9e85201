"""The static and Q-modulated strategies over every test day, and the report.

Each test day supplies one window of bars at the configured hour: a row of
the test bars indexed (days, periods) by day_windows. Both strategies are one
execute_schedule call over all the windows: the static strategy at beta = 1,
the adaptive one at the greedy beta extract_policy reads from the Q table for
each day's live state. A day is skipped, with its reason, when it has no
window, when a non-final bar's hour has no historical distribution to encode
its state (adaptive only), or when its terminal order leaves shares
unexecuted. Runs are scored by implementation shortfall and compared by
medians and dispersion. Every run and report function takes the experiment
as the pipeline's own `ExperimentConfig`: its hour, horizon, bar length, cap,
side, reference and beta grid drive the runs, and its (V, T, I/B/W, H) key
the report tables.
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
from .market_data import Bars, HistoricalDistribution, Side, arrival_reference, day_windows, state_buckets

REPORT_HOURS = tuple(range(9, 17))


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
    side = Side(cfg.side)
    windows, skipped = day_windows(test_bars, cfg.H, cfg.T, cfg.tau)
    records = execute_schedule(
        windows, schedule_shares, cfg.cap, side, reference=arrival_reference(windows, side, cfg.reference)
    )
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
    side = Side(cfg.side)
    windows, skipped = day_windows(test_bars, cfg.H, cfg.T, cfg.tau)
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
        side,
        reference=arrival_reference(known, side, cfg.reference),
        policy=extract_policy(q, cfg.grid()),
        buckets=(s_bucket[run], v_bucket[run]),
    )
    return _strategy_runs(windows, skipped, records, reasons)


@dataclass
class ISStatistics:
    """Paired per-day shortfalls with medians and dispersion for both models."""

    dates: list[date]
    ac_bps: list[float]
    rl_bps: list[float]
    median_ac: float
    median_rl: float
    median_improvement_pct: float | None
    std_ac_pct: float
    std_rl_pct: float
    n_days: int


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
    median_ac = float(np.median(ac_bps))
    median_rl = float(np.median(rl_bps))
    improvement = None
    if median_ac != 0.0:
        improvement = (median_rl - median_ac) / abs(median_ac) * 100.0
    return ISStatistics(
        dates=common,
        ac_bps=ac_bps,
        rl_bps=rl_bps,
        median_ac=median_ac,
        median_rl=median_rl,
        median_improvement_pct=improvement,
        std_ac_pct=_std_pct(ac_bps),
        std_rl_pct=_std_pct(rl_bps),
        n_days=len(common),
    )


def _std_pct(bps: list[float]) -> float:
    if len(bps) < 2:
        return 0.0
    return float(np.std(bps, ddof=1)) / 100.0


# ---------------------------------------------------------------------------
# Report bundle
# ---------------------------------------------------------------------------


def _ibw_label(cfg: ExperimentConfig) -> str:
    if cfg.I == cfg.B == cfg.W:
        return str(cfg.I)
    return f"{cfg.I}/{cfg.B}/{cfg.W}"


def _config_comment_lines(config_echo: dict | None) -> list[str]:
    if not config_echo:
        return []
    return [f"# config {key}={config_echo[key]}" for key in sorted(config_echo)]


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
                row = [
                    f"{model}-{day.isoformat()}",
                    day.isoformat(),
                    cfg.H,
                    model,
                    repr(record.shortfall_bps),
                ]
                row += [repr(x) for x in record.executed.tolist()]
                row += [repr(x) for x in record.vwap.tolist()]
                writer.writerow(row)


def write_report(
    out_dir: str | Path,
    entries: list[tuple[ExperimentConfig, ISStatistics]],
    trace: list[tuple[int, float | None]] | None = None,
    config_echo: dict | None = None,
) -> dict[str, Path]:
    """Write table1.csv, table2.csv, and fig2_trace.csv under `out_dir`.

    table1 pivots median-IS improvement over the hour dimension (all eight
    session hours are emitted, blank when absent); table2 reports standard
    deviations with an aggregate `average` row; the trace file lists the
    correct-action fraction per tuple visit, skipping undefined points.
    Ordering is deterministic, and the resolved config is embedded as comment
    lines for provenance.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    comments = _config_comment_lines(config_echo)

    grouped: dict[tuple, dict[int, ISStatistics]] = {}
    for cfg, stats in entries:
        key = (cfg.V, cfg.T, _ibw_label(cfg))
        grouped.setdefault(key, {})[cfg.H] = stats

    def fmt(value: float | None) -> str:
        return "NA" if value is None else f"{value:.4f}"

    table1 = out_dir / "table1.csv"
    with open(table1, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["V", "T", "IBW", *(str(h) for h in REPORT_HOURS), "average"])
        for key in sorted(grouped):
            by_hour = grouped[key]
            cells = []
            defined = []
            for hour in REPORT_HOURS:
                stats = by_hour.get(hour)
                if stats is None:
                    cells.append("")
                    continue
                cells.append(fmt(stats.median_improvement_pct))
                if stats.median_improvement_pct is not None:
                    defined.append(stats.median_improvement_pct)
            average = fmt(float(np.mean(defined))) if defined else ""
            writer.writerow([*key, *cells, average])

    table2 = out_dir / "table2.csv"
    with open(table2, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["V", "T", "IBW", "std_ac_pct", "std_rl_pct", "improvement_pct"])
        col_ac: list[float] = []
        col_rl: list[float] = []
        col_imp: list[float] = []
        for key in sorted(grouped):
            stats_list = [grouped[key][h] for h in sorted(grouped[key])]
            std_ac = float(np.mean([s.std_ac_pct for s in stats_list]))
            std_rl = float(np.mean([s.std_rl_pct for s in stats_list]))
            imps = [
                s.median_improvement_pct
                for s in stats_list
                if s.median_improvement_pct is not None
            ]
            imp = float(np.mean(imps)) if imps else None
            writer.writerow([*key, f"{std_ac:.4f}", f"{std_rl:.4f}", fmt(imp)])
            col_ac.append(std_ac)
            col_rl.append(std_rl)
            if imp is not None:
                col_imp.append(imp)
        writer.writerow(
            [
                "average",
                "",
                "",
                f"{float(np.mean(col_ac)):.4f}" if col_ac else "",
                f"{float(np.mean(col_rl)):.4f}" if col_rl else "",
                fmt(float(np.mean(col_imp))) if col_imp else "",
            ]
        )

    fig2 = out_dir / "fig2_trace.csv"
    with open(fig2, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["tuple_visit_index", "pct_correct_actions"])
        for visit_index, fraction in trace or []:
            if fraction is None:
                continue  # undefined point: absent from the trace
            writer.writerow([visit_index, f"{fraction:.6f}"])

    return {"table1": table1, "table2": table2, "fig2_trace": fig2}
