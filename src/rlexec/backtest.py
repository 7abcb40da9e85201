"""Day-by-day execution of the static and Q-modulated strategies.

Each test day supplies one window of bars at the configured hour. The static
strategy replays the rounded trade list through the execution engine; the
adaptive strategy runs the same engine with each child order scaled by the
greedy beta of the Q table for the live state. Runs are scored by
implementation shortfall and compared by medians and dispersion. Every run
and report function takes the experiment as the pipeline's own
`ExperimentConfig`: its hour, horizon, bar length, cap, side, reference and
beta grid drive the runs, and its (V, T, I/B/W, H) key the report tables.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .agent import QTable, encode_state, greedy_beta
from .config import ExperimentConfig
# walk_book stays bound here: perfbench/tests/test_bench_tracer.py checks the tracer wraps this binding
from .execution import ISRecord, LiquidationError, _schedule_total, execute_schedule, walk_book  # noqa: F401
from .market_data import HistoricalDistribution, IntervalBar, Side, arrival_reference, day_windows

REPORT_HOURS = tuple(range(9, 17))


@dataclass
class StrategyRuns:
    records: dict[date, ISRecord]
    skipped: list[tuple[date, str]]


def _run_days(
    cfg: ExperimentConfig,
    test_bars: list[IntervalBar],
    schedule_shares: np.ndarray,
    beta: Callable[[int, IntervalBar, float], float] | None = None,
) -> StrategyRuns:
    """Execute the trade list, re-sized by `beta` when given, on every test
    day; liquidation failures and days without a state are skipped days."""
    _schedule_total(np.asarray(schedule_shares), cfg.T)
    side = Side(cfg.side)
    windows, skipped = day_windows(test_bars, cfg.H, cfg.T, cfg.tau)
    records: dict[date, ISRecord] = {}
    for window in windows:
        try:
            records[window.day] = execute_schedule(
                list(window.bars),
                schedule_shares,
                cfg.cap,
                side,
                reference=arrival_reference(window, side, cfg.reference),
                beta=beta,
            )
        except (LiquidationError, ValueError) as exc:  # ValueError: no distribution for an hour
            skipped.append((window.day, str(exc)))
    return StrategyRuns(records=records, skipped=skipped)


def run_ac(cfg: ExperimentConfig, test_bars: list[IntervalBar], schedule_shares: np.ndarray) -> StrategyRuns:
    """Replay the static trade list on every test day at the configured hour."""
    return _run_days(cfg, test_bars, schedule_shares)


def run_rl(
    cfg: ExperimentConfig,
    test_bars: list[IntervalBar],
    schedule_shares: np.ndarray,
    q: QTable,
    dists: dict[int, HistoricalDistribution],
) -> StrategyRuns:
    """Execute the Q-modulated trade list on every test day; the state grid
    is the Q table's own."""
    total = int(np.sum(schedule_shares))
    _, inv_buckets, spread_buckets, vol_buckets, _ = q.values.shape
    grid = cfg.grid()

    def beta(remaining_periods: int, bar: IntervalBar, remaining_shares: float) -> float:
        x = encode_state(
            remaining_periods,
            remaining_shares,
            bar,
            dists.get(bar.hour),
            total_shares=total,
            inv_buckets=inv_buckets,
            spread_buckets=spread_buckets,
            vol_buckets=vol_buckets,
        )
        return greedy_beta(q, x, grid)

    return _run_days(cfg, test_bars, schedule_shares, beta)


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
                by_period = {p: f for p, f in record.fills}
                row = [
                    f"{model}-{day.isoformat()}",
                    day.isoformat(),
                    cfg.H,
                    model,
                    repr(record.shortfall_bps),
                ]
                row += [repr(by_period[p].executed) for p in range(1, periods + 1)]
                row += [repr(by_period[p].vwap) for p in range(1, periods + 1)]
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
