"""The report tables: Table 1's median IS improvement by hour, Table 2's
dispersion, and Fig. 2's correct-action trace, from the backtest's statistics.
The module imports no NumPy: its averages are `_mean`s, math.fsum means.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .config import ExperimentConfig

REPORT_HOURS = tuple(range(9, 17))


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


def _ibw_label(cfg: ExperimentConfig) -> str:
    if cfg.I == cfg.B == cfg.W:
        return str(cfg.I)
    return f"{cfg.I}/{cfg.B}/{cfg.W}"


def _mean(values: list[float]) -> float:
    """The mean of the non-empty `values`: the math.fsum of each v / n, so the
    same bits on every Python (the built-in sum's rounding changed in 3.12).
    For n finite values it is within 3 * 2**-53 * mean(|v|) + n * 2**-1074 of
    their exact mean; one value x gives 0.0 + x, so -0.0 reads 0.0."""
    n = len(values)
    try:
        return 0.0 + math.fsum(value / n for value in values)
    except OverflowError:  # only when all values lie within n / 2 ulps of ±DBL_MAX, to which their mean rounds
        return math.copysign(sys.float_info.max, values[0])


def write_report(
    out_dir: str | Path,
    entries: list[tuple[ExperimentConfig, ISStatistics]],
    trace: list[tuple[int, float | None]],
    config_echo: dict,
) -> dict[str, Path]:
    """Write table1.csv, table2.csv, and fig2_trace.csv under `out_dir`.

    table1 pivots median-IS improvement over the hours, a column for each of
    REPORT_HOURS and each entry's H (blank where a row has no run), then the
    `_mean` of its defined cells; table2 reports standard deviations and that
    mean per row, with an `average` row of `_mean`s; the trace file lists the
    correct-action fraction per tuple visit, skipping undefined points.
    Ordering is deterministic, and the resolved config is embedded as comment
    lines for provenance.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grouped: dict[tuple, dict[int, ISStatistics]] = {}
    for cfg, stats in entries:
        grouped.setdefault((cfg.V, cfg.T, _ibw_label(cfg)), {})[cfg.H] = stats

    def fmt(value: float | None) -> str:
        return "NA" if value is None else f"{value:.4f}"

    hours = sorted({*REPORT_HOURS, *(cfg.H for cfg, _ in entries)})
    table1 = [["V", "T", "IBW", *map(str, hours), "average"]]
    table2 = [["V", "T", "IBW", "std_ac_pct", "std_rl_pct", "improvement_pct"]]
    columns: tuple[list[float], ...] = ([], [], [])  # table2's per-key values, for its average row
    for key, by_hour in sorted(grouped.items()):
        stats_list = [by_hour[h] for h in sorted(by_hour)]
        imps = [s.median_improvement_pct for s in stats_list if s.median_improvement_pct is not None]
        row = (_mean([s.std_ac_pct for s in stats_list]), _mean([s.std_rl_pct for s in stats_list]), _mean(imps) if imps else None)
        cells = [fmt(by_hour[h].median_improvement_pct) if h in by_hour else "" for h in hours]
        # every hour has a column, so table1's average is table2's improvement
        table1.append([*key, *cells, "" if row[2] is None else fmt(row[2])])
        table2.append([*key, *map(fmt, row)])
        for column, value in zip(columns, row):
            if value is not None:
                column.append(value)
    table2.append(["average", "", "", *(fmt(_mean(column)) if column else "" for column in columns)])
    # an undefined trace point is absent from the trace
    fig2_trace = [["tuple_visit_index", "pct_correct_actions"], *([v, f"{f:.6f}"] for v, f in trace if f is not None)]

    paths = {}
    for name, rows in (("table1", table1), ("table2", table2), ("fig2_trace", fig2_trace)):
        paths[name] = out_dir / f"{name}.csv"
        with open(paths[name], "w", newline="", encoding="utf-8") as fh:
            fh.writelines(f"# config {key}={config_echo[key]}\n" for key in sorted(config_echo))
            csv.writer(fh).writerows(rows)
    return paths
