"""The report tables: Table 1's median IS improvement by hour, Table 2's
dispersion, and Fig. 2's correct-action trace, from the backtest's statistics.
The module imports no NumPy: its averages are `_mean`, np.mean bit for bit.
"""

from __future__ import annotations

import csv
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


def _pairwise_sum(values: list[float]) -> float:
    """NumPy's float64 add-reduction sum (pairwise_sum): past 128 values, the
    sums of two halves cut at a multiple of 8; from 8, eight running sums over
    strides of 8 added pairwise, else +0.0; then the rest added in order."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total, rest = 0.0, 0
    if n >= 8:
        rest, sums = n - n % 8, values[:8]
        for start in range(8, rest, 8):
            sums = [a + b for a, b in zip(sums, values[start : start + 8])]
        total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + ((sums[4] + sums[5]) + (sums[6] + sums[7]))
    for value in values[rest:]:
        total += value
    return total


def _mean(values) -> float:
    """np.mean of the non-empty `values`, bit for bit: their float64 pairwise
    sum, added onto +0.0 as the reduction's initial value (so -0.0 reads
    0.0), over their count."""
    values = [float(value) for value in values]
    return (0.0 + _pairwise_sum(values)) / len(values)


def write_report(
    out_dir: str | Path,
    entries: list[tuple[ExperimentConfig, ISStatistics]],
    trace: list[tuple[int, float | None]],
    config_echo: dict,
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
    grouped: dict[tuple, dict[int, ISStatistics]] = {}
    for cfg, stats in entries:
        grouped.setdefault((cfg.V, cfg.T, _ibw_label(cfg)), {})[cfg.H] = stats

    def fmt(value: float | None) -> str:
        return "NA" if value is None else f"{value:.4f}"

    table1 = [["V", "T", "IBW", *map(str, REPORT_HOURS), "average"]]
    table2 = [["V", "T", "IBW", "std_ac_pct", "std_rl_pct", "improvement_pct"]]
    columns: tuple[list[float], ...] = ([], [], [])  # table2's per-key values, for its average row
    for key in sorted(grouped):
        by_hour = [grouped[key].get(hour) for hour in REPORT_HOURS]
        defined = [s.median_improvement_pct for s in by_hour if s is not None and s.median_improvement_pct is not None]
        cells = ["" if s is None else fmt(s.median_improvement_pct) for s in by_hour]
        table1.append([*key, *cells, fmt(_mean(defined)) if defined else ""])
        stats_list = [grouped[key][h] for h in sorted(grouped[key])]
        imps = [s.median_improvement_pct for s in stats_list if s.median_improvement_pct is not None]
        row = (_mean([s.std_ac_pct for s in stats_list]), _mean([s.std_rl_pct for s in stats_list]), _mean(imps) if imps else None)
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
