"""Seeded raw depth CSV with known defect rows, for the csv-ingest workload.

Clean rows come from the library's own generator and writer. About one row in
a hundred gets a defective copy inserted next to it, carrying exactly one
defect, and a few adjacent row pairs are swapped so the file is not in
timestamp order. Every clean row is kept, so after ingest the snapshot store
equals the one the synthetic path writes for the same generator config.

The expected tally follows ``ingest_csv``'s precedence: column count, then
parsing (a naive timestamp is an unparse), then the ``BookSnapshot`` checks in
order (negative volume, non-positive price, bid order, ask order, crossed).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from rlexec.market_data import DEPTH_CSV_COLUMNS, SyntheticConfig, generate_synthetic, write_snapshots_csv

_COL = {name: k for k, name in enumerate(DEPTH_CSV_COLUMNS)}


def _drop_last_cell(cells: list[str]) -> str:
    del cells[-1]
    return "wrong column count"


def _garbled_volume(cells: list[str]) -> str:
    cells[_COL["av3"]] = "n/a"
    return "unparseable row"


def _naive_timestamp(cells: list[str]) -> str:
    cells[0] = cells[0].removesuffix("+00:00")
    return "unparseable row"


def _negative_volume(cells: list[str]) -> str:
    cells[_COL["bv2"]] = "-" + cells[_COL["bv2"]]
    return "negative volume"


def _zero_price(cells: list[str]) -> str:
    cells[_COL["ap5"]] = "0"
    return "non-positive price"


def _swap(cells: list[str], a: str, b: str) -> None:
    cells[_COL[a]], cells[_COL[b]] = cells[_COL[b]], cells[_COL[a]]


def _bid_out_of_order(cells: list[str]) -> str:
    _swap(cells, "bp1", "bp2")
    return "bid prices not strictly descending"


def _ask_out_of_order(cells: list[str]) -> str:
    _swap(cells, "ap1", "ap2")
    return "ask prices not strictly ascending"


def _crossed(cells: list[str]) -> str:
    asks = [float(cells[_COL[f"ap{lvl}"]]) for lvl in range(1, 6)]
    shift = asks[0] - float(cells[_COL["bp1"]]) + 0.01
    for lvl, price in enumerate(asks, start=1):
        cells[_COL[f"ap{lvl}"]] = repr(price - shift)
    return "crossed book"


DEFECTS = (
    _drop_last_cell,
    _garbled_volume,
    _naive_timestamp,
    _negative_volume,
    _zero_price,
    _bid_out_of_order,
    _ask_out_of_order,
    _crossed,
)


def write_raw_depth_csv(
    path: str | Path,
    seed: int,
    days: int,
    config: SyntheticConfig,
    defect_rate: float = 0.01,
    swap_rate: float = 0.005,
) -> tuple[int, Counter]:
    """Write the raw file; return (clean rows, expected rejected-row tally)."""
    path = Path(path)
    write_snapshots_csv(path, generate_synthetic(seed, days, config))
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    clean = len(rows)
    rng = np.random.default_rng([seed, 1403])
    chosen = np.sort(rng.choice(clean, size=max(1, round(defect_rate * clean)), replace=False))
    tally: Counter = Counter()
    lines: list[str] = []
    next_defect = 0
    for k, row in enumerate(rows):
        lines.append(row)
        if next_defect < len(chosen) and chosen[next_defect] == k:
            cells = row.split(",")
            tally[DEFECTS[next_defect % len(DEFECTS)](cells)] += 1
            lines.append(",".join(cells))
            next_defect += 1
    for k in rng.choice(len(lines) - 1, size=round(swap_rate * clean), replace=False):
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return clean, tally
