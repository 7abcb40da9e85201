"""The defect writer's expected tally is exactly what ingest_csv reports."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from rawcsv import DEFECTS, write_raw_depth_csv  # noqa: E402
from rlexec.market_data import SyntheticConfig, generate_synthetic, ingest_csv  # noqa: E402


def test_tally_matches_ingest_and_clean_rows_survive(tmp_path):
    config = SyntheticConfig()
    path = tmp_path / "raw.csv"
    clean, tally = write_raw_depth_csv(path, seed=7, days=1, config=config, defect_rate=0.05, swap_rate=0.05)

    result = ingest_csv(path)
    assert result.row_errors == tally
    assert result.rejected_rows == sum(tally.values()) == round(0.05 * clean)
    # every defect kind appears; the two unparseable kinds share one reason
    assert len(tally) == len(DEFECTS) - 1

    expected = generate_synthetic(7, 1, config)
    assert len(result.snapshots) == clean == len(expected)
    for got, want in zip(result.snapshots, expected):
        assert got.timestamp == want.timestamp
        for name in ("bid_prices", "bid_volumes", "ask_prices", "ask_volumes"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_rows_are_out_of_timestamp_order(tmp_path):
    path = tmp_path / "raw.csv"
    write_raw_depth_csv(path, seed=3, days=1, config=SyntheticConfig())
    stamps = [line.split(",", 1)[0] for line in path.read_text().splitlines()[1:]]
    assert stamps != sorted(stamps)
