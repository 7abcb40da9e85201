"""Pinned bytes of the calibration probes and the training sweep.

The digests pin a small planted-regime run for three side/reference pairs,
so a last-bit drift in either batched path fails here on the sell side and
the ask reference too, which the benchmark's end-to-end runs never take. The
mid-reference tables equal those of the per-cell, per-request reference
sweep in test_agent.py. The run's market is the one the CLI generates for
the planted preset, which the last test checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from rlexec.agent import ActionGrid, QTable, save_qtable, train
from rlexec.almgren_chriss import calibrate, compute_trajectory
from rlexec.config import ExperimentConfig
from rlexec.market_data import (
    Side,
    aggregate_intervals,
    build_distributions,
    day_windows,
    generate_synthetic,
    planted_regime_config,
)

HOUR, PERIODS, TOTAL, TAU = 10, 4, 20000, 300.0

# (sha256 of save_qtable's file, sha256 of repr(trace), repr(eta), repr(sigma))
GOLDEN = {
    ("buy", "mid"): (
        "c1aed229f504ebf20eb6e60459ae71ca8ce3bea9379ec208190e32d6d2bb44a1",
        "28220fe66792cf9d0208e18ce3397380f46c8d249248682b46bbda03d4ad0d73",
        "3.6875538687750085e-06",
        "0.016425282306276955",
    ),
    ("sell", "mid"): (
        "285ef9291f8335ac577be1283365e516e2191ca0d7e100fe0d5c8ae40b5c6c5a",
        "d3d6783afe07dbd1cf1dc8d8375944a668237de6b36c072ffa62449505fb8f7e",
        "3.6893812328279517e-06",
        "0.016425282306276955",
    ),
    ("buy", "ask"): (
        "e8f842be09ac9fcd75e30ee2de7f43c77db56e2f7f7e89cd3c043fffdd0e12d9",
        "86dd3c61e20c598d31580b2f5cc756c99dd020aa4abc21c36e5b0cc9cc455f2e",
        "3.6875538687750085e-06",
        "0.016425282306276955",
    ),
}


def sweep(tmp_path, side: Side, reference: str) -> tuple[str, str, str, str]:
    bars = replace(aggregate_intervals(generate_synthetic(11, 5, planted_regime_config(HOUR)), TAU), side=side)
    params = calibrate(bars, 0.01, TOTAL, PERIODS)
    episodes, _ = day_windows(bars, HOUR, PERIODS)
    assert len(episodes) == 5
    grid = ActionGrid.from_bounds(0.0, 2.0, 0.25)
    q = QTable.zeros(PERIODS, 3, 2, 2, len(grid))
    result = train(
        q,
        episodes,
        compute_trajectory(params).share_schedule(),
        grid,
        build_distributions(bars),
        cap=0.2,
        reference_kind=reference,
    )
    path = tmp_path / "qtable.csv"
    save_qtable(path, q, grid)
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(repr(result.trace).encode()).hexdigest(),
        repr(params.eta),
        repr(params.sigma),
    )


@pytest.mark.parametrize("side, reference", sorted(GOLDEN))
def test_sweep_and_calibration_bytes_are_pinned(tmp_path, side, reference):
    assert sweep(tmp_path, Side(side), reference) == GOLDEN[side, reference]


@pytest.mark.parametrize("hour", [9, HOUR, 16])
def test_the_planted_preset_is_the_market_the_cli_generates(hour):
    assert planted_regime_config(hour) == ExperimentConfig(preset="planted", H=hour).synthetic_config()
