"""Pinned bytes of the calibration probes and the training sweep.

The digests were computed with the per-request scalar book walk, on a small
planted-regime run for three side/reference pairs, so a last-bit drift in
either batched path fails here even where the end-to-end runs never go (the
sell side, the ask reference).
"""

from __future__ import annotations

import hashlib

import pytest

from rlexec.agent import ActionGrid, LearningSchedule, QTable, save_qtable, train
from rlexec.almgren_chriss import calibrate, compute_trajectory
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
        "3cb44740060ff42f97235e59dac7815fb941c4d6fc28473a510d8b7d4b359a17",
        "f00a23d969336e9c945bea377bbd38321d512abf7ca378e650d94b29c8a909be",
        "3.687553868775088e-06",
        "0.012318961729707091",
    ),
    ("sell", "mid"): (
        "6a246cecbaebb602ff2e1a0d3a1fe4bc72063baa6ac34f12ce4ffa72a79d4a97",
        "d3d6783afe07dbd1cf1dc8d8375944a668237de6b36c072ffa62449505fb8f7e",
        "3.6893812328279907e-06",
        "0.012318961729707091",
    ),
    ("buy", "ask"): (
        "601a9b1f3f035c0ab6a11e3fff33ae516a7bab199068002a66d20297137cbe1e",
        "9b100c911c60d711fea77863a3ebbe192b945f9b482bd464696b0f4bebacf7dd",
        "3.687553868775088e-06",
        "0.012318961729707091",
    ),
}


def sweep(tmp_path, side: Side, reference: str) -> tuple[str, str, str, str]:
    bars = aggregate_intervals(generate_synthetic(11, 5, planted_regime_config(HOUR)), TAU, side=side)
    params = calibrate(bars, 0.01, TOTAL, PERIODS, side=side)
    episodes, _ = day_windows(bars, HOUR, PERIODS, TAU)
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
        side=side,
        reference_kind=reference,
    )
    path = tmp_path / "qtable.csv"
    save_qtable(path, q, grid, LearningSchedule())
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(repr(result.trace).encode()).hexdigest(),
        repr(params.eta),
        repr(params.sigma),
    )


@pytest.mark.parametrize("side, reference", sorted(GOLDEN))
def test_sweep_and_calibration_bytes_are_pinned(tmp_path, side, reference):
    assert sweep(tmp_path, Side(side), reference) == GOLDEN[side, reference]
