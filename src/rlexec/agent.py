"""Tabular finite-horizon Q-learning over <time, inventory, spread, volume>.

The agent modulates a static trade list: at each period the greedy action is a
multiplier beta applied to the list's child volume rescaled to the remaining
inventory. States discretize remaining periods, remaining inventory, and the
percentile bucket of the current bar's spread and level-1 volume against the
training-set distribution for that hour. The market buckets of every bar come
from one elementwise encoder, market_data.state_buckets, in training and in
the backtest alike; the inventory bucket is execution._inventory_bucket. The
backtest reads the learnt policy as extract_policy's (T, I, B, W) table of
greedy betas, indexed by those buckets inside execute_schedule.

The horizon is handled by an artificial reward-free absorbing state after the
final period: interior updates bootstrap off max_b Q(next, b), final-period
updates regress straight onto the reward. With the per-pair harmonic learning
rate alpha0 / (1 + visits) the Robbins-Monro conditions hold, and a
final-period pair's Q value is exactly the running mean of its rewards.

Rewards are the fill's signed contribution to implementation shortfall in
basis points (costs negative), so the greedy argmax minimizes total IS.
Training sweeps every inventory bucket and every action at each period of
each training window, the exploration scheme that guarantees every reachable
pair keeps being visited.

A trained table is saved twice: a CSV export with one row per cell, for
reading, and an .npz hand-off of its arrays, which is what `load_qtable`
reads back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

# walk_book stays bound here, unused: perfbench/tests/test_bench_tracer.py reaches it through this binding
from .execution import _child_volume, _inventory_bucket, _walk_books, walk_book  # noqa: F401
from .market_data import Bars, HistoricalDistribution, Side, _load_npz, arrival_reference, state_buckets


class StateTuple(NamedTuple):
    """1-based indices: remaining periods, inventory, spread, volume buckets."""

    t: int
    i: int
    s: int
    v: int


#: Most betas from_bounds builds; the Q table holds one value per beta and state.
MAX_ACTIONS = 10_000


@dataclass(frozen=True)
class ActionGrid:
    """Strictly increasing, finite beta multipliers applied to the child volume."""

    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.betas:
            raise ValueError("empty action grid")
        if not all(math.isfinite(b) for b in self.betas):
            raise ValueError("non-finite beta")
        if any(b < 0 for b in self.betas):
            raise ValueError("negative beta")
        if any(b2 <= b1 for b1, b2 in zip(self.betas, self.betas[1:])):
            raise ValueError("betas must be strictly increasing")

    @classmethod
    def from_bounds(cls, lower: float = 0.0, upper: float = 2.0, incr: float = 0.25) -> "ActionGrid":
        """lower, lower + incr, ... up to upper: at most MAX_ACTIONS betas,
        checked before any is built."""
        if incr <= 0 or upper < lower:
            raise ValueError("bad beta bounds")
        steps = (upper - lower) / incr
        if not steps < MAX_ACTIONS - 0.5:  # also catches inf and nan
            raise ValueError(f"beta grid from {lower!r} to {upper!r} by {incr!r} exceeds {MAX_ACTIONS} actions")
        count = int(round(steps)) + 1
        return cls(betas=tuple(lower + k * incr for k in range(count)))

    def __len__(self) -> int:
        return len(self.betas)


@dataclass
class LearningSchedule:
    """Per-pair harmonic rate alpha0 / (1 + visits); gamma fixed at 1."""

    alpha0: float = 1.0
    gamma: float = 1.0

    def alpha(self, visits: int) -> float:
        return self.alpha0 / (1.0 + visits)


@dataclass
class QTable:
    """Dense action values and visit counts over T x I x B x W x A."""

    values: np.ndarray
    visit_counts: np.ndarray

    @classmethod
    def zeros(cls, periods: int, inv_buckets: int, spread_buckets: int, vol_buckets: int, n_actions: int) -> "QTable":
        shape = (periods, inv_buckets, spread_buckets, vol_buckets, n_actions)
        return cls(values=np.zeros(shape), visit_counts=np.zeros(shape, dtype=np.int64))

    def state_index(self, x: StateTuple) -> tuple[int, int, int, int]:
        return (x.t - 1, x.i - 1, x.s - 1, x.v - 1)


def q_update(
    q: QTable,
    x: StateTuple,
    action: int,
    reward: float,
    next_state: StateTuple | None,
    schedule: LearningSchedule,
) -> QTable:
    """One Q-learning step; `next_state` None means the absorbing state.

    The learning rate is read from the pair's visit count before the count is
    incremented, so a fresh pair takes the full reward.
    """
    idx = (*q.state_index(x), action)
    alpha = schedule.alpha(int(q.visit_counts[idx]))
    current = q.values[idx]
    if next_state is None:
        update = reward - current  # absorbing state carries zero value
    else:
        future = q.values[q.state_index(next_state)].max()
        update = reward + schedule.gamma * future - current
    q.values[idx] = current + alpha * update
    q.visit_counts[idx] += 1
    return q


def _greedy_actions(values: np.ndarray, betas: tuple[float, ...]) -> np.ndarray:
    """Argmax over the last axis with deterministic ties: closest to beta = 1,
    then smaller beta. The actions are put in that order first, so argmax's
    first hit is the tie-break."""
    order = np.array(sorted(range(len(betas)), key=lambda a: (abs(betas[a] - 1.0), betas[a])))
    return order[np.argmax(values[..., order], axis=-1)]


def extract_policy(q: QTable, grid: ActionGrid) -> np.ndarray:
    """Greedy beta per state, shape (T, I, B, W). Unvisited rows fall back to
    beta = 1 through the tie-break."""
    return np.asarray(grid.betas)[_greedy_actions(q.values, grid.betas)]


def correct_action_fraction(q: QTable, grid: ActionGrid) -> float | None:
    """Share of visited states where the greedy beta points the right way.

    Qualifying states have the spread bucket strictly above the median bucket
    with the volume bucket strictly below (correct: beta < 1), or the reverse
    (correct: beta > 1). Final-period states are excluded: there the terminal
    clean-up order makes every action equivalent. Returns None when no
    qualifying state has been visited.
    """
    _, _, spread, vol, _ = q.values.shape
    s, v = np.ogrid[1 : spread + 1, 1 : vol + 1]
    trim = (s > (spread + 1) / 2) & (v < (vol + 1) / 2)
    add = (s < (spread + 1) / 2) & (v > (vol + 1) / 2)
    # index 0 along the first axis is the final period (t = 1)
    qualifying = (trim | add) & (q.visit_counts[1:].sum(axis=-1) != 0)
    beta = np.asarray(grid.betas)[_greedy_actions(q.values[1:], grid.betas)]
    correct = qualifying & ((trim & (beta < 1.0)) | (add & (beta > 1.0)))
    total = int(qualifying.sum())
    return int(correct.sum()) / total if total else None


@dataclass
class TrainingResult:
    trace: list[tuple[int, float | None]] = field(default_factory=list)
    updates: int = 0
    episodes_trained: int = 0
    episodes_skipped: int = 0


def train(
    q: QTable,
    episodes: Bars,
    schedule_shares: np.ndarray,
    grid: ActionGrid,
    dists: dict[int, HistoricalDistribution],
    *,
    cap: float,
    side: Side = Side.BUY,
    learning: LearningSchedule | None = None,
    reference_kind: str = "mid",
) -> TrainingResult:
    """Sweep-train the Q table over the training windows, `episodes` indexed
    (windows, periods) as day_windows gives them.

    The state grid is the table's shape and the program size the trade
    list's sum. Per episode, periods run from the horizon down to 1 and every inventory
    bucket and action are visited. The hypothetical inventory for bucket i is
    the bucket midpoint; the child volume is beta times that inventory rescaled
    by the trade list's remaining weight for the period, the rule the
    backtest's execute_schedule sizes children by (_child_volume). The final
    period walks the whole remaining inventory cap-free, mirroring the
    terminal market order.

    Each period is one block: the I x A child volumes walk the period's book
    in one array pass, which gives their rewards and next inventory buckets,
    and the block's Q updates then run one q_update per (bucket, action) in
    bucket-major order. Within a period every update writes its own cell and
    bootstraps off period t - 1 only, and the block arithmetic is the
    per-request arithmetic, so the table is the one per-request walks give.

    The spread and volume buckets of every bar of every episode come from one
    state_buckets call. The correct-action trace records (cumulative tuple
    visits, fraction) after every episode, when the table holds a consistent
    policy. An episode shorter or longer than the horizon, or with a bar
    whose hour has no historical distribution, is skipped.
    """
    periods, inv_buckets, spread_buckets, vol_buckets, n_actions = q.values.shape
    if n_actions != len(grid):
        raise ValueError("action grid size does not match the Q table")
    sched = np.asarray(schedule_shares, dtype=np.int64)
    if len(sched) != periods:
        raise ValueError("trade list length does not match the horizon")
    learning = learning if learning is not None else LearningSchedule()
    total = int(sched.sum())
    suffix = np.cumsum(sched[::-1])[::-1]  # shares still planned from period j on
    # bucket midpoints as a column against the actions' row of betas
    midpoints = np.array(
        [[round(total * (2 * b - 1) / (2 * inv_buckets))] for b in range(1, inv_buckets + 1)],
        dtype=float,
    )
    betas = np.asarray(grid.betas)
    result = TrainingResult()
    s_bucket, v_bucket = state_buckets(episodes, dists, spread_buckets, vol_buckets)
    kept = s_bucket.all(axis=1) if episodes.start.shape[1] == periods else np.zeros(len(episodes), dtype=bool)
    result.episodes_skipped = int((~kept).sum())
    episodes, s_bucket, v_bucket = episodes[kept], s_bucket[kept].tolist(), v_bucket[kept].tolist()
    prices, volumes = episodes.levels(side)
    for e, ref in enumerate(arrival_reference(episodes, side, reference_kind).tolist()):
        result.episodes_trained += 1
        for t in range(periods, 0, -1):
            j = periods - t  # 0-based period index
            if t == 1:
                # liquidation guarantee: the last period executes all
                # remaining inventory cap-free, whatever beta says
                walk = _walk_books(prices[e, j], volumes[e, j], midpoints, cap=1.0)
                next_states = [[None] * n_actions] * inv_buckets  # absorbing
            else:
                volume = _child_volume(betas, midpoints, sched[j], suffix[j])
                walk = _walk_books(prices[e, j], volumes[e, j], volume, cap=cap)
                s1, v1 = s_bucket[e][j + 1], v_bucket[e][j + 1]
                next_states = [
                    [StateTuple(t - 1, i1, s1, v1) for i1 in row]
                    for row in _inventory_bucket(midpoints - walk.executed, total, inv_buckets).tolist()
                ]
            rewards = np.broadcast_to(_period_reward(walk, ref, total), (inv_buckets, n_actions)).tolist()
            s, v = s_bucket[e][j], v_bucket[e][j]
            for i, (row_rewards, row_next) in enumerate(zip(rewards, next_states), start=1):
                x = StateTuple(t, i, s, v)
                for action, (reward, nxt) in enumerate(zip(row_rewards, row_next)):
                    q_update(q, x, action, reward, nxt, learning)
            result.updates += inv_buckets * n_actions
        result.trace.append((result.updates, correct_action_fraction(q, grid)))
    return result


def _period_reward(walk, reference: float, total: int) -> np.ndarray:
    """Signed IS contribution of each walked order, in basis points of the run."""
    scale = total * reference
    return np.where(walk.executed > 0, walk.executed * (reference - walk.vwap) / scale * 1e4, 0.0)


# ---------------------------------------------------------------------------
# Q-table persistence: a CSV export to read, an .npz hand-off to load
# ---------------------------------------------------------------------------

#: The arrays of the hand-off, each with its dtype kind and shape over the
#: table's dimensions.
_QTABLE_ARRAYS = {
    "values": ("f", ("T", "I", "B", "W", "A")),
    "visits": ("i", ("T", "I", "B", "W", "A")),
    "betas": ("f", ("A",)),
}


def save_qtable(path: str | Path, q: QTable, grid: ActionGrid, learning: LearningSchedule) -> None:
    """Write the table to `path` as the export, a versioned CSV with one row
    per cell and every float's repr, and beside it, with suffix .npz, as the
    hand-off `load_qtable` reads. Both repeat byte for byte for the same
    table (the zip entries carry a fixed date)."""
    periods, inv, spread, vol, _ = q.values.shape
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# rlexec-qtable: 1\n")
        fh.write(f"# dims: {periods} {inv} {spread} {vol}\n")
        fh.write("# betas: " + " ".join(repr(b) for b in grid.betas) + "\n")
        fh.write(f"# alpha0: {learning.alpha0!r}\n")
        fh.write(f"# gamma: {learning.gamma!r}\n")
        # rows as csv.writer's default dialect writes them: CRLF-terminated,
        # and no cell needs quoting
        fh.write("t,i,s,v,action,beta,q,visits\r\n")
        actions = [f"{a},{beta!r}" for a, beta in enumerate(grid.betas)]
        for state in np.ndindex(q.values.shape[:4]):
            prefix = ",".join(str(k + 1) for k in state)
            fh.writelines(
                f"{prefix},{action},{value!r},{visits}\r\n"
                for action, value, visits in zip(
                    actions, q.values[state].tolist(), q.visit_counts[state].tolist(), strict=True
                )
            )
    np.savez(Path(path).with_suffix(".npz"), values=q.values, visits=q.visit_counts, betas=np.asarray(grid.betas))


def load_qtable(path: str | Path) -> tuple[QTable, ActionGrid]:
    """The table and action grid in the .npz hand-off `save_qtable` wrote;
    the CSV export is never read back. A file `_load_npz` refuses, or betas
    `ActionGrid` refuses, is a ValueError naming `path`."""
    arrays = _load_npz(path, _QTABLE_ARRAYS, "q-table")
    try:
        grid = ActionGrid(betas=tuple(arrays["betas"].tolist()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return QTable(values=arrays["values"], visit_counts=arrays["visits"]), grid
