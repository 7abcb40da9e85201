"""Tabular finite-horizon Q-learning over <time, inventory, spread, volume>.

The agent modulates a static trade list: at each period the greedy action is a
multiplier beta applied to the list's child volume rescaled to the remaining
inventory. States discretize remaining periods, remaining inventory, and the
percentile bucket of the current bar's spread and level-1 volume against the
training-set distribution for that hour.

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
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

# walk_book stays bound here: perfbench/tests/test_bench_tracer.py checks the tracer wraps this binding
from .execution import _walk_books, walk_book  # noqa: F401
from .market_data import (
    DayWindow,
    HistoricalDistribution,
    IntervalBar,
    Side,
    arrival_reference,
    bucket_of,
)


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


def _inventory_bucket(remaining, total: int, buckets: int) -> np.ndarray:
    """ceil(remaining / total * buckets) in integer arithmetic, elementwise,
    after rounding to whole shares (half to even); zero shares map to bucket
    1 by convention. Shares past `total` are clipped to it (they take the top
    bucket either way), so the largest intermediate is total * (buckets + 1) - 1."""
    if total * (buckets + 1) > 2**63:
        raise ValueError(f"{total} shares in {buckets} inventory buckets overflow int64 bucket arithmetic")
    shares = np.minimum(np.rint(remaining).astype(np.int64), total)
    return np.where(shares <= 0, 1, np.minimum(buckets, (shares * buckets + total - 1) // total))


def encode_state(
    remaining_periods: int,
    remaining_shares: float,
    bar: IntervalBar,
    dist: HistoricalDistribution | None,
    *,
    total_shares: int,
    inv_buckets: int,
    spread_buckets: int,
    vol_buckets: int,
) -> StateTuple:
    """Bucket the live execution state against the hour's historical samples."""
    if remaining_periods < 1:
        raise ValueError("remaining periods must be >= 1")
    if not 0 <= remaining_shares <= total_shares:
        raise ValueError("remaining shares outside [0, total]")
    if dist is None:
        raise ValueError(f"no historical distribution for hour {bar.hour}")
    return StateTuple(
        t=remaining_periods,
        i=int(_inventory_bucket(remaining_shares, int(total_shares), inv_buckets)),
        s=bucket_of(dist, "spread", bar.spread, spread_buckets),
        v=bucket_of(dist, "volume", bar.quote_volume, vol_buckets),
    )


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


def greedy_beta(q: QTable, x: StateTuple, grid: ActionGrid) -> float:
    return grid.betas[int(_greedy_actions(q.values[q.state_index(x)], grid.betas))]


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
    episodes: list[DayWindow],
    schedule_shares: np.ndarray,
    grid: ActionGrid,
    dists: dict[int, HistoricalDistribution],
    *,
    cap: float,
    side: Side = Side.BUY,
    learning: LearningSchedule | None = None,
    reference_kind: str = "mid",
) -> TrainingResult:
    """Sweep-train the Q table over the training windows.

    The state grid is the table's shape and the program size the trade
    list's sum. Per episode, periods run from the horizon down to 1 and every inventory
    bucket and action are visited. The hypothetical inventory for bucket i is
    the bucket midpoint; the child volume is that inventory rescaled by the
    trade list's remaining-weight for the period. The final period walks the
    whole remaining inventory cap-free, mirroring the terminal market order.

    Each period is one block: the I x A child volumes walk the period's book
    in one array pass, which gives their rewards and next inventory buckets,
    and the block's Q updates then run one q_update per (bucket, action) in
    bucket-major order. Within a period every update writes its own cell and
    bootstraps off period t - 1 only, and the block arithmetic is the
    per-request arithmetic, so the table is the one per-request walks give.

    The correct-action trace records (cumulative tuple visits, fraction) after
    every episode, when the table holds a consistent policy. An episode with
    a bar whose hour has no historical distribution is skipped.
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
    for episode in episodes:
        if len(episode.bars) != periods:
            result.episodes_skipped += 1
            continue
        try:
            states = [
                encode_state(
                    periods - j,
                    total,
                    bar,
                    dists.get(bar.hour),
                    total_shares=total,
                    inv_buckets=inv_buckets,
                    spread_buckets=spread_buckets,
                    vol_buckets=vol_buckets,
                )
                for j, bar in enumerate(episode.bars)
            ]
        except ValueError:  # no historical distribution for a bar's hour
            result.episodes_skipped += 1
            continue
        result.episodes_trained += 1
        ref = arrival_reference(episode, side, reference_kind)
        for t in range(periods, 0, -1):
            j = periods - t  # 0-based period index
            prices, volumes = episode.bars[j].levels(side)
            if t == 1:
                # liquidation guarantee: the last period executes all
                # remaining inventory cap-free, whatever beta says
                walk = _walk_books(prices, volumes, midpoints, cap=1.0)
                next_states = [[None] * n_actions] * inv_buckets  # absorbing
            else:
                weight = sched[j] / suffix[j] if suffix[j] > 0 else 0.0
                volume = np.minimum(np.maximum(np.rint(betas * (midpoints * weight)), 0.0), midpoints)
                walk = _walk_books(prices, volumes, volume, cap=cap)
                s1, v1 = states[j + 1].s, states[j + 1].v
                next_states = [
                    [StateTuple(t - 1, i1, s1, v1) for i1 in row]
                    for row in _inventory_bucket(midpoints - walk.executed, total, inv_buckets).tolist()
                ]
            rewards = np.broadcast_to(_period_reward(walk, ref, total), (inv_buckets, n_actions)).tolist()
            s, v = states[j].s, states[j].v
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
# Q-table persistence (versioned CSV, exact float round-trip)
# ---------------------------------------------------------------------------

QTABLE_FORMAT = 1
_QTABLE_COLUMNS = ("t", "i", "s", "v", "action", "beta", "q", "visits")
#: File lines load_qtable parses and checks per array pass; bounds its memory.
_LOAD_BLOCK = 8192


def save_qtable(path: str | Path, q: QTable, grid: ActionGrid, learning: LearningSchedule) -> None:
    periods, inv, spread, vol, _ = q.values.shape
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# rlexec-qtable: {QTABLE_FORMAT}\n")
        fh.write(f"# dims: {periods} {inv} {spread} {vol}\n")
        fh.write("# betas: " + " ".join(repr(b) for b in grid.betas) + "\n")
        fh.write(f"# alpha0: {learning.alpha0!r}\n")
        fh.write(f"# gamma: {learning.gamma!r}\n")
        # rows as csv.writer's default dialect writes them: CRLF-terminated,
        # and no cell needs quoting
        fh.write(",".join(_QTABLE_COLUMNS) + "\r\n")
        actions = [f"{a},{beta!r}" for a, beta in enumerate(grid.betas)]
        for state in np.ndindex(q.values.shape[:4]):
            prefix = ",".join(str(k + 1) for k in state)
            fh.writelines(
                f"{prefix},{action},{value!r},{visits}\r\n"
                for action, value, visits in zip(
                    actions, q.values[state].tolist(), q.visit_counts[state].tolist(), strict=True
                )
            )


_ROW_DTYPE = np.dtype([(name, np.float64 if name in ("beta", "q") else np.int64) for name in _QTABLE_COLUMNS])


def _parse_rows(path: str | Path, lines: list[str], first_line: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of `lines` (file lines from `first_line` on) one by one, as the
    csv module reads them; blank lines are skipped and the first bad row is a
    ValueError naming its file line. The slow path of _row_blocks."""
    rows = np.zeros(len(lines), dtype=_ROW_DTYPE)
    numbers = np.zeros(len(lines), dtype=np.int64)
    reader = csv.reader(lines)
    n = 0
    for row in reader:
        if not row:
            continue
        numbers[n] = first_line - 1 + reader.line_num
        try:
            if len(row) != len(_QTABLE_COLUMNS):
                raise ValueError(f"{len(row)} cells, expected {len(_QTABLE_COLUMNS)}")
            rows[n] = (*map(int, row[:5]), 0.0, float(row[6]), int(row[7]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: bad row on line {numbers[n]}: {exc!r}") from None
        n += 1
    return rows[:n], numbers[:n]


def _row_blocks(path: str | Path, fh, first_line: int):
    """The table's data rows, up to _LOAD_BLOCK file lines at a time, as a
    structured array with each row's file line. A block np.loadtxt parses
    into one row per line takes one vectorized parse; any other block (a bad
    row, a blank line, a quoted cell) goes through the per-row parser, which
    accepts and rejects what the csv module does. Any warning loadtxt raises
    also sends the block there: NumPy releases that deprecate rather than
    reject a float in an int64 column ('1.0', '1.7') warn and truncate it."""
    while True:
        lines = list(itertools.islice(fh, _LOAD_BLOCK))
        if not lines:
            return
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(lines, delimiter=",", comments=None, dtype=_ROW_DTYPE, ndmin=1)
        except (ValueError, Warning):
            rows = None
        if rows is not None and len(rows) == len(lines):
            yield rows, np.arange(first_line, first_line + len(lines))
        else:
            yield _parse_rows(path, lines, first_line)
        first_line += len(lines)


def load_qtable(path: str | Path) -> tuple[QTable, ActionGrid, LearningSchedule]:
    """Read a table save_qtable wrote. Every cell must appear exactly once,
    with t, i, s, v in 1..T, I, B, W and the action in 0..A-1; a damaged
    file is a ValueError naming its first bad line."""
    header: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        position = fh.tell()
        header_lines = 0
        while True:
            line = fh.readline()
            if not line.startswith("#"):
                fh.seek(position)
                break
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            position = fh.tell()
            header_lines += 1
        if header.get("rlexec-qtable") != str(QTABLE_FORMAT):
            raise ValueError(f"{path}: not a version-{QTABLE_FORMAT} q-table file")
        for key in ("dims", "betas"):
            if key not in header:
                raise ValueError(f"{path}: missing header line {key!r}")
        dims = tuple(int(tok) for tok in header["dims"].split())
        if len(dims) != 4:
            raise ValueError(f"{path}: dims must list T I B W, got {header['dims']!r}")
        betas = tuple(float(tok) for tok in header["betas"].split())
        grid = ActionGrid(betas=betas)
        learning = LearningSchedule(
            alpha0=float(header.get("alpha0", "1.0")),
            gamma=float(header.get("gamma", "1.0")),
        )
        q = QTable.zeros(*dims, len(betas))
        columns = next(csv.reader([fh.readline()]), None)
        if columns != list(_QTABLE_COLUMNS):
            raise ValueError(f"{path}: line {header_lines + 1} is not the column header {','.join(_QTABLE_COLUMNS)}")
        seen = np.zeros(q.values.shape, dtype=bool)
        rows = 0
        for block, lines in _row_blocks(path, fh, header_lines + 2):
            raw = np.stack([block[name] for name in _QTABLE_COLUMNS[:5]], axis=1)
            index = raw - (1, 1, 1, 1, 0)
            outside = np.flatnonzero(((index < 0) | (index >= q.values.shape)).any(axis=1))
            if len(outside):
                k = outside[0]
                raise ValueError(
                    f"{path}: line {lines[k]}: cell (t, i, s, v, action) = {tuple(raw[k].tolist())} "
                    f"outside dims {dims} with {len(betas)} actions"
                )
            cell = tuple(index.T)
            later = np.ones(len(lines), dtype=bool)  # not the block's first row of its cell
            later[np.unique(np.ravel_multi_index(cell, q.values.shape), return_index=True)[1]] = False
            repeated = seen[cell] | later
            if repeated.any():
                k = int(np.argmax(repeated))
                raise ValueError(f"{path}: line {lines[k]}: duplicate cell (t, i, s, v, action) = {tuple(raw[k].tolist())}")
            seen[cell] = True
            q.values[cell] = block["q"]
            q.visit_counts[cell] = block["visits"]
            rows += len(lines)
    if rows != q.values.size:
        raise ValueError(f"{path}: {rows} rows, expected {q.values.size}")
    return q, grid, learning
