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
final period: interior updates bootstrap off max_b Q(next, b) undiscounted,
final-period updates regress straight onto the reward. The learning rate is
fixed at the per-pair harmonic 1 / (1 + visits), so every cell holds exactly
the running mean of its targets.

Rewards are the fill's signed contribution to implementation shortfall in
basis points (costs negative), so the greedy argmax minimizes total IS.
Training sweeps every inventory bucket and every action at each period of
each training window, the exploration scheme that guarantees every reachable
pair keeps being visited. Each period of a window is one block: its walks,
rewards and bootstrap values max_b Q(next, b) are array operations over
(bucket, action), and q_update is the per-cell harmonic-rate step that folds
one reward and one bootstrap value into its cell, named by its C-order index.
The order side and the bar length are the training bars' own.

A trained table is saved twice: a CSV export with one row per cell, for
reading, and an .npz hand-off of its arrays, which is what `load_qtable`
reads back.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import HANDOFFS, ActionGrid
# walk_book stays bound here, unused: perfbench/tests/test_bench_tracer.py reaches it through this binding
from .execution import _child_volume, _inventory_bucket, _walk_books, walk_book  # noqa: F401
from .market_data import Bars, HistoricalDistribution, _load_npz, arrival_reference, state_buckets


@dataclass
class QTable:
    """Dense action values and visit counts over T x I x B x W x A: C-contiguous
    float64 and int64, with the flat views q_update steps the cells through."""

    values: np.ndarray
    visit_counts: np.ndarray

    def __post_init__(self) -> None:
        for name, array, dtype in (("values", self.values, "float64"), ("visit counts", self.visit_counts, "int64")):
            if array.dtype != dtype or not array.flags.c_contiguous or array.shape != self.values.shape:
                raise ValueError(f"q-table {name} must be a C-contiguous {dtype} array of the values' shape")
        # views of the same memory (reshape copies nothing here), C order, native float64 and int64
        self.flat_values = memoryview(self.values.reshape(-1))
        self.flat_visits = memoryview(self.visit_counts.reshape(-1))

    @classmethod
    def zeros(cls, periods: int, inv_buckets: int, spread_buckets: int, vol_buckets: int, n_actions: int) -> "QTable":
        shape = (periods, inv_buckets, spread_buckets, vol_buckets, n_actions)
        return cls(values=np.zeros(shape), visit_counts=np.zeros(shape, dtype=np.int64))


def q_update(q: QTable, cell: int, reward: float, future: float | None) -> QTable:
    """One Q-learning step on `cell`, the C-order flat index of (t - 1, i - 1,
    s - 1, v - 1, action). `future` is the bootstrap value max_b Q(next, b),
    or None for the absorbing state after the final period.

    The learning rate 1 / (1 + visits) is read from the pair's visit count
    before the count is incremented, so a fresh pair takes the full target.
    """
    values, visit_counts = q.flat_values, q.flat_visits
    visits = visit_counts[cell]
    current = values[cell]
    alpha = 1.0 / (1.0 + visits)
    if future is None:
        update = reward - current  # absorbing state carries zero value
    else:
        update = reward + future - current
    values[cell] = current + alpha * update
    visit_counts[cell] = visits + 1
    return q


@functools.lru_cache(maxsize=8)
def _tie_break_order(betas: tuple[float, ...]) -> np.ndarray:
    """The actions, closest to beta = 1 first, then smaller beta."""
    return np.array(sorted(range(len(betas)), key=lambda a: (abs(betas[a] - 1.0), betas[a])))


def _greedy_actions(values: np.ndarray, betas: tuple[float, ...]) -> np.ndarray:
    """Argmax over the last axis with deterministic ties: closest to beta = 1,
    then smaller beta. The actions are put in that order first, so argmax's
    first hit is the tie-break."""
    order = _tie_break_order(betas)
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

    Only the qualifying (s, v) rows of the table are read, gathered with the
    actions already in tie-break order.
    """
    _, _, spread, vol, _ = q.values.shape
    s, v = np.ogrid[1 : spread + 1, 1 : vol + 1]
    trim = (s > (spread + 1) / 2) & (v < (vol + 1) / 2)
    add = (s < (spread + 1) / 2) & (v > (vol + 1) / 2)
    s_at, v_at = np.nonzero(trim | add)
    order = _tie_break_order(grid.betas)
    # (T - 1, I, K, A) rows of the K qualifying (s, v) pairs; index 0 along
    # the first axis is the final period (t = 1), left out
    rows = q.values[1:, :, s_at[:, np.newaxis], v_at[:, np.newaxis], order]
    visited = q.visit_counts[1:, :, s_at, v_at].any(axis=-1)
    beta = np.asarray(grid.betas)[order[np.argmax(rows, axis=-1)]]
    correct = visited & np.where(trim[s_at, v_at], beta < 1.0, beta > 1.0)
    total = int(visited.sum())
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
    reference_kind: str,
) -> TrainingResult:
    """Sweep-train the Q table over the training windows, `episodes` indexed
    (windows, periods) as day_windows gives them, for an order on the
    episodes' side, at the fixed harmonic rate of q_update.

    The state grid is the table's shape and the program size the trade
    list's sum. Per episode, periods run from the horizon down to 1 and every inventory
    bucket and action are visited. The hypothetical inventory for bucket i is
    the bucket midpoint; the child volume is beta times that inventory rescaled
    by the trade list's remaining weight for the period, the rule the
    backtest's execute_schedule sizes children by (_child_volume). The final
    period walks the whole remaining inventory cap-free, mirroring the
    terminal market order.

    Each period is one block: the I x A child volumes walk the period's book
    in one array pass, which gives their rewards and next inventory buckets
    i', and one gather over period t - 1's rows at (i', s', v') gives every
    cell's bootstrap value max_b Q(t - 1, i', s', v', b). The block's Q
    updates then run as one flat loop, one q_update per (bucket, action) in
    bucket-major order, each on the block's first flat cell plus an offset
    computed once per call: A in a row per bucket, B * W * A apart from
    bucket to bucket. Within a period every update writes its own cell of period t and
    none writes period t - 1, so the values gathered before the block are the
    values each update would read at its own time; and the block arithmetic
    is the per-request arithmetic, so the table is the one per-request walks
    and per-update bootstraps give.

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
    total = int(sched.sum())
    suffix = np.cumsum(sched[::-1])[::-1]  # shares still planned from period j on
    # bucket midpoints as a column against the actions' row of betas
    midpoints = np.array(
        [[round(total * (2 * b - 1) / (2 * inv_buckets))] for b in range(1, inv_buckets + 1)],
        dtype=float,
    )
    betas = np.asarray(grid.betas)
    # each (bucket, action)'s flat cell less its block's first, (t, 1, s, v, 0)
    offsets = [i * spread_buckets * vol_buckets * n_actions + a for i in range(inv_buckets) for a in range(n_actions)]
    absorbing = [None] * len(offsets)
    result = TrainingResult()
    s_bucket, v_bucket = state_buckets(episodes, dists, spread_buckets, vol_buckets)
    kept = s_bucket.all(axis=1) if episodes.start.shape[1] == periods else np.zeros(len(episodes), dtype=bool)
    result.episodes_skipped = int((~kept).sum())
    episodes, s_bucket, v_bucket = episodes[kept], s_bucket[kept].tolist(), v_bucket[kept].tolist()
    prices, volumes = episodes.levels
    for e, ref in enumerate(arrival_reference(episodes, reference_kind).tolist()):
        result.episodes_trained += 1
        for t in range(periods, 0, -1):
            j = periods - t  # 0-based period index
            if t == 1:
                # liquidation guarantee: the last period executes all
                # remaining inventory cap-free, whatever beta says
                walk = _walk_books(prices[e, j], volumes[e, j], midpoints, cap=1.0)
                futures = absorbing
            else:
                volume = _child_volume(betas, midpoints, sched[j], suffix[j])
                walk = _walk_books(prices[e, j], volumes[e, j], volume, cap=cap)
                i1 = _inventory_bucket(midpoints - walk.executed, total, inv_buckets)
                # (I, A, A) rows of period t - 1, reduced to their (I, A) maxima
                rows = q.values[t - 2, i1 - 1, s_bucket[e][j + 1] - 1, v_bucket[e][j + 1] - 1]
                futures = rows.max(axis=-1).ravel().tolist()
            rewards = np.broadcast_to(_period_reward(walk, ref, total), (inv_buckets, n_actions)).ravel().tolist()
            s, v = s_bucket[e][j], v_bucket[e][j]
            first = (((t - 1) * inv_buckets * spread_buckets + s - 1) * vol_buckets + v - 1) * n_actions
            for offset, reward, future in zip(offsets, rewards, futures):
                q_update(q, first + offset, reward, future)
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

#: A table splits into at most one export part per _SAVE_PART_ROWS rows.
_SAVE_PART_ROWS = 32768


def _write_states(q: QTable, grid: ActionGrid, fh: TextIO, start: int, stop: int) -> None:
    """Write the export rows of states `start` to `stop` of `q`, in C order
    of (t, i, s, v), A rows per state, to `fh`."""
    actions = [f",{a},{beta!r}," for a, beta in enumerate(grid.betas)]
    values = q.values.reshape(-1, len(actions))[start:stop]
    visits = q.visit_counts.reshape(-1, len(actions))[start:stop]
    # a state no update touched holds +0.0 (all bits zero, so not -0.0)
    # and count 0 in every cell, and all such states share their rows' tails
    touched = (values.view(np.int64).any(axis=1) | visits.any(axis=1)).tolist()
    untouched_tails = [f"{action}0.0,0\r\n" for action in actions]
    labels = [[str(n) for n in range(1, size + 1)] for size in q.values.shape[:4]]
    states = itertools.islice(itertools.product(*labels), start, stop)  # "t,i,s,v" in C order
    for k, prefix in enumerate(map(",".join, states)):
        tails = untouched_tails
        if touched[k]:
            rows = zip(actions, values[k].tolist(), visits[k].tolist())
            tails = [f"{action}{value!r},{n}\r\n" for action, value, n in rows]
        fh.write(prefix + prefix.join(tails))


def save_qtable(path: str | Path, q: QTable, grid: ActionGrid) -> None:
    """Write the table to `path` as the export, a versioned CSV with one row
    per cell and every float's repr, and beside it, with suffix .npz, as the
    hand-off `load_qtable` reads. Both repeat byte for byte for the same
    table (the zip entries carry a fixed date).

    The export's rows are written in ranges of states, one per usable CPU
    but at most one per _SAVE_PART_ROWS rows (`rlexec.parts.write_parts`):
    the first here, each other at the same time by a forked child into an
    unlinked spool file beside `path`, appended in order, so the bytes are
    the one-range bytes. A child that fails is a ChildProcessError naming
    `path`, and leaves `path` as it was."""
    from .parts import even_ranges, usable_parts, write_parts  # here: only train saves a table

    periods, inv, spread, vol, _ = q.values.shape
    header = (
        "# rlexec-qtable: 1\n"
        f"# dims: {periods} {inv} {spread} {vol}\n"
        "# betas: " + " ".join(repr(b) for b in grid.betas) + "\n"
        # rows as csv.writer's default dialect writes them: CRLF-terminated,
        # and no cell needs quoting
        "t,i,s,v,action,beta,q,visits\r\n"
    )
    ranges = even_ranges(periods * inv * spread * vol, usable_parts(q.values.size, _SAVE_PART_ROWS))
    write_parts(path, header, ranges, functools.partial(_write_states, q, grid))
    np.savez(Path(path).with_suffix(".npz"), values=q.values, visits=q.visit_counts, betas=np.asarray(grid.betas))


def load_qtable(path: str | Path, dims: dict[str, int]) -> tuple[QTable, ActionGrid]:
    """The table and action grid in the .npz hand-off `save_qtable` wrote,
    of the dimensions `dims` (see `ExperimentConfig.dims`). A file `_load_npz`
    refuses under `HANDOFFS`, or betas `ActionGrid` or arrays `QTable`
    refuses, is a ValueError naming `path`."""
    arrays = _load_npz(path, HANDOFFS["qtable.npz"].fields, dims)
    try:
        return QTable(arrays["values"], arrays["visits"]), ActionGrid(tuple(arrays["betas"].tolist()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
