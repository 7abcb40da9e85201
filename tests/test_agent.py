"""State encoding, the Q update, training sweeps, policies, and persistence."""

from __future__ import annotations

import csv
from dataclasses import replace
from datetime import timedelta
from typing import NamedTuple

import numpy as np
import pytest

from rlexec import agent
from rlexec.agent import (
    ActionGrid,
    QTable,
    correct_action_fraction,
    extract_policy,
    load_qtable,
    q_update,
    save_qtable,
    train,
)
from rlexec.backtest import run_rl
from rlexec.config import MAX_ACTIONS, ExperimentConfig
from rlexec.execution import _child_volume, _inventory_bucket, _walk_books, execute_schedule
from rlexec.market_data import (
    ASK_VOLUMES,
    Bars,
    HistoricalDistribution,
    Side,
    aggregate_intervals,
    arrival_reference,
    build_distributions,
    day_windows,
    generate_synthetic,
    planted_regime_config,
    state_buckets,
)

from conftest import T0, make_bar_sequence


class StateTuple(NamedTuple):
    """1-based indices: remaining periods, inventory, spread, volume buckets."""

    t: int
    i: int
    s: int
    v: int


def cell(q: QTable, x: StateTuple, action: int) -> int:
    """The C-order flat index q_update takes for (x, action)."""
    return int(np.ravel_multi_index((x.t - 1, x.i - 1, x.s - 1, x.v - 1, action), q.values.shape))


def dist(samples=(0.02, 0.04, 0.06, 0.08, 0.10)) -> HistoricalDistribution:
    return HistoricalDistribution(
        spread_samples=np.asarray(samples),
        volume_samples=np.asarray(samples) * 1e5,
    )


#: the config's default betas: 0, 0.25, ..., 2
GRID = ActionGrid.from_bounds(0.0, 2.0, 0.25)


class TestActionGrid:
    def test_default_grid(self):
        grid = ExperimentConfig().grid()
        assert len(grid) == 9
        assert grid.betas[0] == 0.0
        assert grid.betas[-1] == 2.0
        assert 1.0 in grid.betas

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            ActionGrid(betas=(0.5, 0.5, 1.0))
        with pytest.raises(ValueError):
            ActionGrid(betas=())
        with pytest.raises(ValueError):
            ActionGrid.from_bounds(0.0, 2.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite beta"):
            ActionGrid(betas=(0.0, bad))

    def test_grid_size_is_checked_before_building(self):
        assert len(ActionGrid.from_bounds(0.0, MAX_ACTIONS - 1.0, 1.0)) == MAX_ACTIONS
        for bounds in [(0.0, float(MAX_ACTIONS), 1.0), (0.0, 2.0, 1e-300), (0.0, float("inf"), 1.0)]:
            with pytest.raises(ValueError, match=f"exceeds {MAX_ACTIONS} actions"):
                ActionGrid.from_bounds(*bounds)


class TestEncodeState:
    """The state execute_schedule reads the policy at: remaining periods, the
    inventory bucket of the shares not yet executed, and the bar's spread and
    volume buckets from state_buckets."""

    def test_full_inventory_maps_to_top_bucket(self):
        assert _inventory_bucket(100000, 100000, 5) == 5
        # the first child of a 4-period run holds all 100000 shares: it reads
        # the policy at t = 4, i = 5, and beta 0 there alone defers it
        windows = make_bar_sequence(4, spread=0.06, level_volume=1e5)[np.newaxis]
        buckets = state_buckets(windows, {10: dist()}, 5, 5)
        for i, first in ((5, 0.0), (4, 25000.0)):
            policy = np.ones((4, 5, 5, 5))
            policy[3, i - 1] = 0.0
            (record,) = execute_schedule(windows, [25000] * 4, 1.0, windows.mid[:, 0], policy=policy, buckets=buckets)
            assert record.executed[0] == first
            assert record.executed.sum() == 100000

    def test_max_spread_maps_to_top_bucket(self):
        bars = make_bar_sequence(1, spread=0.10)
        d = HistoricalDistribution(
            spread_samples=np.array([0.02, 0.04, 0.06, 0.08, bars.spread[0]]),
            volume_samples=np.array([1e3, 2e3, 3e3, 4e3, bars.quote_volume[0]]),
        )
        spread, volume = state_buckets(bars, {10: d}, 5, 5)
        assert spread.tolist() == [5]
        assert volume.tolist() == [5]

    def test_percentile_041_lands_in_bucket_3(self):
        # 41 of 100 samples at or below the value: ceil(0.41 * 5) = 3
        samples = np.arange(1.0, 101.0)
        d = HistoricalDistribution(spread_samples=samples, volume_samples=samples)
        bars = make_bar_sequence(1, spread=41.0)
        bars.row[0, ASK_VOLUMES.start] = 41.0
        spread, volume = state_buckets(bars, {10: d}, 5, 5)
        assert spread.tolist() == [3]
        assert volume.tolist() == [3]

    def test_zero_inventory_maps_to_bucket_one(self):
        assert _inventory_bucket(0, 100, 5) == 1
        assert _inventory_bucket(np.zeros((2, 3)), 100, 5).tolist() == [[1, 1, 1]] * 2

    def test_inventory_buckets_match_python_int_arithmetic(self):
        def reference(remaining: float, total: int, buckets: int) -> int:
            shares = int(round(remaining))
            return 1 if shares <= 0 else min(buckets, (shares * buckets + total - 1) // total)

        rng = np.random.default_rng(4)
        # the last two sit on the int64 bound: total * (buckets + 1) == 2**63
        for total, buckets in [(100, 5), (10000, 20), (2**62 // 3, 3), (2**61, 3), (2**62, 1)]:
            remaining = np.concatenate([rng.uniform(0, total, 200), np.arange(0.5, 40.5), [0.0, total]])
            got = _inventory_bucket(remaining, total, buckets).tolist()
            assert got == [reference(r, total, buckets) for r in remaining.tolist()]
        for total, buckets in [(2**61 + 1, 3), ((2**63 - 1) // 3, 3), (2**62, 2)]:
            with pytest.raises(ValueError, match="overflow int64"):
                _inventory_bucket(float(total), total, buckets)

    def test_missing_distribution(self):
        # a bar whose hour has no distribution has bucket 0, and a test day
        # with such a bar before its final period is skipped with the hour
        bars = make_bar_sequence(2)
        spread, volume = state_buckets(bars, {9: dist()}, 5, 5)
        assert spread.tolist() == volume.tolist() == [0, 0]
        cfg = ExperimentConfig(V=100, T=2, H=10, I=5, B=5, W=5, cap=1.0)
        runs = run_rl(cfg, bars, np.array([50, 50]), QTable.zeros(2, 5, 5, 5, 9), {9: dist()})
        assert runs.skipped == [(T0.date(), "no historical distribution for hour 10")]
        assert not runs.records

    def test_remaining_bounds(self):
        # the map is total: shares below 0 or past the program still land
        # in 1..buckets, at the ends
        assert _inventory_bucket(np.array([-5.0, -0.4, 101.0, 1e6]), 100, 5).tolist() == [1, 1, 5, 5]


class TestQUpdate:
    def test_fresh_final_pair_takes_reward(self):
        q = QTable.zeros(2, 2, 2, 2, 3)
        q_update(q, cell(q, StateTuple(1, 1, 1, 1), 0), -50.0, None)
        assert q.values[0, 0, 0, 0, 0] == -50.0
        assert q.visit_counts[0, 0, 0, 0, 0] == 1

    def test_interior_update_substitution(self):
        q = QTable.zeros(2, 2, 2, 2, 3)
        q_update(q, cell(q, StateTuple(2, 1, 1, 1), 1), -10.0, -30.0)  # max_b Q(next, b) = -30
        assert q.values[1, 0, 0, 0, 1] == -40.0
        assert q.visit_counts[1, 0, 0, 0, 1] == 1

    def test_two_final_updates_form_running_mean(self):
        q = QTable.zeros(1, 1, 1, 1, 1)
        q_update(q, 0, -50.0, None)
        q_update(q, 0, -30.0, None)
        assert q.values[0, 0, 0, 0, 0] == -40.0

    def test_harmonic_schedule_is_exact_mean(self):
        rng = np.random.default_rng(2)
        rewards = rng.uniform(-100, 0, size=40)
        q = QTable.zeros(1, 1, 1, 1, 1)
        for r in rewards:
            q_update(q, 0, float(r), None)
        assert q.values[0, 0, 0, 0, 0] == pytest.approx(rewards.mean(), rel=1e-12)

    @pytest.mark.parametrize(
        "values, visits",
        [
            (np.zeros((2, 3, 1, 1, 4), order="F"), np.zeros((2, 3, 1, 1, 4), dtype=np.int64)),
            (np.zeros((2, 3, 1, 1, 4)), np.zeros((2, 3, 1, 1, 4), dtype=np.int64, order="F")),
            (np.zeros((2, 3, 1, 1, 8))[..., ::2], np.zeros((2, 3, 1, 1, 4), dtype=np.int64)),
            (np.zeros((2, 3, 1, 1, 4), dtype=np.float32), np.zeros((2, 3, 1, 1, 4), dtype=np.int64)),
            (np.zeros((2, 3, 1, 1, 4)), np.zeros((2, 3, 1, 1, 4), dtype=np.int32)),
            (np.zeros((2, 3, 1, 1, 4)), np.zeros((2, 3, 1, 1, 3), dtype=np.int64)),
        ],
        ids=["fortran-values", "fortran-visits", "strided", "float32", "int32", "shapes-differ"],
    )
    def test_arrays_the_flat_views_cannot_step_are_a_value_error(self, values, visits):
        # a flat view of a Fortran-ordered or strided array would step the
        # wrong cells, and training on a converted copy would drop the updates
        with pytest.raises(ValueError, match="C-contiguous"):
            QTable(values=values, visit_counts=visits)


class TestPolicies:
    def test_argmax(self):
        q = QTable.zeros(1, 1, 1, 1, 3)
        q.values[0, 0, 0, 0] = [-10.0, -5.0, -20.0]
        grid = ActionGrid(betas=(0.0, 1.0, 2.0))
        assert extract_policy(q, grid)[0, 0, 0, 0] == 1.0

    def test_unvisited_row_falls_back_to_identity(self):
        q = QTable.zeros(1, 1, 1, 1, 9)
        grid = GRID
        assert extract_policy(q, grid)[0, 0, 0, 0] == 1.0

    def test_tie_breaks_prefer_one_then_smaller(self):
        grid = ActionGrid(betas=(0.75, 1.25, 1.5))
        q = QTable.zeros(1, 1, 1, 1, 3)
        q.values[0, 0, 0, 0] = [7.0, 7.0, 0.0]  # 0.75 and 1.25 equidistant from 1
        assert extract_policy(q, grid)[0, 0, 0, 0] == 0.75

    def test_extract_policy_matches_row_scan(self):
        rng = np.random.default_rng(4)
        grid = GRID
        q = QTable.zeros(3, 2, 2, 2, 9)
        q.values[:] = rng.uniform(-50, 0, size=q.values.shape)
        policy = extract_policy(q, grid)
        for t in range(3):
            for i in range(2):
                for s in range(2):
                    for v in range(2):
                        row = q.values[t, i, s, v]
                        assert policy[t, i, s, v] == grid.betas[int(np.argmax(row))]

    def test_identity_policy_when_rewards_action_independent(self):
        # every action sees the same rewards: rows stay constant, ties resolve
        # to beta = 1
        q = QTable.zeros(2, 2, 3, 3, 9)
        grid = GRID
        rng = np.random.default_rng(6)
        for _ in range(30):
            t = int(rng.integers(1, 3))
            x = StateTuple(t, int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            r = float(rng.uniform(-5, 0))
            future = None if t == 1 else q.values[t - 2, x.i - 1, x.s - 1, x.v - 1].max()
            for a in range(9):
                q_update(q, cell(q, x, a), r, future)
        assert np.all(extract_policy(q, grid) == 1.0)


class TestCorrectActionFraction:
    def grid(self):
        return GRID

    def seed_policy(self, beta_wide_thin: float, beta_tight_deep: float) -> QTable:
        # T=3, I=2, B=3, W=3: qualifying cells are (s=3, v=1) and (s=1, v=3)
        q = QTable.zeros(3, 2, 3, 3, 9)
        grid = self.grid()
        down = grid.betas.index(beta_wide_thin)
        up = grid.betas.index(beta_tight_deep)
        q.visit_counts[:] = 1
        q.values[:, :, 2, 0, down] = 1.0
        q.values[:, :, 0, 2, up] = 1.0
        return q

    def test_perfect_policy(self):
        q = self.seed_policy(beta_wide_thin=0.0, beta_tight_deep=2.0)
        assert correct_action_fraction(q, self.grid()) == 1.0

    def test_inverted_policy(self):
        q = self.seed_policy(beta_wide_thin=2.0, beta_tight_deep=0.25)
        assert correct_action_fraction(q, self.grid()) == 0.0

    def test_final_period_states_excluded(self):
        q = self.seed_policy(0.0, 2.0)
        # corrupt only final-period rows: fraction must not move
        q.values[0, :, 2, 0, :] = 0.0
        q.values[0, :, 2, 0, 8] = 5.0
        assert correct_action_fraction(q, self.grid()) == 1.0

    def test_unvisited_states_excluded(self):
        q = self.seed_policy(0.0, 2.0)
        q.visit_counts[1, 0, 2, 0] = 0  # drop one qualifying state from the count
        assert correct_action_fraction(q, self.grid()) == 1.0

    def test_mixed_policy_matches_counting_oracle(self):
        rng = np.random.default_rng(12)
        grid = self.grid()
        q = QTable.zeros(4, 3, 5, 5, 9)
        q.values[:] = rng.uniform(-10, 0, size=q.values.shape)
        q.visit_counts[:] = rng.integers(0, 2, size=q.values.shape)
        got = correct_action_fraction(q, grid)

        correct = total = 0
        for t in range(1, 4):  # skip the final period (index 0)
            for i in range(3):
                for s in range(5):
                    for v in range(5):
                        trim = (s + 1) > 3 and (v + 1) < 3
                        add = (s + 1) < 3 and (v + 1) > 3
                        if not (trim or add):
                            continue
                        if q.visit_counts[t, i, s, v].sum() == 0:
                            continue
                        beta = grid.betas[int(np.argmax(q.values[t, i, s, v]))]
                        # ties cannot occur with continuous random values
                        total += 1
                        if (trim and beta < 1) or (add and beta > 1):
                            correct += 1
        assert got == pytest.approx(correct / total)

    def test_tie_heavy_table_matches_per_row_loop(self):
        # values on a few levels tie often; the loop below is the per-row
        # tie-break (closest to beta = 1, then smaller) applied state by state
        rng = np.random.default_rng(5)
        grid = ActionGrid(betas=(0.0, 0.5, 0.75, 1.25, 1.5, 2.0))  # 1 itself absent
        q = QTable.zeros(4, 3, 5, 5, 6)
        q.values[:] = rng.integers(-2, 1, size=q.values.shape).astype(float)
        q.visit_counts[:] = rng.integers(0, 3, size=q.values.shape)
        q.visit_counts[rng.random(q.values.shape[:4]) < 0.5] = 0  # half the states unvisited

        def row_greedy(row):
            top = row.max()
            candidates = np.flatnonzero(row == top)
            return grid.betas[min(candidates, key=lambda a: (abs(grid.betas[a] - 1.0), grid.betas[a]))]

        policy = np.empty(q.values.shape[:4])
        correct = total = 0
        for t, i, s, v in np.ndindex(policy.shape):
            policy[t, i, s, v] = beta = row_greedy(q.values[t, i, s, v])
            trim = s + 1 > 3 and v + 1 < 3
            add = s + 1 < 3 and v + 1 > 3
            if t == 0 or not (trim or add) or q.visit_counts[t, i, s, v].sum() == 0:
                continue
            total += 1
            correct += (trim and beta < 1) or (add and beta > 1)
        assert np.array_equal(extract_policy(q, grid), policy)
        assert len(np.unique(policy)) > 2  # the ties do not all fall one way
        assert total > 0
        assert correct_action_fraction(q, grid) == correct / total

    def test_empty_denominator_is_none(self):
        q = QTable.zeros(3, 2, 3, 3, 9)
        assert correct_action_fraction(q, self.grid()) is None


class TestTrain:
    def make_episode(self, periods: int, hour: int = 10) -> Bars:
        """One window of `periods` bars from `hour`: the bars indexed (1, periods)."""
        return make_bar_sequence(periods, start=T0.replace(hour=hour))[np.newaxis]

    def test_single_update_for_minimal_dims(self):
        episode = self.make_episode(1)
        dists = build_distributions(episode[0])
        q = QTable.zeros(1, 1, 2, 2, 1)
        grid = ActionGrid(betas=(1.0,))
        result = train(q, episode, np.array([100]), grid, dists, cap=0.2, reference_kind="mid")
        assert result.updates == 1
        assert q.visit_counts.sum() == 1

    def test_update_count_is_t_times_i_times_a(self):
        episode = self.make_episode(2)
        dists = build_distributions(episode[0])
        q = QTable.zeros(2, 2, 2, 2, 9)
        result = train(q, episode, np.array([50, 50]), GRID, dists, cap=0.2, reference_kind="mid")
        assert result.updates == 2 * 2 * 9
        assert q.visit_counts.sum() == 36

    def test_exhaustive_visitation_of_reachable_pairs(self):
        episode = self.make_episode(3)
        dists = build_distributions(episode[0])
        q = QTable.zeros(3, 2, 2, 2, 9)
        train(q, episode, np.array([40, 30, 30]), GRID, dists, cap=0.2, reference_kind="mid")
        # identical bars: one (s, v) cell per period; T*I*A pairs visited once
        visited = q.visit_counts > 0
        assert visited.sum() == 3 * 2 * 9
        assert np.all(q.visit_counts[visited] == 1)

    def test_short_episode_skipped(self):
        # windows of one bar against a two-period table: each is skipped
        good = self.make_episode(2)
        dists = build_distributions(good[0])
        q = QTable.zeros(2, 2, 2, 2, 9)
        short = train(q, self.make_episode(1), np.array([50, 50]), GRID, dists, cap=0.2, reference_kind="mid")
        assert (short.episodes_skipped, short.episodes_trained, short.updates) == (1, 0, 0)
        result = train(q, good, np.array([50, 50]), GRID, dists, cap=0.2, reference_kind="mid")
        assert result.episodes_skipped == 0
        assert result.episodes_trained == 1

    def test_missing_hour_distribution_skips_episode(self):
        episode = self.make_episode(2, hour=12)
        other = build_distributions(self.make_episode(2, hour=9)[0])
        q = QTable.zeros(2, 2, 2, 2, 9)
        result = train(q, episode, np.array([50, 50]), GRID, other, cap=0.2, reference_kind="mid")
        assert result.episodes_skipped == 1
        assert result.updates == 0

    def test_trace_records_episode_boundaries(self):
        episodes = self.make_episode(2)[[0, 0, 0]]
        dists = build_distributions(episodes[0])
        q = QTable.zeros(2, 2, 2, 2, 9)
        result = train(q, episodes, np.array([50, 50]), GRID, dists, cap=0.2, reference_kind="mid")
        assert [v for v, _ in result.trace] == [36, 72, 108]

    def test_rewards_bounded_by_horizon(self):
        # undiscounted, with per-period rewards in [lo, 0], Q stays within
        # [T * lo, 0]
        bars = make_bar_sequence(4, level_volume=1500.0, spread=0.3, step=0.2)
        dists = build_distributions(bars)
        q = QTable.zeros(4, 2, 2, 2, 9)
        train(q, bars[np.tile(np.arange(4), (10, 1))], np.array([2500, 2500, 2500, 2500]),
              GRID, dists, cap=1.0, reference_kind="mid")
        worst_single = -10000 * (bars[0].levels[0][-1] - bars[0].mid) / (10000 * bars[0].mid) * 1e4
        assert np.all(q.values <= 0.0 + 1e-12)
        assert np.all(q.values >= 4 * worst_single)


def reference_q_update(q, x, action, reward, next_state):
    """The Q step as it was before train gathered its bootstrap values: it
    reads max_b Q(next_state, b) itself, at the update's own time."""
    idx = (x.t - 1, x.i - 1, x.s - 1, x.v - 1, action)
    alpha = 1.0 / (1.0 + int(q.visit_counts[idx]))
    current = q.values[idx]
    if next_state is None:
        update = reward - current  # absorbing state carries zero value
    else:
        future = q.values[next_state.t - 1, next_state.i - 1, next_state.s - 1, next_state.v - 1].max()
        update = reward + future - current
    q.values[idx] = current + alpha * update
    q.visit_counts[idx] += 1


def reference_train(q, episodes, schedule_shares, grid, dists, *, cap):
    """train's sweep one cell at a time, in its order: each (bucket, action)
    walks its own child order and bootstraps off the table as it stands."""
    periods, inv_buckets, spread_buckets, vol_buckets, _ = q.values.shape
    sched = np.asarray(schedule_shares, dtype=np.int64)
    total = int(sched.sum())
    suffix = np.cumsum(sched[::-1])[::-1]
    s_bucket, v_bucket = state_buckets(episodes, dists, spread_buckets, vol_buckets)
    prices, volumes = episodes.levels
    for e, ref in enumerate(arrival_reference(episodes, "mid").tolist()):
        for t in range(periods, 0, -1):
            j = periods - t
            for i in range(1, inv_buckets + 1):
                midpoint = float(round(total * (2 * i - 1) / (2 * inv_buckets)))
                x = StateTuple(t, i, int(s_bucket[e, j]), int(v_bucket[e, j]))
                for action, beta in enumerate(grid.betas):
                    if t == 1:
                        walk = _walk_books(prices[e, j], volumes[e, j], midpoint, cap=1.0)
                        next_state = None
                    else:
                        volume = _child_volume(beta, midpoint, sched[j], suffix[j])
                        walk = _walk_books(prices[e, j], volumes[e, j], volume, cap=cap)
                        i1 = int(_inventory_bucket(midpoint - walk.executed, total, inv_buckets))
                        next_state = StateTuple(t - 1, i1, int(s_bucket[e, j + 1]), int(v_bucket[e, j + 1]))
                    reward = float(agent._period_reward(walk, ref, total))
                    reference_q_update(q, x, action, reward, next_state)


class TestGatheredBootstrap:
    """train gathers each period's bootstrap values before the period's
    updates; no update of the period writes the period they are read from."""

    @pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
    @pytest.mark.parametrize("grid", [GRID, ActionGrid.from_bounds(0.0, 2.0, 0.05)], ids=len)
    def test_train_matches_a_per_cell_reference_bit_for_bit(self, side, grid):
        bars = replace(aggregate_intervals(generate_synthetic(5, 8, planted_regime_config(10)), 300.0), side=side)
        episodes, _ = day_windows(bars, 10, 4)
        assert len(episodes) == 8
        dists = build_distributions(bars)
        sched = np.array([6000, 5000, 5000, 4000])
        q, ref = QTable.zeros(4, 3, 2, 2, len(grid)), QTable.zeros(4, 3, 2, 2, len(grid))
        result = train(q, episodes, sched, grid, dists, cap=0.2, reference_kind="mid")
        reference_train(ref, episodes, sched, grid, dists, cap=0.2)
        assert result.updates == 8 * 4 * 3 * len(grid)
        assert q.visit_counts.tolist() == ref.visit_counts.tolist()
        assert q.values.tobytes() == ref.values.tobytes()
        # (s, v) states repeat across the episodes: interior cells are
        # revisited, and bootstraps read rows that earlier episodes wrote
        assert (ref.visit_counts[1:] > 1).any()
        assert (ref.values[:-1] != 0.0).any()


class TestPersistence:
    @staticmethod
    def extreme_table() -> QTable:
        q = QTable.zeros(2, 2, 2, 2, 3)
        q.values[:] = np.random.default_rng(8).standard_normal(q.values.shape) * 17.3
        extremes = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 0.1, 1 / 3]
        q.values.flat[: len(extremes)] = extremes
        q.visit_counts.flat[:4] = [2**63 - 1, 2**53 + 1, 2**31, 1]
        return q

    def test_round_trip_is_bit_exact_at_the_float_and_count_extremes(self, tmp_path):
        q = self.extreme_table()
        save_qtable(tmp_path / "qtable.csv", q, ActionGrid(betas=(0.5, 1.0, 1.5)))
        q2, grid2 = load_qtable(tmp_path / "qtable.npz", dict(zip("TIBWA", q.values.shape)))
        assert q2.values.dtype == np.float64 and q2.visit_counts.dtype == np.int64
        assert q2.values.tobytes() == q.values.tobytes()  # -0.0 keeps its sign bit
        assert q2.visit_counts.tobytes() == q.visit_counts.tobytes()
        assert grid2.betas == (0.5, 1.0, 1.5)

    @staticmethod
    def reference_export(path, q: QTable, grid: ActionGrid) -> None:
        """The export as save_qtable wrote it before it shared the rows of
        untouched states: every row formatted on its own."""
        periods, inv, spread, vol, _ = q.values.shape
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("# rlexec-qtable: 1\n")
            fh.write(f"# dims: {periods} {inv} {spread} {vol}\n")
            fh.write("# betas: " + " ".join(repr(b) for b in grid.betas) + "\n")
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

    @pytest.mark.parametrize(
        "edit",
        [
            {},
            # a -0.0 is not the +0.0 of an untouched state, even with every count 0
            {"values": ((1, 0, 1, 1, 2), -0.0)},
            {"values": ((2, 1, 1, 0, 0), 3.5)},  # a value with count 0
            {"visit_counts": ((0, 1, 1, 1, 1), 4)},  # a visited cell holding 0.0
            {"values": ((0, 0, 0, 0), 0.0)},  # a visited state holding 0.0 in every cell
        ],
        ids=["untouched-states", "negative-zero", "unvisited-value", "visited-zero", "visited-zero-state"],
    )
    def test_export_is_the_per_row_export_byte_for_byte(self, tmp_path, edit):
        # the states of spread bucket 1 trained, those of spread bucket 2 untouched
        q = QTable.zeros(3, 2, 2, 2, 3)
        rng = np.random.default_rng(3)
        q.values[:, :, 0] = rng.uniform(-20.0, 0.0, size=q.values[:, :, 0].shape)
        q.visit_counts[:, :, 0] = rng.integers(1, 5, size=q.values[:, :, 0].shape)
        for name, (index, value) in edit.items():
            getattr(q, name)[index] = value
        untouched = ~(q.values.view(np.int64).any(axis=-1) | q.visit_counts.any(axis=-1))
        assert 0 < untouched.sum() < untouched.size
        grid = ActionGrid(betas=(0.5, 1.0, 1.5))
        save_qtable(tmp_path / "qtable.csv", q, grid)
        self.reference_export(tmp_path / "reference.csv", q, grid)
        assert (tmp_path / "qtable.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_export_of_a_table_without_untouched_states(self, tmp_path):
        q = self.extreme_table()
        assert q.values.view(np.int64).any(axis=-1).all()
        grid = ActionGrid(betas=(0.5, 1.0, 1.5))
        save_qtable(tmp_path / "qtable.csv", q, grid)
        self.reference_export(tmp_path / "reference.csv", q, grid)
        assert (tmp_path / "qtable.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_a_table_without_cells_round_trips(self, tmp_path):
        # its flat views are empty; the backtest refuses it by its dims
        save_qtable(tmp_path / "qtable.csv", QTable.zeros(0, 2, 2, 2, 3), ActionGrid(betas=(0.5, 1.0, 1.5)))
        q, _ = load_qtable(tmp_path / "qtable.npz", dict(zip("TIBWA", (0, 2, 2, 2, 3))))
        assert q.values.shape == q.visit_counts.shape == (0, 2, 2, 2, 3)
        assert len(q.flat_values) == len(q.flat_visits) == 0

    def test_csv_export_holds_the_table_bit_for_bit(self, tmp_path):
        q = self.extreme_table()
        path = tmp_path / "qtable.csv"
        save_qtable(path, q, ActionGrid(betas=(0.5, 1.0, 1.5)))
        with open(path, newline="", encoding="utf-8") as fh:
            assert [next(fh) for _ in range(3)] == ["# rlexec-qtable: 1\n", "# dims: 2 2 2 2\n", "# betas: 0.5 1.0 1.5\n"]
            rows = list(csv.DictReader(fh))
        cells = [tuple(int(row[k]) for k in ("t", "i", "s", "v", "action")) for row in rows]
        assert cells == [(t + 1, i + 1, s + 1, v + 1, a) for t, i, s, v, a in np.ndindex(q.values.shape)]
        assert np.array([float(row["q"]) for row in rows]).tobytes() == q.values.tobytes()
        assert [int(row["visits"]) for row in rows] == q.visit_counts.ravel().tolist()
        assert [float(row["beta"]) for row in rows] == [0.5, 1.0, 1.5] * 16

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"betas": np.array([0.5, 1.0])}, "array 'betas' has dtype float64 and shape (2,)"),
            ({"visits": np.zeros((2, 2, 2, 2, 3))}, "array 'visits' has dtype float64"),
            ({"values": np.zeros((2, 2, 2, 2))}, "array 'values' has dtype float64 and shape (2, 2, 2, 2)"),
            ({"betas": np.array([0.5, 1.5, 1.0])}, "betas must be strictly increasing"),
            ({"betas": np.array([0.5, 1.0, np.nan])}, "non-finite beta"),
            ({"values": None}, "unreadable .npz file: missing arrays ['values']"),
            ({"values": np.zeros((2, 2, 2, 2, 3), order="F")}, "q-table values must be a C-contiguous float64 array"),
        ],
    )
    def test_damaged_arrays_are_a_value_error_naming_the_file(self, tmp_path, changes, message):
        save_qtable(tmp_path / "qtable.csv", QTable.zeros(2, 2, 2, 2, 3), ActionGrid(betas=(0.5, 1.0, 1.5)))
        path = tmp_path / "qtable.npz"
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays.update(changes)
        np.savez(path, **{name: array for name, array in arrays.items() if array is not None})
        with pytest.raises(ValueError) as info:
            load_qtable(path, dict(zip("TIBWA", (2, 2, 2, 2, 3))))
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)


class TestDPEquivalenceSmall:
    def test_two_period_policy_matches_backward_induction(self):
        # enumerable 2-period MDP with deterministic rewards: the sweep-trained
        # greedy policy must equal the DP optimum
        rng = np.random.default_rng(99)
        T, I, A = 2, 2, 5
        grid = ActionGrid(betas=(0.0, 0.5, 1.0, 1.5, 2.0))
        mean_r = rng.uniform(-10, -1, size=(T, I, A))
        inv_next = np.array([[max(1, i + 1 - (1 if a >= 3 else 0)) for a in range(A)] for i in range(I)])

        q_star = np.zeros((T, I, A))
        q_star[0] = mean_r[0]
        for i in range(I):
            best_next = {j: q_star[0, j - 1].max() for j in (1, 2)}
            for a in range(A):
                q_star[1, i, a] = mean_r[1, i, a] + best_next[int(inv_next[i, a])]

        q = QTable.zeros(T, I, 2, 2, A)
        for _ in range(300):
            for t in (2, 1):
                for i in (1, 2):
                    for a in range(A):
                        r = float(mean_r[t - 1, i - 1, a] + rng.uniform(-0.2, 0.2))
                        x = StateTuple(t, i, 1, 1)
                        future = None if t == 1 else q.values[0, inv_next[i - 1, a] - 1, 0, 0].max()
                        q_update(q, cell(q, x, a), r, future)
        for t in range(T):
            for i in range(I):
                assert int(np.argmax(q.values[t, i, 0, 0])) == int(np.argmax(q_star[t, i]))
