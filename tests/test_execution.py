"""Book walks, shortfall arithmetic, and the run engine against a per-day reference."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlexec.execution import (
    _child_volume,
    _walk_books,
    execute_schedule,
    implementation_shortfall,
    walk_book,
)
from rlexec.market_data import ASK_PRICES, ASK_VOLUMES, BID_PRICES, BID_VOLUMES, N_LEVELS, Bars, Side

from conftest import BOOK_A, BOOK_B, PAPER_REFERENCE, make_bar_sequence, make_bars, make_row


class TestWalkBook:
    def test_worked_example_first_book(self):
        fill = walk_book(*BOOK_A, 10000)
        # (3000*100 + 4000*100.5 + 3000*102.3)/10000; displayed as 100.9 at
        # one decimal in the source example
        assert fill.vwap == pytest.approx(100.89, abs=1e-12)
        assert fill.executed == 10000
        assert fill.residual == 0
        assert fill.levels_consumed == 3

    def test_worked_example_second_book(self):
        fill = walk_book(*BOOK_B, 10000)
        assert fill.vwap == pytest.approx(100.12, abs=1e-12)
        assert fill.levels_consumed == 3

    def test_zero_volume(self):
        fill = walk_book(*BOOK_A, 0)
        assert fill.executed == 0
        assert fill.residual == 0
        assert fill.vwap == 0.0

    def test_worked_example_8000(self):
        fill = walk_book(*BOOK_A, 8000)
        assert fill.vwap == pytest.approx(100.5375, abs=1e-12)  # displayed 100.54

    def test_participation_cap(self):
        # 20% of the 20000 total depth: 4000 shares, L1 then 1000 of L2
        fill = walk_book(*BOOK_A, 25000, cap=0.20)
        assert fill.executed == 4000
        assert fill.vwap == pytest.approx((3000 * 100.0 + 1000 * 100.5) / 4000, abs=1e-12)
        assert fill.residual == 21000

    def test_empty_side_returns_residual(self):
        fill = walk_book(np.array([100.0, 100.1, 100.2, 100.3, 100.4]), np.zeros(5), 500)
        assert fill.executed == 0
        assert fill.residual == 500

    def test_vwap_monotone_in_volume(self):
        vols = np.arange(500, 20001, 500)
        vwaps = [walk_book(*BOOK_A, v).vwap for v in vols]
        assert all(b >= a for a, b in zip(vwaps, vwaps[1:]))

    def test_cap_dominance_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            volumes = rng.integers(0, 5000, size=5).astype(float)
            prices = 100 + np.cumsum(rng.uniform(0.01, 0.5, size=5))
            cap = float(rng.uniform(0.05, 1.0))
            vol = int(rng.integers(0, 30000))
            fill = walk_book(prices, volumes, vol, cap=cap)
            assert fill.executed <= cap * volumes.sum() + 1e-9
            assert fill.executed + fill.residual == fill.requested
            assert fill.executed == int(fill.executed)  # whole shares

    def test_validation(self):
        with pytest.raises(ValueError):
            walk_book(*BOOK_A, -1)
        with pytest.raises(ValueError):
            walk_book(*BOOK_A, 10, cap=0.0)
        with pytest.raises(ValueError):
            walk_book(*BOOK_A, 10, cap=1.5)


    @pytest.mark.parametrize("volume", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_volume_is_rejected(self, volume):
        with pytest.raises(ValueError, match="non-finite volume"):
            walk_book(*BOOK_A, volume)


def scalar_walk(prices, volumes, volume: float, cap: float) -> tuple[float, float, float, int]:
    """Reference: the per-request walk, one level after another in Python
    floats (executed, vwap, residual, levels consumed)."""
    prices = np.asarray(prices, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    total_depth = float(volumes.sum())
    executable = min(float(volume), float(math.floor(cap * total_depth)))
    remaining = executable
    value = 0.0
    levels = 0
    for price, avail in zip(prices, volumes):
        if remaining <= 0.0:
            break
        take = min(remaining, float(avail))
        if take > 0.0:
            value += take * float(price)
            levels += 1
            remaining -= take
    if 0.0 < remaining < 1e-9:
        remaining = 0.0
    executed = executable - remaining
    return executed, value / executed if executed > 0.0 else 0.0, float(volume) - executed, levels


def bits(executed, vwap, residual, levels) -> tuple:
    return float(executed).hex(), float(vwap).hex(), float(residual).hex(), int(levels)


# level depth: empty, whole shares, or a mean over a few snapshots
DEPTH = st.one_of(
    st.just(0.0),
    st.integers(0, 30000).map(float),
    st.tuples(st.integers(0, 150000), st.sampled_from([3, 5, 7])).map(lambda kn: kn[0] / kn[1]),
)
CAPS = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
# whole-share requests: none, inside the book, and far beyond it
REQUESTS = st.one_of(st.just(0), st.integers(0, 200000), st.just(10**9)).map(float)


@st.composite
def books(draw, n: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """n books of `levels` ascending price levels."""
    base = np.array([draw(st.floats(1.0, 200.0)) for _ in range(n)])
    steps = np.array([[draw(st.sampled_from([0.01, 0.05, 0.3])) for _ in range(levels)] for _ in range(n)])
    volumes = np.array([[draw(DEPTH) for _ in range(levels)] for _ in range(n)])
    return base[:, None] + np.cumsum(steps, axis=1), volumes


class TestBlockWalk:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 7), CAPS)
    def test_matches_scalar_reference_bit_for_bit(self, data, n, levels, cap):
        prices, volumes = data.draw(books(n, levels))
        requests = np.array(data.draw(st.lists(REQUESTS, min_size=n * 3, max_size=n * 3))).reshape(n, 3)
        expected = [
            [bits(*scalar_walk(prices[b], volumes[b], requests[b, r], cap)) for r in range(3)]
            for b in range(n)
        ]
        # a stack of books, each with its own column of requests
        stack = _walk_books(prices[:, None, :], volumes[:, None, :], requests, cap)
        assert [[bits(*(part[b, r] for part in stack)) for r in range(3)] for b in range(n)] == expected
        # one book at a time, its requests as one block and through walk_book
        for b in range(n):
            block = _walk_books(prices[b], volumes[b], requests[b], cap)
            assert [bits(*(part[r] for part in block)) for r in range(3)] == expected[b]
            for r in range(3):
                fill = walk_book(prices[b], volumes[b], requests[b, r], cap)
                assert bits(fill.executed, fill.vwap, fill.residual, fill.levels_consumed) == expected[b][r]
                assert fill.executed + fill.residual == fill.requested == requests[b, r]
                assert fill.executed == int(fill.executed)  # whole shares
        assert np.array_equal(stack.executed + stack.residual, requests)

    @pytest.mark.parametrize(
        "volumes",
        [
            [1 / 3, 2 / 3],  # sums to 1.0; walking it leaves 1.1e-16 of dust
            [0.1, 0.2, 0.7],  # sums to 1.0000000000000002, dust again
            [0.7, 0.2, 0.1],  # sums to 0.9999999999999999: floors to no share
        ],
    )
    def test_rounding_edges_match_scalar_reference(self, volumes):
        prices = 100.0 + 0.1 * np.arange(len(volumes))
        requests = np.array([0.0, 1.0, 5.0])
        block = _walk_books(prices, volumes, requests, 1.0)
        expected = [bits(*scalar_walk(prices, volumes, r, 1.0)) for r in requests]
        assert [bits(*(part[r] for part in block)) for r in range(3)] == expected
        assert expected[2][0] == (0.0 if volumes[0] == 0.7 else 1.0).hex()


class TestImplementationShortfall:
    def test_worked_example(self):
        a, b = walk_book(*BOOK_A, 10000), walk_book(*BOOK_B, 10000)
        bps = implementation_shortfall(PAPER_REFERENCE, [a.executed, b.executed], [a.vwap, b.vwap], 20000)
        assert bps == pytest.approx(-101.0, abs=0.5)

    def test_worked_example_shifted_schedule(self):
        a, b = walk_book(*BOOK_A, 8000), walk_book(*BOOK_B, 12000)
        bps = implementation_shortfall(PAPER_REFERENCE, [a.executed, b.executed], [a.vwap, b.vwap], 20000)
        assert bps == pytest.approx(-91.0, abs=0.5)

    def test_zero_at_reference(self):
        assert implementation_shortfall(50.0, [100.0], [50.0], 100) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            implementation_shortfall(0.0, [100.0], [50.0], 100)
        with pytest.raises(ValueError):
            implementation_shortfall(50.0, [100.0], [50.0], 0)


class TestExecuteSchedule:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 10**12), min_size=1, max_size=12).filter(any))
    def test_unit_beta_sizing_replays_the_list(self, schedule):
        # the rule train and execute_schedule size children by: at beta = 1
        # each child of the list's own inventory is the list's entry
        sched = np.array(schedule, dtype=np.int64)
        suffix = np.cumsum(sched[::-1])[::-1]
        inventory = int(suffix[0])
        for planned, still_planned in zip(sched[:-1], suffix[:-1]):
            child = _child_volume(1.0, inventory, planned, still_planned)
            assert child == planned
            inventory -= int(child)
        assert inventory == sched[-1]

    def test_worked_example_two_periods(self, paper_bars):
        (record,) = execute_schedule(paper_bars[None], [10000, 10000], cap=1.0, reference=[PAPER_REFERENCE])
        assert record.shortfall_bps == pytest.approx(-101.0, abs=0.5)
        assert record.executed.sum() == 20000

    def test_single_period_full_depth(self, paper_bars):
        (record,) = execute_schedule(paper_bars[None, :1], [15000], cap=1.0, reference=[PAPER_REFERENCE])
        assert record.executed.tolist() == [15000]
        assert record.unexecuted == 0

    def test_residual_rolls_forward(self, paper_bars):
        # period-1 cap 0.3 of 20000 depth = 6000 executed; 2000 rolls into the
        # terminal order of 12000 + 2000, total executed stays 20000
        (record,) = execute_schedule(paper_bars[None], [8000, 12000], cap=0.3, reference=[PAPER_REFERENCE])
        assert record.executed.tolist() == [6000, 14000]
        assert record.unexecuted == 0
        assert record.executed.sum() == 20000

    def test_conservation_over_random_runs(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            periods = int(rng.integers(1, 8))
            bars = make_bars(
                [
                    make_row(
                        mid=float(rng.uniform(95, 105)),
                        spread=float(rng.uniform(0.02, 0.5)),
                        level_volume=float(rng.integers(2000, 30000)),
                    )
                    for _ in range(periods)
                ]
            )
            total = int(rng.integers(1, 20000))
            cuts = np.sort(rng.integers(0, total + 1, size=periods - 1))
            schedule = np.diff(np.concatenate(([0], cuts, [total])))
            cap = float(rng.uniform(0.1, 1.0))
            (record,) = execute_schedule(bars[None], schedule, cap=cap, reference=bars.mid[:1])
            assert record.executed.sum() == total
            _, volumes = bars.levels
            assert np.all(record.executed[:-1] <= cap * volumes[:-1].sum(axis=1) + 1e-9)

    def test_terminal_shortage_fails_run(self):
        # 500 shares of depth: the terminal order leaves 9500 of 10000 unexecuted
        thin = make_bar_sequence(1, level_volume=100.0)
        (record,) = execute_schedule(thin[None], [10000], cap=1.0, reference=thin.mid[:1])
        assert record.executed.tolist() == [500]
        assert record.unexecuted == 9500

    def test_sign_symmetry_under_book_mirror(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            mid = float(rng.uniform(90, 110))
            spread = float(rng.uniform(0.02, 0.4))
            vols = rng.integers(1000, 9000, size=5).astype(float)
            ask_p = mid + spread / 2 + np.cumsum(np.full(5, 0.07)) - 0.07
            buy_row = make_row(mid=mid, spread=spread, ask_levels=(ask_p, vols))
            # mirror: bids at prices symmetric to the asks around the mid
            sell_row = make_row(mid=mid, spread=spread)
            sell_row[BID_PRICES] = 2 * mid - ask_p
            sell_row[BID_VOLUMES] = vols
            (buy,) = execute_schedule(make_bars([buy_row], side=Side.BUY)[None], [4000], cap=1.0, reference=[mid])
            (sell,) = execute_schedule(make_bars([sell_row], side=Side.SELL)[None], [4000], cap=1.0, reference=[mid])
            assert buy.shortfall_bps == pytest.approx(-sell.shortfall_bps, abs=1e-9)

    def test_validation(self, paper_bars):
        with pytest.raises(ValueError):
            execute_schedule(paper_bars[None], [100], cap=1.0, reference=[PAPER_REFERENCE])
        with pytest.raises(ValueError):
            execute_schedule(paper_bars[None], [-5, 105], cap=1.0, reference=[PAPER_REFERENCE])
        with pytest.raises(ValueError):
            execute_schedule(paper_bars[None], [0, 0], cap=1.0, reference=[PAPER_REFERENCE])


def reference_run(bars, schedule, cap, policy=None, buckets=None):
    """Reference: one day's run as a per-period loop of walk_book calls, its
    state read in Python ints (executed, vwap, shortfall, unexecuted)."""
    periods, total = len(schedule), int(sum(schedule))
    prices, volumes = bars.levels
    planned_remaining, remaining, carry = total, total, 0.0
    executed, vwap = [], []
    for j in range(periods):
        if j == periods - 1:
            planned = planned_remaining
        else:
            beta = 1.0
            if policy is not None:
                inv_buckets = policy.shape[1]
                shares = min(round(remaining), total)
                i = 1 if shares <= 0 else min(inv_buckets, (shares * inv_buckets + total - 1) // total)
                beta = float(policy[periods - 1 - j, i - 1, buckets[0][j] - 1, buckets[1][j] - 1])
            still_planned = int(sum(schedule[j:]))
            weight = int(schedule[j]) / still_planned if still_planned > 0 else 0.0
            planned = int(min(max(round(beta * (planned_remaining * weight)), 0), planned_remaining))
        planned_remaining -= planned
        fill = walk_book(prices[j], volumes[j], float(planned) + carry, cap=1.0 if j == periods - 1 else cap)
        carry = fill.residual
        remaining -= fill.executed
        executed.append(fill.executed)
        vwap.append(fill.vwap)
    reference = float(bars.mid[0])
    cost = math.fsum(e * v for e, v in zip(executed, vwap))
    return executed, vwap, (total * reference - cost) / (total * reference) * 1e4, carry


def run_bits(executed, vwap, shortfall, unexecuted) -> tuple:
    return [float(x).hex() for x in executed], [float(x).hex() for x in vwap], float(shortfall).hex(), float(unexecuted).hex()


def random_windows(rng, days: int, periods: int, side: Side) -> Bars:
    """A (days, periods) stack of books for an order on `side`: random mids,
    spreads and level steps, with empty, whole-share and fractional
    (averaged) level depth."""
    shape = (days, periods)
    mid = rng.uniform(50.0, 150.0, shape)[..., None]
    half_spread = rng.uniform(0.005, 0.25, shape)[..., None]
    steps = np.cumsum(rng.choice([0.01, 0.05, 0.3], (*shape, N_LEVELS)), axis=-1)
    offsets = half_spread + steps - steps[..., :1]

    def depth():
        kind = rng.integers(0, 3, (*shape, N_LEVELS))
        whole = rng.integers(0, 30000, kind.shape).astype(float)
        averaged = rng.integers(0, 150000, kind.shape) / rng.choice([3, 5, 7], kind.shape)
        return np.select([kind == 0, kind == 1], [0.0, whole], averaged)

    row = np.empty((*shape, 4 * N_LEVELS))
    row[..., BID_PRICES], row[..., ASK_PRICES] = mid - offsets, mid + offsets
    row[..., BID_VOLUMES], row[..., ASK_VOLUMES] = depth(), depth()
    start = 1.7e9 + 300.0 * np.arange(days * periods, dtype=float).reshape(shape)
    return Bars(300.0, side, start, np.zeros(shape), np.ones(shape, dtype=np.int64), row)


class TestBlockEngine:
    """execute_schedule against the per-day loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 8),
        CAPS,
        st.sampled_from([Side.BUY, Side.SELL]),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_a_per_day_walk_book_loop(self, days, periods, cap, side, inv, spread, vol, seed):
        rng = np.random.default_rng(seed)
        windows = random_windows(rng, days, periods, side)
        total = int(rng.choice([1, 100, 10000, 200000, 10**6]))
        schedule = np.diff(np.concatenate(([0], np.sort(rng.integers(0, total + 1, periods - 1)), [total])))
        policy = rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0], (periods, inv, spread, vol))
        buckets = (rng.integers(1, spread + 1, (days, periods)), rng.integers(1, vol + 1, (days, periods)))

        mid = windows.mid[:, 0]  # the arrival price reference_run scores against
        ac = execute_schedule(windows, schedule, cap, mid)
        rl = execute_schedule(windows, schedule, cap, mid, policy=policy, buckets=buckets)
        unit = execute_schedule(windows, schedule, cap, mid, policy=np.ones_like(policy), buckets=buckets)
        for d in range(days):
            day_buckets = (buckets[0][d].tolist(), buckets[1][d].tolist())
            expected_rl = run_bits(*reference_run(windows[d], schedule, cap, policy, day_buckets))
            expected_ac = run_bits(*reference_run(windows[d], schedule, cap))
            for record, expected in ((rl[d], expected_rl), (ac[d], expected_ac), (unit[d], expected_ac)):
                assert run_bits(record.executed, record.vwap, record.shortfall_bps, record.unexecuted) == expected
                assert math.fsum([*record.executed.tolist(), record.unexecuted]) == total
