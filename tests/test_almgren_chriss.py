"""Closed-form trajectory math, kappa, calibration, and share rounding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlexec.almgren_chriss import (
    ACParams,
    calibrate,
    compute_kappa,
    compute_trajectory,
    fit_temporary_impact,
)
from rlexec.execution import walk_book
from rlexec.market_data import Side

from conftest import make_bar_sequence, make_bars, make_row

# mpmath oracle values (50 digits), frozen:
#   acosh(1.025) for lambda=0.01, sigma=0.5, eta=0.05, rho=0, tau=1
KAPPA_ORACLE = 0.22314355131420976
#   x_j = sinh(k(T - t_j))/sinh(kT) X and the trade list for k*tau = 0.5,
#   N = 4, X = 100000
HOLDINGS_ORACLE = [
    100000.0,
    58708.6133915697882,
    32402.7136831942698,
    14367.6691930660927,
    0.0,
]
TRADES_ORACLE = [
    41291.3866084302118,
    26305.8997083755182,
    18035.0444901281772,
    14367.6691930660927,
]


def params(sigma=0.5, eta=0.05, lam=0.01, X=100000, N=4, tau=1.0, rho=0.0) -> ACParams:
    return ACParams(sigma=sigma, eta=eta, lam=lam, total_shares=X, periods=N, tau=tau, rho=rho)


class TestKappa:
    def test_zero_risk_aversion(self):
        assert compute_kappa(params(lam=0.0)) == 0.0

    def test_zero_volatility(self):
        assert compute_kappa(params(sigma=0.0)) == 0.0

    def test_against_frozen_oracle(self):
        k = compute_kappa(params())
        assert k == pytest.approx(KAPPA_ORACLE, rel=1e-15)

    def test_permanent_impact_denominator_guard(self):
        with pytest.raises(ValueError):
            ACParams(sigma=0.5, eta=0.05, lam=0.01, total_shares=1, periods=1, tau=1.0, rho=0.11)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            params(eta=0.0)
        with pytest.raises(ValueError):
            params(X=0)
        with pytest.raises(ValueError):
            params(N=0)


class TestTrajectory:
    def test_linear_limit_trades(self):
        traj = compute_trajectory(params(lam=0.0))
        assert np.array_equal(traj.trades, np.full(4, 25000.0))
        assert np.array_equal(traj.holdings, [100000.0, 75000.0, 50000.0, 25000.0, 0.0])

    def test_boundary_identities(self):
        traj = compute_trajectory(params())
        assert traj.holdings[0] == 100000.0
        assert traj.holdings[-1] == 0.0
        assert np.sum(traj.trades) == pytest.approx(100000.0, rel=1e-12)

    def test_against_frozen_oracle(self):
        traj = compute_trajectory(params(), kappa=0.5)
        assert np.allclose(traj.holdings, HOLDINGS_ORACLE, rtol=1e-12, atol=1e-9)
        assert np.allclose(traj.trades, TRADES_ORACLE, rtol=1e-12, atol=1e-9)
        diffs = -np.diff(traj.holdings)
        assert np.allclose(traj.trades, diffs, rtol=1e-9, atol=0)

    def test_telescoping_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = params(
                sigma=float(rng.uniform(0.01, 2.0)),
                eta=float(rng.uniform(1e-4, 1.0)),
                lam=float(rng.uniform(0.0, 0.1)),
                X=int(rng.integers(1, 10**6)),
                N=int(rng.integers(1, 16)),
                tau=float(rng.uniform(0.25, 4.0)),
            )
            traj = compute_trajectory(p)
            diffs = -np.diff(traj.holdings)
            scale = p.total_shares
            assert np.all(np.abs(traj.trades - diffs) <= 1e-9 * scale)
            assert np.sum(traj.trades) == pytest.approx(p.total_shares, rel=1e-9)

    def test_larger_kappa_front_loads(self):
        shares = []
        for kappa in (0.0, 0.2, 0.5, 1.0, 2.0):
            traj = compute_trajectory(params(), kappa=kappa)
            shares.append(traj.trades[0] / 100000.0)
        assert all(b > a for a, b in zip(shares, shares[1:]))

    def test_scale_equivariance(self):
        small = compute_trajectory(params(X=50000), kappa=0.7)
        big = compute_trajectory(params(X=100000), kappa=0.7)
        assert np.array_equal(big.holdings, 2.0 * small.holdings)
        assert np.array_equal(big.trades, 2.0 * small.trades)

    def test_kappa_continuity_at_zero(self):
        p = params()
        tiny = compute_trajectory(p, kappa=1e-12)
        linear = compute_trajectory(p, kappa=0.0)
        assert np.max(np.abs(tiny.holdings - linear.holdings)) <= 1e-6 * p.total_shares
        assert np.max(np.abs(tiny.trades - linear.trades)) <= 1e-6 * p.total_shares

    def test_extreme_kappa_is_stable(self):
        traj = compute_trajectory(params(N=10), kappa=300.0)
        assert np.all(np.isfinite(traj.holdings))
        assert np.all(np.isfinite(traj.trades))
        assert traj.holdings[0] == 100000.0
        assert traj.holdings[-1] == 0.0
        assert np.all(np.diff(traj.holdings) <= 0)

    def test_monotone_holdings_for_positive_risk_aversion(self):
        traj = compute_trajectory(params(lam=0.05))
        assert np.all(np.diff(traj.holdings) < 0)


class TestShareSchedule:
    def test_exact_total_and_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = params(
                X=int(rng.integers(1, 10**6)),
                N=int(rng.integers(1, 16)),
                lam=float(rng.uniform(0, 0.05)),
                sigma=float(rng.uniform(0, 1.5)),
            )
            shares = compute_trajectory(p).share_schedule()
            assert shares.sum() == p.total_shares
            assert np.all(shares >= 0)

    @settings(max_examples=300, deadline=None)
    @given(
        sigma=st.one_of(st.just(0.0), st.floats(1e-6, 50.0)),
        eta=st.floats(1e-9, 10.0),
        lam=st.one_of(st.just(0.0), st.floats(1e-9, 10.0)),
        shares=st.integers(1, 10**12),
        periods=st.integers(1, 64),
    )
    def test_schedule_plans_exactly_v_in_non_negative_shares(self, sigma, eta, lam, shares, periods):
        # from the equal-slice limit (kappa = 0) to a program that trades
        # almost everything in its first period
        p = params(sigma=sigma, eta=eta, lam=lam, X=shares, N=periods)
        schedule = compute_trajectory(p).share_schedule()
        assert len(schedule) == periods
        assert np.all(schedule >= 0)
        assert int(schedule.sum()) == shares

    def test_rounding_residual_lands_late(self):
        # equal real trades of 0.6 shares would each round to 1 and overdraw;
        # the running-total clamp keeps the total exact
        p = params(X=3, N=5, lam=0.0)
        traj = compute_trajectory(p)
        assert np.allclose(traj.trades, 0.6)
        shares = traj.share_schedule()
        assert shares.sum() == 3
        assert np.all(shares >= 0)

    def test_single_period(self):
        assert compute_trajectory(params(X=101, N=1)).share_schedule().tolist() == [101]


class TestCalibrate:
    def test_constant_mid_gives_zero_sigma(self):
        bars = make_bar_sequence(10, mid=100.0)
        p = calibrate(bars, lam=0.01, total_shares=1000, periods=4)
        assert p.sigma == 0.0

    def test_bottomless_level_one_floors_eta(self):
        # level 1 absorbs every probe, so all probe VWAPs equal the L1 price
        deep_l1 = (
            np.array([100.05, 100.10, 100.15, 100.20, 100.25]),
            np.array([1e9, 1.0, 1.0, 1.0, 1.0]),
        )
        bars = make_bars([make_row(ask_levels=deep_l1)] * 6)
        with pytest.warns(UserWarning, match="floored"):
            p = calibrate(bars, lam=0.01, total_shares=1000, periods=4)
        assert p.eta == 1e-9

    def test_two_point_slope(self):
        eta, intercept = fit_temporary_impact(np.array([10.0, 20.0]), np.array([1.0, 2.0]))
        assert eta == pytest.approx(0.1, rel=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_fit_requires_two_distinct_rates(self):
        with pytest.raises(ValueError):
            fit_temporary_impact(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="degenerate"):
            fit_temporary_impact(np.array([5.0, 5.0]), np.array([1.0, 2.0]))

    def test_sigma_uses_consecutive_bars_only(self):
        # three bars, a gap, then a far-away mid that would distort sigma if included
        bars = make_bars([make_row(mid=100.0)] * 12 + [make_row(mid=150.0)])[[0, 1, 2, 12]]
        p = calibrate(bars, lam=0.01, total_shares=1000, periods=4)
        assert p.sigma == 0.0

    def test_sloped_depth_recovers_positive_eta(self):
        # shallow books: probes walk deeper levels, impact grows with rate
        bars = make_bar_sequence(8, level_volume=800.0, step=0.10)
        p = calibrate(bars, lam=0.01, total_shares=1000, periods=4)
        assert p.eta > 1e-9
        assert p.rho == 0.0

    def test_needs_two_bars(self):
        with pytest.raises(ValueError):
            calibrate(make_bar_sequence(1), lam=0.01, total_shares=100, periods=2)

    def test_sell_side_calibration(self):
        bars = make_bar_sequence(8, level_volume=900.0, step=0.10, side=Side.SELL)
        p = calibrate(bars, lam=0.01, total_shares=1000, periods=4)
        assert p.eta > 0

    @pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
    def test_probes_match_a_per_bar_walk_book_loop(self, side):
        # thin and empty books: the small probes fill partly, none fills an
        # empty side, and a point is kept only for a probe that filled
        rng = np.random.default_rng(5)
        bars = make_bar_sequence(12, level_volume=400.0, step=0.07, side=side)
        for k, bar in enumerate(bars):
            prices, volumes = bar.levels
            volumes[:] = 0.0 if k % 4 == 1 else rng.integers(1, 900, size=5) / 3
        depth = float(np.median([bar.levels[1].sum() for bar in bars]))
        rates, impacts = [], []
        for bar in bars:
            for probe in sorted({max(int(round(f * depth)), 1) for f in (0.05, 0.1, 0.2, 0.4, 0.8)}):
                fill = walk_book(*bar.levels, probe, cap=1.0)
                if fill.executed <= 0:
                    continue
                rates.append(fill.executed)
                impacts.append(fill.vwap - bar.mid if side is Side.BUY else bar.mid - fill.vwap)
        assert len(rates) < 5 * len(bars)  # the empty books gave no point
        slope, _ = fit_temporary_impact(np.array(rates), np.array(impacts))
        p = calibrate(bars, lam=0.01, total_shares=1000, periods=4)
        assert p.eta.hex() == slope.hex()
