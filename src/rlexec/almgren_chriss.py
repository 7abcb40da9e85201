"""Almgren-Chriss closed-form liquidation trajectories and calibration.

Holdings follow x_j = sinh(kappa (T - t_j)) / sinh(kappa T) * X with trade
list n_j = 2 sinh(kappa tau / 2) cosh(kappa (T - t_{j-1/2})) / sinh(kappa T)
* X, where kappa = arccosh(tau^2 kappa_tilde^2 / 2 + 1) / tau and
kappa_tilde^2 = lambda sigma^2 / (eta (1 - rho tau / (2 eta))). Larger kappa
front-loads the program; kappa = 0 (risk-neutral or zero volatility) is the
equal-slice limit. Hyperbolic ratios are evaluated in exp/expm1 form so large
kappa*T cannot overflow and tiny kappa degrades smoothly to the linear limit.

Time is measured in interval units throughout the pipeline (tau = 1.0, sigma
and eta per interval); the formulas carry tau explicitly so any consistent
unit choice works.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# walk_book stays bound here, unused: perfbench/tests/test_bench_tracer.py reaches it through this binding
from .execution import _walk_books, walk_book  # noqa: F401
from .market_data import Bars, Side

#: Probe volumes for the impact fit, as fractions of the median visible depth.
PROBE_FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.8)
#: eta when the impact fit is flat, negative or has too few points.
ETA_FLOOR = 1e-9


@dataclass(frozen=True)
class ACParams:
    """Model inputs: volatility, impact, risk aversion, and the program size.

    sigma is the per-interval std of mid-price changes, eta the temporary
    impact slope (price displacement per unit trade rate), rho the permanent
    impact slope (zero under the resilient-book assumption), lam the risk
    aversion weight on cost variance.
    """

    sigma: float
    eta: float
    lam: float
    total_shares: float
    periods: int
    tau: float = 1.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.total_shares <= 0:
            raise ValueError("total shares must be > 0")
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if 1.0 - self.rho * self.tau / (2.0 * self.eta) <= 0:
            raise ValueError("permanent impact too large: 1 - rho*tau/(2*eta) <= 0")


@dataclass(frozen=True)
class ACTrajectory:
    """Real-valued holdings x_0..x_N and trade list n_1..n_N."""

    holdings: np.ndarray
    trades: np.ndarray
    kappa: float

    def share_schedule(self) -> np.ndarray:
        """Whole-share trade list summing exactly to the total.

        Each period takes its rounded trade, clamped so the running total
        never exceeds the program; the final period absorbs the residual.
        """
        total = int(round(float(self.holdings[0])))
        out = np.zeros(len(self.trades), dtype=np.int64)
        done = 0
        for idx in range(len(self.trades) - 1):
            take = min(int(round(float(self.trades[idx]))), total - done)
            out[idx] = take
            done += take
        out[-1] = total - done
        return out


def compute_kappa(params: ACParams) -> float:
    """Urgency parameter; exactly zero when lambda * sigma^2 == 0."""
    denom = 1.0 - params.rho * params.tau / (2.0 * params.eta)
    if denom <= 0:
        raise ValueError("1 - rho*tau/(2*eta) must be positive")
    kappa_tilde_sq = params.lam * params.sigma**2 / (params.eta * denom)
    x = 0.5 * params.tau**2 * kappa_tilde_sq
    # acosh(1 + x) in log1p form: full precision survives x near zero
    return math.log1p(x + math.sqrt(x * (x + 2.0))) / params.tau


def _sinh_ratio(a: np.ndarray, b: float) -> np.ndarray:
    # sinh(a)/sinh(b) for 0 <= a <= b, b > 0: exp keeps large arguments from
    # overflowing, expm1 keeps the a, b -> 0 limit (a/b) accurate.
    return np.exp(a - b) * np.expm1(-2.0 * a) / np.expm1(-2.0 * b)


def compute_trajectory(params: ACParams, kappa: float | None = None) -> ACTrajectory:
    """Closed-form holdings and trade list; kappa = 0 uses the linear limit."""
    k = compute_kappa(params) if kappa is None else kappa
    n = params.periods
    x = float(params.total_shares)
    ktau = k * params.tau
    j = np.arange(n + 1, dtype=float)
    if ktau == 0.0:
        holdings = x * (1.0 - j / n)
        trades = np.full(n, x / n)
    else:
        b = ktau * n
        holdings = x * _sinh_ratio(ktau * (n - j), b)
        jj = np.arange(1, n + 1, dtype=float)
        half = 0.5 * ktau
        q = ktau * (n - jj + 0.5)
        trades = (
            x
            * np.exp(half + q - b)
            * np.expm1(-2.0 * half)
            * (1.0 + np.exp(-2.0 * q))
            / np.expm1(-2.0 * b)
        )
    return ACTrajectory(holdings=holdings, trades=trades, kappa=k)


def fit_temporary_impact(rates: np.ndarray, impacts: np.ndarray) -> tuple[float, float]:
    """Least-squares line through (trade rate, price displacement) points.

    Returns (slope, intercept); the slope is the temporary impact parameter,
    the intercept absorbs the spread-crossing cost.
    """
    rates = np.asarray(rates, dtype=float)
    impacts = np.asarray(impacts, dtype=float)
    if len(rates) < 2 or len(rates) != len(impacts):
        raise ValueError("need at least two (rate, impact) points")
    if np.ptp(rates) == 0.0:
        raise ValueError("degenerate probe grid: all rates equal")
    slope, intercept = np.polyfit(rates, impacts, 1)
    return float(slope), float(intercept)


def calibrate(
    bars: Bars,
    lam: float,
    total_shares: float,
    periods: int,
    side: Side = Side.BUY,
) -> ACParams:
    """Estimate sigma and eta from training bars; rho is pinned at zero.

    sigma is the std of mid-price changes between consecutive bars (gaps are
    skipped). eta is the slope of simulated temporary impact, book-walk VWAP
    minus pre-trade mid, against trade rate (shares per bar, tau = 1) for
    PROBE_FRACTIONS of the median depth walked through every bar. A flat or
    negative fit floors eta at ETA_FLOOR with a warning.
    """
    if len(bars) < 2:
        raise ValueError("need at least 2 bars to calibrate")
    mids = bars.mid
    diffs = np.diff(mids)[bars.follows(bars.tau)]
    if not len(diffs):
        raise ValueError("no consecutive bar pairs for sigma")
    sigma = float(np.std(diffs))

    prices, volumes = bars.levels(side)
    depth = float(np.median(volumes.sum(axis=-1)))
    probes = sorted({max(int(round(f * depth)), 1) for f in PROBE_FRACTIONS})
    # every bar walks every probe, bar-major, probe-minor; probes that fill
    # nothing give no point
    walk = _walk_books(prices[:, None, :], volumes[:, None, :], probes, cap=1.0)
    filled = walk.executed > 0
    move = walk.vwap - mids[:, None] if side is Side.BUY else mids[:, None] - walk.vwap
    rates = walk.executed[filled]
    impacts = move[filled]
    eta = ETA_FLOOR
    if len(rates) >= 2 and np.ptp(rates) > 0.0:
        slope, _ = fit_temporary_impact(rates, impacts)
        if math.isfinite(slope) and slope > 0.0:
            eta = slope
    if eta == ETA_FLOOR:
        warnings.warn(
            f"temporary impact fit degenerate; eta floored at {ETA_FLOOR:g}",
            stacklevel=2,
        )
    return ACParams(
        sigma=sigma,
        eta=eta,
        lam=lam,
        total_shares=total_shares,
        periods=periods,
    )
