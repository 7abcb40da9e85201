"""Adaptive optimal execution: Almgren-Chriss trajectories modulated by a
tabular Q-learning agent, scored by implementation shortfall against 5-level
depth data.

Importing the package loads no layer: each exported name is imported from
the module that defines it on first use, so a CLI stage loads only the
layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "agent": "QTable TrainingResult correct_action_fraction extract_policy load_qtable q_update save_qtable train",
    "almgren_chriss": "ACParams ACTrajectory calibrate compute_kappa compute_trajectory fit_temporary_impact",
    "backtest": "StrategyRuns compare run_ac run_rl write_runs_csv",
    "config": "ActionGrid ExperimentConfig",
    "execution": "Fill ISRecord execute_schedule implementation_shortfall walk_book",
    "market_data": "Bars BookFrame BookRegime HistoricalDistribution IngestResult MixedRegime Side SyntheticConfig"
    " aggregate_intervals arrival_reference bucket_of build_distributions day_windows generate_synthetic ingest_csv"
    " load_bars planted_regime_config save_bars state_buckets write_snapshots_csv",
    "report": "ISStatistics write_report",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An exported name, from the layer that defines it (PEP 562). It is not
    cached here, so it is always the layer's current binding."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
