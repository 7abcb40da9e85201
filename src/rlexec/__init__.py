"""Adaptive optimal execution: Almgren-Chriss trajectories modulated by a
tabular Q-learning agent, scored by implementation shortfall against 5-level
depth data."""

from .agent import (
    ActionGrid,
    QTable,
    TrainingResult,
    correct_action_fraction,
    extract_policy,
    load_qtable,
    q_update,
    save_qtable,
    train,
)
from .almgren_chriss import (
    ACParams,
    ACTrajectory,
    calibrate,
    compute_kappa,
    compute_trajectory,
    fit_temporary_impact,
)
from .backtest import (
    ISStatistics,
    StrategyRuns,
    compare,
    run_ac,
    run_rl,
    write_report,
    write_runs_csv,
)
from .config import ExperimentConfig
from .execution import (
    Fill,
    ISRecord,
    execute_schedule,
    implementation_shortfall,
    walk_book,
)
from .market_data import (
    Bars,
    BookFrame,
    BookRegime,
    HistoricalDistribution,
    IngestResult,
    MixedRegime,
    Side,
    SyntheticConfig,
    aggregate_intervals,
    arrival_reference,
    bucket_of,
    build_distributions,
    day_windows,
    generate_synthetic,
    ingest_csv,
    load_bars,
    planted_regime_config,
    save_bars,
    state_buckets,
    write_snapshots_csv,
)

__version__ = "0.1.0"
