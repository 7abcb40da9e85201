"""Config-driven pipeline: ingest/synth -> calibrate -> train -> backtest -> report.

Each stage reads its upstream artifact from the output directory and writes
its own, so runs are resumable and, given a fixed seed, byte-identical. Every
stage takes the same `ExperimentConfig` (see `rlexec.config`): a key = value
file, overridden by command-line flags named after the model parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np

from .agent import LearningSchedule, QTable, load_qtable, save_qtable, train
from .almgren_chriss import compute_trajectory, calibrate
from .backtest import ISStatistics, compare, run_ac, run_rl, write_report, write_runs_csv
from .config import ConfigError, ExperimentConfig, add_flags, join_negative_values, load_config
from .execution import LiquidationError
from .market_data import (
    DataSplit,
    IngestResult,
    Side,
    aggregate_intervals,
    build_distributions,
    day_windows,
    generate_synthetic,
    ingest_csv,
    write_snapshots_csv,
)


class MissingArtifactError(FileNotFoundError):
    pass


# ---------------------------------------------------------------------------
# Stage artifacts
# ---------------------------------------------------------------------------


def _snapshots_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir() / "snapshots.csv"


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path} missing; run `rlexec {producer}` first")
    return path


def _write_store(cfg: ExperimentConfig, result: IngestResult) -> Path:
    """Write the snapshot store and its ingest_meta.json."""
    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = _snapshots_path(cfg)
    write_snapshots_csv(path, result.snapshots)
    meta = {
        "rows": len(result.snapshots),
        "rejected": result.rejected_rows,
        "row_errors": dict(result.row_errors),
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }
    (out / "ingest_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    return path


def cmd_synth(cfg: ExperimentConfig) -> Path:
    """Generate the synthetic snapshot store."""
    snapshots = generate_synthetic(cfg.seed, cfg.days, cfg.synthetic_config())
    return _write_store(cfg, IngestResult(snapshots=snapshots, rejected_rows=0, row_errors=Counter()))


def cmd_ingest(cfg: ExperimentConfig) -> Path:
    """Normalize a raw depth CSV into the snapshot store."""
    if cfg.data != "csv":
        return cmd_synth(cfg)
    return _write_store(cfg, ingest_csv(cfg.csv))


def _load_split(cfg: ExperimentConfig) -> DataSplit:
    path = _require(_snapshots_path(cfg), "ingest")
    result = ingest_csv(path)
    bars = aggregate_intervals(result.snapshots, cfg.tau, side=Side(cfg.side))
    split = DataSplit.at_boundary(bars, cfg.split_datetime())
    if not split.training:
        raise ValueError("no training bars before the split boundary")
    if not split.testing:
        raise ValueError("no testing bars after the split boundary")
    return split


def cmd_calibrate(cfg: ExperimentConfig) -> Path:
    """Fit sigma/eta on the training bars and write the trajectory."""
    split = _load_split(cfg)
    params = calibrate(split.training, cfg.lam, cfg.V, cfg.T, side=Side(cfg.side))
    trajectory = compute_trajectory(params)
    payload = {
        "sigma": params.sigma,
        "eta": params.eta,
        "rho": params.rho,
        "lambda": params.lam,
        "tau": params.tau,
        "periods": params.periods,
        "total_shares": params.total_shares,
        "kappa": trajectory.kappa,
        "holdings": [float(x) for x in trajectory.holdings],
        "trades": [float(x) for x in trajectory.trades],
        "share_schedule": [int(x) for x in trajectory.share_schedule()],
    }
    path = cfg.out_dir() / "params.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _load_schedule(cfg: ExperimentConfig) -> np.ndarray:
    path = _require(cfg.out_dir() / "params.json", "calibrate")
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "share_schedule" not in payload:
        raise ValueError(f"{path}: missing key 'share_schedule'")
    return np.asarray(payload["share_schedule"], dtype=np.int64)


def cmd_train(cfg: ExperimentConfig) -> Path:
    """Sweep-train the Q table on the training windows."""
    split = _load_split(cfg)
    schedule = _load_schedule(cfg)
    grid = cfg.grid()
    dists = build_distributions(split.training)
    episodes, _ = day_windows(split.training, cfg.H, cfg.T, cfg.tau)
    if not episodes:
        raise ValueError(f"no training windows at hour {cfg.H}")
    q = QTable.zeros(cfg.T, cfg.I, cfg.B, cfg.W, len(grid))
    learning = LearningSchedule(alpha0=cfg.alpha0, gamma=cfg.gamma)
    result = train(
        q,
        episodes,
        schedule,
        grid,
        dists,
        cap=cfg.cap,
        side=Side(cfg.side),
        learning=learning,
        reference_kind=cfg.reference,
    )
    path = cfg.out_dir() / "qtable.csv"
    save_qtable(path, q, grid, learning)
    trace_path = cfg.out_dir() / "train_trace.csv"
    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("tuple_visit_index,pct_correct_actions\n")
        for visit, fraction in result.trace:
            if fraction is None:
                continue
            fh.write(f"{visit},{fraction:.6f}\n")
    return path


def cmd_backtest(cfg: ExperimentConfig) -> Path:
    """Run both strategies over the test days and write records and stats."""
    split = _load_split(cfg)
    schedule = _load_schedule(cfg)
    q, grid, _ = load_qtable(_require(cfg.out_dir() / "qtable.csv", "train"))
    if grid.betas != cfg.grid().betas:
        raise ValueError("q-table action grid does not match the config")
    if q.values.shape[:4] != (cfg.T, cfg.I, cfg.B, cfg.W):
        raise ValueError(f"q-table dims {q.values.shape[:4]} do not match the config's (T, I, B, W)")
    dists = build_distributions(split.training)
    ac_runs = run_ac(cfg, split.testing, schedule)
    rl_runs = run_rl(cfg, split.testing, schedule, q, dists)
    stats = compare(ac_runs.records, rl_runs.records)
    write_runs_csv(cfg.out_dir() / "runs.csv", cfg, {"ac": ac_runs, "rl": rl_runs})
    payload = {f.name: getattr(stats, f.name) for f in fields(ISStatistics)}
    payload["dates"] = [d.isoformat() for d in stats.dates]
    payload["skipped_ac"] = [[d.isoformat(), why] for d, why in ac_runs.skipped]
    payload["skipped_rl"] = [[d.isoformat(), why] for d, why in rl_runs.skipped]
    path = cfg.out_dir() / "stats.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path


def cmd_report(cfg: ExperimentConfig) -> dict[str, Path]:
    """Render the comparison tables and the training trace."""
    stats_path = _require(cfg.out_dir() / "stats.json", "backtest")
    payload = json.loads(stats_path.read_text(encoding="utf-8"))
    missing = [f.name for f in fields(ISStatistics) if f.name not in payload]
    if missing:
        raise ValueError(f"{stats_path}: missing keys {missing}")
    values = {f.name: payload[f.name] for f in fields(ISStatistics)}
    values["dates"] = [date.fromisoformat(d) for d in values["dates"]]
    stats = ISStatistics(**values)
    trace_path = _require(cfg.out_dir() / "train_trace.csv", "train")
    trace: list[tuple[int, float | None]] = []
    for line in trace_path.read_text(encoding="utf-8").splitlines()[1:]:
        visit, fraction = line.split(",")
        trace.append((int(visit), float(fraction)))
    echo = cfg.echo()
    paths = write_report(cfg.out_dir(), [(cfg, stats)], trace=trace, config_echo=echo)
    resolved = cfg.out_dir() / "resolved_config.txt"
    resolved.write_text("".join(f"{key} = {echo[key]}\n" for key in sorted(echo)), encoding="utf-8")
    paths["resolved_config"] = resolved
    return paths


_STAGES = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "calibrate": cmd_calibrate,
    "train": cmd_train,
    "backtest": cmd_backtest,
    "report": cmd_report,
}

_ERROR_CATEGORIES = (
    (ConfigError, "config-error", 2),
    (MissingArtifactError, "missing-artifact", 4),
    (LiquidationError, "data-error", 5),
    (ValueError, "data-error", 5),
    (OSError, "io-error", 3),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlexec",
        description="Trajectory generation, Q-learning training, and shortfall backtesting",
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in _STAGES:
        add_flags(sub.add_parser(stage, help=(_STAGES[stage].__doc__ or "").strip()))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(join_negative_values(sys.argv[1:] if argv is None else argv))
    overrides = {
        key: str(value)
        for key, value in vars(args).items()
        if key not in ("stage", "config_path") and value is not None
    }
    try:
        cfg = load_config(args.config_path, overrides)
        _STAGES[args.stage](cfg)
    except Exception as exc:  # noqa: BLE001 - mapped to exit categories
        for exc_type, category, code in _ERROR_CATEGORIES:
            if isinstance(exc, exc_type):
                print(
                    json.dumps({"error": category, "message": str(exc)}),
                    file=sys.stderr,
                )
                return code
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
