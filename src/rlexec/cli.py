"""Config-driven pipeline: ingest/synth -> calibrate -> train -> backtest -> report.

Each stage reads its upstream artifact from the output directory and writes
its own, so runs are resumable and, given a fixed seed, byte-identical. The
config is a plain key=value file; command-line flags named after the model
parameters override it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import typing
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import date, datetime
from pathlib import Path

import numpy as np

from .agent import (
    ActionGrid,
    LearningSchedule,
    QTable,
    load_qtable,
    save_qtable,
    train,
)
from .almgren_chriss import compute_trajectory, calibrate
from .backtest import ISStatistics, RunConfig, compare, run_ac, run_rl, write_report, write_runs_csv
from .execution import LiquidationError
from .market_data import (
    DataSplit,
    IngestResult,
    Side,
    SyntheticConfig,
    aggregate_intervals,
    build_distributions,
    day_windows,
    generate_synthetic,
    ingest_csv,
    planted_regime_config,
    write_snapshots_csv,
)


class ConfigError(ValueError):
    pass


class MissingArtifactError(FileNotFoundError):
    pass


_PRESETS = ("planted", "uniform")


def _key(default, help: str | None = None):
    """A config key; one with help text is also a command-line flag."""
    return field(default=default, metadata={"help": help} if help else {})


@dataclass
class ExperimentConfig:
    data: str = _key("synthetic", "synthetic | csv")
    csv: str = _key("", "raw depth CSV path")
    days: int = _key(45, "synthetic days")
    preset: str = _key("planted", "synthetic regime preset")
    split: str = _key("", "train/test boundary (ISO datetime)")  # bars before train, rest test
    V: int = _key(10000, "volume to trade")
    T: int = _key(4, "trading periods")
    H: int = _key(10, "trading hour")
    I: int = _key(2, "inventory buckets")
    B: int = _key(2, "spread buckets")
    W: int = _key(2, "volume buckets")
    beta_lb: float = _key(0.0, "lowest beta")
    beta_ub: float = _key(2.0, "highest beta")
    beta_incr: float = _key(0.25, "beta grid step")
    lam: float = _key(0.01, "risk aversion")
    tau: float = _key(300.0, "bar length, seconds")
    gamma: float = 1.0
    alpha0: float = _key(1.0, "initial learning rate")
    cap: float = _key(0.2, "participation cap")
    side: str = _key("buy", "buy | sell")
    reference: str = _key("mid", "arrival benchmark: mid | ask")
    seed: int = _key(42, "experiment seed")
    base_price: float = 100.0
    walk_sigma: float = 0.02
    out: str = _key("out", "output directory")

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"bad value for {_FLAG_NAMES.get(f.name, f.name)}: {value!r} is not finite")
        if self.data not in ("synthetic", "csv"):
            raise ConfigError(f"data must be synthetic or csv, got {self.data!r}")
        if self.data == "csv" and not self.csv:
            raise ConfigError("data=csv requires a csv path")
        if self.preset not in _PRESETS:
            raise ConfigError(f"preset must be one of {_PRESETS}, got {self.preset!r}")
        if not self.split:
            raise ConfigError("split boundary datetime is required")
        try:
            self.split_datetime()
        except ValueError as exc:
            raise ConfigError(f"bad split datetime: {exc}") from exc
        if self.side not in ("buy", "sell"):
            raise ConfigError("side must be buy or sell")
        if self.gamma != 1.0:
            # finite-horizon convergence requires an undiscounted update
            warnings.warn("gamma must be 1 for the finite-horizon update; overriding to 1")
            self.gamma = 1.0
        try:
            self.run_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def split_datetime(self) -> datetime:
        ts = datetime.fromisoformat(self.split.replace("Z", "+00:00"))
        if ts.tzinfo is None:
            raise ValueError("split must carry a timezone")
        return ts

    def grid(self) -> ActionGrid:
        return ActionGrid.from_bounds(self.beta_lb, self.beta_ub, self.beta_incr)

    def run_config(self) -> RunConfig:
        return RunConfig(
            total_shares=self.V,
            periods=self.T,
            hour=self.H,
            inv_buckets=self.I,
            spread_buckets=self.B,
            vol_buckets=self.W,
            grid=self.grid(),
            tau=self.tau,
            cap=self.cap,
            side=Side.BUY if self.side == "buy" else Side.SELL,
            reference=self.reference,
        )

    def synthetic_config(self) -> SyntheticConfig:
        if self.preset == "planted":
            cfg = planted_regime_config(hour=self.H)
        else:
            cfg = SyntheticConfig()
        cfg.base_price = self.base_price
        cfg.walk_sigma = self.walk_sigma
        cfg.tau = self.tau
        return cfg

    def out_dir(self) -> Path:
        return Path(self.out)

    def echo(self) -> dict:
        """Resolved key=value pairs for provenance; `out` is a location, not an
        input, and is excluded so reruns into different directories compare
        byte-identical."""
        items = {f.name: getattr(self, f.name) for f in fields(self)}
        items.pop("out")
        items["lambda"] = items.pop("lam")
        return {k: str(v) for k, v in items.items()}


_KEY_ALIASES = {"lambda": "lam"}
_FLAG_NAMES = {name: key for key, name in _KEY_ALIASES.items()}
_KEY_TYPES = typing.get_type_hints(ExperimentConfig)


def parse_config_file(path: str | Path) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = text.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def load_config(path: str | None, overrides: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    merged: dict[str, str] = {}
    if path:
        merged.update(parse_config_file(path))
    merged.update(overrides)
    for key, value in merged.items():
        name = _KEY_ALIASES.get(key, key)
        if name not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, name, _KEY_TYPES[name](value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Stage artifacts
# ---------------------------------------------------------------------------


def _snapshots_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir() / "snapshots.csv"


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path} missing; run `rlexec {producer}` first")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        "sha256": _sha256(path),
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
    side = Side.BUY if cfg.side == "buy" else Side.SELL
    bars = aggregate_intervals(result.snapshots, cfg.tau, side=side)
    split = DataSplit.at_boundary(bars, cfg.split_datetime())
    if not split.training:
        raise ValueError("no training bars before the split boundary")
    if not split.testing:
        raise ValueError("no testing bars after the split boundary")
    return split


def cmd_calibrate(cfg: ExperimentConfig) -> Path:
    """Fit sigma/eta on the training bars and write the trajectory."""
    split = _load_split(cfg)
    run = cfg.run_config()
    params = calibrate(split.training, cfg.lam, cfg.V, cfg.T, side=run.side)
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
    run = cfg.run_config()
    dists = build_distributions(split.training)
    episodes, _ = day_windows(split.training, cfg.H, cfg.T, cfg.tau)
    if not episodes:
        raise ValueError(f"no training windows at hour {cfg.H}")
    q = QTable.zeros(cfg.T, cfg.I, cfg.B, cfg.W, len(run.grid))
    learning = LearningSchedule(alpha0=cfg.alpha0, gamma=cfg.gamma)
    result = train(
        q,
        episodes,
        schedule,
        run.grid,
        dists,
        total_shares=cfg.V,
        cap=cfg.cap,
        side=run.side,
        learning=learning,
        reference_kind=cfg.reference,
    )
    path = cfg.out_dir() / "qtable.csv"
    save_qtable(path, q, run.grid, learning)
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
    run = cfg.run_config()
    if grid.betas != run.grid.betas:
        raise ValueError("q-table action grid does not match the config")
    if q.values.shape[:4] != (cfg.T, cfg.I, cfg.B, cfg.W):
        raise ValueError(f"q-table dims {q.values.shape[:4]} do not match the config's (T, I, B, W)")
    dists = build_distributions(split.training)
    ac_runs = run_ac(run, split.testing, schedule)
    rl_runs = run_rl(run, split.testing, schedule, q, dists)
    stats = compare(ac_runs.records, rl_runs.records)
    write_runs_csv(cfg.out_dir() / "runs.csv", run, {"ac": ac_runs, "rl": rl_runs})
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
    paths = write_report(
        cfg.out_dir(),
        [(cfg.run_config(), stats)],
        trace=trace,
        config_echo=cfg.echo(),
    )
    resolved = cfg.out_dir() / "resolved_config.txt"
    echo = cfg.echo()
    resolved.write_text(
        "".join(f"{key} = {echo[key]}\n" for key in sorted(echo)), encoding="utf-8"
    )
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
        sp = sub.add_parser(stage, help=(_STAGES[stage].__doc__ or "").strip())
        sp.add_argument("--config", dest="config_path", type=str, default=None, help="key = value experiment file")
        for f in fields(ExperimentConfig):
            if "help" in f.metadata:
                flag = "--" + _FLAG_NAMES.get(f.name, f.name).replace("_", "-")
                sp.add_argument(flag, dest=f.name, type=_KEY_TYPES[f.name], default=None, help=f.metadata["help"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
