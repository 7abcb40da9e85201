"""Config-driven pipeline: ingest -> calibrate -> train -> backtest -> report.

Each stage reads its upstream artifact from the output directory and writes
its own, so runs are resumable and, given a fixed seed, byte-identical. Every
stage takes the same `ExperimentConfig` (see `rlexec.config`): a key = value
file, overridden by command-line flags named after the model parameters.

Ingest is the only stage that parses depth CSV. With data = csv it parses
the user's raw depth CSV once and writes `ingest_meta.json`, with that file's
sha256, and `bars.npz`, its tau-second bars as the columns of one `Bars`
table. With data = synthetic it writes the generated store `snapshots.csv`,
the readable export, reads it back the way it reads a raw file, and writes
the same two files for it. Calibrate, train and backtest load `bars.npz` and
never open a depth CSV; the split is a mask on the bar starts. A `bars.npz` of another tau, of a
source depth CSV other than the one `ingest_meta.json` hashes, or with a bar
no aggregation gives, is a data error. The config's order side and bar length
reach calibrate, train and backtest only through the loaded `Bars`: `load_bars`
checks the file's tau against the config's and gives the bars the config's
side. Train, at the agent's fixed harmonic learning rate, likewise writes
`qtable.csv`, the readable export, and `qtable.npz`, the arrays backtest
loads; backtest never opens `qtable.csv`.
A hand-off that does not decode as UTF-8, a JSON hand-off lacking a key,
with a value of the wrong type, a non-finite number or nesting too deep to
parse, a trade list that does not plan V shares, or a malformed
`train_trace.csv` line is a data error as well, naming the file.

Each stage imports only the modules it runs, inside its `cmd_*` body:
`import rlexec.cli` and `rlexec --help` load `rlexec`, `rlexec.cli` and
`rlexec.config`, which import no NumPy.
- ingest: `market_data` and NumPy, and `depth_csv` to parse;
- calibrate: `market_data`, `execution` and `almgren_chriss`;
- train: `market_data`, `execution` and `agent`;
- backtest: `market_data`, `execution`, `agent`, `backtest` and `report`;
- report: `report` only, without NumPy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, get_type_hints

# rlexec.cli.<name>, such as rlexec.cli.ingest_csv, resolves each name the package exports from its layer
from . import __getattr__  # noqa: F401
from .config import ConfigError, ExperimentConfig, add_flags, join_negative_values, load_config

if TYPE_CHECKING:
    import numpy as np

    from .market_data import Bars, IngestResult


class MissingArtifactError(FileNotFoundError):
    pass


def _bars_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir() / "bars.npz"


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path} missing; run `rlexec {producer}` first")
    return path


def _is_number(value: Any) -> bool:
    # finite, and within a float's range: the report formats every number as a float
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_count(value: Any) -> bool:
    return _is_number(value) and isinstance(value, int) and 0 <= value < 2**63


def _is_iso_date(value: Any) -> bool:
    try:
        return bool(date.fromisoformat(value))
    except (TypeError, ValueError):
        return False


def _list_of(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, list) and all(map(check, value))


#: The JSON form of each type a hand-off value has, as (description, check):
#: an int is a count, a non-negative integer within int64, a float is any
#: finite number a float holds, and a date is an ISO date string. No bool
#: passes for a number.
_JSON_TYPES: dict[Any, tuple[str, Callable[[Any], bool]]] = {
    str: ("a string", lambda value: isinstance(value, str)),
    int: ("a non-negative integer", _is_count),
    float: ("a number", _is_number),
    float | None: ("a number or null", lambda value: value is None or _is_number(value)),
    list[int]: ("a list of non-negative integers", _list_of(_is_count)),
    list[float]: ("a list of numbers", _list_of(_is_number)),
    list[date]: ("a list of ISO dates", _list_of(_is_iso_date)),
}


def _load_json(path: Path, types: dict[str, Any]) -> dict:
    """The JSON object in `path`, with each key of `types` holding a value of
    that key's type in JSON form (_JSON_TYPES); else, or for a file that is
    not UTF-8 JSON or nests too deep to parse, a ValueError naming `path`."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    missing = [key for key in types if key not in payload]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    for key, hint in types.items():
        description, check = _JSON_TYPES[hint]
        if not check(payload[key]):
            raise ValueError(f"{path}: {key!r} is not {description}")
    return payload


def _write_bars(cfg: ExperimentConfig, source: Path, result: IngestResult) -> Path:
    """Write ingest_meta.json for the depth CSV at `source`, whose snapshots
    `result` holds, and bars.npz, those snapshots aggregated at the config's
    tau; both carry the sha256 of `source`."""
    from .market_data import aggregate_intervals, save_bars

    with open(source, "rb") as fh:
        sha256 = hashlib.file_digest(fh, "sha256").hexdigest()
    meta = {
        "rows": len(result.snapshots),
        "rejected": result.rejected_rows,
        "row_errors": dict(result.row_errors),
        "sha256": sha256,
    }
    cfg.out_dir().mkdir(parents=True, exist_ok=True)
    (cfg.out_dir() / "ingest_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    path = _bars_path(cfg)
    save_bars(path, aggregate_intervals(result.snapshots, cfg.tau), sha256)
    return path


def cmd_ingest(cfg: ExperimentConfig) -> Path:
    """Normalize a raw depth CSV, or generated synthetic depth, into interval bars."""
    # (the docstring is the stage's --help line.) Writes ingest_meta.json and
    # bars.npz, which calibrate, train and backtest load. A raw CSV is parsed
    # once, and no copy of its rows is written. Synthetic depth is written to
    # snapshots.csv, the generated frame is dropped, and the store is read
    # back through the validate-and-sort path a raw CSV takes.
    from .market_data import generate_synthetic, ingest_csv, write_snapshots_csv

    if cfg.data == "csv":
        return _write_bars(cfg, Path(cfg.csv), ingest_csv(cfg.csv))
    cfg.out_dir().mkdir(parents=True, exist_ok=True)
    store = cfg.out_dir() / "snapshots.csv"
    write_snapshots_csv(store, generate_synthetic(cfg.seed, cfg.days, cfg.synthetic_config()))
    return _write_bars(cfg, store, ingest_csv(store))


def _load_split(cfg: ExperimentConfig) -> tuple[Bars, Bars]:
    """The bars ingest wrote to bars.npz, split at the config's boundary:
    those starting before it train, the rest test. No depth CSV is read."""
    from .market_data import Side, load_bars

    path = _require(_bars_path(cfg), "ingest")
    meta = _load_json(_require(cfg.out_dir() / "ingest_meta.json", "ingest"), {"sha256": str})
    bars = load_bars(path, cfg.tau, meta["sha256"], Side(cfg.side))
    boundary = (cfg.split_datetime() - datetime.fromtimestamp(0, timezone.utc)) // timedelta(microseconds=1)
    training = bars.start_us < boundary
    if not training.any():
        raise ValueError("no training bars before the split boundary")
    if training.all():
        raise ValueError("no testing bars after the split boundary")
    return bars[training], bars[~training]


def cmd_calibrate(cfg: ExperimentConfig) -> Path:
    """Fit sigma/eta on the training bars and write the trajectory."""
    from .almgren_chriss import calibrate, compute_trajectory

    training, _ = _load_split(cfg)
    params = calibrate(training, cfg.lam, cfg.V, cfg.T)
    trajectory = compute_trajectory(params)
    payload = {
        "sigma": params.sigma, "eta": params.eta, "rho": params.rho, "lambda": params.lam, "tau": params.tau,
        "periods": params.periods, "total_shares": params.total_shares, "kappa": trajectory.kappa,
        "holdings": [float(x) for x in trajectory.holdings],
        "trades": [float(x) for x in trajectory.trades],
        "share_schedule": [int(x) for x in trajectory.share_schedule()],
    }
    path = cfg.out_dir() / "params.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _load_schedule(cfg: ExperimentConfig) -> np.ndarray:
    """The trade list in params.json, which must plan the config's V shares."""
    import numpy as np

    path = _require(cfg.out_dir() / "params.json", "calibrate")
    shares = _load_json(path, {"share_schedule": list[int]})["share_schedule"]
    total = sum(shares)  # Python ints, which cannot wrap
    if total != cfg.V:
        raise ValueError(f"{path}: share_schedule plans {total} shares, not V = {cfg.V}")
    return np.asarray(shares, dtype=np.int64)


def cmd_train(cfg: ExperimentConfig) -> Path:
    """Sweep-train the Q table on the training windows."""
    from .agent import QTable, save_qtable, train
    from .market_data import build_distributions, day_windows

    training, _ = _load_split(cfg)
    schedule = _load_schedule(cfg)
    grid = cfg.grid()
    dists = build_distributions(training)
    episodes, _ = day_windows(training, cfg.H, cfg.T)
    if not episodes:
        raise ValueError(f"no training windows at hour {cfg.H}")
    q = QTable.zeros(cfg.T, cfg.I, cfg.B, cfg.W, len(grid))
    result = train(q, episodes, schedule, grid, dists, cap=cfg.cap, reference_kind=cfg.reference)
    path = cfg.out_dir() / "qtable.csv"
    save_qtable(path, q, grid)  # and qtable.npz, which backtest loads
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
    from .agent import load_qtable
    from .backtest import compare, run_ac, run_rl, write_runs_csv
    from .market_data import build_distributions
    from .report import ISStatistics

    training, testing = _load_split(cfg)
    schedule = _load_schedule(cfg)
    q, grid = load_qtable(_require(cfg.out_dir() / "qtable.npz", "train"))
    if grid.betas != cfg.grid().betas:
        raise ValueError("q-table action grid does not match the config")
    if q.values.shape[:4] != (cfg.T, cfg.I, cfg.B, cfg.W):
        raise ValueError(f"q-table dims {q.values.shape[:4]} do not match the config's (T, I, B, W)")
    dists = build_distributions(training)
    ac_runs = run_ac(cfg, testing, schedule)
    rl_runs = run_rl(cfg, testing, schedule, q, dists)
    stats = compare(ac_runs.records, rl_runs.records)
    write_runs_csv(cfg.out_dir() / "runs.csv", cfg, {"ac": ac_runs, "rl": rl_runs})
    payload = {f.name: getattr(stats, f.name) for f in fields(ISStatistics)}
    payload["dates"] = [d.isoformat() for d in stats.dates]
    payload["skipped_ac"] = [[d.isoformat(), why] for d, why in ac_runs.skipped]
    payload["skipped_rl"] = [[d.isoformat(), why] for d, why in rl_runs.skipped]
    path = cfg.out_dir() / "stats.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _load_trace(path: Path) -> list[tuple[int, float]]:
    """The (tuple visits, correct-action fraction) rows of the train_trace.csv
    at `path`, below its header. A line without exactly those two fields, or
    with a visit count that is not an integer or a fraction that is not a
    finite number, is a ValueError naming `path` and the line."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    trace: list[tuple[int, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != 2:
                raise ValueError(f"{len(cells)} fields, not 2")
            visit, fraction = int(cells[0]), float(cells[1])
            if not abs(fraction) <= sys.float_info.max:
                raise ValueError(f"non-finite fraction {cells[1]!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        trace.append((visit, fraction))
    return trace


def cmd_report(cfg: ExperimentConfig) -> dict[str, Path]:
    """Render the comparison tables and the training trace."""
    from .report import ISStatistics, write_report

    types = get_type_hints(ISStatistics)
    payload = _load_json(_require(cfg.out_dir() / "stats.json", "backtest"), types)
    values = {name: payload[name] for name in types}
    values["dates"] = [date.fromisoformat(d) for d in values["dates"]]
    stats = ISStatistics(**values)
    trace = _load_trace(_require(cfg.out_dir() / "train_trace.csv", "train"))
    echo = cfg.echo()
    paths = write_report(cfg.out_dir(), [(cfg, stats)], trace=trace, config_echo=echo)
    resolved = cfg.out_dir() / "resolved_config.txt"
    resolved.write_text("".join(f"{key} = {echo[key]}\n" for key in sorted(echo)), encoding="utf-8")
    paths["resolved_config"] = resolved
    return paths


_STAGES = {
    "ingest": cmd_ingest,
    "calibrate": cmd_calibrate,
    "train": cmd_train,
    "backtest": cmd_backtest,
    "report": cmd_report,
}

_ERROR_CATEGORIES = (
    (ConfigError, "config-error", 2),
    (MissingArtifactError, "missing-artifact", 4),
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
