"""Config-driven pipeline: ingest -> calibrate -> train -> backtest -> report.

Each stage reads its upstream artifact from the output directory and writes
its own, so runs are resumable and, given a fixed seed, byte-identical. Every
stage takes the same `ExperimentConfig` (see `rlexec.config`): a key = value
file, overridden by command-line flags named after the model parameters.

Ingest is the only stage that parses depth CSV: the user's raw file with
data = csv, else the generated store it writes to `snapshots.csv`, the
readable export. `rlexec.depth_csv` cuts it once into blocks of whole lines,
which go through NumPy's C reader, and parses them in runs of blocks, each
run after the first in a forked part that carries rows only (its two int64
timestamp columns, then its raw float64 cells). A block that cannot be
certified sends the whole file through the csv module in the parent, so the
result, errors included, is the one-range result. Ingest
writes `ingest_meta.json`, with that file's sha256, and `bars.npz`, its
tau-second bars as the columns of one `Bars` table, which calibrate, train
and backtest load; the split is a mask on the bar starts. A digest the two
disagree on is a data error naming both files.
Train writes `qtable.csv`, the readable export, and `qtable.npz`, the arrays
backtest loads. `config.HANDOFFS` declares each file one stage hands another:
a file its readers refuse is a data error naming the file.

The two readable exports, `snapshots.csv` and `qtable.csv`, are written in
row ranges, one per usable CPU above a floor of rows per range: each range
after the first is formatted at the same time by a forked child, appended in
order, so the bytes are the one-range bytes, and the whole export replaces
the file only once every part is in. `rlexec.parts` holds the fork, reap and
kill code that the parse and both writers share: every forked part, the
parse's and the exports', comes back through an unlinked spool file that
the parent reads once it has reaped the child. A child that fails is an
io-error naming the file, which it leaves as it was.

Each stage imports only the modules it runs, inside its `cmd_*` body:
`import rlexec.cli` and `rlexec --help` load `rlexec`, `rlexec.cli` and
`rlexec.config`, which import no NumPy.
- ingest: `market_data` and NumPy, `depth_csv` to parse, `parts` to fork and
  `hashlib` (with OpenSSL's `_hashlib`) for the sha256;
- calibrate: `market_data`, `execution` and `almgren_chriss`;
- train: `market_data`, `execution`, `agent` and `parts`;
- backtest: `market_data`, `execution`, `agent`, `backtest` and `report`;
- report: `report` only, without NumPy.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any

# rlexec.cli.<name>, such as rlexec.cli.ingest_csv, resolves each name the package exports from its layer
from . import __getattr__  # noqa: F401
from .config import HANDOFFS, ConfigError, ExperimentConfig, Field, add_flags, join_negative_values, load_config

if TYPE_CHECKING:
    import numpy as np

    from .market_data import Bars, IngestResult


class MissingArtifactError(FileNotFoundError):
    pass


def _require(cfg: ExperimentConfig, name: str) -> Path:
    """The path of hand-off `name` in the output directory, which must exist."""
    path = cfg.out_dir() / name
    if not path.exists():
        raise MissingArtifactError(f"{path} missing; run `rlexec {HANDOFFS[name].writer}` first")
    return path


def _fits(field: Field, value: Any) -> bool:
    """Whether one JSON value is of `field`'s kind and range. No bool passes
    for a number, nor an int no float holds for a float64."""
    if field.kind == "int64":
        ok = isinstance(value, int) and -(2**63) <= value < 2**63
    elif field.kind == "float64":  # NaN and the infinities only where not finite
        ok = isinstance(value, (int, float))
        ok = ok and (abs(value) <= sys.float_info.max or isinstance(value, float) and not field.finite)
    else:
        try:
            ok = isinstance(value, str) and (field.kind == "str" or bool(date.fromisoformat(value)))
        except ValueError:
            ok = False
    ok = ok and not isinstance(value, bool) and (field.low is None or value >= field.low)
    return ok or value is None and field.null


def _noun(field: Field) -> str:
    noun = {"float64": "number", "int64": "integer", "str": "string", "date": "ISO date"}[field.kind]
    return noun if field.low is None else f"non-negative {noun}"


def _load_json(cfg: ExperimentConfig, name: str) -> dict:
    """The JSON object in hand-off `name`, each field `HANDOFFS` declares for
    it of a length and values `_fits` passes; else, or for a file that is not
    UTF-8 JSON or nests too deep to parse, a ValueError naming the file."""
    path = _require(cfg, name)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    fields = HANDOFFS[name].fields
    missing = [key for key in fields if key not in payload]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    sizes = cfg.dims()
    for key, field in fields.items():
        value = payload[key]
        fits = isinstance(value, list) and all(_fits(field, v) for v in value) if field.shape else _fits(field, value)
        if not fits:
            kind = f"a list of {_noun(field)}s" if field.shape else f"a {_noun(field)}" + " or null" * field.null
            raise ValueError(f"{path}: {key!r} is not {kind}")
        if field.shape and field.bind((len(value),), sizes) != (len(value),):
            dim = field.shape[0]
            raise ValueError(f"{path}: {key!r} has {len(value)} entries, not {dim} = {sizes[dim]}")
    return {key: payload[key] for key in fields}


def _write_bars(cfg: ExperimentConfig, source: Path, result: IngestResult) -> Path:
    """Write ingest_meta.json for the depth CSV at `source`, whose snapshots
    `result` holds, and bars.npz, those snapshots aggregated at the config's
    tau; both carry the sha256 of `source`."""
    import hashlib  # here: OpenSSL's _hashlib, about 3 ms a process, loads in ingest alone

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
    path = cfg.out_dir() / "bars.npz"
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

    path = _require(cfg, "bars.npz")
    sha256 = _load_json(cfg, "ingest_meta.json")["sha256"]
    bars = load_bars(path, cfg.tau, sha256, Side(cfg.side), recorded_in=cfg.out_dir() / "ingest_meta.json")
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

    shares = _load_json(cfg, "params.json")["share_schedule"]
    total = sum(shares)  # Python ints, which cannot wrap
    if total != cfg.V:
        raise ValueError(f"{cfg.out_dir() / 'params.json'}: share_schedule plans {total} shares, not V = {cfg.V}")
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
    rows = [",".join(HANDOFFS["train_trace.csv"].fields), *(f"{v},{f:.6f}" for v, f in result.trace if f is not None)]
    (cfg.out_dir() / "train_trace.csv").write_text("".join(f"{row}\n" for row in rows), encoding="utf-8", newline="")
    return path


def cmd_backtest(cfg: ExperimentConfig) -> Path:
    """Run both strategies over the test days and write records and stats."""
    from .agent import load_qtable
    from .backtest import compare, run_ac, run_rl, write_runs_csv
    from .market_data import build_distributions

    training, testing = _load_split(cfg)
    schedule = _load_schedule(cfg)
    path = _require(cfg, "qtable.npz")
    q, grid = load_qtable(path, cfg.dims())
    if grid != cfg.grid():
        raise ValueError(f"{path}: betas {grid.betas} are not the config's action grid")
    dists = build_distributions(training)
    ac_runs = run_ac(cfg, testing, schedule)
    rl_runs = run_rl(cfg, testing, schedule, q, dists)
    stats = compare(ac_runs.records, rl_runs.records)
    write_runs_csv(cfg.out_dir() / "runs.csv", cfg, {"ac": ac_runs, "rl": rl_runs})
    payload = {name: getattr(stats, name) for name in HANDOFFS["stats.json"].fields}
    payload["skipped_ac"], payload["skipped_rl"] = ac_runs.skipped, rl_runs.skipped  # (date, reason) pairs
    path = cfg.out_dir() / "stats.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=date.isoformat), encoding="utf-8")
    return path


def _load_trace(cfg: ExperimentConfig) -> list[tuple[int, float]]:
    """The rows below the header of train_trace.csv, whose columns `HANDOFFS`
    declares; a line without a JSON number `_fits` in each column, as train
    writes them, is a ValueError naming the file and the line."""
    path = _require(cfg, "train_trace.csv")
    fields = HANDOFFS["train_trace.csv"].fields
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    header, kinds = ",".join(fields), ", ".join(f"a {_noun(field)}" for field in fields.values())
    if lines[:1] != [header]:
        raise ValueError(f"{path}: line 1: {(lines or [''])[0]!r} is not the header {header!r}")
    trace = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(f"[{line}]")
        except (ValueError, RecursionError):
            row = []
        if len(row) != len(fields) or not all(map(_fits, fields.values(), row)):
            raise ValueError(f"{path}: line {lineno}: {line!r} is not {len(fields)} cells: {kinds}")
        trace.append(tuple(row))
    return trace


def cmd_report(cfg: ExperimentConfig) -> dict[str, Path]:
    """Render the comparison tables and the training trace."""
    from .report import ISStatistics, write_report

    values = _load_json(cfg, "stats.json")
    values["dates"] = [date.fromisoformat(d) for d in values["dates"]]
    stats = ISStatistics(**values)
    trace = _load_trace(cfg)
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
