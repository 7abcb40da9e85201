"""The one experiment schema, read from a key = value file and flags.

An `ExperimentConfig` is one cell of the paper's Table 1 (V, T, hour H, state
grid I/B/W, beta grid) plus its data source and engine knobs; every CLI stage
and backtest function takes it. Each field with help text is also a
command-line flag, and flags override the file (``#`` starts a comment).
The module imports no NumPy: a stage resolves and validates its config,
action grid and synthetic-store bound without loading it.

`HANDOFFS` is the schema of the files the stages hand one another: every
field a stage reads, with its kind, shape and range, in one table.
"""

from __future__ import annotations

import argparse
import math
import typing
from dataclasses import dataclass, field, fields
from datetime import datetime
from pathlib import Path

if typing.TYPE_CHECKING:
    from .market_data import SyntheticConfig


class ConfigError(ValueError):
    pass


#: Most betas from_bounds builds; the Q table holds one value per beta and state.
MAX_ACTIONS = 10_000
#: Most cells (T x I x B x W x actions) a run's Q table may have. A cell takes
#: 16 bytes of arrays and a 30-50 byte CSV export row: at the bound, 320 MB
#: and up to 1 GB.
MAX_QTABLE_CELLS = 20_000_000


@dataclass(frozen=True)
class ActionGrid:
    """Strictly increasing, finite beta multipliers applied to the child volume."""

    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.betas:
            raise ValueError("empty action grid")
        if not all(math.isfinite(b) for b in self.betas):
            raise ValueError("non-finite beta")
        if any(b < 0 for b in self.betas):
            raise ValueError("negative beta")
        if any(b2 <= b1 for b1, b2 in zip(self.betas, self.betas[1:])):
            raise ValueError("betas must be strictly increasing")

    @classmethod
    def from_bounds(cls, lower: float, upper: float, incr: float) -> "ActionGrid":
        """lower, lower + incr, ... up to upper: at most MAX_ACTIONS betas,
        checked before any is built."""
        if incr <= 0 or upper < lower:
            raise ValueError("bad beta bounds")
        steps = (upper - lower) / incr
        if not steps < MAX_ACTIONS - 0.5:  # also catches inf and nan
            raise ValueError(f"beta grid from {lower!r} to {upper!r} by {incr!r} exceeds {MAX_ACTIONS} actions")
        count = int(round(steps)) + 1
        return cls(betas=tuple(lower + k * incr for k in range(count)))

    def __len__(self) -> int:
        return len(self.betas)


#: Price levels per side of a depth row: a row is 4 * N_LEVELS values.
N_LEVELS = 5
#: Synthetic days run one UTC session of SESSION_HOURS each, with
#: SNAPSHOTS_PER_INTERVAL evenly spaced snapshots per tau-interval.
SESSION_HOURS = range(9, 17)
SNAPSHOTS_PER_INTERVAL = 5
#: Most rows generate_synthetic builds. It allocates them all up front: per
#: row the 20 float64 values, an 11-float draw buffer, the mid and the two
#: int64 timestamps, 272 bytes; no temporary it makes is as large as the values.
MAX_SYNTHETIC_ROWS = 1_000_000


def synthetic_rows(days: int, tau: float) -> int:
    """Rows generate_synthetic builds for `days` days of `tau`-second bars,
    checked against MAX_SYNTHETIC_ROWS before any row exists. A synthetic
    hour holds round(3600 / tau) bars, none for a tau of 7200 s or more: a
    ValueError naming tau."""
    per_hour = 3600.0 / tau  # inf for a subnormal tau, which round() refuses
    per_hour = round(per_hour) if math.isfinite(per_hour) else per_hour
    if per_hour < 1:
        raise ValueError(f"tau = {tau!r} s leaves no synthetic rows: a synthetic hour holds round(3600 / tau) = 0 bars")
    rows = days * len(SESSION_HOURS) * per_hour * SNAPSHOTS_PER_INTERVAL
    if not rows <= MAX_SYNTHETIC_ROWS:  # also catches inf and nan
        raise ValueError(
            f"{days} days of {tau!r} s bars need {rows:,.0f} synthetic rows, more than {MAX_SYNTHETIC_ROWS:,}"
        )
    return rows


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
    cap: float = _key(0.2, "participation cap")
    side: str = _key("buy", "buy | sell")
    reference: str = _key("mid", "arrival benchmark: mid | ask")
    seed: int = _key(42, "experiment seed")
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
        try:
            actions = len(self.grid())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cells = self.T * self.I * self.B * self.W * actions
        for ok, message in (
            (self.V > 0, "total shares must be > 0"),
            (self.V <= 2**53, "total shares must be <= 2**53, up to which float64 holds every whole number"),
            (self.T >= 1, "periods must be >= 1"),
            (0 <= self.H <= 23, "hour outside the trading day"),
            (min(self.I, self.B, self.W) >= 2, "bucket counts must be >= 2"),
            (0.0 < self.cap <= 1.0, "cap must be in (0, 1]"),
            (self.tau > 0, "tau must be > 0"),
            (self.reference in ("mid", "ask"), "reference must be mid or ask"),
            (self.lam >= 0, "lambda must be >= 0"),
            (self.days >= 1, "days must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (
                cells <= MAX_QTABLE_CELLS,
                f"q-table of T x I x B x W x {actions} actions = {cells:,} cells, more than {MAX_QTABLE_CELLS:,}",
            ),
        ):
            if not ok:
                raise ConfigError(message)
        if self.data == "synthetic":
            try:
                synthetic_rows(self.days, self.tau)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    def split_datetime(self) -> datetime:
        ts = datetime.fromisoformat(self.split.replace("Z", "+00:00"))
        if ts.tzinfo is None:
            raise ValueError("split must carry a timezone")
        return ts

    def grid(self) -> ActionGrid:
        return ActionGrid.from_bounds(self.beta_lb, self.beta_ub, self.beta_incr)

    def synthetic_config(self) -> SyntheticConfig:
        """The generator config of the preset, planted at this config's hour,
        for bars of its tau; every other generator setting is the preset's."""
        from .market_data import SyntheticConfig, planted_regime_config  # here: only ingest generates

        cfg = planted_regime_config(self.H) if self.preset == "planted" else SyntheticConfig()
        cfg.tau = self.tau
        return cfg

    def out_dir(self) -> Path:
        return Path(self.out)

    def dims(self) -> dict[str, int]:
        """The lengths of the named dimensions of `HANDOFFS` the config sets."""
        return {"T": self.T, "I": self.I, "B": self.B, "W": self.W, "A": len(self.grid())}

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
    """The key = value pairs of a config file, which may start with a UTF-8
    byte-order mark, in lines that end at an LF or a CRLF. A CR elsewhere is
    a ConfigError: in a classic-Mac file a first comment would hide the rest.
    A key that sets a field an earlier line set, under its own name or an
    alias, is a ConfigError naming both lines."""
    try:
        content = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raw: dict[str, str] = {}
    first: dict[str, tuple[str, int]] = {}  # per field, the key and line that set it
    for lineno, line in enumerate(content.split("\n"), start=1):
        if "\r" in line.removesuffix("\r"):
            raise ConfigError(f"{path}:{lineno}: a CR inside a line; a line ends at an LF or a CRLF")
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = text.partition("=")
        key = key.strip()
        name = _KEY_ALIASES.get(key, key)
        if name in first:
            earlier, earlier_line = first[name]
            raise ConfigError(f"{path}: key {key!r} on line {lineno} repeats {earlier!r} on line {earlier_line}")
        first[name] = (key, lineno)
        raw[key] = value.strip()
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


_FLAGS = {
    "--" + _FLAG_NAMES.get(f.name, f.name).replace("_", "-"): f for f in fields(ExperimentConfig) if "help" in f.metadata
}


def add_flags(parser: argparse.ArgumentParser) -> None:
    """Add `--config` and one flag per ExperimentConfig field with help text."""
    parser.add_argument("--config", dest="config_path", type=str, default=None, help="key = value experiment file")
    for flag, f in _FLAGS.items():
        parser.add_argument(flag, dest=f.name, type=_KEY_TYPES[f.name], default=None, help=f.metadata["help"])


def join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--flag -1e-3` as `--flag=-1e-3`: argparse reads only `-N` and
    `-N.N` as numbers and would take `-1e-3` or `-inf` for an option. A config
    flag, or a prefix naming only it, takes one value, so the single-dash token
    after it is that value.
    """
    joined: list[str] = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if sum(f.startswith(flag) for f in _FLAGS) == 1 and arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


class Field(typing.NamedTuple):
    """One value a stage reads from a hand-off. `kind` is float64, int64 or U64
    (an .npz array's dtype; in JSON, a number a float or an int64 holds), str
    or date (an ISO date string). `shape` runs over lengths and named
    dimensions: n, the file's own, and T, I, B, W and A (`ExperimentConfig.dims`).
    A `finite` field holds no NaN or infinity, none below `low`, JSON null if `null`."""

    kind: str
    shape: tuple = ()
    finite: bool = False
    low: int | None = None
    null: bool = False

    def bind(self, shape: tuple[int, ...], sizes: dict[str, int]) -> tuple[int, ...]:
        """The shape due where the file has `shape`: each name's length in `sizes`, else bound from `shape`."""
        for dim, length in zip(self.shape, shape):
            if isinstance(dim, str):
                sizes.setdefault(dim, length)
        return tuple(sizes.get(dim, dim) for dim in self.shape)


Handoff = typing.NamedTuple("Handoff", [("writer", str), ("fields", dict[str, Field])])
_NUMBER, _NUMBERS = Field("float64", finite=True), Field("float64", ("n",), finite=True)
_COLUMN = Field("float64", ("n",))

#: Every file a stage writes for another: the stage that writes it, and each
#: field a stage reads from it, which `cli._load_json`, `cli._load_trace` and
#: `market_data._load_npz` enforce. What no one field shows (a bar no
#: aggregation gives, bars of another source, a trade list that does not plan
#: V shares) the stage checks.
HANDOFFS = {
    "ingest_meta.json": Handoff("ingest", {"sha256": Field("str")}),
    # the columns of `market_data.Bars`, their length in seconds, and their source depth CSV's sha256
    "bars.npz": Handoff("ingest", {
        "start": _COLUMN, "utc_offset": _COLUMN, "n_snapshots": Field("int64", ("n",)),
        "row": Field("float64", ("n", 4 * N_LEVELS)), "tau": Field("float64"), "source_sha256": Field("U64"),
    }),
    "params.json": Handoff("calibrate", {"share_schedule": Field("int64", ("T",), low=0)}),
    "qtable.npz": Handoff("train", {
        "values": Field("float64", tuple("TIBWA"), finite=True),  # np.argmax would take a NaN for the greedy action
        "visits": Field("int64", tuple("TIBWA"), low=0),
        "betas": Field("float64", ("A",)),
    }),
    # the columns, under a header naming them in order
    "train_trace.csv": Handoff("train", {
        "tuple_visit_index": Field("int64", ("n",), low=0), "pct_correct_actions": _NUMBERS,
    }),
    # `report.ISStatistics`, whose report formats each number as a float
    "stats.json": Handoff("backtest", {
        "dates": Field("date", ("n",)), "ac_bps": _NUMBERS, "rl_bps": _NUMBERS, "median_ac": _NUMBER,
        "median_rl": _NUMBER, "median_improvement_pct": Field("float64", finite=True, null=True),
        "std_ac_pct": _NUMBER, "std_rl_pct": _NUMBER, "n_days": Field("int64", low=0),
    }),
}
