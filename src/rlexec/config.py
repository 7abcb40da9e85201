"""The one experiment schema, read from a key = value file and flags.

An `ExperimentConfig` is one cell of the paper's Table 1 (V, T, hour H, state
grid I/B/W, beta grid) plus its data source and engine knobs; every CLI stage
and backtest function takes it. Each field with help text is also a
command-line flag, and flags override the file (``#`` starts a comment).
"""

from __future__ import annotations

import argparse
import math
import typing
from dataclasses import dataclass, field, fields
from datetime import datetime
from pathlib import Path

from .agent import MAX_QTABLE_CELLS, ActionGrid
from .market_data import SyntheticConfig, planted_regime_config, synthetic_rows


class ConfigError(ValueError):
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
        cfg = planted_regime_config(self.H) if self.preset == "planted" else SyntheticConfig()
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
    """The key = value pairs of a config file, which may start with a UTF-8
    byte-order mark. A key that sets a field an earlier line set, under its
    own name or an alias, is a ConfigError naming both lines."""
    try:
        content = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raw: dict[str, str] = {}
    first: dict[str, tuple[str, int]] = {}  # per field, the key and line that set it
    for lineno, line in enumerate(content.splitlines(), start=1):
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
