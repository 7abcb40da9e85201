"""The staged command line: flags, config resolution, exit categories, reruns."""

from __future__ import annotations

import argparse
import json
import shutil

import pytest

from rlexec import cli

SPLIT = "2024-01-04T00:00:00+00:00"
STAGES = ("ingest", "calibrate", "train", "backtest", "report")
ARTIFACTS = (
    "snapshots.csv",
    "ingest_meta.json",
    "params.json",
    "qtable.csv",
    "train_trace.csv",
    "runs.csv",
    "stats.json",
    "table1.csv",
    "table2.csv",
    "fig2_trace.csv",
    "resolved_config.txt",
)
# every stage's flags: name, dest, type, help
FLAGS = [
    ("--config", "config_path", str, "key = value experiment file"),
    ("--data", "data", str, "synthetic | csv"),
    ("--csv", "csv", str, "raw depth CSV path"),
    ("--days", "days", int, "synthetic days"),
    ("--preset", "preset", str, "synthetic regime preset"),
    ("--split", "split", str, "train/test boundary (ISO datetime)"),
    ("--V", "V", int, "volume to trade"),
    ("--T", "T", int, "trading periods"),
    ("--H", "H", int, "trading hour"),
    ("--I", "I", int, "inventory buckets"),
    ("--B", "B", int, "spread buckets"),
    ("--W", "W", int, "volume buckets"),
    ("--beta-lb", "beta_lb", float, "lowest beta"),
    ("--beta-ub", "beta_ub", float, "highest beta"),
    ("--beta-incr", "beta_incr", float, "beta grid step"),
    ("--lambda", "lam", float, "risk aversion"),
    ("--tau", "tau", float, "bar length, seconds"),
    ("--alpha0", "alpha0", float, "initial learning rate"),
    ("--cap", "cap", float, "participation cap"),
    ("--side", "side", str, "buy | sell"),
    ("--reference", "reference", str, "arrival benchmark: mid | ask"),
    ("--seed", "seed", int, "experiment seed"),
    ("--out", "out", str, "output directory"),
]


def args(stage: str, out, *extra: str) -> list[str]:
    return [stage, "--days", "6", "--split", SPLIT, "--seed", "3", "--out", str(out), *extra]


def run_pipeline(out) -> None:
    for stage in STAGES:
        assert cli.main(args(stage, out)) == 0, stage


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline") / "out"
    run_pipeline(out)
    return out


def error_of(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_every_stage_has_the_same_flags():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert tuple(sub.choices) == ("ingest", "synth", "calibrate", "train", "backtest", "report")
    for stage_parser in sub.choices.values():
        flags = [a for a in stage_parser._actions if a.dest != "help"]
        assert [(a.option_strings[0], a.dest, a.type, a.help) for a in flags] == FLAGS
        assert all(a.default is None for a in flags)
    assert parser.parse_args(["train", "--lambda", "0.5"]).lam == 0.5


def test_flag_overrides_config_file(tmp_path, monkeypatch):
    path = tmp_path / "exp.cfg"
    path.write_text(f"split = {SPLIT}\nT = 6\nlambda = 0.5\ncap = 0.3  # comment\n", encoding="utf-8")
    seen = []
    monkeypatch.setitem(cli._STAGES, "train", seen.append)
    assert cli.main(["train", "--config", str(path), "--T", "8"]) == 0
    assert cli.main(["train", "--config", str(path), "--lambda", "0.25"]) == 0
    assert [(cfg.T, cfg.lam, cfg.cap) for cfg in seen] == [(8, 0.5, 0.3), (6, 0.25, 0.3)]
    assert isinstance(seen[0].T, int) and isinstance(seen[0].cap, float)


@pytest.mark.parametrize(
    "line, message",
    [("T = four", "bad value for T"), ("colour = red", "unknown config key 'colour'")],
)
def test_bad_config_exits_2(tmp_path, capsys, line, message):
    path = tmp_path / "exp.cfg"
    path.write_text(f"split = {SPLIT}\n{line}\n", encoding="utf-8")
    assert cli.main(["calibrate", "--config", str(path), "--out", str(tmp_path)]) == 2
    error = error_of(capsys)
    assert error["error"] == "config-error"
    assert message in error["message"]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--beta-ub", "inf", "bad value for beta_ub: inf is not finite"),
        ("--beta-lb", "-inf", "bad value for beta_lb: -inf is not finite"),
        ("--tau", "nan", "bad value for tau: nan is not finite"),
        ("--lambda", "nan", "bad value for lambda: nan is not finite"),
        ("--cap", "inf", "bad value for cap: inf is not finite"),
        ("--beta-incr", "1e-300", "exceeds 10000 actions"),
    ],
)
def test_non_finite_or_runaway_value_exits_2(tmp_path, capsys, flag, value, message):
    assert cli.main(args("train", tmp_path / "out", f"{flag}={value}")) == 2
    error = error_of(capsys)
    assert error["error"] == "config-error"
    assert message in error["message"]


def test_missing_upstream_artifact_exits_4(tmp_path, capsys):
    assert cli.main(args("calibrate", tmp_path / "empty")) == 4
    error = error_of(capsys)
    assert error["error"] == "missing-artifact"
    assert "rlexec ingest" in error["message"]


def test_horizon_longer_than_trade_list(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    assert cli.main(args("train", out, "--T", "6")) == 5
    assert error_of(capsys) == {
        "error": "data-error",
        "message": "trade list length does not match the horizon",
    }


def drop_dims_line(path):
    path.write_text(
        "".join(line for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
                if not line.startswith("# dims")),
        encoding="utf-8",
    )


def truncate_last_row(path):
    text = path.read_text(encoding="utf-8").rstrip("\n")
    path.write_text(text[: text.rindex(",")] + "\n", encoding="utf-8")


def drop_last_row(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def duplicate_first_row(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[7] = lines[6]
    path.write_text("".join(lines), encoding="utf-8")


def three_dims(path):
    path.write_text(path.read_text(encoding="utf-8").replace("# dims: 4 2 2 2", "# dims: 4 2 2"), encoding="utf-8")


def drop_key(key):
    def damage(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload[key]
        path.write_text(json.dumps(payload), encoding="utf-8")

    return damage


@pytest.mark.parametrize(
    "stage, artifact, damage, extra, message",
    [
        ("backtest", None, None, ("--I", "5"), "q-table dims (4, 2, 2, 2)"),
        ("backtest", "qtable.csv", drop_dims_line, (), "missing header line 'dims'"),
        ("backtest", "qtable.csv", truncate_last_row, (), "bad row on line"),
        ("backtest", "qtable.csv", drop_last_row, (), "287 rows, expected 288"),
        ("backtest", "qtable.csv", three_dims, (), "dims must list T I B W"),
        ("backtest", "params.json", drop_key("share_schedule"), (), "missing key 'share_schedule'"),
        ("report", "stats.json", drop_key("n_days"), (), "missing keys ['n_days']"),
        ("backtest", "qtable.csv", duplicate_first_row, (), "line 8: duplicate cell"),
    ],
)
def test_mismatched_or_damaged_artifact_exits_5(pipeline, tmp_path, capsys, stage, artifact, damage, extra, message):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    if damage is not None:
        damage(out / artifact)
    assert cli.main(args(stage, out, *extra)) == 5
    error = error_of(capsys)
    assert error["error"] == "data-error"
    assert message in error["message"]
    if artifact is not None:
        assert artifact in error["message"]


def test_rerun_is_byte_identical(pipeline, tmp_path):
    other = tmp_path / "other"
    run_pipeline(other)
    for name in ARTIFACTS:
        assert (other / name).read_bytes() == (pipeline / name).read_bytes(), name
