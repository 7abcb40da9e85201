"""The staged command line: flags, config resolution, exit categories, reruns."""

from __future__ import annotations

import argparse
import hashlib
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
# sha256 of the demo run at seed 42 (DEMO_FLAGS); a change that moves a result
# re-pins these and names each changed file
DEMO_FLAGS = (
    "--days", "45", "--split", "2024-02-01T00:00:00+00:00",
    "--V", "10000", "--T", "4", "--I", "2", "--B", "2", "--W", "2", "--seed", "42",
)
DEMO_SHA256 = {
    "snapshots.csv": "347b34196e9b7844b8f72f7d0b452e01a867b7e491a97359634d61e243335c61",
    "ingest_meta.json": "4fe441a7259898b5935379178704cf1f1dffcdec9405e614d126f6b77feebfc6",
    "params.json": "e0f190d9da721dc7540d1ef36c0dfe76e24fd441fbeca6e180f4f981bc075037",
    "qtable.csv": "87ed79f7f5cdd1fefcd534ff853d2a7db9f69ae6be4baa3baed72747e636ef30",
    "train_trace.csv": "d326572b4cf46d28c3ff0f8ff7460d7e630a3ce260e512cb4f2ec223fa0bdc1c",
    "runs.csv": "d8361d7b9de009f3007ac9dbdd23bf9072d436c8249cd79607b1769bc60849a1",
    "stats.json": "96230c055a947283dc522f7fbc3ee86512ee1627e8f906dc32ed1d22674411b7",
    "table1.csv": "b9518abbe2833e7e21211f35fbb1980bb88544e412c2b0ad07b30c374a327f47",
    "table2.csv": "ab9e9bd074d8fd5b696593d9ef3fbd45af0d72f56a2e8c37997134b81e0f9efb",
    "fig2_trace.csv": "f20f3d7ffee399e9ee6b286073ef9d2799f1e20798ff2cec39201d19883d8aa8",
    "resolved_config.txt": "f7c91a0c9787fc5c58915535fc08381635c9dbed914824137ba2fcea99f7f4ca",
}
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
    [
        ("T = four", "bad value for T"),
        ("colour = red", "unknown config key 'colour'"),
        ("V = 0", "total shares must be > 0"),
        ("T = 0", "periods must be >= 1"),
        ("H = 24", "hour outside the trading day"),
        ("I = 1", "bucket counts must be >= 2"),
        ("cap = 0", "cap must be in (0, 1]"),
        ("tau = 0", "tau must be > 0"),
        ("reference = close", "reference must be mid or ask"),
        ("lambda = -0.001", "lambda must be >= 0"),
    ],
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


@pytest.mark.parametrize(
    "stage, flag, value, message",
    [
        ("train", "--beta-lb", "-inf", "bad value for beta_lb: -inf is not finite"),
        ("train", "--lam", "-1e-3", "lambda must be >= 0"),  # a prefix argparse accepts
    ]
    + [(stage, "--lambda", "-1e-3", "lambda must be >= 0") for stage in cli._STAGES],
)
def test_negative_value_after_a_space_exits_2(tmp_path, capsys, stage, flag, value, message):
    # argparse alone reads "-inf" and "-1e-3" as options ("expected one argument")
    assert cli.main(args(stage, tmp_path / "out", flag, value)) == 2
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


def test_demo_artifacts_at_seed_42_are_pinned(tmp_path):
    out = tmp_path / "out"
    for stage in STAGES:
        assert cli.main([stage, *DEMO_FLAGS, "--out", str(out)]) == 0, stage
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    assert digests == DEMO_SHA256
