"""The staged command line: flags, config resolution, exit categories, reruns."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import zipfile
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from rlexec import cli
from rlexec.config import ExperimentConfig
from rlexec.market_data import (
    ASK_PRICES,
    ASK_VOLUMES,
    BID_PRICES,
    BID_VOLUMES,
    BookFrame,
    generate_synthetic,
    write_snapshots_csv,
)

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
# sha256 of the demo run (DEMO_FLAGS) and of the fine_grid benchmark workload
# (FINE_GRID_FLAGS: 20 inventory buckets x 41 actions) at seed 42; a change
# that moves a result re-pins these and names each changed file
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
FINE_GRID_FLAGS = (
    "--days", "30", "--split", "2024-01-21T00:00:00+00:00", "--V", "10000", "--T", "8",
    "--I", "20", "--B", "5", "--W", "5", "--beta-incr", "0.05", "--seed", "42",
)
FINE_GRID_SHA256 = {
    "snapshots.csv": "c0e12051978cd1c98c44a95cace98a0ec9bdddd8e2d635a7d9952e1cdc6c62b1",
    "ingest_meta.json": "65774b356d7cf8fb49803a2185d68e5c295be6013e0152929daeec914a4e2896",
    "params.json": "d253d88ab2d5ea7f83816fb5c1f60c8d45a57031a371d95bdc46b657e42d477c",
    "qtable.csv": "74ffbe95c7159dc64f3c403647c527ea4af29b549aa8ec63970440266a021b77",
    "train_trace.csv": "c0d443a8f0999a15abea6c00c4882f4e68e6c3b6c42323b0d3c34519e967cf22",
    "runs.csv": "fdf21dc7514eef7e2bcc89ad3e17bcdcd23c5f12cc2c39c11937c6020f1b5845",
    "stats.json": "f30a17bd634426fc6bede56dcaf4a4bf8d2cbfef77a9aa9f90f289df1f6fa41e",
    "table1.csv": "ebd709d20b1c6a5e3ad810e47f9397dd2ba9256c5f12d55af8298646d9c78d91",
    "table2.csv": "4d1a1497a06c6b4a55b72879f51446bab1fad64b3f302c0d71805d2935dca692",
    "fig2_trace.csv": "15ea5e0cd2ca12649325a58fcfd4d5358002db363da6c0b3e4a8f286c1873f0d",
    "resolved_config.txt": "9d7f6f37c1ff141885e82408fd94ea8471154d129e1c92bec6faaae50a725499",
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
        ("days = 0", "days must be >= 1"),
        ("seed = -1", "seed must be >= 0"),
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
        ("--days", "1000000000", "need 480,000,000,000 synthetic rows, more than 1,000,000"),
        ("--tau", "5e-324", "need inf synthetic rows, more than 1,000,000"),
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


def test_runaway_synthetic_store_is_refused_before_generation(tmp_path, capsys, monkeypatch):
    def generate(*_):
        raise AssertionError("generated a store the config refuses")

    monkeypatch.setattr(cli, "generate_synthetic", generate)
    assert cli.main(args("ingest", tmp_path / "out", "--days", "1000000000")) == 2
    assert error_of(capsys)["error"] == "config-error"
    assert not (tmp_path / "out").exists()


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


def test_split_at_the_boundary(pipeline):
    # 11:00 on the +02:00 clock is 09:00 UTC, when day 4's first bar starts:
    # that bar and all later ones test, the three days before train
    cfg = ExperimentConfig(days=6, seed=3, split="2024-01-04T11:00:00+02:00", out=str(pipeline))
    training, testing = cli._load_split(cfg)
    boundary = datetime(2024, 1, 4, 9, tzinfo=timezone.utc).timestamp()
    assert (len(training), len(testing)) == (3 * 96, 3 * 96)
    assert training.start.max() < boundary == testing.start.min()


def rewrite_arrays(**changes):
    def damage(path):
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays.update(changes)
        np.savez(path, **{name: array for name, array in arrays.items() if array is not None})

    return damage


def set_cell(name, index, value):
    def damage(path):
        with np.load(path, allow_pickle=False) as npz:
            array = npz[name].copy()
        array[index] = value
        rewrite_arrays(**{name: array})(path)

    return damage


def swap_starts(j, k):
    def damage(path):
        with np.load(path, allow_pickle=False) as npz:
            start = npz["start"].copy()
        start[[j, k]] = start[[k, j]]
        rewrite_arrays(start=start)(path)

    return damage


def oversized_header(name, shape):
    """Give array `name` a header declaring `shape` and keep its data short."""

    def damage(path):
        with zipfile.ZipFile(path) as zf:
            members = {member: zf.read(member) for member in zf.namelist()}
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {"descr": "<f8", "fortran_order": False, "shape": shape})
        members[f"{name}.npy"] = header.getvalue() + bytes(64)
        with zipfile.ZipFile(path, "w") as zf:
            for member, data in members.items():
                zf.writestr(member, data)

    return damage


def truncate_half(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def not_a_zip(path):
    path.write_text("ts,bp1\n", encoding="utf-8")


def drop_key(key):
    def damage(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload[key]
        path.write_text(json.dumps(payload), encoding="utf-8")

    return damage


def set_key(key, value):
    def damage(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[key] = value(payload[key]) if callable(value) else value
        path.write_text(json.dumps(payload), encoding="utf-8")

    return damage


def write_json(value):
    def damage(path):
        path.write_text(json.dumps(value), encoding="utf-8")

    return damage


@pytest.mark.parametrize(
    "stage, artifact, damage, extra, message",
    [
        ("backtest", None, None, ("--I", "5"), "q-table dims (4, 2, 2, 2)"),
        ("backtest", "qtable.npz", truncate_half, (), "unreadable q-table file: File is not a zip file"),
        ("backtest", "qtable.npz", not_a_zip, (), "unreadable q-table file"),
        ("backtest", "qtable.npz", rewrite_arrays(visits=None), (), "missing arrays ['visits']"),
        (
            "backtest", "qtable.npz", rewrite_arrays(visits=np.zeros((4, 2, 2, 2, 8), dtype=np.int64)), (),
            "array 'visits' has dtype int64 and shape (4, 2, 2, 2, 8)",
        ),
        ("backtest", "params.json", drop_key("share_schedule"), (), "missing keys ['share_schedule']"),
        ("report", "stats.json", drop_key("n_days"), (), "missing keys ['n_days']"),
        (
            "backtest", "qtable.npz", rewrite_arrays(betas=np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.5, 1.75, 2.0])), (),
            "betas must be strictly increasing",
        ),
        (
            "backtest", "qtable.npz", oversized_header("values", (10**6, 10**6, 10, 10, 9)), (),
            "array 'values' of shape (1000000, 1000000, 10, 10, 9) needs more than the file's",
        ),
        ("calibrate", "bars.npz", truncate_half, (), "unreadable bars file: File is not a zip file"),
        ("train", "bars.npz", not_a_zip, (), "unreadable bars file"),
        ("backtest", "bars.npz", rewrite_arrays(row=None), (), "missing arrays ['row']"),
        ("calibrate", "bars.npz", rewrite_arrays(row=np.zeros((3, 19))), (), "array 'row' has dtype float64 and shape"),
        ("calibrate", "bars.npz", None, ("--tau", "600"), "bars are 300.0 s long, not tau = 600.0"),
        ("train", "bars.npz", rewrite_arrays(source_sha256=np.str_("0" * 64)), (), "bars of snapshot store sha256 0000"),
        (
            "calibrate", "bars.npz", oversized_header("row", (10**12, 20)), (),
            "unreadable bars file: array 'row' of shape (1000000000000, 20) needs more than the file's",
        ),
        ("train", "params.json", set_key("share_schedule", 5), (), "'share_schedule' is not a list of non-negative integers"),
        ("backtest", "params.json", set_key("share_schedule", None), (), "'share_schedule' is not a list of non-negative"),
        (
            "backtest", "params.json", set_key("share_schedule", lambda s: [s[0] + 0.7, *s[1:]]), (),
            "'share_schedule' is not a list of non-negative integers",
        ),
        ("train", "params.json", set_key("share_schedule", lambda s: [True, *s[1:]]), (), "'share_schedule' is not a list"),
        ("train", "params.json", set_key("share_schedule", lambda s: [-1, *s[1:]]), (), "'share_schedule' is not a list"),
        ("report", "stats.json", set_key("dates", 5), (), "'dates' is not a list of ISO dates"),
        ("report", "stats.json", set_key("std_ac_pct", "0.1"), (), "'std_ac_pct' is not a number"),
        ("report", "stats.json", set_key("median_improvement_pct", [1.0]), (), "'median_improvement_pct' is not a number or null"),
        ("report", "stats.json", set_key("n_days", 2.5), (), "'n_days' is not a non-negative integer"),
        ("calibrate", "ingest_meta.json", write_json(["sha256"]), (), "not a JSON object"),
        ("calibrate", "ingest_meta.json", set_key("sha256", 5), (), "'sha256' is not a string"),
        ("calibrate", "bars.npz", set_cell("row", (5, BID_VOLUMES.start), np.nan), (), "bar 5: non-finite cell"),
        ("train", "bars.npz", set_cell("row", (0, ASK_VOLUMES.start), -5000.0), (), "bar 0: negative volume"),
        ("backtest", "bars.npz", swap_starts(3, 4), (), "bar 4: start not after the previous bar's"),
        ("calibrate", "bars.npz", set_cell("row", (7, ASK_PRICES.start + 2), 0.0), (), "bar 7: non-positive price"),
        ("train", "bars.npz", set_cell("row", (2, BID_PRICES.start), 200.0), (), "bar 2: non-positive spread"),
        ("calibrate", "bars.npz", set_cell("n_snapshots", 9, 0), (), "bar 9: no snapshots"),
        ("backtest", "bars.npz", set_cell("utc_offset", 1, 86400.0), (), "bar 1: UTC offset of a day or more"),
        ("calibrate", "bars.npz", set_cell("start", 0, -1e300), (), "bar 0: start outside the datetime range"),
        ("train", "params.json", set_key("share_schedule", [2**62] * 4), (), "plans 18446744073709551616 shares, not V = 10000"),
        ("backtest", "params.json", set_key("share_schedule", [3000, 3000, 3000, 3001]), (), "plans 12001 shares, not V = 10000"),
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


def test_missing_qtable_npz_exits_4(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    (out / "qtable.npz").unlink()
    assert cli.main(args("backtest", out)) == 4
    error = error_of(capsys)
    assert error["error"] == "missing-artifact"
    assert "qtable.npz" in error["message"] and "rlexec train" in error["message"]


def test_backtest_and_report_never_read_qtable_csv(pipeline, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    for name in ("qtable.csv", "runs.csv", "stats.json"):
        (out / name).unlink()
    for stage in ("backtest", "report"):
        assert cli.main(args(stage, out)) == 0, stage
    for name in ("runs.csv", "stats.json"):
        assert (out / name).read_bytes() == (pipeline / name).read_bytes(), name


def test_rerun_is_byte_identical(pipeline, tmp_path):
    other = tmp_path / "other"
    run_pipeline(other)
    for name in (*ARTIFACTS, "bars.npz", "qtable.npz"):
        assert (other / name).read_bytes() == (pipeline / name).read_bytes(), name


@pytest.mark.parametrize("data", ["synthetic", "csv"])
def test_only_ingest_parses_depth_csv(tmp_path, monkeypatch, data):
    extra: tuple[str, ...] = ()
    if data == "csv":
        write_snapshots_csv(tmp_path / "raw.csv", generate_synthetic(3, 6))
        extra = ("--data", "csv", "--csv", str(tmp_path / "raw.csv"))
    parses = []
    ingest_csv = cli.ingest_csv

    def counted(path):
        parses.append(path)
        return ingest_csv(path)

    monkeypatch.setattr(cli, "ingest_csv", counted)
    out = tmp_path / "out"
    calls = {}
    for stage in STAGES:
        before = len(parses)
        assert cli.main(args(stage, out, *extra)) == 0, stage
        calls[stage] = len(parses) - before
        if stage == "ingest":  # later stages load bars.npz, not the store
            (out / "snapshots.csv").rename(tmp_path / "snapshots.csv")
    assert calls == {"ingest": 1, "calibrate": 0, "train": 0, "backtest": 0, "report": 0}


@pytest.mark.parametrize(
    "flags, pinned",
    [pytest.param(DEMO_FLAGS, DEMO_SHA256, id="demo"), pytest.param(FINE_GRID_FLAGS, FINE_GRID_SHA256, id="fine_grid")],
)
def test_demo_artifacts_at_seed_42_are_pinned(tmp_path, flags, pinned):
    out = tmp_path / "out"
    for stage in STAGES:
        assert cli.main([stage, *flags, "--out", str(out)]) == 0, stage
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    assert digests == pinned



# sha256 of a seed-42 run in which both strategies fail to liquidate one test
# day: on 2024-01-11 the terminal order leaves shares unfilled, 24578 under
# the static list and 44985 under the Q-modulated one
FAILURE_FLAGS = (
    "--days", "12", "--split", "2024-01-08T00:00:00+00:00", "--V", "60000", "--T", "4", "--cap", "0.1", "--seed", "42",
)
FAILURE_SHA256 = {
    "runs.csv": "5c0ec24aa5f1c14b7eb709c78c60943d188d4f89c8347e0252f64169f3ff6f17",
    "stats.json": "f01720810c4a63fd03168dcb8b5619ed6f471ea87d01a1e8493cc8bac49cf976",
}


def test_liquidation_failures_at_seed_42_are_pinned(tmp_path):
    out = tmp_path / "out"
    for stage in STAGES:
        assert cli.main([stage, *FAILURE_FLAGS, "--out", str(out)]) == 0, stage
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["skipped_ac"] == [["2024-01-11", "24578 shares unexecuted after the terminal order"]]
    assert stats["skipped_rl"] == [["2024-01-11", "44985 shares unexecuted after the terminal order"]]
    assert stats["n_days"] == 4
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FAILURE_SHA256}
    assert digests == FAILURE_SHA256

# sha256 of a raw-CSV run at seed 42 on local clocks (write_local_clock_csv),
# trading at 20:00 on the +10:00 clock, the planted hour 10:00 UTC
LOCAL_CLOCK_FLAGS = (
    "--data", "csv", "--csv", "raw.csv", "--split", "2024-01-05T00:00:00+10:00", "--H", "20", "--seed", "42",
)
LOCAL_CLOCK_SHA256 = {
    "snapshots.csv": "54c1ba8152aa42033dbe16bffc5c89179bd3894887ae46d7b36f5b68446efb8e",
    "ingest_meta.json": "7f30a40f369f353557f31a505cecebd1a8f7e3b3efde837a90c64dddb11c936c",
    "params.json": "d629f4c287a3f34928d33ce518fd496cf41556a787347146dbca6c81f59accb1",
    "qtable.csv": "11a8b9749f4328213a468ea52838751345a77905a7a9651b0ac6837654034fdb",
    "train_trace.csv": "b1f9379423bd4758cd457a923e4cc9d5d80cdc5db08cad698cbcf91f338a5f1c",
    "runs.csv": "dd856be96a5956c9c09e40a2c7f01c4d9291bbde45da8e4a39a31e6bc7d72fea",
    "stats.json": "1c89a2d0c5af5959863175684516c934245661565fe015fd46c9b34ce8a75373",
    "table1.csv": "7e5dd8d60be34b9fc90d2c09b09ba7b4de2a429a41edd6eda1a31442977afa93",
    "table2.csv": "7af0f81c97ee0c14f7de15ec52ba97a0c954773e7f7c730708d310a4d1f44918",
    "fig2_trace.csv": "82eb88a28db477f5056df18c4d8df63176739edcf354850581bffeeaffaf9772",
    "resolved_config.txt": "b98dfd311589b153c1390a0373d8c6dd3184391b7ea0b5e17b0ab60d06c166de",
}


def write_local_clock_csv(path) -> None:
    """Eight synthetic days at seed 42, stamped on the +10:00 clock, so each
    09:00-17:00 UTC session crosses local midnight. Every 97th row keeps its
    UTC stamp, as do rows 545 and 2945, which open the 10:05 UTC bar, inside
    the traded window, on a training and a test day. Three pairs of adjacent
    rows are swapped."""
    frame = generate_synthetic(42, 8, ExperimentConfig(H=10, seed=42).synthetic_config())
    zone = timezone(timedelta(hours=10))
    utc = {*range(0, len(frame), 97), 545, 2945}
    stamps = [ts if k in utc else ts.astimezone(zone) for k, ts in enumerate(frame.timestamps)]
    order = list(range(len(stamps)))
    for k in (7, 300, 2001):
        order[k], order[k + 1] = order[k + 1], order[k]
    write_snapshots_csv(path, BookFrame(timestamps=[stamps[k] for k in order], values=frame.values[order]))


def test_local_clock_csv_artifacts_at_seed_42_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config echo holds the csv path
    write_local_clock_csv(tmp_path / "raw.csv")
    for stage in STAGES:
        assert cli.main([stage, *LOCAL_CLOCK_FLAGS, "--out", "out"]) == 0, stage
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    assert digests == LOCAL_CLOCK_SHA256
