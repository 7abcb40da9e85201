"""The benchmark's workloads, their inputs, and the checks on their outputs.

Why these three (each stresses a different layer; see README.md):

* demo: the CLI defaults users run. market_data does nearly all the work.
  Runnable, but not in BENCHMARK.json: its raw walls could not be made
  steady on a host whose speed drifts (README.md, Steadiness).
* paper_csv: paper-scale state space on a dirty, unsorted 90-day raw CSV, so
  ingest takes the reject/tally/sort path; the only workload with
  liquidation failures at the seed, so a change in completed runs shows.
* fine_grid: 20 inventory buckets x 41 actions, so the agent's training sweep
  and the execution book walk dominate while the data path stays small.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

STAGES = ("ingest", "calibrate", "train", "backtest", "report")
ARTIFACTS = (
    "ingest_meta.json",
    "params.json",
    "qtable.csv",
    "train_trace.csv",
    "runs.csv",
    "stats.json",
    "table1.csv",
    "table2.csv",
    "fig2_trace.csv",
)
ROWS_PER_DAY = 8 * 12 * 5  # session hours x 300 s bars per hour x snapshots per bar
RAW_CSV = "raw_depth.csv"
# day_windows skip reasons: a day without a usable window is not a run
WINDOW_SKIPS = ("no bars at hour", "fewer than", "gap inside window")


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    train_days: int
    split: str
    V: int
    T: int
    I: int
    BW: int  # spread and volume buckets
    beta_incr: float = 0.25
    raw_csv: bool = False

    @property
    def actions(self) -> int:
        return int(round(2.0 / self.beta_incr)) + 1  # betas 0..2

    @property
    def test_days(self) -> int:
        return self.days - self.train_days

    @property
    def q_updates(self) -> int:
        """The training sweep visits every inventory bucket and action at
        every period of every training day (synthetic days are complete)."""
        return self.train_days * self.T * self.I * self.actions

    @property
    def qtable_cells(self) -> int:
        return self.T * self.I * self.BW * self.BW * self.actions

    def cli_args(self, stage: str, seed: int, out: str) -> list[str]:
        args = [stage, "--seed", str(seed), "--out", out, "--split", self.split]
        if self.raw_csv:
            args += ["--data", "csv", "--csv", RAW_CSV]
        else:
            args += ["--days", str(self.days)]
        args += ["--V", str(self.V), "--T", str(self.T), "--I", str(self.I)]
        args += ["--B", str(self.BW), "--W", str(self.BW), "--beta-incr", repr(self.beta_incr)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo", days=45, train_days=31, split="2024-02-01T00:00:00+00:00", V=10000, T=4, I=2, BW=2),
        Workload(
            "paper_csv", days=90, train_days=60, split="2024-03-01T00:00:00+00:00",
            V=100000, T=8, I=5, BW=5, raw_csv=True,
        ),
        Workload(
            "fine_grid", days=30, train_days=20, split="2024-01-21T00:00:00+00:00",
            V=10000, T=8, I=20, BW=5, beta_incr=0.05,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, workdir: Path) -> Counter:
    """Write the workload's generated input into `workdir`; return the
    rejected-row tally ingest must report (empty for synthetic workloads)."""
    if not workload.raw_csv:
        return Counter()
    from rawcsv import write_raw_depth_csv
    from rlexec.cli import ExperimentConfig

    synthetic = ExperimentConfig(days=workload.days, seed=seed).synthetic_config()
    _, tally = write_raw_depth_csv(workdir / RAW_CSV, seed, workload.days, synthetic)
    return tally


def artifact_hashes(out: Path) -> dict[str, str]:
    digests = {}
    for name in ARTIFACTS:
        with open(out / name, "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def check_outputs(out: Path, workload: Workload, tally: Counter) -> list[str]:
    """Check one pipeline's artifacts against what the flags imply."""
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    meta = json.loads((out / "ingest_meta.json").read_text(encoding="utf-8"))
    expect(meta["rows"] == workload.days * ROWS_PER_DAY, f"ingest rows {meta['rows']}")
    expect(meta["rejected"] == sum(tally.values()), f"rejected {meta['rejected']} != {sum(tally.values())}")
    expect(meta["row_errors"] == dict(tally), f"row_errors {meta['row_errors']} != {dict(tally)}")

    params = json.loads((out / "params.json").read_text(encoding="utf-8"))
    schedule = params["share_schedule"]
    expect(len(schedule) == workload.T and sum(schedule) == workload.V, f"share schedule {schedule}")

    cells = visits = 0
    with open(out / "qtable.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            cells += 1
            visits += int(row["visits"])
    expect(cells == workload.qtable_cells, f"qtable rows {cells} != {workload.qtable_cells}")
    expect(visits == workload.q_updates, f"q-table visits {visits} != {workload.q_updates}")

    completed: Counter = Counter()
    with open(out / "runs.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            completed[row["model"]] += 1
            executed = sum(float(row[f"executed_{p}"]) for p in range(1, workload.T + 1))
            expect(abs(executed - workload.V) < 1e-6, f"{row['run_id']} executed {executed}")

    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    for model in ("ac", "rl"):
        reasons = [why for _, why in stats[f"skipped_{model}"]]
        expect(not any(why.startswith(WINDOW_SKIPS) for why in reasons), f"{model} window skips {reasons}")
        expect(
            completed[model] + len(reasons) == workload.test_days,
            f"{model}: {completed[model]} runs + {len(reasons)} failures != {workload.test_days} days",
        )
    expect(stats["n_days"] == len(stats["dates"]) <= min(completed["ac"], completed["rl"]), "stats n_days")

    for name in ("table1.csv", "table2.csv", "fig2_trace.csv", "train_trace.csv"):
        expect((out / name).stat().st_size > 0, f"{name} empty")
    return problems


if __name__ == "__main__":
    # python3 workloads.py <workload> <seed>: write the input into the current
    # directory and the tally to tally.json, in a process of its own so the
    # benchmark process stays small (a child's ru_maxrss starts from the
    # parent's peak RSS at fork and exec)
    tally = write_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path("."))
    Path("tally.json").write_text(json.dumps(tally), encoding="utf-8")
