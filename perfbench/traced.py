"""Traced run: the five CLI stages in one process, with per-layer spans.

Run by ``run.py --trace 1`` as a child process, from the workload's work
directory, so that ``import rlexec.cli`` is timed in a fresh interpreter::

    python3 traced.py --workload paper_csv --seed 42 --seconds 50 --result traced.json

Each repetition runs the pipeline once traced and once untraced, both
in-process, and derives the per-layer metrics from the traced one's spans;
their wall-time difference is the tracing overhead. The result file holds
the per-repetition metrics, the artifact hashes and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

from tracer import Span, Tracer, self_times
from workloads import (
    ROWS_PER_DAY,
    STAGES,
    WINDOW_SKIPS,
    WORKLOADS,
    Workload,
    artifact_hashes,
    check_outputs,
    write_inputs,
)


def _liquidation_failures(runs) -> int:
    return sum(1 for _, why in runs.skipped if not why.startswith(WINDOW_SKIPS))


# Digests of results, taken inside the wrapper so no large result is kept.
SUMMARISERS = {
    "market_data.ingest_csv": lambda a, k, r: (len(r.snapshots), r.rejected_rows),
    "market_data.aggregate_intervals": lambda a, k, r: len(r),
    "market_data.day_windows": lambda a, k, r: (len(r[0]), len(r[1])),
    "agent.train": lambda a, k, r: (r.episodes_trained, r.episodes_skipped),
    "agent.load_qtable": lambda a, k, r: int(r[0].values.size),
    "backtest.run_ac": lambda a, k, r: (len(r.records), _liquidation_failures(r)),
    "backtest.run_rl": lambda a, k, r: (len(r.records), _liquidation_failures(r)),
    "backtest.compare": lambda a, k, r: r.median_improvement_pct,
}
TIMED = (
    "market_data.generate_synthetic",
    "market_data.write_snapshots_csv",
    "market_data.ingest_csv",
    "market_data.aggregate_intervals",
    "market_data.build_distributions",
    "market_data.day_windows",
    "almgren_chriss.calibrate",
    "almgren_chriss.compute_trajectory",
    "execution.walk_book",
    "execution.execute_schedule",
    "agent.train",
    "agent.correct_action_fraction",
    "agent.save_qtable",
    "agent.load_qtable",
    "backtest.run_ac",
    "backtest.run_rl",
    "backtest.compare",
    "backtest.write_runs_csv",
    "backtest.write_report",
)
# Counts that must repeat exactly from one repetition (and run) to the next.
COUNTS = (
    "market_data.ingest_csv_calls",
    "market_data.rows_read",
    "market_data.rows_rejected",
    "market_data.bars",
    "market_data.windows",
    "market_data.windows_skipped",
    "execution.walk_book_calls",
    "agent.q_updates",
    "agent.episodes_trained",
    "agent.correct_action_fraction_calls",
    "agent.qtable_cells",
    "backtest.days_attempted",
    "backtest.days_failed_ac",
    "backtest.days_failed_rl",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline.

    Times are summed over calls; counts are summed over calls, except the
    row counts, which describe the pipeline's source file (the first
    ``ingest_csv`` call).
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    digests: dict[str, list] = defaultdict(list)
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
        if span.summary is not None:
            digests[span.name].append(span.summary)

    m: dict[str, float] = {f"{name}_s": total[name] for name in TIMED}
    accepted, rejected = digests["market_data.ingest_csv"][0]
    m["market_data.ingest_csv_calls"] = calls["market_data.ingest_csv"]
    m["market_data.rows_read"] = accepted + rejected
    m["market_data.rows_rejected"] = rejected
    m["market_data.rows_accepted_frac"] = accepted / (accepted + rejected)
    m["market_data.bars"] = sum(digests["market_data.aggregate_intervals"])
    m["market_data.windows"] = sum(w for w, _ in digests["market_data.day_windows"])
    m["market_data.windows_skipped"] = sum(s for _, s in digests["market_data.day_windows"])
    m["execution.walk_book_calls"] = calls["execution.walk_book"]
    m["agent.train_self_s"] = own["agent.train"]
    m["agent.q_updates"] = calls["agent.q_update"]
    trained, skipped = digests["agent.train"][0]
    m["agent.episodes_trained"] = trained
    m["agent.episodes_trained_frac"] = trained / (trained + skipped)
    m["agent.correct_action_fraction_calls"] = calls["agent.correct_action_fraction"]
    m["agent.qtable_cells"] = digests["agent.load_qtable"][0]
    (ac_done, ac_failed), (rl_done, rl_failed) = digests["backtest.run_ac"][0], digests["backtest.run_rl"][0]
    m["backtest.days_attempted"] = ac_done + ac_failed
    m["backtest.days_failed_ac"] = ac_failed
    m["backtest.days_failed_rl"] = rl_failed
    if digests["backtest.compare"][0] is not None:  # None: AC median IS was 0
        m["backtest.median_improvement_pct"] = digests["backtest.compare"][0]
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = own[f"cli.{stage}"]
    return m


def check_counts(m: dict[str, float], workload: Workload, rejected: int) -> list[str]:
    """Work counts the flags and the generated input fix exactly."""
    expected = {
        "market_data.rows_read": workload.days * ROWS_PER_DAY + rejected,
        "market_data.rows_rejected": rejected,
        "agent.q_updates": workload.q_updates,
        "agent.episodes_trained": workload.train_days,
        "agent.qtable_cells": workload.qtable_cells,
        "backtest.days_attempted": workload.test_days,
    }
    problems = [f"{name} {m[name]} != {value}" for name, value in expected.items() if m[name] != value]
    if "backtest.median_improvement_pct" not in m:
        problems.append("median improvement undefined")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    began = time.perf_counter()
    import rlexec.cli as cli

    import_s = time.perf_counter() - began
    import rawcsv
    import rlexec
    from rlexec import agent, almgren_chriss, backtest, execution, market_data

    layers = (market_data, execution, almgren_chriss, agent, backtest)
    tracer = Tracer(SUMMARISERS)
    reps: list[dict] = []
    hashes: list[dict] = []
    problems: list[str] = []

    def pipeline(out: str, traced: bool) -> float:
        start = time.perf_counter()
        for stage in STAGES:
            with tracer.span(f"cli.{stage}") if traced else nullcontext():
                code = cli.main(workload.cli_args(stage, args.seed, out))
            if code != 0:
                raise RuntimeError(f"stage {stage} exited {code}")
        return time.perf_counter() - start

    pair_s = 0.0
    try:
        while not reps or time.perf_counter() - began + pair_s <= args.seconds:
            pair_start = time.perf_counter()
            tracer.wrap(layers, (*layers, cli, rlexec, rawcsv))
            try:
                tracer.run_id = f"rep{len(reps)}"
                tracer.spans.clear()  # spans are reduced to metrics per repetition
                with tracer.span("input"):
                    tally = write_inputs(workload, args.seed, Path("."))
                traced_s = pipeline("traced", traced=True)
            finally:
                tracer.restore()
            metrics = layer_metrics(tracer.spans)
            problems += check_counts(metrics, workload, sum(tally.values()))
            differ = [name for name in COUNTS if reps and metrics[name] != reps[0][name]]
            if differ:
                problems.append(f"counts differ between repetitions: {differ}")
            untraced_s = pipeline("untraced", traced=False)
            metrics["cli.import_s"] = import_s
            metrics["trace.overhead_s"] = traced_s - untraced_s
            reps.append(metrics)
            for out in ("traced", "untraced"):
                problems += check_outputs(Path(out), workload, tally)
                hashes.append(artifact_hashes(Path(out)))
            pair_s = time.perf_counter() - pair_start
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    Path(args.result).write_text(
        json.dumps({"reps": reps, "hashes": hashes, "problems": problems}), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
