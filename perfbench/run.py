"""Staged-pipeline benchmark for rlexec.

Runs the CLI the way a user does, one fresh ``python -m rlexec.cli <stage>``
process per stage (ingest, calibrate, train, backtest, report), and reports
the end-to-end metrics named in BENCHMARK.json, with every time scaled to a
fixed reference speed measured next to each process. With ``--trace 1`` it instead
runs the stages in one traced process (traced.py) and reports the per-layer
metrics. Run it from the repository root::

    python3 perfbench/run.py --workload paper_csv --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 50 [--save perfbench/baseline.json]

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics. ``--workload all`` runs every
workload in both modes and prints each metric's median, quartiles and n.
The exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import STAGES, WORKLOADS, artifact_hashes, check_outputs

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # before the first pipeline
SETUP_PER_REP = 2  # before every pipeline
# Times are reported at a fixed reference speed (see README.md, Steadiness):
# each wall is scaled by REF_NOMINAL_S over the mean wall of the reference
# process run right before and after it, so the host's drifting speed cancels
# out. The reference does fixed work, independent of rlexec: pure-Python dict
# and float operations, then fresh 16 MB buffers allocated, copied and written.
REFERENCE_CODE = """
table = {}
acc = 0.0
for i in range(500_000):
    key = i % 97
    table[key] = table.get(key, 0.0) + i * 0.5
    acc += table[key] % 3.0
for _ in range(4):
    block = bytearray(16 << 20)
    copy = bytearray(block)
    copy[::4096] = bytes(len(copy[::4096]))
"""
REF_NOMINAL_S = 0.2
# Printed with the end-to-end table but not gated: single stages spread
# across runs more than any allowed bound, and the raw walls carry the drift.
STAGE_WALLS = tuple(f"{stage}_s" for stage in STAGES)
UNGATED = (*STAGE_WALLS, "pipeline_wall_s", "setup_wall_s", "reference_s")


def run_child(argv: list[str], cwd: Path, env: dict, log) -> tuple[float, float, int]:
    """Run one process to completion: (wall seconds, peak RSS in MB, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def reference_s(workdir: Path, env: dict, log) -> float:
    """Wall time of the reference process: the host's current speed."""
    wall, _, code = run_child([sys.executable, "-S", "-c", REFERENCE_CODE], workdir, env, log)
    if code != 0:
        raise RuntimeError(f"reference process exited {code}")
    return wall


def at_reference_speed(wall: float, ref_before: float, ref_after: float) -> float:
    return wall * REF_NOMINAL_S / ((ref_before + ref_after) / 2.0)


class Measurement:
    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.hashes: list[dict[str, str]] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    @property
    def correct(self) -> bool:
        identical = all(h == self.hashes[0] for h in self.hashes)
        return bool(self.hashes) and identical and not self.problems and not self.failed


def measure_untraced(workload, seed: int, seconds: float, workdir: Path, env: dict, log) -> Measurement:
    m = Measurement()
    _, _, code = run_child([sys.executable, str(HERE / "workloads.py"), workload.name, str(seed)], workdir, env, log)
    if code != 0:
        m.failed = 1
        m.problems.append(f"input writer exited {code}")
        return m
    tally = Counter(json.loads((workdir / "tally.json").read_text(encoding="utf-8")))
    setup = [sys.executable, "-c", "import rlexec.cli"]
    run_child(setup, workdir, env, log)  # warm-up: bytecode cache and page cache
    ref = reference_s(workdir, env, log)

    def scaled_child(argv: list[str]) -> tuple[float, float, float, int]:
        """Run argv, then the reference: (wall, wall at reference speed, peak RSS, exit code)."""
        nonlocal ref
        wall, rss_mb, code = run_child(argv, workdir, env, log)
        ref_before, ref = ref, reference_s(workdir, env, log)
        m.samples["reference_s"].append(ref)
        return wall, at_reference_speed(wall, ref_before, ref), rss_mb, code

    def sample_setup(n: int) -> None:
        for _ in range(n):
            wall, scaled_wall, _, code = scaled_child(setup)
            m.samples["setup_s"].append(scaled_wall)
            m.samples["setup_wall_s"].append(wall)
            m.attempted += 1
            m.failed += code != 0

    sample_setup(SETUP_SAMPLES)
    began = time.perf_counter()
    rep_s = 0.0
    while not m.samples["pipeline_s"] or time.perf_counter() - began + rep_s <= seconds:
        rep_start = time.perf_counter()
        sample_setup(SETUP_PER_REP)  # spread over the run, like the pipelines
        out = f"rep{len(m.hashes)}"
        walls: dict[str, float] = {}
        scaled: dict[str, float] = {}
        rss = 0.0
        for stage in STAGES:
            argv = [sys.executable, "-m", "rlexec.cli", *workload.cli_args(stage, seed, out)]
            walls[stage], scaled[stage], rss_mb, code = scaled_child(argv)
            m.attempted += 1
            if code != 0:
                m.failed += 1
                m.problems.append(f"{out}: stage {stage} exited {code}")
                return m
            rss = max(rss, rss_mb)
        m.problems += [f"{out}: {p}" for p in check_outputs(workdir / out, workload, tally)]
        m.hashes.append(artifact_hashes(workdir / out))
        shutil.rmtree(workdir / out)
        m.samples["pipeline_s"].append(sum(scaled.values()))
        m.samples["pipeline_wall_s"].append(sum(walls.values()))
        for stage in STAGES:
            m.samples[f"{stage}_s"].append(scaled[stage])
        m.samples["peak_rss_mb"].append(rss)
        rep_s = time.perf_counter() - rep_start
    return m


def measure_traced(workload, seed: int, seconds: float, workdir: Path, env: dict, log) -> Measurement:
    m = Measurement()
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", workload.name]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--result", "traced.json"]
    _, _, code = run_child(argv, workdir, env, log)
    m.attempted = 1
    if code != 0:
        m.failed = 1
        m.problems.append(f"traced run exited {code}")
        return m
    result = json.loads((workdir / "traced.json").read_text(encoding="utf-8"))
    for rep in result["reps"]:
        for name, value in rep.items():
            m.samples[name].append(value)
    m.hashes = result["hashes"]
    m.problems = result["problems"]
    return m


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(title: str, m: Measurement, specs: list[dict]) -> tuple[dict[str, dict], dict[str, dict]]:
    """Print the metric table and artifact hashes.

    Returns the metrics named in `specs` and the ungated ones.
    """
    print(title)
    print(f"  {'metric':42} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")

    def row(name: str, unit: str, note: str = "") -> dict:
        q1, median, q3 = quartiles(m.samples[name])
        n = len(m.samples[name])
        print(f"  {name:42} {unit:>8} {median:12.6g} {q1:12.6g} {q3:12.6g} {n:3d}{note}")
        return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": n}

    metrics: dict[str, dict] = {}
    for spec in specs:
        if m.samples.get(spec["name"]):
            metrics[spec["name"]] = row(spec["name"], spec["unit"])
        else:
            m.problems.append(f"metric {spec['name']} not measured")
    stages = {name: row(name, "s", "  (not gated)") for name in UNGATED if m.samples.get(name)}
    extra = set(m.samples) - set(metrics) - set(stages)
    if extra:
        m.problems.append(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    same = all(h == m.hashes[0] for h in m.hashes)
    print(f"  artifacts sha256, {len(m.hashes)} pipelines, {'identical' if same else 'DIFFERENT'}:")
    for name, digest in (m.hashes[0] if m.hashes else {}).items():
        print(f"    {name:18} {digest}")
    for problem in m.problems:
        print(f"  CHECK FAILED: {problem}")
    return metrics, stages


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every metric and hash to this JSON file (with --workload all)")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "rlexec" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} is not an rlexec checkout (src/rlexec/cli.py, BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)

    results: dict[str, dict] = {}
    last: tuple[Measurement, dict] | None = None
    for name in names:
        for trace in modes:
            workdir = ROOT / ".perfbench_work" / f"{name}-trace{trace}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                with open(workdir / "stderr.log", "wb") as log:
                    measure = measure_traced if trace else measure_untraced
                    m = measure(WORKLOADS[name], args.seed, args.seconds, workdir, env, log)
                if m.failed:
                    sys.stderr.write((workdir / "stderr.log").read_text(errors="replace")[-4000:])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            specs = spec["per_layer" if trace else "end_to_end"]
            title = f"workload {name}, seed {args.seed}, {'traced' if trace else 'untraced'}"
            metrics, stages = report(title, m, specs)
            entry = results.setdefault(name, {"correct": True})
            entry["correct"] = entry["correct"] and m.correct
            entry["per_layer" if trace else "end_to_end"] = metrics
            if stages:
                entry["not_gated"] = stages
            entry["sha256"] = m.hashes[0] if m.hashes else {}
            last = (m, metrics)
    shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)

    correct = all(entry["correct"] for entry in results.values())
    if args.save:
        payload = {"seed": args.seed, "seconds": args.seconds, "environment": environment(), "workloads": results}
        Path(args.save).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.workload == "all":
        print(f"all checks {'passed' if correct else 'FAILED'}")
    else:
        m, metrics = last
        line = {
            "correct": correct,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
        }
        print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
