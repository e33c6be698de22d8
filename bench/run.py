"""nvbath benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

    python3 bench/run.py --workload echo_hot --seed 1 --seconds 25 --trace 0

Workloads: echo_hot, quench_scan, spectrum, fit_batch (see bench/NOTES.md).
Run from the repository root; nvbath is imported from ./src.

``setup_s`` is the median wall time of fresh interpreters that import
``nvbath.cli`` and build the workload's inputs; some run before the
iterations and some after. The iterations run in one more fresh interpreter
(bench/worker.py), whose peak RSS is ``peak_rss_mb``. ``wall_rel`` and
``cpu_rel`` are the total wall (CPU) time of the iterations after a warm-up
divided by the total wall (CPU) time of the worker's fixed reference work,
timed beside each iteration. The raw medians ``wall_s`` and ``cpu_s`` are
printed and recorded too, but are not gated: the host's speed drifts too
much between runs for them to hold a bound.

The full record (machine and environment stamp, per-iteration samples,
sha256 of every output file, span file of traced runs) is written to
``.bench_out/``. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("echo_hot", "quench_scan", "spectrum", "fit_batch")
# Set-up runs before and after the iterations, so that the median spans the
# run rather than one stretch of the host's speed.
SETUP_BEFORE, SETUP_AFTER = 4, 3
# A run must end within 180 s; the worker is killed past this deadline.
DEADLINE_S = 170.0
# Sample counts that allow a tail percentile with >= 10 samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def end_to_end(samples, setup_times, peak_rss_mb):
    """The gated metrics: name -> (value, unit)."""
    ok = [s for s in samples if not s["failures"]] or samples
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_rel": (sum(s["wall_s"] for s in ok) / sum(s["ref_wall_s"] for s in ok), "ratio"),
        "cpu_rel": (sum(s["cpu_s"] for s in ok) / sum(s["ref_cpu_s"] for s in ok), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def raw_times(samples):
    """Median wall and CPU seconds per iteration and of the reference work."""
    ok = [s for s in samples if not s["failures"]] or samples
    return {key: statistics.median(s[key] for s in ok)
            for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")}


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    walls = sorted(s["wall_s"] for s in samples)
    for p in TAIL_PERCENTILES:
        if len(walls) * (1.0 - p / 100.0) >= 10.0:
            return p, walls[min(len(walls) - 1, int(len(walls) * p / 100.0))]
    return None


def stamp(args, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
        commit = got.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((SRC / "nvbath").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def time_setup(args, workdir: Path, repeats: int) -> list[float]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "setup", "--workload",
           args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "nvbath" / "cli.py").is_file():
        print(f"error: no nvbath sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_times = time_setup(args, workdir, SETUP_BEFORE)

    result_path = workdir / "worker.json"
    with open(workdir / "worker.log", "w") as log:
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "measure", "--workload",
             args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            check=True, stdout=log, stderr=subprocess.STDOUT,
            timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    worker = json.loads(result_path.read_text())
    setup_times += time_setup(args, workdir, SETUP_AFTER)
    samples = worker["samples"]
    every = samples + worker.get("traced_samples", [])
    attempted = len(every) + len(worker["warmup_failures"])
    failed = sum(1 for s in every if s["failures"]) + len(worker["warmup_failures"])

    e2e = end_to_end(samples, setup_times, worker["peak_rss_mb"])
    if args.trace:
        metrics = worker["layer_metrics"]
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}

    record = {
        "stamp": stamp(args, worker.pop("numpy")),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "setup_times_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "median_s": raw_times(samples),
        "wall_tail": tail(samples),
        "metrics": metrics,
        **worker,
    }
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1))

    failures = [f"warm-up: {f}" for f in worker["warmup_failures"]] + [
        f"iteration {s['iteration']}: {f}" for s in every for f in s["failures"]
    ]
    for failure in failures[:5]:
        print(f"FAILED {failure.strip()}")
    print(f"{args.workload} seed {args.seed}: {len(every)} iterations, "
          f"{failed} failed (error_rate {failed / attempted:.4g} ratio)")
    for name, value in raw_times(samples).items():
        print(f"  {name} = {value:.6g} s (median, not gated)")
    walls = tail(samples)
    if walls:
        print(f"  wall_s.p{walls[0]:g} = {walls[1]:.6g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
