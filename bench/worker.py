"""Measuring process of the benchmark; started by bench/run.py.

    python3 bench/worker.py setup   --workload W --seed N --workdir DIR
    python3 bench/worker.py measure --workload W --seed N --workdir DIR \
        --seconds S --trace 0|1 --result FILE

``setup`` imports ``nvbath.cli`` and builds the workload's inputs, then
exits; run.py times it in a fresh interpreter. ``measure`` builds the same
inputs, warms up, runs closed-loop iterations for the time budget and
writes a JSON result. With ``--trace 1`` it first runs untraced iterations
for the overhead baseline, then traced ones, and reports per-layer numbers.

Right before and right after each timed region the worker also times
``reference()``, a fixed piece of work that shares no code with nvbath. The
host's speed drifts with its other tenants' load over seconds to minutes;
the iterations' time divided by the reference time beside them cancels much
of that drift, which no statistic over the iterations alone can do.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Per-layer metrics read straight off the traced iterations: name -> key of
# Tracer.per_iteration (per-iteration means are reported).
LAYER_SUMS = {
    "cli.self_s": "cli.self_s",
    "cli.commands": "span.cli.main.n",
    "spin_core.self_s": "spin_core.self_s",
    "spectra.self_s": "spectra.self_s",
    "spectra.build_sticks_s": "span.spectra.build_sticks.s",
    "spectra.sticks": "spectra.sticks",
    "spectra.convolve_s": "span.spectra.convolve.s",
    "spectra.grid_points": "spectra.grid_points",
    "spectra.analyze_peaks_s": "span.spectra.analyze_peaks.s",
    "spectra.peaks": "spectra.peaks",
    "spectra.csv_bytes": "spectra.csv_bytes",
    "bath_model.self_s": "bath_model.self_s",
    "bath_model.calls": "layer.bath_model.n",
    "pulse_sim.self_s": "pulse_sim.self_s",
    "pulse_sim.echo_s": "span.pulse_sim.simulate_hahn_echo.s",
    "pulse_sim.realizations": "pulse_sim.realizations",
    "pulse_sim.events_expected": "pulse_sim.events_expected",
    "pulse_sim.write_trace_s": "span.pulse_sim.write_trace_csv.s",
    "fitkit.self_s": "fitkit.self_s",
    "fitkit.fit_s": "span.fitkit.fit.s",
    "fitkit.fits": "span.fitkit.fit.n",
    "fitkit.iterations": "fitkit.iterations",
    "datasets.self_s": "datasets.self_s",
    "datasets.rows": "datasets.rows",
}


# Every per-layer metric with its unit. Times are per-iteration means over
# the traced iterations; 0 means the layer does not run in the workload.
LAYER_UNITS = {
    "cli.self_s": "s", "cli.commands": "count",
    "spin_core.self_s": "s", "spin_core.resonance_s": "s", "spin_core.transitions": "count",
    "spectra.self_s": "s", "spectra.build_sticks_s": "s", "spectra.sticks": "count",
    "spectra.convolve_s": "s", "spectra.grid_points": "count",
    "spectra.analyze_peaks_s": "s", "spectra.peaks": "count", "spectra.write_s": "s",
    "spectra.csv_bytes": "bytes",
    "bath_model.self_s": "s", "bath_model.calls": "count",
    "pulse_sim.self_s": "s", "pulse_sim.echo_s": "s", "pulse_sim.us_per_realization": "us",
    "pulse_sim.couplings_s": "s", "pulse_sim.realizations": "count",
    "pulse_sim.events_expected": "count-computed", "pulse_sim.write_trace_s": "s",
    "pulse_sim.fanout_speedup": "ratio", "pulse_sim.fanout_identical": "bool",
    "fitkit.self_s": "s", "fitkit.fit_s": "s", "fitkit.fits": "count",
    "fitkit.iterations": "count", "fitkit.converged_frac": "fraction",
    "datasets.self_s": "s", "datasets.load_s": "s", "datasets.rows": "count",
    "trace.wall_s": "s", "trace.residual_s": "s", "trace.overhead_frac": "fraction",
}


def _count(key: str, amount):
    def hook(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)

    return hook


def _echo_counts(counts, args, kwargs, result):
    cfg, tau, n = args[0], args[1], result.n_realizations
    counts["pulse_sim.realizations"] += n
    # effective_rate x 2 tau_max x sources x realizations, as computed.
    counts["pulse_sim.events_expected"] += (
        workloads.EFFECTIVE_RATE(cfg) * 2.0 * float(tau[-1]) * cfg.n_sources * n
    )


def _fit_counts(counts, args, kwargs, result):
    counts["fitkit.iterations"] += result.n_iterations
    counts["fitkit.converged"] += result.converged


def _file_size(args, kwargs, result):
    return Path(args[1] if len(args) > 1 else kwargs["path"]).stat().st_size


HOOKS = {
    "spectra.build_sticks": _count("spectra.sticks", lambda a, k, r: len(r.sticks)),
    "spectra.convolve": _count("spectra.grid_points", lambda a, k, r: r.field_t.size),
    "spectra.analyze_peaks": _count("spectra.peaks", lambda a, k, r: len(r.peaks)),
    "spectra.write_spectrum_csv": _count("spectra.csv_bytes", _file_size),
    "spectra.write_peaks_csv": _count("spectra.csv_bytes", _file_size),
    "pulse_sim.simulate_hahn_echo": _echo_counts,
    "fitkit.fit": _fit_counts,
    "datasets.load_csv": _count("datasets.rows", lambda a, k, r: len(r.rows)),
    "pulse_sim.read_trace_csv": _count("datasets.rows", lambda a, k, r: r.delays.size),
}


def digest(paths) -> tuple[str, dict[str, str]]:
    """sha256 of every output file and one digest over all of them."""
    files = {}
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        files[path.name] = h.hexdigest()
    combined = hashlib.sha256(
        "".join(f"{name}:{files[name]}\n" for name in sorted(files)).encode()
    ).hexdigest()
    return combined, files


# Inputs of reference(), built once: its work is the same on every call.
REFERENCE_FLOATS = [i * 1.2345678901234e-6 for i in range(8000)]
REFERENCE_ARRAY = np.linspace(0.0, 1.0, 20000)


@functools.cache
def _reference_source() -> str:
    """The source that reference() compiles, read on the first call (the
    warm-up) rather than on import."""
    return Path(argparse.__file__).read_text()


def reference() -> tuple[float, float]:
    """Wall and CPU time of a fixed piece of work, about 55 ms, that shares
    no code with nvbath: compiling a large Python source, a pure-Python
    integer loop, float formatting as in a CSV write, numpy vector
    operations, and building and running an argparse parser. The mix covers
    what the workloads spend their time on, so the reference slows down with
    the host about as much as they do. The compile step, with its large code
    and data footprint, is there for the many short CLI calls of
    ``fit_batch``, which the other parts track worse."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    compile(_reference_source(), "argparse.py", "exec")
    total = 0
    for i in range(60000):
        total += i * i % 7
    text = "".join(f"{x:.17g},{2.0 * x:.17g}\n" for x in REFERENCE_FLOATS)
    a = REFERENCE_ARRAY
    for _ in range(12):
        a = np.sin(a) + 1e-9 * np.cumsum(a)
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for c in range(6):
        sub = commands.add_parser(f"command{c}")
        for o in range(10):
            sub.add_argument(f"--option{o}", type=float, default=float(o))
    parser.parse_args(["command2", "--option3", "2.5"])
    if total < 0 or not text or not np.isfinite(a).all():
        raise AssertionError("reference work went wrong")
    return time.perf_counter() - wall0, time.process_time() - cpu0


def remove_outputs(wl) -> None:
    """Every iteration writes fresh files, as into a clean output directory.

    Rewriting a file in place makes ext4 start its write-back when the file
    is closed, which adds disk waits that vary with other tenants' I/O.
    """
    for path in wl.outputs():
        path.unlink(missing_ok=True)


def iterate(wl, budget: float, first: int, tracer: Tracer | None = None) -> list[dict]:
    """Closed loop: one iteration at a time until the next would overrun.

    At least one iteration runs. Checks and digests run after each timed
    region, with tracing paused. ``reference()`` is timed right before and
    right after each timed region; the sample keeps the mean of the two.
    """
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        sample = {"iteration": first + len(samples), "failures": []}
        before = reference()
        if tracer is not None:
            tracer.iteration = sample["iteration"]
            tracer.active = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            wl.run()
        except Exception:
            sample["failures"].append(traceback.format_exc(limit=3))
        finally:
            cpu1, wall1 = time.process_time(), time.perf_counter()
            if tracer is not None:
                tracer.active = False
        after = reference()
        sample["wall_s"] = wall1 - wall0
        sample["cpu_s"] = cpu1 - cpu0
        sample["ref_wall_s"] = (before[0] + after[0]) / 2.0
        sample["ref_cpu_s"] = (before[1] + after[1]) / 2.0
        if not sample["failures"]:
            try:
                wl.finish()
                sample["digest"], sample["files"] = digest(wl.outputs())
                sample["failures"] += wl.check()
            except Exception:
                sample["failures"].append(traceback.format_exc(limit=3))
        remove_outputs(wl)
        samples.append(sample)
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["wall_s"] for s in samples)
        if elapsed + typical > budget:
            return samples


def mark_digest_mismatches(samples: list[dict]) -> None:
    """Same code, seed and inputs must give the same bytes every iteration."""
    good = [s for s in samples if not s["failures"]]
    for s in good[1:]:
        if s["digest"] != good[0]["digest"]:
            s["failures"].append(
                f"output digest {s['digest']} differs from iteration "
                f"{good[0]['iteration']} ({good[0]['digest']})"
            )


def layer_metrics(tracer: Tracer, traced: list[dict], untraced: list[dict],
                  probes: dict[str, float]) -> dict[str, float]:
    ids = [s["iteration"] for s in traced]
    rows = tracer.per_iteration(ids)

    def mean(key: str) -> float:
        return statistics.fmean(rows[i].get(key, 0.0) for i in ids)

    m = {name: mean(key) for name, key in LAYER_SUMS.items()}
    m["spectra.write_s"] = mean("span.spectra.write_spectrum_csv.s") + mean(
        "span.spectra.write_peaks_csv.s"
    )
    m["datasets.load_s"] = mean("span.datasets.load_csv.s") + mean(
        "span.pulse_sim.read_trace_csv.s"
    )
    realizations = m["pulse_sim.realizations"]
    m["pulse_sim.us_per_realization"] = (
        1e6 * m["pulse_sim.echo_s"] / realizations if realizations else 0.0
    )
    fits = m["fitkit.fits"]
    m["fitkit.converged_frac"] = mean("fitkit.converged") / fits if fits else 0.0
    m["spin_core.resonance_s"] = probes.get("spin_core.resonance_s", 0.0)
    m["spin_core.transitions"] = probes.get("spin_core.transitions", 0.0)
    m["pulse_sim.couplings_s"] = probes.get("pulse_sim.couplings_s", 0.0)
    wall = statistics.fmean(s["wall_s"] for s in traced)
    m["trace.wall_s"] = wall
    m["trace.residual_s"] = wall - sum(mean(f"{layer}.self_s") for layer in LAYERS)
    # Relative to the reference, so that host drift between the untraced
    # and the traced phase does not read as tracing overhead.
    m["trace.overhead_frac"] = (
        statistics.median(s["wall_s"] / s["ref_wall_s"] for s in traced)
        / statistics.median(s["wall_s"] / s["ref_wall_s"] for s in untraced)
        - 1.0
    )
    return m


def fanout(wl, tracer: Tracer, budget: float, first: int, traced: list[dict]):
    """Traced echo_hot iterations at --threads 2 against the --threads 1 ones."""
    wl.threads = 2
    try:
        samples = iterate(wl, budget, first, tracer)
    finally:
        wl.threads = 1
    one = [s["files"]["trace.csv"] for s in traced if "files" in s]
    for s in samples:
        if "files" in s and one and s["files"]["trace_t2.csv"] != one[0]:
            s["failures"].append("--threads 2 output differs from --threads 1")
    rows = tracer.per_iteration([s["iteration"] for s in traced + samples])
    echo = "span.pulse_sim.simulate_hahn_echo.s"
    t1 = statistics.median(rows[s["iteration"]][echo] for s in traced)
    t2 = statistics.median(rows[s["iteration"]][echo] for s in samples)
    identical = all(not s["failures"] for s in samples)
    return samples, {
        "pulse_sim.fanout_speedup": t1 / t2,
        "pulse_sim.fanout_identical": float(identical),
    }


def measure(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(args.seed, args.workdir, args.small)
    warmup_failures = []
    try:
        wl.warmup()
        remove_outputs(wl)
        reference()
    except Exception:
        warmup_failures.append(traceback.format_exc(limit=3))
    out = {"warmup_failures": warmup_failures}
    if not args.trace:
        samples = iterate(wl, args.seconds, 0)
        mark_digest_mismatches(samples)
        out["samples"] = samples
    else:
        phases = 3 if wl.name == "echo_hot" else 2
        untraced = iterate(wl, args.seconds / phases, 0)
        probes = wl.probes()
        tracer = Tracer(HOOKS)
        tracer.install({layer: importlib.import_module(f"nvbath.{layer}") for layer in LAYERS})
        try:
            traced = iterate(wl, args.seconds / phases, len(untraced), tracer)
            extra = []
            fan = {"pulse_sim.fanout_speedup": 0.0, "pulse_sim.fanout_identical": 0.0}
            if wl.name == "echo_hot":
                extra, fan = fanout(wl, tracer, args.seconds / phases,
                                    len(untraced) + len(traced), traced)
        finally:
            tracer.uninstall()
        mark_digest_mismatches(untraced + traced)
        out["samples"] = untraced
        out["traced_samples"] = traced + extra
        metrics = layer_metrics(tracer, traced, untraced, probes) | fan
        out["layer_metrics"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in LAYER_UNITS.items()
        }
        spans = args.result.with_name(args.result.stem + "-spans.csv")
        tracer.write_spans(spans)
        out["spans_file"] = spans.name
        out["span_count"] = len(tracer.spans)
    out["numpy"] = np.__version__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    args.small = False
    if args.mode == "setup":
        workloads.WORKLOADS[args.workload]().prepare(args.seed, args.workdir, args.small)
        return 0
    result = measure(args)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
