"""Self-test of the benchmark harness: python3 -m pytest bench/tests -q

Sizes are reduced (``small``) and no run uses more than 2 threads.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import END, PARENT, START, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_harness():
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in list(e2e) + list(layer) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert layer == worker.LAYER_UNITS
    sample = {"wall_s": 1.0, "cpu_s": 1.0, "ref_wall_s": 0.04, "ref_cpu_s": 0.04, "failures": []}
    produced = run.end_to_end([sample], [0.3], 40.0)
    assert e2e == {name: unit for name, (_, unit) in produced.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


def _inputs(name: str, seed: int, workdir: Path) -> str:
    """Everything prepare() derived from the seed: attributes and files."""
    wl = workloads.WORKLOADS[name]()
    wl.prepare(seed, workdir, small=True)
    state = {k: v for k, v in vars(wl).items() if not isinstance(v, Path)}
    files = {
        str(p.relative_to(workdir)): p.read_bytes()
        for p in sorted(workdir.rglob("*")) if p.is_file()
    }
    return re.sub(re.escape(str(workdir)), "<dir>", repr((state, files)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_is_driven_by_the_seed(name, tmp_path):
    a = _inputs(name, 1, tmp_path / "a")
    again = _inputs(name, 1, tmp_path / "again")
    b = _inputs(name, 2, tmp_path / "b")
    assert a == again
    assert a != b


def test_spans_nest_and_self_times_are_non_negative(tmp_path):
    wl = workloads.WORKLOADS["fit_batch"]()
    wl.prepare(3, tmp_path, small=True)
    tracer = Tracer(worker.HOOKS)
    tracer.install({layer: sys.modules[f"nvbath.{layer}"] for layer in worker.LAYERS})
    try:
        tracer.iteration, tracer.active = 0, True
        wl.run()
        tracer.active = False
        wl.check()  # inactive: records nothing
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert len(spans) > 100
    assert {s[1] for s in spans} >= {"cli", "fitkit", "bath_model", "datasets", "pulse_sim"}
    for span in spans:
        assert span[START] <= span[END]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END]
    assert min(tracer.self_times()) >= -1e-9
    row = tracer.per_iteration([0])[0]
    layer_sum = sum(row.get(f"{layer}.self_s", 0.0) for layer in worker.LAYERS)
    assert layer_sum == pytest.approx(row["top_level_s"], rel=1e-9)
    assert row["span.cli.main.n"] == 8 + 2 * 3
    assert row["fitkit.converged"] == row["span.fitkit.fit.n"] == 8


def _smoke(name: str, seed: int, workdir: Path, trace: int) -> dict:
    args = Namespace(workload=name, seed=seed, workdir=workdir, seconds=0.0,
                     trace=trace, small=True, result=workdir / "result.json")
    workdir.mkdir(parents=True, exist_ok=True)
    return worker.measure(args)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_fast_and_reproducible(name, tmp_path):
    start = time.perf_counter()
    traced = _smoke(name, 5, tmp_path / "traced", trace=1)
    plain = _smoke(name, 5, tmp_path / "plain", trace=0)
    assert time.perf_counter() - start < 30.0
    for result in (traced, plain):
        assert not result["warmup_failures"]
        assert [s["failures"] for s in result["samples"]] == [[]] * len(result["samples"])
    assert set(traced["layer_metrics"]) == set(worker.LAYER_UNITS)
    assert (tmp_path / "traced" / traced["spans_file"]).is_file()
    # Same code and seed: the same bytes, traced or not.
    assert plain["samples"][0]["files"] == traced["samples"][0]["files"]
    if name == "echo_hot":
        assert traced["layer_metrics"]["pulse_sim.fanout_identical"]["value"] == 1.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert got.stdout == ""
