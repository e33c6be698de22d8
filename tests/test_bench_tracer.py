"""Every function that the benchmark's span tracer wraps exists in nvbath.

`bench/tracer.py` looks each `WRAPPED` name up with `getattr` only when a
run is traced (`bench/run.py --trace 1`); this test loads that file by path,
unchanged, so a renamed or removed function fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nvbath_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


WRAPPED = _load_tracer().WRAPPED


@pytest.mark.parametrize("layer", WRAPPED)
def test_every_wrapped_name_is_a_function_of_its_module(layer):
    module = importlib.import_module(f"nvbath.{layer}")
    missing = [name for name in WRAPPED[layer] if not callable(getattr(module, name, None))]
    assert missing == []
