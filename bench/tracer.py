"""Span tracer that wraps nvbath's public module functions from outside.

The tracer replaces module attributes such as ``nvbath.spectra.convolve``
with timing wrappers. Calls that go through the module attribute (the CLI's
``spectra.convolve(...)``, or a module calling its own global function) are
recorded; names bound with ``from ... import`` inside the package keep the
original function and are invisible here.

Spans live in memory as ``[name, layer, start, end, parent, iteration]``
lists and are written out once, when the run ends. A layer's self time is
its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import csv
import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

# Public functions wrapped per layer. The layer is the module the function
# lives in, so the layer self times add up to the traced wall time.
WRAPPED = {
    "cli": ("main",),
    "spin_core": (
        "zeeman_temperature",
        "field_to_frequency",
        "frequency_to_field",
        "effective_g",
        "zfs_first_order_shift",
        "resonance_field",
        "tetrahedral_orientations",
        "observed_transitions",
    ),
    "spectra": (
        "build_sticks",
        "convolve",
        "analyze_peaks",
        "write_spectrum_csv",
        "write_peaks_csv",
    ),
    "bath_model": (
        "polarization",
        "flip_flop_factor",
        "t1_rate",
        "t1_time",
        "t2_rate",
        "t2_time",
    ),
    "pulse_sim": (
        "effective_rate",
        "sample_couplings",
        "simulate_hahn_echo",
        "simulate_inversion_recovery",
        "default_tau_grid",
        "effective_t2_scan",
        "write_trace_csv",
        "read_trace_csv",
    ),
    "fitkit": ("fit", "get_model", "registry", "jacobian_check"),
    "datasets": ("bundled", "save_csv", "load_csv", "as_rate_data"),
}

LAYERS = tuple(WRAPPED)

NAME, LAYER, START, END, PARENT, ITERATION = range(6)

# hook(counts, args, kwargs, result) adds to the iteration's counters.
Hook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Records spans and counters while ``active``; inert otherwise."""

    def __init__(self, hooks: dict[str, Hook] | None = None) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.iteration = -1
        self.active = False
        self._hooks = hooks or {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, Callable]] = []

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every ``WRAPPED`` function of the given layer modules."""
        for layer, module in modules.items():
            for name in WRAPPED[layer]:
                original = getattr(module, name)
                self._patched.append((module, name, original))
                setattr(module, name, self._wrap(layer, name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        qualname = f"{layer}.{name}"
        hook = self._hooks.get(qualname)
        spans = self.spans
        local = self._local
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [qualname, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.iteration]
            with lock:  # the index must be the position the span lands at
                stack.append(len(spans))
                spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                with lock:
                    hook(self.counts[self.iteration], args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def per_iteration(self, iterations: Iterable[int]) -> dict[int, dict[str, float]]:
        """Per iteration: layer self times, span totals per name, counts."""
        selfs = self.self_times()
        out = {i: defaultdict(float) for i in iterations}
        for span, self_s in zip(self.spans, selfs):
            row = out.get(span[ITERATION])
            if row is None:
                continue
            row[f"{span[LAYER]}.self_s"] += self_s
            row[f"span.{span[NAME]}.s"] += span[END] - span[START]
            row[f"span.{span[NAME]}.n"] += 1
            row[f"layer.{span[LAYER]}.n"] += 1
            if span[PARENT] < 0:
                row["top_level_s"] += span[END] - span[START]
        for i, row in out.items():
            for key, value in self.counts.get(i, {}).items():
                row[key] += value
        return out

    def write_spans(self, path) -> None:
        """Spans as CSV, times relative to the first span, with self time."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["index", "name", "layer", "start_s", "end_s", "self_s",
                 "parent", "iteration"]
            )
            for k, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
                writer.writerow(
                    [k, span[NAME], span[LAYER], f"{span[START] - origin:.9f}",
                     f"{span[END] - origin:.9f}", f"{self_s:.9f}",
                     span[PARENT], span[ITERATION]]
                )
