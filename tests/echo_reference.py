"""Per-realization Hahn-echo kernel: the reference for ``nvbath.pulse_sim``.

The library evaluates realizations in blocks (one filter per block, one
stacked matmul per in-window event count). This module evaluates one
realization at a time with the formulas written out once more, and draws
from a freshly built ``Generator(Philox(key=(seed, r)))``, so a test can
require ``np.array_equal`` between the two: same draws in the same order,
same elementwise arithmetic, same (8, E) @ (E, delays) matmul per
realization.

Realization r draws, in this order: the couplings (n uniforms, then n sign
bits; skipped when they are pinned), n initial-sign bits, n Poisson counts
at the hot-limit rate, and one uniform time per drawn event.
"""

from __future__ import annotations

import math

import numpy as np

SIGN_GROUPS = 8
NEGLIGIBLE_EVENTS = 1e-12


def stream(seed: int, realization: int) -> np.random.Generator:
    """A freshly built generator for the (seed, realization) stream."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, realization & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def realization(cfg, rate: float, tau: np.ndarray, r: int):
    """``(echo, couplings, in_window)`` of realization ``r``: the mean of
    cos(Phi) over sign flips of whole source groups at each tau, the
    couplings it used, and its number of events inside the window."""
    rng = stream(cfg.seed, r)
    n = cfg.n_sources
    if cfg.fixed_couplings is not None:
        couplings = np.asarray(cfg.fixed_couplings, dtype=float)
    else:
        r_cubed = 1.0 - rng.random(n)
        couplings = (rng.integers(0, 2, n) * 2 - 1) * (cfg.coupling_scale / r_cubed)
    s0 = rng.integers(0, 2, n) * 2 - 1
    t_end = 2.0 * tau[-1]
    if rate * t_end < NEGLIGIBLE_EVENTS:
        return np.ones_like(tau), couplings, 0
    hot = max(cfg.base_rate, rate)
    counts = rng.poisson(hot * t_end, n)
    u = rng.random(int(counts.sum()))
    inside = u < rate / hot
    source = np.repeat(np.arange(n), counts)[inside]
    t = u[inside] * (hot / rate) * t_end
    t = t[np.lexsort((t, source)), None]
    k = np.arange(t.size) - np.searchsorted(source, source)
    weight = np.where(k % 2 == 0, 2.0, -2.0) * (couplings * s0)[source]
    group = source * SIGN_GROUPS // n
    minus_h = np.minimum(t, np.maximum(2.0 * tau - t, 0.0))
    phases = ((np.arange(SIGN_GROUPS)[:, None] == group) * weight) @ minus_h
    return np.prod(np.cos(phases), axis=0), couplings, t.size


def hahn_echo(cfg, rate: float, tau: np.ndarray, n_realizations: int):
    """``(amplitude, std_error, couplings, in_window)`` over realizations
    0 .. n - 1, reduced as ``simulate_hahn_echo`` reduces them."""
    runs = [realization(cfg, rate, tau, r) for r in range(n_realizations)]
    echoes = np.array([echo for echo, _, _ in runs])
    amplitude = echoes.mean(axis=0)
    if n_realizations > 1:
        std_error = echoes.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    else:
        std_error = np.zeros_like(amplitude)
    couplings = np.array([c for _, c, _ in runs])
    in_window = np.array([e for _, _, e in runs])
    return amplitude, std_error, couplings, in_window
