"""Per-realization Hahn-echo kernel: the reference for ``nvbath.pulse_sim``.

The library evaluates realizations in blocks (one filter per block, one
stacked matmul per in-window event count). This module evaluates one
realization at a time with the formulas and the stream layout written out
once more, and draws from freshly built ``Generator(Philox(key=...))``
streams, so a test can require ``np.array_equal`` between the two: same
draws, same elementwise arithmetic, same (8, E) @ (E, delays) matmul per
realization.

Stream v5. Realization r reads words [n r, n (r + 1)) of the geometry
stream, key (seed, 2**64 - 1), one per source: numpy's ``random`` double of
the word is its coupling uniform, bit 0 the coupling's sign (unused when the
couplings are pinned) and bit 1 its initial sign, 1 for +1. Here the
uniforms and the words come from two fresh streams at that position, so the
library's own bit arithmetic is not repeated. Realizations
come in blocks of ``block_size`` (the last one may be short); block b draws
from the (seed, b) stream one Poisson count per source of each of its
realizations at the hot-limit rate, in realization order, and then one
uniform time per drawn event, in the same order.
"""

from __future__ import annotations

import math

import numpy as np

SIGN_GROUPS = 8
NEGLIGIBLE_EVENTS = 1e-12
GEOMETRY = 2**64 - 1


def stream(seed: int, key: int) -> np.random.Generator:
    """A freshly built generator for the (seed, key) stream."""
    mask = (1 << 64) - 1
    return np.random.Generator(
        np.random.Philox(key=np.array([seed & mask, key & mask], dtype=np.uint64))
    )


def block_size(cfg, tau: np.ndarray) -> int:
    """Realizations per block: as many as expect 2**19 cells, at least 1. A
    realization expects 3 cells per source (geometry word, Poisson count,
    signed coupling), 1 + delays + 8 per event drawn at the hot-limit rate
    (uniform and filter row) and 11 per delay (8 rows of phases, their
    product, the kept echo and the fold's temporary)."""
    per_source = 3 + cfg.base_rate * 2.0 * tau[-1] * (1 + tau.size + SIGN_GROUPS)
    return max(1, int(2**19 // (cfg.n_sources * per_source + (SIGN_GROUPS + 3) * tau.size)))


def realization(cfg, rate: float, tau: np.ndarray, r: int, n_realizations: int,
                size: int | None = None):
    """``(echo, couplings, in_window)`` of realization ``r`` of a run of
    ``n_realizations`` in blocks of ``size`` (``block_size`` if None): the
    mean of cos(Phi) over sign flips of whole source groups at each tau, the
    couplings it used, and its number of events inside the window."""
    n = cfg.n_sources
    geometry = stream(cfg.seed, GEOMETRY)
    geometry.bit_generator.random_raw(n * r)
    r_cubed = 1.0 - geometry.random(n)
    raw = stream(cfg.seed, GEOMETRY).bit_generator
    raw.random_raw(n * r)
    words = raw.random_raw(n)
    if cfg.fixed_couplings is not None:
        couplings = np.asarray(cfg.fixed_couplings, dtype=float)
    else:
        couplings = np.where(words % 2 == 1, 1, -1) * (cfg.coupling_scale / r_cubed)
    s0 = np.where(words // 2 % 2 == 1, 1, -1)
    t_end = 2.0 * tau[-1]
    if rate * t_end < NEGLIGIBLE_EVENTS:
        return np.ones_like(tau), couplings, 0
    size = size or block_size(cfg, tau)
    block, row = divmod(r, size)
    rng = stream(cfg.seed, block)
    hot = cfg.base_rate
    counts = rng.poisson(hot * t_end, (min(size, n_realizations - block * size), n))
    u = rng.random(int(counts.sum()))
    first = int(counts[:row].sum())
    counts = counts[row]
    u = u[first:first + int(counts.sum())]
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


def hahn_echo(cfg, rate: float, tau: np.ndarray, n_realizations: int,
              size: int | None = None):
    """``(amplitude, std_error, couplings, in_window)`` over realizations
    0 .. n - 1, reduced as ``simulate_hahn_echo`` reduces them: the mean from
    a running sum that adds one realization at a time, in order, and the
    standard error from each block's two-pass mean and sum of squared
    deviations, joined to those of the blocks before it by Chan, Golub &
    LeVeque's pairwise update."""
    runs = [realization(cfg, rate, tau, r, n_realizations, size)
            for r in range(n_realizations)]
    echoes = np.array([echo for echo, _, _ in runs])
    total = np.zeros(tau.size)
    m2 = np.zeros(tau.size)
    size = size or block_size(cfg, tau)
    for lo in range(0, n_realizations, size):
        block = echoes[lo:lo + size]
        m = len(block)
        mean = block.mean(axis=0)
        block_m2 = ((block - mean) ** 2).sum(axis=0)
        if lo:
            block_m2 += (mean - total / lo) ** 2 * (lo * m / (lo + m))
        m2 = m2 + block_m2
        for echo in block:
            total = total + echo
    amplitude = total / n_realizations
    # One realization's sum of squared deviations is exactly 0.
    std_error = np.sqrt(m2 / max(n_realizations - 1, 1)) / math.sqrt(n_realizations)
    couplings = np.array([c for _, c, _ in runs])
    in_window = np.array([e for _, _, e in runs])
    return amplitude, std_error, couplings, in_window
