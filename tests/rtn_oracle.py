"""Fixed-step reference integrator for random-telegraph Hahn-echo decay.

Deliberately a second, independent route to the same observable as
``nvbath.pulse_sim``: trajectories advance on a uniform 1 ns grid with the
parity-exact flip probability per step, q = (1 - exp(-2 R dt)) / 2, which is
the probability of an odd number of Poisson switches inside one step. Window
integrals are left-Riemann sums on that grid. RNG streams are PCG64 (a
different family from the production code) seeded per chunk.

The Bernoulli(q) flip of each step is drawn as geometric gaps between flips
(the same law, about 1/q times fewer draws), and the Riemann sums come from
the exact integer identity of :func:`running_sums`. Used only in tests.
"""

from __future__ import annotations

import numpy as np

DT = 1e-9


def hahn_echo_fixed_step(
    coupling: float,
    rate: float,
    tau_grid: np.ndarray,
    n_realizations: int,
    seed: int = 0,
    dt: float = DT,
    chunk: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean echo amplitude and standard error on ``tau_grid``.

    Every tau must be an integer multiple of ``dt``; the sequence spans
    [0, 2 tau] per point.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    tau_idx = np.rint(tau_grid / dt).astype(np.int64)
    if not np.allclose(tau_idx * dt, tau_grid, rtol=0.0, atol=dt * 1e-6):
        raise ValueError("tau grid must align with the oracle step")
    n_steps = int(2 * tau_idx.max())
    q = 0.5 * (1.0 - np.exp(-2.0 * rate * dt))
    width = int(n_steps * q + 10.0 * np.sqrt(n_steps * q) + 20.0)

    total = np.zeros(tau_grid.size)
    total_sq = np.zeros(tau_grid.size)
    done = 0
    chunk_index = 0
    while done < n_realizations:
        m = min(chunk, n_realizations - done)
        rng = np.random.default_rng((seed, chunk_index))
        s0 = rng.integers(0, 2, size=(m, 1)) * 2 - 1
        # Steps between Bernoulli(q) flips are geometric; draw until every
        # row has passed the last step.
        gaps = rng.geometric(q, size=(m, width))
        while gaps.sum(axis=1).min() <= n_steps:
            gaps = np.concatenate([gaps, rng.geometric(q, size=(m, width))], axis=1)
        positions = np.cumsum(gaps, axis=1) - 1
        first = running_sums(s0, positions, tau_idx) * dt
        total_window = running_sums(s0, positions, 2 * tau_idx) * dt
        phase = coupling * (2.0 * first - total_window)
        echo = np.cos(phase)
        total += echo.sum(axis=0)
        total_sq += (echo * echo).sum(axis=0)
        done += m
        chunk_index += 1

    mean = total / n_realizations
    if n_realizations > 1:
        var = (total_sq - n_realizations * mean * mean) / (n_realizations - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / n_realizations)
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def running_sums(s0: np.ndarray, positions: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``sum_{k<j} s(k)`` per row, with ``s(k) = s0 (-1)^N(k)`` and N(k) the
    flips at steps before k.

    With flip i (from 1) at step ``positions[:, i-1]``, sorted per row, the
    sum is ``s0 (j + 2 sum_i (-1)^i (j - 1 - pos_i)+)``, exact in integers.
    """
    sign = np.where(np.arange(positions.shape[1]) % 2 == 0, -2, 2)
    late = np.maximum(j[None, None, :] - 1 - positions[:, :, None], 0)
    return s0 * (j + (sign[None, :, None] * late).sum(axis=1))
