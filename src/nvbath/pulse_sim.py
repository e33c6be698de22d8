"""Stochastic pulse-sequence simulation over a telegraph-noise spin bath.

The probe spin sees a frequency shift ``sum_i b_i s_i(t)`` from bath sources
that flip randomly between +-1 (random telegraph noise). Each source's
switching rate is the infinite-temperature rate scaled by the thermal pair
flip-flop factor, normalized to 1 at its hot-limit value of 1/4, so cooling
through the Zeeman temperature freezes the bath and the echo decay slows.

A Hahn echo (pi/2 - tau - pi - tau) accumulates the phase
``Phi = int_0^tau dw dt - int_tau^2tau dw dt`` and the echo amplitude is the
realization average of cos(Phi). Trajectories are integrated event by event
(exact, no time step). Realization r draws from a counter-based stream keyed
by (seed, r), so results are bit-identical for any worker count and any
chunking of the realization loop.

Couplings follow the dipolar ``b = coupling_scale / r**3`` law for sources
placed uniformly in the unit ball, with random sign; by default each
realization draws its own bath geometry (an ensemble measurement), and
``fixed_couplings`` pins the coupling list instead for controlled runs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .bath_model import flip_flop_factor
from . import fitkit, table

SEQUENCE_HAHN = "hahn_echo"
SEQUENCE_INVERSION = "inversion_recovery"

_TRACE_COLUMNS = ("delay_s", "amplitude", "std_error")

_UINT64_MASK = (1 << 64) - 1

# Events with expected count below this are treated as none at all.
_NEGLIGIBLE_EVENTS = 1e-12

# Largest switching-time buffer (sources x draws per source) one realization
# may allocate; the default 300 K run needs 2.7e3, the 8-byte times and the
# event-count broadcast over 2 x 41 delays then stay under about 0.4 GB.
_MAX_EVENT_BUFFER = 4_000_000


@dataclass(frozen=True)
class BathNoiseConfig:
    """Bath and sequence-independent simulation inputs.

    ``coupling_scale`` (rad/s) is the coupling at the sampling-ball edge;
    ``base_rate`` (1/s) is the per-source switching rate in the hot limit.
    The default numbers are calibrated so the fitted room-temperature T2 of
    the default scan matches the 6.7 us echo decay of the probe spin.
    """

    n_sources: int = 100
    coupling_scale: float = 2.0e4
    base_rate: float = 1.05e4
    temperature: float = 300.0
    t_zeeman: float = 11.518
    seed: int = 1
    fixed_couplings: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.n_sources < 1:
            raise ValueError("n_sources must be >= 1")
        if not 0 <= self.coupling_scale < math.inf:
            raise ValueError("coupling_scale must be non-negative and finite")
        if not 0 <= self.base_rate < math.inf:
            raise ValueError("base_rate must be non-negative and finite")
        if not (0 < self.temperature < math.inf and 0 < self.t_zeeman < math.inf):
            raise ValueError("temperatures must be positive and finite")
        if self.fixed_couplings is not None and not (
            len(self.fixed_couplings) == self.n_sources
            and np.all(np.isfinite(self.fixed_couplings))
        ):
            raise ValueError("fixed_couplings must hold n_sources finite values")


@dataclass(frozen=True)
class DecayTrace:
    """Sequence amplitude versus delay, with Monte Carlo standard errors.

    ``delays`` holds the varied delay in seconds: the pulse spacing tau for
    a Hahn echo (total evolution 2 tau), the recovery delay for inversion
    recovery.
    """

    sequence: str
    delays: np.ndarray
    amplitude: np.ndarray
    std_error: np.ndarray
    n_realizations: int
    seed: int

    def __post_init__(self) -> None:
        if self.sequence not in (SEQUENCE_HAHN, SEQUENCE_INVERSION):
            raise ValueError(f"unknown sequence {self.sequence!r}")
        if not (
            self.delays.shape == self.amplitude.shape == self.std_error.shape
        ):
            raise ValueError("delay, amplitude and std_error lengths differ")
        if np.any(np.diff(self.delays) <= 0):
            raise ValueError("delays must be strictly increasing")
        if self.delays[0] < 0:
            raise ValueError("delays must be non-negative")
        if not np.all(np.isfinite(self.amplitude)):
            raise ValueError("amplitudes must be finite")
        if not np.all((self.std_error >= 0) & (self.std_error < math.inf)):
            raise ValueError("standard errors must be non-negative and finite")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")


def _rng(seed: int, realization: int) -> np.random.Generator:
    """Counter-based generator for one realization: key = (seed, index)."""
    key = np.array(
        [seed & _UINT64_MASK, realization & _UINT64_MASK], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def effective_rate(cfg: BathNoiseConfig) -> float:
    """Per-source switching rate: base rate times the normalized flip-flop factor."""
    return cfg.base_rate * flip_flop_factor(cfg.temperature, cfg.t_zeeman) / 0.25


def sample_couplings(cfg: BathNoiseConfig, realization: int = 0) -> np.ndarray:
    """Couplings (rad/s) of one realization's bath geometry.

    Sources sit uniformly in the unit ball (radius cubed is uniform on
    (0, 1]), so ``b = +- coupling_scale / r**3`` has the heavy dipolar tail
    of a dilute spin bath. The same (seed, realization) always returns the
    same array, matching what :func:`simulate_hahn_echo` uses internally.
    """
    if cfg.fixed_couplings is not None:
        return np.asarray(cfg.fixed_couplings, dtype=float)
    return _draw_couplings(_rng(cfg.seed, realization), cfg)


def _draw_couplings(rng: np.random.Generator, cfg: BathNoiseConfig) -> np.ndarray:
    # 1 - U is uniform on (0, 1], avoiding the zero-radius singularity.
    r_cubed = 1.0 - rng.random(cfg.n_sources)
    signs = rng.integers(0, 2, cfg.n_sources) * 2 - 1
    return signs * (cfg.coupling_scale / r_cubed)


def simulate_hahn_echo(
    cfg: BathNoiseConfig,
    tau_grid: Sequence[float],
    n_realizations: int,
    threads: int = 1,
) -> DecayTrace:
    """Monte Carlo Hahn-echo trace over the bath noise.

    Each realization draws its bath geometry (unless pinned) and one
    telegraph trajectory per source, integrates the two free-evolution
    windows exactly from the switching events, and contributes
    cos(Phi(tau)) at every tau of the grid. The trace reports the mean and
    standard error over realizations.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size == 0:
        raise ValueError("tau grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(tau)) or tau[0] < 0 or np.any(np.diff(tau) <= 0):
        raise ValueError("tau grid must be finite, >= 0 and strictly increasing")
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    rate = effective_rate(cfg)
    shared = None if cfg.fixed_couplings is None else sample_couplings(cfg)
    # Checked in floating point, before any allocation or int conversion.
    buffer = cfg.n_sources * _draws_per_source(rate * 2.0 * tau[-1])
    if buffer > _MAX_EVENT_BUFFER:
        raise ValueError(
            f"one realization would buffer {buffer:.3g} switching times "
            f"({cfg.n_sources} sources), over the limit of {_MAX_EVENT_BUFFER:.3g}; "
            "shorten the delays or lower the switching rate"
        )
    echoes = np.empty((n_realizations, tau.size))

    def run_block(lo: int, hi: int) -> None:
        for r in range(lo, hi):
            echoes[r] = _one_realization(cfg, rate, tau, r, shared)

    if threads == 1:
        run_block(0, n_realizations)
    else:
        block = math.ceil(n_realizations / threads)
        bounds = [
            (lo, min(lo + block, n_realizations))
            for lo in range(0, n_realizations, block)
        ]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(run_block, lo, hi) for lo, hi in bounds]:
                future.result()

    amplitude = echoes.mean(axis=0)
    if n_realizations > 1:
        std_error = echoes.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    else:
        std_error = np.zeros_like(amplitude)
    return DecayTrace(
        sequence=SEQUENCE_HAHN,
        delays=tau,
        amplitude=amplitude,
        std_error=std_error,
        n_realizations=n_realizations,
        seed=cfg.seed,
    )


def _one_realization(
    cfg: BathNoiseConfig,
    rate: float,
    tau: np.ndarray,
    realization: int,
    shared_couplings: Optional[np.ndarray],
) -> np.ndarray:
    rng = _rng(cfg.seed, realization)
    if shared_couplings is not None:
        couplings = shared_couplings
    else:
        couplings = _draw_couplings(rng, cfg)
    n = couplings.size
    s0 = rng.integers(0, 2, n) * 2 - 1
    t_end = 2.0 * tau[-1]
    if rate * t_end < _NEGLIGIBLE_EVENTS or t_end == 0.0:
        # Static noise refocuses exactly.
        return np.ones_like(tau)
    m_cap = int(_draws_per_source(rate * t_end))
    times = rng.exponential(1.0 / rate, (n, m_cap)).cumsum(axis=1)
    while float(times[:, -1].min()) < t_end:
        extra = rng.exponential(1.0 / rate, (n, m_cap)).cumsum(axis=1)
        times = np.concatenate([times, times[:, -1:] + extra], axis=1)

    # Running integral of s(t): with events t_1 < t_2 < ... and N = N(t),
    # S(t) = s0 * ((-1)^N t + 2 sum_{k<=N} (-1)^{k+1} t_k).
    alt = np.ones(times.shape[1])
    alt[1::2] = -1.0
    alt_sums = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(times * alt, axis=1)], axis=1
    )
    t_eval = np.concatenate([tau, 2.0 * tau])
    counts = (times[:, :, None] <= t_eval[None, None, :]).sum(axis=1)
    parity = np.where(counts % 2 == 0, 1.0, -1.0)
    s_int = s0[:, None] * (
        parity * t_eval[None, :] + 2.0 * np.take_along_axis(alt_sums, counts, axis=1)
    )
    g = tau.size
    window_diff = 2.0 * s_int[:, :g] - s_int[:, g:]
    phase = couplings @ window_diff
    return np.cos(phase)


def _draws_per_source(mean_events: float) -> float:
    """First batch of switching times per source: the mean plus ten sigma."""
    return mean_events + 10.0 * math.sqrt(mean_events) + 20.0


def simulate_inversion_recovery(
    t1: float,
    delays: Sequence[float],
    noise_amplitude: float = 0.0,
    seed: int = 0,
) -> DecayTrace:
    """Inversion-recovery trace ``1 - 2 exp(-T/T1)``, optionally with noise.

    Gaussian noise of the given amplitude is added per point from the
    (seed, 0) stream; the trace's std_error column reports that amplitude.
    """
    if not 0 < t1 < math.inf:
        raise ValueError(f"t1 must be positive and finite, got {t1}")
    if not 0 <= noise_amplitude < math.inf:
        raise ValueError("noise amplitude must be non-negative and finite")
    t = np.asarray(delays, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("delay grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(t)) or t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValueError("delays must be finite, >= 0 and strictly increasing")
    # T/T1 may overflow to inf (exp gives 0); DecayTrace rejects inf amplitudes.
    with np.errstate(over="ignore"):
        amplitude = 1.0 - 2.0 * np.exp(-t / t1)
        if noise_amplitude > 0:
            amplitude += noise_amplitude * _rng(seed, 0).standard_normal(t.size)
    std_error = np.full_like(amplitude, noise_amplitude)
    return DecayTrace(
        sequence=SEQUENCE_INVERSION,
        delays=t,
        amplitude=amplitude,
        std_error=std_error,
        n_realizations=1,
        seed=seed,
    )


def default_tau_grid() -> np.ndarray:
    """Pulse spacings used by the temperature scan, 0 to 25 us."""
    return np.linspace(0.0, 25e-6, 41)


def effective_t2_scan(
    cfg: BathNoiseConfig,
    temperatures: Sequence[float],
    n_realizations: int = 2000,
    threads: int = 1,
) -> list[tuple[float, float]]:
    """Fitted echo T2 (seconds) at each temperature of a quench scan.

    Runs :func:`simulate_hahn_echo` on :func:`default_tau_grid` at every
    temperature with the same seed (equal temperatures therefore give
    identical results) and fits a single exponential ``a exp(-2 tau / T2)``.
    A fit that fails to converge raises, naming the offending temperature.
    """
    tau_grid = default_tau_grid()
    model = fitkit.get_model("echo_decay")
    out: list[tuple[float, float]] = []
    for temperature in temperatures:
        run_cfg = replace(cfg, temperature=float(temperature))
        trace = simulate_hahn_echo(run_cfg, tau_grid, n_realizations, threads)
        result = fitkit.fit(model, trace.delays, trace.amplitude)
        if not result.converged:
            raise RuntimeError(
                f"echo decay fit did not converge at T = {temperature} K: "
                f"{result.message}"
            )
        t2 = float(result.params[list(model.param_names).index("T2")])
        out.append((float(temperature), t2))
    return out


def write_trace_csv(trace: DecayTrace, path, header_lines: Sequence[str] = ()) -> None:
    """Write a trace as ``delay_s,amplitude,std_error`` rows plus metadata."""
    meta = (
        f"sequence={trace.sequence} "
        f"n_realizations={trace.n_realizations} seed={trace.seed}"
    )
    table.write(
        path,
        [*header_lines, meta],
        _TRACE_COLUMNS,
        zip(trace.delays, trace.amplitude, trace.std_error),
    )


def read_trace_csv(path) -> DecayTrace:
    """Inverse of :func:`write_trace_csv`; metadata comes from the comments."""
    comments, _, rows = table.read(path, (_TRACE_COLUMNS,))
    meta = dict(
        token.partition("=")[::2]
        for comment in comments
        for token in comment.split()
        if "=" in token
    )
    columns = np.array(rows)
    return DecayTrace(
        sequence=meta.get("sequence", SEQUENCE_HAHN),
        delays=columns[:, 0],
        amplitude=columns[:, 1],
        std_error=columns[:, 2],
        n_realizations=int(meta.get("n_realizations", "1")),
        seed=int(meta.get("seed", "0")),
    )
