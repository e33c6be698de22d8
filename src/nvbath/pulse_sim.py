"""Stochastic pulse-sequence simulation over a telegraph-noise spin bath.

The probe spin sees a frequency shift ``sum_i b_i s_i(t)`` from bath sources
that flip randomly between +-1 (random telegraph noise). Each source's
switching rate is the infinite-temperature rate scaled by the thermal pair
flip-flop factor, normalized to 1 at its hot-limit value of 1/4, so cooling
through the Zeeman temperature freezes the bath and the echo decay slows.

A Hahn echo (pi/2 - tau - pi - tau) accumulates the phase
``Phi = int_0^tau dw dt - int_tau^2tau dw dt`` and the echo amplitude is the
realization average of cos(Phi). A switching event at time t adds
``+-2 b h(tau, t)`` to Phi, with the Hahn filter ``h = 2 (tau - t)+ -
(2 tau - t)+``: an exact sum, no time step. Each source's events are drawn
once at the hot-limit rate, which is the base rate at every temperature (the
flip-flop factor never exceeds 1/4), and stretched by base rate / rate, so
every temperature of a scan sees the same events on a slower clock (and a
cold run with a huge base rate may be refused): a scan draws each block of
realizations once and filters it at every temperature, with the bytes of a
run at each temperature alone. Flipping the initial signs of a whole source
group leaves the law of Phi unchanged, so each realization contributes the
exact mean of cos(Phi) over those flips.

Random numbers come from numpy's counter-based Philox generator, one stream
per (seed, key) pair, the generator's 128-bit key (stream v5); each read
builds a fresh generator at its starting counter. Realization r's bath is
words [n r, n (r + 1)) of the seed's geometry stream (key ``_GEOMETRY``),
one per source: its coupling uniform, the coupling's sign (bit 0) and its
initial sign (bit 1). Realizations run in blocks, the one unit of draws,
reduction and thread work, whose size the config and the delay grid alone
set (:func:`_block_size`): block b reads its geometry words in one call and
draws its Poisson counts and event uniforms, one call apiece, from the
(seed, b) stream; its events are filtered once and sorted by source and time
at the fastest rate of a call, and each realization's phases are its own
``(8, E) @ (E, delays)`` matmul over its E in-window events, made as one
stacked matmul per E and rate over the block, so the echoes are
bit-identical to a per-realization loop (tests/echo_reference.py) for any
worker count. No echo array is kept: each block's echoes are added to a
running sum in realization order, and their squared deviations joined to
the run's by Chan, Golub & LeVeque's update, so memory does not grow with
realizations.

Couplings follow the dipolar ``b = coupling_scale / r**3`` law for sources
placed uniformly in the unit ball, with random sign; by default each
realization draws its own bath geometry (an ensemble measurement), and
``fixed_couplings`` pins the coupling list instead for controlled runs.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._domain import check, one_of
from .bath_model import flip_flop_factor
from . import fitkit, table

SEQUENCE_HAHN = "hahn_echo"
SEQUENCE_INVERSION = "inversion_recovery"
SEQUENCES = (SEQUENCE_HAHN, SEQUENCE_INVERSION)

_TRACE_COLUMNS = ("delay_s", "amplitude", "std_error")

# Hahn-echo defaults of the temperature scan and `nvbath simulate`.
DEFAULT_TAU_MAX_S = 25e-6
DEFAULT_TAU_POINTS = 41
DEFAULT_REALIZATIONS = 2000

_UINT64_MASK = (1 << 64) - 1

# Events with expected count below this are treated as none at all.
_NEGLIGIBLE_EVENTS = 1e-12

# Largest arrays of one realization, in 8-byte cells (events drawn at the
# hot-limit rate; events in the window x (delays + sign groups) with its echo
# rows): with temporaries about 0.4 GB apiece.
_MAX_CELLS = 16_000_000
# One cosine per group of consecutive sources: more groups lower the variance,
# but many make each realization's echo heavy-tailed where it has decayed, and
# its sample standard error then stops falling as 1 / sqrt(realizations).
_SIGN_GROUPS = 8
# A realization's echo rows per delay and rate: 8 of phases and their
# product, the kept echo and the fold's temporary.
_ECHO_ROWS = _SIGN_GROUPS + 3
# Cells (4 MiB) that a block of realizations, the one unit of draws,
# reduction and thread work, expects: 155 default realizations at 25 us.
_BLOCK_CELLS = 1 << 19
_GEOMETRY = _UINT64_MASK  # key word of the geometry stream; block b's is b


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
        check("n_sources", self.n_sources, 1, integer=True)
        check("seed", self.seed, -math.inf, integer=True)
        # The couplings reach coupling_scale * 2**53 (1 - U is at least 2**-53).
        check("coupling_scale * 2**53", self.coupling_scale * 2.0**53, strict=False)
        check("base_rate", self.base_rate, strict=False)
        check("temperature", self.temperature)
        check("t_zeeman", self.t_zeeman)
        if self.fixed_couplings is not None:
            check("fixed_couplings", np.asarray(self.fixed_couplings, dtype=float), -math.inf)
            if len(self.fixed_couplings) != self.n_sources:
                raise ValueError("fixed_couplings must hold n_sources values")


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
        one_of("sequence", SEQUENCES, self.sequence)
        _delay_grid(self.delays)
        if not (
            self.delays.shape == self.amplitude.shape == self.std_error.shape
        ):
            raise ValueError("delay, amplitude and std_error lengths differ")
        check("amplitude", self.amplitude, -math.inf)
        check("std_error", self.std_error, strict=False)
        check("n_realizations", self.n_realizations, 1, integer=True)


def _delay_grid(delays: Sequence[float]) -> np.ndarray:
    """The delays as a float array, refused unless 1-d, non-empty, finite,
    >= 0 and strictly increasing."""
    t = np.asarray(delays, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("delays must be a non-empty 1-d sequence")
    if np.any(np.diff(check("delays", t, strict=False)) <= 0):
        raise ValueError("delays must be strictly increasing")
    return t


def _refuse_over(cells: float, what: str, *args) -> None:
    """Refuse cells over ``_MAX_CELLS``, naming them by ``what.format(*args)``."""
    if cells > _MAX_CELLS:
        raise ValueError(f"{what.format(*args)}, over the limit of {_MAX_CELLS:.3g}")


def _stream(seed: int, key: int, counter: int = 0) -> np.random.Generator:
    """Counter-based generator of the (seed, key) stream, from word 4 counter:
    numpy's Philox with the 128-bit key (seed, key), each taken modulo 2**64."""
    return np.random.Generator(np.random.Philox(
        key=(int(seed) & _UINT64_MASK) | (key & _UINT64_MASK) << 64, counter=counter))


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
    check("realization", realization, 0, integer=True)
    if cfg.fixed_couplings is not None:
        return np.asarray(cfg.fixed_couplings, dtype=float)
    return _bath(cfg, realization, realization + 1)[0][0]


def _bath(cfg: BathNoiseConfig, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (one row if pinned) and initial signs of realizations lo ..
    hi - 1, from their geometry words read in one call. A source's word w
    gives its coupling uniform as numpy's Philox double, ``(w >> 11) 2**-53``,
    the coupling's sign from bit 0 and the initial sign from bit 1."""
    n = cfg.n_sources
    counter, skip = divmod(n * lo, 4)
    rng = _stream(cfg.seed, _GEOMETRY, counter)
    words = rng.bit_generator.random_raw(skip + n * (hi - lo))[skip:].reshape(-1, n)
    bits = words.view(np.int64)
    s0 = (bits & 2) - 1
    if cfg.fixed_couplings is not None:
        return np.asarray(cfg.fixed_couplings, dtype=float), s0
    # 1 - U is uniform on (0, 1], avoiding the zero-radius singularity.
    unit = (words >> 11) * 2.0**-53
    return ((bits & 1) * 2 - 1) * (cfg.coupling_scale / (1.0 - unit)), s0


def simulate_hahn_echo(
    cfg: BathNoiseConfig,
    tau_grid: Sequence[float],
    n_realizations: int,
    threads: int = 1,
) -> DecayTrace:
    """Monte Carlo Hahn-echo trace over the bath noise.

    Each realization draws its bath geometry (unless pinned) and one
    telegraph trajectory per source, integrates the two free-evolution
    windows exactly from the switching events, and contributes the mean of
    cos(Phi(tau)) over sign flips of whole source groups at every tau of the
    grid. The trace reports the mean and standard error over realizations.
    """
    return _hahn_echoes(cfg, [effective_rate(cfg)], tau_grid, n_realizations, threads)[0]


def _hahn_echoes(
    cfg: BathNoiseConfig,
    rates: Sequence[float],
    tau_grid: Sequence[float],
    n_realizations: int,
    threads: int,
) -> list[DecayTrace]:
    """Hahn-echo traces of the bath at each switching rate, one per rate.

    Every rate is checked before anything is drawn. No rate exceeds the base
    rate, so each block of realizations is drawn once and filtered at every
    moving rate, and each trace is the one a run at that rate alone gives.
    Blocks run over at most ``threads`` workers (no more than there are
    blocks or cores), one per worker in flight, and are folded in
    realization order (:func:`_fold`): memory does not grow with
    ``n_realizations``, and the worker count never reaches the bytes.
    """
    tau = _delay_grid(tau_grid)
    check("n_realizations", n_realizations, 1, integer=True)
    check("threads", threads, 1, integer=True)
    # Checked in Python floats (which overflow to inf quietly) before numpy
    # sees the Poisson mean; each realization checks its own draw exactly.
    t_end = 2.0 * float(tau[-1])
    drawn = cfg.n_sources * (cfg.base_rate * t_end + 1.0)
    in_window = cfg.n_sources * (max(rates, default=0.0) * t_end + 1.0)
    _refuse_over(drawn, "a realization would draw {:.3g} events", drawn)
    cells = in_window * (tau.size + _SIGN_GROUPS) + _ECHO_ROWS * tau.size
    _refuse_over(cells, "a realization would filter {:.3g} events x {} delays"
                 " ({:.3g} cells with its echo rows)", in_window, tau.size, cells)
    # Static noise refocuses exactly.
    columns = {rate: (np.ones(tau.size), np.zeros(tau.size)) for rate in rates}
    moving = [rate for rate in columns if rate * t_end >= _NEGLIGIBLE_EVENTS]
    if moving:
        size = _block_size(cfg, tau)
        blocks = -(-n_realizations // size)
        workers = min(threads, blocks, os.cpu_count() or 1)

        def block(b: int) -> np.ndarray:
            return _echo_block(cfg, moving, tau, b * size, min(b * size + size, n_realizations), b)

        total, m2 = np.zeros((2, len(moving), tau.size))
        if workers == 1:
            for b in range(blocks):
                _fold(total, m2, block(b), b * size)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # One block per worker in flight: the oldest is taken, the
                # next submitted and then the oldest folded, so at most
                # workers + 1 blocks exist at a time.
                pending = deque(pool.submit(block, b) for b in range(workers))
                for b in range(blocks):
                    echoes = pending.popleft().result()
                    if b + workers < blocks:
                        pending.append(pool.submit(block, b + workers))
                    _fold(total, m2, echoes, b * size)
        # One realization's M2 is exactly 0.
        std_error = np.sqrt(m2 / max(n_realizations - 1, 1)) / math.sqrt(n_realizations)
        columns.update(zip(moving, zip(total / n_realizations, std_error)))
    return [DecayTrace(SEQUENCE_HAHN, tau, *columns[rate], n_realizations, cfg.seed)
            for rate in rates]


def _fold(total: np.ndarray, m2: np.ndarray, echoes: np.ndarray, count: int) -> None:
    """Fold a block's ``(rates, realizations, delays)`` echoes into the
    moments per rate and delay of the ``count`` realizations before it, in
    place. The sum ``total`` adds rows strictly in realization order, as
    numpy's mean over two or more delays does; the block's two-pass M2 about
    its own mean joins ``m2`` by Chan, Golub & LeVeque's pairwise update. The
    echoes are overwritten."""
    m = echoes.shape[1]
    mean = echoes.mean(axis=1)
    deviation = echoes - mean[:, None]
    deviation *= deviation
    block_m2 = deviation.sum(axis=1)
    if count:
        block_m2 += (mean - total / count) ** 2 * (count * m / (count + m))
    m2 += block_m2
    echoes[:, 0] += total
    np.add.accumulate(echoes, axis=1, out=echoes)
    total[:] = echoes[:, -1]


def _block_size(cfg: BathNoiseConfig, tau: np.ndarray) -> int:
    """Realizations per block, set by the config and the delay grid alone: as
    many as expect ``_BLOCK_CELLS`` cells, at least 1. A realization expects
    3 cells per source (its geometry word, Poisson count and signed
    coupling), 1 + delays + 8 per event drawn at the hot-limit rate (its
    uniform and filter row) and its echo rows at one rate."""
    per_event = 1 + tau.size + _SIGN_GROUPS
    cells = cfg.n_sources * (3 + cfg.base_rate * 2.0 * float(tau[-1]) * per_event)
    return max(1, int(_BLOCK_CELLS // (cells + _ECHO_ROWS * tau.size)))


def _echo_block(cfg: BathNoiseConfig, rates: Sequence[float], tau: np.ndarray,
                lo: int, hi: int, block: int) -> np.ndarray:
    """Echoes ``(rates, realizations, delays)`` of realizations lo .. hi - 1,
    block ``block``.

    Its Poisson counts and event uniforms come from the (seed, block) stream,
    one call apiece. The first realization over the limit is refused, by name,
    on its drawn events before the uniforms exist, and on the events inside
    the fastest rate's window with its echo rows before the filter arrays do;
    a block whose echoes at every rate would pass the limit is refused.
    The events are sorted by slot (realization x n + source, from lo) and
    time at the fastest rate; a slower rate keeps a subset of them and
    stretches their times by a positive factor, which keeps their order.
    """
    n, m = cfg.n_sources, hi - lo
    t_end = 2.0 * tau[-1]
    hot, fastest = cfg.base_rate, max(rates)
    # Every rate draws the same events at the base (hot-limit) rate and slows
    # their clock by base / rate, so a quench scan shares its random numbers.
    rng = _stream(cfg.seed, block)
    counts = rng.poisson(hot * t_end, (m, n))
    drawn = counts.sum(axis=1)
    i = int(np.argmax(drawn > _MAX_CELLS))
    _refuse_over(drawn[i], "realization {} drew {} events", lo + i, drawn[i])
    u = rng.random(int(drawn.sum()))
    inside = u < fastest / hot
    slot = np.repeat(np.arange(m * n), counts.ravel())[inside]
    events = np.bincount(slot // n, minlength=m)  # left inside the window
    cells = events * (tau.size + _SIGN_GROUPS) + _ECHO_ROWS * tau.size
    i = int(np.argmax(cells > _MAX_CELLS))
    _refuse_over(cells[i], "realization {} has {} events in its window", lo + i, events[i])
    couplings, s0 = _bath(cfg, lo, hi)
    signed = (couplings * s0).ravel()
    # Sort each slot's events by u, and so by time at every rate (slot is
    # sorted already): complex numbers sort by their real part, then their
    # imaginary part.
    key = np.empty(slot.size, dtype=complex)
    key.real, key.imag = slot, u[inside]
    key.sort()
    u = key.imag
    # The block size counts one rate's echo rows; the block keeps each rate's
    # echoes and the fold's temporary.
    _refuse_over(2 * len(rates) * m * tau.size, "block {} would keep {} rates x {}"
                 " realizations x {} delays", block, len(rates), m, tau.size)
    echoes = np.empty((len(rates), m, tau.size))
    for rate, out in zip(rates, echoes):
        keep = u < rate / hot
        _stacked_echoes(n, m, tau, slot[keep], u[keep] * (hot / rate) * t_end, signed, out)
    return echoes


def _stacked_echoes(
    n: int,
    m: int,
    tau: np.ndarray,
    slot: np.ndarray,
    t: np.ndarray,
    signed: np.ndarray,
    out: np.ndarray,
) -> None:
    """Echoes of m realizations, written to ``out`` (m x delays), from their
    in-window events, sorted by slot and then time.

    Each realization's phases are the ``(8, E) @ (E, delays)`` matmul of its
    E in-window events, as it would get alone: the realizations with E events
    share one stacked matmul whose operands are C-contiguous, so BLAS sums
    each one in the same order.
    """
    # Event k of a source (from 0, in time order) turns its sign s0 into
    # s0 (-1)^(k+1): Phi = sum 2 b s0 (-1)^(k+1) h(tau, t), h = -min(t, (2 tau
    # - t)+). Over sign flips of whole groups, the mean of cos(Phi) is the
    # product of the groups' cosines.
    weight = signed[slot]
    weight *= 2 - 4 * (np.arange(t.size) - np.searchsorted(slot, slot) & 1)
    # Order the realizations by E, and their events to match, so that the
    # realizations with E events are one run of (E,) event rows.
    events = np.diff(np.searchsorted(slot, np.arange(0, (m + 1) * n, n)))
    rows = np.argsort(events, kind="stable")
    size = events[rows]
    start = np.cumsum(size) - size
    order = np.repeat((np.cumsum(events) - events)[rows] - start, size) + np.arange(t.size)
    # Row g of a realization's (8, E) left operand holds the weights of group
    # g's events and zeros elsewhere, whose signs cannot reach cos(Phi).
    g = _SIGN_GROUPS
    at = slot[order] % n * g // n * np.repeat(size, size) + np.arange(t.size)
    at += np.repeat((g - 1) * start, size)
    left = np.zeros(g * t.size)
    left[at] = weight[order]
    t = t[order]
    del weight, order, at
    two_tau = 2.0 * tau
    by_size = np.empty((m, tau.size))
    runs = np.flatnonzero(np.diff(size, prepend=-1)).tolist() + [m]
    for i, j in zip(runs, runs[1:]):
        e, a = int(size[i]), int(start[i])
        b = a + (j - i) * e
        t_e = t[a:b].reshape(j - i, e, 1)
        minus_h = two_tau - t_e
        np.maximum(minus_h, 0.0, out=minus_h)
        np.minimum(t_e, minus_h, out=minus_h)
        phases = left[g * a:g * b].reshape(j - i, g, e) @ minus_h
        np.multiply.reduce(np.cos(phases, out=phases), axis=1, out=by_size[i:j])
    out[rows] = by_size


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
    check("t1", t1)
    check("noise amplitude", noise_amplitude, strict=False)
    check("seed", seed, -math.inf, integer=True)
    t = _delay_grid(delays)
    # T/T1 may overflow to inf (exp gives 0); DecayTrace rejects inf amplitudes.
    with np.errstate(over="ignore"):
        amplitude = 1.0 - 2.0 * np.exp(-t / t1)
        if noise_amplitude > 0:
            amplitude += noise_amplitude * _stream(seed, 0).standard_normal(t.size)
    std_error = np.full_like(amplitude, noise_amplitude + 0.0)  # -0 as 0
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
    return np.linspace(0.0, DEFAULT_TAU_MAX_S, DEFAULT_TAU_POINTS)


def effective_t2_scan(
    cfg: BathNoiseConfig,
    temperatures: Sequence[float],
    n_realizations: int = DEFAULT_REALIZATIONS,
    threads: int = 1,
) -> list[tuple[float, float]]:
    """Fitted echo T2 (seconds) at each temperature of a quench scan.

    Simulates the Hahn echo on :func:`default_tau_grid` at every
    temperature from one draw of each realization: each temperature's trace
    is the one :func:`simulate_hahn_echo` gives there with the same seed
    (equal temperatures therefore give identical results). Every temperature
    is checked before anything is drawn. Each trace is fitted with a single
    exponential ``a exp(-2 tau / T2)``; a fit that fails to converge raises,
    naming the offending temperature.
    """
    model = fitkit.get_model("echo_decay")
    rates = [effective_rate(replace(cfg, temperature=float(t))) for t in temperatures]
    traces = _hahn_echoes(cfg, rates, default_tau_grid(), n_realizations, threads)
    out: list[tuple[float, float]] = []
    for temperature, trace in zip(temperatures, traces):
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
        (trace.delays, trace.amplitude, trace.std_error),
    )


def read_trace_csv(path) -> DecayTrace:
    """Inverse of :func:`write_trace_csv`; metadata comes from the comments.

    A bad cell or metadata value raises :class:`table.TableFormatError`
    naming the file.
    """
    comments, _, rows = table.read(path, (_TRACE_COLUMNS,))
    meta = dict(
        token.partition("=")[::2]
        for comment in comments
        for token in comment.split()
        if "=" in token
    )
    columns = np.array(rows)
    try:
        return DecayTrace(
            sequence=meta.get("sequence", SEQUENCE_HAHN),
            delays=columns[:, 0],
            amplitude=columns[:, 1],
            std_error=columns[:, 2],
            n_realizations=int(meta.get("n_realizations", "1")),
            seed=int(meta.get("seed", "0")),
        )
    except ValueError as exc:
        raise table.TableFormatError(f"{path}: {exc}") from None
