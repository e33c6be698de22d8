"""Telegraph-bath echo simulation: streams, symmetries, and a slow oracle.

The cross-check route integrates the same telegraph process on a fixed
1 ns grid (tests/rtn_oracle.py) with an unrelated generator, so agreement
is statistical, not shared-code.
"""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nvbath import pulse_sim as ps
from nvbath import table
from nvbath.bath_model import flip_flop_factor

import echo_reference
import rtn_exact
import rtn_oracle

# First four couplings of realization 0 of the seed-1 geometry stream (stream
# v4 and v5) with the default 2.0e4 rad/s scale.
COUPLINGS_SEED1 = [
    -43919.27280320355,
    -199023.5882457571,
    -55948.705992441624,
    -23238.598942298984,
]


class TestCouplings:
    def test_frozen_stream(self):
        cfg = ps.BathNoiseConfig(n_sources=4, seed=1)
        got = ps.sample_couplings(cfg)
        np.testing.assert_array_equal(got, COUPLINGS_SEED1)

    def test_repeatable_per_realization(self):
        cfg = ps.BathNoiseConfig(n_sources=16, seed=9)
        a = ps.sample_couplings(cfg, realization=3)
        b = ps.sample_couplings(cfg, realization=3)
        c = ps.sample_couplings(cfg, realization=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_magnitude_floor(self):
        # r**3 <= 1 inside the unit ball, so |b| >= coupling_scale
        b = ps.sample_couplings(ps.BathNoiseConfig(n_sources=5000, seed=2))
        assert np.all(np.abs(b) >= 2.0e4)

    def test_signs_balanced(self):
        b = ps.sample_couplings(ps.BathNoiseConfig(n_sources=100000, seed=3))
        assert abs(np.mean(np.sign(b))) < 0.01

    def test_initial_signs_balanced_and_apart_from_coupling_signs(self):
        # Two bits of one word: read from the same bit, s0 would equal the
        # coupling's sign (or its negative) everywhere. Over 1e5 sources a
        # mean of independent +-1 values has standard error 0.0032.
        couplings, s0 = ps._bath(ps.BathNoiseConfig(n_sources=1000, seed=4), 0, 100)
        assert s0.shape == couplings.shape == (100, 1000)
        assert set(np.unique(s0)) == {-1, 1}
        assert abs(np.mean(s0)) < 0.015
        assert abs(np.mean(s0 * np.sign(couplings))) < 0.015

    def test_zero_scale_gives_zero_couplings(self):
        cfg = ps.BathNoiseConfig(n_sources=8, coupling_scale=0.0, seed=1)
        assert np.all(ps.sample_couplings(cfg) == 0.0)

    def test_fixed_couplings_passthrough(self):
        cfg = ps.BathNoiseConfig(
            n_sources=2, fixed_couplings=(1e4, -3e4)
        )
        np.testing.assert_array_equal(ps.sample_couplings(cfg), [1e4, -3e4])

    @pytest.mark.parametrize("realization", [-4, 1.5])
    def test_rejects_a_realization_that_is_not_a_non_negative_integer(self, realization):
        drawn = ps.BathNoiseConfig(n_sources=2)
        pinned = replace(drawn, fixed_couplings=(1e4, -3e4))
        for cfg in (drawn, pinned):
            with pytest.raises(ValueError, match="realization"):
                ps.sample_couplings(cfg, realization)


class TestStream:
    SEEDS = [0, 1, -1, -(2**70) + 5, 2**64, 2**64 + 7, 3 * 2**66 - 1]

    @staticmethod
    def _draws(gen, odd):
        return [
            gen.integers(0, 2**32, odd, dtype=np.uint32),
            gen.random(odd),
            gen.integers(0, 2, odd),
            gen.poisson(2.5, odd),
            gen.bit_generator.random_raw(odd),
        ]

    def test_stream_at_a_counter_is_an_advanced_fresh_stream(self):
        for seed in self.SEEDS:
            for key in (0, 5, -3, 2**64 + 1, ps._GEOMETRY):
                # Counter c starts at word 4 c; 2**64 + 3 carries into the
                # counter's second word.
                for counter in (0, 1, 7, 2**64 + 3):
                    for odd in (1, 3, 101):
                        rng = ps._stream(seed, key, counter)
                        fresh = echo_reference.stream(seed, key)
                        fresh.bit_generator.advance(counter)
                        for a, b in zip(self._draws(rng, odd), self._draws(fresh, odd)):
                            np.testing.assert_array_equal(a, b)

    def test_advance_skips_four_words_per_counter(self):
        # The counter above is checked against advance(); this ties advance
        # to the words of a fresh stream.
        for counter in (1, 7):
            fresh = echo_reference.stream(3, 9)
            fresh.bit_generator.advance(counter)
            drawn = echo_reference.stream(3, 9).bit_generator.random_raw(4 * counter + 9)
            np.testing.assert_array_equal(fresh.bit_generator.random_raw(9), drawn[-9:])

    def test_new_stream_matches_fresh_generator(self):
        for seed in self.SEEDS:
            np.testing.assert_array_equal(
                ps._stream(seed, 9).random(7), echo_reference.stream(seed, 9).random(7)
            )

    def test_inversion_noise_uses_the_stream(self):
        delays = np.linspace(0.0, 8e-3, 9)
        trace = ps.simulate_inversion_recovery(1.2e-3, delays, 0.05, seed=-2)
        noise = 0.05 * echo_reference.stream(-2, 0).standard_normal(9)
        expected = 1.0 - 2.0 * np.exp(-delays / 1.2e-3) + noise
        np.testing.assert_array_equal(trace.amplitude, expected)

    @staticmethod
    def _kernel_baths(monkeypatch, cfg, tau, n):
        """The couplings and initial signs the kernel used, one row each per
        realization, and the block sizes it ran."""
        used, sizes = [], []
        bath = ps._bath
        monkeypatch.setattr(
            ps, "_bath", lambda cfg, lo, hi, *args: sizes.append(hi - lo)
            or used.append(bath(cfg, lo, hi, *args)) or used[-1]
        )
        ps.simulate_hahn_echo(cfg, tau, n, threads=1)
        monkeypatch.undo()
        shape = (n, cfg.n_sources)
        couplings = np.concatenate([np.broadcast_to(c, (len(s), cfg.n_sources))
                                    for c, s in used])
        s0 = np.concatenate([s for _, s in used])
        assert couplings.shape == s0.shape == shape
        return couplings, s0, sizes

    @pytest.mark.parametrize("n_sources", [1, 7, 300])
    def test_sample_couplings_are_the_kernel_couplings(self, monkeypatch, n_sources):
        cfg = ps.BathNoiseConfig(n_sources=n_sources, seed=-5, temperature=20.0)
        used, _, _ = self._kernel_baths(monkeypatch, cfg, np.linspace(0.0, 25e-6, 5), 70)
        for r in range(70):
            np.testing.assert_array_equal(ps.sample_couplings(cfg, r), used[r])

    @pytest.mark.parametrize(
        "bath",
        [
            dict(n_sources=7),
            dict(n_sources=7, fixed_couplings=(3e4, -5e4, 1.2e5, 7e3, -2e4, 9e4, -1e5)),
        ],
        ids=["drawn", "pinned"],
    )
    def test_couplings_do_not_depend_on_the_block_size(self, monkeypatch, bath):
        # A base rate of 1e6 / s draws 50 events per source in the window,
        # so a block holds 105 realizations instead of 4113: realizations 104
        # and 105 sit in one block at the default and straddle two here, and
        # block 1's geometry read starts inside a Philox counter (7 x 105 is
        # 3 modulo 4).
        tau = np.linspace(0.0, 25e-6, 5)
        default = ps.BathNoiseConfig(seed=3, **bath)
        fast = replace(default, base_rate=1e6)
        assert ps._block_size(default, tau) == 4113
        assert ps._block_size(fast, tau) == 105
        n = 230
        couplings, s0, sizes = self._kernel_baths(monkeypatch, default, tau, n)
        assert sizes == [230]
        fast_couplings, fast_s0, sizes = self._kernel_baths(monkeypatch, fast, tau, n)
        assert sizes == [105, 105, 20]
        np.testing.assert_array_equal(fast_couplings, couplings)
        np.testing.assert_array_equal(fast_s0, s0)
        for r in (0, 104, 105, 106, 209, 210, 229):
            np.testing.assert_array_equal(ps.sample_couplings(default, r), couplings[r])
            np.testing.assert_array_equal(ps.sample_couplings(fast, r), couplings[r])
        if default.fixed_couplings is None:
            assert len({tuple(row) for row in couplings}) == n


class TestEffectiveRate:
    def test_matches_flip_flop_scaling(self):
        cfg = ps.BathNoiseConfig(temperature=7.0, t_zeeman=11.518, base_rate=3e4)
        expected = 3e4 * flip_flop_factor(7.0, 11.518) / 0.25
        assert ps.effective_rate(cfg) == expected

    def test_hot_limit_is_base_rate(self):
        cfg = ps.BathNoiseConfig(temperature=1e12, base_rate=1e5)
        assert ps.effective_rate(cfg) == pytest.approx(1e5, rel=1e-10)

    def test_never_above_base_rate(self):
        # The unbounded flip-flop factor rounds one ulp over 1/4 here.
        cfg = ps.BathNoiseConfig(temperature=797406919.621389)
        assert ps.effective_rate(cfg) <= cfg.base_rate

    def test_cold_bath_rate_underflows_to_zero(self):
        cfg = ps.BathNoiseConfig(temperature=0.01, t_zeeman=11.518)
        assert ps.effective_rate(cfg) == 0.0


class TestHahnEcho:
    def test_bit_identical_rerun(self):
        cfg = ps.BathNoiseConfig(n_sources=20, seed=11)
        tau = np.linspace(0.0, 20e-6, 9)
        a = ps.simulate_hahn_echo(cfg, tau, 80)
        b = ps.simulate_hahn_echo(cfg, tau, 80)
        np.testing.assert_array_equal(a.amplitude, b.amplitude)
        np.testing.assert_array_equal(a.std_error, b.std_error)
        # numpy integers are integers too.
        c = ps.simulate_hahn_echo(replace(cfg, seed=np.int64(11), n_sources=np.int32(20)),
                                  tau, np.int64(80), np.int8(1))
        np.testing.assert_array_equal(a.amplitude, c.amplitude)
        np.testing.assert_array_equal(a.std_error, c.std_error)

    def test_bit_identical_across_threads(self):
        # 40 events per source in the window: 101 realizations are blocks of
        # 36, 36 and 29.
        cfg = ps.BathNoiseConfig(n_sources=20, base_rate=1e6, seed=11)
        tau = np.linspace(0.0, 20e-6, 9)
        assert ps._block_size(cfg, tau) == 36
        serial = ps.simulate_hahn_echo(cfg, tau, 101, threads=1)
        pooled = ps.simulate_hahn_echo(cfg, tau, 101, threads=4)
        np.testing.assert_array_equal(serial.amplitude, pooled.amplitude)
        np.testing.assert_array_equal(serial.std_error, pooled.std_error)

    def test_thread_pool_is_bounded_by_blocks_and_cores(self, monkeypatch):
        # Records the pool size asked for and runs a real pool of at most 2.
        asked = []
        pool = ps.ThreadPoolExecutor
        monkeypatch.setattr(
            ps, "ThreadPoolExecutor",
            lambda max_workers: asked.append(max_workers) or pool(min(max_workers, 2)),
        )
        cfg = ps.BathNoiseConfig(n_sources=20, base_rate=1e6, seed=11)
        tau = np.linspace(0.0, 20e-6, 9)
        serial = ps.simulate_hahn_echo(cfg, tau, 140)
        for cores, workers in ((64, 4), (3, 3), (None, 1), (1, 1)):
            monkeypatch.setattr(ps.os, "cpu_count", lambda: cores)
            asked.clear()
            # 140 realizations are 4 blocks (36, 36, 36 and 32).
            pooled = ps.simulate_hahn_echo(cfg, tau, 140, threads=10**6)
            assert asked == ([workers] if workers > 1 else [])
            np.testing.assert_array_equal(serial.amplitude, pooled.amplitude)
            np.testing.assert_array_equal(serial.std_error, pooled.std_error)

    def test_zero_delay_refocuses_exactly(self):
        cfg = ps.BathNoiseConfig(n_sources=10, seed=5)
        trace = ps.simulate_hahn_echo(cfg, np.linspace(0.0, 10e-6, 5), 60)
        assert trace.amplitude[0] == 1.0
        assert trace.std_error[0] == 0.0

    def test_static_bath_refocuses(self):
        # zero switching rate: the echo removes the whole static shift
        cfg = ps.BathNoiseConfig(n_sources=30, base_rate=0.0, seed=6)
        trace = ps.simulate_hahn_echo(cfg, np.linspace(0.0, 25e-6, 7), 40)
        np.testing.assert_array_equal(trace.amplitude, np.ones(7))

    def test_frozen_bath_refocuses(self):
        # far below the Zeeman temperature the flip-flop factor underflows
        cfg = ps.BathNoiseConfig(n_sources=30, temperature=0.01, seed=6)
        trace = ps.simulate_hahn_echo(cfg, np.linspace(0.0, 25e-6, 7), 40)
        np.testing.assert_array_equal(trace.amplitude, np.ones(7))

    def test_static_bath_allocates_no_echo_array(self):
        # 2e6 realizations x 2 delays of echo values would be 32 MB.
        cfg = ps.BathNoiseConfig(temperature=0.05)
        tracemalloc.start()
        try:
            trace = ps.simulate_hahn_echo(cfg, [0.0, 25e-6], 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        np.testing.assert_array_equal(trace.amplitude, [1.0, 1.0])
        np.testing.assert_array_equal(trace.std_error, [0.0, 0.0])
        assert trace.n_realizations == 2_000_000

    def test_decoupled_bath_is_flat(self):
        cfg = ps.BathNoiseConfig(n_sources=30, coupling_scale=0.0, seed=6)
        trace = ps.simulate_hahn_echo(cfg, np.linspace(0.0, 25e-6, 7), 40)
        np.testing.assert_array_equal(trace.amplitude, np.ones(7))

    def test_global_sign_flip_invariant(self):
        # cos is even in the accumulated phase
        tau = np.linspace(0.0, 20e-6, 9)
        kw = dict(
            n_sources=3, base_rate=5e4, seed=7
        )
        a = ps.simulate_hahn_echo(
            ps.BathNoiseConfig(fixed_couplings=(3e4, -5e4, 1.2e5), **kw), tau, 50
        )
        b = ps.simulate_hahn_echo(
            ps.BathNoiseConfig(fixed_couplings=(-3e4, 5e4, -1.2e5), **kw), tau, 50
        )
        np.testing.assert_array_equal(a.amplitude, b.amplitude)

    def test_std_error_scales_with_realizations(self):
        cfg = ps.BathNoiseConfig()
        tau = np.linspace(0.0, 25e-6, 11)
        small = ps.simulate_hahn_echo(cfg, tau, 400)
        big = ps.simulate_hahn_echo(cfg, tau, 1600)
        ratio = np.mean(big.std_error[1:] / small.std_error[1:])
        assert ratio == pytest.approx(0.5, abs=0.075)

    def test_input_validation(self):
        cfg = ps.BathNoiseConfig(n_sources=2)
        with pytest.raises(ValueError):
            ps.simulate_hahn_echo(cfg, [], 10)
        with pytest.raises(ValueError):
            ps.simulate_hahn_echo(cfg, [0.0, 2e-6, 1e-6], 10)
        with pytest.raises(ValueError):
            ps.simulate_hahn_echo(cfg, [-1e-6, 1e-6], 10)
        with pytest.raises(ValueError):
            ps.simulate_hahn_echo(cfg, [0.0, 1e-6], 0)
        with pytest.raises(ValueError):
            ps.simulate_hahn_echo(cfg, [0.0, 1e-6], 10, threads=0)
        with pytest.raises(ValueError, match="n_realizations must be an integer"):
            ps.simulate_hahn_echo(cfg, [0.0, 1e-6], 2.5)
        with pytest.raises(ValueError, match="threads must be an integer"):
            ps.simulate_hahn_echo(cfg, [0.0, 1e-6], 10, threads=1.5)
        with pytest.raises(ValueError):
            ps.simulate_hahn_echo(cfg, [0.0, math.nan], 10)
        with pytest.raises(ValueError):
            ps.simulate_hahn_echo(cfg, [0.0, math.inf], 10)
        # Refused before numpy sees a Poisson mean of 2e304 events per source.
        with pytest.raises(ValueError, match="would draw"):
            ps.simulate_hahn_echo(cfg, [0.0, 1e300], 10)
        # Refused before a Hahn filter over 1000 sources x 5e6 delays.
        wide = ps.BathNoiseConfig(n_sources=1000)
        with pytest.raises(ValueError, match="would filter"):
            ps.simulate_hahn_echo(wide, np.linspace(0.0, 25e-6, 5_000_000), 1)

    def test_each_draw_is_checked_against_the_limit(self, monkeypatch):
        # With the limit lowered, the expected events plus one per source sit
        # exactly at it (with the echo rows in the window), so the pre-flight
        # passes and each realization's own draw is over it about half the time.
        tau = np.linspace(0.0, 25e-6, 10)
        limit = (tau.size + ps._SIGN_GROUPS) * 100 + ps._ECHO_ROWS * tau.size
        monkeypatch.setattr(ps, "_MAX_CELLS", limit)
        # Hot: about 99 events inside the window.
        hot = ps.BathNoiseConfig(n_sources=1, base_rate=99 / 50e-6, temperature=1e9)
        with pytest.raises(ValueError, match="in its window"):
            ps.simulate_hahn_echo(hot, tau, 200)
        # Cold: about limit - 1 events drawn at the hot-limit rate, almost
        # none of them inside the window.
        cold = ps.BathNoiseConfig(
            n_sources=1, base_rate=(limit - 1) / 50e-6, temperature=1.0
        )
        with pytest.raises(ValueError, match="drew"):
            ps.simulate_hahn_echo(cold, tau, 200)

    def test_matches_fixed_step_oracle(self):
        # Single telegraph source against the 1 ns fixed-step integrator,
        # independent generator and seed. Bound is 4 combined standard
        # errors per point; the acceptance suite runs the tighter version.
        cfg = ps.BathNoiseConfig(
            n_sources=1,
            fixed_couplings=(1e5,),
            base_rate=1e5,
            temperature=1e12,
            t_zeeman=11.518,
            seed=1,
        )
        tau = np.linspace(0.0, 10e-6, 6)
        trace = ps.simulate_hahn_echo(cfg, tau, 2000)
        mean, err = rtn_oracle.hahn_echo_fixed_step(
            1e5, ps.effective_rate(cfg), tau, 2000, seed=2
        )
        assert trace.amplitude[0] == mean[0] == 1.0
        combined = np.hypot(trace.std_error[1:], err[1:])
        z = (trace.amplitude[1:] - mean[1:]) / combined
        assert np.max(np.abs(z)) < 4.0


class TestBlockKernel:
    """The block kernel against the per-realization kernel of
    tests/echo_reference.py: same draws, same bytes."""

    # 75 realizations: one block for most baths; 300 sources on 200 delays
    # run five blocks of 14 and a short one of 5.
    N = 75
    TEMPERATURES = [1e9, 300.0, 20.0, 8.0, 4.0, 2.0, 1.0, 0.115]
    BATHS = [
        dict(n_sources=1),
        dict(n_sources=7),
        dict(n_sources=300),
        dict(n_sources=7, fixed_couplings=(3e4, -5e4, 1.2e5, 7e3, -2e4, 9e4, -1e5)),
    ]

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_bit_identical_to_per_realization_kernel(self, temperature):
        in_window = []
        for bath in self.BATHS:
            cfg = ps.BathNoiseConfig(temperature=temperature, seed=4, **bath)
            for points in (5, 200):
                tau = np.linspace(0.0, 25e-6, points)
                amplitude, std_error, _, events = echo_reference.hahn_echo(
                    cfg, ps.effective_rate(cfg), tau, self.N
                )
                in_window.append(events)
                for threads in (1, 2, 5):
                    trace = ps.simulate_hahn_echo(cfg, tau, self.N, threads)
                    assert np.array_equal(trace.amplitude, amplitude)
                    assert np.array_equal(trace.std_error, std_error)
        if temperature >= 20.0:
            # BLAS may sum short and long inner dimensions differently.
            in_window = np.concatenate(in_window)
            assert np.any(in_window < 16) and np.any(in_window > 16)

    def test_block_cell_budget_sets_the_block_size(self, monkeypatch):
        cfg = ps.BathNoiseConfig(n_sources=30, seed=8)
        tau = np.linspace(0.0, 25e-6, 9)
        rate = ps.effective_rate(cfg)
        whole = ps.simulate_hahn_echo(cfg, tau, 100)
        # The block size is a labelled part of the stream: a budget of one
        # cell runs every realization as its own block, with the bytes of the
        # reference at that block size.
        monkeypatch.setattr(ps, "_BLOCK_CELLS", 1)
        assert ps._block_size(cfg, tau) == 1
        amplitude, std_error, _, _ = echo_reference.hahn_echo(cfg, rate, tau, 100, size=1)
        for threads in (1, 2):
            alone = ps.simulate_hahn_echo(cfg, tau, 100, threads)
            assert np.array_equal(alone.amplitude, amplitude)
            assert np.array_equal(alone.std_error, std_error)
        assert not np.array_equal(whole.amplitude, alone.amplitude)

    # A base rate of 1e5 / s: 5 events per source drawn at the hot limit, and
    # 20 realizations of 100 sources per block on the default grid.
    FAST = ps.BathNoiseConfig(base_rate=1e5, seed=9)

    def test_block_size_does_not_depend_on_threads(self, monkeypatch):
        tau = ps.default_tau_grid()
        assert ps._block_size(self.FAST, tau) == 20
        runs = {}
        echo_block = ps._echo_block
        for threads in (1, 2, 5):
            blocks = []
            monkeypatch.setattr(
                ps, "_echo_block", lambda *args: blocks.append(args[3:]) or echo_block(*args)
            )
            runs[threads] = ps.simulate_hahn_echo(self.FAST, tau, self.N, threads), sorted(blocks)
        expected = [(lo, min(lo + 20, self.N), lo // 20) for lo in range(0, self.N, 20)]
        for trace, blocks in runs.values():
            assert blocks == expected
            assert np.array_equal(trace.amplitude, runs[1][0].amplitude)
            assert np.array_equal(trace.std_error, runs[1][0].std_error)

    def test_block_draw_stays_under_the_cell_bound(self, monkeypatch):
        # Each block expects at most _BLOCK_CELLS cells: per realization 3 per
        # source and 11 per delay, and 1 + delays + 8 per drawn event. Its
        # draws may exceed that only by their Poisson spread (sigma about 1 %
        # of a block here).
        tau = ps.default_tau_grid()
        sizes = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def random(self, size):
                sizes.append(size)
                return self.rng.random(size)

        stream = ps._stream
        monkeypatch.setattr(ps, "_stream", lambda *args: Counting(stream(*args)))
        ps.simulate_hahn_echo(self.FAST, tau, 200)
        assert len(sizes) == 10
        per_realization = 3 * self.FAST.n_sources + ps._ECHO_ROWS * tau.size
        cells = 20 * per_realization + np.array(sizes) * (1 + tau.size + ps._SIGN_GROUPS)
        assert np.all(cells <= 1.05 * ps._BLOCK_CELLS)
        assert np.all(cells > 0.9 * ps._BLOCK_CELLS)

    # 75 realizations in blocks of 6 for 301 sources at 5 events each (the
    # last of 3; odd blocks start their geometry reads inside a Philox
    # counter, 301 x 6 being 2 modulo 4), and of 29 (the last of 17) for a
    # pinned bath at 50 events per source.
    @pytest.mark.parametrize(
        "bath",
        [dict(n_sources=301, base_rate=1e5, seed=9), dict(base_rate=1e6, seed=9, **BATHS[3])],
        ids=["drawn", "pinned"],
    )
    def test_blocks_are_the_thread_tasks(self, monkeypatch, bath):
        cfg = ps.BathNoiseConfig(**bath)
        tau = ps.default_tau_grid()
        # A scan with a static temperature (0.11518 K) and a repeated one.
        rates = [ps.effective_rate(replace(cfg, temperature=t))
                 for t in TestTemperatureScan.SCAN]
        size = ps._block_size(cfg, tau)
        blocks = [(lo, min(lo + size, 75), lo // size) for lo in range(0, 75, size)]
        assert len(blocks) == (13 if cfg.fixed_couplings is None else 3)

        def run(threads):
            tasks = []
            echo_block = ps._echo_block
            monkeypatch.setattr(
                ps, "_echo_block", lambda *args: tasks.append(args[3:]) or echo_block(*args))
            traces = [ps.simulate_hahn_echo(cfg, tau, 75, threads),
                      *ps._hahn_echoes(cfg, rates, tau, 75, threads)]
            monkeypatch.setattr(ps, "_echo_block", echo_block)
            return traces, tasks

        # One thread runs each call's blocks in order; more run each once.
        serial, tasks = run(1)
        assert tasks == blocks * 2
        for threads in (2, 5):
            traces, tasks = run(threads)
            assert sorted(tasks) == sorted(blocks * 2)
            assert len(traces) == 1 + len(rates)
            for trace, expected in zip(traces, serial):
                assert np.array_equal(trace.amplitude, expected.amplitude)
                assert np.array_equal(trace.std_error, expected.std_error)

    def test_each_block_is_reduced_once_per_rate(self, monkeypatch):
        # One reduction per moving rate and block: the default scan's 1000
        # realizations are six blocks of 155 and one of 70 at 5 moving
        # rates, and 2000 at 300 K twelve blocks of 155 and one of 140.
        reduced = []
        stacked = ps._stacked_echoes
        monkeypatch.setattr(
            ps, "_stacked_echoes", lambda n, m, *args: reduced.append(m) or stacked(n, m, *args)
        )
        cfg = ps.BathNoiseConfig(seed=11)
        ps.effective_t2_scan(cfg, (1e9, 20.0, 8.0, 4.0, 2.0, 0.01 * cfg.t_zeeman), 1000)
        assert reduced == [155] * 5 * 6 + [70] * 5
        reduced.clear()
        ps.simulate_hahn_echo(cfg, ps.default_tau_grid(), 2000)
        assert reduced == [155] * 12 + [140]

    CFG = ps.BathNoiseConfig()
    # A block expects at most _BLOCK_CELLS cells of 8 bytes, plus 5 % Poisson
    # headroom, and a run holds nothing per realization. Each worker has one
    # block in work; a finished block keeps only its echoes until folded.
    MEMORY_BOUND = 1.05 * 8 * ps._BLOCK_CELLS

    def _echo_and_scan(self):
        """The rate of CFG, and the rates of the bench's quench scan, whose
        last temperature is static."""
        temperatures = (1e9, 20.0, 8.0, 4.0, 2.0, 0.01 * self.CFG.t_zeeman)
        return [ps.effective_rate(self.CFG)], [
            ps.effective_rate(replace(self.CFG, temperature=t)) for t in temperatures]

    def test_block_memory_does_not_grow_with_realizations(self):
        tau = ps.default_tau_grid()
        echo, scan = self._echo_and_scan()
        for threads in (1, 2):
            for n, runs in ((2000, (echo, scan)), (8000, (echo, scan)), (32_000, (echo,))):
                for rates in runs:
                    tracemalloc.start()
                    try:
                        traces = ps._hahn_echoes(self.CFG, rates, tau, n, threads)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak < threads * self.MEMORY_BOUND
                    assert [trace.n_realizations for trace in traces] == [n] * len(rates)

    def test_cold_long_grid_memory_is_bounded_by_the_blocks(self):
        # At 0.5 K almost no event falls in the window, so each realization's
        # memory is its echo rows: 8 rows of phases, their product, the kept
        # echo and the fold's temporary, 11 x 20 000 cells. The block size
        # counts them with the events drawn at the base rate, so blocks hold
        # one realization; with more threads one block per worker is in
        # flight beside the one folded. 64 B per delay is left for the grid
        # and the traces.
        cfg = ps.BathNoiseConfig(temperature=0.5)
        tau = np.linspace(0.0, 25e-6, 20_000)
        assert ps._block_size(cfg, tau) == 1
        traces = []
        for threads, n in ((1, 40), (1, 160), (2, 40)):
            tracemalloc.start()
            try:
                trace = ps.simulate_hahn_echo(cfg, tau, n, threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            workers = 1 if threads == 1 else threads + 1
            assert peak < workers * self.MEMORY_BOUND + 64 * tau.size
            assert trace.n_realizations == n
            traces.append(trace)
        assert np.array_equal(traces[0].amplitude, traces[2].amplitude)
        assert np.array_equal(traces[0].std_error, traces[2].std_error)

    def test_block_over_the_limit_is_refused(self):
        # One source at a slow base rate: a realization's 11 echo rows on
        # 1.5e6 delays are 1.65e7 cells, over the limit although its filter
        # holds about 1.5e6, so its one-realization block is refused before
        # anything is drawn. On 100 000 delays it runs (see test_cli).
        cfg = ps.BathNoiseConfig(n_sources=1, base_rate=100.0)
        assert ps._block_size(cfg, np.linspace(0.0, 25e-6, 100_000)) == 1
        with pytest.raises(ValueError, match="would filter"):
            ps.simulate_hahn_echo(cfg, np.linspace(0.0, 25e-6, 1_500_000), 1)

    def test_nothing_is_allocated_by_the_realization_count(self, monkeypatch):
        # 10**12 realizations, of one rate and of the scan, stopped at the
        # third block: the run allocates nothing by the realization count.
        class Stop(Exception):
            pass

        calls = []
        echo_block = ps._echo_block

        def third_stops(*args):
            calls.append(args[3:5])
            if len(calls) == 3:
                raise Stop
            return echo_block(*args)

        monkeypatch.setattr(ps, "_echo_block", third_stops)
        for threads in (1, 2):
            for rates in self._echo_and_scan():
                calls.clear()
                tracemalloc.start()
                try:
                    with pytest.raises(Stop):
                        ps._hahn_echoes(self.CFG, rates, ps.default_tau_grid(), 10**12, threads)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < threads * self.MEMORY_BOUND
                assert 3 <= len(calls) <= 2 + threads

    # Blocks of 155 at 300 K and 4 K (one of 155 and one of 145) and of 20
    # for FAST (15 blocks): the bound, 1e-12 relative, was fixed before the
    # first run.
    @pytest.mark.parametrize(
        "bath", [dict(temperature=300.0), dict(temperature=4.0), dict(base_rate=1e5)],
        ids=["300K", "4K", "fast"],
    )
    def test_std_error_is_the_two_pass_one(self, bath):
        cfg = ps.BathNoiseConfig(seed=12, **bath)
        tau = ps.default_tau_grid()
        rate = ps.effective_rate(cfg)
        n = 300
        rows = np.array([echo_reference.realization(cfg, rate, tau, r, n)[0]
                         for r in range(n)])
        trace = ps.simulate_hahn_echo(cfg, tau, n)
        assert np.array_equal(trace.amplitude, rows.mean(axis=0))
        two_pass = rows.std(axis=0, ddof=1) / math.sqrt(n)
        np.testing.assert_allclose(trace.std_error, two_pass, rtol=1e-12, atol=0)
        assert trace.std_error[0] == 0.0 and np.all(trace.std_error[1:] > 0)

    def test_one_delay_grid_keeps_the_bytes(self):
        # With one delay, numpy's sum over a column is pairwise, and its bytes
        # would follow the block bounds; the running sum adds rows in order.
        # 150 realizations in blocks of 98 and 52.
        tau = np.array([25e-6])
        assert ps._block_size(self.FAST, tau) == 98
        amplitude, std_error, _, _ = echo_reference.hahn_echo(
            self.FAST, ps.effective_rate(self.FAST), tau, 150)
        for threads in (1, 2, 5):
            trace = ps.simulate_hahn_echo(self.FAST, tau, 150, threads)
            assert np.array_equal(trace.amplitude, amplitude)
            assert np.array_equal(trace.std_error, std_error)


class TestExactReference:
    """The simulator against the exact ensemble echo of tests/rtn_exact.py.

    The reference has no sampling error, so each bound is 4 of the
    simulation's standard errors at every delay, as in
    test_matches_fixed_step_oracle.
    """

    TAU = np.linspace(1.25e-6, 25e-6, 20)

    @staticmethod
    def _max_z(cfg, exact, n_realizations=4000):
        trace = ps.simulate_hahn_echo(cfg, TestExactReference.TAU, n_realizations)
        assert np.all(trace.std_error > 0)
        return np.max(np.abs(trace.amplitude - exact) / trace.std_error)

    def test_closed_form_is_the_transfer_matrix_product(self):
        rng = np.random.default_rng(0)
        for b, rate, tau in rng.uniform((-3e5, 0.0, 0.0), (3e5, 2e5, 5e-5), (50, 3)):
            assert rtn_exact.echo_one_source(b, rate, tau) == pytest.approx(
                rtn_exact.transfer_matrix_echo(b, rate, tau), abs=1e-13
            )

    def test_one_pinned_source(self):
        cfg = ps.BathNoiseConfig(
            n_sources=1, fixed_couplings=(1e5,), base_rate=1e5, temperature=1e12
        )
        exact = rtn_exact.pinned_echo([1e5], ps.effective_rate(cfg), self.TAU)
        assert self._max_z(cfg, exact) < 4.0

    @pytest.mark.parametrize("temperature", [300.0, 4.0])
    def test_three_pinned_sources(self, temperature):
        couplings = (3e4, -5e4, 1.2e5)
        cfg = ps.BathNoiseConfig(
            n_sources=3,
            fixed_couplings=couplings,
            base_rate=5e4,
            temperature=temperature,
        )
        exact = rtn_exact.pinned_echo(couplings, ps.effective_rate(cfg), self.TAU)
        assert self._max_z(cfg, exact) < 4.0

    @pytest.mark.parametrize("temperature", [300.0, 20.0, 4.0])
    def test_default_bath(self, temperature):
        cfg = ps.BathNoiseConfig(temperature=temperature)
        exact = rtn_exact.resampled_echo(
            cfg.coupling_scale, ps.effective_rate(cfg), self.TAU, cfg.n_sources
        )
        assert self._max_z(cfg, exact) < 4.0


class TestOracle:
    def test_flip_identity_matches_cumulative_sum(self):
        # The oracle's integer identity and the direct left-Riemann sum of
        # s(t) = s0 (-1)^(flips before the step) agree exactly on shared flips.
        rng = np.random.default_rng(4)
        n_steps = 1000
        s0 = rng.integers(0, 2, (50, 1)) * 2 - 1
        flips = rng.random((50, n_steps)) < 0.02
        state = s0 * np.where(np.cumsum(flips, axis=1) % 2 == 0, 1, -1)
        state = np.concatenate([s0, state[:, :-1]], axis=1)
        direct = np.concatenate(
            [np.zeros((50, 1)), np.cumsum(state, axis=1, dtype=np.float64)], axis=1
        )
        width = int(flips.sum(axis=1).max())
        positions = np.full((50, width), n_steps)
        for row, flipped in enumerate(flips):
            hits = np.flatnonzero(flipped)
            positions[row, : hits.size] = hits
        j = np.arange(n_steps + 1)
        via_identity = rtn_oracle.running_sums(s0, positions, j)
        np.testing.assert_array_equal(via_identity.astype(np.float64), direct)


class TestInversionRecovery:
    def test_closed_form_points(self):
        t1 = 1.2e-3
        delays = np.array([0.0, t1 * math.log(2.0), 20.0 * t1])
        trace = ps.simulate_inversion_recovery(t1, delays)
        assert trace.amplitude[0] == -1.0
        assert trace.amplitude[1] == pytest.approx(0.0, abs=1e-12)
        assert trace.amplitude[2] == pytest.approx(1.0, abs=1e-8)
        assert np.all(trace.std_error == 0.0)
        # Noise -0 is no noise: its column reads 0, not -0.
        quiet = ps.simulate_inversion_recovery(t1, delays, noise_amplitude=-0.0)
        assert not np.any(np.signbit(quiet.std_error))

    def test_noise_is_seeded(self):
        delays = np.linspace(0.0, 8e-3, 9)
        a = ps.simulate_inversion_recovery(1.2e-3, delays, 0.05, seed=4)
        b = ps.simulate_inversion_recovery(1.2e-3, delays, 0.05, seed=4)
        c = ps.simulate_inversion_recovery(1.2e-3, delays, 0.05, seed=5)
        np.testing.assert_array_equal(a.amplitude, b.amplitude)
        assert not np.array_equal(a.amplitude, c.amplitude)
        assert np.all(a.std_error == 0.05)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="t1"):
            ps.simulate_inversion_recovery(0.0, [0.0, 1e-3])
        with pytest.raises(ValueError):
            ps.simulate_inversion_recovery(1e-3, [0.0, 1e-3], noise_amplitude=-0.1)
        with pytest.raises(ValueError):
            ps.simulate_inversion_recovery(1e-3, [1e-3, 1e-3])
        with pytest.raises(ValueError, match="t1"):
            ps.simulate_inversion_recovery(math.nan, [0.0, 1e-3])
        with pytest.raises(ValueError):
            ps.simulate_inversion_recovery(1e-3, [0.0, 1e-3], noise_amplitude=math.nan)
        with pytest.raises(ValueError):
            ps.simulate_inversion_recovery(1e-3, [0.0, math.inf])
        # A float seed would be recorded as given but draw from int(seed).
        for seed in (1.7, 2.0, "3"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ps.simulate_inversion_recovery(1e-3, [0.0, 1e-3], 0.05, seed=seed)
        assert ps.simulate_inversion_recovery(1e-3, [0.0, 1e-3], 0.05, np.int64(-2)).seed == -2


class TestTemperatureScan:
    # 70 realizations: one block (TestBlockKernel runs a scan over several).
    # A repeated temperature; a static one (0.01 T_Ze) that draws nothing; and
    # one whose unbounded flip-flop factor would round to just over 1/4, one
    # ulp over the base rate.
    N = 70
    SCAN = (1e9, 20.0, 4.0, 20.0, 0.11518, 2.0, 797406919.621389)

    def test_equal_temperatures_give_equal_t2(self):
        scan = ps.effective_t2_scan(
            ps.BathNoiseConfig(), (300.0, 300.0), n_realizations=150
        )
        assert scan[0][1] == scan[1][1]

    def test_cooling_slows_decay(self):
        # common random numbers: one seed across temperatures, so the
        # ordering is deterministic even at modest realization counts
        scan = ps.effective_t2_scan(
            ps.BathNoiseConfig(), (300.0, 10.0, 5.0, 3.0), n_realizations=400
        )
        t2 = [value for _, value in scan]
        assert all(b > a for a, b in zip(t2, t2[1:]))
        assert t2[-1] / t2[0] > 2.0

    @pytest.mark.parametrize("seed", [3, 5])
    def test_hot_limit_to_20k_rises_at_each_seed(self, seed):
        # Every temperature stretches the same hot-limit events, so one
        # seed's scan stays ordered where independent draws per temperature
        # gave T2(20 K) / T2(hot) = 0.979 and 0.998 at these seeds.
        scan = ps.effective_t2_scan(
            ps.BathNoiseConfig(seed=seed), (1e9, 20.0), n_realizations=1000
        )
        assert scan[0][1] < scan[1][1]

    def test_a_fit_that_does_not_converge_raises(self, monkeypatch):
        fit = ps.fitkit.fit
        monkeypatch.setattr(ps.fitkit, "fit", lambda *args: fit(*args, max_iterations=0))
        with pytest.raises(RuntimeError) as err:
            ps.effective_t2_scan(ps.BathNoiseConfig(), (20.0, 4.0), self.N)
        # The first temperature's fit stops, and the scan names it.
        assert str(err.value) == (
            "echo decay fit did not converge at T = 20.0 K: maximum iterations reached"
        )

    @staticmethod
    def _traced_scan(monkeypatch, cfg, temperatures, n, threads=1):
        """The scan's T2s and the trace it fitted at each temperature."""
        traced = []
        hahn_echoes = ps._hahn_echoes
        monkeypatch.setattr(
            ps, "_hahn_echoes", lambda *args: traced.extend(hahn_echoes(*args)) or traced
        )
        scan = ps.effective_t2_scan(cfg, temperatures, n, threads)
        monkeypatch.undo()
        return [t2 for _, t2 in scan], traced

    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize(
        "bath",
        [dict(n_sources=30), TestBlockKernel.BATHS[3]],
        ids=["drawn", "pinned"],
    )
    def test_each_temperature_is_its_own_run(self, monkeypatch, bath, threads):
        cfg = ps.BathNoiseConfig(seed=6, **bath)
        _, traced = self._traced_scan(monkeypatch, cfg, self.SCAN, self.N, threads)
        assert len(traced) == len(self.SCAN)
        for temperature, trace in zip(self.SCAN, traced):
            alone = ps.simulate_hahn_echo(
                replace(cfg, temperature=temperature), ps.default_tau_grid(), self.N
            )
            assert np.array_equal(trace.amplitude, alone.amplitude)
            assert np.array_equal(trace.std_error, alone.std_error)
        assert np.all(traced[4].amplitude == 1.0)
        assert ps.effective_rate(replace(cfg, temperature=self.SCAN[-1])) == cfg.base_rate

    def test_default_scan_filters_each_block_once(self, monkeypatch):
        # Each block of 155 is filtered in one run, at every rate.
        runs = []
        echo_block = ps._echo_block
        monkeypatch.setattr(
            ps, "_echo_block", lambda cfg, rates, tau, lo, hi, *args:
            runs.append(hi - lo) or echo_block(cfg, rates, tau, lo, hi, *args)
        )
        cfg = ps.BathNoiseConfig(seed=11)
        ps.effective_t2_scan(cfg, (1e9, 20.0, 8.0, 4.0, 2.0, 0.01 * cfg.t_zeeman), 310)
        assert runs == [155, 155]

    def test_every_temperature_is_checked_before_any_draw(self, monkeypatch):
        # Lowered so that the hot limit would filter 152.5 events x 49 cells
        # and is refused, while 2 K (100.7 x 49) is not, with 11 x 41 cells of
        # echo rows each.
        monkeypatch.setattr(ps, "_MAX_CELLS", 6000)
        streams = []
        stream = ps._stream
        monkeypatch.setattr(ps, "_stream", lambda *args: streams.append(args) or stream(*args))
        with pytest.raises(ValueError, match="would filter"):
            ps.effective_t2_scan(ps.BathNoiseConfig(), (2.0, 1e9), self.N)
        assert streams == []

    def test_many_temperatures_are_refused_before_their_echoes(self):
        # A block of 155 would keep 2 x 1500 rows of 41 delays per
        # realization, 1.9e7 cells (0.15 GB): refused after its draws.
        temperatures = np.linspace(5.0, 300.0, 1500)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="block 0 would keep 1500 rates x 155 real"):
                ps.effective_t2_scan(ps.BathNoiseConfig(), temperatures, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < TestBlockKernel.MEMORY_BOUND

    def test_each_temperature_checks_each_draw(self, monkeypatch):
        # As TestHahnEcho.test_each_draw_is_checked_against_the_limit: the
        # hot limit's expected events plus one sit exactly at the lowered
        # limit, so its realizations pass the pre-flight and about half of
        # them are over it in the window; at 2 K almost none is.
        monkeypatch.setattr(ps, "_MAX_CELLS", (41 + ps._SIGN_GROUPS) * 100 + ps._ECHO_ROWS * 41)
        cfg = ps.BathNoiseConfig(n_sources=1, base_rate=99 / 50e-6)
        with pytest.raises(ValueError, match="in its window"):
            ps.effective_t2_scan(cfg, (2.0, 1e9), 200)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ps.BathNoiseConfig(n_sources=0)
        with pytest.raises(ValueError, match="n_sources must be an integer"):
            ps.BathNoiseConfig(n_sources=2.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            ps.BathNoiseConfig(seed=1.5)
        with pytest.raises(ValueError):
            ps.BathNoiseConfig(coupling_scale=-1.0)
        with pytest.raises(ValueError):
            ps.BathNoiseConfig(base_rate=-1.0)
        with pytest.raises(ValueError):
            ps.BathNoiseConfig(temperature=0.0)
        with pytest.raises(ValueError):
            ps.BathNoiseConfig(t_zeeman=-2.0)
        with pytest.raises(ValueError):
            ps.BathNoiseConfig(fixed_couplings=())
        for field in ("coupling_scale", "base_rate", "temperature", "t_zeeman"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    ps.BathNoiseConfig(**{field: value})
        with pytest.raises(ValueError):
            ps.BathNoiseConfig(fixed_couplings=(1e4, math.nan))
        # Three pinned couplings with the default 100 sources.
        with pytest.raises(ValueError, match="n_sources"):
            ps.BathNoiseConfig(fixed_couplings=(3e4, -5e4, 1.2e5))

    def test_trace_validation(self):
        good = dict(
            sequence=ps.SEQUENCE_HAHN,
            delays=np.array([0.0, 1e-6]),
            amplitude=np.array([1.0, 0.9]),
            std_error=np.array([0.0, 0.01]),
            n_realizations=10,
            seed=0,
        )
        ps.DecayTrace(**good)
        with pytest.raises(ValueError, match="sequence"):
            ps.DecayTrace(**{**good, "sequence": "ramsey"})
        with pytest.raises(ValueError):
            ps.DecayTrace(**{**good, "amplitude": np.array([1.0])})
        with pytest.raises(ValueError):
            ps.DecayTrace(**{**good, "delays": np.array([1e-6, 1e-6])})
        with pytest.raises(ValueError):
            ps.DecayTrace(**{**good, "delays": np.array([-1e-6, 1e-6])})
        with pytest.raises(ValueError):
            ps.DecayTrace(**{**good, "std_error": np.array([0.0, -0.01])})
        with pytest.raises(ValueError):
            ps.DecayTrace(**{**good, "std_error": np.array([0.0, math.nan])})
        with pytest.raises(ValueError, match="finite"):
            ps.DecayTrace(**{**good, "amplitude": np.array([1.0, math.inf])})
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ps.DecayTrace(**{**good, "delays": np.array([0.0, bad])})
        grid = np.array([[0.0, 1e-6], [2e-6, 3e-6]])
        two_d = dict.fromkeys(("delays", "amplitude", "std_error"), grid)
        with pytest.raises(ValueError, match="1-d"):
            ps.DecayTrace(**{**good, **two_d})
        with pytest.raises(ValueError):
            ps.DecayTrace(**{**good, "n_realizations": 0})


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        cfg = ps.BathNoiseConfig(n_sources=5, seed=13)
        trace = ps.simulate_hahn_echo(cfg, np.linspace(0.0, 15e-6, 7), 30)
        path = tmp_path / "trace.csv"
        ps.write_trace_csv(trace, path, header_lines=("nvbath test run",))
        back = ps.read_trace_csv(path)
        assert back.sequence == trace.sequence
        assert back.n_realizations == 30
        assert back.seed == 13
        np.testing.assert_array_equal(back.delays, trace.delays)
        np.testing.assert_array_equal(back.amplitude, trace.amplitude)
        np.testing.assert_array_equal(back.std_error, trace.std_error)
        assert path.read_text().startswith("# nvbath test run\n")

    def test_rejects_malformed_files(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("x,y\n0,1\n")
        with pytest.raises(ValueError, match="line 1"):
            ps.read_trace_csv(bad_header)

        bad_columns = tmp_path / "b.csv"
        bad_columns.write_text("delay_s,amplitude,std_error\n0.0,1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            ps.read_trace_csv(bad_columns)

        bad_value = tmp_path / "c.csv"
        bad_value.write_text("delay_s,amplitude,std_error\n0.0,one,0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            ps.read_trace_csv(bad_value)

        empty = tmp_path / "d.csv"
        empty.write_text("delay_s,amplitude,std_error\n")
        with pytest.raises(ValueError, match="no data"):
            ps.read_trace_csv(empty)

    @pytest.mark.parametrize(
        "token", ["n_realizations=many", "seed=x", "sequence=ramsey"]
    )
    def test_bad_metadata_names_the_file(self, tmp_path, token):
        path = tmp_path / "trace.csv"
        path.write_text(f"# {token}\ndelay_s,amplitude,std_error\n0.0,1.0,0.0\n")
        with pytest.raises(table.TableFormatError, match=f"^{re.escape(str(path))}: "):
            ps.read_trace_csv(path)
